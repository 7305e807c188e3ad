"""Brute-force and generic-solver fits used to cross-check the closed forms.

Nothing here reuses the least-squares core or the regression design of
:mod:`.fitters`: the columns are built here from the dataset, the grid
searches scan the objective directly, and the linear fits solve an explicit
design matrix by SVD least squares (``numpy.linalg.lstsq``), without
forming normal equations. Intended for tests and for auditing a fit on a
small dataset (N up to a few hundred).
"""

from __future__ import annotations

import numpy as np

from .domain import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    Dataset,
    FitReport,
    auto_f0,
    evaluate,
    fspl,
)
from .fitters import SINGULARITY_RTOL, DegenerateDesignError, FitError, SingularDesignError

_CHUNK = 20_000  # grid rows evaluated per block to bound memory
_SURFACE_RTOL = 1e-9  # CIF params give back the solve's residuals to this x max|pl|


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    if step <= 0 or hi < lo:
        raise FitError(f"bad grid ({lo}, {hi}, {step})")
    # tiny nudge so e.g. (50 - 0.1) / 0.01 includes the upper endpoint
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _columns(ds: Dataset) -> tuple[np.ndarray, ...]:
    """(D, F, A, B, f) of ``ds``: D = 10*log10(d), F = 10*log10(f), the
    excess loss over free space at 1 m A = pl - FSPL(f, 1 m), B = pl, and f."""
    if len(ds) == 0:
        raise DegenerateDesignError("cannot fit an empty dataset")
    f, d, pl = ds.arrays()
    return 10.0 * np.log10(d), 10.0 * np.log10(f), pl - fspl(f, 1.0), pl, f


def _lstsq(columns: list[np.ndarray], y: np.ndarray,
           context: str) -> tuple[list[float], np.ndarray]:
    """SVD least-squares coefficients of ``y`` on the stacked ``columns``, and
    the residuals; a rank-deficient design raises SingularDesignError."""
    matrix = np.column_stack(columns)
    solution, _, rank, _ = np.linalg.lstsq(matrix, y, rcond=None)
    if rank < matrix.shape[1]:
        raise SingularDesignError(f"{context}: design matrix is rank deficient")
    return solution.tolist(), y - matrix @ solution


def oracle_fit(ds: Dataset, kind: str, *,
               n_grid: tuple[float, float, float] = (0.0, 10.0, 1e-4),
               d0_grid: tuple[float, float, float] = (0.1, 50.0, 0.01),
               f0: float | str = "auto") -> FitReport:
    """Minimum-sigma fit by dense grid search (ci, ci_opt) or SVD least
    squares on an explicit design matrix (abg, ab, cif).

    As in ``fit_cif``, an n that is zero to SINGULARITY_RTOL, or CIF params
    whose evaluated surface misses the solve's residuals by more than
    _SURFACE_RTOL*max|pl| (an f0 too far from the data), is a FitError.
    """
    D, F, A, B, f = _columns(ds)
    if kind == "ci":
        return _oracle_ci_grid(D, A, n_grid)
    if kind == "ci_opt":
        return _oracle_ci_opt_grid(D, A, d0_grid)
    if kind in ("abg", "ab"):  # centred, as raw [D, 1, F] columns lose digits at D ~ 50 dB
        columns, y = ([D, F], B) if kind == "abg" else ([D], B - 2.0 * F)
        means = [column.mean() for column in columns]
        slopes, residuals = _lstsq([column - mean for column, mean in zip(columns, means)],
                                   y - y.mean(), f"{kind} oracle")
        beta = float(y.mean() - np.dot(slopes, means))  # the intercept, from the means
        params = (ABGParams if kind == "abg" else ABParams)(slopes[0], beta, *slopes[1:])
        return FitReport.from_residuals(params, residuals)
    if kind == "cif":
        f0_value = auto_f0(ds.freq_summary) if f0 == "auto" else float(f0)
        (a, g), residuals = _lstsq([D, D * f], A, "cif oracle")
        n = a + g * f0_value
        if abs(n) <= SINGULARITY_RTOL * (abs(a) + abs(g * f0_value)):
            raise FitError("cif oracle: fitted n is zero, b undefined")
        params = CIFParams(n, g * f0_value / n, f0_value)
        params_residuals = B - evaluate(params, f, ds.distance)
        if not np.max(np.abs(params_residuals - residuals)) <= _SURFACE_RTOL * np.max(np.abs(B)):
            raise FitError("cif oracle: f0 too far from the data for (n, b) to carry the fit")
        return FitReport.from_residuals(params, residuals)
    raise FitError(f"unknown oracle kind {kind!r}")


def _oracle_ci_grid(D: np.ndarray, A: np.ndarray, n_grid) -> FitReport:
    candidates = _grid(*n_grid)
    best_n, best_sigma = 0.0, np.inf
    for start in range(0, candidates.size, _CHUNK):
        block = candidates[start:start + _CHUNK]
        res = A[None, :] - block[:, None] * D[None, :]
        sigmas = np.sqrt(np.mean(res * res, axis=1))
        i = int(np.argmin(sigmas))
        if sigmas[i] < best_sigma:
            best_sigma, best_n = float(sigmas[i]), float(block[i])
    return FitReport.from_residuals(CIParams(best_n), A - best_n * D)


def _oracle_ci_opt_grid(D: np.ndarray, A: np.ndarray, d0_grid) -> FitReport:
    if np.unique(D).size < 2:
        raise DegenerateDesignError("ci_opt oracle needs two distinct distances")
    d0s = _grid(*d0_grid)
    best = (np.inf, 0.0, 1.0)  # sigma, n, d0
    for start in range(0, d0s.size, _CHUNK):
        block = d0s[start:start + _CHUNK]
        b10 = 10.0 * np.log10(block)[:, None]
        d_shift = D[None, :] - b10
        a_shift = A[None, :] - 2.0 * b10
        den = np.sum(d_shift * d_shift, axis=1)
        n = np.sum(d_shift * a_shift, axis=1) / den
        res = a_shift - n[:, None] * d_shift
        sigmas = np.sqrt(np.mean(res * res, axis=1))
        i = int(np.argmin(sigmas))
        if sigmas[i] < best[0]:
            best = (float(sigmas[i]), float(n[i]), float(block[i]))
    _, n_best, d0_best = best
    b10 = 10.0 * np.log10(d0_best)
    residuals = (A - 2.0 * b10) - n_best * (D - b10)
    return FitReport.from_residuals(CIOptParams(n_best, d0_best), residuals)


def ci_slope_lstsq(ds: Dataset) -> float:
    """CI slope by SVD least squares (numpy lstsq), independent of the closed form."""
    D, _, A, _, _ = _columns(ds)
    solution, *_ = np.linalg.lstsq(D[:, None], A, rcond=None)
    return float(solution[0])
