"""Closed-form minimum-shadow-fading estimators for all five model variants.

Each fitter minimizes the RMS of the residuals (the shadow-fading sigma)
over its model family and returns a :class:`~pathlossfit.domain.FitReport`.
The solutions are the exact stationary points of the least-squares normal
equations, so no iteration is involved; an independent brute-force/generic
solver lives in :mod:`pathlossfit.oracle` for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .domain import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    Dataset,
    FitReport,
    fspl,
    weighted_mean_frequency,
)

# Relative determinant threshold below which a normal-equation system is
# declared singular (scale-free: compared against the product of the
# system's diagonal magnitudes).
SINGULARITY_RTOL = 1e-12

# |2 - n| below this leaves d0 unidentifiable in the optimized-d0 model
# (the model degenerates to free space, where every d0 predicts alike).
N_NEAR_TWO_TOL = 1e-6

D0_BOUNDS_DEFAULT = (0.1, 50.0)

FLAG_D0_CLAMPED_LOW = "d0_clamped_low"
FLAG_D0_CLAMPED_HIGH = "d0_clamped_high"
FLAG_D0_UNIDENTIFIABLE = "d0_unidentifiable_n_near_2"
FLAG_CIF_SINGLE_FREQUENCY = "cif_reverted_to_ci"
FLAG_ABG_AS_AB = "abg_reverted_to_ab"


class FitError(ValueError):
    """A fit could not be produced from the given dataset."""


class DegenerateDesignError(FitError):
    """The regression design has no spread in a required direction."""


class SingularDesignError(FitError):
    """The normal-equation system is numerically singular (collinear regressors)."""


class SingleFrequencyError(FitError):
    """The requested multi-frequency fit needs at least two distinct frequencies."""


@dataclass(frozen=True, eq=False)
class RegressionDesign:
    """Per-sample regression vectors shared by all fitters.

    A: excess loss over free space at 1 m, path_loss - FSPL(f, 1 m), dB
    B: total path loss, dB
    D: 10*log10(distance), nonnegative since d >= 1 m
    F: 10*log10(frequency)
    f: frequency in GHz (linear regressor for the frequency-weighted model)
    """

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    F: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        n = self.A.size
        if n < 1:
            raise DegenerateDesignError("regression design needs at least one sample")
        if not all(v.size == n for v in (self.B, self.D, self.F, self.f)):
            raise DegenerateDesignError("regression vectors must share one length")

    @classmethod
    def from_dataset(cls, ds: Dataset) -> "RegressionDesign":
        if len(ds) == 0:
            raise DegenerateDesignError("cannot fit an empty dataset")
        f, d, pl = ds.arrays()
        return cls(A=pl - fspl(f, 1.0), B=pl, D=10.0 * np.log10(d),
                   F=10.0 * np.log10(f), f=f)

    def __len__(self) -> int:
        return int(self.A.size)


def _require_distance_spread(design: RegressionDesign, fitter: str) -> None:
    if np.unique(design.D).size < 2:
        raise DegenerateDesignError(
            f"{fitter} needs at least two distinct distances")


def _check_det(det: float, diag_product: float, context: str) -> None:
    if abs(det) < SINGULARITY_RTOL * abs(diag_product):
        raise SingularDesignError(f"{context}: normal equations are singular")


def fit_ci(ds: Dataset,
           preprocess_settings: Mapping[str, object] | None = None) -> FitReport:
    """Fit the 1 m close-in model: the single slope n = sum(D*A)/sum(D^2).

    Requires at least one sample beyond 1 m, otherwise the design carries no
    distance information.
    """
    design = RegressionDesign.from_dataset(ds)
    sum_d2 = float(np.dot(design.D, design.D))
    if sum_d2 == 0.0:
        raise DegenerateDesignError(
            "fit_ci needs at least one sample with d > 1 m (all distances are 1 m)")
    n = float(np.dot(design.D, design.A)) / sum_d2
    residuals = design.A - n * design.D
    return FitReport.from_residuals(CIParams(n), residuals, preprocess_settings)


def _ci_about_fixed_d0(design: RegressionDesign, d0: float) -> tuple[float, np.ndarray]:
    """Slope of the CI regression about a fixed reference distance d0."""
    b10 = 10.0 * math.log10(d0)
    d_shift = design.D - b10
    a_shift = design.A - 2.0 * b10
    sum_d2 = float(np.dot(d_shift, d_shift))
    if sum_d2 == 0.0:
        raise DegenerateDesignError(f"all distances equal the reference d0={d0} m")
    n = float(np.dot(d_shift, a_shift)) / sum_d2
    return n, a_shift - n * d_shift


def fit_ci_opt(ds: Dataset, d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT,
               preprocess_settings: Mapping[str, object] | None = None) -> FitReport:
    """Fit the close-in model with a jointly optimized reference distance.

    The unconstrained solution regresses excess-over-1m loss on distance with
    an intercept and maps the intercept to d0 = 10^(b/(10*(2-n))). When that
    d0 leaves ``d0_bounds`` (even beyond the float range), the constrained
    minimum lies on the boundary, so n is refit about each bound and the
    smaller-sigma bound is kept (the nearer bound breaks ties); when n is
    within ~1e-6 of 2 the model is free space and d0 is unidentifiable, so
    d0 = 1 m is reported with a flag.
    """
    lo, hi = d0_bounds
    if not (D0_BOUNDS_DEFAULT[0] <= lo < hi <= D0_BOUNDS_DEFAULT[1]):
        raise FitError(f"d0 bounds must satisfy 0.1 <= lo < hi <= 50, got {d0_bounds}")
    design = RegressionDesign.from_dataset(ds)
    _require_distance_spread(design, "fit_ci_opt")

    n_pts = len(design)
    sum_d = float(design.D.sum())
    sum_a = float(design.A.sum())
    sum_d2 = float(np.dot(design.D, design.D))
    sum_da = float(np.dot(design.D, design.A))
    denom = sum_d * sum_d - n_pts * sum_d2
    n = (sum_a * sum_d - n_pts * sum_da) / denom
    intercept = (sum_a - n * sum_d) / n_pts

    if abs(2.0 - n) < N_NEAR_TWO_TOL:
        n_fix, residuals = _ci_about_fixed_d0(design, 1.0)
        return FitReport.from_residuals(CIOptParams(n_fix, 1.0), residuals,
                                        preprocess_settings,
                                        flags=(FLAG_D0_UNIDENTIFIABLE,))

    # Test log10(d0) against the upper bound before exponentiating: for n just
    # below 2 with a positive excess intercept, 10**log_d0 overflows a float.
    log_d0 = intercept / (10.0 * (2.0 - n))
    d0 = 10.0 ** log_d0 if log_d0 <= math.log10(hi) + 1.0 else math.inf
    if d0 < lo or d0 > hi:
        candidates = []
        for bound, flag in ((lo, FLAG_D0_CLAMPED_LOW), (hi, FLAG_D0_CLAMPED_HIGH)):
            n_fix, residuals = _ci_about_fixed_d0(design, bound)
            sigma = float(np.sqrt(np.mean(residuals * residuals)))
            # tie-break toward the bound the unconstrained d0 overshot
            nearer = (bound == lo) == (d0 < lo)
            candidates.append((sigma, not nearer, bound, flag, n_fix, residuals))
        _, _, bound, flag, n_fix, residuals = min(candidates, key=lambda c: c[:2])
        return FitReport.from_residuals(CIOptParams(n_fix, bound), residuals,
                                        preprocess_settings, flags=(flag,))

    residuals = design.A - n * design.D - intercept
    return FitReport.from_residuals(CIOptParams(n, d0), residuals, preprocess_settings)


def fit_abg(ds: Dataset,
            preprocess_settings: Mapping[str, object] | None = None) -> FitReport:
    """Fit the three-parameter floating-intercept model by its closed forms.

    Needs at least two distinct distances and two distinct frequencies; on a
    single-frequency dataset the frequency slope is unidentifiable and the
    caller should use :func:`fit_ab` instead.
    """
    design = RegressionDesign.from_dataset(ds)
    if np.unique(design.f).size < 2:
        raise SingleFrequencyError(
            "fit_abg needs two distinct frequencies; use fit_ab for "
            "single-frequency data (frequency slope fixed at 2)")
    _require_distance_spread(design, "fit_abg")

    n_pts = len(design)
    d, f_log, b = design.D, design.F, design.B
    sum_d, sum_f, sum_b = float(d.sum()), float(f_log.sum()), float(b.sum())
    sum_d2, sum_f2 = float(np.dot(d, d)), float(np.dot(f_log, f_log))
    sum_df = float(np.dot(d, f_log))
    sum_db = float(np.dot(d, b))
    sum_fb = float(np.dot(f_log, b))

    # Determinant of [[sum_d2, sum_d, sum_df], [sum_d, N, sum_f],
    # [sum_df, sum_f, sum_f2]] against the product of its diagonal.
    det = (sum_d2 * (n_pts * sum_f2 - sum_f * sum_f)
           - sum_d * (sum_d * sum_f2 - sum_f * sum_df)
           + sum_df * (sum_d * sum_f - n_pts * sum_df))
    _check_det(det, sum_d2 * n_pts * sum_f2, "fit_abg")

    cdd = sum_d * sum_d - n_pts * sum_d2
    cff = sum_f * sum_f - n_pts * sum_f2
    cdf = sum_d * sum_f - n_pts * sum_df
    cdb = sum_d * sum_b - n_pts * sum_db
    cfb = sum_f * sum_b - n_pts * sum_fb

    alpha = (cdb * cff - cdf * cfb) / (cdd * cff - cdf * cdf)
    gamma = (cfb * cdd - cdf * cdb) / (cff * cdd - cdf * cdf)
    beta = (((sum_d * sum_fb - sum_b * sum_df) * (sum_f * sum_d2 - sum_d * sum_df)
             - (sum_b * sum_d2 - sum_d * sum_db) * (sum_d * sum_f2 - sum_f * sum_df))
            / (cdd * (sum_d * sum_f2 - sum_f * sum_df)
               + cdf * (sum_f * sum_d2 - sum_d * sum_df)))

    residuals = b - alpha * d - beta - gamma * f_log
    return FitReport.from_residuals(ABGParams(alpha, beta, gamma), residuals,
                                    preprocess_settings)


def fit_ab(ds: Dataset,
           preprocess_settings: Mapping[str, object] | None = None) -> FitReport:
    """Fit the floating-intercept model with the frequency slope fixed at 2.

    Equivalent to ordinary least squares of (path_loss - 20*log10(f)) on
    10*log10(d) with an intercept.
    """
    design = RegressionDesign.from_dataset(ds)
    _require_distance_spread(design, "fit_ab")

    y = design.B - 2.0 * design.F
    d_mean = float(design.D.mean())
    y_mean = float(y.mean())
    d_centered = design.D - d_mean
    alpha = float(np.dot(d_centered, y - y_mean)) / float(np.dot(d_centered, d_centered))
    beta = y_mean - alpha * d_mean
    residuals = y - alpha * design.D - beta
    return FitReport.from_residuals(ABParams(alpha, beta), residuals,
                                    preprocess_settings)


def fit_cif(ds: Dataset, f0: float | str = "auto", *,
            allow_single_frequency: bool = False,
            preprocess_settings: Mapping[str, object] | None = None) -> FitReport:
    """Fit the frequency-weighted close-in model for a chosen balance frequency.

    ``f0="auto"`` uses the sample-count-weighted mean frequency rounded to an
    integer GHz; any positive value may be passed instead. The intermediate
    slopes a = n*(1-b) and g = n*b/f0 come from the two-regressor normal
    equations; n = a + g*f0 and b = g*f0/n.

    Single-frequency data cannot separate a from g; by default that is an
    error directing the caller to :func:`fit_ci`. With
    ``allow_single_frequency=True`` the fit reverts to the CI slope with
    b = 0, flagged, which is exact when f0 equals the lone frequency.
    """
    design = RegressionDesign.from_dataset(ds)
    f0_value = float(weighted_mean_frequency(ds)) if f0 == "auto" else float(f0)

    sum_d2 = float(np.dot(design.D, design.D))
    if sum_d2 == 0.0:
        raise DegenerateDesignError(
            "fit_cif needs at least one sample with d > 1 m (all distances are 1 m)")

    if np.unique(design.f).size < 2:
        if not allow_single_frequency:
            raise SingleFrequencyError(
                "fit_cif needs two distinct frequencies; the model reverts to "
                "the CI model for the single-frequency case, use fit_ci")
        n = float(np.dot(design.D, design.A)) / sum_d2
        residuals = design.A - n * design.D
        return FitReport.from_residuals(CIFParams(n, 0.0, f0_value), residuals,
                                        preprocess_settings,
                                        flags=(FLAG_CIF_SINGLE_FREQUENCY,))

    df = design.D * design.f
    sum_d2f = float(np.dot(design.D, df))
    sum_d2f2 = float(np.dot(df, df))
    sum_da = float(np.dot(design.D, design.A))
    sum_daf = float(np.dot(df, design.A))
    det = sum_d2 * sum_d2f2 - sum_d2f * sum_d2f
    _check_det(det, sum_d2 * sum_d2f2, "fit_cif")

    denom = sum_d2f * sum_d2f - sum_d2 * sum_d2f2
    a = (sum_d2f * sum_daf - sum_d2f2 * sum_da) / denom
    g = (sum_d2f * sum_da - sum_d2 * sum_daf) / denom
    n = a + g * f0_value
    if n == 0.0:
        raise FitError("fit_cif: fitted n is zero, b = g*f0/n is undefined")
    b = g * f0_value / n

    residuals = design.A - design.D * (a + g * design.f)
    return FitReport.from_residuals(CIFParams(n, b, f0_value), residuals,
                                    preprocess_settings)


FITTER_KINDS = ("abg", "ab", "ci", "ci_opt", "cif")


def fit_model(ds: Dataset, kind: str, *, f0: float | str = "auto",
              d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT,
              preprocess_settings: Mapping[str, object] | None = None) -> FitReport:
    """Dispatch to the fitter for ``kind`` (one of FITTER_KINDS)."""
    if kind == "abg":
        return fit_abg(ds, preprocess_settings)
    if kind == "ab":
        return fit_ab(ds, preprocess_settings)
    if kind == "ci":
        return fit_ci(ds, preprocess_settings)
    if kind == "ci_opt":
        return fit_ci_opt(ds, d0_bounds, preprocess_settings)
    if kind == "cif":
        return fit_cif(ds, f0, preprocess_settings=preprocess_settings)
    raise FitError(f"unknown model kind {kind!r}; expected one of {FITTER_KINDS}")


def fit_with_reversion(ds: Dataset, kind: str, *, f0: float | str = "auto",
                       d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT,
                       preprocess_settings: Mapping[str, object] | None = None) -> FitReport:
    """Like :func:`fit_model`, applying the single-frequency conventions.

    On single-frequency data a requested "abg" degrades to the AB fit
    (flagged) and a requested "cif" reverts to the CI slope about the lone
    frequency (flagged), instead of failing.
    """
    single_freq = len(ds.freq_summary) == 1
    if kind == "abg" and single_freq:
        report = fit_ab(ds, preprocess_settings)
        return FitReport.from_residuals(report.params, report.residuals,
                                        preprocess_settings,
                                        flags=report.flags + (FLAG_ABG_AS_AB,))
    if kind == "cif" and single_freq:
        return fit_cif(ds, f0=ds.freq_summary[0][0], allow_single_frequency=True,
                       preprocess_settings=preprocess_settings)
    return fit_model(ds, kind, f0=f0, d0_bounds=d0_bounds,
                     preprocess_settings=preprocess_settings)
