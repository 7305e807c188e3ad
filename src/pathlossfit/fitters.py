"""Closed-form minimum-shadow-fading estimators for all five model variants.

Each fitter minimizes the RMS of the residuals (the shadow-fading sigma)
over its model family and returns a :class:`~pathlossfit.domain.FitReport`.
Each is one least-squares core applied to a target and at most two
:class:`RegressionDesign` columns: CI fits A on D; AB fits B - 2F on D with
an intercept; ABG fits B on D and F with an intercept; CI-opt fits A on D
with an intercept; CIF fits A on D and D*f. With an intercept the means are
removed first, so the coefficients c solve the centred normal equations
sum(x_j' x_k') c_k = sum(x_j' y'), a 1x1 or 2x2 system solved in closed
form, and the intercept is mean(y) - sum_j c_j*mean(x_j). No iteration is
involved; an independent solver (SVD least squares and grid searches) lives
in :mod:`pathlossfit.oracle` for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    D0_BOUNDS_DEFAULT,
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


def _least_squares(y: np.ndarray, columns: tuple[np.ndarray, ...], intercept: bool,
                   context: str) -> tuple[list[float], np.ndarray]:
    """Least-squares coefficients of ``y`` on one or two ``columns``, and the residuals.

    With ``intercept`` the means are removed first, the centred normal
    equations give the column coefficients, and the intercept
    mean(y) - sum_j c_j*mean(x_j) is appended to them. The 1x1 or 2x2
    system is solved in closed form (Cramer's rule); a singular one raises
    SingularDesignError naming ``context``.
    """
    if intercept:
        # sum/size is the value of mean() without its per-call overhead
        means = [float(x.sum()) / x.size for x in columns]
        y_mean = float(y.sum()) / y.size
        xs = [x - m for x, m in zip(columns, means)]
        target = y - y_mean
    else:
        xs, target = columns, y
    rhs = [float(np.dot(x, target)) for x in xs]
    s11 = float(np.dot(xs[0], xs[0]))
    if len(xs) == 1:
        det = diagonal = s11
        numerators = rhs
    else:
        s22 = float(np.dot(xs[1], xs[1]))
        s12 = float(np.dot(xs[0], xs[1]))
        det = s11 * s22 - s12 * s12
        diagonal = s11 * s22
        numerators = [s22 * rhs[0] - s12 * rhs[1], s11 * rhs[1] - s12 * rhs[0]]
    if not abs(det) > SINGULARITY_RTOL * diagonal:
        raise SingularDesignError(f"{context}: normal equations are singular")
    coefficients = [v / det for v in numerators]
    residuals = y - coefficients[0] * columns[0]
    if len(columns) == 2:
        residuals -= coefficients[1] * columns[1]
    if intercept:
        coefficients.append(y_mean - sum(c * m for c, m in zip(coefficients, means)))
        residuals -= coefficients[-1]
    return coefficients, residuals


def fit_ci(ds: Dataset) -> FitReport:
    """Fit the 1 m close-in model: the single slope n = sum(D*A)/sum(D^2),
    the solution of the one-column system A on D.

    Requires at least one sample beyond 1 m, otherwise the design carries no
    distance information.
    """
    design = RegressionDesign.from_dataset(ds)
    if not design.D.any():
        raise DegenerateDesignError(
            "fit_ci needs at least one sample with d > 1 m (all distances are 1 m)")
    (n,), residuals = _least_squares(design.A, (design.D,), False, "fit_ci")
    return FitReport.from_residuals(CIParams(n), residuals)


def _ci_about_fixed_d0(design: RegressionDesign, d0: float, flag: str) -> FitReport:
    """The CI-opt fit with its reference distance fixed at d0, flagged ``flag``:
    the slope of A - 2*10log10(d0) on D - 10log10(d0), no intercept."""
    b10 = 10.0 * math.log10(d0)
    d_shift = design.D - b10
    if not d_shift.any():
        raise DegenerateDesignError(f"all distances equal the reference d0={d0} m")
    (n,), residuals = _least_squares(design.A - 2.0 * b10, (d_shift,), False,
                                     "fit_ci_opt")
    return FitReport.from_residuals(CIOptParams(n, d0), residuals, flags=(flag,))


def fit_ci_opt(ds: Dataset,
               d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT) -> FitReport:
    """Fit the close-in model with a jointly optimized reference distance.

    The unconstrained solution regresses excess-over-1m loss on distance with
    an intercept, A = n*D + b, so n = sum(D'A')/sum(D'^2) over the centred
    D' and A', and maps the intercept to d0 = 10^(b/(10*(2-n))). When that
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
    (n, intercept), residuals = _least_squares(design.A, (design.D,), True, "fit_ci_opt")

    if abs(2.0 - n) < N_NEAR_TWO_TOL:
        return _ci_about_fixed_d0(design, 1.0, FLAG_D0_UNIDENTIFIABLE)

    # Test log10(d0) against the upper bound before exponentiating: for n just
    # below 2 with a positive excess intercept, 10**log_d0 overflows a float.
    log_d0 = intercept / (10.0 * (2.0 - n))
    d0 = 10.0 ** log_d0 if log_d0 <= math.log10(hi) + 1.0 else math.inf
    if d0 < lo or d0 > hi:
        # refit about each bound and keep the smaller sigma; the bound that the
        # unconstrained d0 overshot goes first, since min keeps the first of equals
        bounds = [(lo, FLAG_D0_CLAMPED_LOW), (hi, FLAG_D0_CLAMPED_HIGH)]
        refits = [_ci_about_fixed_d0(design, bound, flag)
                  for bound, flag in (bounds if d0 < lo else bounds[::-1])]
        return min(refits, key=lambda report: report.sigma)

    return FitReport.from_residuals(CIOptParams(n, d0), residuals)


def fit_abg(ds: Dataset) -> FitReport:
    """Fit the three-parameter floating-intercept model by its closed forms.

    alpha and gamma solve the centred 2x2 system of B on D and F, and
    beta = mean(B) - alpha*mean(D) - gamma*mean(F).

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
    (alpha, gamma, beta), residuals = _least_squares(
        design.B, (design.D, design.F), True, "fit_abg")
    return FitReport.from_residuals(ABGParams(alpha, beta, gamma), residuals)


def fit_ab(ds: Dataset) -> FitReport:
    """Fit the floating-intercept model with the frequency slope fixed at 2.

    Equivalent to ordinary least squares of (path_loss - 20*log10(f)) on
    10*log10(d) with an intercept: alpha = sum(D'y')/sum(D'^2) over the
    mean-removed D' and y', beta = mean(y) - alpha*mean(D).
    """
    design = RegressionDesign.from_dataset(ds)
    _require_distance_spread(design, "fit_ab")
    (alpha, beta), residuals = _least_squares(design.B - 2.0 * design.F, (design.D,),
                                              True, "fit_ab")
    return FitReport.from_residuals(ABParams(alpha, beta), residuals)


def fit_cif(ds: Dataset, f0: float | str = "auto", *,
            allow_single_frequency: bool = False) -> FitReport:
    """Fit the frequency-weighted close-in model for a chosen balance frequency.

    ``f0="auto"`` uses the sample-count-weighted mean frequency rounded to an
    integer GHz; any positive value may be passed instead. The intermediate
    slopes a = n*(1-b) and g = n*b/f0 solve the two-column system A on D and
    D*f, [[sum(D^2), sum(D^2 f)], [sum(D^2 f), sum(D^2 f^2)]] [a, g] =
    [sum(D*A), sum(D*f*A)]; n = a + g*f0 and b = g*f0/n. An n that is zero to
    working precision leaves b undefined and is an error.

    Single-frequency data cannot separate a from g; by default that is an
    error directing the caller to :func:`fit_ci`. With
    ``allow_single_frequency=True`` the fit reverts to the CI slope with
    b = 0, flagged, which is exact when f0 equals the lone frequency.
    """
    design = RegressionDesign.from_dataset(ds)
    f0_value = float(weighted_mean_frequency(ds)) if f0 == "auto" else float(f0)
    if not design.D.any():
        raise DegenerateDesignError(
            "fit_cif needs at least one sample with d > 1 m (all distances are 1 m)")

    if np.unique(design.f).size < 2:
        if not allow_single_frequency:
            raise SingleFrequencyError(
                "fit_cif needs two distinct frequencies; the model reverts to "
                "the CI model for the single-frequency case, use fit_ci")
        (n,), residuals = _least_squares(design.A, (design.D,), False, "fit_cif")
        return FitReport.from_residuals(CIFParams(n, 0.0, f0_value), residuals,
                                        flags=(FLAG_CIF_SINGLE_FREQUENCY,))

    (a, g), residuals = _least_squares(design.A, (design.D, design.D * design.f), False,
                                       "fit_cif")
    n = a + g * f0_value
    if abs(n) <= SINGULARITY_RTOL * (abs(a) + abs(g * f0_value)):
        raise FitError("fit_cif: fitted n is zero, b = g*f0/n is undefined")
    return FitReport.from_residuals(CIFParams(n, g * f0_value / n, f0_value), residuals)


# kind -> fitter(ds, f0, d0_bounds). Each entry looks its fitter up by name
# when called, so wrappers installed on the module's fit_* names (tracing,
# test doubles) see every dispatched call.
_FITTERS = {
    "abg": lambda ds, f0, d0_bounds: fit_abg(ds),
    "ab": lambda ds, f0, d0_bounds: fit_ab(ds),
    "ci": lambda ds, f0, d0_bounds: fit_ci(ds),
    "ci_opt": lambda ds, f0, d0_bounds: fit_ci_opt(ds, d0_bounds),
    "cif": lambda ds, f0, d0_bounds: fit_cif(ds, f0),
}
FITTER_KINDS = tuple(_FITTERS)


def fit_with_reversion(ds: Dataset, kind: str, *, f0: float | str = "auto",
                       d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT) -> FitReport:
    """Fit the model ``kind`` (one of FITTER_KINDS), with the single-frequency conventions.

    On single-frequency data a requested "abg" degrades to the AB fit
    (flagged) and a requested "cif" reverts to the CI slope about the lone
    frequency (flagged), instead of failing. Every other request goes to
    the kind's fitter.
    """
    if kind not in _FITTERS:
        raise FitError(f"unknown model kind {kind!r}; expected one of {FITTER_KINDS}")
    single_freq = len(ds.freq_summary) == 1
    if kind == "abg" and single_freq:
        report = fit_ab(ds)
        return replace(report, flags=report.flags + (FLAG_ABG_AS_AB,))
    if kind == "cif" and single_freq:
        return fit_cif(ds, f0=ds.freq_summary[0][0], allow_single_frequency=True)
    return _FITTERS[kind](ds, f0, d0_bounds)


# The one fit entry point under its public name.
fit_model = fit_with_reversion
