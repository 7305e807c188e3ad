"""Closed-form minimum-shadow-fading estimators for all five model variants.

Each fitter minimizes the RMS of the residuals (the shadow-fading sigma)
over its model family, reading only a :class:`Moments` record of its
samples. Each is one least-squares solve of a target on at most two
columns, all linear forms in the variables (1, D, F, G = D*f, A, B): CI
fits A on D; AB fits B - 2F on D with an intercept; ABG fits B on D and F
with an intercept; CI-opt fits A on D with an intercept; CIF fits A on D
and G. The 1x1 or 2x2 normal equations are solved in closed form. The
``fit_*`` functions fit a dataset and report its residuals;
:func:`fit_moments` fits a record, which a distance sweep merges from
shells. An independent solver (SVD least squares and grid searches) lives
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
    ModelParams,
    auto_f0,
    fspl,
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

    def columns(self) -> np.ndarray:
        """The 6 x n rows of VARIABLES, one column per sample."""
        return np.stack((np.ones(len(self)), self.D, self.F, self.D * self.f,
                         self.A, self.B))


# The regression variables a Moments record covers. A linear form in them is
# a length-6 weight vector; the weight on "one" is its constant term.
VARIABLES = ("one", "D", "F", "G", "A", "B")
_ONE, _D, _F, _G, _A, _B = np.eye(len(VARIABLES))


@dataclass(frozen=True, eq=False)
class Moments:
    """Sufficient statistics of a nonempty sample set for every fitter: the
    means of VARIABLES, their centred co-moments sum((x - mean)(x - mean)^T),
    the (frequency, count) pairs as in ``Dataset.freq_summary``, and the
    smallest and largest D.
    """

    n: int
    mean: np.ndarray
    comoment: np.ndarray
    freq_counts: tuple[tuple[float, int], ...]
    d_low: float
    d_high: float

    @classmethod
    def of(cls, columns: np.ndarray, freq_counts) -> "Moments":
        """Record of the samples in ``columns`` (rows VARIABLES), centred
        about their own means."""
        mean = columns.sum(axis=1) / columns.shape[1]
        centred = columns - mean[:, None]
        return cls(columns.shape[1], mean, centred @ centred.T, freq_counts,
                   float(columns[1].min()), float(columns[1].max()))

    def merge(self, other: "Moments") -> "Moments":
        """Record of the union of two disjoint sample sets, by the pairwise
        update of Chan, Golub & LeVeque (Am. Statistician 37(3), 1983),
        which stays accurate however thin either set is."""
        n = self.n + other.n
        delta = other.mean - self.mean
        counts = dict(self.freq_counts)
        for f, count in other.freq_counts:
            counts[f] = counts.get(f, 0) + count
        return Moments(n, self.mean + delta * (other.n / n),
                       self.comoment + other.comoment
                       + np.outer(delta, delta) * (self.n * other.n / n),
                       tuple(sorted(counts.items())),
                       min(self.d_low, other.d_low), max(self.d_high, other.d_high))


def _least_squares(m: Moments, target: np.ndarray, columns: tuple[np.ndarray, ...],
                   intercept: bool, context: str) -> list[float]:
    """Least-squares coefficients of the linear form ``target`` on one or two
    ``columns`` over the samples of ``m``.

    With ``intercept`` the centred normal equations give the column
    coefficients and the intercept mean(y) - sum_j c_j*mean(x_j) is
    appended; without one the raw sums (centred plus n*mean*mean) are used.
    The system is solved by Cramer's rule; a singular one raises
    SingularDesignError naming ``context``.
    """
    forms = np.array((target, *columns))
    mean = forms @ m.mean
    system = forms @ m.comoment @ forms.T
    if not intercept:
        system += m.n * np.outer(mean, mean)
    _, *rhs = system[0].tolist()
    s11 = float(system[1, 1])
    if len(rhs) == 1:
        det = diagonal = s11
        numerators = rhs
    else:
        s22, s12 = float(system[2, 2]), float(system[1, 2])
        det = s11 * s22 - s12 * s12
        diagonal = s11 * s22
        numerators = [s22 * rhs[0] - s12 * rhs[1], s11 * rhs[1] - s12 * rhs[0]]
    if not abs(det) > SINGULARITY_RTOL * diagonal:
        raise SingularDesignError(f"{context}: normal equations are singular")
    coefficients = [v / det for v in numerators]
    if intercept:
        means = mean.tolist()
        coefficients.append(means[0] - sum(c * x for c, x in zip(coefficients, means[1:])))
    return coefficients


# kind -> weights over VARIABLES of the residual path_loss - model(f, d);
# CIF's slope n*(1 + b*(f - f0)/f0) on D is n*(1 - b) on D plus n*b/f0 on G.
_RESIDUAL_FORMS = {
    "abg": lambda p: (-p.beta, -p.alpha, -p.gamma, 0.0, 0.0, 1.0),
    "ab": lambda p: (-p.beta, -p.alpha, -p.gamma, 0.0, 0.0, 1.0),
    "ci": lambda p: (0.0, -p.n, 0.0, 0.0, 1.0, 0.0),
    "ci_opt": lambda p: (-(2.0 - p.n) * 10.0 * math.log10(p.d0), -p.n, 0.0, 0.0, 1.0, 0.0),
    "cif": lambda p: (0.0, -p.n * (1.0 - p.b), 0.0, -p.n * p.b / p.f0, 1.0, 0.0),
}


def _residual_form(params: ModelParams) -> np.ndarray:
    """The residual path_loss - model(f, d) of ``params`` as a linear form."""
    return np.array(_RESIDUAL_FORMS[params.kind](params))


def moments_sigma(params: ModelParams, m: Moments) -> float:
    """RMS of the residuals of ``params`` over the samples of ``m``: the
    root of n*(mean residual)^2 plus the centred quadratic form, over n (a
    sum below 0 from rounding counts as 0)."""
    form = _residual_form(params)
    mean = float(form @ m.mean)
    sse = m.n * mean * mean + float(form @ m.comoment @ form)
    return math.sqrt(max(sse, 0.0) / m.n)


def _require_distance_spread(m: Moments, fitter: str) -> None:
    if not m.d_low < m.d_high:
        raise DegenerateDesignError(f"{fitter} needs at least two distinct distances")


def _require_beyond_one_meter(m: Moments, fitter: str) -> None:
    if m.d_high == 0.0:  # D >= 0, so every sample is at 1 m
        raise DegenerateDesignError(
            f"{fitter} needs at least one sample with d > 1 m (all distances are 1 m)")


# Each solver takes (m, f0, d0_bounds), fits one kind and returns (params, flags).
_Solved = tuple[ModelParams, tuple[str, ...]]

def _solve_ci(m: Moments, f0, d0_bounds) -> _Solved:
    _require_beyond_one_meter(m, "fit_ci")
    (n,) = _least_squares(m, _A, (_D,), False, "fit_ci")
    return CIParams(n), ()


def _ci_about_fixed_d0(m: Moments, d0: float, flag: str) -> _Solved:
    """The CI-opt fit with its reference distance fixed at d0, flagged ``flag``:
    the slope of A - 2*10log10(d0) on D - 10log10(d0), no intercept."""
    b10 = 10.0 * math.log10(d0)
    if m.d_low == m.d_high == b10:
        raise DegenerateDesignError(f"all distances equal the reference d0={d0} m")
    (n,) = _least_squares(m, _A - 2.0 * b10 * _ONE, (_D - b10 * _ONE,), False,
                          "fit_ci_opt")
    return CIOptParams(n, d0), (flag,)


def _solve_ci_opt(m: Moments, f0, d0_bounds: tuple[float, float]) -> _Solved:
    lo, hi = d0_bounds
    if not (D0_BOUNDS_DEFAULT[0] <= lo < hi <= D0_BOUNDS_DEFAULT[1]):
        raise FitError(f"d0 bounds must satisfy 0.1 <= lo < hi <= 50, got {d0_bounds}")
    _require_distance_spread(m, "fit_ci_opt")
    n, intercept = _least_squares(m, _A, (_D,), True, "fit_ci_opt")

    if abs(2.0 - n) < N_NEAR_TWO_TOL:
        return _ci_about_fixed_d0(m, 1.0, FLAG_D0_UNIDENTIFIABLE)

    # Test log10(d0) against the upper bound before exponentiating: for n just
    # below 2 with a positive excess intercept, 10**log_d0 overflows a float.
    log_d0 = intercept / (10.0 * (2.0 - n))
    d0 = 10.0 ** log_d0 if log_d0 <= math.log10(hi) + 1.0 else math.inf
    if d0 < lo or d0 > hi:
        # refit about each bound and keep the smaller sigma; the bound that the
        # unconstrained d0 overshot goes first, since min keeps the first of equals
        bounds = [(lo, FLAG_D0_CLAMPED_LOW), (hi, FLAG_D0_CLAMPED_HIGH)]
        refits = [_ci_about_fixed_d0(m, bound, flag)
                  for bound, flag in (bounds if d0 < lo else bounds[::-1])]
        return min(refits, key=lambda refit: moments_sigma(refit[0], m))
    return CIOptParams(n, d0), ()


def _solve_abg(m: Moments, f0, d0_bounds) -> _Solved:
    if len(m.freq_counts) < 2:
        raise SingleFrequencyError(
            "fit_abg needs two distinct frequencies; use fit_ab for "
            "single-frequency data (frequency slope fixed at 2)")
    _require_distance_spread(m, "fit_abg")
    alpha, gamma, beta = _least_squares(m, _B, (_D, _F), True, "fit_abg")
    return ABGParams(alpha, beta, gamma), ()


def _solve_ab(m: Moments, f0, d0_bounds) -> _Solved:
    _require_distance_spread(m, "fit_ab")
    alpha, beta = _least_squares(m, _B - 2.0 * _F, (_D,), True, "fit_ab")
    return ABParams(alpha, beta), ()


def _solve_cif(m: Moments, f0, d0_bounds, allow_single_frequency: bool = True) -> _Solved:
    f0_value = auto_f0(m.freq_counts) if f0 == "auto" else float(f0)
    _require_beyond_one_meter(m, "fit_cif")
    if len(m.freq_counts) < 2:
        if not allow_single_frequency:
            raise SingleFrequencyError(
                "fit_cif needs two distinct frequencies; the model reverts to "
                "the CI model for the single-frequency case, use fit_ci")
        (n,) = _least_squares(m, _A, (_D,), False, "fit_cif")
        return CIFParams(n, 0.0, f0_value), (FLAG_CIF_SINGLE_FREQUENCY,)

    a, g = _least_squares(m, _A, (_D, _G), False, "fit_cif")
    n = a + g * f0_value
    if abs(n) <= SINGULARITY_RTOL * (abs(a) + abs(g * f0_value)):
        raise FitError("fit_cif: fitted n is zero, b = g*f0/n is undefined")
    return CIFParams(n, g * f0_value / n, f0_value), ()


def _fit(ds: Dataset, solve, *args) -> FitReport:
    """Fit ``ds`` with ``solve``; the residuals come from the regression columns."""
    design = RegressionDesign.from_dataset(ds)
    columns = design.columns()
    params, flags = solve(Moments.of(columns, ds.freq_summary), *args)
    return FitReport.from_residuals(params, _residual_form(params) @ columns, flags)


def fit_ci(ds: Dataset) -> FitReport:
    """Fit the 1 m close-in model: the single slope n = sum(D*A)/sum(D^2),
    the solution of the one-column system A on D.

    Requires at least one sample beyond 1 m, otherwise the design carries no
    distance information.
    """
    return _fit(ds, _solve_ci, "auto", D0_BOUNDS_DEFAULT)


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
    return _fit(ds, _solve_ci_opt, "auto", d0_bounds)


def fit_abg(ds: Dataset) -> FitReport:
    """Fit the three-parameter floating-intercept model by its closed forms.

    alpha and gamma solve the centred 2x2 system of B on D and F, and
    beta = mean(B) - alpha*mean(D) - gamma*mean(F).

    Needs at least two distinct distances and two distinct frequencies; on a
    single-frequency dataset the frequency slope is unidentifiable and the
    caller should use :func:`fit_ab` instead.
    """
    return _fit(ds, _solve_abg, "auto", D0_BOUNDS_DEFAULT)


def fit_ab(ds: Dataset) -> FitReport:
    """Fit the floating-intercept model with the frequency slope fixed at 2.

    Equivalent to ordinary least squares of (path_loss - 20*log10(f)) on
    10*log10(d) with an intercept: alpha = sum(D'y')/sum(D'^2) over the
    mean-removed D' and y', beta = mean(y) - alpha*mean(D).
    """
    return _fit(ds, _solve_ab, "auto", D0_BOUNDS_DEFAULT)


def fit_cif(ds: Dataset, f0: float | str = "auto", *,
            allow_single_frequency: bool = False) -> FitReport:
    """Fit the frequency-weighted close-in model for a chosen balance frequency.

    ``f0="auto"`` uses :func:`~pathlossfit.domain.auto_f0`, the
    sample-count-weighted mean frequency rounded to an integer GHz (unrounded
    where that gives 0); any positive value may be passed instead. The
    intermediate slopes a = n*(1-b) and g = n*b/f0 solve the two-column
    system A on D and D*f, [[sum(D^2), sum(D^2 f)], [sum(D^2 f), sum(D^2 f^2)]]
    [a, g] = [sum(D*A), sum(D*f*A)]; n = a + g*f0 and b = g*f0/n. An n that
    is zero to working precision leaves b undefined and is an error.

    Single-frequency data cannot separate a from g; by default that is an
    error directing the caller to :func:`fit_ci`. With
    ``allow_single_frequency=True`` the fit reverts to the CI slope with
    b = 0, flagged, which is exact when f0 equals the lone frequency.
    """
    return _fit(ds, _solve_cif, f0, D0_BOUNDS_DEFAULT, allow_single_frequency)


# kind -> fitter(ds, f0, d0_bounds). Each entry looks its fitter up by name
# when called, so wrappers installed on the module's fit_* names (tracing,
# test doubles) see every dispatched call.
_FITTERS = {
    "abg": lambda ds, f0, d0_bounds: fit_abg(ds),
    "ab": lambda ds, f0, d0_bounds: fit_ab(ds),
    "ci": lambda ds, f0, d0_bounds: fit_ci(ds),
    "ci_opt": lambda ds, f0, d0_bounds: fit_ci_opt(ds, d0_bounds),
    "cif": lambda ds, f0, d0_bounds: fit_cif(ds, f0, allow_single_frequency=True),
}
FITTER_KINDS = tuple(_FITTERS)
_SOLVERS = {"abg": _solve_abg, "ab": _solve_ab, "ci": _solve_ci,
            "ci_opt": _solve_ci_opt, "cif": _solve_cif}


def _reverted(kind: str, freq_counts, f0) -> tuple[str, float | str, tuple[str, ...]]:
    """(kind to fit, its f0, flag to add) under the single-frequency conventions."""
    if kind not in _FITTERS:
        raise FitError(f"unknown model kind {kind!r}; expected one of {FITTER_KINDS}")
    if len(freq_counts) == 1 and kind == "abg":
        return "ab", f0, (FLAG_ABG_AS_AB,)
    if len(freq_counts) == 1 and kind == "cif":  # CI slope about the lone frequency
        return kind, freq_counts[0][0], ()
    return kind, f0, ()


def fit_with_reversion(ds: Dataset, kind: str, *, f0: float | str = "auto",
                       d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT) -> FitReport:
    """Fit the model ``kind`` (one of FITTER_KINDS), with the single-frequency conventions.

    On single-frequency data a requested "abg" degrades to the AB fit
    (flagged) and a requested "cif" reverts to the CI slope about the lone
    frequency (flagged), instead of failing. Every other request goes to
    the kind's fitter.
    """
    kind, f0, flag = _reverted(kind, ds.freq_summary, f0)
    report = _FITTERS[kind](ds, f0, d0_bounds)
    return replace(report, flags=report.flags + flag) if flag else report


def fit_moments(m: Moments, kind: str, *, f0: float | str = "auto",
                d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT) -> _Solved:
    """(params, flags) of :func:`fit_with_reversion` on the samples of ``m``."""
    kind, f0, flag = _reverted(kind, m.freq_counts, f0)
    params, flags = _SOLVERS[kind](m, f0, d0_bounds)
    return params, flags + flag


# The one fit entry point under its public name.
fit_model = fit_with_reversion
