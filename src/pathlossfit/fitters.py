"""Closed-form minimum-shadow-fading estimators for all five model variants.

Each fitter minimizes the RMS of the residuals (the shadow-fading sigma)
over its model family, reading only a :class:`Moments` record of its
samples. Each is one least-squares solve of a target on at most two
columns, all linear forms in the variables (1, D, F, G = D*f, A, B): CI
fits A on D; AB fits B - 2F on D with an intercept; ABG fits B on D and F
with an intercept; CI-opt fits A on D with an intercept; CIF fits A on D
and G. The 1x1 or 2x2 normal equations are solved in closed form.

A :class:`Moments` record stacks P sample sets on a leading point axis, and
every solver works on the whole stack at once. It returns each point's
parameters, flags and the residual form its solve minimised (whose RMS over
the samples is :func:`moments_sigma`), or the error that a fit of that point
alone raises, its checks in the same order; a degenerate point changes no
other point.
A fit is a stack of one: the ``fit_*`` functions fit a dataset, report its
residuals and raise its error. :func:`fit_stack` fits every point of a
stack, as a distance sweep does with the records it merges from shells, and
``fit_stack(m, kind).result()`` fits a one-point record. An independent
solver (SVD least squares and grid searches) lives in
:mod:`pathlossfit.oracle` for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .domain import (
    D0_BOUNDS_DEFAULT,
    F0_RULE,
    MODEL_KINDS,
    Dataset,
    DomainError,
    FitReport,
    ModelParams,
    auto_f0_rows,
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


# The regression variables a Moments record covers. A linear form in them is
# a length-6 weight vector; the weight on "one" is its constant term.
VARIABLES = ("one", "D", "F", "G", "A", "B")
_ONE, _D, _F, _G, _A, _B = np.eye(len(VARIABLES))


class RegressionDesign:
    """The home of :meth:`from_dataset`, under a name that the bench traces."""

    @classmethod
    def from_dataset(cls, ds: Dataset) -> np.ndarray:
        """The regression variables of ``ds`` shared by all fitters: a (6, n)
        float64 array, one row per VARIABLES entry and one column per sample.
        D = 10*log10(distance), nonnegative since d >= 1 m; F =
        10*log10(frequency); A = path_loss - FSPL(f, 1 m) and B = path_loss,
        both in dB."""
        if len(ds) == 0:
            raise DegenerateDesignError("cannot fit an empty dataset")
        f, d, pl = ds.arrays()
        A = pl - fspl(f, 1.0)  # first: its DomainError, not an overflow warning from D * f
        D = 10.0 * np.log10(d)
        return np.stack((np.ones(len(ds)), D, 10.0 * np.log10(f), D * f, A, pl))


@dataclass(frozen=True, eq=False)
class Moments:
    """Sufficient statistics of P nonempty sample sets for every fitter,
    stacked on a leading point axis: the counts ``n`` (P,), the means of
    VARIABLES ``mean`` (P, 6), their centred co-moments
    sum((x - mean)(x - mean)^T) ``comoment`` (P, 6, 6), the sample count of
    each frequency of the shared ascending table ``frequencies`` in
    ``counts`` (P, n_freq), and the smallest and largest D, ``d_low`` and
    ``d_high`` (P,). A single sample set is a stack of one.
    """

    n: np.ndarray
    mean: np.ndarray
    comoment: np.ndarray
    frequencies: np.ndarray
    counts: np.ndarray
    d_low: np.ndarray
    d_high: np.ndarray

    @classmethod
    def of(cls, columns: np.ndarray, frequency, frequencies,
           starts: list[int] = (0,)) -> "Moments":
        """The stack of the samples ``columns[:, s:]`` (rows VARIABLES) for
        each s of the increasing ``starts``, each below the sample count;
        ``frequency`` holds each sample's frequency, one of the ascending
        ``frequencies``, aligned with ``columns``.

        The records are built from the last shell back by the pairwise update
        of Chan, Golub & LeVeque (Am. Statistician 37(3), 1983), which stays
        accurate however thin either part is: each shell is centred about its
        own means and folded into the running tail record; the tail mean moves
        towards the shell's by the shell's share of the samples, and the
        co-moments add the shell's and then the update term, in that order. The
        empty shell of a repeated start repeats the record of the next shell.
        """
        bounds, records = [*starts, columns.shape[1]], []
        frequencies = np.asarray(frequencies, dtype=float)
        code = np.searchsorted(frequencies, frequency)
        counts = [np.bincount(code[lo:hi], minlength=frequencies.size)
                  for lo, hi in zip(bounds, bounds[1:])]
        for lo, hi in zip(bounds[-2::-1], bounds[:0:-1]):
            if hi == lo:
                records.append(records[-1])
                continue
            shell, size = columns[:, lo:hi], hi - lo
            mean = shell.sum(axis=1) / size
            centred = shell - mean[:, None]
            comoment = centred @ centred.T
            if records:
                tail, tail_mean, tail_comoment = records[-1]
                delta = mean - tail_mean
                comoment = (tail_comoment + comoment  # delta times delta: np.outer's product
                            + delta[:, None] * delta * (tail * size / (tail + size)))
                mean = tail_mean + delta * (size / (tail + size))
                size += tail
            records.append((size, mean, comoment))
        n, mean, comoment = map(np.array, zip(*records[::-1]))
        # the extreme D of each suffix from its shells' (an empty one reads the next's first)
        low, high = (extreme.accumulate(extreme.reduceat(columns[1], starts)[::-1])[::-1]
                     for extreme in (np.minimum, np.maximum))
        return cls(n, mean, comoment, frequencies,
                   np.cumsum(np.asarray(counts)[::-1], axis=0)[::-1], low, high)

    def take(self, index) -> "Moments":
        """The stack of the points ``index``, in that order."""
        return Moments(**{f.name: getattr(self, f.name) if f.name == "frequencies"
                          else getattr(self, f.name)[index] for f in fields(self)})

    def __len__(self) -> int:
        return len(self.n)


def _fail(errors: list, where, error) -> None:
    """Record ``error`` (one exception, or a list of per-point errors or None)
    at each point of the mask ``where`` that has no error yet."""
    for i in where.nonzero()[0].tolist():
        if errors[i] is None:
            errors[i] = error[i] if isinstance(error, list) else error


def _least_squares(m: Moments, target: np.ndarray, columns: tuple[np.ndarray, ...],
                   intercept: bool, context: str, errors: list) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of the linear form ``target`` on one or two
    ``columns`` over the samples of each point of ``m``: the coefficients
    (P, k) and the residual forms (P, 6) that the fit minimised,
    target - sum_j c_j*column_j (less the intercept on "one").

    With ``intercept`` the centred normal equations give the column
    coefficients and the intercept mean(y) - sum_j c_j*mean(x_j) is
    appended; without one the raw sums (centred plus n*mean*mean) are used.
    Each system is solved by Cramer's rule; a singular one gives zeros and
    records SingularDesignError naming ``context`` at its point.
    """
    basis = np.array((target, *columns))
    mean = basis @ m.mean[:, :, None]
    system = basis @ m.comoment @ basis.T
    if not intercept:
        system += m.n[:, None, None] * (mean * mean.transpose(0, 2, 1))
    k, rhs, mean = len(columns), system[:, 0, 1:], mean[:, :, 0]
    if k == 1:
        det = diagonal = system[:, 1, 1]
        numerators = rhs
    else:
        s12 = system[:, 1, 2]
        diagonal = system[:, 1, 1] * system[:, 2, 2]
        det = diagonal - s12 * s12
        s22_s11 = system.diagonal(axis1=1, axis2=2)[:, :0:-1]
        numerators = s22_s11 * rhs - s12[:, None] * rhs[:, ::-1]
    ok = np.abs(det) > SINGULARITY_RTOL * diagonal
    _fail(errors, ~ok, SingularDesignError(f"{context}: normal equations are singular"))
    coefficients = np.zeros((len(m), k + intercept))
    np.divide(numerators, det[:, None], out=coefficients[:, :k], where=ok[:, None])
    forms = target - coefficients[:, :k] @ basis[1:]
    if intercept:
        coefficients[:, k] = mean[:, 0] - (coefficients[:, :k] * mean[:, 1:]).sum(axis=1)
        forms[:, 0] -= coefficients[:, k]
    return coefficients, forms


def moments_sigma(forms: np.ndarray, m: Moments) -> np.ndarray:
    """RMS of the residual forms ``forms`` (P, 6) over the samples of each
    point of ``m`` (or of its one point): the root of n*(mean residual)^2
    plus the centred quadratic form, over n (a sum below 0 from rounding
    counts as 0)."""
    rows = forms[:, None, :]
    mean = (rows @ m.mean[:, :, None])[:, 0, 0]
    sse = m.n * mean * mean + (rows @ m.comoment @ forms[:, :, None])[:, 0, 0]
    return np.sqrt(np.maximum(sse, 0.0) / m.n)


def _require_distance_spread(m: Moments, fitter: str, errors: list) -> None:
    _fail(errors, ~(m.d_low < m.d_high),
          DegenerateDesignError(f"{fitter} needs at least two distinct distances"))


def _require_beyond_one_meter(m: Moments, fitter: str, errors: list) -> None:
    _fail(errors, m.d_high == 0.0, DegenerateDesignError(  # D >= 0: all samples at 1 m
        f"{fitter} needs at least one sample with d > 1 m (all distances are 1 m)"))


def _single_frequency(m: Moments) -> np.ndarray:
    return np.count_nonzero(m.counts, axis=1) < 2


# Each solver takes (m, f0 per point, d0_bounds, errors), fits one kind at
# every point of m and returns the (P, k) parameter values in MODEL_KINDS
# order, the (P, 6) residual forms of the solve that gave them and each
# point's flags; it records each point's first error in ``errors``, checks
# in the order of a fit of that point alone.
_Values = tuple[np.ndarray, np.ndarray, list[tuple[str, ...]]]

def _solve_ci(m: Moments, f0, d0_bounds, errors: list) -> _Values:
    _require_beyond_one_meter(m, "fit_ci", errors)
    return (*_least_squares(m, _A, (_D,), False, "fit_ci", errors), [()] * len(m))


def _ci_about_fixed_d0(m: Moments, d0: float) -> tuple[np.ndarray, np.ndarray, list]:
    """The CI-opt slope n with its reference distance fixed at d0, at every
    point, its residual forms and each point's error: the slope of
    A - 2*10log10(d0) on D - 10log10(d0), no intercept."""
    errors = [None] * len(m)
    b10 = 10.0 * math.log10(d0)
    _fail(errors, (m.d_low == m.d_high) & (m.d_high == b10),
          DegenerateDesignError(f"all distances equal the reference d0={d0} m"))
    slope, forms = _least_squares(m, _A - 2.0 * b10 * _ONE, (_D - b10 * _ONE,), False,
                                  "fit_ci_opt", errors)
    return slope[:, 0], forms, errors


def _solve_ci_opt(m: Moments, f0, d0_bounds: tuple[float, float], errors: list) -> _Values:
    lo, hi = d0_bounds
    if not (D0_BOUNDS_DEFAULT[0] <= lo < hi <= D0_BOUNDS_DEFAULT[1]):
        _fail(errors, np.ones(len(m), dtype=bool),
              FitError(f"d0 bounds must satisfy 0.1 <= lo < hi <= 50, got {d0_bounds}"))
        return np.ones((len(m), 2)), np.zeros((len(m), len(VARIABLES))), [()] * len(m)
    _require_distance_spread(m, "fit_ci_opt", errors)
    coefficients, forms = _least_squares(m, _A, (_D,), True, "fit_ci_opt", errors)
    n, intercept = coefficients.T
    free = np.abs(2.0 - n) < N_NEAR_TWO_TOL  # d0 unidentifiable: 1 m, flagged
    # Python's ** per value (np.power differs by 1 ulp in ~5% of exponents), each
    # tested against the upper bound first: for n just below 2, 10**log_d0 overflows.
    log_d0 = np.divide(intercept, 10.0 * (2.0 - n), out=np.zeros(len(m)), where=~free)
    top = math.log10(hi) + 1.0
    d0 = np.array([10.0 ** v if v <= top else math.inf for v in log_d0.tolist()])
    low, high = ~free & (d0 < lo), ~free & (d0 > hi)
    flags = [()] * len(m)
    # refit about each bound and keep the smaller sigma; the bound that the
    # unconstrained d0 overshot goes first, since min keeps the first of equals
    for where, choices in ((free, [(1.0, FLAG_D0_UNIDENTIFIABLE)]),
                           (low, [(lo, FLAG_D0_CLAMPED_LOW), (hi, FLAG_D0_CLAMPED_HIGH)]),
                           (high, [(hi, FLAG_D0_CLAMPED_HIGH), (lo, FLAG_D0_CLAMPED_LOW)])):
        if not where.any():
            continue
        refits = [(bound, flag, *_ci_about_fixed_d0(m, bound)) for bound, flag in choices]
        for *_, refit_errors in refits:
            _fail(errors, where, refit_errors)
        sigma = [moments_sigma(refit_forms, m) for *_, refit_forms, _ in refits]
        second = where & (sigma[-1] < sigma[0])
        for keep, (bound, flag, slope, refit_forms, _) in ((where & ~second, refits[0]),
                                                           (second, refits[-1])):
            n[keep], d0[keep], forms[keep] = slope[keep], bound, refit_forms[keep]
            for i in np.flatnonzero(keep).tolist():
                flags[i] = (flag,)
    return np.column_stack((n, d0)), forms, flags


def _solve_abg(m: Moments, f0, d0_bounds, errors: list) -> _Values:
    _fail(errors, _single_frequency(m), SingleFrequencyError(
        "fit_abg needs two distinct frequencies; use fit_ab for "
        "single-frequency data (frequency slope fixed at 2)"))
    _require_distance_spread(m, "fit_abg", errors)
    alpha_gamma_beta, forms = _least_squares(m, _B, (_D, _F), True, "fit_abg", errors)
    return alpha_gamma_beta.take((0, 2, 1), axis=1), forms, [()] * len(m)


def _solve_ab(m: Moments, f0, d0_bounds, errors: list) -> _Values:
    _require_distance_spread(m, "fit_ab", errors)
    return (*_least_squares(m, _B - 2.0 * _F, (_D,), True, "fit_ab", errors), [()] * len(m))


def _solve_cif(m: Moments, f0, d0_bounds, errors: list,
               allow_single_frequency: bool = True) -> _Values:
    f0 = np.array([auto if value == "auto" else float(value)
                   for auto, value in zip(auto_f0_rows(m.frequencies, m.counts).tolist(), f0)])
    _require_beyond_one_meter(m, "fit_cif", errors)
    single = _single_frequency(m)
    if not allow_single_frequency:
        _fail(errors, single, SingleFrequencyError(
            "fit_cif needs two distinct frequencies; the model reverts to "
            "the CI model for the single-frequency case, use fit_ci"))
    if single.all():  # every point holds one frequency or none: fit_stack splits them
        slope, forms = _least_squares(m, _A, (_D,), False, "fit_cif", errors)
        n, b, flags = slope[:, 0], np.zeros(len(m)), [(FLAG_CIF_SINGLE_FREQUENCY,)] * len(m)
    else:
        slopes, forms = _least_squares(m, _A, (_D, _G), False, "fit_cif", errors)
        a, g = slopes.T
        g_f0 = np.multiply(g, f0, out=np.zeros(len(m)), where=g != 0)  # 0, even at f0 = inf
        n = a + g_f0
        zero = np.abs(n) <= SINGULARITY_RTOL * (np.abs(a) + np.abs(g_f0))
        _fail(errors, zero, FitError("fit_cif: fitted n is zero, b = g*f0/n is undefined"))
        b = np.divide(g_f0, n, out=np.zeros(len(m)), where=~zero)
        # (n, b, f0) must give back a and g*f at the data's frequencies (times f0,
        # which may be 0); far from them b rounds to 1 and n*(1 - b) loses a.
        # At f0 = +-inf the zero-n check has failed the point already.
        lost, i = np.zeros(len(m), dtype=bool), np.flatnonzero(np.isfinite(f0))
        f_top, scale = (m.frequencies * (m.counts[i] > 0)).max(axis=1), np.abs(f0[i])
        with np.errstate(over="ignore"):  # a loss times a huge f0 is inf: lost
            lost[i] = (np.abs(n[i] * (1.0 - b[i]) - a[i]) * scale
                       + np.abs(n[i] * b[i] - g_f0[i]) * f_top
                       > SINGULARITY_RTOL * (np.abs(a[i]) + np.abs(g[i]) * f_top) * scale)
        _fail(errors, lost, FitError(
            "fit_cif: f0 too far from the data to write (a, g) as (n, b)"))
        flags = [()] * len(m)
    if (bad := ~(np.isfinite(f0) & (f0 > 0))).any():  # CIFParams' rule on f0, checked last
        _fail(errors, bad, [DomainError(F0_RULE.format(value)) for value in f0.tolist()])
    return np.column_stack((n, b, f0)), forms, flags


@dataclass(frozen=True, eq=False)
class StackedFit:
    """One model fitted at every point of a Moments stack, as columns: each
    point's fitted kind (the one asked for, or its single-frequency
    substitute), its ``values`` (P, k) under the asked kind's
    ``MODEL_KINDS[...].value_names``, its flags, its error (None if it
    fitted) and the residual form over VARIABLES that its solve minimised,
    whose RMS over any record is :func:`moments_sigma` (None where the points
    were fitted one at a time). :meth:`at` builds a point's params object."""

    kinds: list[str]
    values: np.ndarray
    flags: list[tuple[str, ...]]
    errors: list
    forms: np.ndarray | None = None

    def at(self, i: int) -> ModelParams | None:
        """The params of point ``i`` (None at an error)."""
        if self.errors[i] is not None:
            return None
        entry = MODEL_KINDS[self.kinds[i]]
        return entry.params(*self.values[i, :len(entry.names)].tolist())

    def take(self, index: list[int]) -> "StackedFit":
        """The fits of the points ``index``, in that order."""
        pick = lambda column: [column[i] for i in index]  # noqa: E731
        return StackedFit(pick(self.kinds), self.values[index], pick(self.flags),
                          pick(self.errors), None if self.forms is None else self.forms[index])

    def result(self) -> tuple[ModelParams, tuple[str, ...]]:
        """(params, flags) at the first point; raises its error."""
        if self.errors[0] is not None:
            raise self.errors[0]
        return self.at(0), self.flags[0]


def _solve(m: Moments, kind: str, f0, d0_bounds, *args) -> StackedFit:
    """Fit ``kind`` at every point of ``m``, with each point's f0 ("auto" or
    GHz). Each error-free row is a valid params row: CI-opt's d0 is its
    in-bounds solution, a bound or 1 m, and the CIF solver checks f0."""
    errors = [None] * len(m)
    values, forms, flags = _SOLVERS[kind](m, f0, d0_bounds, errors, *args)
    if fixed := MODEL_KINDS[kind].fixed:
        values = np.column_stack((values, np.tile(tuple(fixed.values()), (len(m), 1))))
    return StackedFit([kind] * len(m), values, flags, errors, forms)


def _fit(ds: Dataset, kind: str, f0="auto", d0_bounds=D0_BOUNDS_DEFAULT, *args) -> FitReport:
    """Fit ``ds`` as a stack of one, its record; the residuals come from its
    regression columns. Both are built once per dataset."""
    params, flags = (fit := _solve(ds.moments, kind, [f0], d0_bounds, *args)).result()
    return FitReport.from_residuals(params, fit.forms[0] @ ds.design, flags)


def fit_ci(ds: Dataset) -> FitReport:
    """Fit the 1 m close-in model: the single slope n = sum(D*A)/sum(D^2),
    the solution of the one-column system A on D.

    Requires at least one sample beyond 1 m, otherwise the design carries no
    distance information.
    """
    return _fit(ds, "ci")


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
    return _fit(ds, "ci_opt", "auto", d0_bounds)


def fit_abg(ds: Dataset) -> FitReport:
    """Fit the three-parameter floating-intercept model by its closed forms.

    alpha and gamma solve the centred 2x2 system of B on D and F, and
    beta = mean(B) - alpha*mean(D) - gamma*mean(F).

    Needs at least two distinct distances and two distinct frequencies; on a
    single-frequency dataset the frequency slope is unidentifiable and the
    caller should use :func:`fit_ab` instead.
    """
    return _fit(ds, "abg")


def fit_ab(ds: Dataset) -> FitReport:
    """Fit the floating-intercept model with the frequency slope fixed at 2.

    Equivalent to ordinary least squares of (path_loss - 20*log10(f)) on
    10*log10(d) with an intercept: alpha = sum(D'y')/sum(D'^2) over the
    mean-removed D' and y', beta = mean(y) - alpha*mean(D).
    """
    return _fit(ds, "ab")


def fit_cif(ds: Dataset, f0: float | str = "auto", *,
            allow_single_frequency: bool = False) -> FitReport:
    """Fit the frequency-weighted close-in model for a chosen balance frequency.

    ``f0="auto"`` uses :func:`~pathlossfit.domain.auto_f0`, the
    sample-count-weighted mean frequency rounded to an integer GHz (unrounded
    where that gives 0); any positive value may be passed instead. The
    intermediate slopes a = n*(1-b) and g = n*b/f0 solve the two-column
    system A on D and D*f, [[sum(D^2), sum(D^2 f)], [sum(D^2 f), sum(D^2 f^2)]]
    [a, g] = [sum(D*A), sum(D*f*A)]; n = a + g*f0 and b = g*f0/n. An n that
    is zero to working precision leaves b undefined, and an f0 so far from
    the data that (n, b, f0) lose a or g to SINGULARITY_RTOL loses the fit:
    both are errors. The residuals are those of (a, g), alike at every f0.

    Single-frequency data cannot separate a from g; by default that is an
    error directing the caller to :func:`fit_ci`. With
    ``allow_single_frequency=True`` the fit reverts to the CI slope with
    b = 0, flagged, which is exact when f0 equals the lone frequency.
    """
    return _fit(ds, "cif", f0, D0_BOUNDS_DEFAULT, allow_single_frequency)


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


def _reverted(kind: str, lone: float | None, f0) -> tuple[str, float | str, tuple[str, ...]]:
    """(kind to fit, its f0, flag to add) under the single-frequency
    conventions, with ``lone`` the only frequency present, or None."""
    if kind not in _FITTERS:
        raise FitError(f"unknown model kind {kind!r}; expected one of {FITTER_KINDS}")
    if lone is not None and kind == "abg":
        return "ab", f0, (FLAG_ABG_AS_AB,)
    if lone is not None and kind == "cif":  # CI slope about the lone frequency
        return kind, lone, ()
    return kind, f0, ()


def fit_with_reversion(ds: Dataset, kind: str, *, f0: float | str = "auto",
                       d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT) -> FitReport:
    """Fit the model ``kind`` (one of FITTER_KINDS), with the single-frequency conventions.

    On single-frequency data a requested "abg" degrades to the AB fit
    (flagged) and a requested "cif" reverts to the CI slope about the lone
    frequency (flagged), instead of failing. Every other request goes to
    the kind's fitter.
    """
    frequencies = ds.frequencies
    kind, f0, flag = _reverted(kind, frequencies[0] if len(frequencies) == 1 else None, f0)
    report = _FITTERS[kind](ds, f0, d0_bounds)
    return replace(report, flags=report.flags + flag) if flag else report


def fit_stack(m: Moments, kind: str, *, f0: float | str = "auto",
              d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT) -> StackedFit:
    """:func:`fit_with_reversion` at every point of ``m``: each point takes
    the single-frequency conventions of its own frequencies. Those depend only
    on whether a point holds one frequency, so the multi-frequency points and
    the single-frequency points are each solved as one stack."""
    single = _single_frequency(m)
    lowest = m.frequencies[(m.counts > 0).argmax(axis=1)].tolist()
    out = StackedFit([kind] * len(m), np.empty((len(m), len(MODEL_KINDS[kind].value_names))),
                     [()] * len(m), [None] * len(m), np.empty((len(m), len(VARIABLES))))
    for index in (np.flatnonzero(~single), np.flatnonzero(single)):
        if index.size:  # the multi-frequency points share one convention
            reverted = ([_reverted(kind, lowest[i], f0) for i in index.tolist()] if single[index[0]]
                        else [_reverted(kind, None, f0)] * index.size)
            fit_kind, _, flag = reverted[0]
            whole = index.size == len(m)
            fit = _solve(m if whole else m.take(index), fit_kind, [r[1] for r in reverted],
                         d0_bounds)
            if whole and not flag:  # one part, with nothing to add: the fit as solved
                return fit
            out.values[index], out.forms[index] = fit.values, fit.forms
            for j, i in enumerate(index.tolist()):
                out.kinds[i], out.flags[i], out.errors[i] = (
                    fit_kind, fit.flags[j] + flag, fit.errors[j])
    return out
