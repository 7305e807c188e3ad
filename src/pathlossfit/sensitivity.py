"""Measurement/prediction splits and sweeps for model sensitivity analysis.

A split rule partitions a dataset into a measurement set (used to fit each
model) and a disjoint prediction set (used only to score it); sweeping the
rule traces how the prediction error and the fitted parameters move as the
two sets grow apart in distance or as each frequency is held out in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .domain import (
    Dataset,
    DomainError,
    ModelParams,
    evaluate,
    param_values,
    rms,
)
from .fitters import (
    D0_BOUNDS_DEFAULT,
    FITTER_KINDS,
    FitError,
    Moments,
    RegressionDesign,
    fit_stack,
    fit_with_reversion,
    moments_sigma,
)

DEFAULT_MODELS = ("abg", "ci", "cif")

# Scenario-specific close-in cutoffs: the prediction set keeps everything at
# or below d_max and the measurement set recedes beyond d_max + delta.
DEFAULT_D_MAX = {"UMa": 200.0, "UMiSC": 50.0, "InHOffice": 15.0}
DEFAULT_D_MIN = 600.0


class SweepError(ValueError):
    """A sweep or prediction score could not be produced."""


class _DistanceSplit:
    """The rule of both distance splits: with key = sign*distance and limit =
    sign*cutoff (sign +1 close-in, -1 far), the prediction set is key <= limit
    and the measurement set at gap p is key > limit + p. Negation rounds
    symmetrically, so the far sets are exactly d >= d_min and d < d_min - p."""

    cutoff = property(lambda self: getattr(self, fields(self)[0].name))  # d_max or d_min

    def __post_init__(self) -> None:
        if not 0 < self.cutoff < math.inf:
            raise SweepError(f"{fields(self)[0].name} must be finite and > 0 m, "
                             f"got {self.cutoff}")
        grid = tuple(float(g) for g in self.delta_grid)
        if not grid:
            raise SweepError("delta grid must be nonempty")
        if not all(0 <= g < math.inf for g in grid):
            raise SweepError("delta grid values must be finite and nonnegative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise SweepError("delta grid must be strictly increasing")
        object.__setattr__(self, "delta_grid", grid)

    def points(self, ds: Dataset) -> tuple[float, ...]:
        return self.delta_grid

    def masks(self, ds: Dataset, point: float) -> tuple[np.ndarray, np.ndarray]:
        """(measurement, prediction) masks over ``ds`` at gap ``point``."""
        key, limit = self.sign * ds.distance, self.sign * self.cutoff
        return key > limit + point, key <= limit


@dataclass(frozen=True)
class DistanceClose(_DistanceSplit):
    """Prediction set d <= d_max; measurement set d > d_max + delta."""

    d_max: float
    delta_grid: tuple[float, ...]

    kind = "distance_close"
    sign = 1.0


@dataclass(frozen=True)
class DistanceFar(_DistanceSplit):
    """Prediction set d >= d_min; measurement set d < d_min - delta."""

    d_min: float
    delta_grid: tuple[float, ...]

    kind = "distance_far"
    sign = -1.0


@dataclass(frozen=True)
class FrequencyLOO:
    """Hold one frequency out as the prediction set, fit on all others.

    With ``held_out=None`` a sweep visits every frequency in the dataset in
    ascending order.
    """

    held_out: float | None = None

    kind = "frequency_loo"

    def points(self, ds: Dataset) -> tuple[float, ...]:
        return ds.frequencies if self.held_out is None else (float(self.held_out),)

    def masks(self, ds: Dataset, point: float) -> tuple[np.ndarray, np.ndarray]:
        """(measurement, prediction) masks over ``ds`` with frequency ``point`` held out."""
        return ds.frequency != point, ds.frequency == point


SplitSpec = Union[DistanceClose, DistanceFar, FrequencyLOO]


def steps(stop: float, step: float = 50.0) -> tuple[float, ...]:
    """Inclusive arithmetic grid 0, step, 2*step, ... up to stop."""
    if step <= 0:
        raise SweepError("step must be positive")
    out = []
    k = 0
    while (value := k * step) <= stop + 1e-9:
        out.append(value)
        k += 1
    return tuple(out)


def default_close_spec(scenario_name: str = "UMa") -> DistanceClose:
    if scenario_name not in DEFAULT_D_MAX:
        raise SweepError(f"no default d_max for scenario {scenario_name!r}; "
                         f"known: {sorted(DEFAULT_D_MAX)}")
    return DistanceClose(DEFAULT_D_MAX[scenario_name], steps(600.0))


def default_far_spec() -> DistanceFar:
    return DistanceFar(DEFAULT_D_MIN, steps(400.0))


def split(ds: Dataset, spec: SplitSpec, point: float) -> tuple[Dataset, Dataset]:
    """Partition per the spec's rule at one sweep point.

    Returns (measurement, prediction). For the distance rules, samples in the
    widening gap between the sets belong to neither and are dropped.
    """
    measurement, prediction = spec.masks(ds, point)
    return ds.filter(measurement), ds.filter(prediction)


def prediction_sigma(params: ModelParams, prediction: Dataset) -> float:
    """RMS of the prediction-set residuals about the model, no re-centering."""
    if len(prediction) == 0:
        raise SweepError("prediction set is empty")
    f, d, pl = prediction.arrays()
    return rms(pl - evaluate(params, f, d))


@dataclass(frozen=True)
class ModelPrediction:
    model: str  # requested kind; the params may be the substituted variant
    params: ModelParams
    measurement_sigma: float
    prediction_sigma: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepPoint:
    point: float
    n_meas: int
    n_pred: int
    n_gap: int
    skipped: bool
    skip_reason: str = ""
    models: tuple[ModelPrediction, ...] = ()


@dataclass(frozen=True)
class PredictionReport:
    spec: SplitSpec
    points: tuple[SweepPoint, ...]

    def active_points(self) -> tuple[SweepPoint, ...]:
        return tuple(p for p in self.points if not p.skipped)


def run_sweep(ds: Dataset, spec: SplitSpec,
              models: tuple[str, ...] = DEFAULT_MODELS, *,
              f0: float | str = "auto",
              d0_bounds: tuple[float, float] = D0_BOUNDS_DEFAULT) -> PredictionReport:
    """Fit each model on every measurement set and score it on the prediction set.

    A distance sweep reads every point off merged moments
    (:func:`_moment_points`); a frequency hold-out splits the dataset and
    refits at each point. Sweep points whose measurement or prediction set
    is empty, or whose fits are degenerate, are marked skipped; if every
    point is skipped the sweep fails, naming the first degeneracy.
    Deterministic for identical inputs.
    """
    if not models:
        raise SweepError("at least one model is required")
    for kind in models:
        if kind not in FITTER_KINDS:
            raise SweepError(f"unknown model kind {kind!r}; expected one of {FITTER_KINDS}")
    if isinstance(spec, FrequencyLOO):
        results = _refit_points(ds, spec, models, f0, d0_bounds)
    else:
        results = _moment_points(ds, spec, models, f0, d0_bounds)

    if not results:  # a frequency hold-out of a dataset with no samples
        raise SweepError("no sweep points: the dataset has no samples")
    report = PredictionReport(spec=spec, points=tuple(results))
    if not report.active_points():
        first = results[0]
        raise SweepError(f"all sweep points skipped; first degeneracy at "
                         f"point {first.point}: {first.skip_reason}")
    return report


def _sweep_point(point: float, n_meas: int, n_pred: int, n_gap: int, outcome) -> SweepPoint:
    """The sweep point with these counts whose models scored ``outcome``: their
    ModelPredictions in a list, or the first error. An error or an empty set skips it."""
    base = (float(point), n_meas, n_pred, n_gap)
    if n_meas == 0 or n_pred == 0:
        which = "measurement" if n_meas == 0 else "prediction"
        return SweepPoint(*base, skipped=True, skip_reason=f"empty {which} set")
    if isinstance(outcome, list):
        return SweepPoint(*base, skipped=False, models=tuple(outcome))
    return SweepPoint(*base, skipped=True, skip_reason=str(outcome))


def _refit_points(ds: Dataset, spec: SplitSpec, models, f0, d0_bounds) -> list[SweepPoint]:
    """Each point from a split of ``ds`` and a refit of every model."""
    results = []
    for point in spec.points(ds):
        measurement, prediction = split(ds, spec, point)
        outcome = []
        for kind in models if len(measurement) and len(prediction) else ():  # empty set: no fit
            try:
                report = fit_with_reversion(measurement, kind, f0=f0, d0_bounds=d0_bounds)
                predicted = prediction_sigma(report.params, prediction)
            except (FitError, DomainError) as exc:
                outcome = exc
                break
            outcome.append(ModelPrediction(kind, report.params, report.sigma, predicted,
                                           report.flags))
        results.append(_sweep_point(point, len(measurement), len(prediction),
                                    len(ds) - len(measurement) - len(prediction), outcome))
    return results


def _moment_points(ds: Dataset, spec: _DistanceSplit, models, f0, d0_bounds) -> list[SweepPoint]:
    """Each point of a distance sweep from moments, with no per-point refit.

    In the order of the spec's key (:class:`_DistanceSplit`) the prediction
    set is a prefix and each measurement set a suffix. The moments of the
    shells between consecutive limits are merged from the end of the order,
    so a measurement set's moments come from its own samples only. The
    records of the points that have both sets are stacked, and each model is
    solved once over the stack (:func:`~pathlossfit.fitters.fit_stack`).
    """
    sign, limit = spec.sign, spec.sign * spec.cutoff
    order = np.argsort(sign * ds.distance, kind="stable")
    key = sign * ds.distance[order]
    n = len(ds)
    n_pred = int(np.searchsorted(key, limit, side="right"))
    starts = np.searchsorted(key, [limit + p for p in spec.delta_grid], side="right").tolist()
    # the measurement sets shrink along the sweep: the nonempty ones are a prefix
    active = sum(start < n for start in starts) if n_pred else 0
    outcomes = [[] for _ in starts]  # the inactive points keep theirs empty
    if active:
        columns = RegressionDesign.from_dataset(ds).columns()[:, order]
        frequencies, frequency = np.unique(ds.frequency[order], return_inverse=True)
        bounds = [0, n_pred, *starts[:active], n]
        counts = [np.bincount(frequency[lo:hi], minlength=frequencies.size)
                  for lo, hi in zip(bounds, bounds[1:])]
        prediction = Moments.of(columns[:, :n_pred], frequencies, counts[:1])
        measurement = Moments.of(columns, frequencies, counts[2:], starts[:active])
        nearest = order[0] if sign > 0 else order[n_pred - 1]  # smallest prediction d
        near_f, near_d = ds.frequency[nearest], ds.distance[nearest]
        for kind in models:
            fit = fit_stack(measurement, kind, f0=f0, d0_bounds=d0_bounds)
            for i, (params, flags, error, measured, predicted) in enumerate(zip(
                    fit.params, fit.flags, fit.errors,
                    moments_sigma(fit.forms, measurement).tolist(),
                    moments_sigma(fit.forms, prediction).tolist())):
                if not isinstance(outcomes[i], list):
                    continue  # the point stopped at an earlier model's error
                if error is None and near_d < params.d0:
                    try:  # evaluate's DomainError: the model is undefined below d0
                        evaluate(params, near_f, near_d)
                    except DomainError as exc:
                        error = exc
                outcomes[i] = error if error is not None else [*outcomes[i], ModelPrediction(
                    kind, params, measured, predicted, flags)]
    return [_sweep_point(point, n - start, n_pred, start - n_pred, outcome)
            for point, start, outcome in zip(spec.points(ds), starts, outcomes)]


@dataclass(frozen=True)
class ParamRange:
    """Stability summary of one fitted parameter across the sweep."""

    model: str
    name: str
    low: float
    high: float

    @property
    def width(self) -> float:
        return self.high - self.low


@dataclass(frozen=True)
class ParameterTrace:
    """Long-form (point, model, name, value) rows plus per-parameter ranges."""

    rows: tuple[tuple[float, str, str, float], ...]
    ranges: tuple[ParamRange, ...]

    def range_of(self, model: str, name: str) -> ParamRange:
        for r in self.ranges:
            if r.model == model and r.name == name:
                return r
        raise KeyError((model, name))


def parameter_trace(report: PredictionReport) -> ParameterTrace:
    """Tabulate fitted parameters per sweep point and their min/max spread."""
    if not report.points:
        raise SweepError("empty prediction report")
    rows = []
    spans: dict[tuple[str, str], tuple[float, float]] = {}
    for point in report.active_points():
        for entry in point.models:
            for name, value in param_values(entry.params).items():
                rows.append((point.point, entry.model, name, value))
                key = (entry.model, name)
                lo, hi = spans.get(key, (value, value))
                spans[key] = (min(lo, value), max(hi, value))
    ranges = tuple(ParamRange(model, name, lo, hi)
                   for (model, name), (lo, hi) in sorted(spans.items()))
    return ParameterTrace(rows=tuple(rows), ranges=ranges)
