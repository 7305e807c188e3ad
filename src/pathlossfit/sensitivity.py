"""Measurement/prediction splits and sweeps for model sensitivity analysis.

A split rule partitions a dataset into a measurement set (used to fit each
model) and a disjoint prediction set (used only to score it); sweeping the
rule traces how the prediction error and the fitted parameters move as the
two sets grow apart in distance or as each frequency is held out in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Union

import numpy as np

from .domain import (
    MODEL_KINDS,
    Dataset,
    DomainError,
    ModelParams,
    evaluate,
    param_values,
    params_from_dict,
    rms,
)
from .fitters import (
    D0_BOUNDS_DEFAULT,
    FITTER_KINDS,
    FitError,
    Moments,
    RegressionDesign,
    StackedFit,
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
        """(measurement, prediction) masks over ``ds`` at gap ``point``, for :func:`split`."""
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
    widening gap between the sets belong to neither and are dropped; tests
    refit each such split as the reference of the moment sweeps.
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


@dataclass(frozen=True, eq=False)
class PredictionReport:
    """A sweep's results as columns: per sweep point its ``point``, its
    (n_meas, n_pred, n_gap) ``counts`` and its ``skip_reason`` (None where
    every model fitted); over the fitted points, each model's StackedFit and
    the (points, models, 2) measurement and prediction ``sigma``. ``table``
    reads the columns point by point; for the tests and the bench tracer,
    ``points`` and ``active_points`` build SweepPoints from it on first use."""

    spec: SplitSpec
    models: tuple[str, ...]
    point: tuple[float, ...] = ()
    counts: tuple[tuple[int, int, int], ...] = ()
    skip_reason: tuple[str | None, ...] = ()
    fits: tuple[StackedFit, ...] = ()
    sigma: np.ndarray = field(default_factory=lambda: np.empty((0, 0, 2)))

    def table(self, texts=lambda column: column.ravel().tolist()):
        """Per sweep point (point, counts, skip_reason, models): at a fitted
        point, per model (model, fitted kind, {value name: value}, flags,
        measurement sigma, prediction sigma), at a skipped one none. Each
        float comes from ``texts`` of its whole column: the float itself by
        default, or a text such as :func:`~pathlossfit.ingest.float_texts` gives."""
        names = [MODEL_KINDS[model].value_names for model in self.models]
        rows = lambda column, width: zip(*[iter(texts(column))] * width)  # noqa: E731
        fitted = zip(*(zip(fit.kinds, rows(fit.values, len(model_names)), fit.flags)
                       for fit, model_names in zip(self.fits, names)))
        sigmas = rows(self.sigma, 2)
        for point, counts, reason in zip(texts(np.array(self.point)), self.counts,
                                         self.skip_reason):
            yield point, counts, reason, () if reason is not None else [
                (model, kind, dict(zip(model_names, values)), flags, *next(sigmas))
                for model, model_names, (kind, values, flags)
                in zip(self.models, names, next(fitted))]

    @cached_property
    def points(self) -> tuple[SweepPoint, ...]:
        return tuple(SweepPoint(point, *counts, reason is not None, reason or "", tuple(
            ModelPrediction(model, params_from_dict({"kind": kind, **values}), *sigmas, flags)
            for model, kind, values, flags, *sigmas in models))
            for point, counts, reason, models in self.table())

    def active_points(self) -> tuple[SweepPoint, ...]:
        return tuple(p for p in self.points if not p.skipped)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PredictionReport)
                and (self.spec, self.points) == (other.spec, other.points))

    def __hash__(self) -> int:
        return hash((self.spec, self.points))


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
    sweep_points = _refit_points if isinstance(spec, FrequencyLOO) else _moment_points
    report = sweep_points(ds, spec, tuple(models), f0, d0_bounds)
    if not report.point:  # a frequency hold-out of a dataset with no samples
        raise SweepError("no sweep points: the dataset has no samples")
    if None not in report.skip_reason:
        raise SweepError(f"all sweep points skipped; first degeneracy at "
                         f"point {report.point[0]}: {report.skip_reason[0]}")
    return report


def _empty_set(n_meas: int, n_pred: int) -> str | None:
    """The skip reason of a point with an empty set, or None."""
    if n_meas == 0 or n_pred == 0:
        return f"empty {'measurement' if n_meas == 0 else 'prediction'} set"
    return None


def _refit_points(ds: Dataset, spec: SplitSpec, models, f0, d0_bounds) -> PredictionReport:
    """Each point from a split of ``ds`` and a refit of every model; a point
    takes its first model error."""
    points, counts, reasons, fitted = tuple(map(float, spec.points(ds))), [], [], []
    for point in points:
        measurement, prediction = split(ds, spec, point)
        counts.append((len(measurement), len(prediction),
                       len(ds) - len(measurement) - len(prediction)))
        reason, reports = _empty_set(len(measurement), len(prediction)), []
        for kind in models if reason is None else ():
            try:
                report = fit_with_reversion(measurement, kind, f0=f0, d0_bounds=d0_bounds)
                reports.append((report.params, report.flags,  # not the residuals
                                (report.sigma, prediction_sigma(report.params, prediction))))
            except (FitError, DomainError) as exc:
                reason = str(exc)
                break
        reasons.append(reason)
        fitted += [reports] if reason is None else []
        del measurement, prediction  # not kept while the next split is made
    # each model's fits over the fitted points, as a stack
    fits = tuple(StackedFit([p.kind for p, _, _ in column],
                            np.array([list(param_values(p).values()) for p, _, _ in column]),
                            [flags for _, flags, _ in column], [None] * len(column))
                 for column in zip(*fitted))
    sigma = [[sigmas for _, _, sigmas in row] for row in fitted]
    return PredictionReport(spec, models, points, tuple(counts), tuple(reasons), fits,
                            np.array(sigma).reshape(len(fitted), len(models), 2))


def _moment_points(ds: Dataset, spec: _DistanceSplit, models, f0, d0_bounds) -> PredictionReport:
    """Each point of a distance sweep from moments, with no per-point refit.

    In the order of the spec's key (:class:`_DistanceSplit`) the prediction
    set is a prefix and each measurement set a suffix. The moments of the
    shells between consecutive limits are merged from the end of the order,
    so a measurement set's moments come from its own samples only. The
    records of the points that have both sets are stacked, and each model is
    solved once over the stack (:func:`~pathlossfit.fitters.fit_stack`). A
    point takes its first model error, or the DomainError of a model
    undefined at the nearest prediction distance (below its d0).
    """
    sign, limit = spec.sign, spec.sign * spec.cutoff
    order = np.argsort(sign * ds.distance, kind="stable")
    key = sign * ds.distance[order]
    n = len(ds)
    n_pred = int(np.searchsorted(key, limit, side="right"))
    starts = np.searchsorted(key, [limit + p for p in spec.delta_grid], side="right").tolist()
    reasons = [_empty_set(n - start, n_pred) for start in starts]
    active = reasons.count(None)  # the measurement sets shrink: the nonempty ones are a prefix
    fits, sigma = [], np.empty((active, len(models), 2))
    if active:
        columns = RegressionDesign.from_dataset(ds).variables[:, order]  # sorted: not cached
        frequencies = np.array(ds.frequencies)
        frequency = np.searchsorted(frequencies, ds.frequency[order])
        bounds = [0, n_pred, *starts[:active], n]
        counts = [np.bincount(frequency[lo:hi], minlength=frequencies.size)
                  for lo, hi in zip(bounds, bounds[1:])]
        prediction = Moments.of(columns[:, :n_pred], frequencies, counts[:1])
        measurement = Moments.of(columns, frequencies, counts[2:], starts[:active])
        nearest = order[0] if sign > 0 else order[n_pred - 1]  # smallest prediction d
        near_d, below_d0 = ds.distance[nearest], MODEL_KINDS["ci_opt"].below_d0
        for j, kind in enumerate(models):
            fits.append(fit := fit_stack(measurement, kind, f0=f0, d0_bounds=d0_bounds))
            sigma[:, j, 0] = moments_sigma(fit.forms, measurement)
            sigma[:, j, 1] = moments_sigma(fit.forms, prediction)
            # only CI-opt fits a d0 above the 1 m that every sample reaches
            for i in np.flatnonzero(near_d < fit.values[:, 1]).tolist() if kind == "ci_opt" else ():
                if fit.errors[i] is None:  # evaluate's DomainError: undefined below d0
                    fit.errors[i] = DomainError(below_d0.format(d0=fit.values[i, 1].item()))
            reasons[:active] = [str(error) if reason is None and error is not None else reason
                                for reason, error in zip(reasons, fit.errors)]
    rows = [i for i, reason in enumerate(reasons[:active]) if reason is None]
    return PredictionReport(spec, models, tuple(map(float, spec.points(ds))),
                            tuple((n - start, n_pred, start - n_pred) for start in starts),
                            tuple(reasons), tuple(fit.take(rows) for fit in fits), sigma[rows])


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
    """Per-parameter ranges over a sweep's fitted points, sorted by (model,
    name); the report's ``table`` gives the values point by point."""

    ranges: tuple[ParamRange, ...]


def parameter_trace(report: PredictionReport) -> ParameterTrace:
    """The min/max spread of each fitted parameter over the sweep's fitted points."""
    if not report.point:
        raise SweepError("empty prediction report")
    spans = {}
    for model, fit in zip(report.models, report.fits):
        if len(fit.values):
            spans.update(((model, name), (low, high)) for name, low, high in zip(
                MODEL_KINDS[model].value_names, fit.values.min(axis=0).tolist(),
                fit.values.max(axis=0).tolist()))
    return ParameterTrace(tuple(ParamRange(model, name, low, high)
                                for (model, name), (low, high) in sorted(spans.items())))
