"""The stacked moment core: P sample sets solved as one stack against P stacks of one.

A ``Moments`` record holds P sample sets on a leading point axis, and every
solver works on the whole stack. Each point must come out bit for bit as it
does alone, with the same error where it fails, whatever its neighbours are:
a singular or degenerate point must neither change another point nor raise
a warning.
"""

import math
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathlossfit import ABParams, Dataset, DistanceClose, fspl, run_sweep
from pathlossfit import fitters
from pathlossfit.fitters import (
    FITTER_KINDS,
    FLAG_ABG_AS_AB,
    FLAG_CIF_SINGLE_FREQUENCY,
    FLAG_D0_CLAMPED_HIGH,
    FLAG_D0_CLAMPED_LOW,
    FLAG_D0_UNIDENTIFIABLE,
    DegenerateDesignError,
    FitError,
    Moments,
    RegressionDesign,
    SingularDesignError,
    fit_stack,
    moments_sigma,
)
from pathlossfit.sensitivity import steps

TABLE = np.array([2.0, 10.0, 28.0, 73.0])  # the frequency table every record shares

DISTANCES = ("spread", "one_meter", "one_distance", "per_frequency")
LOSSES = ("free_space", "ci", "offset_up", "offset_down")
FREQUENCY_SETS = ((28.0,), (2.0, 28.0), (10.0, 28.0, 73.0), (2.0, 10.0, 28.0, 73.0))


def record(rng, distances: str, frequencies: tuple, loss: str, size: int) -> Moments:
    """A stack of one over ``size`` samples of one kind:

    distances: log-uniform 1-1000 m, all at 1 m, all at one distance, or one
    distance per frequency (D and F collinear: a singular ABG system);
    loss: exact free space (CI-opt n = 2), a CI slope with noise, or a
    slope of 3.5 offset 40 dB up or down (CI-opt's d0 beyond either bound).
    """
    f = rng.choice(frequencies, size)
    if distances == "spread":
        d = np.exp(rng.uniform(0.0, math.log(1000.0), size))
    elif distances == "one_meter":
        d = np.ones(size)
    elif distances == "one_distance":
        d = np.full(size, rng.uniform(2.0, 500.0))
    else:
        d = 5.0 * (1.0 + np.searchsorted(TABLE, f))
    if loss == "free_space":
        pl = fspl(f, d)
    else:
        slope, shift = {"ci": (rng.uniform(2.2, 4.0), 0.0), "offset_up": (3.5, 40.0),
                        "offset_down": (3.5, -40.0)}[loss]
        pl = fspl(f, 1.0) + 10.0 * slope * np.log10(d) + shift + rng.standard_normal(size)
    columns = RegressionDesign.from_dataset(Dataset.from_columns(f, d, pl))
    return Moments.of(columns, f, TABLE)


def stacked(records: list[Moments]) -> Moments:
    return Moments(**{f.name: TABLE if f.name == "frequencies" else
                      np.concatenate([getattr(r, f.name) for r in records])
                      for f in fields(Moments)})


def assert_point_equal(m: Moments, whole, i: int, alone) -> None:
    """Point ``i`` of ``whole``, a fit of ``m``, is point 0 of ``alone``, the
    fit of that point alone, bit for bit, and so is its residual sigma."""
    assert repr(whole.at(i)) == repr(alone.at(0))
    assert whole.flags[i] == alone.flags[0]
    got, want = whole.errors[i], alone.errors[0]
    assert (type(got), str(got)) == (type(want), str(want))
    if want is None:
        assert whole.forms[i].tobytes() == alone.forms[0].tobytes()
        assert (moments_sigma(whole.forms, m)[i].tobytes()
                == moments_sigma(alone.forms, m.take([i]))[0].tobytes())


def solve_every_way(m: Moments, f0, d0_bounds) -> dict:
    """fit_stack of ``m`` for every kind, checked point by point against
    stacks of one and against their result(); no warning may be raised."""
    fits = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in FITTER_KINDS:
            whole = fits[kind] = fit_stack(m, kind, f0=f0, d0_bounds=d0_bounds)
            for i in range(len(m)):
                alone = fit_stack(m.take([i]), kind, f0=f0, d0_bounds=d0_bounds)
                assert_point_equal(m, whole, i, alone)
                try:
                    result = fit_stack(m.take([i]), kind, f0=f0, d0_bounds=d0_bounds).result()
                except (fitters.FitError, fitters.DomainError) as exc:
                    want = whole.errors[i]
                    assert (type(exc), str(exc)) == (type(want), str(want))
                else:
                    assert whole.errors[i] is None
                    assert repr(result) == repr((whole.at(i), whole.flags[i]))
    # no params check backs the solver: each fitted d0 lies in the bounds, or
    # is the 1 m of an unidentifiable d0 (n near 2)
    lo, hi = d0_bounds
    for error, d0, flags in zip(fits["ci_opt"].errors, fits["ci_opt"].values[:, 1].tolist(),
                                fits["ci_opt"].flags):
        if error is None:
            assert lo <= d0 <= hi or (d0, flags) == (1.0, (FLAG_D0_UNIDENTIFIABLE,))
    return fits


@st.composite
def stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = draw(st.lists(st.tuples(st.sampled_from(DISTANCES),
                                     st.sampled_from(FREQUENCY_SETS),
                                     st.sampled_from(LOSSES), st.integers(1, 6)),
                           min_size=1, max_size=7))
    m = stacked([record(rng, *block) for block in blocks])
    return (m, draw(st.sampled_from(("auto", 20.0))),
            draw(st.sampled_from(((0.1, 50.0), (1.0, 2.0), (0.5, 0.6)))))


@settings(max_examples=150, deadline=None)
@given(case=stacks())
def test_a_stack_solves_each_point_as_a_stack_of_one(case):
    solve_every_way(*case)


def test_the_edge_cases_are_reached_and_kept_apart():
    rng = np.random.default_rng(20160505)
    cases = [("spread", (2.0, 28.0), "ci", 6),            # 0: a plain fit
             ("spread", (2.0, 28.0), "free_space", 6),    # 1: CI-opt n = 2
             ("spread", (2.0, 28.0), "offset_up", 6),     # 2: d0 below the bounds
             ("spread", (2.0, 28.0), "offset_down", 6),   # 3: d0 above the bounds
             ("spread", (28.0,), "ci", 6),                # 4: one frequency
             ("one_meter", (2.0, 28.0), "ci", 3),         # 5: every sample at 1 m
             ("per_frequency", (2.0, 28.0), "ci", 6)]     # 6: D and F collinear
    m = stacked([record(rng, *case) for case in cases])
    fits = solve_every_way(m, "auto", (0.1, 50.0))
    assert fits["ci_opt"].errors[:5] == [None] * 5
    assert fits["ci_opt"].flags[:4] == [
        (), (FLAG_D0_UNIDENTIFIABLE,), (FLAG_D0_CLAMPED_LOW,), (FLAG_D0_CLAMPED_HIGH,)]
    assert isinstance(fits["abg"].at(4), ABParams)
    assert fits["abg"].flags[4] == (FLAG_ABG_AS_AB,)
    assert fits["cif"].flags[4] == (FLAG_CIF_SINGLE_FREQUENCY,)
    assert fits["cif"].at(4).f0 == 28.0
    assert isinstance(fits["ci"].errors[5], DegenerateDesignError)
    assert fits["abg"].errors[:5] == [None] * 5
    assert isinstance(fits["abg"].errors[5], DegenerateDesignError)
    assert isinstance(fits["abg"].errors[6], SingularDesignError)


def test_a_sigma_tie_keeps_the_bound_that_d0_overshot(monkeypatch):
    # with every sigma equal, each clamped point keeps the bound it overshot
    rng = np.random.default_rng(7)
    m = stacked([record(rng, "spread", (2.0, 28.0), loss, 6)
                 for loss in ("offset_up", "offset_down")])
    monkeypatch.setattr(fitters, "moments_sigma", lambda forms, m: np.zeros(len(forms)))
    fit = fit_stack(m, "ci_opt")
    assert fit.flags == [(FLAG_D0_CLAMPED_LOW,), (FLAG_D0_CLAMPED_HIGH,)]
    assert [fit.at(i).d0 for i in range(len(fit.errors))] == [0.1, 50.0]


def test_a_bad_f0_is_an_error_at_every_point(noisy_multifreq):
    with pytest.raises(fitters.DomainError, match=r"^f0 must be > 0 GHz, got -1\.0$"):
        fitters.fit_cif(noisy_multifreq, f0=-1.0)
    rng = np.random.default_rng(3)
    m = stacked([record(rng, "spread", (2.0, 28.0), "ci", 6) for _ in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_stack(m, "cif", f0=-1.0)
    assert [fit.at(i) for i in range(len(fit.errors))] == [None] * 3
    assert [str(error) for error in fit.errors] == ["f0 must be > 0 GHz, got -1.0"] * 3


def test_a_bad_f0_is_an_error_on_the_single_frequency_branch():
    ds = Dataset.from_columns([28.0] * 3, [10.0, 20.0, 40.0], [90.0, 101.0, 109.0])
    with pytest.raises(fitters.DomainError, match=r"^f0 must be > 0 GHz, got -1\.0$"):
        fitters.fit_cif(ds, f0=-1.0, allow_single_frequency=True)
    # the solve records it: no error-free row fails its params' own check
    fit = fitters._solve(ds.moments, "cif", [-1.0], fitters.D0_BOUNDS_DEFAULT)
    assert [str(error) for error in fit.errors] == ["f0 must be > 0 GHz, got -1.0"]
    assert fitters.fit_cif(ds, f0=28.0, allow_single_frequency=True).flags == (
        FLAG_CIF_SINGLE_FREQUENCY,)


@pytest.mark.parametrize("f0", [0, -1, math.nan, math.inf])
def test_a_bad_f0_keeps_each_points_error_and_its_text(f0):
    # the f0 rule is a CIF point's last check: a point that fails an earlier
    # one keeps that error, and a single-frequency point fits about its own
    # frequency; f0 = inf makes n infinite, which the zero-n check names first
    rng = np.random.default_rng(20160505)
    cases = [("spread", (2.0, 28.0), "ci", 6), ("spread", (2.0, 28.0), "free_space", 6),
             ("spread", (2.0, 28.0), "offset_up", 6), ("spread", (2.0, 28.0), "offset_down", 6),
             ("spread", (28.0,), "ci", 6), ("one_meter", (2.0, 28.0), "ci", 3),
             ("per_frequency", (2.0, 28.0), "ci", 6),
             ("one_distance", (10.0, 28.0, 73.0), "ci", 4), ("one_meter", (28.0,), "ci", 2)]
    m = stacked([record(rng, *case) for case in cases])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_stack(m, "cif", f0=f0)
    bad_f0 = ((fitters.FitError, "fit_cif: fitted n is zero, b = g*f0/n is undefined")
              if math.isinf(f0) else (fitters.DomainError, f"f0 must be > 0 GHz, got {float(f0)}"))
    one_meter = (DegenerateDesignError,
                 "fit_cif needs at least one sample with d > 1 m (all distances are 1 m)")
    assert [(type(error), str(error)) for error in fit.errors] == [
        *[bad_f0] * 4, (type(None), "None"), one_meter, *[bad_f0] * 2, one_meter]
    assert fit.at(4).f0 == 28.0
    assert fit.flags[4] == fit.flags[8] == (FLAG_CIF_SINGLE_FREQUENCY,)


def test_least_squares_calls_do_not_grow_with_the_points(monkeypatch, uma_synthetic):
    calls = Counter()
    real = fitters._least_squares

    def counting(*args, **kwargs):
        calls["least_squares"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(fitters, "_least_squares", counting)
    for kind in FITTER_KINDS:
        counts = []
        for stop in (60.0, 600.0):
            calls.clear()
            report = run_sweep(uma_synthetic, DistanceClose(200.0, steps(stop, 1.0)), (kind,))
            assert len(report.points) == stop + 1 and len(report.active_points()) > stop * 0.8
            counts.append(calls["least_squares"])
        # a bounded number of least-squares solves per model, whatever the point
        # count: per reversion group one fit, and for CI-opt at most one refit
        # about 1 m and two about the bounds for each side that d0 overshot
        assert max(counts) <= 8, (kind, counts)


@st.composite
def suffixes(draw):
    """Random (6, n) columns, each row offset and scaled, nondecreasing
    starts below n (repeats likely), each shell's frequency counts, and
    each sample's frequency."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    offset = rng.choice([0.0, 1.0, -50.0, 1e3], (6, 1))
    scale = rng.choice([1e-3, 1.0, 30.0], (6, 1))
    columns = offset + scale * rng.standard_normal((6, n))
    starts = sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12)))
    frequency = rng.integers(0, TABLE.size, n)
    bounds = [*starts, n]
    counts = np.array([np.bincount(frequency[lo:hi], minlength=TABLE.size)
                       for lo, hi in zip(bounds, bounds[1:])])
    return columns, starts, counts, TABLE[frequency]


@settings(max_examples=300, deadline=None)
@given(case=suffixes())
def test_each_record_holds_the_moments_of_its_suffix(case):
    columns, starts, counts, frequency = case
    m = Moments.of(columns, frequency, TABLE, starts)
    assert len(m) == len(starts) and m.frequencies.tolist() == TABLE.tolist()
    for i, s in enumerate(starts):
        suffix = columns[:, s:]
        assert m.n[i] == suffix.shape[1]
        assert m.counts[i].tolist() == counts[i:].sum(axis=0).tolist()
        assert (m.d_low[i], m.d_high[i]) == (suffix[1].min(), suffix[1].max())
        # against a two-pass mean and co-moments, relative to each variable's scale
        mean = suffix.mean(axis=1)
        centred = suffix - mean[:, None]
        scale = np.abs(suffix).max(axis=1)
        assert np.all(np.abs(m.mean[i] - mean) <= 1e-12 * scale)
        assert np.all(np.abs(m.comoment[i] - centred @ centred.T)
                      <= 1e-12 * m.n[i] * np.outer(scale, scale))
    for i in range(1, len(starts)):
        if starts[i] == starts[i - 1]:
            for name in ("n", "mean", "comoment", "counts", "d_low", "d_high"):
                row = getattr(m, name)
                assert row[i].tobytes() == row[i - 1].tobytes(), name


@pytest.mark.parametrize("points", [[0], []])
def test_an_unknown_kind_is_fit_with_reversions_error(points):
    m = record(np.random.default_rng(3), "spread", (2.0, 28.0), "ci", 20).take(points)
    with pytest.raises(FitError) as raised:
        fit_stack(m, "bogus")
    assert str(raised.value) == f"unknown model kind 'bogus'; expected one of {FITTER_KINDS}"
