"""Distance sweeps from merged moments against a per-split refit, and their cost.

``run_sweep`` reads every point of a distance sweep off moments merged from
shells of the distance order. The reference here splits the dataset at each
point and refits it with public functions only (``split``,
``fit_with_reversion``, ``prediction_sigma``), as a frequency hold-out still
does.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathlossfit import (
    DistanceClose,
    DistanceFar,
    DomainError,
    FitError,
    FrequencyLOO,
    SweepError,
    fit_with_reversion,
    fspl,
    prediction_sigma,
    run_sweep,
    split,
)
from pathlossfit import fitters, sensitivity
from pathlossfit.domain import auto_f0
from pathlossfit.fitters import FITTER_KINDS, RegressionDesign
from pathlossfit.sensitivity import steps
from conftest import design_rows, make_dataset

RTOL = 1e-9
WELL_CONDITIONED = 1e-6  # relative determinant of a model's 2x2 system
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def reference_points(ds, spec, models):
    """(point, counts, skip reason, entries) per point, by split and refit."""
    out = []
    for point in spec.points(ds):
        measurement, prediction = split(ds, spec, point)
        counts = (len(measurement), len(prediction),
                  len(ds) - len(measurement) - len(prediction))
        if not (len(measurement) and len(prediction)):
            which = "measurement" if not len(measurement) else "prediction"
            out.append((point, counts, f"empty {which} set", (), measurement))
            continue
        try:
            entries = []
            for kind in models:
                report = fit_with_reversion(measurement, kind)
                entries.append((report.params, report.sigma,
                                prediction_sigma(report.params, prediction), report.flags))
        except (FitError, DomainError) as exc:
            out.append((point, counts, str(exc), (), measurement))
            continue
        out.append((point, counts, "", tuple(entries), measurement))
    return out


def relative_determinant(measurement, kind) -> float:
    """Relative determinant of the 2x2 system the kind solves on ``measurement``
    (centred D, F for ABG; raw D, D*f for CIF); 1 for the one-column fits."""
    if len(measurement.freq_summary) < 2 or kind not in ("abg", "cif"):
        return 1.0
    x = design_rows(measurement)
    if kind == "abg":
        u, v = x.D - x.D.mean(), x.F - x.F.mean()
    else:
        u, v = x.D, x.D * x.f
    s11, s22, s12 = u @ u, v @ v, u @ v
    return abs(s11 * s22 - s12 * s12) / (s11 * s22)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def same_reason(got: str, want: str) -> bool:
    """Equal text, and numbers within RTOL: a reason may quote a fitted d0."""
    if NUMBER.split(got) != NUMBER.split(want):
        return False
    return all(close(float(a), float(b))
               for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)))


@st.composite
def distance_sweeps(draw):
    """A small dataset and a distance split of it, drawn to reach the edge cases:
    a measurement tail of 2-5 samples beyond the last limit, optionally at one
    frequency; tied distances and distances equal to a cutoff or limit; samples
    at 1 m; and offsets that put CI-opt's d0 beyond either bound."""
    close_rule = draw(st.booleans())
    cutoff = draw(st.sampled_from((20.0, 50.0, 200.0)))
    gaps = sorted(draw(st.sets(st.sampled_from((0.0, 2.5, 5.0, 10.0, 15.0)),
                               min_size=1, max_size=4)))
    limits = [cutoff + g if close_rule else cutoff - g for g in gaps]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    freqs = np.array(draw(st.lists(st.sampled_from((0.9, 2.0, 10.0, 28.0, 73.0)),
                                   min_size=1, max_size=4, unique=True)))

    n_bulk = draw(st.integers(3, 30))
    d = np.exp(rng.uniform(0.0, math.log(4.0 * cutoff), n_bulk))
    exact = np.array([1.0, cutoff, *limits])  # samples at 1 m and on each limit
    on_limit = rng.random(n_bulk) < 0.3
    d[on_limit] = rng.choice(exact, int(on_limit.sum()))
    f = rng.choice(freqs, n_bulk)

    n_tail = draw(st.integers(2, 5))
    edge = limits[-1]
    if close_rule:
        tail = edge + rng.choice(rng.uniform(0.1, 3.0 * cutoff, 3), n_tail)  # ties
    else:
        tail = 1.0 + (max(edge, 1.0) - 1.0) * rng.choice(rng.uniform(0, 1, 3), n_tail)
    tail_f = (np.full(n_tail, freqs[0]) if draw(st.booleans())
              else rng.choice(freqs, n_tail))
    d, f = np.concatenate([d, tail]), np.concatenate([f, tail_f])

    slope = rng.uniform(1.6, 4.0)
    offset = draw(st.sampled_from((-40.0, -5.0, 0.0, 5.0, 40.0))) * rng.uniform(0.5, 1.5)
    tilt = rng.uniform(-0.3, 0.3) * (f - 20.0) / 20.0  # CIF-like frequency weighting
    pl = (fspl(f, 1.0) + 10.0 * slope * (1.0 + tilt) * np.log10(d) + offset
          + rng.uniform(0.5, 6.0) * rng.standard_normal(d.size))
    ds = make_dataset(zip(f, d, pl))
    spec = (DistanceClose if close_rule else DistanceFar)(cutoff, tuple(gaps))
    return ds, spec


@settings(max_examples=250, deadline=None)
@given(case=distance_sweeps())
def test_distance_sweep_matches_a_refit_at_every_point(case):
    """Skip reasons, flags and counts are equal at every point. Parameters and
    prediction sigmas agree within 1e-9 * max(1, |v|), and measurement sigmas
    squared within 1e-9 * max(1, v^2), wherever the model's 2x2 system has a
    relative determinant of at least 1e-6. Worse-conditioned systems are
    compared on reasons, flags and counts only: the rounding of the sums is
    magnified by up to the inverse determinant, whichever way the sums are
    formed, and a 3-sample ABG tail differed by 5e-8 even with merged shells.
    Measurement sigmas are compared through their squares because a set that
    a model fits exactly (2 samples for AB, 3 for ABG) has an SSE of rounding
    size, about 1e-15 of the loss variance, whose square root then differs by
    about 1e-8 between the two paths."""
    ds, spec = case
    want = reference_points(ds, spec, FITTER_KINDS)
    try:
        report = run_sweep(ds, spec, FITTER_KINDS)
    except SweepError:
        assert all(reason for _, _, reason, _, _ in want)
        return
    assert len(report.points) == len(want)
    for got, (point, counts, reason, entries, measurement) in zip(report.points, want):
        assert got.point == point
        assert (got.n_meas, got.n_pred, got.n_gap) == counts
        assert got.skipped == bool(reason)
        assert same_reason(got.skip_reason, reason), (got.skip_reason, reason)
        for entry, (params, sigma, pred_sigma, flags) in zip(got.models, entries, strict=True):
            assert entry.flags == flags
            assert entry.params.kind == params.kind
            if relative_determinant(measurement, entry.model) < WELL_CONDITIONED:
                continue
            for name in type(params).__dataclass_fields__:
                assert close(getattr(entry.params, name), getattr(params, name)), name
            assert close(entry.prediction_sigma, pred_sigma)
            assert abs(entry.measurement_sigma ** 2 - sigma ** 2) <= RTOL * max(1.0, sigma ** 2)


@pytest.mark.parametrize("spec", [DistanceClose(200.0, steps(600.0, 5.0)),
                                  DistanceFar(600.0, steps(590.0, 5.0))],
                         ids=["close", "far"])
def test_distance_sweep_refits_nothing_and_builds_one_design(monkeypatch, uma_synthetic,
                                                             spec):
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    refit = counting("fit_with_reversion", fitters.fit_with_reversion)
    monkeypatch.setattr(fitters, "fit_with_reversion", refit)
    monkeypatch.setattr(sensitivity, "fit_with_reversion", refit)
    monkeypatch.setattr(RegressionDesign, "from_dataset", classmethod(
        counting("from_dataset", RegressionDesign.from_dataset.__func__)))

    report = run_sweep(uma_synthetic, spec, FITTER_KINDS)
    assert len(report.points) == len(spec.delta_grid) >= 119
    assert calls == Counter(from_dataset=1)

    # the counters see the per-split path, which a frequency hold-out still takes
    run_sweep(uma_synthetic, FrequencyLOO(2.0), FITTER_KINDS)
    assert calls["fit_with_reversion"] == len(FITTER_KINDS)


def fresh(ds):
    """A copy of ``ds`` that shares no cached design or record with it."""
    return make_dataset(np.column_stack(ds.arrays()))


def test_each_sample_set_builds_one_design(monkeypatch, uma_synthetic):
    built = []
    from_dataset = RegressionDesign.from_dataset.__func__
    monkeypatch.setattr(RegressionDesign, "from_dataset", classmethod(
        lambda cls, ds: built.append(ds) or from_dataset(cls, ds)))

    # five fits of one dataset share its design and record
    ds = fresh(uma_synthetic)
    reports = [fit_with_reversion(ds, kind) for kind in FITTER_KINDS]
    assert built == [ds]
    for kind, report in zip(FITTER_KINDS, reports):
        alone = fit_with_reversion(fresh(ds), kind)
        assert repr(report.params) == repr(alone.params) and report.flags == alone.flags
        assert report.sigma.hex() == alone.sigma.hex()
        assert report.residuals.tobytes() == alone.residuals.tobytes()

    # a frequency hold-out builds one per measurement set, none per prediction set
    built.clear()
    spec = FrequencyLOO()
    report = run_sweep(ds, spec, FITTER_KINDS)
    assert len(built) == len(report.points) == len(ds.frequencies) == 5
    for point, measurement in zip(report.points, built):
        assert measurement == split(ds, spec, point.point)[0]
        prediction = split(ds, spec, point.point)[1]
        for entry in point.models:
            alone = fit_with_reversion(fresh(measurement), entry.model)
            assert repr(entry.params) == repr(alone.params) and entry.flags == alone.flags
            assert entry.measurement_sigma.hex() == alone.sigma.hex()
            assert (entry.prediction_sigma.hex()
                    == prediction_sigma(alone.params, prediction).hex())


@pytest.mark.parametrize("spec", [DistanceClose(200.0, steps(600.0, 10.0)),
                                  DistanceFar(600.0, steps(400.0, 10.0))], ids=["close", "far"])
def test_tied_distances_merge_in_sample_order(uma_synthetic, spec):
    # distances rounded to 10 m tie in every shell; a sweep merges them in
    # sample order, so a copy already sorted that way gives the same bits
    f, d, pl = uma_synthetic.arrays()
    ds = make_dataset(np.column_stack((f, np.round(d, -1), pl)))
    order = np.argsort(spec.sign * ds.distance, kind="stable")
    presorted = make_dataset(np.column_stack(ds.arrays())[order])
    got, want = (run_sweep(x, spec, FITTER_KINDS) for x in (ds, presorted))
    assert got.skip_reason == want.skip_reason
    for a, b in zip(got.fits, want.fits):
        assert a.values.tobytes() == b.values.tobytes()
    assert got.sigma.tobytes() == want.sigma.tobytes()


def test_sweep_f0_rounds_half_up_like_a_fit():
    # beyond 200 m the four frequencies have mean 14.5 GHz, so auto f0 is 15
    rows = [(f, 100.0 + f, 100.0 + f) for f in (2.0, 10.0, 28.0)]
    rows += [(f, d, 130.0 + f + d / 10.0) for f in (2.0, 10.0, 18.0, 28.0)
             for d in (300.0, 700.0)]
    ds = make_dataset(rows)
    report = run_sweep(ds, DistanceClose(200.0, (0.0,)), ("cif",))
    (entry,) = report.points[0].models
    want = fit_with_reversion(split(ds, DistanceClose(200.0, (0.0,)), 0.0)[0], "cif").params
    assert entry.params.f0 == want.f0 == 15.0
    assert entry.params.n == pytest.approx(want.n, rel=RTOL)


@pytest.mark.parametrize("pairs,want", [
    (((0.3, 2), (0.4, 2)), 0.35),   # rounds to 0 GHz: the unrounded mean
    (((0.6, 1), (0.7, 1)), 1.0),
    (((2.0, 1), (10.0, 1), (18.0, 1), (28.0, 1)), 15.0),  # 14.5 rounds up
    (((28.0, 3),), 28.0),
])
def test_auto_f0(pairs, want):
    assert auto_f0(pairs) == want


def test_sub_ghz_cif_sweep_uses_the_unrounded_mean():
    rows = [(f, d, 40.0 + 30.0 * math.log10(d) + f) for f in (0.3, 0.4)
            for d in (10.0, 40.0, 90.0, 150.0)]
    report = run_sweep(make_dataset(rows), DistanceClose(30.0, (0.0,)), ("cif",))
    assert report.points[0].models[0].params.f0 == pytest.approx(0.35, abs=1e-15)
