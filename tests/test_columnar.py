"""The columnar dataset paths against per-row references, and their invariants.

Each reference below walks the samples one (frequency, distance, path_loss,
label) row at a time, the way the conditioning and split code did before the
dataset became columnar; the columnar code must reproduce it exactly, labels
included.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathlossfit import (
    CIParams,
    Dataset,
    DistanceClose,
    DistanceFar,
    DomainError,
    Environment,
    FrequencyLOO,
    PathLossSample,
    PreprocessSettings,
    Scenario,
    SyntheticSpec,
    UMA,
    UMI_SC,
    bin_by_distance,
    fspl,
    generate,
    param_values,
    split,
    threshold,
)
from pathlossfit.fitters import FITTER_KINDS, FitError, fit_with_reversion

LABELS = (
    (UMA, Environment.NLOS, "a"),
    (UMA, Environment.LOS, "a"),
    (UMI_SC, Environment.NLOS, "b"),
    (Scenario("Other", "x"), Environment.LOS, ""),
)

rows = st.lists(
    st.tuples(st.one_of(st.sampled_from((2.0, 10.0, 28.0, 73.0)), st.floats(0.5, 100.0)),
              st.floats(1.0, 1500.0),
              st.floats(30.0, 250.0),
              st.sampled_from(LABELS)),
    max_size=60)


def dataset(rows) -> Dataset:
    """Dataset from (frequency, distance, path_loss, label) rows."""
    rows = list(rows)
    index: dict = {}
    codes = [index.setdefault(label, len(index)) for *_, label in rows]
    return Dataset.from_columns([r[0] for r in rows], [r[1] for r in rows],
                                [r[2] for r in rows], codes, tuple(index))


def rows_of(ds) -> list:
    """The samples of ``ds`` as (frequency, distance, path_loss, label) rows."""
    return list(zip(ds.frequency.tolist(), ds.distance.tolist(), ds.path_loss.tolist(),
                    ds.row_labels()))


def split_by_rows(ds, spec, point):
    if isinstance(spec, DistanceClose):
        in_pred = lambda f, d: d <= spec.d_max  # noqa: E731
        in_meas = lambda f, d: d > spec.d_max + point  # noqa: E731
    elif isinstance(spec, DistanceFar):
        in_pred = lambda f, d: d >= spec.d_min  # noqa: E731
        in_meas = lambda f, d: d < spec.d_min - point  # noqa: E731
    else:
        in_pred = lambda f, d: f == point  # noqa: E731
        in_meas = lambda f, d: f != point  # noqa: E731
    rows = rows_of(ds)
    return (dataset(r for r in rows if in_meas(r[0], r[1])),
            dataset(r for r in rows if in_pred(r[0], r[1])))


def threshold_by_rows(ds, settings):
    kept = [(f, d, pl, label) for f, d, pl, label in rows_of(ds)
            if not pl > fspl(f, 1.0) + settings.threshold_margin]
    return dataset(kept), len(ds) - len(kept)


def bin_by_rows(ds, settings):
    groups = {}
    for f, d, pl, label in rows_of(ds):
        scenario, environment, campaign = label
        key = (campaign, f, environment, scenario, math.floor(d / settings.bin_width))
        groups.setdefault(key, []).append((f, d, pl, label))
    out = []
    for members in groups.values():
        distance = float(np.mean([m[1] for m in members]))
        losses = np.array([m[2] for m in members])
        if settings.bin_average == "db":
            path_loss = float(np.mean(losses))
        else:
            path_loss = float(10.0 * np.log10(np.mean(10.0 ** (losses / 10.0))))
        frequency, _, _, label = members[0]
        out.append((frequency, distance, path_loss, label))
    return dataset(out)


class TestAgainstRowReferences:
    # samples exactly at each limit, where the sum d + p rounds (1.1 + 2.2 is not 3.3)
    @given(rows=rows, d_max=st.floats(1.0, 1500.0), point=st.floats(0.0, 1000.0))
    @example(rows=[(2.0, d, 100.0, LABELS[0]) for d in (200.0, 250.0)], d_max=200.0,
             point=50.0)
    @example(rows=[(2.0, d, 100.0, LABELS[0]) for d in (1.1, 3.3, 1.1 + 2.2)], d_max=1.1,
             point=2.2)
    def test_distance_close_split(self, rows, d_max, point):
        ds, spec = dataset(rows), DistanceClose(d_max, (0.0,))
        assert split(ds, spec, point) == split_by_rows(ds, spec, point)

    @given(rows=rows, d_min=st.floats(1.0, 1500.0), point=st.floats(0.0, 1000.0))
    @example(rows=[(2.0, d, 100.0, LABELS[0]) for d in (600.0, 550.0)], d_min=600.0,
             point=50.0)
    @example(rows=[(2.0, d, 100.0, LABELS[0]) for d in (3.3, 1.1, 3.3 - 2.2)], d_min=3.3,
             point=2.2)
    def test_distance_far_split(self, rows, d_min, point):
        ds, spec = dataset(rows), DistanceFar(d_min, (0.0,))
        assert split(ds, spec, point) == split_by_rows(ds, spec, point)

    @given(rows=rows, data=st.data())
    def test_frequency_loo_split(self, rows, data):
        ds = dataset(rows)
        point = data.draw(st.sampled_from(ds.frequencies) if len(ds) else st.just(2.0))
        spec = FrequencyLOO(point)
        assert split(ds, spec, point) == split_by_rows(ds, spec, point)

    @given(rows=rows, margin=st.floats(1.0, 150.0))
    def test_threshold(self, rows, margin):
        ds, settings = dataset(rows), PreprocessSettings(threshold_margin=margin)
        assert threshold(ds, settings) == threshold_by_rows(ds, settings)

    # Few groups with unrounded losses, so that many hold 8 or more members
    # and a change of summation order would show in the last bits. The labels
    # interleave and are coded in an order other than that of first occurrence;
    # with ``ties`` the distances take 8 values.
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 150),
           width=st.sampled_from((0.5, 2.0, 5.0, 50.0, 1e-300)),
           average=st.sampled_from(("db", "linear")), ties=st.booleans())
    @example(seed=1, n=150, width=50.0, average="db", ties=True)
    def test_bin_by_distance_is_bit_identical(self, seed, n, width, average, ties):
        rng = np.random.default_rng(seed)
        distance = rng.uniform(1.0, 40.0, n)
        if ties:
            distance = rng.choice(distance[:8], n)
        ds = Dataset.from_columns(rng.choice([2.0, 28.0], n), distance,
                                  rng.uniform(30.0, 250.0, n), rng.integers(0, len(LABELS), n),
                                  tuple(LABELS[i] for i in rng.permutation(len(LABELS))))
        settings = PreprocessSettings(bin_width=width, bin_average=average)
        assert bin_by_distance(ds, settings) == bin_by_rows(ds, settings)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_freq=st.integers(1, 4),
       n_per=st.integers(3, 40), order=st.randoms(use_true_random=False))
def test_permuting_samples_leaves_every_fit_unchanged(seed, n_freq, n_per, order):
    spec = SyntheticSpec(truth=CIParams(3.0), sigma=6.0, seed=seed,
                         frequencies=tuple((f, n_per) for f in (2.0, 10.0, 28.0, 73.0)[:n_freq]),
                         distance_range=(10.0, 1000.0))
    ds = generate(spec)
    index = list(range(len(ds)))
    order.shuffle(index)
    f, d, pl = ds.arrays()
    shuffled = Dataset.from_columns(f[index], d[index], pl[index])
    for kind in FITTER_KINDS:
        try:
            want = fit_with_reversion(ds, kind)
        except FitError as exc:
            with pytest.raises(type(exc)):
                fit_with_reversion(shuffled, kind)
            continue
        got = fit_with_reversion(shuffled, kind)
        assert got.flags == want.flags
        assert type(got.params) is type(want.params)
        pairs = [(got.sigma, want.sigma)]
        pairs += [(param_values(got.params)[k], v) for k, v in param_values(want.params).items()]
        for a, b in pairs:
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), kind


class TestReadOnly:
    def test_columns_are_shared_and_read_only(self, noisy_multifreq):
        f, d, pl = noisy_multifreq.arrays()
        assert noisy_multifreq.arrays()[0] is f
        for column in (f, d, pl, noisy_multifreq.codes):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_residuals_are_read_only(self, noisy_multifreq):
        report = fit_with_reversion(noisy_multifreq, "ci")
        assert isinstance(report.residuals, np.ndarray)
        with pytest.raises(ValueError):
            report.residuals[0] = 0.0

    def test_columns_are_copied_in(self):
        f = np.array([28.0, 28.0])
        ds = Dataset.from_columns(f, [10.0, 20.0], [100.0, 110.0])
        f[0] = 2.0
        assert ds.frequencies == (28.0,)


class TestValidation:
    def test_row_and_column_builds_agree(self):
        rows = [(28.0, 10.0, 100.0, LABELS[0]), (2.0, 20.0, 90.0, LABELS[2]),
                (28.0, 30.0, 110.0, LABELS[0])]
        ds = dataset(rows)
        assert ds.labels == (LABELS[0], LABELS[2])
        assert ds.codes.tolist() == [0, 1, 0]
        assert ds == Dataset.from_columns([28.0, 2.0, 28.0], [10.0, 20.0, 30.0],
                                          [100.0, 90.0, 110.0], [1, 0, 1],
                                          (LABELS[2], LABELS[0]))
        assert Dataset([PathLossSample(28.0, 10.0, 100.0), (2.0, 20.0, 90.0)]) == \
            Dataset.from_columns([28.0, 2.0], [10.0, 20.0], [100.0, 90.0])

    @pytest.mark.parametrize("column,value,message", [
        (0, 0.0, "frequency must be > 0 GHz"),
        (1, 0.5, "distance must be >= 1 m"),
        (2, float("inf"), "path_loss must be finite"),
    ])
    def test_sample_invariants_hold_for_columns(self, column, value, message):
        columns = [[28.0, 28.0], [10.0, 20.0], [100.0, 110.0]]
        columns[column][1] = value
        with pytest.raises(DomainError, match=message):
            Dataset.from_columns(*columns)

    def test_codes_must_index_distinct_labels(self):
        with pytest.raises(DomainError, match="codes"):
            Dataset.from_columns([28.0], [10.0], [100.0], [1], (LABELS[0],))
        with pytest.raises(DomainError, match="distinct"):
            Dataset.from_columns([28.0], [10.0], [100.0], [0], (LABELS[0], LABELS[0]))

    def test_filter_takes_a_mask_of_the_dataset_length(self, noisy_multifreq):
        with pytest.raises(DomainError, match="mask"):
            noisy_multifreq.filter([True])
