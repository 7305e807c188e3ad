"""Thresholding and distance-bin averaging behavior."""

import math

import pytest

from pathlossfit import (
    Dataset,
    DomainError,
    Environment,
    PreprocessSettings,
    UMA,
    UMI_SC,
    bin_by_distance,
    fit_ci,
    fspl,
    threshold,
)
from pathlossfit.preprocess import apply as preprocess_apply
from conftest import make_dataset

DEFAULTS = PreprocessSettings()


class TestThreshold:
    def test_sample_just_under_the_cut_is_kept(self):
        # cut at 28 GHz: fspl(28,1) + 100 = 161.39094...
        ds = make_dataset([(28.0, 200.0, 161.3)])
        kept, removed = threshold(ds, DEFAULTS)
        assert len(kept) == 1
        assert removed == 0

    def test_sample_just_over_the_cut_is_removed(self):
        ds = make_dataset([(28.0, 200.0, 161.4)])
        kept, removed = threshold(ds, DEFAULTS)
        assert len(kept) == 0
        assert removed == 1

    def test_low_frequency_cut_is_lower(self):
        # fspl(2,1) + 100 = 138.47 < 170
        _, removed = threshold(make_dataset([(2.0, 500.0, 170.0)]), DEFAULTS)
        assert removed == 1

    def test_empty_dataset_passes_through(self):
        kept, removed = threshold(make_dataset([]), DEFAULTS)
        assert len(kept) == 0
        assert removed == 0

    def test_preserves_order(self):
        rows = [(28.0, 10.0 * k, 100.0 + k) for k in range(1, 6)]
        kept, _ = threshold(make_dataset(rows), DEFAULTS)
        assert kept.path_loss.tolist() == [101.0, 102.0, 103.0, 104.0, 105.0]

    def test_raising_margin_never_removes_more(self):
        ds = make_dataset([(28.0, 50.0, 120.0 + 15.0 * k) for k in range(6)])
        removed = [threshold(ds, PreprocessSettings(threshold_margin=m))[1]
                   for m in (50.0, 75.0, 100.0, 125.0)]
        assert removed == sorted(removed, reverse=True)


class TestBinByDistance:
    def test_same_bin_samples_average(self):
        ds = make_dataset([(28.0, 10.1, 100.0), (28.0, 11.9, 104.0)])
        out = bin_by_distance(ds, DEFAULTS)
        assert len(out) == 1
        assert out.distance[0] == pytest.approx(11.0)
        assert out.path_loss[0] == pytest.approx(102.0)

    def test_bin_boundary_separates(self):
        # 11.9 -> bin 5, 12.1 -> bin 6 at 2 m width
        ds = make_dataset([(28.0, 11.9, 100.0), (28.0, 12.1, 104.0)])
        out = bin_by_distance(ds, DEFAULTS)
        assert len(out) == 2

    def test_single_sample_unchanged(self):
        ds = make_dataset([(28.0, 33.3, 123.4)])
        out = bin_by_distance(ds, DEFAULTS)
        assert out.distance[0] == 33.3
        assert out.path_loss[0] == 123.4

    def test_groups_never_mix_frequencies_or_labels(self):
        labels = ((UMA, Environment.NLOS, "a"), (UMA, Environment.LOS, "a"),
                  (UMI_SC, Environment.NLOS, "a"), (UMA, Environment.NLOS, "b"))
        ds = Dataset.from_columns([28.0, 2.0, 28.0, 28.0, 28.0],
                                  [10.2, 10.4, 10.6, 10.8, 11.0], [100.0] * 5,
                                  [0, 0, 1, 2, 3], labels)
        out = bin_by_distance(ds, DEFAULTS)
        assert len(out) == 5

    def test_linear_average_option(self):
        ds = make_dataset([(28.0, 10.0, 100.0), (28.0, 10.5, 104.0)])
        out = bin_by_distance(ds, PreprocessSettings(bin_average="linear"))
        expected = 10.0 * math.log10((1e10 + 10.0 ** 10.4) / 2.0)
        assert out.path_loss[0] == pytest.approx(expected, abs=1e-12)

    def test_idempotent_once_bins_hold_one_sample(self, uma_synthetic):
        once = bin_by_distance(uma_synthetic, DEFAULTS)
        twice = bin_by_distance(once, DEFAULTS)
        assert twice == once

    def test_count_conservation(self, uma_synthetic):
        out = bin_by_distance(uma_synthetic, DEFAULTS)
        groups = {}
        for f, d, (scenario, environment, campaign) in zip(
                uma_synthetic.frequency.tolist(), uma_synthetic.distance.tolist(),
                uma_synthetic.row_labels()):
            key = (campaign, f, environment, scenario, math.floor(d / 2.0))
            groups[key] = groups.get(key, 0) + 1
        assert len(out) == len(groups)
        assert sum(groups.values()) == len(uma_synthetic)

    def test_bin_width_choice_barely_moves_the_ci_fit(self, uma_synthetic):
        # seeded UMa-like campaign: 2, 5 and 10 m bins agree to < 0.1 in n
        fits = [fit_ci(bin_by_distance(uma_synthetic,
                                       PreprocessSettings(bin_width=w))).params.n
                for w in (2.0, 5.0, 10.0)]
        assert max(fits) - min(fits) < 0.1


class TestApply:
    def test_thresholds_then_bins(self):
        over_cut = fspl(28.0, 1.0) + 150.0
        ds = make_dataset([(28.0, 10.1, 100.0), (28.0, 11.9, 104.0),
                           (28.0, 50.0, over_cut)])
        result = preprocess_apply(ds, DEFAULTS)
        assert result.removed_by_threshold == 1
        assert result.n_input == 3
        assert len(result.dataset) == 1

    def test_stages_can_be_disabled(self):
        ds = make_dataset([(28.0, 10.1, 100.0), (28.0, 11.9, 104.0)])
        settings = PreprocessSettings(binning_enabled=False, threshold_enabled=False)
        result = preprocess_apply(ds, settings)
        assert result.dataset == ds

    def test_settings_validation(self):
        with pytest.raises(DomainError):
            PreprocessSettings(bin_width=0.0)
        with pytest.raises(DomainError):
            PreprocessSettings(threshold_margin=-1.0)
        with pytest.raises(DomainError):
            PreprocessSettings(bin_average="median")
