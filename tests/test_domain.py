"""Model evaluation, constants, and value-type invariants.

Frozen expected values were computed by direct hand evaluation of the model
formulas with c = 299 792 458 m/s (see test bodies).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathlossfit import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    DomainError,
    Environment,
    FitReport,
    FREE_SPACE_INTERCEPT_DB,
    Scenario,
    UMA,
    eval_abg,
    eval_ci,
    eval_cif,
    evaluate,
    fspl,
    params_from_dict,
    params_to_dict,
    weighted_mean_frequency,
)
from conftest import make_dataset

FSPL_28_1 = 61.39094384872776  # 20*log10(4*pi*28e9/c), evaluated independently


class TestFspl:
    def test_one_ghz_one_meter_is_the_free_space_intercept(self):
        # the constant usually quoted as 32.4 dB
        assert fspl(1.0, 1.0) == pytest.approx(32.4478, abs=1e-4)
        assert fspl(1.0, 1.0) == FREE_SPACE_INTERCEPT_DB

    def test_frequency_doubling_adds_six_db(self):
        assert fspl(2.0, 1.0) == pytest.approx(fspl(1.0, 1.0) + 6.0206, abs=1e-4)
        assert fspl(2.0, 1.0) - fspl(1.0, 1.0) == pytest.approx(
            20.0 * math.log10(2.0), abs=1e-12)

    def test_28_ghz_one_meter(self):
        assert fspl(28.0, 1.0) == pytest.approx(FSPL_28_1, abs=1e-9)

    @pytest.mark.parametrize("f,d", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -5.0)])
    def test_rejects_nonpositive_arguments(self, f, d):
        with pytest.raises(DomainError):
            fspl(f, d)

    @given(f=st.floats(0.1, 200.0), d=st.floats(0.1, 5000.0), k=st.floats(0.01, 100.0))
    def test_log_linearity(self, f, d, k):
        shifted = fspl(f, d) + 20.0 * math.log10(k)
        assert fspl(k * f, d) == pytest.approx(shifted, abs=1e-9)
        assert fspl(f, k * d) == pytest.approx(shifted, abs=1e-9)

    def test_vectorized(self):
        out = fspl(np.array([1.0, 2.0]), 1.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(FREE_SPACE_INTERCEPT_DB)


class TestEvalAbg:
    def test_pure_distance_slope(self):
        assert eval_abg(ABGParams(1.0, 0.0, 0.0), 17.3, 10.0) == pytest.approx(10.0)

    def test_uma_nlos_parameters_at_28ghz_100m(self):
        # 10*3.5*2 + 13.6 + 24*log10(28)
        params = ABGParams(3.5, 13.6, 2.4)
        assert eval_abg(params, 28.0, 100.0) == pytest.approx(118.33179275221326, abs=1e-9)

    @pytest.mark.parametrize("f", [0.5, 2.0, 28.0, 73.0])
    @pytest.mark.parametrize("d", [1.0, 10.0, 444.4])
    def test_degenerates_to_free_space(self, f, d):
        params = ABGParams(2.0, FREE_SPACE_INTERCEPT_DB, 2.0)
        assert eval_abg(params, f, d) == pytest.approx(
            fspl(f, 1.0) + 20.0 * math.log10(d), abs=1e-9)

    def test_rejects_distance_below_one_meter(self):
        with pytest.raises(DomainError):
            eval_abg(ABGParams(2.0, 30.0, 2.0), 28.0, 0.9)

    def test_ab_params_evaluate_with_gamma_two(self):
        ab = ABParams(2.6, 34.0)
        abg = ABGParams(2.6, 34.0, 2.0)
        assert eval_abg(ab, 28.0, 150.0) == eval_abg(abg, 28.0, 150.0)


class TestEvalCi:
    def test_n2_at_28ghz_100m(self):
        assert eval_ci(CIParams(2.0), 28.0, 100.0) == pytest.approx(
            FSPL_28_1 + 40.0, abs=1e-9)

    def test_anchors_to_free_space_at_d0(self):
        assert eval_ci(CIParams(7.7), 28.0, 1.0) == pytest.approx(fspl(28.0, 1.0))
        assert eval_ci(CIOptParams(3.3, 4.0), 10.0, 4.0) == pytest.approx(fspl(10.0, 4.0))

    def test_uma_nlos_at_one_km_vs_abg(self):
        # CI predicts ~5 dB more received power at 1 km than the ABG fit of
        # the same campaign (its known far-distance divergence)
        ci = eval_ci(CIParams(2.9), 28.0, 1000.0)
        abg = eval_abg(ABGParams(3.5, 13.6, 2.4), 28.0, 1000.0)
        assert ci == pytest.approx(148.39094384872777, abs=1e-9)
        assert abg - ci == pytest.approx(4.94, abs=0.01)

    def test_rejects_distance_below_d0(self):
        with pytest.raises(DomainError):
            eval_ci(CIOptParams(2.0, 8.0), 28.0, 7.9)

    def test_identifies_with_degenerate_abg(self):
        for f in (0.5, 2.0, 28.0, 100.0):
            for d in (1.0, 3.7, 250.0):
                abg = eval_abg(ABGParams(2.9, FREE_SPACE_INTERCEPT_DB, 2.0), f, d)
                assert abg == pytest.approx(eval_ci(CIParams(2.9), f, d), abs=1e-9)


class TestEvalCif:
    def test_b_zero_reverts_to_ci(self):
        for f in (2.0, 28.0, 73.0):
            got = eval_cif(CIFParams(3.1, 0.0, 17.0), f, 50.0)
            assert got == eval_ci(CIParams(3.1), f, 50.0)

    def test_at_f0_reverts_to_ci(self):
        got = eval_cif(CIFParams(3.1, 0.42, 17.0), 17.0, 50.0)
        assert got == pytest.approx(eval_ci(CIParams(3.1), 17.0, 50.0), abs=1e-12)

    def test_inh_nlos_like_parameters(self):
        # 10*3.1*(1 - 0.001*12/17)*log10(50) + fspl(29, 1)
        got = eval_cif(CIFParams(3.1, -0.001, 17.0), 29.0, 50.0)
        assert got == pytest.approx(114.32663585300773, abs=1e-9)

    def test_continuous_in_frequency(self):
        params = CIFParams(3.1, 0.1, 17.0)
        f = np.linspace(16.0, 18.0, 2001)
        values = eval_cif(params, f, 50.0)
        assert np.max(np.abs(np.diff(values))) < 0.01

    def test_rejects_distance_below_one_meter(self):
        with pytest.raises(DomainError):
            eval_cif(CIFParams(3.0, 0.0, 17.0), 29.0, 0.5)


@given(
    d1=st.floats(1.0, 2000.0), d2=st.floats(1.0, 2000.0),
    f=st.floats(0.5, 100.0), slope=st.floats(0.0, 6.0),
)
def test_mean_loss_nondecreasing_in_distance(d1, d2, f, slope):
    lo, hi = sorted((d1, d2))
    models = [
        ABGParams(slope, 20.0, 2.0),
        CIParams(slope),
        CIFParams(slope, 0.0, 20.0),
    ]
    for params in models:
        assert evaluate(params, f, lo) <= evaluate(params, f, hi) + 1e-9


class TestWeightedMeanFrequency:
    def test_single_frequency(self):
        ds = make_dataset([(28.0, 100.0, 120.0)] * 4)
        assert weighted_mean_frequency(ds) == 28

    def test_weighted_counts(self):
        ds = make_dataset([(2.0, 10.0, 80.0)] * 3 + [(10.0, 10.0, 90.0)])
        assert weighted_mean_frequency(ds) == 4

    def test_half_rounds_away_from_zero(self):
        rows = [(f, 10.0, 90.0) for f in (2.0, 10.0, 18.0, 28.0)]
        assert weighted_mean_frequency(make_dataset(rows)) == 15  # mean 14.5

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            weighted_mean_frequency(make_dataset([]))


class TestValueTypes:
    def test_freq_summary_sorted_unique_and_counts_sum(self):
        ds = make_dataset([(28.0, 5.0, 100.0), (2.0, 5.0, 90.0),
                           (28.0, 7.0, 101.0), (10.0, 5.0, 95.0)])
        assert ds.freq_summary == ((2.0, 1), (10.0, 1), (28.0, 2))
        assert sum(c for _, c in ds.freq_summary) == len(ds)

    def test_scenario_parse_and_format(self):
        assert Scenario.parse("UMa") == UMA
        assert str(Scenario.parse("Other:rooftop")) == "Other:rooftop"
        assert Scenario.parse("Other").label == ""
        with pytest.raises(DomainError):
            Scenario.parse("Suburban")

    def test_environment_values(self):
        assert Environment("LOS") is Environment.LOS
        with pytest.raises(ValueError):
            Environment("nlos")

    def test_ci_opt_d0_bounds_enforced(self):
        with pytest.raises(DomainError):
            CIOptParams(2.0, 0.05)
        with pytest.raises(DomainError):
            CIOptParams(2.0, 51.0)

    def test_cif_f0_positive(self):
        with pytest.raises(DomainError):
            CIFParams(2.0, 0.0, 0.0)

    def test_params_dict_round_trip(self):
        for params in (ABGParams(3.5, 13.6, 2.4), ABParams(2.6, 34.0),
                       CIParams(2.9), CIOptParams(3.4, 8.1),
                       CIFParams(2.9, -0.002, 12.0)):
            assert params_from_dict(params_to_dict(params)) == params

    def test_fit_report_requires_consistent_sigma(self):
        report = FitReport.from_residuals(CIParams(2.0), [1.0, -1.0, 1.0])
        assert report.sigma == pytest.approx(1.0)
        assert report.n_points == 3
        with pytest.raises(DomainError):
            FitReport(params=CIParams(2.0), sigma=0.5, n_points=2,
                      residuals=(1.0, -1.0))
        with pytest.raises(DomainError):
            FitReport(params=CIParams(2.0), sigma=1.0, n_points=3,
                      residuals=(1.0, -1.0))
