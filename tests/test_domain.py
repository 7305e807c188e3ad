"""Model evaluation, constants, and value-type invariants.

Frozen expected values were computed by direct hand evaluation of the model
formulas with c = 299 792 458 m/s (see test bodies).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from pathlossfit import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    Dataset,
    DomainError,
    Environment,
    FitReport,
    FREE_SPACE_INTERCEPT_DB,
    Scenario,
    UMA,
    evaluate,
    fspl,
    params_from_dict,
    params_to_dict,
    rms,
)
from pathlossfit.domain import auto_f0
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

    @pytest.mark.parametrize("f,d", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -5.0),
                                     (np.array([28.0, 0.0, 2.0]), 1.0),
                                     (28.0, np.array([1.0, 10.0, -5.0]))])
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
        assert evaluate(ABGParams(1.0, 0.0, 0.0), 17.3, 10.0) == pytest.approx(10.0)

    def test_uma_nlos_parameters_at_28ghz_100m(self):
        # 10*3.5*2 + 13.6 + 24*log10(28)
        params = ABGParams(3.5, 13.6, 2.4)
        assert evaluate(params, 28.0, 100.0) == pytest.approx(118.33179275221326, abs=1e-9)

    @pytest.mark.parametrize("f", [0.5, 2.0, 28.0, 73.0])
    @pytest.mark.parametrize("d", [1.0, 10.0, 444.4])
    def test_degenerates_to_free_space(self, f, d):
        params = ABGParams(2.0, FREE_SPACE_INTERCEPT_DB, 2.0)
        assert evaluate(params, f, d) == pytest.approx(
            fspl(f, 1.0) + 20.0 * math.log10(d), abs=1e-9)

    def test_rejects_distance_below_one_meter(self):
        with pytest.raises(DomainError):
            evaluate(ABGParams(2.0, 30.0, 2.0), 28.0, 0.9)

    @pytest.mark.parametrize("f", [0.0, -2.0, np.array([28.0, -1.0])])
    def test_rejects_frequency_not_above_zero(self, f):
        with pytest.raises(DomainError, match="frequency must be > 0 GHz"):
            evaluate(ABGParams(2.0, 30.0, 2.0), f, 10.0)

    def test_ab_params_evaluate_with_gamma_two(self):
        ab = ABParams(2.6, 34.0)
        abg = ABGParams(2.6, 34.0, 2.0)
        assert evaluate(ab, 28.0, 150.0) == evaluate(abg, 28.0, 150.0)


class TestEvalCi:
    def test_n2_at_28ghz_100m(self):
        assert evaluate(CIParams(2.0), 28.0, 100.0) == pytest.approx(
            FSPL_28_1 + 40.0, abs=1e-9)

    def test_anchors_to_free_space_at_d0(self):
        assert evaluate(CIParams(7.7), 28.0, 1.0) == pytest.approx(fspl(28.0, 1.0))
        assert evaluate(CIOptParams(3.3, 4.0), 10.0, 4.0) == pytest.approx(fspl(10.0, 4.0))

    def test_uma_nlos_at_one_km_vs_abg(self):
        # CI predicts ~5 dB more received power at 1 km than the ABG fit of
        # the same campaign (its known far-distance divergence)
        ci = evaluate(CIParams(2.9), 28.0, 1000.0)
        abg = evaluate(ABGParams(3.5, 13.6, 2.4), 28.0, 1000.0)
        assert ci == pytest.approx(148.39094384872777, abs=1e-9)
        assert abg - ci == pytest.approx(4.94, abs=0.01)

    def test_rejects_distance_below_d0(self):
        with pytest.raises(DomainError):
            evaluate(CIOptParams(2.0, 8.0), 28.0, 7.9)

    def test_identifies_with_degenerate_abg(self):
        for f in (0.5, 2.0, 28.0, 100.0):
            for d in (1.0, 3.7, 250.0):
                abg = evaluate(ABGParams(2.9, FREE_SPACE_INTERCEPT_DB, 2.0), f, d)
                assert abg == pytest.approx(evaluate(CIParams(2.9), f, d), abs=1e-9)


class TestEvalCif:
    def test_b_zero_reverts_to_ci(self):
        for f in (2.0, 28.0, 73.0):
            got = evaluate(CIFParams(3.1, 0.0, 17.0), f, 50.0)
            assert got == evaluate(CIParams(3.1), f, 50.0)

    def test_at_f0_reverts_to_ci(self):
        got = evaluate(CIFParams(3.1, 0.42, 17.0), 17.0, 50.0)
        assert got == pytest.approx(evaluate(CIParams(3.1), 17.0, 50.0), abs=1e-12)

    def test_inh_nlos_like_parameters(self):
        # 10*3.1*(1 - 0.001*12/17)*log10(50) + fspl(29, 1)
        got = evaluate(CIFParams(3.1, -0.001, 17.0), 29.0, 50.0)
        assert got == pytest.approx(114.32663585300773, abs=1e-9)

    def test_continuous_in_frequency(self):
        params = CIFParams(3.1, 0.1, 17.0)
        f = np.linspace(16.0, 18.0, 2001)
        values = evaluate(params, f, 50.0)
        assert np.max(np.abs(np.diff(values))) < 0.01

    def test_rejects_distance_below_one_meter(self):
        with pytest.raises(DomainError):
            evaluate(CIFParams(3.0, 0.0, 17.0), 29.0, 0.5)

    @pytest.mark.parametrize("f", [0.0, -2.0])
    def test_rejects_frequency_not_above_zero(self, f):
        with pytest.raises(DomainError, match="frequency must be > 0 GHz"):
            evaluate(CIFParams(3.0, 0.0, 17.0), f, 10.0)


# each kind's params, the d0 they carry and the kind's text below that d0
DOMAIN_CASES = [
    (ABGParams(3.5, 13.6, 2.4), 1.0, "ABG model is defined for d >= 1 m"),
    (ABParams(3.5, 13.6), 1.0, "ABG model is defined for d >= 1 m"),
    (CIParams(2.9), 1.0, "CI model with d0=1.0 m is defined for d >= d0"),
    (CIOptParams(2.2, 7.25), 7.25, "CI model with d0=7.25 m is defined for d >= d0"),
    (CIFParams(3.1, 0.1, 17.0), 1.0, "CIF model is defined for d >= 1 m"),
]


@pytest.mark.parametrize("params,d0,below_d0", DOMAIN_CASES,
                         ids=[params.kind for params, _, _ in DOMAIN_CASES])
def test_every_kind_is_defined_for_positive_f_and_d_from_its_d0(params, d0, below_d0):
    assert params.d0 == d0
    for f in (0.0, -2.0):
        for d in (d0, d0 / 2):  # f is checked first, below d0 too
            with pytest.raises(DomainError, match=r"^frequency must be > 0 GHz$"):
                evaluate(params, f, d)
    with pytest.raises(DomainError) as below:
        evaluate(params, 28.0, np.nextafter(d0, 0.0))
    assert str(below.value) == below_d0
    at_d0 = evaluate(params, 28.0, d0)
    assert type(at_d0) is float and math.isfinite(at_d0)
    curve = evaluate(params, np.array([28.0, 73.0]), np.array([d0, 10.0 * d0]))
    assert isinstance(curve, np.ndarray) and curve.shape == (2,)


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
        assert int(auto_f0(ds.freq_summary)) == 28

    def test_weighted_counts(self):
        ds = make_dataset([(2.0, 10.0, 80.0)] * 3 + [(10.0, 10.0, 90.0)])
        assert int(auto_f0(ds.freq_summary)) == 4

    def test_half_rounds_away_from_zero(self):
        rows = [(f, 10.0, 90.0) for f in (2.0, 10.0, 18.0, 28.0)]
        assert int(auto_f0(make_dataset(rows).freq_summary)) == 15  # mean 14.5


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

    def test_only_other_carries_a_label(self):
        with pytest.raises(DomainError, match="only the Other scenario carries"):
            Scenario("UMa", "x")

    def test_dataset_columns_must_share_one_length(self):
        with pytest.raises(DomainError, match="dataset columns must share one length"):
            Dataset.from_columns([2.0, 28.0], [10.0], [90.0, 100.0])

    def test_dataset_label_needs_a_scenario(self):
        with pytest.raises(DomainError, match="a label is"):
            Dataset.from_columns([2.0], [10.0], [90.0],
                                 labels=(("UMa", Environment.NLOS, "c"),))

    def test_dataset_equality_and_repr(self):
        ds = make_dataset([(28.0, 5.0, 100.0), (2.0, 5.0, 90.0)])
        assert ds.__eq__("x") is NotImplemented and ds != "x"
        assert repr(ds) == "Dataset(n=2, frequencies=(2.0, 28.0))"

    def test_evaluate_rejects_an_unknown_parameter_type(self):
        with pytest.raises(DomainError, match="unknown parameter type object"):
            evaluate(object(), 1.0, 1.0)

    def test_rms_of_nothing_is_undefined(self):
        with pytest.raises(DomainError, match="RMS of an empty sequence"):
            rms([])

    # subnormals, squares that overflow (1e200) and single elements, 1-D and 2-D
    @given(values=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=30),
                             elements=st.one_of(
                                 st.floats(allow_nan=False, allow_subnormal=True),
                                 st.sampled_from([5e-324, -2.5e-310, 1e200, -1e155]))))
    @example(values=np.array([-3.0]))
    @example(values=np.array([[1e-320]]))
    @example(values=np.array([[1e200, 1.0], [2.0, -1e-300]]))
    def test_rms_is_np_mean_bit_for_bit(self, values):
        with np.errstate(over="ignore"):
            got, want = rms(values), float(np.sqrt(np.mean(values * values)))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

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

    @pytest.mark.parametrize("value", [True, "2.9"])
    def test_params_from_dict_rejects_a_bool_or_str_value(self, value):
        # a library caller's dict is not checked by a spec's truth first
        with pytest.raises(DomainError, match="n must be a number"):
            params_from_dict({"kind": "ci", "n": value})

    def test_fit_report_requires_consistent_sigma(self):
        report = FitReport.from_residuals(CIParams(2.0), [1.0, -1.0, 1.0])
        assert report.sigma == pytest.approx(1.0)
        assert report.n_points == 3
        # sigma and n_points are derived from the residuals: an inconsistent
        # report cannot be built, and passing either one is an error
        direct = FitReport(CIParams(2.0), (3.0, -4.0), ("flag",))
        assert (direct.sigma, direct.n_points) == (rms((3.0, -4.0)), 2)
        with pytest.raises(TypeError):
            FitReport(params=CIParams(2.0), sigma=0.5, residuals=(1.0, -1.0))
        with pytest.raises(TypeError):
            FitReport(params=CIParams(2.0), n_points=3, residuals=(1.0, -1.0))

    def test_from_residuals_takes_one_rms_and_one_copy(self, monkeypatch):
        from pathlossfit import domain
        calls, real = [], domain.rms
        monkeypatch.setattr(domain, "rms", lambda values: calls.append(1) or real(values))
        residuals = np.array([1.0, -1.0, 3.0])
        report = FitReport.from_residuals(CIParams(2.0), residuals, ("flag",))
        assert calls == [1] and report.sigma == real(residuals)
        assert (report.n_points, report.flags) == (3, ("flag",))
        assert not report.residuals.flags.writeable
        residuals[0] = 5.0  # the report holds its own copy
        assert report.residuals.tolist() == [1.0, -1.0, 3.0]


class TestFsplRange:
    @pytest.mark.parametrize("f,d", [(1e300, 1e300), (1e300, 1.0), (1e-300, 1e-300)])
    def test_finite_inputs_with_no_finite_loss_raise(self, f, d):
        with pytest.raises(DomainError, match="out of the float range"):
            fspl(f, d)

    def test_one_bad_element_raises_for_the_array(self):
        with pytest.raises(DomainError, match="1e\\+300 GHz"):
            fspl(np.array([28.0, 1e300]), 1.0)

    @given(f=st.floats(1e-280, 1e280), d=st.floats(1e-20, 1e20))
    def test_finite_results_keep_the_formula_bits(self, f, d):
        with np.errstate(all="ignore"):
            want = 20.0 * np.log10(4.0 * math.pi * np.float64(f) * d * 1e9 / 299_792_458.0)
        if np.isfinite(want):
            assert fspl(f, d) == float(want)
        else:
            with pytest.raises(DomainError):
                fspl(f, d)
