"""Measurement/prediction splits, sweeps, and parameter stability traces."""

import numpy as np
import pytest

from pathlossfit import (
    ABParams,
    CIParams,
    Dataset,
    DistanceClose,
    DistanceFar,
    FrequencyLOO,
    PredictionReport,
    SweepError,
    evaluate,
    fit_ci,
    param_values,
    parameter_trace,
    prediction_sigma,
    run_sweep,
    split,
)
from pathlossfit.fitters import FLAG_ABG_AS_AB, FLAG_CIF_SINGLE_FREQUENCY
from pathlossfit.sensitivity import (
    DEFAULT_D_MAX,
    default_close_spec,
    default_far_spec,
    steps,
)
from conftest import make_dataset


class TestSplit:
    def test_distance_close_zero_gap(self):
        ds = make_dataset([(28.0, 150.0, 110.0), (28.0, 250.0, 120.0)])
        meas, pred = split(ds, DistanceClose(200.0, (0.0,)), 0.0)
        assert pred.distance.tolist() == [150.0]
        assert meas.distance.tolist() == [250.0]

    def test_distance_close_gap_drops_samples(self):
        ds = make_dataset([(28.0, 150.0, 110.0), (28.0, 250.0, 115.0),
                           (28.0, 350.0, 120.0)])
        meas, pred = split(ds, DistanceClose(200.0, (0.0, 100.0)), 100.0)
        assert pred.distance.tolist() == [150.0]
        assert meas.distance.tolist() == [350.0]
        assert len(ds) - len(meas) - len(pred) == 1  # 250 m falls in the gap

    def test_distance_far(self):
        ds = make_dataset([(28.0, 150.0, 110.0), (28.0, 450.0, 115.0),
                           (28.0, 650.0, 125.0)])
        meas, pred = split(ds, DistanceFar(600.0, (0.0, 200.0)), 200.0)
        assert pred.distance.tolist() == [650.0]
        assert meas.distance.tolist() == [150.0]

    def test_frequency_loo(self):
        rows = [(f, 100.0, 110.0) for f in (2.0, 10.0, 18.0, 28.0, 38.0)]
        meas, pred = split(make_dataset(rows), FrequencyLOO(2.0), 2.0)
        assert pred.frequencies == (2.0,)
        assert meas.frequencies == (10.0, 18.0, 28.0, 38.0)

    def test_partition_is_disjoint_and_complete(self, uma_synthetic):
        spec = DistanceClose(200.0, (0.0, 100.0, 300.0))
        for point in spec.delta_grid:
            meas, pred = split(uma_synthetic, spec, point)
            assert all(d > 200.0 + point for d in meas.distance.tolist())
            assert all(d <= 200.0 for d in pred.distance.tolist())
            gap = len(uma_synthetic) - len(meas) - len(pred)
            in_gap = sum(1 for d in uma_synthetic.distance.tolist()
                         if 200.0 < d <= 200.0 + point)
            assert gap == in_gap

    def test_spec_validation(self):
        with pytest.raises(SweepError):
            DistanceClose(0.0, (0.0,))
        with pytest.raises(SweepError):
            DistanceClose(200.0, ())
        with pytest.raises(SweepError):
            DistanceClose(200.0, (0.0, 0.0))
        with pytest.raises(SweepError):
            DistanceFar(600.0, (100.0, 50.0))


class TestDefaults:
    def test_scenario_cutoffs(self):
        assert DEFAULT_D_MAX == {"UMa": 200.0, "UMiSC": 50.0, "InHOffice": 15.0}

    def test_uma_close_spec(self):
        spec = default_close_spec("UMa")
        assert spec.d_max == 200.0
        assert spec.delta_grid == steps(600.0, 50.0)
        assert spec.delta_grid[0] == 0.0 and spec.delta_grid[-1] == 600.0
        assert len(spec.delta_grid) == 13

    def test_far_spec(self):
        spec = default_far_spec()
        assert spec.d_min == 600.0
        assert spec.delta_grid == steps(400.0, 50.0)

    def test_unknown_scenario(self):
        with pytest.raises(SweepError):
            default_close_spec("InHSM")

    def test_step_must_be_positive(self):
        with pytest.raises(SweepError, match="step must be positive"):
            steps(10.0, 0.0)


class TestPredictionSigma:
    def test_zero_on_exact_model(self):
        params = CIParams(2.9)
        rows = [(28.0, d, evaluate(params, 28.0, d)) for d in (10.0, 50.0, 400.0)]
        assert prediction_sigma(params, make_dataset(rows)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_is_its_own_rms(self):
        params = CIParams(2.9)
        rows = [(28.0, d, evaluate(params, 28.0, d) + 3.0) for d in (10.0, 50.0, 400.0)]
        assert prediction_sigma(params, make_dataset(rows)) == pytest.approx(3.0, abs=1e-12)

    def test_empty_prediction_set_rejected(self):
        with pytest.raises(SweepError):
            prediction_sigma(CIParams(2.9), make_dataset([]))

    def test_stays_near_truth_sigma_for_every_delta(self, uma_synthetic):
        # CI truth sigma = 5.7 dB; a CI fit on the disjoint far data predicts
        # the close-in set within +/- 0.5 dB at every gap width
        report = run_sweep(uma_synthetic, DistanceClose(200.0, steps(600.0, 50.0)),
                           ("ci",))
        sigmas = [p.models[0].prediction_sigma for p in report.active_points()]
        assert len(sigmas) == 13
        assert all(abs(s - 5.7) < 0.5 for s in sigmas)


class TestRunSweep:
    def test_all_points_empty_measurement_is_an_error(self):
        ds = make_dataset([(28.0, d, 110.0) for d in (50.0, 100.0, 150.0)])
        with pytest.raises(SweepError, match="first degeneracy"):
            run_sweep(ds, DistanceClose(200.0, (0.0,)), ("ci",))

    def test_partial_skips_are_recorded(self):
        truth = CIParams(2.9)
        rows = [(28.0, d, evaluate(truth, 28.0, d)) for d in (100.0, 150.0, 300.0, 500.0)]
        report = run_sweep(make_dataset(rows), DistanceClose(200.0, (0.0, 400.0)), ("ci",))
        by_point = {p.point: p for p in report.points}
        assert not by_point[0.0].skipped
        assert by_point[400.0].skipped
        assert "empty measurement set" in by_point[400.0].skip_reason

    def test_loo_visits_every_frequency(self, uma_synthetic):
        report = run_sweep(uma_synthetic, FrequencyLOO(), ("ci",))
        assert [p.point for p in report.points] == [2.0, 10.0, 18.0, 28.0, 38.0]
        counts = dict(uma_synthetic.freq_summary)
        for p in report.points:
            assert not p.skipped
            assert p.n_pred == counts[p.point]
            assert p.n_meas == len(uma_synthetic) - counts[p.point]
            assert p.n_gap == 0

    def test_single_frequency_measurement_degrades_abg_and_cif(self):
        truth = CIParams(2.9)
        rows = [(2.0, d, evaluate(truth, 2.0, d)) for d in (50.0, 100.0, 150.0)]
        rows += [(28.0, d, evaluate(truth, 28.0, d) + 0.5) for d in (300.0, 500.0, 800.0)]
        report = run_sweep(make_dataset(rows), DistanceClose(200.0, (0.0,)),
                           ("abg", "ci", "cif"))
        entries = {e.model: e for e in report.points[0].models}
        assert isinstance(entries["abg"].params, ABParams)
        assert FLAG_ABG_AS_AB in entries["abg"].flags
        assert FLAG_CIF_SINGLE_FREQUENCY in entries["cif"].flags
        assert entries["cif"].params.f0 == 28.0
        assert entries["cif"].params.b == 0.0

    def test_a_fit_error_skips_only_its_hold_out(self):
        # holding out 2 GHz leaves the 28 GHz samples, all at 50 m: abg, reverted
        # to ab on one frequency, cannot fit a slope there
        rows = [(2.0, d, 60.0 + 30.0 * np.log10(d) + k % 3)
                for k, d in enumerate((10.0, 30.0, 100.0, 300.0, 700.0))]
        rows += [(28.0, 50.0, 110.0 + k) for k in range(4)]
        held_2, held_28 = run_sweep(make_dataset(rows), FrequencyLOO()).points
        assert held_2.skipped
        assert held_2.skip_reason == "fit_ab needs at least two distinct distances"
        assert not held_28.skipped
        assert [e.model for e in held_28.models] == ["abg", "ci", "cif"]

    def test_deterministic(self, uma_synthetic):
        spec = DistanceClose(200.0, (0.0, 200.0, 400.0))
        first = run_sweep(uma_synthetic, spec, ("abg", "ci", "cif"))
        second = run_sweep(uma_synthetic, spec, ("abg", "ci", "cif"))
        assert first == second

    def test_reports_and_traces_hash_by_value(self, uma_synthetic):
        spec = DistanceClose(200.0, (0.0, 200.0, 400.0))
        first, second = (run_sweep(uma_synthetic, spec, ("abg", "ci_opt")) for _ in range(2))
        assert first is not second and hash(first) == hash(second)
        assert hash(parameter_trace(first)) == hash(parameter_trace(second))
        assert len({first, second, parameter_trace(first), parameter_trace(second)}) == 2

    def test_table_reads_the_points_off_the_columns(self, uma_synthetic):
        # the one reader of the columns that both CLI writers use gives, in
        # order, what the SweepPoints hold; as text, the repr of each float
        report = run_sweep(uma_synthetic, DistanceClose(200.0, (0.0, 900.0, 5000.0)),
                           ("abg", "ci", "cif"))
        assert report.skip_reason[-1] == "empty measurement set"
        for (point, counts, reason, models), (texts, *_), want in zip(
                report.table(), report.table(lambda a: [repr(v) for v in a.ravel().tolist()]),
                report.points):
            assert (point, *counts, reason is not None) == (
                want.point, want.n_meas, want.n_pred, want.n_gap, want.skipped)
            assert texts == repr(point)
            assert [(m, values, s, p, flags) for m, _, values, flags, s, p in models] == [
                (e.model, param_values(e.params), e.measurement_sigma, e.prediction_sigma,
                 e.flags) for e in want.models]

    def test_prediction_set_never_influences_parameters(self, uma_synthetic):
        spec = DistanceClose(200.0, (0.0, 100.0))
        base = run_sweep(uma_synthetic, spec, ("ci", "cif"))
        f, d, pl = uma_synthetic.arrays()
        tampered = Dataset.from_columns(f, d, pl + np.where(d <= 200.0, 25.0, 0.0),
                                        uma_synthetic.codes, uma_synthetic.labels)
        moved = run_sweep(tampered, spec, ("ci", "cif"))
        for p_base, p_moved in zip(base.points, moved.points):
            for e_base, e_moved in zip(p_base.models, p_moved.models):
                assert e_base.params == e_moved.params
                assert e_base.prediction_sigma != e_moved.prediction_sigma

    def test_fit_and_score_agree_when_sets_coincide(self, noisy_multifreq):
        report = fit_ci(noisy_multifreq)
        assert prediction_sigma(report.params, noisy_multifreq) == pytest.approx(
            report.sigma, abs=1e-9)

    def test_unknown_model_rejected(self, noisy_multifreq):
        with pytest.raises(SweepError, match="unknown model"):
            run_sweep(noisy_multifreq, DistanceClose(200.0, (0.0,)), ("ci", "bad"))
        with pytest.raises(SweepError, match="at least one model"):
            run_sweep(noisy_multifreq, DistanceClose(200.0, (0.0,)), ())


def range_of(trace, model: str, name: str):
    """The range of ``model``'s parameter ``name`` in ``trace``."""
    return next(r for r in trace.ranges if (r.model, r.name) == (model, name))


class TestParameterTrace:
    def test_single_point_has_zero_width(self, noisy_multifreq):
        report = run_sweep(noisy_multifreq, DistanceClose(100.0, (0.0,)),
                           ("abg", "ci"))
        trace = parameter_trace(report)
        assert all(r.width == 0.0 for r in trace.ranges)

    def test_ci_slope_stays_put_on_ci_truth(self, uma_synthetic):
        report = run_sweep(uma_synthetic, DistanceClose(200.0, steps(600.0, 50.0)),
                           ("abg", "ci"))
        trace = parameter_trace(report)
        assert range_of(trace, "ci", "n").width < 0.1
        # observed on this seed: the floating intercept wanders far more than
        # the physically anchored slope (dB-comparable via the 10x slope scale)
        assert range_of(trace, "abg", "beta").width > 10.0 * range_of(trace, "ci", "n").width

    def test_rows_cover_every_active_point(self, uma_synthetic):
        spec = DistanceClose(200.0, (0.0, 100.0))
        report = run_sweep(uma_synthetic, spec, ("ci",))
        rows = [(point, model, name) for point, _, _, models in report.table()
                for model, _, values, *_ in models for name in values]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (0.0, "ci", "n"), (100.0, "ci", "n")]

    def test_an_empty_report_has_no_trace(self):
        with pytest.raises(SweepError, match="empty prediction report"):
            parameter_trace(PredictionReport(DistanceClose(100.0, (0.0,)), ()))
