"""Closed-form estimator behavior: hand examples, recovery, and optimality.

The estimators are checked three ways: frozen hand-computed examples, exact
recovery of noiseless in-family data, and agreement with the independent
solvers in pathlossfit.oracle (normal-equation solves and grid searches).
"""

import math

import numpy as np
import pytest

from pathlossfit import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    Dataset,
    DegenerateDesignError,
    FitError,
    FREE_SPACE_INTERCEPT_DB,
    RegressionDesign,
    SingleFrequencyError,
    SingularDesignError,
    SyntheticSpec,
    evaluate,
    fit_ab,
    fit_abg,
    fit_ci,
    fit_ci_opt,
    fit_cif,
    fspl,
    generate,
    param_values,
    prediction_sigma,
    rms,
)
from pathlossfit.fitters import (
    FITTER_KINDS,
    FLAG_ABG_AS_AB,
    FLAG_CIF_SINGLE_FREQUENCY,
    FLAG_D0_UNIDENTIFIABLE,
    fit_with_reversion,
)
from pathlossfit.oracle import oracle_fit
from conftest import assert_params_close, make_dataset


def noiseless(truth, frequencies, seed=7, n_per=25, d_range=(5.0, 800.0)) -> Dataset:
    spec = SyntheticSpec(truth=truth, sigma=0.0, seed=seed,
                         frequencies=tuple((f, n_per) for f in frequencies),
                         distance_range=d_range)
    return generate(spec)


def noisy(truth, frequencies, sigma, seed, n_per=30, d_range=(10.0, 500.0)) -> Dataset:
    spec = SyntheticSpec(truth=truth, sigma=sigma, seed=seed,
                         frequencies=tuple((f, n_per) for f in frequencies),
                         distance_range=d_range)
    return generate(spec)


class TestFitCi:
    def test_exact_recovery(self):
        report = fit_ci(noiseless(CIParams(2.9), (2.0, 28.0, 73.0)))
        assert report.params.n == pytest.approx(2.9, abs=1e-9)
        assert report.sigma < 1e-9

    def test_two_point_hand_value(self):
        # A = {20, 40} at D = {10, 20}: n = (200 + 800) / (100 + 400) = 2
        f = 28.0
        rows = [(f, 10.0, fspl(f, 1.0) + 20.0),    # D = 10
                (f, 100.0, fspl(f, 1.0) + 40.0)]   # D = 20
        report = fit_ci(make_dataset(rows))
        assert report.params.n == pytest.approx(2.0, abs=1e-12)

    def test_all_distances_at_one_meter_rejected(self):
        ds = make_dataset([(28.0, 1.0, 62.0), (28.0, 1.0, 63.0)])
        with pytest.raises(DegenerateDesignError):
            fit_ci(ds)

    def test_report_residuals_match_sigma(self):
        report = fit_ci(noisy(CIParams(3.0), (2.0, 28.0), 5.0, seed=11))
        assert report.sigma == pytest.approx(
            math.sqrt(sum(r * r for r in report.residuals) / report.n_points))
        assert report.n_points == len(report.residuals)


class TestFitCiOpt:
    def test_recovers_one_meter_reference_from_ci_data(self):
        report = fit_ci_opt(noiseless(CIParams(2.5), (10.0, 28.0)))
        assert report.params.n == pytest.approx(2.5, abs=1e-9)
        assert report.params.d0 == pytest.approx(1.0, abs=1e-9)
        assert report.sigma < 1e-9

    def test_recovers_offset_reference(self):
        truth = CIOptParams(3.9, 3.9)
        report = fit_ci_opt(noiseless(truth, (2.9, 29.0, 73.0), d_range=(4.0, 70.0)))
        assert report.params.n == pytest.approx(3.9, abs=1e-9)
        assert report.params.d0 == pytest.approx(3.9, abs=1e-8)

    def test_matches_grid_oracle_on_noisy_data(self):
        ds = noisy(CIParams(3.1), (2.0, 28.0), 6.0, seed=30, n_per=15)
        fitted = fit_ci_opt(ds)
        grid = oracle_fit(ds, "ci_opt")
        assert fitted.sigma <= grid.sigma + 1e-9
        assert abs(fitted.params.d0 - grid.params.d0) <= 0.01 + 1e-9

    def test_free_space_data_sets_degeneracy_flag(self):
        # n = 2 exactly: every d0 predicts alike, d0 = 1 m by convention
        ds = noiseless(CIParams(2.0), (28.0, 73.0))
        report = fit_ci_opt(ds)
        assert FLAG_D0_UNIDENTIFIABLE in report.flags
        assert report.params.d0 == 1.0
        assert report.params.n == pytest.approx(2.0, abs=1e-9)
        assert report.sigma < 1e-9

    def test_out_of_range_d0_clamps_to_best_bound(self):
        # this seed's unconstrained d0 falls below 0.1 m
        ds = noisy(CIParams(2.1), (28.0,), 8.0, seed=1039, n_per=12)
        report = fit_ci_opt(ds)
        assert report.flags == ("d0_clamped_low",)
        assert report.params.d0 == 0.1
        grid = oracle_fit(ds, "ci_opt")
        assert report.sigma <= grid.sigma + 1e-9

    def test_needs_two_distinct_distances(self):
        ds = make_dataset([(28.0, 30.0, 100.0), (2.0, 30.0, 90.0)])
        with pytest.raises(DegenerateDesignError):
            fit_ci_opt(ds)

    @pytest.mark.parametrize("shortfall", [1e-5, 2e-6])
    def test_slope_just_below_two_with_excess_clamps_instead_of_overflowing(self, shortfall):
        # log10 d0 = 3 / (10 * shortfall) is far beyond any float exponent
        d = np.geomspace(10.0, 1000.0, 50)
        pl = fspl(28.0, 1.0) + 10.0 * (2.0 - shortfall) * np.log10(d) + 3.0
        ds = make_dataset(zip([28.0] * 50, d.tolist(), pl.tolist()))
        report = fit_ci_opt(ds)
        bound = {"d0_clamped_low": 0.1, "d0_clamped_high": 50.0}
        assert len(report.flags) == 1 and report.flags[0] in bound
        assert report.params.d0 == bound[report.flags[0]]
        assert report.sigma <= oracle_fit(ds, "ci_opt").sigma + 1e-9

    def test_rejects_bounds_outside_contract(self):
        ds = noisy(CIParams(3.0), (2.0, 28.0), 3.0, seed=5)
        with pytest.raises(FitError):
            fit_ci_opt(ds, d0_bounds=(0.01, 50.0))


class TestFitAbg:
    def test_exact_recovery(self):
        truth = ABGParams(3.5, 13.6, 2.4)
        report = fit_abg(noiseless(truth, (2.0, 10.0, 28.0, 38.0)))
        assert_params_close(report.params, truth, atol=1e-9)
        assert report.sigma < 1e-9

    def test_matches_normal_equation_oracle(self):
        ds = noisy(ABGParams(3.0, 20.0, 2.2), (2.0, 10.0, 28.0, 73.0), 7.0, seed=88,
                   n_per=13)
        fitted = fit_abg(ds)
        oracle = oracle_fit(ds, "abg")
        assert_params_close(fitted.params, oracle.params, atol=1e-8)
        assert fitted.sigma == pytest.approx(oracle.sigma, abs=1e-10)

    def test_single_frequency_redirects_to_ab(self):
        ds = noisy(CIParams(3.0), (28.0,), 4.0, seed=3)
        with pytest.raises(SingleFrequencyError, match="fit_ab"):
            fit_abg(ds)

    def test_collinear_distance_and_frequency_is_singular(self):
        # f == d makes the D and F regressors identical
        rows = [(float(v), float(v), 100.0 + v) for v in (10.0, 20.0, 50.0, 100.0)]
        with pytest.raises(SingularDesignError):
            fit_abg(make_dataset(rows))


class TestFitAb:
    def test_single_frequency_ci_data_gives_free_space_intercept(self):
        # data from a CI slope: alpha = n and beta = fspl(f,1) - 20log10(f)
        ds = noiseless(CIParams(2.7), (28.0,))
        report = fit_ab(ds)
        assert report.params.alpha == pytest.approx(2.7, abs=1e-9)
        assert report.params.beta == pytest.approx(FREE_SPACE_INTERCEPT_DB, abs=1e-9)
        assert report.params.beta == pytest.approx(32.4478, abs=1e-4)

    def test_matches_least_squares_oracle(self):
        ds = noisy(ABParams(2.6, 34.0), (28.0,), 4.9, seed=12, n_per=40)
        fitted = fit_ab(ds)
        oracle = oracle_fit(ds, "ab")
        assert fitted.params.alpha == pytest.approx(oracle.params.alpha, abs=1e-9)
        assert fitted.params.beta == pytest.approx(oracle.params.beta, abs=1e-9)

    def test_needs_two_distinct_distances(self):
        ds = make_dataset([(28.0, 50.0, 100.0), (28.0, 50.0, 104.0)])
        with pytest.raises(DegenerateDesignError):
            fit_ab(ds)


class TestFitCif:
    def test_exact_recovery_with_given_f0(self):
        truth = CIFParams(3.2, 0.076, 30.0)
        report = fit_cif(noiseless(truth, (2.9, 29.0, 73.0)), f0=30.0)
        assert_params_close(report.params, truth, atol=1e-9)
        assert report.sigma < 1e-9

    def test_auto_f0_is_weighted_mean(self):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=0.0, seed=9,
                             frequencies=((2.0, 3), (10.0, 1)),
                             distance_range=(10.0, 100.0))
        report = fit_cif(generate(spec))
        assert report.params.f0 == 4.0  # (3*2 + 10) / 4

    def test_matches_normal_equation_oracle(self):
        ds = noisy(CIFParams(2.8, 0.05, 15.0), (2.0, 28.0), 6.0, seed=55, n_per=25)
        fitted = fit_cif(ds, f0=15.0)
        oracle = oracle_fit(ds, "cif", f0=15.0)
        assert_params_close(fitted.params, oracle.params, atol=1e-8)

    def test_single_frequency_redirects_to_ci(self):
        ds = noisy(CIParams(3.0), (28.0,), 4.0, seed=3)
        with pytest.raises(SingleFrequencyError, match="fit_ci"):
            fit_cif(ds)

    def test_forced_single_frequency_reverts_to_ci(self):
        ds = noisy(CIParams(3.0), (28.0,), 4.0, seed=3)
        forced = fit_cif(ds, f0=28.0, allow_single_frequency=True)
        assert FLAG_CIF_SINGLE_FREQUENCY in forced.flags
        assert forced.params.b == 0.0
        assert forced.params.n == pytest.approx(fit_ci(ds).params.n, abs=1e-12)

    def test_zero_slope_data_has_undefined_b(self):
        rows = [(f, d, fspl(f, 1.0)) for f in (2.0, 28.0) for d in (10.0, 100.0)]
        with pytest.raises(FitError, match="undefined"):
            fit_cif(make_dataset(rows), f0=15.0)

    def test_slope_zero_to_rounding_at_f0_has_undefined_b(self):
        # slope 3*(1 - f/15) is exactly zero at f0 = 15; rounding leaves
        # n ~ 1e-15, which would put b near -3e15
        rows = [(f, d, fspl(f, 1.0) + 30.0 * (1.0 - f / 15.0) * math.log10(d))
                for f in (2.0, 28.0) for d in (10.0, 50.0, 100.0, 400.0)]
        with pytest.raises(FitError, match="undefined"):
            fit_cif(make_dataset(rows), f0=15.0)

    @pytest.mark.parametrize("f0", [1e-3, 1e3, 1e6])
    def test_f0_only_rewrites_the_fitted_surface(self, uma_synthetic, f0):
        # the reported (n, b, f0) evaluate to the surface whose sigma is reported
        report = fit_cif(uma_synthetic, f0=f0)
        f, d, pl = uma_synthetic.arrays()
        assert rms(pl - evaluate(report.params, f, d)) == pytest.approx(
            report.sigma, rel=1e-9, abs=0.0)
        assert report.sigma == pytest.approx(
            fit_cif(uma_synthetic, f0=12.0).sigma, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("f0", [1e12, 1e18, 1e100])
    def test_an_f0_whose_params_lose_the_fit_is_an_error(self, uma_synthetic, f0):
        # once g*f0 >> a, b rounds to 1 and n*(1 - b) no longer gives back a
        with pytest.raises(FitError, match="^fit_cif: f0 too far from the data"):
            fit_cif(uma_synthetic, f0=f0)


class TestNormalEquationStationarity:
    """Substituting the fitted parameters back into the normal equations
    leaves residual magnitudes below 1e-6 * N."""

    def test_abg(self, noisy_multifreq):
        design = RegressionDesign.from_dataset(noisy_multifreq)
        p = fit_abg(noisy_multifreq).params
        chi = design.B - p.alpha * design.D - p.beta - p.gamma * design.F
        tol = 1e-6 * design.f.size
        assert abs(float(np.dot(design.D, chi))) <= tol
        assert abs(float(chi.sum())) <= tol
        assert abs(float(np.dot(design.F, chi))) <= tol

    def test_ci(self, noisy_multifreq):
        design = RegressionDesign.from_dataset(noisy_multifreq)
        n = fit_ci(noisy_multifreq).params.n
        assert abs(float(np.dot(design.D, design.A - n * design.D))) <= 1e-6 * design.f.size

    def test_cif(self, noisy_multifreq):
        design = RegressionDesign.from_dataset(noisy_multifreq)
        p = fit_cif(noisy_multifreq).params
        # back out the slope pair from (n, b, f0)
        a = p.n * (1.0 - p.b)
        g = p.n * p.b / p.f0
        chi = design.A - design.D * (a + g * design.f)
        tol = 1e-6 * design.f.size
        assert abs(float(np.dot(design.D, chi))) <= tol
        assert abs(float(np.dot(design.D * design.f, chi))) <= tol


def _sigma_at(params, ds) -> float:
    return prediction_sigma(params, ds)


class TestLocalOptimality:
    """Perturbing any fitted parameter by +/- 1e-3 never decreases sigma."""

    EPS = 1e-3

    def test_abg(self, noisy_multifreq):
        report = fit_abg(noisy_multifreq)
        p = report.params
        for field in ("alpha", "beta", "gamma"):
            for sign in (+1, -1):
                values = param_values(p)
                values[field] += sign * self.EPS
                bumped = ABGParams(values["alpha"], values["beta"], values["gamma"])
                assert _sigma_at(bumped, noisy_multifreq) >= report.sigma - 1e-12

    def test_ab(self, noisy_multifreq):
        single = noisy(ABParams(2.6, 34.0), (28.0,), 4.9, seed=21)
        report = fit_ab(single)
        for d_alpha, d_beta in ((self.EPS, 0.0), (-self.EPS, 0.0),
                                (0.0, self.EPS), (0.0, -self.EPS)):
            bumped = ABParams(report.params.alpha + d_alpha,
                              report.params.beta + d_beta)
            assert _sigma_at(bumped, single) >= report.sigma - 1e-12

    def test_ci(self, noisy_multifreq):
        report = fit_ci(noisy_multifreq)
        for sign in (+1, -1):
            bumped = CIParams(report.params.n + sign * self.EPS)
            assert _sigma_at(bumped, noisy_multifreq) >= report.sigma - 1e-12

    def test_ci_opt_interior(self):
        ds = noisy(CIOptParams(3.4, 8.1), (2.0, 10.0, 28.0), 2.0, seed=77,
                   d_range=(60.0, 1200.0))
        report = fit_ci_opt(ds)
        assert not report.flags
        n, d0 = report.params.n, report.params.d0
        for dn, dd0 in ((self.EPS, 0.0), (-self.EPS, 0.0),
                        (0.0, self.EPS), (0.0, -self.EPS)):
            bumped = CIOptParams(n + dn, d0 + dd0)
            assert _sigma_at(bumped, ds) >= report.sigma - 1e-12

    def test_cif(self, noisy_multifreq):
        report = fit_cif(noisy_multifreq)
        p = report.params
        for dn, db in ((self.EPS, 0.0), (-self.EPS, 0.0),
                       (0.0, self.EPS), (0.0, -self.EPS)):
            bumped = CIFParams(p.n + dn, p.b + db, p.f0)
            assert _sigma_at(bumped, noisy_multifreq) >= report.sigma - 1e-12


class TestOffsetEquivariance:
    @pytest.mark.parametrize("shift", [-7.5, 3.25, 12.0])
    def test_abg_shift_moves_only_beta(self, noisy_multifreq, shift):
        base = fit_abg(noisy_multifreq)
        f, d, pl = noisy_multifreq.arrays()
        shifted_ds = Dataset.from_columns(f, d, pl + shift, noisy_multifreq.codes,
                                          noisy_multifreq.labels)
        shifted = fit_abg(shifted_ds)
        assert shifted.params.alpha == pytest.approx(base.params.alpha, abs=1e-9)
        assert shifted.params.gamma == pytest.approx(base.params.gamma, abs=1e-9)
        assert shifted.params.beta == pytest.approx(base.params.beta + shift, abs=1e-9)
        assert shifted.sigma == pytest.approx(base.sigma, abs=1e-9)

    @pytest.mark.parametrize("shift", [-7.5, 3.25, 12.0])
    def test_ci_shift_is_predictable(self, noisy_multifreq, shift):
        design = RegressionDesign.from_dataset(noisy_multifreq)
        expected_delta = shift * float(design.D.sum()) / float(np.dot(design.D, design.D))
        base = fit_ci(noisy_multifreq)
        f, d, pl = noisy_multifreq.arrays()
        shifted_ds = Dataset.from_columns(f, d, pl + shift, noisy_multifreq.codes,
                                          noisy_multifreq.labels)
        shifted = fit_ci(shifted_ds)
        assert shifted.params.n - base.params.n == pytest.approx(expected_delta, abs=1e-9)


class TestReversionIdentities:
    def test_cif_forced_equals_ci_on_single_frequency(self):
        ds = noisy(CIParams(2.7), (38.0,), 10.5, seed=62)
        ci = fit_ci(ds)
        cif = fit_cif(ds, f0=38.0, allow_single_frequency=True)
        assert cif.params.n == pytest.approx(ci.params.n, abs=1e-9)
        assert cif.sigma == pytest.approx(ci.sigma, abs=1e-12)

    def test_ab_is_the_gamma_two_constrained_abg(self):
        ds = noisy(ABParams(2.6, 34.0), (28.0,), 4.9, seed=13, n_per=35)
        ab = fit_ab(ds)
        constrained = oracle_fit(ds, "ab")  # generic least squares at gamma=2
        assert ab.params.alpha == pytest.approx(constrained.params.alpha, abs=1e-9)
        assert ab.params.beta == pytest.approx(constrained.params.beta, abs=1e-9)
        # and an AB parameter set is exactly an ABG set with gamma pinned
        f, d = 28.0, 123.0
        assert evaluate(ab.params, f, d) == evaluate(
            ABGParams(ab.params.alpha, ab.params.beta, 2.0), f, d)


class TestMonotoneDominance:
    """Models with fewer free parameters can never fit better."""

    @pytest.mark.parametrize("seed", [101, 202, 303, 404, 505])
    def test_sigma_ordering(self, seed):
        truth = CIFParams(2.5 + 0.2 * (seed % 5), 0.03, 20.0)
        ds = noisy(truth, (2.0, 10.0, 28.0, 73.0), 6.5, seed=seed, n_per=20)
        sigma_abg = fit_abg(ds).sigma
        sigma_ab = fit_ab(ds).sigma
        sigma_ci = fit_ci(ds).sigma
        sigma_ciopt = fit_ci_opt(ds).sigma
        sigma_cif = fit_cif(ds).sigma
        assert sigma_ab >= sigma_abg - 1e-9
        assert sigma_ci >= sigma_cif - 1e-9
        assert sigma_ci >= sigma_ciopt - 1e-9


class TestExactFitCollapse:
    @pytest.mark.parametrize("truth,kind,freqs", [
        (ABGParams(3.5, 13.6, 2.4), "abg", (2.0, 10.0, 38.0)),
        (ABParams(2.6, 34.0), "ab", (28.0,)),
        (CIParams(2.9), "ci", (2.0, 38.0)),
        (CIOptParams(3.4, 8.1), "ci_opt", (2.0, 18.0)),
        (CIFParams(2.9, -0.002, 12.0), "cif", (2.0, 10.0, 38.0)),
    ])
    def test_noiseless_data_recovered(self, truth, kind, freqs):
        ds = noiseless(truth, freqs, d_range=(10.0, 1000.0))
        report = fit_with_reversion(ds, kind, f0=getattr(truth, "f0", "auto"))
        assert report.sigma < 1e-9
        assert_params_close(report.params, truth, atol=1e-9)


class TestFitWithReversion:
    def test_abg_on_single_frequency_degrades_to_ab(self):
        ds = noisy(CIParams(3.0), (28.0,), 4.0, seed=3)
        report = fit_with_reversion(ds, "abg")
        assert isinstance(report.params, ABParams)
        assert FLAG_ABG_AS_AB in report.flags

    def test_unknown_kind_rejected(self):
        ds = noisy(CIParams(3.0), (28.0,), 4.0, seed=3)
        with pytest.raises(FitError, match="unknown model kind"):
            fit_with_reversion(ds, "ciff")

    @pytest.mark.parametrize("kind", FITTER_KINDS)
    def test_empty_dataset_cannot_be_fitted(self, kind):
        with pytest.raises(DegenerateDesignError, match="^cannot fit an empty dataset$"):
            fit_with_reversion(make_dataset([]), kind)

    def test_fit_with_reversion_applies_the_single_frequency_conventions(self):
        ds = noisy(CIParams(3.0), (28.0,), 4.0, seed=3)
        report = fit_with_reversion(ds, "abg")
        assert isinstance(report.params, ABParams)
        assert FLAG_ABG_AS_AB in report.flags
        assert_params_close(report.params, fit_ab(ds).params, atol=0.0)
        cif = fit_with_reversion(ds, "cif", f0=10.0)
        assert FLAG_CIF_SINGLE_FREQUENCY in cif.flags
        assert cif.params.f0 == 28.0 and cif.params.b == 0.0
        assert cif.params.n == fit_ci(ds).params.n
