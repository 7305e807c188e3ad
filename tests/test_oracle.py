"""Grid-search and generic-solver oracle behavior (bracketing, agreement)."""

import math

import numpy as np
import pytest

from pathlossfit import (
    CIParams,
    CIFParams,
    Dataset,
    DegenerateDesignError,
    SingularDesignError,
    SyntheticSpec,
    evaluate,
    fit_ci,
    fit_ci_opt,
    fspl,
    generate,
    prediction_sigma,
    rms,
)
from pathlossfit.fitters import FitError
from pathlossfit.oracle import ci_slope_lstsq, oracle_fit
from conftest import make_dataset


@pytest.fixture(scope="module")
def noisy_ds():
    spec = SyntheticSpec(truth=CIParams(3.1), sigma=6.0, seed=2024,
                         frequencies=((2.0, 20), (28.0, 20)),
                         distance_range=(10.0, 500.0))
    return generate(spec)


class TestCiGrid:
    def test_brackets_the_closed_form(self, noisy_ds):
        exact = fit_ci(noisy_ds)
        grid = oracle_fit(noisy_ds, "ci", n_grid=(0.0, 10.0, 1e-4))
        # the grid minimum can never beat the true minimum, and the nearest
        # grid node is within half a step of it
        assert grid.sigma >= exact.sigma - 1e-12
        assert abs(grid.params.n - exact.params.n) <= 1e-4
        nearest = round(exact.params.n / 1e-4) * 1e-4
        assert grid.sigma <= prediction_sigma(CIParams(nearest), noisy_ds) + 1e-12

    def test_lstsq_slope_agrees_with_closed_form(self, noisy_ds):
        assert ci_slope_lstsq(noisy_ds) == pytest.approx(
            fit_ci(noisy_ds).params.n, abs=1e-12)


class TestCiOptGrid:
    def test_agrees_with_joint_closed_form(self, noisy_ds):
        grid = oracle_fit(noisy_ds, "ci_opt")
        exact = fit_ci_opt(noisy_ds)
        assert exact.sigma <= grid.sigma + 1e-9
        assert abs(grid.params.d0 - exact.params.d0) <= 0.01 + 1e-9

    def test_grid_endpoints_included(self):
        from pathlossfit.oracle import _grid
        grid = _grid(0.1, 50.0, 0.01)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(50.0)
        assert len(grid) == 4991


class TestGenericSolvers:
    def test_singular_system_raises(self):
        rows = [(float(v), float(v), 100.0 + v) for v in (10.0, 20.0, 50.0, 100.0)]
        with pytest.raises(SingularDesignError):
            oracle_fit(make_dataset(rows), "abg")

    def test_cif_oracle_respects_given_f0(self, noisy_ds):
        report = oracle_fit(noisy_ds, "cif", f0=15.0)
        assert isinstance(report.params, CIFParams)
        assert report.params.f0 == 15.0

    def test_bad_grid_rejected(self, noisy_ds):
        with pytest.raises(FitError):
            oracle_fit(noisy_ds, "ci", n_grid=(0.0, 10.0, -1.0))
        with pytest.raises(FitError):
            oracle_fit(noisy_ds, "ci", n_grid=(10.0, 0.0, 0.1))

    def test_cif_oracle_rejects_a_zero_slope(self):
        # loss exactly at free space: both slopes solve to 0, so n = 0
        f, d = np.repeat([2.0, 28.0], 2), np.tile([10.0, 100.0], 2)
        with pytest.raises(FitError, match="n is zero"):
            oracle_fit(Dataset.from_columns(f, d, fspl(f, 1.0)), "cif", f0=15.0)

    def test_cif_oracle_rejects_a_slope_zero_to_rounding(self):
        # slope 3*(1 - f/15) is zero at f0 = 15 but solves to n ~ 9e-16, which
        # fit_cif rejects; the oracle used to report b ~ -3e15 from it
        rows = [(f, d, fspl(f, 1.0) + 30.0 * (1.0 - f / 15.0) * math.log10(d))
                for f in (2.0, 28.0) for d in (10.0, 50.0, 100.0, 400.0)]
        with pytest.raises(FitError, match="n is zero"):
            oracle_fit(make_dataset(rows), "cif", f0=15.0)

    @pytest.mark.parametrize("f0", [1e12, 1e100])
    def test_cif_oracle_rejects_an_f0_its_params_cannot_carry(self, f0):
        # b rounds to 1 and n*(1 - b) loses a: at 1e100 the params evaluate
        # to a 74 dB sigma while the solve's residuals give 5.7 dB
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=20160505,
                             frequencies=((2.0, 58), (10.0, 58), (28.0, 22)),
                             distance_range=(60.0, 1238.0))
        ds = generate(spec)
        report = oracle_fit(ds, "cif", f0=12.0)
        f, d, pl = ds.arrays()
        assert rms(pl - evaluate(report.params, f, d)) == pytest.approx(
            report.sigma, rel=1e-9, abs=0.0)
        with pytest.raises(FitError, match="f0 too far from the data"):
            oracle_fit(ds, "cif", f0=f0)

    def test_ci_opt_oracle_needs_two_distances(self):
        rows = [(f, 100.0, 120.0 + f) for f in (2.0, 28.0, 28.0)]
        with pytest.raises(DegenerateDesignError, match="two distinct distances"):
            oracle_fit(make_dataset(rows), "ci_opt")

    def test_empty_dataset_rejected(self):
        with pytest.raises(DegenerateDesignError, match="^cannot fit an empty dataset$"):
            oracle_fit(make_dataset([]), "cif")
        with pytest.raises(DegenerateDesignError, match="^cannot fit an empty dataset$"):
            ci_slope_lstsq(make_dataset([]))

    def test_unknown_kind_rejected(self, noisy_ds):
        with pytest.raises(FitError):
            oracle_fit(noisy_ds, "nope")
