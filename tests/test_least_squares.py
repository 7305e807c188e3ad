"""The fitters' shared least-squares core against SVD least squares, and the
invariants its closed forms promise.

numpy's ``lstsq`` solves each fit's explicit design matrix by SVD, without
normal equations, so it is an independent reference for every linear fit.
"""

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from pathlossfit import (
    CIParams,
    Dataset,
    DistanceClose,
    FitError,
    SyntheticSpec,
    evaluate,
    fit_ab,
    fit_abg,
    fit_ci,
    fit_ci_opt,
    fit_cif,
    fit_with_reversion,
    fspl,
    generate,
    rms,
    split,
)
from pathlossfit import oracle
from pathlossfit.oracle import oracle_fit
from conftest import design_rows

UMA_COUNTS = ((2.0, 583), (10.0, 581), (18.0, 468), (28.0, 225), (38.0, 12))


def lstsq(columns, y) -> np.ndarray:
    return np.linalg.lstsq(np.column_stack(columns), y, rcond=None)[0]


def reference_fits(ds: Dataset, f0: float) -> dict[str, tuple[float, ...]]:
    """Each linear fit's parameters, solved by SVD on its design matrix."""
    x = design_rows(ds)
    one = np.ones(x.f.size)
    alpha, beta, gamma = lstsq([x.D, one, x.F], x.B)
    ab_alpha, ab_beta = lstsq([x.D, one], x.B - 2.0 * x.F)
    n_opt, intercept = lstsq([x.D, one], x.A)
    a, g = lstsq([x.D, x.D * x.f], x.A)
    return {
        "abg": (alpha, beta, gamma),
        "ab": (ab_alpha, ab_beta),
        "ci": tuple(lstsq([x.D], x.A)),
        "ci_opt": (n_opt, 10.0 ** (intercept / (10.0 * (2.0 - n_opt)))),
        "cif": (a + g * f0, g * f0 / (a + g * f0)),
    }


def fitted(ds: Dataset, f0: float) -> dict[str, tuple[float, ...]]:
    p = {"abg": fit_abg(ds).params, "ab": fit_ab(ds).params, "ci": fit_ci(ds).params,
         "ci_opt": fit_ci_opt(ds).params, "cif": fit_cif(ds, f0=f0).params}
    return {"abg": (p["abg"].alpha, p["abg"].beta, p["abg"].gamma),
            "ab": (p["ab"].alpha, p["ab"].beta), "ci": (p["ci"].n,),
            "ci_opt": (p["ci_opt"].n, p["ci_opt"].d0), "cif": (p["cif"].n, p["cif"].b)}


def uma_campaign(factor: int) -> Dataset:
    return generate(SyntheticSpec(
        truth=CIParams(2.9), sigma=5.7, seed=20160505,
        frequencies=tuple((f, c * factor) for f, c in UMA_COUNTS),
        distance_range=(60.0, 1238.0)))


@pytest.mark.parametrize("factor,delta", [(1, 795.0), (10, 595.0)])
def test_far_measurement_sets_match_svd_least_squares(factor, delta):
    # The measurement sets left by wide distance-close gaps (d > 995 m on the
    # 1.9k campaign, d > 795 m on the 18.7k one) have D and F sums in the
    # thousands: uncentred ABG normal equations are 3e-11 to 7e-10 off SVD
    # there, centred ones about 1e-12.
    measurement, _ = split(uma_campaign(factor), DistanceClose(200.0, (delta,)), delta)
    got = fitted(measurement, 15.0)
    want = reference_fits(measurement, 15.0)
    if fit_ci_opt(measurement).flags:  # clamped: not the unconstrained solution
        del got["ci_opt"], want["ci_opt"]
    for kind, values in want.items():
        np.testing.assert_allclose(got[kind], values, rtol=0, atol=1e-11, err_msg=kind)


def noisy_design(seed: int, frequencies: tuple[float, ...], n_per: int,
                 scale: float = 1.0) -> Dataset:
    """Log-uniform 10-800 m distances times ``scale``, CIF-like slopes, 4 dB noise."""
    rng = np.random.default_rng(seed)
    f = np.repeat(frequencies, n_per)
    d = 10.0 * 80.0 ** rng.uniform(size=f.size)
    slope = 3.0 * (1.0 + 0.05 * (f - 20.0) / 20.0)
    pl = fspl(f, 1.0) + 10.0 * slope * np.log10(d) + 4.0 * rng.standard_normal(f.size)
    return Dataset.from_columns(f, d * scale, pl)


frequency_sets = st.lists(st.sampled_from((2.0, 10.0, 18.0, 28.0, 38.0, 73.0)),
                          min_size=2, max_size=4, unique=True).map(tuple)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frequencies=frequency_sets,
       n_per=st.integers(4, 40))
def test_every_linear_fitter_matches_svd_least_squares(seed, frequencies, n_per):
    ds = noisy_design(seed, frequencies, n_per)
    got = fitted(ds, 20.0)
    want = reference_fits(ds, 20.0)
    if fit_ci_opt(ds).flags:  # clamped or free space: not the unconstrained solution
        del got["ci_opt"], want["ci_opt"]
    for kind, values in want.items():
        np.testing.assert_allclose(got[kind], values, rtol=1e-10, atol=1e-10,
                                   err_msg=kind)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frequencies=frequency_sets,
       shift=st.floats(-30.0, 30.0))
def test_adding_c_db_shifts_ab_beta_by_c(seed, frequencies, shift):
    ds = noisy_design(seed, frequencies, 15)
    shifted = Dataset.from_columns(ds.frequency, ds.distance, ds.path_loss + shift)
    base, moved = fit_ab(ds), fit_ab(shifted)
    assert moved.params.alpha == pytest.approx(base.params.alpha, abs=1e-9)
    assert moved.params.beta == pytest.approx(base.params.beta + shift, abs=1e-9)
    assert moved.sigma == pytest.approx(base.sigma, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frequencies=frequency_sets,
       scale=st.floats(0.5, 2.0))
def test_scaling_distances_keeps_the_ci_opt_slope(seed, frequencies, scale):
    base = fit_ci_opt(noisy_design(seed, frequencies, 15))
    scaled = fit_ci_opt(noisy_design(seed, frequencies, 15, scale))
    assume(not base.flags and not scaled.flags)  # a clamped d0 pins the slope
    assert scaled.params.n == pytest.approx(base.params.n, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), frequencies=frequency_sets,
       n_per=st.integers(4, 40), log_ratio=st.floats(-3.0, 6.0))
def test_cif_sigma_does_not_depend_on_f0(seed, frequencies, n_per, log_ratio):
    # f0 from 1e-3 to 1e6 times the mean frequency only rewrites (n, b), or,
    # where (n, b) cannot carry the solved slopes, is an error
    ds = noisy_design(seed, frequencies, n_per)
    f0 = float(np.mean(ds.frequency)) * 10.0 ** log_ratio
    try:
        report = fit_cif(ds, f0=f0)
    except FitError as exc:
        assert str(exc).startswith("fit_cif: f0 too far from the data")
        return
    assert report.sigma == pytest.approx(fit_cif(ds).sigma, rel=1e-12, abs=0.0)
    assert report.sigma == pytest.approx(oracle_fit(ds, "cif", f0=f0).sigma,
                                         rel=1e-9, abs=0.0)
    f, d, pl = ds.arrays()
    assert rms(pl - evaluate(report.params, f, d)) == pytest.approx(
        report.sigma, rel=1e-9, abs=0.0)


# Conditioning at legal extremes. Every fit must give the oracle's sigma to
# SIGMA_RTOL, or raise a FitError or carry a flag that names the degeneracy.
SIGMA_RTOL = 1e-6


def extreme_design(seed: int, size: int, offset: float, f_lo: float, f_hi: float,
                   tied: bool, slope: float, noise: float) -> Dataset:
    """``size`` distances within 1 m above ``offset``, and frequencies between
    ``f_lo`` and ``f_hi``: one per sample tied to its distance (D and F nearly
    collinear), or else the two ends, drawn independently of distance; a CI
    ``slope`` and ``noise`` dB of shadowing, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    position = rng.uniform(0.0, 1.0, size)
    if tied:
        f = f_lo * (f_hi / f_lo) ** position
    else:
        f = rng.choice([f_lo, f_hi], size)
    d = offset + position
    pl = fspl(f, 1.0) + 10.0 * slope * np.log10(d) + noise * rng.standard_normal(size)
    return Dataset.from_columns(f, d, pl)


@st.composite
def extreme_designs(draw) -> Dataset:
    """:func:`extreme_design` at legal extremes: an offset of up to 1e5 m,
    frequencies from 0.5 to 300 GHz between two ends that may lie a relative
    1e-7 apart, a CI slope and noise from 1e-3 to 10 dB."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    size = draw(st.integers(6, 40))
    offset = draw(st.one_of(st.just(1e5), st.floats(1.0, 1e5)))
    f_lo = draw(st.floats(0.5, 300.0))
    f_hi = draw(st.one_of(st.floats(0.5, 300.0),  # or a relative gap of 1e-7 to 1e-3
                          st.floats(1e-7, 1e-3).map(lambda gap: min(f_lo * (1.0 + gap), 300.0))))
    tied = draw(st.booleans())
    slope, noise = draw(st.floats(2.0, 4.0)), draw(st.floats(1e-3, 10.0))
    return extreme_design(seed, size, offset, f_lo, f_hi, tied, slope, noise)


def oracle_sigma(ds: Dataset, kind: str) -> float:
    """The sigma of the oracle's SVD least squares on the kind's explicit
    design; an intercept is taken out by centring the target and columns
    first (SVD of the raw columns, with D about 50 dB and a spread of 4e-5 dB,
    loses up to a tenth of ABG's sigma here)."""
    D, F, A, B, f = oracle._columns(ds)
    columns, target, intercept = {
        "abg": ([D, F], B, True), "ab": ([D], B - 2.0 * F, True), "ci": ([D], A, False),
        "ci_opt": ([D], A, True), "cif": ([D, D * f], A, False)}[kind]
    if intercept:
        columns, target = [c - c.mean() for c in columns], target - target.mean()
    _, residuals = oracle._lstsq(columns, target, f"{kind} oracle")
    return rms(residuals)


@pytest.mark.parametrize("kind", [
    *(pytest.param(kind, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a two-column solve passes the singularity check at a relative determinant "
        "near SINGULARITY_RTOL with its sigma off the least-squares minimum")))
      for kind in ("abg", "cif")),
    "ab", "ci", "ci_opt"])
# The strict xfails fail in every run on the stored designs: the derandomized
# examples alone do not promise that, since Hypothesis also draws from the
# literals of the modules that happen to be imported. Not shrunk, since they
# fail by design.
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(ds=extreme_designs())
@example(ds=extreme_design(33, 6, 1e5, 81.2, 81.200081, True, 2.2, 2.0))  # ABG 8e-4 off
@example(ds=extreme_design(81, 6, 1e5, 1.1, 1.100011, True, 3.5, 1.0))  # CIF 4e-4 off
def test_extreme_designs_fit_as_the_oracle_or_name_the_degeneracy(kind, ds):
    try:
        report = fit_with_reversion(ds, kind)
    except FitError:  # each subclass and message names the degeneracy
        return
    if report.flags:  # clamped or unidentifiable d0, a single-frequency reversion
        return
    assert report.sigma == pytest.approx(oracle_sigma(ds, kind), rel=SIGMA_RTOL, abs=0.0)


@pytest.mark.parametrize("kind", ["abg", "ab"])
def test_the_oracle_centres_its_intercept_fits(kind):
    # distances within 1 m above 1e5 m, each frequency tied to its distance:
    # SVD of the raw [D, 1, F] columns is up to a tenth off ABG's sigma here,
    # or finds them rank deficient
    rng = np.random.default_rng(20160505)
    for _ in range(300):
        size, (f_lo, f_hi) = rng.integers(6, 41), np.sort(rng.uniform(0.5, 300.0, 2))
        position = rng.uniform(0.0, 1.0, size)
        f, d = f_lo * (f_hi / f_lo) ** position, 1e5 + position
        pl = fspl(f, 1.0) + 10.0 * rng.uniform(2.0, 4.0) * np.log10(d) + rng.normal(0.0, 5.0, size)
        ds = Dataset.from_columns(f, d, pl)
        report = oracle_fit(ds, kind)
        assert report.sigma == pytest.approx(oracle_sigma(ds, kind), rel=SIGMA_RTOL, abs=0.0)
