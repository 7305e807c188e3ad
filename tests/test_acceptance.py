"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The random-dataset recipe is frozen (counter RNG, fixed
seeds), so every number here is reproducible bit for bit.
"""

import json
import math
import time

import numpy as np

from pathlossfit import (
    ABGParams,
    ABParams,
    CIFParams,
    CIOptParams,
    CIParams,
    Dataset,
    RegressionDesign,
    SyntheticSpec,
    counter_uniforms,
    fit_ab,
    fit_abg,
    fit_ci,
    fit_ci_opt,
    fit_cif,
    fit_with_reversion,
    fspl,
    generate,
    param_values,
    run_sweep,
)
from pathlossfit.cli import main as cli_main
from pathlossfit.fitters import FLAG_D0_UNIDENTIFIABLE
from pathlossfit.ingest import spec_to_dict
from pathlossfit.oracle import ci_slope_lstsq, oracle_fit
from pathlossfit.sensitivity import DistanceClose, steps


def _check(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


# ---------------------------------------------------------------------------
# Frozen random-dataset recipe shared by criteria 1 and 7:
# 100 datasets, N=50 each, f in {2, 10, 28, 73} GHz, d log-uniform in
# [10, 500] m, sigma_true in [0, 10] dB, truth cycling abg/ci/cif.
# ---------------------------------------------------------------------------

_META_SEED = 777
_CACHE: list[Dataset] = []


def _random_datasets() -> list[Dataset]:
    if _CACHE:
        return _CACHE
    for i in range(100):
        k = i * 8
        u = counter_uniforms(_META_SEED, np.arange(k, k + 8)).tolist()
        if i % 3 == 0:
            truth = ABGParams(1.5 + 3.0 * u[0], 10.0 + 30.0 * u[1], 1.5 + 1.5 * u[2])
        elif i % 3 == 1:
            truth = CIParams(1.5 + 3.0 * u[0])
        else:
            truth = CIFParams(1.5 + 3.0 * u[0], -0.2 + 0.4 * u[1], 20.0)
        counts = [5, 5, 5, 5]
        rest = 30
        for j in range(4):
            take = int(rest * u[4 + j]) if j < 3 else rest
            counts[j] += take
            rest -= take
        spec = SyntheticSpec(truth=truth, sigma=10.0 * u[3], seed=1000 + i,
                             frequencies=tuple(zip((2.0, 10.0, 28.0, 73.0), counts)),
                             distance_range=(10.0, 500.0))
        _CACHE.append(generate(spec))
    return _CACHE


def _uma_dataset() -> Dataset:
    spec = SyntheticSpec(
        truth=CIParams(2.9), sigma=5.7, seed=20160505,
        frequencies=((2.0, 583), (10.0, 581), (18.0, 468), (28.0, 225), (38.0, 12)),
        distance_range=(60.0, 1238.0))
    return generate(spec)


def _close(fitted, oracle, tol: float) -> bool:
    """Relative agreement with a unit floor for near-zero parameters."""
    return abs(fitted - oracle) <= tol * max(1.0, abs(oracle))


def _sigma_at_d0(design: RegressionDesign, d0: float) -> float:
    b10 = 10.0 * math.log10(d0)
    d_shift = design.D - b10
    a_shift = design.A - 2.0 * b10
    n = float(np.dot(d_shift, a_shift)) / float(np.dot(d_shift, d_shift))
    res = a_shift - n * d_shift
    return float(np.sqrt(np.mean(res * res)))


def test_criterion_1_oracle_equivalence():
    """Closed forms match independent solvers on 100 seeded random datasets."""
    started = time.perf_counter()
    _CACHE.clear()
    worst_linear = 0.0
    worst_ci = 0.0
    worst_cells = 0.0
    ok = True
    for ds in _random_datasets():
        for kind in ("abg", "ab", "cif"):
            fitted = param_values(fit_with_reversion(ds, kind).params)
            oracle = param_values(oracle_fit(ds, kind).params)
            for name in oracle:
                rel = abs(fitted[name] - oracle[name]) / max(1.0, abs(oracle[name]))
                worst_linear = max(worst_linear, rel)
                ok &= _close(fitted[name], oracle[name], 1e-8)

        ci_dev = abs(fit_ci(ds).params.n - ci_slope_lstsq(ds))
        worst_ci = max(worst_ci, ci_dev)
        ok &= ci_dev <= 1e-10

        fitted_opt = fit_ci_opt(ds)
        grid = oracle_fit(ds, "ci_opt", d0_grid=(0.1, 50.0, 0.01))
        ok &= fitted_opt.sigma <= grid.sigma + 1e-9
        design = RegressionDesign.from_dataset(ds)
        cell = max(_sigma_at_d0(design, max(0.1, grid.params.d0 - 0.01)),
                   _sigma_at_d0(design, min(50.0, grid.params.d0 + 0.01))) - grid.sigma
        gap = grid.sigma - fitted_opt.sigma
        worst_cells = max(worst_cells, gap - cell)
        ok &= gap <= cell + 1e-12

    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    _check(1, "oracle equivalence on 100 seeded datasets "
              f"(worst linear rel {worst_linear:.2e} <= 1e-8, "
              f"worst ci dev {worst_ci:.2e} <= 1e-10, "
              f"ci_opt within one grid cell, {elapsed:.2f}s < 10s)", ok)


def test_criterion_2_exact_recovery():
    """Noiseless in-family data is recovered exactly (sigma and params < 1e-9)."""
    cases = [
        ("abg", ABGParams(3.5, 13.6, 2.4), (2.0, 10.0, 38.0)),
        ("ab", ABParams(2.6, 34.0), (28.0,)),
        ("ci", CIParams(2.9), (2.0, 10.0, 38.0)),
        ("ci_opt", CIOptParams(3.4, 8.1), (2.0, 18.0)),
        ("cif", CIFParams(2.9, -0.002, 12.0), (2.0, 10.0, 38.0)),
    ]
    ok = True
    worst_sigma = 0.0
    for kind, truth, freqs in cases:
        spec = SyntheticSpec(truth=truth, sigma=0.0, seed=5,
                             frequencies=tuple((f, 20) for f in freqs),
                             distance_range=(10.0, 1000.0))
        report = fit_with_reversion(generate(spec), kind, f0=getattr(truth, "f0", "auto"))
        worst_sigma = max(worst_sigma, report.sigma)
        ok &= report.sigma < 1e-9
        for name, value in param_values(truth).items():
            ok &= abs(param_values(report.params)[name] - value) < 1e-9

    # the n=2 degeneracy: free-space data leaves d0 unidentifiable
    spec = SyntheticSpec(truth=CIParams(2.0), sigma=0.0, seed=5,
                         frequencies=((2.0, 20), (28.0, 20)),
                         distance_range=(10.0, 1000.0))
    degenerate = fit_ci_opt(generate(spec))
    ok &= FLAG_D0_UNIDENTIFIABLE in degenerate.flags
    ok &= degenerate.sigma < 1e-9

    _check(2, "exact recovery of all five families "
              f"(worst sigma {worst_sigma:.2e} < 1e-9 dB, n=2 degeneracy flagged)", ok)


def test_criterion_3_free_space_constant():
    """fspl(f, 1 m) - 20*log10(f) is the 32.4478 dB constant at every frequency."""
    deviations = [abs(fspl(f, 1.0) - 20.0 * math.log10(f) - 32.4478)
                  for f in (0.5, 2.0, 28.0, 73.0, 100.0)]
    ok = max(deviations) <= 1e-4
    _check(3, "free-space intercept 32.4478 dB +/- 1e-4 over 0.5-100 GHz "
              f"(max dev {max(deviations):.2e})", ok)


def test_criterion_4_reversion_identities():
    """Single-frequency conventions: CIF(f0=f) == CI and ABG(gamma=2) == AB."""
    spec = SyntheticSpec(truth=CIParams(2.7), sigma=6.0, seed=61,
                         frequencies=((38.0, 40),), distance_range=(10.0, 900.0))
    ds = generate(spec)

    ci = fit_ci(ds)
    cif = fit_cif(ds, f0=38.0, allow_single_frequency=True)
    dev_cif = abs(cif.params.n - ci.params.n)

    ab = fit_ab(ds)
    constrained = oracle_fit(ds, "ab")  # gamma=2-constrained least squares
    dev_ab = max(abs(ab.params.alpha - constrained.params.alpha),
                 abs(ab.params.beta - constrained.params.beta))

    ok = dev_cif <= 1e-9 and cif.params.b == 0.0 and dev_ab <= 1e-9
    _check(4, "reversion identities on single-frequency data "
              f"(CIF-CI n dev {dev_cif:.2e}, AB vs constrained LS dev {dev_ab:.2e}, "
              "both <= 1e-9)", ok)


def test_criterion_5_statistical_recovery_at_campaign_scale():
    """A full-size 1869-sample synthetic campaign recovers its CI truth."""
    started = time.perf_counter()
    ds = _uma_dataset()
    ci = fit_ci(ds)
    cif = fit_cif(ds)
    elapsed = time.perf_counter() - started
    ok = (2.85 <= ci.params.n <= 2.95 and 5.4 <= ci.sigma <= 6.0
          and abs(cif.params.b) < 0.05 and elapsed < 5.0)
    _check(5, f"campaign-scale recovery (n={ci.params.n:.4f} in [2.85, 2.95], "
              f"sigma={ci.sigma:.4f} in [5.4, 6.0] dB, |b|={abs(cif.params.b):.4f} "
              f"< 0.05, {elapsed:.2f}s < 5s)", ok)


def test_criterion_6_sensitivity_flatness():
    """CI prediction error and slope barely move across the distance sweep."""
    ds = _uma_dataset()
    report = run_sweep(ds, DistanceClose(200.0, steps(600.0, 50.0)),
                       ("abg", "ci", "cif"))
    ci_sigma, ci_n, abg_sigma = [], [], []
    for point in report.active_points():
        entries = {e.model: e for e in point.models}
        ci_sigma.append(entries["ci"].prediction_sigma)
        ci_n.append(entries["ci"].params.n)
        abg_sigma.append(entries["abg"].prediction_sigma)
    sigma_spread = max(ci_sigma) - min(ci_sigma)
    n_spread = max(ci_n) - min(ci_n)
    ok = len(ci_sigma) == 13 and sigma_spread < 1.0 and n_spread < 0.15
    _check(6, f"CI flat across the sweep (prediction-sigma spread "
              f"{sigma_spread:.4f} < 1.0 dB, n spread {n_spread:.4f} < 0.15; "
              f"ABG prediction-sigma recorded: "
              f"{min(abg_sigma):.2f}..{max(abg_sigma):.2f} dB, unbounded)", ok)


def test_criterion_7_monotone_dominance():
    """Removing a free parameter can never reduce the fitted sigma."""
    worst = 0.0
    ok = True
    datasets = _random_datasets() + [_uma_dataset()]
    for ds in datasets:
        sigma_abg = fit_abg(ds).sigma
        sigma_ab = fit_ab(ds).sigma
        sigma_ci = fit_ci(ds).sigma
        sigma_cif = fit_cif(ds).sigma
        sigma_ciopt = fit_ci_opt(ds).sigma
        for lo, hi in ((sigma_abg, sigma_ab), (sigma_cif, sigma_ci),
                       (sigma_ciopt, sigma_ci)):
            worst = max(worst, lo - hi)
            ok &= hi >= lo - 1e-9
    _check(7, "monotone dominance sigma(AB)>=sigma(ABG), sigma(CI)>=sigma(CIF), "
              f"sigma(CI)>=sigma(CIopt) on all {len(datasets)} multi-frequency "
              f"datasets (worst violation {worst:.2e} <= 1e-9)", ok)


def test_criterion_8_pipeline_determinism(tmp_path):
    """generate -> preprocess -> fit -> sweep twice: byte-identical outputs."""
    spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=271828,
                         frequencies=((2.0, 60), (10.0, 60), (28.0, 60)),
                         distance_range=(60.0, 1238.0))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
    raw = tmp_path / "data.csv"
    pp = tmp_path / "pp.csv"
    fit_dir = tmp_path / "fit"
    sweep_dir = tmp_path / "sweep"

    def run_pipeline() -> dict[str, bytes]:
        assert cli_main(["generate", "--spec", str(spec_path), "--out", str(raw)]) == 0
        assert cli_main(["preprocess", "--input", str(raw), "--out", str(pp)]) == 0
        assert cli_main(["fit", "--input", str(pp), "--out-dir", str(fit_dir),
                         "--models", "abg,ci,ci_opt,cif"]) == 0
        assert cli_main(["sweep", "--input", str(pp), "--out-dir", str(sweep_dir),
                         "--split", "distance-close", "--d-max", "200",
                         "--delta-grid", "0,100,200,300"]) == 0
        outputs = [raw, pp, fit_dir / "fit_report.json", fit_dir / "model_curves.csv",
                   sweep_dir / "sweep_report.json", sweep_dir / "sweep_trace.csv"]
        return {p.name: p.read_bytes() for p in outputs}

    first = run_pipeline()
    second = run_pipeline()
    identical = [name for name in first if first[name] == second[name]]
    ok = identical == list(first)
    _check(8, f"two identical CLI pipelines produced byte-identical outputs "
              f"({len(identical)}/{len(first)} files)", ok)
