"""Output checks, run after the timed window on the first job's files.

Each check rebuilds what a command should have produced from its input file
with numpy code of its own (CSV parsing, threshold, binning, split masks) and
compares fitted parameters against ``pathlossfit.oracle``, whose solvers share
no closed form with the fitters. Tolerances are those of acceptance
criterion 1. Every check returns a list of error strings, empty when the
output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pathlossfit import Dataset, PathLossSample, param_values
from pathlossfit.oracle import ci_slope_lstsq, oracle_fit
from workloads import CLOSE_D_MAX, CLOSE_DEFAULT_GRID, DISTANCE_RANGE, MODELS, Command

# CLI defaults that the conditioned outputs must follow.
THRESHOLD_MARGIN_DB = 100.0
BIN_WIDTH_M = 2.0
SPEED_OF_LIGHT = 299_792_458.0
FSPL_1GHZ_1M_DB = 20.0 * math.log10(4.0 * math.pi * 1e9 / SPEED_OF_LIGHT)

LINEAR_RTOL = 1e-8       # abg, ab, cif parameters against the linear-solve oracle
CI_ATOL = 1e-10          # CI slope against SVD least squares
CI_OPT_SIGMA_ATOL = 1e-9  # CI-opt sigma against the d0 grid oracle
CONDITIONED_ATOL = 1e-9  # conditioned distances and losses against our own binning


@dataclass(frozen=True)
class Rows:
    """Columns of a campaign CSV; ``group`` joins campaign, environment and scenario."""

    f: np.ndarray
    d: np.ndarray
    pl: np.ndarray
    group: np.ndarray

    def __len__(self) -> int:
        return int(self.f.size)

    def take(self, index) -> "Rows":
        return Rows(self.f[index], self.d[index], self.pl[index], self.group[index])

    def dataset(self) -> Dataset:
        return Dataset(tuple(PathLossSample(float(f), float(d), float(pl))
                             for f, d, pl in zip(self.f, self.d, self.pl)))


def read_rows(path: Path) -> Rows:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    column = lambda name: np.array([float(r[name]) for r in rows])  # noqa: E731
    group = np.array([f"{r['campaign']}|{r['environment']}|{r['scenario']}" for r in rows],
                     dtype=object)
    return Rows(column("frequency_ghz"), column("distance_m"), column("path_loss_db"), group)


def condition(rows: Rows, threshold: bool, binning: bool) -> Rows:
    """Threshold at FSPL(f, 1 m) + 100 dB, then average 2 m bins in dB per group."""
    if threshold:
        limit = 20.0 * np.log10(rows.f) + FSPL_1GHZ_1M_DB + THRESHOLD_MARGIN_DB
        rows = rows.take(rows.pl <= limit)
    if not binning or len(rows) == 0:
        return rows
    _, label = np.unique(rows.group.astype(str), return_inverse=True)
    keys = np.column_stack([label, rows.f, np.floor(rows.d / BIN_WIDTH_M)])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)                 # bins in order of first occurrence
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    members = rank[inverse.reshape(-1)]
    counts = np.bincount(members)
    heads = first[order]
    return Rows(rows.f[heads], np.bincount(members, rows.d) / counts,
                np.bincount(members, rows.pl) / counts, rows.group[heads])


def _conditioned_input(cmd: Command, root: Path) -> Rows:
    return condition(read_rows(root / cmd.source), cmd.threshold, cmd.binning)


def check_generate(cmd: Command, root: Path, _grid_oracle: bool) -> list[str]:
    spec = json.loads((root / cmd.source).read_text(encoding="utf-8"))
    rows = read_rows(root / cmd.target)
    errors = []
    want = [(float(e["frequency_ghz"]), int(e["count"])) for e in spec["frequencies"]]
    freqs, counts = np.unique(rows.f, return_counts=True)
    if list(zip(freqs.tolist(), counts.tolist())) != sorted(want):
        errors.append(f"{cmd.target}: per-frequency counts differ from the spec")
    lo, hi = DISTANCE_RANGE
    if len(rows) and not (rows.d.min() >= lo and rows.d.max() <= hi):
        errors.append(f"{cmd.target}: distances outside {lo}-{hi} m")
    if set(rows.group) != {f"synthetic|{spec['environment']}|{spec['scenario']}"}:
        errors.append(f"{cmd.target}: unexpected campaign/environment/scenario labels")
    return errors


def check_preprocess(cmd: Command, root: Path, _grid_oracle: bool) -> list[str]:
    want = _conditioned_input(cmd, root)
    got = read_rows(root / cmd.target)
    if len(got) != len(want):
        return [f"{cmd.target}: {len(got)} rows, expected {len(want)}"]
    same = (np.array_equal(got.f, want.f) and np.array_equal(got.group, want.group)
            and np.allclose(got.d, want.d, rtol=0.0, atol=CONDITIONED_ATOL)
            and np.allclose(got.pl, want.pl, rtol=0.0, atol=CONDITIONED_ATOL))
    return [] if same else [f"{cmd.target}: conditioned rows differ from the reference"]


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def check_fit(cmd: Command, root: Path, grid_oracle: bool) -> list[str]:
    doc = json.loads((root / cmd.target / "fit_report.json").read_text(encoding="utf-8"))
    rows = _conditioned_input(cmd, root)
    n = len(rows)
    errors = []
    if doc["preprocess"]["n_output"] != n:
        errors.append(f"fit: {doc['preprocess']['n_output']} conditioned samples, expected {n}")
    if sorted(doc["models"]) != sorted(MODELS):
        errors.append(f"fit: models {sorted(doc['models'])}, expected {sorted(MODELS)}")
    ds = rows.dataset()
    for kind, model in sorted(doc["models"].items()):
        params = model["params"]
        if model["n_points"] != n or len(model["residuals_db"]) != n:
            errors.append(f"fit {kind}: residual count differs from {n}")
        if kind in ("abg", "ab", "cif"):
            oracle = param_values(oracle_fit(ds, params["kind"],
                                             f0=params.get("f0", "auto")).params)
            for name, want in oracle.items():
                if not _close(params[name], want, LINEAR_RTOL):
                    errors.append(f"fit {kind}.{name} = {params[name]!r}, oracle {want!r}")
        elif kind == "ci":
            want = ci_slope_lstsq(ds)
            if not abs(params["n"] - want) <= CI_ATOL:
                errors.append(f"fit ci.n = {params['n']!r}, lstsq {want!r}")
        elif kind == "ci_opt" and grid_oracle:
            grid = oracle_fit(ds, "ci_opt", d0_grid=(0.1, 50.0, 0.01))
            if not model["sigma_db"] <= grid.sigma + CI_OPT_SIGMA_ATOL:
                errors.append(f"fit ci_opt sigma {model['sigma_db']!r} above "
                              f"grid oracle {grid.sigma!r}")
    return errors


def check_sweep(cmd: Command, root: Path, _grid_oracle: bool) -> list[str]:
    doc = json.loads((root / cmd.target / "sweep_report.json").read_text(encoding="utf-8"))
    rows = _conditioned_input(cmd, root)
    errors = []
    if doc["preprocess"]["n_output"] != len(rows):
        errors.append(f"{cmd.target}: {doc['preprocess']['n_output']} conditioned "
                      f"samples, expected {len(rows)}")
    if doc["models"] != list(MODELS):
        errors.append(f"{cmd.target}: models {doc['models']}, expected {list(MODELS)}")
    if cmd.split == "distance-close":
        points = cmd.grid or CLOSE_DEFAULT_GRID
        if doc["split"].get("d_max") != CLOSE_D_MAX:
            errors.append(f"{cmd.target}: d_max {doc['split'].get('d_max')}, "
                          f"expected {CLOSE_D_MAX}")
        prediction = rows.d <= CLOSE_D_MAX
        masks = [(rows.d > CLOSE_D_MAX + p, prediction) for p in points]
    else:
        points = tuple(np.unique(rows.f).tolist())
        masks = [(rows.f != p, rows.f == p) for p in points]
    got_points = [p["point"] for p in doc["points"]]
    if got_points != list(points):
        return errors + [f"{cmd.target}: sweep points {got_points[:5]}..., "
                         f"expected {list(points)[:5]}..."]
    for point, (measurement, prediction) in zip(doc["points"], masks):
        n_meas, n_pred = int(measurement.sum()), int(prediction.sum())
        want = (n_meas, n_pred, len(rows) - n_meas - n_pred)
        got = (point["n_meas"], point["n_pred"], point["n_gap"])
        if got != want:
            errors.append(f"{cmd.target} point {point['point']}: "
                          f"(n_meas, n_pred, n_gap) {got}, expected {want}")
    return errors


CHECKS = {"generate": check_generate, "preprocess": check_preprocess,
          "fit": check_fit, "sweep": check_sweep}


def check_command(cmd: Command, root: Path, grid_oracle: bool) -> list[str]:
    """Errors in ``cmd``'s outputs under ``root``; a crash in a check is an error too."""
    try:
        return CHECKS[cmd.verb](cmd, root, grid_oracle)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return [f"{cmd.verb} {cmd.target}: output unreadable ({type(exc).__name__}: {exc})"]
