"""Time every layer and every CLI command at three sizes of the benchmark's campaign.

    python3 tools/tiers.py --out BENCH_<n>.json [--factors 1,50,535] [--repeats 5]

Each tier is the benchmark's UMa spec (``bench/workloads.spec_dict``: CI truth
n 2.9, sigma 5.7 dB, 60-1238 m, 1,869 samples at 2-38 GHz) with each count
multiplied by the factor: 1,869, 93,450 and 999,915 samples at factors 1, 50
and 535.

In process, with this checkout's ``src/`` first on the import path, each
layer runs ``--repeats`` times on the tier's data: generate, CSV write and
load, threshold, binning, the design and its moment record, each estimator on
a dataset whose design and record are built, all five estimators on a dataset
that builds them again, the three sweep kinds (a 121-point and a 601-point
distance-close grid at d_max 200 m, the default distance-far grid and the
frequency hold-out over every frequency, all five models) and the five-model
fit report as JSON text. Its entry gives the median wall time and every run's.

Each CLI command (``generate``, ``preprocess`` with its defaults, and ``fit``
and the three sweeps with all five models and ``--no-binning``) runs
``--repeats`` times, each in a fresh process that times its ``cli.main`` call
and reports its own peak resident set (Linux's VmHWM: ``ru_maxrss`` would
carry this tool's peak into the process it spawns). Its entry gives the
medians of both, and every run's, since the heap's layout alone moves one
process's peak by a few percent.

The host's speed drifts, so ``bench/calibrate.py`` reads it (the median
time of three runs of its kernel) before each entry and after the last. An
entry's ``scaled_s`` is its median wall time scaled to the kernel's reference
host by the median of the four readings nearest it, as the benchmark scales
its jobs. The file also names the host (CPU model, vCPUs, Python, numpy,
orjson) and the repeat count, so that a later file from another host can
tell drift from change.
"""

from __future__ import annotations

import os

# BLAS at one thread, as in the benchmark; set before numpy is imported
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import orjson  # noqa: E402

import calibrate  # noqa: E402
from workloads import DEFAULT_SEED, DENSE_GRID, MODELS, spec_dict  # noqa: E402
from pathlossfit import cli, ingest, sensitivity  # noqa: E402
from pathlossfit.fitters import Moments, RegressionDesign, fit_with_reversion  # noqa: E402
from pathlossfit.preprocess import PreprocessSettings, bin_by_distance, threshold  # noqa: E402

FACTORS = (1, 50, 535)
CLOSE_D_MAX = 200.0
WIDE_GRID = tuple(float(k) for k in range(601))  # 601 points, 1 m apart
SPEC, CSV = "spec.json", "raw.csv"
ALL_MODELS = ("--models", ",".join(MODELS), "--no-binning")
COMMANDS = {
    "generate": ("generate", "--spec", SPEC, "--out", CSV),
    "preprocess": ("preprocess", "--input", CSV, "--out", "preprocessed.csv"),
    "fit": ("fit", "--input", CSV, "--out-dir", "fit", *ALL_MODELS),
    **{f"sweep_{split}": ("sweep", "--input", CSV, "--out-dir", split, *ALL_MODELS,
                          "--split", split)
       for split in ("distance-close", "distance-far", "frequency-loo")},
}
# One CLI command in a fresh process: its exit code, cli.main's wall
# seconds and the process's peak resident set in KiB. That peak is VmHWM, the
# high-water mark of the process's own memory: Linux starts ru_maxrss at the
# peak of the process that spawned it, so here it would read this tool's.
CHILD = """import json, sys, time
sys.path.insert(0, sys.argv[1])
from pathlossfit import cli
started = time.perf_counter()
code = cli.main(sys.argv[2:])
wall = time.perf_counter() - started
with open("/proc/self/status", encoding="ascii") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps([code, wall, peak]))
"""


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "vcpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "orjson": orjson.__version__}


def timed(work, repeats: int) -> list[float]:
    runs = []
    for _ in range(repeats):
        started = perf_counter()
        work()
        runs.append(perf_counter() - started)
    return runs


def fresh_fits(ds) -> list:
    """All five fits of ``ds`` after dropping its cached design and moment
    record, so that the first fit builds them again."""
    vars(ds).pop("design", None)
    vars(ds).pop("moments", None)
    return [fit_with_reversion(ds, kind) for kind in MODELS]


def layer_work(factor: int, work: Path) -> tuple[int, dict]:
    """The tier's sample count, and each layer's call on its data."""
    spec = ingest.spec_from_dict(spec_dict(DEFAULT_SEED, factor))
    ds = ingest.generate(spec)
    path = work / "layer.csv"
    ingest.write_csv(ds, path)
    settings = PreprocessSettings()
    fits = {kind: fit_with_reversion(ds, kind) for kind in MODELS}  # caches ds.design
    models = {"models": {kind: cli._fit_report_dict(report) for kind, report in fits.items()}}
    close = sensitivity.DistanceClose(d_max=CLOSE_D_MAX, delta_grid=DENSE_GRID)
    wide = sensitivity.DistanceClose(d_max=CLOSE_D_MAX, delta_grid=WIDE_GRID)
    return len(ds), {
        "generate": lambda: ingest.generate(spec),
        "write_csv": lambda: ingest.write_csv(ds, path),
        "load_csv": lambda: ingest.load_csv(path),
        "threshold": lambda: threshold(ds, settings),
        "bin_by_distance": lambda: bin_by_distance(ds, settings),
        "design": lambda: RegressionDesign.from_dataset(ds),
        "moments": lambda: Moments.of(ds.design, ds.frequency, ds.frequencies),
        **{f"fit_{kind}": (lambda kind=kind: fit_with_reversion(ds, kind)) for kind in MODELS},
        "five_fits_fresh": lambda: fresh_fits(ds),
        "sweep_close_121": lambda: sensitivity.run_sweep(ds, close, MODELS),
        "sweep_close_601": lambda: sensitivity.run_sweep(ds, wide, MODELS),
        "sweep_far": lambda: sensitivity.run_sweep(ds, sensitivity.DistanceFar(), MODELS),
        "sweep_frequency_loo": lambda: sensitivity.run_sweep(
            ds, sensitivity.FrequencyLOO(), MODELS),
        "fit_report_text": lambda: b"".join(cli._json_pieces(models)),
    }


def run_command(argv: tuple[str, ...], work: Path) -> tuple[float, float]:
    """cli.main's wall seconds and the process's peak MB for ``argv`` run in ``work``."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv], cwd=work,
                          capture_output=True, text=True, check=True)
    code, wall, peak_kib = json.loads(done.stdout.splitlines()[-1])
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}: {done.stderr.strip()}")
    return wall, peak_kib / 1024.0


def entry(runs: list[float], readings: list[float], index: int) -> dict:
    """The median of ``runs``, raw and scaled by the readings around entry ``index``."""
    raw = statistics.median(runs)
    return {"raw_s": raw, "scaled_s": calibrate.scaled(raw, readings, index), "raw_runs_s": runs}


def tier(factor: int, repeats: int, work: Path) -> dict:
    """Every layer's and command's entry at one factor."""
    readings, layers, commands = [], {}, {}
    samples, calls = layer_work(factor, work)
    for name, call in calls.items():
        readings.append(calibrate.kernel_seconds())
        layers[name] = timed(call, repeats)
    del calls
    (work / SPEC).write_text(json.dumps(spec_dict(DEFAULT_SEED, factor)), encoding="utf-8")
    for name, argv in COMMANDS.items():
        readings.append(calibrate.kernel_seconds())
        commands[name] = [run_command(argv, work) for _ in range(repeats)]
    readings.append(calibrate.kernel_seconds())
    return {
        "factor": factor, "samples": samples, "kernel_s": readings,
        "layers": {name: entry(runs, readings, i) for i, (name, runs) in enumerate(layers.items())},
        "cli": {name: {**entry([wall for wall, _ in runs], readings, len(layers) + i),
                       "argv": list(COMMANDS[name]),
                       "peak_mb": statistics.median(peak for _, peak in runs),
                       "peak_runs_mb": [peak for _, peak in runs]}
                for i, (name, runs) in enumerate(commands.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--factors", default=",".join(map(str, FACTORS)),
                        help="comma-separated count multipliers (default 1,50,535)")
    parser.add_argument("--repeats", type=int, default=5, help="runs per entry (default 5)")
    args = parser.parse_args(argv)
    doc = {"host": host(), "repeats": args.repeats, "seed": DEFAULT_SEED,
           "reference_s": calibrate.REFERENCE_S, "tiers": []}
    with tempfile.TemporaryDirectory() as tmp:
        for factor in map(int, args.factors.split(",")):
            work = Path(tmp) / f"x{factor}"
            work.mkdir()
            doc["tiers"].append(result := tier(factor, args.repeats, work))
            for name, item in (*result["layers"].items(), *result["cli"].items()):
                peak = f"  {item['peak_mb']:7.1f} MB" if "peak_mb" in item else ""
                print(f"{result['samples']:>9,} {name:<22} {item['raw_s'] * 1e3:10.2f} ms"
                      f" {item['scaled_s'] * 1e3:10.2f} scaled ms{peak}", flush=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
