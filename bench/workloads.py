"""The benchmark's workloads: seeded UMa campaign inputs and the CLI commands a job runs.

Every workload starts from the README's UMa spec (CI truth n=2.9, sigma 5.7 dB,
60-1238 m, 583/581/468/225/12 samples at 2/10/18/28/38 GHz) with the
per-frequency counts multiplied by the workload's factor. Every fit and sweep
asks for all five models.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 20160505
UMA_COUNTS = ((2, 583), (10, 581), (18, 468), (28, 225), (38, 12))
UMA_SAMPLES = sum(count for _, count in UMA_COUNTS)
DISTANCE_RANGE = (60.0, 1238.0)
MODELS = ("abg", "ab", "ci", "ci_opt", "cif")
SPEC = "spec.json"

# The CLI's distance-close defaults: the checks hold the program to them.
CLOSE_D_MAX = 200.0
CLOSE_DEFAULT_GRID = tuple(50.0 * k for k in range(13))
DENSE_GRID = tuple(5.0 * k for k in range(121))

_FIT_SPANS = frozenset({"fitters.fit_with_reversion", "fitters.design",
                        "domain.from_residuals", "domain.arrays", "domain.evaluate",
                        *(f"fitters.fit_{m}" for m in MODELS)})
_SWEEP_SPANS = frozenset({"sensitivity.run_sweep", "sensitivity.split",
                          "sensitivity.prediction_sigma", "sensitivity.parameter_trace"})


@dataclass(frozen=True)
class Command:
    """One CLI command; paths are relative to the workload's directory."""

    verb: str                 # generate | preprocess | fit | sweep
    source: str               # spec JSON (generate) or input CSV
    target: str               # output CSV (generate, preprocess) or report directory
    threshold: bool = True
    binning: bool = True
    split: str = ""           # sweep only: distance-close | frequency-loo
    grid: tuple[float, ...] = ()   # sweep delta grid; empty means the CLI default

    def argv(self) -> list[str]:
        if self.verb == "generate":
            return ["generate", "--spec", self.source, "--out", self.target]
        flags = ((["--no-threshold"] if not self.threshold else [])
                 + (["--no-binning"] if not self.binning else []))
        if self.verb == "preprocess":
            return ["preprocess", "--input", self.source, "--out", self.target, *flags]
        argv = [self.verb, "--input", self.source, "--out-dir", self.target,
                "--models", ",".join(MODELS), *flags]
        if self.verb == "sweep":
            argv += ["--split", self.split]
            if self.grid:
                argv += ["--delta-grid", ",".join(f"{g:g}" for g in self.grid)]
        return argv

    def outputs(self) -> tuple[str, ...]:
        if self.verb in ("generate", "preprocess"):
            return (self.target,)
        names = (("fit_report.json", "model_curves.csv") if self.verb == "fit"
                 else ("sweep_report.json", "sweep_trace.csv"))
        return tuple(f"{self.target}/{name}" for name in names)

    def reports(self) -> tuple[str, ...]:
        """Report files, as opposed to the CSV datasets written by ingest."""
        return () if self.verb in ("generate", "preprocess") else self.outputs()

    def spans(self) -> frozenset[str]:
        """Spans that this command must record when traced."""
        if self.verb == "generate":
            return frozenset({"ingest.generate", "ingest.write_csv", "domain.evaluate"})
        loaded = {"ingest.load_csv", "preprocess.apply"}
        if self.threshold:
            loaded.add("preprocess.threshold")
        if self.binning:
            loaded.add("preprocess.bin_by_distance")
        if self.verb == "preprocess":
            return frozenset(loaded | {"ingest.write_csv"})
        if self.verb == "fit":
            return frozenset(loaded | _FIT_SPANS)
        return frozenset(loaded | _FIT_SPANS | _SWEEP_SPANS)


@dataclass(frozen=True)
class Workload:
    name: str
    factor: int                       # per-frequency count multiplier
    setup: tuple[Command, ...]        # builds the inputs once, before timing
    job: tuple[Command, ...]          # one timed job
    grid_oracle: bool = False         # check CI-opt against the d0 grid oracle

    def spans(self) -> frozenset[str]:
        return frozenset({"cli.main"}).union(*(cmd.spans() for cmd in self.job))


def _sweeps(source: str, **flags) -> tuple[Command, Command]:
    return (Command("sweep", source, "sweep-close", split="distance-close", **flags),
            Command("sweep", source, "sweep-loo", split="frequency-loo", **flags))


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign", 1, setup=(), grid_oracle=True, job=(
            Command("generate", SPEC, "raw.csv"),
            Command("preprocess", "raw.csv", "cond.csv"),
            Command("fit", "cond.csv", "fit"),
            *_sweeps("cond.csv"))),
        Workload("raw-fit-18k", 10, setup=(), job=(
            Command("generate", SPEC, "raw.csv"),
            Command("fit", "raw.csv", "fit", binning=False))),
        Workload("dense-sweep", 5, setup=(
            Command("generate", SPEC, "raw.csv"),
            Command("preprocess", "raw.csv", "cond.csv", binning=False)),
            job=_sweeps("cond.csv", threshold=False, binning=False, grid=DENSE_GRID)),
    )
}


def spec_dict(seed: int, factor: int) -> dict:
    return {
        "truth": {"kind": "ci", "n": 2.9},
        "sigma": 5.7,
        "seed": seed,
        "frequencies": [{"frequency_ghz": f, "count": c * factor} for f, c in UMA_COUNTS],
        "distance_range": list(DISTANCE_RANGE),
        "scenario": "UMa",
        "environment": "NLOS",
    }


def load_cli():
    """Import ``pathlossfit.cli`` from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "pathlossfit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no pathlossfit sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pathlossfit.cli as cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported pathlossfit from {cli.__file__}, not {package}")
    return cli


@contextmanager
def inside(directory: Path):
    """Run with ``directory`` as the working directory, so CLI paths stay relative."""
    previous = Path.cwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def build_inputs(cli, workload: Workload, seed: int, factor: int, directory: Path) -> None:
    """Write the seeded spec, then run the workload's set-up commands."""
    directory.mkdir(parents=True)
    (directory / SPEC).write_text(json.dumps(spec_dict(seed, factor)), encoding="utf-8")
    with inside(directory):
        for cmd in workload.setup:
            code = cli.main(cmd.argv())
            if code != 0:
                raise SystemExit(f"error: set-up command {cmd.argv()} exited {code}")
