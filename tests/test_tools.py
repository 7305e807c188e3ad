"""The command-line tools under ``tools/``."""

import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from pathlossfit import cli

ROOT = Path(__file__).resolve().parent.parent


def body(function) -> set[int]:
    """The line numbers of ``function``'s body, less its first line."""
    source, first = inspect.getsourcelines(function)
    return set(range(first + 1, first + len(source)))


def test_line_coverage_of_the_cli_matrix_lists_what_no_command_reaches():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "line_coverage.py"),
                           "--cli", "7"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].startswith("never run: cli ")
    listed = {int(match[1]) for line in lines
              if (match := re.match(r"src/pathlossfit/cli\.py:(\d+): ", line))}
    assert listed  # the error branches that the matrix does not take
    assert not listed & (body(cli.cmd_fspl) | body(cli.cmd_generate))


def keys(tier: dict) -> tuple:
    """The names in one tier of a tiers.py file, to the entries' fields."""
    return (tuple(tier), {section: {name: tuple(entry) for name, entry in tier[section].items()}
                          for section in ("layers", "cli")})


def test_the_tier_tool_times_every_layer_and_command_at_the_smallest_tier(tmp_path):
    out = tmp_path / "BENCH.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "tiers.py"), "--out", str(out),
                           "--factors", "1", "--repeats", "1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert list(doc) == ["host", "repeats", "seed", "reference_s", "tiers"]
    assert list(doc["host"]) == ["cpu", "vcpus", "python", "numpy", "orjson"]
    (tier,) = doc["tiers"]
    assert (tier["factor"], tier["samples"], doc["repeats"]) == (1, 1869, 1)
    layer = ("raw_s", "scaled_s", "raw_runs_s")
    command = (*layer, "argv", "peak_mb", "peak_runs_mb")
    assert keys(tier) == (
        ("factor", "samples", "kernel_s", "layers", "cli"),
        {"layers": {name: layer for name in (
            "generate", "write_csv", "load_csv", "threshold", "bin_by_distance", "design",
            "moments", "fit_abg", "fit_ab", "fit_ci", "fit_ci_opt", "fit_cif",
            "five_fits_fresh", "sweep_close_121", "sweep_close_601", "sweep_far",
            "sweep_frequency_loo", "fit_report_text")},
         "cli": {name: command for name in (
             "generate", "preprocess", "fit", "sweep_distance-close", "sweep_distance-far",
             "sweep_frequency-loo")}})
    assert all(entry["scaled_s"] > 0 and entry["raw_runs_s"] == [entry["raw_s"]]
               for section in ("layers", "cli") for entry in tier[section].values())
    # the committed trajectory file holds the same entries at all three tiers
    committed = json.loads((ROOT / "BENCH_1.json").read_text(encoding="utf-8"))
    assert list(committed) == list(doc) and list(committed["host"]) == list(doc["host"])
    assert [(t["factor"], t["samples"]) for t in committed["tiers"]] == [
        (1, 1869), (50, 93450), (535, 999915)]
    assert all(keys(t) == keys(tier) for t in committed["tiers"])


def test_a_command_run_on_a_checkout_writes_no_bytecode_into_it(tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from output_digests import in_subprocess
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    done = in_subprocess(src, tmp_path)(("fspl", "28", "100"))
    assert done.returncode == 0, done.stderr
    assert not list(src.rglob("__pycache__"))
