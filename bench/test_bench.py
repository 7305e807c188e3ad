"""Self-tests of the benchmark: python3 -m pytest bench -q

The smoke and trace tests run every workload at the campaign's size
(factor 1) for the minimum number of jobs and check what the benchmark
prints, whatever the program does. The second-seed test runs every workload
at its own size on a seed other than the default, and requires every output
check to pass there too.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from calibrate import REFERENCE_S, scaled
from tracer import TraceError, Tracer, summarize
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, load_cli

SECOND_SEED = 7


def _printed(result: dict, capsys) -> tuple[int, list[str], dict]:
    status = run._print_result(result, {"commit": "test"})
    lines = capsys.readouterr().out.strip().splitlines()
    return status, lines, json.loads(lines[-1])


def _assert_every_metric_printed(group: str, lines: list[str], last: dict) -> None:
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())[group]}
    assert set(last["metrics"]) == set(specs)
    for name, spec in specs.items():
        assert last["metrics"][name]["unit"] == spec["unit"]
        assert any(line.split()[:1] == [name] and spec["unit"] in line.split()
                   for line in lines), name


def _assert_accounted(result: dict, status: int, last: dict) -> None:
    assert last["attempted"] == result["attempted"]
    assert last["failed"] == len(result["failures"])
    assert last["correct"] is (last["failed"] == 0)
    assert status == (0 if last["correct"] else 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(name, capsys):
    result = run.run(name, DEFAULT_SEED, seconds=0, trace=False, factor=1)
    assert result["jobs"] == run.MIN_JOBS
    # one more job than timed: the warm-up is run and checked, not timed
    assert result["attempted"] == (run.MIN_JOBS + 1) * len(WORKLOADS[name].job)
    status, lines, last = _printed(result, capsys)
    _assert_accounted(result, status, last)
    _assert_every_metric_printed("end_to_end", lines, last)
    assert all(last["metrics"][m]["value"] > 0 for m in last["metrics"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_records_every_span(name, capsys):
    result = run.run(name, DEFAULT_SEED, seconds=0, trace=True, factor=1)
    assert result["traced_jobs"] == run.MIN_TRACED
    for span in WORKLOADS[name].spans():
        assert result["span_calls"][span] > 0, span
    status, lines, last = _printed(result, capsys)
    _assert_accounted(result, status, last)
    _assert_every_metric_printed("per_layer", lines, last)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_checks_pass_on_a_second_seed(name):
    result = run.run(name, SECOND_SEED, seconds=0, trace=False)
    assert result["failures"] == []
    assert result["metrics"]["ok_ratio"] == 1.0


def test_perturbed_parameter_fails_the_check(monkeypatch, capsys):
    cli = load_cli()
    original = cli.main

    def perturbing_main(argv):
        code = original(argv)
        if argv[0] == "fit":
            report = Path(argv[argv.index("--out-dir") + 1]) / "fit_report.json"
            doc = json.loads(report.read_text())
            doc["models"]["abg"]["params"]["alpha"] *= 1 + 1e-6
            report.write_text(json.dumps(doc))
        return code

    monkeypatch.setattr(cli, "main", perturbing_main)
    result = run.run("raw-fit-18k", SECOND_SEED, seconds=0, trace=False, factor=1)
    fits = result["jobs"] + 1   # the warm-up job's fit is checked too
    assert result["failed"] == fits
    assert all("abg.alpha" in failure for failure in result["failures"])
    status, _, last = _printed(result, capsys)
    assert status == 1
    assert last["correct"] is False
    assert last["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - fits / last["attempted"])


def test_wrappers_replace_every_binding_and_are_removed():
    load_cli()
    cli = importlib.import_module("pathlossfit.cli")
    sensitivity = importlib.import_module("pathlossfit.sensitivity")
    fitters = importlib.import_module("pathlossfit.fitters")
    original = fitters.fit_with_reversion
    tracer = Tracer()
    with tracer.recording(0):
        for module in (cli, sensitivity, fitters):
            assert module.fit_with_reversion.__wrapped__ is original
        assert callable(importlib.import_module("pathlossfit.preprocess").threshold.__wrapped__)
    assert cli.fit_with_reversion is sensitivity.fit_with_reversion is original


def test_scaling_ignores_one_blipped_reading():
    readings = [0.05, 0.05, 0.5, 0.05, 0.05]
    # the work between readings 1 and 2 is scaled by the median of readings 0-3
    assert scaled(2.0, readings, 1) == pytest.approx(2.0 * REFERENCE_S / 0.05)
    assert scaled(2.0, [0.1, 0.1], 0) == pytest.approx(2.0 * REFERENCE_S / 0.1)


def test_required_span_without_calls_fails():
    with pytest.raises(TraceError, match="cli.main"):
        summarize(Tracer(), [(1, 1.0, 0, 1.0)], [1.0], frozenset({"cli.main"}))


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "campaign",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
