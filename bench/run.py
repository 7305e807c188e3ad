"""pathlossfit benchmark: times whole CLI jobs end to end, or traces them per module.

    python3 bench/run.py --workload campaign --seed 20160505 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, each in its own process

One process runs one workload, closed loop with one client: each job calls
``pathlossfit.cli.main`` in-process, command after command, exactly as a user
runs the CLI, and the next job starts when the last one ends. Set-up (fresh
processes that import the package and build the seeded inputs) and the output
checks run outside the timed window. The first job warms the process up and is
checked but not timed. A calibration kernel (``calibrate.py``) runs before and
after every set-up and every job, and inside a job after each second or more of
its commands. Each time is reported scaled to a reference host speed, so that
the shared host's drifting CPU speed does not show as a change of the program.
With ``--trace 0`` nothing is wrapped and
the run prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced jobs and prints the per-layer metrics. The last line of
standard output is the result as one JSON object. Metric names and units come
from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import os

# One client and no helper threads: BLAS may use one thread, well under nproc.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _variable in BLAS_THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from calibrate import REFERENCE_S, kernel, kernel_seconds, scaled  # noqa: E402
from workloads import (DEFAULT_SEED, ROOT, SRC, UMA_SAMPLES, WORKLOADS,  # noqa: E402
                       Workload, inside, load_cli)

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

SETUPS = 7          # set-ups per run; setup_s is their median
MIN_JOBS = 11       # timed jobs, so that a tail percentile with ten jobs beyond it exists
MIN_TRACED = 3      # traced jobs per --trace 1 run, each next to an untraced one
TAIL_BEYOND = 10
READING_EVERY_S = 1.0   # longest stretch of a job's commands between host-speed readings
SETUP_TIMEOUT_S = 120


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARIABLES},
    }


def _metric_specs() -> dict[str, dict[str, dict]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {group: {m["name"]: m for m in doc[group]} for group in ("end_to_end", "per_layer")}


def _measure_setups(workload: Workload, seed: int, factor: int,
                    work: Path) -> tuple[list[float], list[float], Path]:
    """Build the inputs SETUPS times, each in a fresh process; keep the last copy.

    Returns the wall times, the same times scaled to the reference host, and
    the inputs' directory.
    """
    times, kernels = [], [kernel_seconds()]
    for k in range(SETUPS):
        target = work / f"setup{k}"
        started = perf_counter()
        done = subprocess.run([sys.executable, str(BENCH / "setup_inputs.py"), workload.name,
                               str(seed), str(factor), str(target)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - started)
        kernels.append(kernel_seconds())
        if done.returncode != 0:
            raise SystemExit(f"error: set-up failed ({done.returncode}): {done.stderr.strip()}")
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
    return times, [scaled(t, kernels, k) for k, t in enumerate(times)], target


def _run_command(cli, argv: list[str]) -> tuple[float, str | None]:
    """Run one CLI command; return its wall time and its error, or None."""
    captured = io.StringIO()
    started = perf_counter()
    with redirect_stderr(captured):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return perf_counter() - started, f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - started
    return wall, None if code == 0 else f"exit {code}: {captured.getvalue().strip()}"


def _run_job(cli, argvs: list[list[str]],
             readings: list[float]) -> tuple[list[tuple[float, int]], list[str | None]]:
    """Run one job's commands; return its stretches and an error (or None) per command.

    ``readings`` ends with a host-speed reading taken just before the job. A
    new one is appended after the job, and also after any command that ends a
    stretch of READING_EVERY_S of work, so that a long job is scaled piece by
    piece by the host's speed around each piece. A stretch is its wall seconds
    and the index of the reading just before it.
    """
    errors: list[str | None] = []
    stretches: list[tuple[float, int]] = []
    stretch = 0.0
    for i, argv in enumerate(argvs):
        seconds, error = _run_command(cli, argv)
        errors.append(error)
        stretch += seconds
        if i == len(argvs) - 1 or stretch >= READING_EVERY_S:
            stretches.append((stretch, len(readings) - 1))
            readings.append(kernel_seconds())
            stretch = 0.0
    return stretches, errors


def _digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes() if path.is_file() else b"\0missing\0")
    return digest.hexdigest()


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND jobs above it, and its value."""
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def run(name: str, seed: int, seconds: float, trace: bool, factor: int | None = None) -> dict:
    """Run one workload in this process and return the result, with its details."""
    cli = load_cli()
    import checks
    from tracer import Tracer, summarize

    workload = WORKLOADS[name]
    factor = workload.factor if factor is None else factor
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    kernel()  # its own first-call costs stay out of every kernel time
    try:
        setup_times, setup_scaled, inputs = _measure_setups(workload, seed, factor, work)
        reference = work / "reference"
        argvs = [cmd.argv() for cmd in workload.job]
        outputs = [[inputs / p for p in cmd.outputs()] for cmd in workload.job]
        reports = [inputs / p for cmd in workload.job for p in cmd.reports()]
        tracer = Tracer()
        jobs = []           # (stretches, per-command errors, per-command digests, traced)
        traced_jobs = []    # (job id, report bytes)
        readings = [kernel_seconds()]
        loop_started = perf_counter()
        with inside(inputs):
            while True:
                # job 0 is the warm-up; with --trace 1, odd jobs are traced
                enough = len(jobs) > (2 * MIN_TRACED if trace else MIN_JOBS)
                if enough and perf_counter() - loop_started >= seconds:
                    break
                job = len(jobs)
                traced = trace and job % 2 == 1
                if traced:
                    with tracer.recording(job):
                        stretches, errors = _run_job(cli, argvs, readings)
                    traced_jobs.append((job, sum(p.stat().st_size for p in reports
                                                 if p.is_file())))
                else:
                    stretches, errors = _run_job(cli, argvs, readings)
                jobs.append((stretches, errors, [_digest(paths) for paths in outputs], traced))
                if job == 0:
                    shutil.copytree(inputs, reference)
        # Read before the checks: the CI-opt grid oracle holds N x 5,000 floats.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Output checks, outside the timed window: the first job against
        # independent references, every later job byte for byte against the first.
        reference_errors = [checks.check_command(cmd, reference, workload.grid_oracle)
                            for cmd in workload.job]
        first_digests = jobs[0][2]
        failures = []
        for job, (_, errors, digests, _) in enumerate(jobs):
            for i, cmd in enumerate(workload.job):
                problems = ([errors[i]] if errors[i] else []) + reference_errors[i]
                if digests[i] != first_digests[i]:
                    problems.append("outputs differ from the first job's")
                if problems:
                    failures.append(f"job {job} {cmd.verb} {cmd.target}: {'; '.join(problems)}")
        attempted = len(jobs) * len(workload.job)

        # Job 0 is the warm-up: checked above, never timed.
        job_walls = [sum(seconds for seconds, _ in stretches) for stretches, *_ in jobs]
        job_scaled = [sum(scaled(seconds, readings, before) for seconds, before in stretches)
                      for stretches, *_ in jobs]
        timed = [j for j in range(1, len(jobs)) if not jobs[j][3]]
        walls = [job_walls[j] for j in timed]
        scaled_walls = [job_scaled[j] for j in timed]
        if trace:
            metrics, calls = summarize(
                tracer, [(job, job_walls[job], size, job_scaled[job] / job_walls[job])
                         for job, size in traced_jobs],
                scaled_walls, workload.spans())
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / f"spans-{name}-seed{seed}.jsonl")
            details = {"span_calls": dict(sorted(calls.items()))}
        else:
            percentile, tail = _tail(scaled_walls)
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "job_s_p50": statistics.median(scaled_walls),
                "job_s_tail": tail,
                "samples_per_s": UMA_SAMPLES * factor * len(walls) / sum(scaled_walls),
                "peak_rss_mb": peak_rss_mb,
                "ok_ratio": (attempted - len(failures)) / attempted,
            }
            details = {"tail_percentile": percentile, "setup_walls_s": setup_times,
                       "setup_scaled_s": setup_scaled}
        return {"workload": name, "seed": seed, "factor": factor, "trace": trace,
                "jobs": len(walls), "traced_jobs": len(traced_jobs),
                "attempted": attempted, "failed": len(failures), "failures": failures,
                "job_walls_s": walls, "job_scaled_s": scaled_walls,
                "readings_s": readings, "metrics": metrics, **details}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_result(result: dict, env: dict) -> int:
    specs = _metric_specs()["per_layer" if result["trace"] else "end_to_end"]
    missing = sorted(set(specs) ^ set(result["metrics"]))
    if missing:
        raise SystemExit(f"error: metrics not matching BENCHMARK.json: {missing}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {result['workload']} seed {result['seed']}: {result['jobs']} untraced "
          f"and {result['traced_jobs']} traced jobs after one warm-up job, "
          f"{result['attempted']} commands, {result['failed']} failed (failed_ratio "
          f"{result['failed'] / result['attempted']:.4f})")
    print(f"host speed: calibration kernel median {statistics.median(result['readings_s']):.4f} s "
          f"(reference {REFERENCE_S} s); median raw job wall "
          f"{statistics.median(result['job_walls_s']):.4f} s")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    notes = {"setup_s": f"median of {SETUPS} set-ups, scaled",
             "job_s_p50": f"{result['jobs']} jobs, scaled",
             "job_s_tail": f"p{result.get('tail_percentile', 0):.1f} of {result['jobs']} jobs, scaled",
             "samples_per_s": "over scaled job seconds"}
    for name, spec in specs.items():
        note = notes.get(name, "median of traced jobs" if result["trace"] else "")
        print(f"  {name:28s} {result['metrics'][name]:>14.6g} {spec['unit']:6s} {note}")
    if result["trace"]:
        print("  span calls over traced jobs: " + json.dumps(result["span_calls"]))
    RESULTS.mkdir(exist_ok=True)
    trace = int(result["trace"])
    (RESULTS / f"result-{result['workload']}-seed{result['seed']}-trace{trace}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": spec["unit"]}
                    for name, spec in specs.items()},
    }))
    return 0 if result["failed"] == 0 else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after the other."""
    status, results = 0, {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        status = max(status, done.returncode)
    print(json.dumps(results))
    return status


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure at least this long (and at least 11 jobs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    load_cli()  # fail before any work when the sources are missing
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    return _print_result(result, environment())


if __name__ == "__main__":
    sys.exit(main())
