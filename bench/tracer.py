"""Spans around the calls into each pathlossfit module, recorded from outside the package.

A span has a name, start, end, parent span and job id. Spans live in memory
while the run lasts and are written out when it ends. Wrappers replace every
binding of a function inside the package (``fit_with_reversion`` is looked up
in ``cli``, ``sensitivity`` and ``fitters``), so a call is traced whichever
name the caller used. ``fspl`` has no span: ``threshold`` calls it once per
sample, and a span there would measure the tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _rows_out(counter, args, result):
    counter["rows"] += len(result)


def _rows_in(counter, args, result):
    counter["rows"] += len(args[0])


def _kept(counter, args, result):
    counter["kept"] += len(result.dataset)
    counter["offered"] += result.n_input


def _reverted(counter, args, result):
    from pathlossfit.fitters import FLAG_ABG_AS_AB, FLAG_CIF_SINGLE_FREQUENCY
    counter["reverted"] += bool({FLAG_ABG_AS_AB, FLAG_CIF_SINGLE_FREQUENCY} & set(result.flags))


def _points(counter, args, result):
    counter["points"] += len(result.points)
    counter["active"] += len(result.active_points())


# (span, module under pathlossfit, attribute, counter hook)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("ingest.load_csv", "ingest", "load_csv", _rows_out),
    ("ingest.generate", "ingest", "generate", _rows_out),
    ("ingest.write_csv", "ingest", "write_csv", _rows_in),
    ("preprocess.apply", "preprocess", "apply", _kept),
    ("preprocess.threshold", "preprocess", "threshold", None),
    ("preprocess.bin_by_distance", "preprocess", "bin_by_distance", None),
    ("domain.arrays", "domain", "Dataset.arrays", None),
    ("domain.from_residuals", "domain", "FitReport.from_residuals", None),
    ("domain.evaluate", "domain", "evaluate", None),
    ("fitters.design", "fitters", "RegressionDesign.from_dataset", None),
    ("fitters.fit_with_reversion", "fitters", "fit_with_reversion", _reverted),
    ("fitters.fit_abg", "fitters", "fit_abg", None),
    ("fitters.fit_ab", "fitters", "fit_ab", None),
    ("fitters.fit_ci", "fitters", "fit_ci", None),
    ("fitters.fit_ci_opt", "fitters", "fit_ci_opt", None),
    ("fitters.fit_cif", "fitters", "fit_cif", None),
    ("sensitivity.run_sweep", "sensitivity", "run_sweep", _points),
    ("sensitivity.split", "sensitivity", "split", None),
    ("sensitivity.prediction_sigma", "sensitivity", "prediction_sigma", None),
    ("sensitivity.parameter_trace", "sensitivity", "parameter_trace", None),
)

# per-layer metric -> the span whose self time it reports
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "ingest.load_csv_s": "ingest.load_csv",
    "ingest.generate_s": "ingest.generate",
    "ingest.write_csv_s": "ingest.write_csv",
    "preprocess.threshold_s": "preprocess.threshold",
    "preprocess.bin_s": "preprocess.bin_by_distance",
    "domain.arrays_s": "domain.arrays",
    "domain.fit_report_s": "domain.from_residuals",
    "domain.evaluate_s": "domain.evaluate",
    "fitters.design_s": "fitters.design",
    "fitters.self_s": "fitters.fit_with_reversion",
    "fitters.fit_abg_s": "fitters.fit_abg",
    "fitters.fit_ab_s": "fitters.fit_ab",
    "fitters.fit_ci_s": "fitters.fit_ci",
    "fitters.fit_ci_opt_s": "fitters.fit_ci_opt",
    "fitters.fit_cif_s": "fitters.fit_cif",
    "sensitivity.split_s": "sensitivity.split",
    "sensitivity.score_s": "sensitivity.prediction_sigma",
    "sensitivity.self_s": "sensitivity.run_sweep",
    "sensitivity.trace_s": "sensitivity.parameter_trace",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class TraceError(RuntimeError):
    """A wrapper could not be installed, or a required span recorded no calls."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []    # [name, start, end, parent, job, child seconds]
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._job: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent, self._job, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][5] += span[2] - span[1]
            if hook is not None:
                hook(self.counters[self._job], args, result)
            return result
        return traced

    def _install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "pathlossfit" or name.startswith("pathlossfit.")]
        for span, module_name, attribute, hook in TARGETS:
            module = importlib.import_module(f"pathlossfit.{module_name}")
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[member]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__, hook))
                else:
                    wrapped = self._wrap(span, raw, hook)
                self._restore.append((owner, member, raw))
                setattr(owner, member, wrapped)
                continue
            original = vars(module).get(member)
            if not callable(original):
                raise TraceError(f"pathlossfit.{module_name} has no function {member}")
            wrapped = self._wrap(span, original, hook)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def _uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    @contextmanager
    def recording(self, job: int):
        """Trace every call made inside the block as part of ``job``."""
        self._install()
        self._job = job
        try:
            yield
        finally:
            self._job = None
            self._uninstall()

    def job_metrics(self, job: int, wall: float, bytes_written: int,
                    scale: float = 1.0) -> tuple[dict, Counter]:
        """Per-layer metrics of one traced job, and its call count per span.

        Times are multiplied by ``scale``, the job's factor to reference seconds.
        """
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top_level = 0.0
        for name, start, end, parent, span_job, child in self.spans:
            if span_job != job:
                continue
            self_s[name] += end - start - child
            calls[name] += 1
            if parent is None:
                top_level += end - start
        counter = self.counters[job]
        metrics = {metric: self_s[span] * scale for metric, span in SELF_TIMES.items()}
        fits = calls["fitters.fit_with_reversion"]
        metrics.update({
            "cli.bytes_written": bytes_written,
            "ingest.rows": counter["rows"],
            "preprocess.kept_ratio": _ratio(counter["kept"], counter["offered"]),
            "fitters.fits": fits,
            "fitters.reverted_ratio": _ratio(counter["reverted"], fits),
            "sensitivity.points": counter["points"],
            "sensitivity.active_ratio": _ratio(counter["active"], counter["points"]),
            "trace.unattributed_s": (wall - top_level) * scale,
        })
        return metrics, calls

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "job")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(tracer: Tracer, traced: list[tuple[int, float, int, float]],
              untraced_walls: list[float], required: frozenset[str]) -> tuple[dict, Counter]:
    """Median of each per-layer metric over the traced jobs, plus the tracing overhead.

    ``traced`` holds (job id, wall seconds, report bytes, scale to reference
    seconds) per traced job; ``untraced_walls`` are already scaled. Fails if a
    span in ``required`` recorded no calls in some traced job.
    """
    per_job = []
    total_calls: Counter = Counter()
    for job, wall, bytes_written, scale in traced:
        metrics, calls = tracer.job_metrics(job, wall, bytes_written, scale)
        missing = sorted(span for span in required if calls[span] == 0)
        if missing:
            raise TraceError(f"job {job} recorded no calls for {', '.join(missing)}")
        per_job.append(metrics)
        total_calls.update(calls)
    summary = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    summary["trace.overhead_s"] = (statistics.median(wall * scale for _, wall, _, scale in traced)
                                   - statistics.median(untraced_walls))
    return summary, total_calls
