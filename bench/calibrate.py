"""Host-speed calibration: a fixed kernel timed next to every measured piece of work.

The benchmark's host is shared, and its CPU speed drifts by up to 2x over tens
of seconds as other tenants come and go. A fixed job's wall time drifts with
it, so run-to-run medians of raw wall time differ by far more than any bound
worth keeping. The kernel below does the same kinds of work as the program
(frozen dataclass rows, CSV text out and back in, a small least-squares fit,
a JSON dump) but uses none of its code, so a change to the program cannot
change the kernel's time. Timing it just before and just after a piece of
work gives the host's speed during that work, and

    scaled seconds = wall seconds * REFERENCE_S / kernel seconds

is the work's time on a host where one kernel run takes REFERENCE_S. Every
timed end-to-end metric is reported in these scaled seconds; the raw wall
times are kept in the result file beside them.

One kernel run is too short to read the host's state reliably, so each
reading is the median of KERNEL_RUNS runs. A reading can still catch a blip
of a few hundred milliseconds that the work beside it did not see, so a piece
of work is scaled by the median of the four readings nearest it: two before
and two after. On a 2-vCPU shared host this cut the spread of 20-45 s run
medians of `raw-fit-18k` from 0.12-0.22 of the median (raw wall time) to
0.03-0.09 (scaled).
"""

from __future__ import annotations

import csv
import io
import json
import random
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

REFERENCE_S = 0.050   # kernel seconds on the reference host
ROWS = 2000
KERNEL_RUNS = 3
SPLITS = 80


@dataclass(frozen=True)
class _Row:
    frequency: float
    distance: float
    loss: float
    label: str


def kernel() -> int:
    """One fixed, deterministic unit of program-like work."""
    rng = random.Random(20160505)
    rows = [_Row(rng.choice((2.0, 10.0, 28.0)), 60.0 + 1178.0 * rng.random(),
                 100.0 + rng.gauss(0.0, 5.7), "UMa") for _ in range(ROWS)]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    for r in rows:
        writer.writerow([repr(r.frequency), repr(r.distance), repr(r.loss), r.label])
    back = [_Row(float(f), float(d), float(pl), label)
            for f, d, pl, label in csv.reader(io.StringIO(text.getvalue()))]
    x = np.array([(r.frequency, r.distance, r.loss) for r in back])
    design = np.column_stack([np.ones(ROWS), 10 * np.log10(x[:, 1]), 20 * np.log10(x[:, 0])])
    coef = np.linalg.lstsq(design, x[:, 2], rcond=None)[0]
    fitted = (design @ coef).tolist()
    size = len(json.dumps([{"d": r.distance, "pl": r.loss, "res": r.loss - f}
                           for r, f in zip(back, fitted)]))
    # A split sweep: fit on the near samples, score on the far ones.
    for edge in np.linspace(100.0, 1100.0, SPLITS):
        near = x[:, 1] < edge
        coef = np.linalg.lstsq(design[near], x[near, 2], rcond=None)[0]
        size += int(np.std(x[~near, 2] - design[~near] @ coef) > 0)
    return size


def kernel_seconds() -> float:
    """One reading of the host's speed: the median wall time of KERNEL_RUNS kernel runs."""
    times = []
    for _ in range(KERNEL_RUNS):
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    return statistics.median(times)


def scaled(wall: float, readings: list[float], before: int) -> float:
    """``wall`` seconds of work done just after ``readings[before]``, in reference seconds."""
    return wall * REFERENCE_S / statistics.median(readings[max(0, before - 1):before + 3])
