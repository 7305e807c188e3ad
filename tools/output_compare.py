"""Compare every CLI output of two checkouts value by value.

    python3 tools/output_compare.py OLD_SRC_DIR NEW_SRC_DIR

runs the command matrix of ``tools/output_digests.py`` (its ``COMMANDS``,
seeds and factors) once with each ``SRC_DIR`` (the directory that holds the
``pathlossfit`` package) first on the import path, and compares the two
runs of each (seed, factor):

- every exit code, stdout and stderr, and the set of files written, must
  match exactly;
- in each JSON report and CSV file every value that is not a float (text,
  integers, booleans, keys, lengths, CSV headers) must match exactly;
- each pair of floats gives a relative difference |a - b| / max(|a|, |b|),
  0 when they are equal and inf when they differ and one is not finite.

Each mismatch is printed as ``mismatch: ...``. Then, for each (file, model,
field), the largest relative difference over the whole matrix is printed,
largest first; identical floats print 0. A JSON value's model is the
model-kind key it lies under or the ``model`` entry of its object, a CSV
cell's model is its row's ``model`` column, and ``-`` where there is none;
its field is the path of object keys, or the CSV column. Other files are
compared byte for byte.

Exits 1 if anything mismatched, else 0 (whatever the float differences).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from output_digests import FACTORS, SEEDS, run_commands, shown, src_dirs, written_files

KINDS = ("abg", "ab", "ci", "ci_opt", "cif")


def relative_difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))  # inf or nan past the float range


class Comparison:
    def __init__(self) -> None:
        self.largest: dict[tuple[str, str, str], float] = defaultdict(float)
        self.mismatches: list[str] = []
        self.where = ""  # the (seed, factor) being compared

    def mismatch(self, text: str) -> None:
        self.mismatches.append(f"{self.where} {text}")

    def floats(self, key: tuple[str, str, str], a: float, b: float) -> None:
        diff = relative_difference(a, b)
        self.largest[key] = max(self.largest[key], math.inf if math.isnan(diff) else diff)

    def values(self, key: tuple[str, str, str], a, b) -> None:
        if isinstance(a, float) and isinstance(b, float):
            self.floats(key, a, b)
        elif type(a) is not type(b) or a != b:
            self.mismatch(f"{' '.join(key)}: {repr(a)[:60]} != {repr(b)[:60]}")

    def json(self, name: str, a, b, model: str = "-", field: str = "") -> None:
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            if isinstance(a.get("model"), str):
                model = a["model"]
            for key in a:
                if key in KINDS and isinstance(a[key], dict):
                    self.json(name, a[key], b[key], key, field)
                else:
                    self.json(name, a[key], b[key], model, f"{field}.{key}".lstrip("."))
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for x, y in zip(a, b):
                self.json(name, x, y, model, field)
        else:
            self.values((name, model, field), a, b)

    def csv(self, name: str, a: str, b: str) -> None:
        rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
        if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
            self.mismatch(f"{name}: {len(rows_a)} != {len(rows_b)} rows, or the headers differ")
            return
        header = rows_a[0]
        for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
            if len(row_a) != len(header) or len(row_b) != len(header):
                self.values((name, "-", "row"), row_a, row_b)
                continue
            model = row_a[header.index("model")] if "model" in header else "-"
            for column, x, y in zip(header, row_a, row_b):
                self.values((name, model, column), _cell(x), _cell(y))

    def trees(self, work_a: Path, work_b: Path) -> None:
        files = written_files(work_a)
        if files != written_files(work_b):
            self.mismatch(f"files written: {files} != {written_files(work_b)}")
            return
        for path in files:
            a, b = (work_a / path).read_bytes(), (work_b / path).read_bytes()
            name = shown(str(path))
            if path.suffix == ".json":
                self.json(name, json.loads(a), json.loads(b))
            elif path.suffix == ".csv":
                self.csv(name, a.decode("utf-8"), b.decode("utf-8"))
            elif a != b:
                self.mismatch(f"{name}: bytes differ")


def _cell(text: str):
    """A CSV cell as a float, unless it is an integer literal or not a number."""
    if text.lstrip("+-").isdigit():
        return text
    try:
        return float(text)
    except ValueError:
        return text


def main() -> int:
    srcs = src_dirs(sys.argv[1:], 2, "output_compare.py OLD_SRC_DIR NEW_SRC_DIR")
    if srcs is None:
        return 2
    comparison = Comparison()
    for seed in SEEDS:
        for factor in FACTORS:
            comparison.where = f"{seed} x{factor}"
            with tempfile.TemporaryDirectory() as tmp_a, tempfile.TemporaryDirectory() as tmp_b:
                work = (Path(tmp_a), Path(tmp_b))
                runs = [list(run_commands(src, seed, factor, w)) for src, w in zip(srcs, work)]
                for (argv, a), (_, b) in zip(*runs):
                    for stream in ("returncode", "stdout", "stderr"):
                        if getattr(a, stream) != getattr(b, stream):
                            comparison.mismatch(f"{stream} differs: {shown(' '.join(argv))}")
                comparison.trees(*work)
    for line in comparison.mismatches:
        print(f"mismatch: {line}")
    print(f"largest relative difference per (file, model, field) over seeds {SEEDS} "
          f"x factors {FACTORS}:")
    for key, diff in sorted(comparison.largest.items(), key=lambda item: (-item[1], item[0])):
        print(f"{diff:10.3g}  {' '.join(key)}")
    print(f"{len(comparison.mismatches)} mismatches; "
          f"{sum(d > 0 for d in comparison.largest.values())} of {len(comparison.largest)} "
          f"float fields differ")
    return 1 if comparison.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
