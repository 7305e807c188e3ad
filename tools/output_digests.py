"""Print digests of every CLI output over a fixed command matrix.

    python3 tools/output_digests.py SRC_DIR

runs ``python3 -m pathlossfit`` with ``SRC_DIR`` (the directory that holds
the ``pathlossfit`` package) first on the import path, in a fresh temporary
directory per (seed, factor), with relative paths. For each command it
prints the exit code and the sha256 of its stdout and stderr; then the
sha256 of each file the commands wrote. Two checkouts produce identical
output exactly when every exit code, stream and output file is
byte-identical:

    diff <(python3 tools/output_digests.py ../parent/src) \\
         <(python3 tools/output_digests.py src)

Two specs are written, each per-frequency count multiplied by the factor:
``spec.json``, the README's UMa campaign, and ``short.json``, a CI-opt
truth (n 2.2, d0 10 m) at 28 and 73 GHz over 10-200 m in an InHOffice LOS
scenario. Its close sweep (d_max the InHOffice default of 15 m), its
frequency hold-out and its CI-opt fit with d0 in [5, 50] m reach the text
``CI model with d0=... m is defined for d >= d0``: as the skip reason of the
sweep points whose fitted d0 lies above their nearest prediction distance
(or on stderr, exit 3, where that skips every point), and as the blanks below
d0 in the CI-opt curve. ``short-close-no-ci-opt`` is that close sweep
without CI-opt, the reference of the other four models' outputs there.
``raw.csv`` is also copied to the non-ASCII name ``ACCENTED`` and to the
name ``NON_UTF8``, whose bytes are not UTF-8; one fit
and one sweep read each. Their reports' ``input.path`` needs json's escapes:
``\\u00e9`` for the accented name, which the JSON writer adds to its one
orjson dump, and ``\\udce9`` for the lone surrogate that the other name
decodes to, which orjson refuses, so that those reports are written by
``json.dumps`` itself. A frequency hold-out report's ``held_out: null`` is a
None, which keeps the one dump; a NaN or an infinity would not. A name that
is not UTF-8 is printed with ``\\xNN`` escapes. ``--f0`` is passed to one
fit and to one close sweep, so the explicit f0 reaches both the single fit
and the stacked sweep solve.
``load_csv`` parses a file of the canonical columns in their order, with no
quote or CR, in chunks of about 256 KiB cut at row ends (``raw.csv`` at
factors 5 and 10, 0.57 and 1.1 MB, spans several chunks): a chunk whose rows
share one label by one replace of its tail, any other by cutting each row at
its third comma. Any other file is read row by row by the ``csv`` module.
``write_csv`` joins the rows of a chunk that share one label with that
label's tail, and those of any other chunk by one join over the rows and
their tails in turn. So that each of
those paths is checked, ``TWO_LABEL`` holds ``raw.csv``'s rows and then
``short.csv``'s rows under their own label, and ``REORDERED`` is ``raw.csv``
with its columns in another order; each gets a preprocess, a fit and a sweep.
``INTERLEAVED`` alternates ``raw.csv``'s rows with ``short.csv``'s, so that the
distance bins' groups interleave and every chunk mixes labels; it gets a
binned fit and a close sweep. ``SPACED_LABEL`` is ``raw.csv`` with every other
row's scenario written `` UMa ``, which loads as the one label of ``raw.csv``;
it gets a fit and a close sweep.
``FAR_SAMPLE`` is ``short.csv`` with one more sample at 1e308 m: its fit
holds, but the curve table's free-space loss overflows, so it exits 1.
``SINGLE_FREQUENCY`` holds ``raw.csv``'s 28 GHz rows: its fit reverts ABG to
AB, with a warning on stderr, and CIF to the CI slope. ``CRLF`` is ``raw.csv``
with CRLF line ends, which the ``csv`` module reads, and ``BOM_HEADER`` is
``raw.csv`` after a UTF-8 byte order mark with a space on each side of each
header name, which the chunked reader reads (it strips each name's bytes);
each gets a fit and a close sweep. ``BAD_DISTANCE`` is ``REORDERED`` with an
unparsable distance in its middle row, and ``SHORT_ROW`` is ``CRLF`` with its
middle row one field short; the ``csv`` module reads both, and each gets a fit,
which exits 2 naming that row's line. The matrix ends with
``generate --seed`` and ``fspl``, once with a finite distance and once with
``inf``, which exits 2.
``tools/output_compare.py`` runs the same matrix on two checkouts and
compares their outputs value by value instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

SEEDS = (20160505, 7)
FACTORS = (1, 5, 10)
UMA_COUNTS = ((2, 583), (10, 581), (18, 468), (28, 225), (38, 12))
ALL_MODELS = ("--models", "abg,ab,ci,ci_opt,cif")
DENSE_GRID = ",".join(str(5 * k) for k in range(121))
TAIL_GRID = ",".join(str(900 + 5 * k) for k in range(28))  # reaches single-frequency sets
ACCENTED = "mesures-été.csv"  # a copy of raw.csv under a non-ASCII name
NON_UTF8 = os.fsdecode(b"caf\xe9.csv")  # and under a name that is not UTF-8
TWO_LABEL = "two-label.csv"
REORDERED = "reordered.csv"
INTERLEAVED = "interleaved.csv"
FAR_SAMPLE = "far-sample.csv"
SPACED_LABEL = "spaced-label.csv"
SINGLE_FREQUENCY = "single-frequency.csv"
CRLF = "crlf.csv"
BOM_HEADER = "bom-header.csv"
BAD_DISTANCE = "bad-distance.csv"
SHORT_ROW = "short-row.csv"
COMMANDS = (
    ("generate", "--spec", "spec.json", "--out", "raw.csv"),
    ("preprocess", "--input", "raw.csv", "--out", "cond.csv"),
    ("preprocess", "--input", "raw.csv", "--out", "cond-unbinned.csv", "--no-binning"),
    ("fit", "--input", "raw.csv", "--out-dir", "fit-binned", *ALL_MODELS),
    ("fit", "--input", "raw.csv", "--out-dir", "fit-raw", *ALL_MODELS, "--no-binning"),
    ("fit", "--input", "raw.csv", "--out-dir", "fit-f0", "--models", "ci_opt,cif",
     "--f0", "30", "--d0-bounds", "0.5", "5"),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-f0", "--split", "distance-close",
     "--no-binning", "--models", "cif,ci_opt", "--f0", "30"),
    *(("sweep", "--input", "raw.csv", "--out-dir", f"sweep-{split}", *ALL_MODELS,
       "--split", split) for split in ("distance-close", "distance-far", "frequency-loo")),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-dense", *ALL_MODELS,
     "--no-binning", "--no-threshold", "--split", "distance-close", "--delta-grid", DENSE_GRID),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-loo-raw", *ALL_MODELS,
     "--no-binning", "--no-threshold", "--split", "frequency-loo"),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-close-flags", *ALL_MODELS,
     "--split", "distance-close", "--d-max", "150", "--delta-grid", "0,100,250"),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-far-flags", *ALL_MODELS,
     "--split", "distance-far", "--d-min", "500", "--delta-grid", "0,50,300"),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-hold-out", *ALL_MODELS,
     "--split", "frequency-loo", "--hold-out", "28"),
    ("fit", "--input", "raw.csv", "--out-dir", "fit-linear", *ALL_MODELS,
     "--bin-average", "linear"),
    ("fit", "--synthetic", "spec.json", "--seed", "3", "--out-dir", "fit-synthetic",
     *ALL_MODELS),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-tail", *ALL_MODELS,
     "--no-binning", "--no-threshold", "--split", "distance-close", "--delta-grid", TAIL_GRID),
    ("generate", "--spec", "short.json", "--out", "short.csv"),
    ("sweep", "--input", "short.csv", "--out-dir", "short-close", *ALL_MODELS,
     "--split", "distance-close", "--no-binning", "--delta-grid", "0,5,10,20,40"),
    ("sweep", "--input", "short.csv", "--out-dir", "short-close-no-ci-opt",
     "--models", "abg,ab,ci,cif", "--split", "distance-close", "--no-binning",
     "--delta-grid", "0,5,10,20,40"),
    ("sweep", "--input", "short.csv", "--out-dir", "short-loo", *ALL_MODELS,
     "--split", "frequency-loo", "--no-binning"),
    ("fit", "--input", "short.csv", "--out-dir", "short-fit", *ALL_MODELS,
     "--d0-bounds", "5", "50"),
    ("fit", "--input", ACCENTED, "--out-dir", "fit-accented", *ALL_MODELS),
    ("sweep", "--input", ACCENTED, "--out-dir", "sweep-accented", *ALL_MODELS,
     "--split", "distance-close"),
    ("fit", "--input", NON_UTF8, "--out-dir", "fit-non-utf8", *ALL_MODELS),
    ("sweep", "--input", NON_UTF8, "--out-dir", "sweep-non-utf8", *ALL_MODELS,
     "--split", "frequency-loo"),
    *(command for name in (TWO_LABEL, REORDERED) for stem in [name.removesuffix(".csv")]
      for command in (
          ("preprocess", "--input", name, "--out", f"cond-{name}"),
          ("fit", "--input", name, "--out-dir", f"fit-{stem}", *ALL_MODELS, "--no-binning"),
          ("sweep", "--input", name, "--out-dir", f"sweep-{stem}", *ALL_MODELS,
           "--split", "distance-far"))),
    ("fit", "--input", INTERLEAVED, "--out-dir", "fit-interleaved", *ALL_MODELS),
    ("sweep", "--input", INTERLEAVED, "--out-dir", "sweep-interleaved", *ALL_MODELS,
     "--split", "distance-close", "--d-max", "150"),
    ("fit", "--input", FAR_SAMPLE, "--out-dir", "fit-far-sample", *ALL_MODELS),
    ("fit", "--input", SPACED_LABEL, "--out-dir", "fit-spaced-label", *ALL_MODELS),
    ("sweep", "--input", SPACED_LABEL, "--out-dir", "sweep-spaced-label", *ALL_MODELS,
     "--split", "distance-close"),
    ("fit", "--input", SINGLE_FREQUENCY, "--out-dir", "fit-single-frequency", *ALL_MODELS),
    *(command for name in (CRLF, BOM_HEADER) for stem in [name.removesuffix(".csv")]
      for command in (
          ("fit", "--input", name, "--out-dir", f"fit-{stem}", *ALL_MODELS),
          ("sweep", "--input", name, "--out-dir", f"sweep-{stem}", *ALL_MODELS,
           "--split", "distance-close"))),
    *(("fit", "--input", name, "--out-dir", f"fit-{name.removesuffix('.csv')}", *ALL_MODELS)
      for name in (BAD_DISTANCE, SHORT_ROW)),
    ("generate", "--spec", "spec.json", "--out", "raw-seed-3.csv", "--seed", "3"),
    ("fspl", "28", "100"),
    ("fspl", "28", "inf"),
)


def reordered(raw: bytes) -> bytes:
    """The CSV ``raw`` with its columns in the order 5, 3, 0, 2, 1, 4."""
    rows = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerows([row[i] for i in (5, 3, 0, 2, 1, 4)]
                                                      for row in rows)
    return buffer.getvalue().encode("utf-8")


def interleaved(raw: bytes, short: bytes) -> bytes:
    """The rows of the CSVs ``raw`` and ``short`` taken in turn, under ``raw``'s header."""
    header, _, rows = raw.partition(b"\n")
    mixed = zip_longest(rows.splitlines(), short.splitlines()[1:])
    return b"\n".join([header, *(row for pair in mixed for row in pair if row)]) + b"\n"


def far_sample(short: bytes) -> bytes:
    """The CSV ``short`` with one more 28 GHz sample, at 1e308 m, under its last row's label."""
    loss_and_label = short.splitlines()[-1].split(b",")[2:]
    return short + b",".join([b"28.0", b"1e+308", *loss_and_label]) + b"\n"


def spaced_label(raw: bytes) -> bytes:
    """The CSV ``raw`` with every other row's scenario ``UMa`` written `` UMa ``."""
    header, _, rows = raw.partition(b"\n")
    lines = rows.splitlines()
    lines[1::2] = [line.replace(b",UMa,", b", UMa ,") for line in lines[1::2]]
    return b"\n".join([header, *lines]) + b"\n"


def single_frequency(raw: bytes) -> bytes:
    """The CSV ``raw`` with only its 28 GHz rows."""
    header, _, rows = raw.partition(b"\n")
    return b"\n".join([header, *(row for row in rows.splitlines()
                                 if row.startswith(b"28.0,"))]) + b"\n"


def middle_row(raw: bytes, change) -> bytes:
    """The CSV ``raw`` with ``change`` applied to the list of its middle row's fields."""
    lines = raw.split(b"\n")
    lines[len(lines) // 2] = b",".join(change(lines[len(lines) // 2].split(b",")))
    return b"\n".join(lines)


def bom_header(raw: bytes) -> bytes:
    """The CSV ``raw`` after a UTF-8 byte order mark, each header name between spaces."""
    header, _, rows = raw.partition(b"\n")
    names = b",".join(b" " + name + b" " for name in header.split(b","))
    return b"\xef\xbb\xbf" + names + b"\n" + rows


# inputs made from the generated CSVs in the work directory, by name
DERIVED = {
    ACCENTED: lambda work: (work / "raw.csv").read_bytes(),
    NON_UTF8: lambda work: (work / "raw.csv").read_bytes(),
    TWO_LABEL: lambda work: ((work / "raw.csv").read_bytes()
                             + (work / "short.csv").read_bytes().partition(b"\n")[2]),
    REORDERED: lambda work: reordered((work / "raw.csv").read_bytes()),
    INTERLEAVED: lambda work: interleaved((work / "raw.csv").read_bytes(),
                                          (work / "short.csv").read_bytes()),
    FAR_SAMPLE: lambda work: far_sample((work / "short.csv").read_bytes()),
    SPACED_LABEL: lambda work: spaced_label((work / "raw.csv").read_bytes()),
    SINGLE_FREQUENCY: lambda work: single_frequency((work / "raw.csv").read_bytes()),
    CRLF: lambda work: (work / "raw.csv").read_bytes().replace(b"\n", b"\r\n"),
    BOM_HEADER: lambda work: bom_header((work / "raw.csv").read_bytes()),
    BAD_DISTANCE: lambda work: reordered(middle_row((work / "raw.csv").read_bytes(),
                                                    lambda fields: [*fields[:1], b"n/a",
                                                                    *fields[2:]])),
    SHORT_ROW: lambda work: middle_row((work / "raw.csv").read_bytes(),
                                       lambda fields: fields[:5]).replace(b"\n", b"\r\n"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spec(seed: int, factor: int) -> dict:
    return {"truth": {"kind": "ci", "n": 2.9}, "sigma": 5.7, "seed": seed,
            "frequencies": [{"frequency_ghz": f, "count": c * factor} for f, c in UMA_COUNTS],
            "distance_range": [60, 1238], "scenario": "UMa", "environment": "NLOS"}


def short_spec(seed: int, factor: int) -> dict:
    return {"truth": {"kind": "ci_opt", "n": 2.2, "d0": 10.0}, "sigma": 2.0, "seed": seed,
            "frequencies": [{"frequency_ghz": f, "count": 150 * factor} for f in (28, 73)],
            "distance_range": [10, 200], "scenario": "InHOffice", "environment": "LOS"}


def in_subprocess(src: Path, work: Path):
    """A runner of an argv as ``python3 -m pathlossfit`` in the directory
    ``work`` with ``src`` first on the import path: it returns the completed run."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return lambda argv: subprocess.run([sys.executable, "-m", "pathlossfit", *argv],
                                       cwd=work, env=env, capture_output=True)


def run_commands(run, seed: int, factor: int, work: Path):
    """Write the specs into the directory ``work``, then yield each argv of
    COMMANDS and ``run(argv)``, each derived input written before the first
    command that reads it; ``run`` runs the command in ``work``."""
    for name, make in (("spec.json", spec), ("short.json", short_spec)):
        (work / name).write_text(json.dumps(make(seed, factor)), encoding="utf-8")
    for argv in COMMANDS:
        for name, make in DERIVED.items():
            if name in argv and not (work / name).exists():
                (work / name).write_bytes(make(work))
        yield argv, run(argv)


def shown(text: str) -> str:
    """``text`` with each byte of a file name that is not UTF-8 as ``\\xNN``."""
    return os.fsencode(text).decode("utf-8", "backslashreplace")


def written_files(work: Path) -> list[Path]:
    return sorted(p.relative_to(work) for p in work.rglob("*") if p.is_file())


def digest_lines(src: Path, seed: int, factor: int):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for argv, done in run_commands(in_subprocess(src, work), seed, factor, work):
            yield (f"{seed} x{factor} exit={done.returncode} stdout={sha256(done.stdout)} "
                   f"stderr={sha256(done.stderr)} {shown(' '.join(argv))}")
        for path in written_files(work):
            yield f"{seed} x{factor} {sha256((work / path).read_bytes())} {shown(str(path))}"


def src_dirs(args: list[str], count: int, usage: str) -> list[Path] | None:
    """The ``count`` SRC_DIR arguments resolved, or None (after printing
    ``usage``) unless there are ``count`` and each holds ``pathlossfit/``."""
    if len(args) != count or not all((Path(arg) / "pathlossfit").is_dir() for arg in args):
        print(f"usage: {usage} (each SRC_DIR the directory holding pathlossfit/)",
              file=sys.stderr)
        return None
    return [Path(arg).resolve() for arg in args]


def main() -> int:
    if (srcs := src_dirs(sys.argv[1:], 1, "output_digests.py SRC_DIR")) is None:
        return 2
    (src,) = srcs
    for seed in SEEDS:
        for factor in FACTORS:
            for line in digest_lines(src, seed, factor):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
