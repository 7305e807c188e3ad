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

The spec is the README's UMa campaign with each per-frequency count
multiplied by the factor.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (20160505, 7)
FACTORS = (1, 5, 10)
UMA_COUNTS = ((2, 583), (10, 581), (18, 468), (28, 225), (38, 12))
ALL_MODELS = ("--models", "abg,ab,ci,ci_opt,cif")
DENSE_GRID = ",".join(str(5 * k) for k in range(121))
COMMANDS = (
    ("generate", "--spec", "spec.json", "--out", "raw.csv"),
    ("preprocess", "--input", "raw.csv", "--out", "cond.csv"),
    ("preprocess", "--input", "raw.csv", "--out", "cond-unbinned.csv", "--no-binning"),
    ("fit", "--input", "raw.csv", "--out-dir", "fit-binned", *ALL_MODELS),
    ("fit", "--input", "raw.csv", "--out-dir", "fit-raw", *ALL_MODELS, "--no-binning"),
    ("fit", "--input", "raw.csv", "--out-dir", "fit-f0", "--models", "ci_opt,cif",
     "--f0", "30", "--d0-bounds", "0.5", "5"),
    *(("sweep", "--input", "raw.csv", "--out-dir", f"sweep-{split}", *ALL_MODELS,
       "--split", split) for split in ("distance-close", "distance-far", "frequency-loo")),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-dense", *ALL_MODELS,
     "--no-binning", "--no-threshold", "--split", "distance-close", "--delta-grid", DENSE_GRID),
    ("sweep", "--input", "raw.csv", "--out-dir", "sweep-loo-raw", *ALL_MODELS,
     "--no-binning", "--no-threshold", "--split", "frequency-loo"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spec(seed: int, factor: int) -> dict:
    return {"truth": {"kind": "ci", "n": 2.9}, "sigma": 5.7, "seed": seed,
            "frequencies": [{"frequency_ghz": f, "count": c * factor} for f, c in UMA_COUNTS],
            "distance_range": [60, 1238], "scenario": "UMa", "environment": "NLOS"}


def digest_lines(src: Path, seed: int, factor: int):
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "spec.json").write_text(json.dumps(spec(seed, factor)), encoding="utf-8")
        for argv in COMMANDS:
            done = subprocess.run([sys.executable, "-m", "pathlossfit", *argv],
                                  cwd=work, env=env, capture_output=True)
            yield (f"{seed} x{factor} exit={done.returncode} stdout={sha256(done.stdout)} "
                   f"stderr={sha256(done.stderr)} {' '.join(argv)}")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            yield f"{seed} x{factor} {sha256(path.read_bytes())} {path.relative_to(work)}"


def main() -> int:
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "pathlossfit").is_dir():
        print("usage: output_digests.py SRC_DIR (the directory holding pathlossfit/)",
              file=sys.stderr)
        return 2
    src = Path(sys.argv[1]).resolve()
    for seed in SEEDS:
        for factor in FACTORS:
            for line in digest_lines(src, seed, factor):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
