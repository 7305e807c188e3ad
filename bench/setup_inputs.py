"""Build one workload's inputs in a fresh process: the benchmark's set-up step.

    python3 bench/setup_inputs.py WORKLOAD SEED FACTOR DIRECTORY

run.py times several of these from process start to exit and reports the
median as ``setup_s``: interpreter start, the ``pathlossfit`` import, and the
workload's set-up commands.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, build_inputs, load_cli

if __name__ == "__main__":
    name, seed, factor, directory = sys.argv[1:]
    build_inputs(load_cli(), WORKLOADS[name], int(seed), int(factor), Path(directory))
