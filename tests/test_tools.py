"""The command-line tools under ``tools/``."""

import inspect
import re
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
