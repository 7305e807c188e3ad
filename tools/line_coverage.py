"""List the function-body lines of ``src/pathlossfit`` that tests or CLI commands never run.

    python3 tools/line_coverage.py [PYTEST_ARGS...]
    python3 tools/line_coverage.py --cli [SEED]

The first form runs pytest on ``tests/`` in this process, with a line tracer
installed by ``sys.settrace`` and ``threading.settrace``, then prints each
line of a function body in ``src/pathlossfit`` that never ran
(``path:line: source``) and the count per module. It needs no ``coverage``
package. Lines run only by a CLI that a test starts as a subprocess are not
counted as run: the tracer sees this process alone. Module and class bodies
are not listed, since importing the package runs them.

The second form runs ``tools/output_digests.py``'s ``COMMANDS`` instead,
each by ``cli.main`` in this process, in a temporary directory with the
same specs and derived inputs, for the seed ``SEED`` (default: each of its
``SEEDS``) at the spec counts. The lines it lists are those that the
program's own commands never reach: error branches, and code that only tests
or other callers use.

Exits with pytest's status when the tests fail, else 0.
"""

from __future__ import annotations

import inspect
import io
import os
import sys
import tempfile
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import CodeType

from output_digests import SEEDS, run_commands

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pathlossfit"


def body_lines(path: Path) -> set[int]:
    """The lines that hold code of every function (lambdas and comprehensions
    included) defined in ``path``, less each function's first line."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, CodeType)]
        if code.co_flags & inspect.CO_NEWLOCALS:
            lines |= {line for *_, line in code.co_lines()
                      if line is not None and line != code.co_firstlineno}
    return lines


def traced(run) -> tuple[object, dict[str, set[int]]]:
    """Call ``run()`` under the line tracer; what it returns and the lines run
    per module path."""
    modules = {str(path): set() for path in PACKAGE.glob("*.py")}
    seen: dict[str, set[int] | None] = {}  # code file name -> its module's lines

    def trace_line(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = modules.get(os.path.realpath(name))
        return trace_line if seen[name] is not None else None

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, modules


def run_pytest(args: list[str]) -> int:
    import pytest
    return int(pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *args]))


def run_cli_matrix(seeds) -> None:
    """Run every command of the digest matrix by ``cli.main`` for each seed;
    their output is dropped."""
    from pathlossfit.cli import main as cli_main

    def run(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli_main(list(argv))

    home = Path.cwd()
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # the commands name their files relative to the work directory
            try:
                for _ in run_commands(run, seed, 1, Path(tmp)):
                    pass
            finally:
                os.chdir(home)


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if args[:1] == ["--cli"]:
        seeds = [int(args[1])] if len(args) > 1 else SEEDS
        _, ran = traced(lambda: run_cli_matrix(seeds))
    else:
        status, ran = traced(lambda: run_pytest(args))
        if status != 0:
            print(f"pytest exited {status}; no coverage reported", file=sys.stderr)
            return status
    missed = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(body_lines(path) - ran[str(path)]):
            missed[path.stem] += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("never run: " + (", ".join(f"{name} {n}" for name, n in sorted(missed.items()))
                           or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
