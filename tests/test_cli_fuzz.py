"""Every input the CLI can receive ends in a documented exit code with one error line.

``cli.main`` runs in this process on three kinds of odd input: a synthetic
spec's JSON with values replaced, keys dropped or added and bytes changed; a
small generated CSV with bytes flipped, inserted or deleted; and odd values
of the numeric and model flags. Whatever the input, ``main`` returns 0, 1, 2
or 3, prints no traceback, and a nonzero exit ends stderr with its one
``error:`` line. A numpy RuntimeWarning is an error here, as in every test.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from pathlossfit import CIParams, Scenario, SyntheticSpec, generate
from pathlossfit.cli import main
from pathlossfit.ingest import spec_to_dict, write_csv

SPEC = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=20160505,
                     frequencies=((2.0, 40), (28.0, 40), (73.0, 40)),
                     distance_range=(10.0, 1000.0), scenario=Scenario("UMa"))
SPLITS = ("distance-close", "distance-far", "frequency-loo")
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@cache
def base_csv() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(generate(SPEC), Path(tmp) / "raw.csv")
        return (Path(tmp) / "raw.csv").read_bytes()


def run_main(argv) -> tuple[object, str]:
    """``main(argv)``'s return value and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_documented_exit(code, err: str) -> None:
    assert type(code) is int and code in (0, 1, 2, 3), code
    event(f"exit {code}")
    assert "Traceback" not in err
    if code:
        assert err.endswith("\n")
        lines = err[:-1].split("\n")  # a terminal's lines: no other character ends one
        assert [line for line in lines if "error:" in line] == lines[-1:], err


# Odd JSON values, including counts whose draws fail before anything is allocated.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 300),
    st.sampled_from([2 ** 50, 2 ** 63, 2 ** 64, 10 ** 20, -2 ** 63]),
    st.floats(), st.text(max_size=8), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(0, 3), max_size=2))
BYTES = st.one_of(st.sampled_from(b",.-+eE\n\r\"\t 0123456789"), st.integers(0, 255))


def containers(doc, path=()):
    """The path of ``doc`` and of each dict or list nested in it."""
    yield path
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from containers(value, (*path, key))


def mutate_json(data, doc):
    """``doc`` with one to three values replaced, dropped or added."""
    for _ in range(data.draw(st.integers(1, 3))):
        node = doc
        for key in data.draw(st.sampled_from(list(containers(doc)))):
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from([*keys, "extra"] if isinstance(node, dict) else
                                        [*keys, len(node)]))
        if key in keys and data.draw(st.booleans()):
            del node[key]
        elif isinstance(node, list) and key == len(node):
            node.append(data.draw(JSON_VALUES))
        else:
            node[key] = data.draw(JSON_VALUES)
    return doc


def mutate_bytes(data, text: bytes) -> bytes:
    """``text`` with one to four bytes replaced, inserted or deleted."""
    out = bytearray(text)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, max(len(out) - 1, 0)))
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or not out:
            out.insert(at, data.draw(BYTES))
        elif op == "replace":
            out[at] = data.draw(BYTES)
        else:
            del out[at]
    return bytes(out)


@FUZZ
@given(data=st.data())
def test_a_mutated_spec_exits_with_a_documented_code(data):
    text = json.dumps(mutate_json(data, spec_to_dict(SPEC))).encode()
    if data.draw(st.booleans()):
        text = mutate_bytes(data, text)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_bytes(text)
        argv = data.draw(st.sampled_from([
            ("generate", "--spec", spec, "--out", Path(tmp) / "raw.csv"),
            ("fit", "--synthetic", spec, "--out-dir", Path(tmp) / "fit", "--no-binning")]))
        assert_documented_exit(*run_main(argv))


def command(verb: str, data_path: Path, out: Path) -> list:
    """The argv of one of preprocess, fit or a sweep of each split on ``data_path``."""
    if verb == "preprocess":
        return ["preprocess", "--input", data_path, "--out", out / "cond.csv"]
    if verb == "fit":
        return ["fit", "--input", data_path, "--out-dir", out]
    return ["sweep", "--input", data_path, "--out-dir", out, "--split", verb]


@FUZZ
@given(data=st.data(), verb=st.sampled_from(["preprocess", "fit", *SPLITS]))
def test_a_byte_mutated_csv_exits_with_a_documented_code(data, verb):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(mutate_bytes(data, base_csv()))
        argv = command(verb, path, Path(tmp) / "out")
        if verb != "preprocess" and data.draw(st.booleans()):
            argv += ["--no-binning", "--models", "abg,ab,ci,ci_opt,cif"]
        assert_documented_exit(*run_main(argv))


# Odd flag texts: numbers at and past the float range, non-numbers, and lists.
NUMBER_TEXTS = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "1e-320", "1e308", "1e400", "-1e400", "nan",
                     "inf", "-inf", "NaN", "auto", "", " ", "x", "1,2", "0.1", "50",
                     "15", "28", "600", "2e3"]),
    st.floats().map(repr), st.floats(0.1, 2000.0).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.text(alphabet="0123456789.,-+eEinfa x", max_size=12))
GRID_TEXTS = st.one_of(
    NUMBER_TEXTS, st.lists(NUMBER_TEXTS, max_size=6).map(",".join),
    st.lists(st.integers(0, 1000), max_size=8).map(lambda grid: ",".join(map(str, grid))))
MODEL_TEXTS = st.one_of(
    st.lists(st.sampled_from(["abg", "ab", "ci", "ci_opt", "cif", "", " ", "foo", "CI"]),
             max_size=6).map(",".join),
    st.text(max_size=8))
FLAGS = {"--f0": NUMBER_TEXTS, "--d0-bounds": st.tuples(NUMBER_TEXTS, NUMBER_TEXTS),
         "--delta-grid": GRID_TEXTS, "--d-max": NUMBER_TEXTS, "--d-min": NUMBER_TEXTS,
         "--hold-out": NUMBER_TEXTS, "--bin-width": NUMBER_TEXTS,
         "--threshold-margin": NUMBER_TEXTS, "--models": MODEL_TEXTS}
PREPROCESS_FLAGS = ("--bin-width", "--threshold-margin")
FIT_FLAGS = ("--f0", "--d0-bounds", "--models", *PREPROCESS_FLAGS)


@settings(FUZZ, max_examples=80)
@given(data=st.data(), verb=st.sampled_from(["preprocess", "fit", *SPLITS]))
def test_odd_flag_values_exit_with_a_documented_code(data, verb):
    flags = {"preprocess": PREPROCESS_FLAGS, "fit": FIT_FLAGS}.get(verb, tuple(FLAGS))
    chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, max_size=min(4, len(flags)),
                                unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        path.write_bytes(base_csv())
        argv = command(verb, path, Path(tmp) / "out")
        for flag in chosen:
            value = data.draw(FLAGS[flag], label=flag)
            argv += [f"{flag}={value}"] if isinstance(value, str) else [flag, *value]
        if data.draw(st.booleans()):
            argv.append("--no-binning")
        assert_documented_exit(*run_main(argv))
