"""Command-line front end: fit, sweep, generate, preprocess and fspl commands.

Reports are JSON, plot-ready tables are CSV. Every output is written to a
temporary file and atomically renamed, so a failing run never leaves a
truncated file behind. Runs are fully reproducible: reports carry the tool
version, the input digest and every setting that shaped the result, and no
timestamps or other ambient state.

Exit codes: 0 success, 1 fit/model error, 2 configuration, input or file
system error, 3 fully degenerate sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

import numpy as np
import orjson

from . import __version__
from .domain import (
    Dataset,
    DomainError,
    FitReport,
    evaluate,
    fspl,
    params_to_dict,
)
from .fitters import (
    D0_BOUNDS_DEFAULT,
    FITTER_KINDS,
    FLAG_ABG_AS_AB,
    FitError,
    fit_with_reversion,
)
from .ingest import (IngestError, float_texts, generate, load_csv, load_spec, needs_repr,
                     not_repr_hits, write_csv)
from .preprocess import (BIN_AVERAGE_MODES, BinWidthError, PreprocessSettings,
                         apply as preprocess_apply)
from .sensitivity import (
    DEFAULT_D_MAX,
    DEFAULT_MODELS,
    DistanceClose,
    DistanceFar,
    FrequencyLOO,
    PredictionReport,
    SplitSpec,
    SweepError,
    parameter_trace,
    run_sweep,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

CURVE_POINTS = 100


class ConfigError(ValueError):
    """Invalid command-line configuration (bad flag combination, missing file)."""


def _existing(path, kind: str = "input") -> Path:
    """``path`` as a Path; ConfigError if it names no file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{kind} file not found: {path}")
    return path


def _load_input(args: argparse.Namespace) -> tuple[Dataset, dict]:
    path = args.input or args.synthetic
    provenance = {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    if args.input is not None:
        ds = load_csv(path)
        provenance["source"] = "csv"
    else:
        spec = load_spec(path)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        ds = generate(spec)
        provenance.update(source="synthetic", seed=spec.seed)
    return ds, {**provenance, "n_samples": len(ds)}


def _prepare(args: argparse.Namespace,
             sweep: bool = False) -> tuple[Dataset, dict, SplitSpec | None]:
    """Check the flags, then load and condition the input.

    Before any input is read, the checks run in a fixed order: preprocess
    settings, the one input source, a sweep's split spec, then --f0 and
    --d0-bounds. Returns the dataset to fit, the fields every report
    shares (tool, input, preprocess, f0 and d0_bounds) and, for a sweep,
    the split spec (otherwise None).
    """
    settings = _preprocess_settings(args)
    if (args.input is None) == (args.synthetic is None):
        raise ConfigError("exactly one input source is required: "
                          "--input CSV or --synthetic SPEC")
    _existing(args.input or args.synthetic)
    split_spec = _split_spec(args) if sweep else None
    if args.f0 != "auto" and not 0 < args.f0 < math.inf:
        raise ConfigError(f"--f0 must be 'auto' or a finite value > 0 GHz, got {args.f0}")
    lo, hi = args.d0_bounds
    if not D0_BOUNDS_DEFAULT[0] <= lo < hi <= D0_BOUNDS_DEFAULT[1]:
        raise ConfigError(f"--d0-bounds must satisfy 0.1 <= LO < HI <= 50, got {lo} {hi}")
    ds_raw, provenance = _load_input(args)
    pp = preprocess_apply(ds_raw, settings)
    head = {
        "tool": {"name": "pathlossfit", "version": __version__},
        "input": provenance,
        "preprocess": {**dataclasses.asdict(settings),
                       "n_input": pp.n_input,
                       "removed_by_threshold": pp.removed_by_threshold,
                       "n_output": len(pp.dataset)},
        "f0": args.f0,
        "d0_bounds": list(args.d0_bounds),
    }
    return pp.dataset, head, split_spec


def _write_outputs(files: dict[Path, bytes | Callable[[Path], None]]) -> None:
    """Stage every output to a temp file, then rename all (atomic per file).

    Each value is the file's bytes, or a function that writes the file to the
    path it is given. A target that is a directory is refused before anything
    is written; a failed write or rename removes every staged file.
    """
    if directory := next((path for path in files if path.is_dir()), None):
        raise ConfigError(f"output path is a directory: {directory}")
    staged = []
    try:
        for path, content in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            staged.append((tmp, path))
            if callable(content):
                content(tmp)
            else:
                tmp.write_bytes(content)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


_ORJSON_OPTIONS = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
                   | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME)
_ARRAY_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
# a line whose value is a bare number: indent, an optional key, the number, a comma
_NUMBER_LINE = re.compile(rb' *(?:"(?:[^"\\]|\\.)*": )?(-?\d[-+.\deE]*),?')
_NULL = re.compile(rb"null")
_NOT_ASCII = re.compile(r"[^\x00-\x7e]+")  # what json escapes and orjson does not
_SCALARS = {bool, float, int, str}


def _write_json(obj, path: Path) -> None:
    """Write :func:`_json_pieces` of ``obj`` to ``path``, each piece as it is made."""
    with open(path, "wb") as fh:
        fh.writelines(_json_pieces(obj))


def _json_pieces(obj):
    """The UTF-8 text of ``json.dumps(obj, indent=2, sort_keys=True)`` and a
    newline, a numpy array as its list, in pieces; an array's made when reached.

    One orjson dump writes the skeleton, each 1-D float64 array as ``null``
    and any other numpy value as its list, and only it is scanned: non-ASCII
    or DEL runs take json's escapes, a float on a line that :func:`not_repr_hits`
    hits is respelled by ``repr``, and each array's :func:`_array_pieces` take
    its ``null``'s place; a None's ``null`` stays. json.dumps writes what
    orjson rejects (a lone surrogate, an int beyond 64 bits, a non-str key, a
    non-contiguous array, a dataclass, a datetime), a non-finite array, and a
    skeleton with a ``null`` that :func:`_stand_ins` does not account for (NaN,
    an infinity, ``null`` in a string). orjson writes a plain Enum or a UUID
    unlike json; reports hold neither."""
    arrays = []

    def stand_in(value):
        if not isinstance(value, (np.ndarray, np.generic)) or not value.flags.c_contiguous:
            raise TypeError
        if type(value) is not np.ndarray or value.dtype != np.float64 or value.ndim != 1:
            return value.tolist()
        arrays.append(value)

    try:
        text = orjson.dumps(obj, default=stand_in, option=_ORJSON_OPTIONS)
        if not text.isascii() or b"\x7f" in text:  # only in strings: numbers and nulls stay
            text = _NOT_ASCII.sub(lambda run: encode_basestring_ascii(run[0])[1:-1],
                                  text.decode()).encode()
        nulls = [null.start() for null in _NULL.finditer(text)]
    except TypeError:  # orjson.JSONEncodeError: what orjson refuses
        nulls = None
    if nulls is not None and len(nulls) != len(arrays):  # find the Nones among them
        arrays = _stand_ins([obj], [])
    if (nulls is None or len(nulls) != len(arrays)
            or not all(values is None or np.isfinite(values).all() for values in arrays)):
        yield (json.dumps(obj, indent=2, sort_keys=True, default=_tolist) + "\n").encode()
        return
    edits, end = [], 0  # edits are (start, end, new pieces) in the skeleton
    for start in {text.rfind(b"\n", 0, at) + 1 for at in not_repr_hits(text)}:
        line = _NUMBER_LINE.fullmatch(text, start, text.index(b"\n", start))
        if line and not line[1].lstrip(b"-").isdigit():  # a float, not an int
            edits.append((line.start(1), line.end(1), [repr(float(line[1])).encode()]))
    for at, values in zip(nulls, arrays):
        if values is not None:
            line = text[text.rfind(b"\n", 0, at) + 1:at]  # the indent, then maybe a key
            depth = (len(line) - len(line.lstrip())) // 2
            edits.append((at, at + 4, _array_pieces(values, depth)))
    for start, stop, new in sorted(edits):
        yield memoryview(text)[end:start]
        yield from new
        end = stop
    yield memoryview(text)[end:]


def _tolist(value):  # json.dumps' default: a numpy value's tolist(), else json's TypeError
    return (value.tolist() if isinstance(value, (np.ndarray, np.generic))
            else json.JSONEncoder().default(value))


def _stand_ins(values, found: list) -> list:
    """``found`` and each None and 1-D float64 array below the container
    ``values``, in the dump's order: dict values by sorted key, lists and
    tuples in order."""
    for value in [values[key] for key in sorted(values)] if isinstance(values, dict) else values:
        if type(value) in _SCALARS:  # most of a report, with nothing below it
            continue
        if isinstance(value, (dict, list, tuple)):
            _stand_ins(value, found)
        elif value is None or (type(value) is np.ndarray and value.dtype == np.float64
                               and value.ndim == 1):
            found.append(value)
    return found


def _array_pieces(values: np.ndarray, depth: int):
    """orjson's text of the finite float64 ``values`` ``depth`` deep, each run
    between :func:`needs_repr` values dumped inside ``depth`` lists and cut
    out; each run is dumped only when the piece before it has been taken."""
    indent = b" " * (2 * depth + 2)
    cut = (depth + 1) * (depth + 2)  # the lists' lines and the array's bracket, each end
    start, gap = 0, b"[\n"
    for stop in [*np.flatnonzero(needs_repr(values)).tolist(), values.size]:
        if start < stop:
            wrapped = values[start:stop]
            for _ in range(depth):
                wrapped = [wrapped]
            yield gap
            yield orjson.dumps(wrapped, option=_ARRAY_OPTIONS)[cut:-cut]
            gap = b",\n"
        if stop < values.size:
            yield gap + indent + repr(float(values[stop])).encode()
            gap = b",\n"
        start = stop + 1
    yield b"\n" + indent[2:] + b"]" if values.size else b"[]"


def _csv_text(header, rows) -> bytes:
    """CSV text of rows of text fields that never need quoting (numbers, names, blanks)."""
    return "".join(",".join(row) + "\n" for row in [header, *rows]).encode()


def _fit_report_dict(report: FitReport) -> dict:
    return {
        "params": params_to_dict(report.params),
        "sigma_db": report.sigma,
        "n_points": report.n_points,
        "flags": list(report.flags),
        "residuals_db": report.residuals,
    }


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    ds, head, _ = _prepare(args)

    fits: dict[str, FitReport] = {}
    for kind in args.models:
        report = fit_with_reversion(ds, kind, f0=args.f0,
                                    d0_bounds=tuple(args.d0_bounds))
        if FLAG_ABG_AS_AB in report.flags:
            print("warning: single-frequency data, abg fit reverted to ab "
                  "(frequency slope fixed at 2)", file=sys.stderr)
        fits[kind] = report

    report_doc = {**head,
                  "models": {kind: _fit_report_dict(rep) for kind, rep in fits.items()}}
    outputs = {
        args.out_dir / "fit_report.json": functools.partial(_write_json, report_doc),
        args.out_dir / "model_curves.csv": _model_curves_csv(ds, fits),
    }
    _write_outputs(outputs)
    return EXIT_OK


def _model_curves_csv(ds: Dataset, fits: dict[str, FitReport]) -> bytes:
    """Mean path loss vs distance per frequency for each fitted model,
    alongside the free-space reference: one table, frequency by frequency."""
    grid = np.logspace(0.0, np.log10(float(ds.arrays()[1].max())), CURVE_POINTS)
    f, d = np.repeat(ds.frequencies, grid.size), np.tile(grid, len(ds.frequencies))
    header = ["frequency_ghz", "distance_m", "fspl_db"] + [f"{kind}_db" for kind in fits]
    columns = [float_texts(f), float_texts(d), float_texts(fspl(f, d))]
    for report in fits.values():
        # blank below the model's reference distance (1 m unless fitted)
        valid, column = d >= report.params.d0, np.full(d.size, "", dtype=object)
        column[valid] = float_texts(evaluate(report.params, f[valid], d[valid]))
        columns.append(column.tolist())
    return _csv_text(header, zip(*columns))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    ds, head, split_spec = _prepare(args, sweep=True)
    if args.split == "frequency-loo" and args.hold_out not in (None, *ds.frequencies):
        raise ConfigError(f"--hold-out {args.hold_out} GHz is not in the data; "
                          f"frequencies present: {list(ds.frequencies)}")
    if args.split == "distance-close" and args.d_max is None:
        split_spec = dataclasses.replace(split_spec, d_max=_scenario_d_max(ds))

    report = run_sweep(ds, split_spec, args.models,
                       f0=args.f0, d0_bounds=tuple(args.d0_bounds))

    report_doc = {
        **head,
        "split": {"kind": split_spec.kind, **dataclasses.asdict(split_spec)},
        "models": list(args.models),
        "points": _sweep_points_doc(report),
        "parameter_ranges": [
            {"model": r.model, "param": r.name, "low": r.low,
             "high": r.high, "width": r.width}
            for r in parameter_trace(report)
        ],
    }
    outputs = {
        args.out_dir / "sweep_report.json": functools.partial(_write_json, report_doc),
        args.out_dir / "sweep_trace.csv": _sweep_trace_csv(report),
    }
    _write_outputs(outputs)
    return EXIT_OK


# Sweep flag -> the one split that reads it; on any other split the flag is
# an error rather than silently ignored. --delta-grid stays accepted with
# frequency-loo, which ignores it, so one command line can drive every split.
_SPLIT_FLAGS = {"--d-max": "distance-close", "--d-min": "distance-far",
                "--hold-out": "frequency-loo"}


def _split_spec(args: argparse.Namespace) -> SplitSpec:
    for flag, split in _SPLIT_FLAGS.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.split != split:
            raise ConfigError(f"{flag} does not apply to --split {args.split}")
    if args.split == "frequency-loo":
        return FrequencyLOO(args.hold_out)
    # the split's defaults where no flag is given; without --d-max, cmd_sweep
    # sets d_max from the data's scenario
    rule = DistanceClose if args.split == "distance-close" else DistanceFar
    given = {"d_max": args.d_max, "d_min": args.d_min, "delta_grid": args.delta_grid}
    try:
        return rule(**{k: v for k, v in given.items() if v is not None})
    except SweepError as exc:  # malformed grid or cutoff is a config problem
        raise ConfigError(str(exc)) from exc


def _scenario_d_max(ds: Dataset) -> float:
    """The default close-in cutoff of the scenarios present in ``ds``
    (sensitivity.DEFAULT_D_MAX; UMa's 200 m for a scenario without one)."""
    names = {ds.labels[code][0].name for code in np.unique(ds.codes).tolist()}
    d_max = {name: DEFAULT_D_MAX.get(name, DEFAULT_D_MAX["UMa"]) for name in sorted(names)}
    if len(set(d_max.values())) > 1:
        cutoffs = ", ".join(f"{name} {value:g} m" for name, value in d_max.items())
        raise ConfigError(f"the data mixes scenarios with different default d_max "
                          f"({cutoffs}); pass --d-max")
    return next(iter(d_max.values()), DEFAULT_D_MAX["UMa"])


def _sweep_points_doc(report: PredictionReport) -> list[dict]:
    """Each sweep point as a JSON object, read off the report's columns."""
    docs = []
    for point, (n_meas, n_pred, n_gap), reason, models in report.table():
        docs.append({"point": point, "n_meas": n_meas, "n_pred": n_pred, "n_gap": n_gap,
                     "skipped": reason is not None})
        docs[-1].update({"skip_reason": reason} if reason is not None else {"models": {
            model: {"params": {"kind": kind, **values}, "measurement_sigma_db": measured,
                    "prediction_sigma_db": predicted, "flags": list(flags)}
            for model, kind, values, flags, measured, predicted in models}})
    return docs


def _sweep_trace_csv(report: PredictionReport) -> bytes:
    """One row per (fitted point, model, parameter) and one per skipped point;
    each float column is formatted whole by :func:`float_texts`."""
    header = ["sweep_point", "model", "param", "value", "measurement_sigma",
              "prediction_sigma", "n_meas", "n_pred", "skipped"]
    rows = []
    for point, counts, reason, models in report.table(float_texts):
        n_meas, n_pred = str(counts[0]), str(counts[1])
        if reason is not None:
            rows.append([point, "", "", "", "", "", n_meas, n_pred, "true"])
        rows += ([point, model, name, value, measured, predicted, n_meas, n_pred, "false"]
                 for model, _, values, _, measured, predicted in models
                 for name, value in values.items())
    return _csv_text(header, rows)


# ---------------------------------------------------------------------------
# generate / preprocess / fspl
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    spec = load_spec(_existing(args.spec, "spec"))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    _write_outputs({Path(args.out): functools.partial(write_csv, generate(spec))})
    return EXIT_OK


def cmd_preprocess(args: argparse.Namespace) -> int:
    in_path = _existing(args.input)
    settings = _preprocess_settings(args)
    result = preprocess_apply(load_csv(in_path), settings)
    _write_outputs({Path(args.out): functools.partial(write_csv, result.dataset)})
    print(f"kept {len(result.dataset)} of {result.n_input} samples "
          f"({result.removed_by_threshold} over threshold)", file=sys.stderr)
    return EXIT_OK


def cmd_fspl(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.frequency) and math.isfinite(args.distance)):
        raise ConfigError(f"fspl needs finite numbers, got frequency {args.frequency} "
                          f"and distance {args.distance}")
    print(f"{fspl(args.frequency, args.distance):.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_f0(text: str) -> float | str:
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("--f0 expects 'auto' or a number in GHz")
    return value


def _parse_models(text: str) -> tuple[str, ...]:
    kinds = tuple(dict.fromkeys(part.strip() for part in text.split(",") if part.strip()))
    unknown = [k for k in kinds if k not in FITTER_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown model(s) {', '.join(unknown)}; choose from {', '.join(FITTER_KINDS)}")
    if not kinds:
        raise argparse.ArgumentTypeError("--models needs at least one model")
    return kinds


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("--delta-grid expects comma-separated numbers")


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", type=Path, help="measurement CSV")
    sub.add_argument("--synthetic", type=Path, help="synthetic campaign spec (JSON)")
    sub.add_argument("--seed", type=int, help="override the synthetic spec's seed")
    sub.add_argument("--out-dir", type=Path, default=Path("."),
                     help="directory for report files (default: current)")
    sub.add_argument("--models", type=_parse_models, default=DEFAULT_MODELS,
                     help="comma-separated models: abg, ab, ci, ci_opt, cif")
    sub.add_argument("--f0", type=_parse_f0, default="auto",
                     help="CIF balance frequency in GHz, or 'auto' (weighted mean)")
    sub.add_argument("--d0-bounds", nargs=2, type=float, metavar=("LO", "HI"),
                     default=D0_BOUNDS_DEFAULT,
                     help="search bounds for the optimized reference distance")


def _add_preprocess_flags(sub: argparse.ArgumentParser) -> None:
    defaults = PreprocessSettings()  # the flags' defaults are its fields'
    sub.add_argument("--bin-width", type=float, default=defaults.bin_width,
                     help=f"distance bin width in meters (default {defaults.bin_width:g})")
    sub.add_argument("--threshold-margin", type=float, default=defaults.threshold_margin,
                     help=f"cut samples above FSPL(f, 1 m) + margin dB "
                          f"(default {defaults.threshold_margin:g})")
    sub.add_argument("--no-binning", action="store_true", help="disable distance binning")
    sub.add_argument("--no-threshold", action="store_true", help="disable the loss threshold")
    sub.add_argument("--bin-average", choices=BIN_AVERAGE_MODES, default=defaults.bin_average,
                     help="average bins in dB (default) or linear power")


def _preprocess_settings(args: argparse.Namespace) -> PreprocessSettings:
    try:
        return PreprocessSettings(bin_width=args.bin_width,
                                  threshold_margin=args.threshold_margin,
                                  binning_enabled=not args.no_binning,
                                  threshold_enabled=not args.no_threshold,
                                  bin_average=args.bin_average)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """A parser whose malformed command line raises ConfigError: one ``error:``
    line from main, no usage block (subparsers take the same class)."""

    def error(self, message: str):
        raise ConfigError(message)


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pathlossfit",
        description="Fit and compare multi-frequency path loss models "
                    "(ABG/AB, CI, CI-opt, CIF)")
    parser.add_argument("--version", action="version",
                        version=f"pathlossfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="preprocess and fit the selected models")
    _add_input_flags(fit)
    _add_preprocess_flags(fit)
    fit.set_defaults(func=cmd_fit)

    sweep = sub.add_parser("sweep", help="measurement/prediction sensitivity sweep")
    _add_input_flags(sweep)
    _add_preprocess_flags(sweep)
    sweep.add_argument("--split", required=True,
                       choices=("distance-close", "distance-far", "frequency-loo"))
    sweep.add_argument("--d-max", type=float,
                       help="close-in cutoff in meters (default by the data's "
                            "scenario: UMiSC 50, InHOffice 15, any other 200)")
    sweep.add_argument("--d-min", type=float,
                       help="far cutoff in meters (default 600)")
    sweep.add_argument("--delta-grid", type=_parse_grid,
                       help="comma-separated gap widths in meters")
    sweep.add_argument("--hold-out", type=float,
                       help="hold out a single frequency (GHz); default all in turn")
    sweep.set_defaults(func=cmd_sweep)

    gen = sub.add_parser("generate", help="draw a synthetic campaign CSV from a spec")
    gen.add_argument("--spec", required=True, help="synthetic spec JSON file")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.add_argument("--seed", type=int, help="override the spec's seed")
    gen.set_defaults(func=cmd_generate)

    pre = sub.add_parser("preprocess", help="threshold and bin a measurement CSV")
    pre.add_argument("--input", required=True, help="measurement CSV")
    pre.add_argument("--out", required=True, help="output CSV path")
    _add_preprocess_flags(pre)
    pre.set_defaults(func=cmd_preprocess)

    fs = sub.add_parser("fspl", help="print free-space path loss in dB")
    fs.add_argument("frequency", type=float, help="carrier frequency in GHz")
    fs.add_argument("distance", type=float, help="distance in meters")
    fs.set_defaults(func=cmd_fspl)

    return parser


# Error class -> exit code. OSError covers an unreadable input or an
# unwritable output directory.
_EXIT_CODES = {ConfigError: EXIT_CONFIG, IngestError: EXIT_CONFIG, OSError: EXIT_CONFIG,
               BinWidthError: EXIT_CONFIG, SweepError: EXIT_DEGENERATE, FitError: EXIT_RUNTIME,
               DomainError: EXIT_RUNTIME}


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # every warning shown is one line, and a UserWarning is shown each time it
        # is raised; other kinds keep their filters (pytest makes RuntimeWarnings errors)
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except tuple(_EXIT_CODES) as exc:
            # one line, even where the message quotes a newline of the input
            print(f"error: {exc}".replace("\n", "\\n"), file=sys.stderr)
            return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
