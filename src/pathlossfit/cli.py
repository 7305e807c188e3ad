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
import math
import os
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
    param_values,
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
                     write_csv)
from .preprocess import (BIN_AVERAGE_MODES, BinWidthError, PreprocessSettings,
                         apply as preprocess_apply)
from .sensitivity import (
    DEFAULT_D_MAX,
    DistanceClose,
    DistanceFar,
    FrequencyLOO,
    PredictionReport,
    SplitSpec,
    SweepError,
    default_close_spec,
    default_far_spec,
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


def _write_outputs(files: dict[Path, str | Callable[[Path], None]]) -> None:
    """Stage every output to a temp file, then rename all (atomic per file).

    Each value is the file's text, or a function that writes the file to the
    path it is given.
    """
    staged = []
    try:
        for path, content in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            staged.append((tmp, path))
            if callable(content):
                content(tmp)
            else:
                tmp.write_text(content, encoding="utf-8")
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's, by repr


def _json_text(obj) -> str:
    """The bytes of the stdlib JSON encoder with indent 2, sorted keys and a
    final newline. A 1-D float64 array (a residual column) is printed by one
    orjson dump when no value :func:`needs_repr`, else by :func:`float_texts`;
    any other float by ``float.__repr__``."""
    out: list[str] = []
    _emit_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit_json(obj, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``obj``; ``newline`` starts a line at its indent."""
    inner = newline + "  "
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, float)):
        text = (int if isinstance(obj, int) else float).__repr__(obj)
        out.append(_JSON_NONFINITE.get(text, text))
    elif isinstance(obj, dict) and obj:
        for i, key in enumerate(sorted(obj)):
            out += ("," if i else "{", inner, encode_basestring_ascii(key), ": ")
            _emit_json(obj[key], inner, out)
        out += (newline, "}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64:
        if needs_repr(obj).any():
            texts = float_texts(obj)
            if not np.isfinite(obj).all():
                texts = [_JSON_NONFINITE.get(text, text) for text in texts]
            body = ("," + inner).join(texts)
        else:
            body = orjson.dumps(np.ascontiguousarray(obj), option=orjson.OPT_SERIALIZE_NUMPY)
            body = body[1:-1].decode().replace(",", "," + inner)
        out += ("[", inner, body, newline, "]") if obj.size else ("[]",)
    elif isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            out += ("," if i else "[", inner)
            _emit_json(item, inner, out)
        out += (newline, "]")
    elif isinstance(obj, (dict, list, tuple)):
        out.append("{}" if isinstance(obj, dict) else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _csv_text(header, rows) -> str:
    """CSV text of rows whose fields never need quoting (numbers, names, blanks)."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


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
        args.out_dir / "fit_report.json": _json_text(report_doc),
        args.out_dir / "model_curves.csv": _model_curves_csv(ds, fits),
    }
    _write_outputs(outputs)
    return EXIT_OK


def _model_curves_csv(ds: Dataset, fits: dict[str, FitReport]) -> str:
    """Mean path loss vs distance per frequency for each fitted model,
    alongside the free-space reference."""
    _, d, _ = ds.arrays()
    grid = np.logspace(0.0, np.log10(float(d.max())), CURVE_POINTS)
    header = ["frequency_ghz", "distance_m", "fspl_db"] + [f"{kind}_db" for kind in fits]
    rows = []
    for freq in ds.frequencies:
        columns = [float_texts(np.full(grid.size, freq)), float_texts(grid),
                   float_texts(fspl(freq, grid))]
        for report in fits.values():
            # blank below the model's reference distance (1 m unless fitted)
            valid = grid >= getattr(report.params, "d0", 1.0)
            columns.append([""] * int(np.count_nonzero(~valid))
                           + float_texts(evaluate(report.params, freq, grid[valid])))
        rows += zip(*columns)
    return _csv_text(header, rows)


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
    trace = parameter_trace(report)

    report_doc = {
        **head,
        "split": {"kind": split_spec.kind, **dataclasses.asdict(split_spec)},
        "models": list(args.models),
        "points": [_sweep_point_dict(p) for p in report.points],
        "parameter_ranges": [
            {"model": r.model, "param": r.name, "low": r.low,
             "high": r.high, "width": r.width}
            for r in trace.ranges
        ],
    }
    outputs = {
        args.out_dir / "sweep_report.json": _json_text(report_doc),
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
    grid = args.delta_grid
    try:
        if args.split == "distance-close":
            # without --d-max, cmd_sweep sets d_max from the data's scenario
            default = default_close_spec("UMa")
            return DistanceClose(default.d_max if args.d_max is None else args.d_max,
                                 default.delta_grid if grid is None else grid)
        if args.split == "distance-far":
            default = default_far_spec()
            return DistanceFar(default.d_min if args.d_min is None else args.d_min,
                               default.delta_grid if grid is None else grid)
        if args.split == "frequency-loo":
            return FrequencyLOO(args.hold_out)
    except SweepError as exc:  # malformed grid or cutoff is a config problem
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown split {args.split!r}")


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


def _sweep_point_dict(point) -> dict:
    doc = {"point": point.point, "n_meas": point.n_meas, "n_pred": point.n_pred,
           "n_gap": point.n_gap, "skipped": point.skipped}
    if point.skipped:
        doc["skip_reason"] = point.skip_reason
        return doc
    doc["models"] = {
        entry.model: {"params": params_to_dict(entry.params),
                      "measurement_sigma_db": entry.measurement_sigma,
                      "prediction_sigma_db": entry.prediction_sigma,
                      "flags": list(entry.flags)}
        for entry in point.models
    }
    return doc


def _sweep_trace_csv(report: PredictionReport) -> str:
    header = ["sweep_point", "model", "param", "value", "measurement_sigma",
              "prediction_sigma", "n_meas", "n_pred", "skipped"]
    rows = []
    for point in report.points:
        if point.skipped:
            rows.append([point.point, "", "", "", "", "",
                         point.n_meas, point.n_pred, "true"])
            continue
        for entry in point.models:
            for name, value in param_values(entry.params).items():
                rows.append([point.point, entry.model, name, value,
                             entry.measurement_sigma, entry.prediction_sigma,
                             point.n_meas, point.n_pred, "false"])
    texts = iter(float_texts([v for row in rows for v in row if type(v) is float]))
    return _csv_text(header, ([next(texts) if type(v) is float else v for v in row]
                              for row in rows))


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
    sub.add_argument("--models", type=_parse_models, default=("abg", "ci", "cif"),
                     help="comma-separated models: abg, ab, ci, ci_opt, cif")
    sub.add_argument("--f0", type=_parse_f0, default="auto",
                     help="CIF balance frequency in GHz, or 'auto' (weighted mean)")
    sub.add_argument("--d0-bounds", nargs=2, type=float, metavar=("LO", "HI"),
                     default=D0_BOUNDS_DEFAULT,
                     help="search bounds for the optimized reference distance")


def _add_preprocess_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bin-width", type=float, default=2.0,
                     help="distance bin width in meters (default 2)")
    sub.add_argument("--threshold-margin", type=float, default=100.0,
                     help="cut samples above FSPL(f, 1 m) + margin dB (default 100)")
    sub.add_argument("--no-binning", action="store_true", help="disable distance binning")
    sub.add_argument("--no-threshold", action="store_true", help="disable the loss threshold")
    sub.add_argument("--bin-average", choices=BIN_AVERAGE_MODES, default="db",
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


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # every warning shown is one line, and a UserWarning is shown each time it
        # is raised; other kinds keep their filters (pytest makes RuntimeWarnings errors)
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
