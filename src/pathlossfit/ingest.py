"""CSV ingestion/serialization and a seeded synthetic campaign generator.

CSV schema (UTF-8, optional byte order mark, comma separated, header required)::

    frequency_ghz,distance_m,path_loss_db,scenario,environment,campaign

with scenario in {UMa, UMiSC, InHOffice, InHSM, Other:<label>} and
environment in {LOS, NLOS}. Extra columns are ignored with a warning.

The generator is reproducible across implementations: it draws uniforms from
a counter-based splitmix64 stream and maps them through the inverse normal
CDF (see :func:`counter_uniform` and :func:`generate`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Sequence

import numpy as np
import orjson

from .domain import (
    Dataset,
    DomainError,
    Environment,
    ModelParams,
    OTHER,
    Scenario,
    evaluate,
    first_violation,
    params_from_dict,
    params_to_dict,
)

CSV_COLUMNS = ("frequency_ghz", "distance_m", "path_loss_db",
               "scenario", "environment", "campaign")

DISTANCE_LAWS = ("log-uniform", "uniform")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_STD_NORMAL = NormalDist()


class IngestError(ValueError):
    """A measurement file or synthetic spec could not be read."""


# ---------------------------------------------------------------------------
# CSV reading / writing
# ---------------------------------------------------------------------------

def load_csv(path: str | Path) -> Dataset:
    """Parse a measurement CSV into a validated dataset.

    Any row violating the sample invariants (f > 0 GHz, d >= 1 m, finite
    loss) aborts the load with a diagnostic naming the first bad file line.
    A leading UTF-8 byte order mark is skipped; text that is not UTF-8 is an
    IngestError naming the file. Text without quotes or CRs whose lines all
    hold as many fields as the header is split in bulk; any other text is
    read row by row with the ``csv`` module, with the same result. Each float
    column is parsed by one orjson call, falling back to ``float`` per field
    (see :func:`_floats`); no input changes its values or its diagnostic.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # csv.reader takes lines lazily from the bytes, as from a file, so it reads
    # text that is split in bulk only up to the end of its header.
    rows = _rows(csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                                             newline="")), path)
    try:
        header = [h.strip() for h in next(rows)]
    except StopIteration:
        raise IngestError(f"{path}: empty file (missing header)") from None
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise IngestError(f"{path}: missing column(s) {', '.join(missing)}")
    duplicate = [c for c in CSV_COLUMNS if header.count(c) > 1]
    if duplicate:
        raise IngestError(f"{path}: duplicate column(s) {', '.join(duplicate)}")
    extra = [c for c in header if c not in CSV_COLUMNS]
    if extra:
        warnings.warn(f"{path}: ignoring extra column(s) {', '.join(extra)}")

    # Each check notes its first bad row as (row, check order, message). The
    # earliest row wins, then the earlier check. Data row i is file line i + 2.
    problems: list[tuple[int, int, str]] = []
    columns = _plain_columns(text, len(header))
    if columns is None:
        rows = list(rows)
        widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        short = np.flatnonzero(widths < len(header))
        if short.size:
            row = int(short[0])
            problems.append((row, 0, f"expected {len(header)} columns, got {len(rows[row])}"))
            rows = rows[:row]
        columns = list(zip(*rows)) or [()] * len(header)
    fields = {c: columns[header.index(c)] for c in CSV_COLUMNS}

    numbers = [_floats(fields[column], column, order, problems)
               for order, column in enumerate(CSV_COLUMNS[:3], start=1)]
    codes, labels = _labels(fields, problems)
    for order, (name, values) in enumerate(zip(_SAMPLE_COLUMNS, numbers), start=5):
        problem = first_violation(name, values)
        if problem is not None:
            problems.append((problem[0], order, problem[1]))
    if problems:
        row, _, message = min(problems)
        raise IngestError(f"{path} line {row + 2}: {message}")
    return Dataset.from_columns(*numbers, codes, labels)


def _plain_columns(text: str, width: int) -> list[list[str]] | None:
    """The data columns of text with no quote or CR whose lines all hold
    ``width`` fields, by one split; None for any other text.

    Each newline stays at the start of the field after it, for the float
    parse and the label strip to drop. Every line has ``width`` fields exactly
    when there are lines x width fields and every ``width``-th one, the first
    column, starts a line.
    """
    if '"' in text or "\r" in text:
        return None
    body = text.removesuffix("\n")
    split = body.replace("\n", ",\n")
    lines = len(split) - len(body) + 1  # one comma is added per newline
    fields = split.split(",")
    if len(fields) != lines * width:
        return None
    columns = [fields[width + k::width] for k in range(width)]
    return columns if "".join(columns[0]).count("\n") == lines - 1 else None


def _rows(reader, path: Path):
    """The reader's rows; a field over ``csv.field_size_limit()`` is an IngestError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path} line {reader.line_num}: {exc}") from None


_SAMPLE_COLUMNS = ("frequency", "distance", "path_loss")
_JSON_NUMBERS = frozenset({float, int})  # the item types orjson gives JSON numbers


def _floats(texts: Sequence[str], column: str, order: int, problems: list) -> np.ndarray:
    """The parsed values; on a bad one, only those before it, and a problem noted.

    The column is parsed as one JSON array by orjson. The result is kept when
    it holds one number per field: no field then holds a comma, so each holds
    one JSON number between JSON whitespace, whose value ``float`` also
    gives. Integer items are re-read by ``float``, which keeps the sign of
    ``-0``. Any other column (text such as ``1_0``, ``.5``, ``nan``, ``true``,
    ``"1"`` or an empty field) is read field by field by ``float``, which
    gives the same values and stops at the first bad one, naming it.
    """
    try:
        items = orjson.loads(f"[{','.join(texts)}]")
    except orjson.JSONDecodeError:
        items = None
    if items is not None and len(items) == len(texts):
        kinds = set(map(type, items))
        if kinds <= _JSON_NUMBERS:
            if int in kinds:
                items = [float(t) if type(v) is int else v for v, t in zip(items, texts)]
            return np.fromiter(items, dtype=np.float64, count=len(items))
    del items  # not kept through the per-field pass
    values = []
    for text in texts:
        try:
            values.append(float(text))
        except ValueError:
            problems.append((len(values), order, f"unparsable {column} value {text.strip()!r}"))
            break
    return np.array(values, dtype=float)


def _labels(text: dict, problems: list) -> tuple[np.ndarray, tuple]:
    """Each row's label code and the distinct labels; on a bad label, a problem noted.

    Rows are coded by their three label texts; a file whose label columns
    each repeat one text codes every row 0 without hashing the rows.
    """
    columns = [text["scenario"], text["environment"], text["campaign"]]
    index: dict[tuple[str, str, str], int] = {}
    if columns[0] and all(c.count(c[0]) == len(c) for c in columns):
        index[tuple(c[0] for c in columns)] = 0
        raw = np.zeros(len(columns[0]), dtype=np.intp)
    else:
        raw = np.array([index.setdefault(key, len(index)) for key in zip(*columns)],
                       dtype=np.intp)
    labels: dict[tuple, int] = {}
    remap = []
    for code, (scenario, environment, campaign) in enumerate(index):
        try:
            label = (Scenario.parse(scenario.strip()), Environment(environment.strip()),
                     campaign.strip())
        except (DomainError, ValueError) as exc:
            problems.append((int(np.argmax(raw == code)), 4, str(exc)))
            return raw, ()
        remap.append(labels.setdefault(label, len(labels)))
    return np.array(remap, dtype=np.intp)[raw], tuple(labels)


def needs_repr(values: np.ndarray) -> np.ndarray:
    """Where orjson's text of a float64 value differs from ``repr``: orjson's
    equals ``repr`` for 0 and 1e-4 <= |v| < 1e16, not for exponent forms, NaN
    and the infinities."""
    magnitude = np.abs(values)
    return (values != 0.0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))


def float_texts(values) -> list[str]:
    """``repr(float(v))`` for each value of a float64 array, formatted by orjson;
    the :func:`needs_repr` values are re-rendered with ``repr``."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for i in np.flatnonzero(needs_repr(values)):
        texts[i] = repr(float(values[i]))
    return texts if values.size else []


CSV_CHUNK = 8192  # rows formatted per write in write_csv


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write the canonical CSV form: shortest round-trip float text, LF endings.

    Each chunk of ``CSV_CHUNK`` rows has its (rows, 3) float block printed by
    one orjson dump and split into rows; a row holding a :func:`needs_repr`
    value is printed with ``repr`` instead, so every float is written as
    ``repr`` writes it. Each label's fields are rendered once by
    ``csv.writer``, with a CRLF terminator so that a field holding a lone CR
    is quoted too.
    """
    tails = []
    for scenario, environment, campaign in ds.labels:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(
            ("", str(scenario), environment.value, campaign))
        tails.append(buffer.getvalue()[:-2] + "\n")  # ",scenario,environment,campaign\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(ds), CSV_CHUNK):
            rows = slice(start, start + CSV_CHUNK)
            block = np.column_stack((ds.frequency[rows], ds.distance[rows], ds.path_loss[rows]))
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)  # b"[[f,d,l],[...]]"
            lines = text[2:-2].decode().split("],[")
            for i in np.flatnonzero(needs_repr(block).any(axis=1)):
                lines[i] = ",".join(map(repr, block[i].tolist()))
            fh.write("".join(map(str.__add__, lines,
                                 map(tails.__getitem__, ds.codes[rows].tolist()))))


# ---------------------------------------------------------------------------
# Counter-based uniform stream (splitmix64) and synthetic generation
# ---------------------------------------------------------------------------

def counter_uniforms(seed: int, index) -> np.ndarray:
    """Uniforms number ``index`` (an array of nonnegative integers) of the
    seeded stream, each strictly inside (0, 1).

    Word ``i`` is the splitmix64 finalizer applied to
    ``(seed + (i+1) * 0x9E3779B97F4A7C15) mod 2^64``; the top 53 bits,
    offset by half a ulp, give the uniform. Pure 64-bit integer arithmetic,
    so any implementation reproduces the stream bit-for-bit; numpy's uint64
    array arithmetic wraps mod 2^64.
    """
    z = np.uint64(seed) + (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return ((z >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53


def counter_uniform(seed: int, index: int) -> float:
    """The index-th uniform of the seeded stream (see :func:`counter_uniforms`)."""
    return float(counter_uniforms(seed, [index])[0])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic measurement campaign.

    ``frequencies`` holds (frequency GHz, sample count) pairs; distances are
    drawn per ``distance_law`` over ``distance_range``; shadowing is IID
    zero-mean Gaussian with standard deviation ``sigma`` dB. Counts and the
    seed must be ints (not bools), the campaign a str, and frequencies, range
    ends, sigma and truth values finite numbers, whoever builds the spec.
    """

    truth: ModelParams
    frequencies: tuple[tuple[float, int], ...]
    distance_range: tuple[float, float]
    sigma: float
    seed: int
    distance_law: str = "log-uniform"
    scenario: Scenario = OTHER
    environment: Environment = Environment.NLOS
    campaign: str = "synthetic"

    def __post_init__(self) -> None:
        for name, value in vars(self.truth).items():
            _number(value, f"truth {name}")
        object.__setattr__(self, "frequencies", tuple(
            (_number(f, "frequency_ghz"), _typed(c, int, "count")) for f, c in self.frequencies))
        object.__setattr__(self, "distance_range", tuple(
            _number(v, "distance_range") for v in self.distance_range))
        object.__setattr__(self, "sigma", _number(self.sigma, "sigma"))
        _typed(self.seed, int, "seed")
        _typed(self.campaign, str, "campaign")
        if not self.frequencies:
            raise IngestError("synthetic spec needs at least one frequency")
        for f, count in self.frequencies:
            if f <= 0:
                raise IngestError(f"synthetic frequency must be > 0 GHz, got {f}")
            if count <= 0:
                raise IngestError(f"synthetic sample count must be > 0, got {count}")
        d_lo, d_hi = self.distance_range
        if not (1.0 <= d_lo <= d_hi):
            raise IngestError(f"distance_range must satisfy 1 <= lo <= hi, "
                              f"got {self.distance_range}")
        if self.sigma < 0:
            raise IngestError(f"sigma must be >= 0 dB, got {self.sigma}")
        if not (0 <= self.seed < 2 ** 64):
            raise IngestError("seed must be an unsigned 64-bit integer")
        if self.distance_law not in DISTANCE_LAWS:
            raise IngestError(f"distance_law must be one of {DISTANCE_LAWS}")


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw the synthetic campaign described by ``spec``, deterministically.

    Sample i (counted across the frequency entries in order) uses stream
    uniforms 2i for its distance and 2i+1 for its shadowing draw; shadowing
    is sigma times the inverse standard normal CDF of the uniform.
    """
    d_lo, d_hi = spec.distance_range
    counts = [count for _, count in spec.frequencies]
    sample = np.arange(sum(counts))
    u_dist = counter_uniforms(spec.seed, 2 * sample)
    u_shad = counter_uniforms(spec.seed, 2 * sample + 1)
    if spec.distance_law == "log-uniform":
        distance = d_lo * (d_hi / d_lo) ** u_dist
    else:
        distance = d_lo + (d_hi - d_lo) * u_dist
    noise = spec.sigma * np.array([_STD_NORMAL.inv_cdf(u) for u in u_shad.tolist()])
    mean = [evaluate(spec.truth, freq, part) for (freq, _), part
            in zip(spec.frequencies, np.split(distance, np.cumsum(counts)[:-1]))]
    frequency = np.repeat([freq for freq, _ in spec.frequencies], counts)
    return Dataset.from_columns(frequency, distance, np.concatenate(mean) + noise,
                                labels=((spec.scenario, spec.environment, spec.campaign),))


# ---------------------------------------------------------------------------
# Synthetic spec JSON form (used by the CLI)
# ---------------------------------------------------------------------------

def spec_to_dict(spec: SyntheticSpec) -> dict:
    return {
        "truth": params_to_dict(spec.truth),
        "frequencies": [{"frequency_ghz": f, "count": c} for f, c in spec.frequencies],
        "distance_range": list(spec.distance_range),
        "sigma": spec.sigma,
        "seed": spec.seed,
        "distance_law": spec.distance_law,
        "scenario": str(spec.scenario),
        "environment": spec.environment.value,
        "campaign": spec.campaign,
    }


def _number(value, name: str) -> float:
    """A finite number (an int or float, not a bool) as a float; else a bad spec."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise IngestError(f"bad synthetic spec: {name} must be a finite number, got {value!r}")
    return float(value)


def _typed(value, kind: type, name: str):
    """``value`` if its type is exactly ``kind`` (a bool is no int); else a bad spec."""
    if type(value) is not kind:
        raise IngestError(f"bad synthetic spec: {name} must be a JSON {kind.__name__}, "
                          f"got {value!r}")
    return value


def spec_from_dict(data: dict) -> SyntheticSpec:
    """The spec of its JSON form; a malformed value is a "bad synthetic spec"."""
    try:
        return SyntheticSpec(
            truth=params_from_dict(data["truth"]),
            frequencies=tuple((entry["frequency_ghz"], entry["count"])
                              for entry in data["frequencies"]),
            distance_range=data["distance_range"],
            sigma=data["sigma"],
            seed=data["seed"],
            distance_law=data.get("distance_law", "log-uniform"),
            scenario=Scenario.parse(_typed(data.get("scenario", "Other"), str, "scenario")),
            environment=Environment(data.get("environment", "NLOS")),
            campaign=data.get("campaign", "synthetic"),
        )
    except IngestError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IngestError(f"bad synthetic spec: {exc}") from exc


def load_spec(path: str | Path) -> SyntheticSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: invalid JSON ({exc})") from exc
    return spec_from_dict(data)
