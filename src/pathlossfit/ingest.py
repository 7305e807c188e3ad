"""CSV ingestion/serialization and a seeded synthetic campaign generator.

CSV schema (UTF-8, optional byte order mark, comma separated, header required)::

    frequency_ghz,distance_m,path_loss_db,scenario,environment,campaign

with scenario in {UMa, UMiSC, InHOffice, InHSM, Other:<label>} and
environment in {LOS, NLOS}. Extra columns are ignored with a warning. A file
in this column order with no quote or CR is parsed in chunks of rows, any
other by the ``csv`` module in one pass over its rows (see :func:`load_csv`).

The generator is reproducible across implementations: it draws uniforms from
a counter-based splitmix64 stream and maps them through the inverse normal
CDF (see :func:`counter_uniforms` and :func:`generate`).
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from statistics import _normal_dist_inv_cdf  # private; test_ingest pins it to NormalDist.inv_cdf

import numpy as np
import orjson

from .domain import (
    Dataset,
    DomainError,
    Environment,
    MODEL_KINDS,
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
_HEADER_NAMES = [name.encode() for name in CSV_COLUMNS]

DISTANCE_LAWS = ("log-uniform", "uniform")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


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
    IngestError naming the file. A file whose first line's bytes name
    CSV_COLUMNS in order, with no quote or CR and six fields a row, is parsed
    in chunks of rows, undecoded, with any number of labels (:func:`_chunked`).
    Any other text, or a bad value, is read by the ``csv`` module in one pass
    over the rows, each checked in turn for its width, its three numbers by
    ``float`` and its label; the first row that fails ends the pass, and a
    sample rule broken in an earlier row is named before it. Neither path
    changes a diagnostic.
    """
    path = Path(path)
    data = path.read_bytes()
    if (dataset := _chunked(data)) is not None:
        return dataset
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
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

    # imported here, not with the module: loading its shared library at import
    # shifts the heap's layout, which raised a 1M-row chunked load's peak by 5%
    from array import array

    at = [header.index(c) for c in CSV_COLUMNS]
    numbers = [(column, j, array("d")) for column, j in zip(CSV_COLUMNS[:3], at)]
    codes, index, labels = array("q"), {}, {}  # label texts' codes; the labels they name
    problem = None  # of the first row that fails, which ends the pass
    for row in rows:
        if len(row) < len(header):
            problem = f"expected {len(header)} columns, got {len(row)}"
            break
        try:
            for column, j, values in numbers:
                values.append(float(row[j]))
        except ValueError:
            problem = f"unparsable {column} value {row[j].strip()!r}"
            break
        texts = row[at[3]], row[at[4]], row[at[5]]
        if (code := index.get(texts)) is None:
            try:
                code = index[texts] = labels.setdefault(_label(*texts), len(labels))
            except ValueError as exc:  # DomainError too
                problem = str(exc)
                break
        codes.append(code)
    for _ in rows:  # a csv error in a later row is named first
        pass
    columns = [np.frombuffer(values)[:len(codes)] for _, _, values in numbers]
    problems = [found for name, values in zip(("frequency", "distance", "path_loss"), columns)
                if (found := first_violation(name, values)) is not None]
    if problem is not None:
        problems.append((len(codes), problem))
    if problems:  # a sample rule broken in an earlier row, then the earlier column, wins
        row, message = min(problems, key=lambda found: found[0])
        raise IngestError(f"{path} line {row + 2}: {message}")
    return Dataset.from_columns(*columns, codes, tuple(labels))


def _chunked(data: bytes) -> Dataset | None:
    """The dataset of CSV bytes, parsed ``LOAD_CHUNK`` bytes at a time, cut at
    row ends. Each row is cut at its third comma into numbers (a chunk's are
    one JSON array once rows end ``,\\n``) and a label text coded through one
    dict: by one replace if all rows end with the first row's tail, else at
    each row's third of five commas. Each distinct text is parsed once by
    :func:`_label`, as in :func:`load_csv`'s pass. None unless the first
    line, after an optional BOM, names CSV_COLUMNS in order, each name
    stripped by ``bytes.strip``; and where ``float``, the label check or
    ``csv``'s field limit could differ: a quote or CR, a row not of six
    fields or longer than the limit, a byte outside JSON numbers before its
    tail, a zero (orjson reads ``-0`` as 0), a bad label or sample. So the
    text is UTF-8: the header is ASCII, the rest ASCII or labels."""
    start = data.find(b"\n") + 1  # of the first row
    names = data[:start].removeprefix(codecs.BOM_UTF8).split(b",")
    if [name.strip() for name in names] != _HEADER_NAMES:  # also where no line ends
        return None
    limit = csv.field_size_limit()  # a field over it lies in a row over it
    if start == len(data) or b'"' in data or b"\r" in data:
        return None
    index, values, codes = {}, [], []  # label texts' codes; per chunk, floats and codes
    try:
        while start < len(data):
            stop = data.find(b"\n", start + LOAD_CHUNK - 1) + 1 or len(data)
            chunk = data[start:stop].removesuffix(b"\n") + b"\n"  # the last row's may lack it
            tail = b"," + chunk[:chunk.index(b"\n") + 1].split(b",", 3)[-1]
            rows = chunk.count(b"\n")
            if chunk.count(tail) == rows:  # one label
                flat = chunk.replace(tail, b",\n")
                codes.append(index.setdefault(tail[1:-1], len(index)))
                label = len(tail) - 2  # bytes of each row's label text
            else:
                commas, ends = (np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == c)
                                for c in b",\n")
                if (np.searchsorted(commas, ends) != np.arange(5, 5 * rows + 1, 5)).any():
                    return None  # a row not of five commas
                label = ends - commas[2::5] - 1
                cut = bytearray(chunk)
                np.frombuffer(cut, dtype=np.uint8)[commas[2::5]] = ord("\n")
                pieces = bytes(cut).split(b"\n")  # each row's numbers, then its label text
                flat, texts = b",\n".join(pieces[::2]), pieces[1::2]
                codes.append(np.fromiter((index.setdefault(text, len(index)) for text in texts),
                                         dtype=np.intp, count=rows))
            body = np.frombuffer(flat, dtype=np.uint8)
            commas = np.flatnonzero(body == ord(","))
            if (commas.size != 3 * rows or (body[commas[2::3] + 1] != ord("\n")).any()
                    or flat.translate(None, b"0123456789+-.eE, \t\n")
                    or (np.diff(commas[2::3], prepend=-2) - 1 + label).max() > limit):
                return None
            items = orjson.loads(b"".join((b"[", memoryview(flat)[:-2], b"]")))
            values.append(np.fromiter(items, dtype=np.float64, count=len(items)))
            start = stop
        labels: dict[tuple, int] = {}
        remap = [labels.setdefault(_label(*text.decode().split(",")), len(labels))
                 for text in index]
        codes = None if len(labels) == 1 else np.array(remap, dtype=np.intp)[np.concatenate(
            [np.broadcast_to(c, len(v) // 3) for c, v in zip(codes, values)])]  # built once
        values = np.concatenate(values).reshape(-1, 3)  # no chunk kept while the columns copy
        return Dataset.from_columns(*values.T, codes, tuple(labels)) if values.all() else None
    except (TypeError, ValueError):  # a label not of three texts, or a bad label, sample or JSON
        return None


def _rows(reader, path: Path):
    """The reader's rows; a field over ``csv.field_size_limit()`` is an IngestError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise IngestError(f"{path} line {reader.line_num}: {exc}") from None


def _label(scenario: str, environment: str, campaign: str) -> tuple:
    """The label that a row's three label texts name; a bad one raises ValueError."""
    return Scenario.parse(scenario.strip()), Environment(environment.strip()), campaign.strip()


def needs_repr(values: np.ndarray) -> np.ndarray:
    """Where orjson's text of a float64 value differs from ``repr``: orjson's
    equals ``repr`` for 0 and 1e-4 <= |v| < 1e16, not for exponent forms, NaN
    and the infinities. :func:`not_repr_hits` finds the finite ones in text."""
    magnitude = np.abs(values)
    return (values != 0.0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))


_EXPONENT = re.compile(rb"e[-+]?\d")


def not_repr_hits(text: bytes) -> list[int]:
    """An offset in orjson's text inside each finite :func:`needs_repr` value
    (and maybe in strings): an exponent (1e-7, 1e16; a regex led by a literal)
    or ``.0000`` (1e-5 <= |v| < 1e-4; a plain find, far faster than a regex)."""
    hits = [hit.start() for hit in _EXPONENT.finditer(text)]
    at = text.find(b".0000")
    while at >= 0:
        hits.append(at)
        at = text.find(b".0000", at + 5)
    return hits


def float_texts(values) -> list[str]:
    """``repr(float(v))`` for each value of a float64 array, formatted by orjson;
    the :func:`needs_repr` values are re-rendered with ``repr``."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for i in np.flatnonzero(needs_repr(values)):
        texts[i] = repr(float(values[i]))
    return texts if values.size else []


LOAD_CHUNK = 1 << 18  # bytes of rows parsed per orjson call in _chunked
CSV_CHUNK = 8192  # rows formatted per write in write_csv


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write the canonical CSV form: shortest round-trip float text, LF endings.

    Each chunk of ``CSV_CHUNK`` rows has its (rows, 3) float block printed by
    one orjson dump and split into rows, a row holding a :func:`needs_repr`
    value printed by ``repr`` instead; one join then puts each row's label
    tail after it. Each label's fields are rendered once by ``csv.writer``,
    with a CRLF terminator so that a field holding a lone CR is quoted too.
    """
    tails = []
    for scenario, environment, campaign in ds.labels:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(
            ("", str(scenario), environment.value, campaign))
        tails.append((buffer.getvalue()[:-2] + "\n").encode())  # b",scenario,env,campaign\n"
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_COLUMNS).encode() + b"\n")
        for start in range(0, len(ds), CSV_CHUNK):
            rows = slice(start, start + CSV_CHUNK)
            block = np.column_stack((ds.frequency[rows], ds.distance[rows], ds.path_loss[rows]))
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)  # b"[[f,d,l],[...]]"
            lines = text[2:-2].split(b"],[")
            for i in np.flatnonzero(needs_repr(block).any(axis=1)).tolist():
                lines[i] = ",".join(map(repr, block[i].tolist())).encode()
            codes = ds.codes[rows].tolist()
            if codes.count(codes[0]) == len(codes):
                fh.write(tails[codes[0]].join(lines) + tails[codes[0]])
            else:
                parts = lines * 2
                parts[::2], parts[1::2] = lines, map(tails.__getitem__, codes)
                fh.write(b"".join(parts))


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
    array arithmetic wraps mod 2^64. The offset rounds the top word, 2^53 - 1,
    up to 1.0, which is taken as the float below 1.
    """
    z = np.uint64(seed) + (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.minimum(((z >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53,
                      math.nextafter(1.0, 0.0))


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
        if len(self.distance_range) != 2:
            raise IngestError(f"bad synthetic spec: distance_range must hold two numbers, "
                              f"got {len(self.distance_range)}")
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
    try:
        sample = np.arange(sum(counts))  # empty, not an error, for some counts past 2**63
        frequency = np.repeat([freq for freq, _ in spec.frequencies], counts)
    except (MemoryError, ValueError, OverflowError) as exc:  # more than memory or numpy holds
        raise IngestError(f"bad synthetic spec: {sum(counts)} samples: {exc}") from None
    u_dist = counter_uniforms(spec.seed, 2 * sample)
    u_shad = counter_uniforms(spec.seed, 2 * sample + 1)
    if spec.distance_law == "log-uniform":
        distance = d_lo * (d_hi / d_lo) ** u_dist
    else:
        distance = d_lo + (d_hi - d_lo) * u_dist
    with np.errstate(over="ignore"):  # a DomainError below instead
        noise = spec.sigma * np.fromiter(map(_normal_dist_inv_cdf, u_shad.tolist(), repeat(0.0),
                                             repeat(1.0)), dtype=np.float64, count=u_shad.size)
        path_loss = evaluate(spec.truth, frequency, distance) + noise
    return Dataset.from_columns(frequency, distance, path_loss,
                                labels=((spec.scenario, spec.environment, spec.campaign),))


# ---------------------------------------------------------------------------
# Synthetic spec JSON form (used by the CLI)
# ---------------------------------------------------------------------------

def spec_to_dict(spec: SyntheticSpec) -> dict:
    """The JSON form of ``spec`` that :func:`spec_from_dict` reads; tests write specs with it."""
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


def _truth(data: dict) -> ModelParams:
    """The truth of its JSON form: a str ``kind`` and the kind's value names,
    each a finite number and each fixed one (AB's ``gamma``) at its value;
    else a bad spec."""
    kind = _typed(data["kind"], str, "truth kind")
    entry = MODEL_KINDS.get(kind)
    for name, value in data.items() if entry is not None else ():
        if name not in ("kind", *entry.value_names):
            raise IngestError(f"bad synthetic spec: truth key {name!r} is not a parameter of "
                              f"kind {kind} ({', '.join(entry.value_names)})")
        if name in entry.fixed and value != entry.fixed[name]:
            raise IngestError(f"bad synthetic spec: truth {name} of kind {kind} is fixed "
                              f"at {entry.fixed[name]!r}, got {value!r}")
        if name != "kind":
            _number(value, f"truth {name}")
    return params_from_dict(data)  # an unknown kind or a missing value raises here


def spec_from_dict(data: dict) -> SyntheticSpec:
    """The spec of its JSON form; a malformed value is a "bad synthetic spec"."""
    try:
        data = _typed(data, dict, "spec")
        return SyntheticSpec(
            truth=_truth(_typed(data["truth"], dict, "truth")),
            frequencies=tuple((_typed(entry, dict, "frequencies entry")["frequency_ghz"],
                               entry["count"])
                              for entry in _typed(data["frequencies"], list, "frequencies")),
            distance_range=_typed(data["distance_range"], list, "distance_range"),
            sigma=data["sigma"],
            seed=data["seed"],
            distance_law=data.get("distance_law", "log-uniform"),
            scenario=Scenario.parse(_typed(data.get("scenario", "Other"), str, "scenario")),
            environment=Environment(data.get("environment", "NLOS")),
            campaign=data.get("campaign", "synthetic"),
        )
    except IngestError:
        raise
    except KeyError as exc:
        raise IngestError(f"bad synthetic spec: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise IngestError(f"bad synthetic spec: {exc}") from exc


def load_spec(path: str | Path) -> SyntheticSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise IngestError(f"bad synthetic spec: {path}: {exc}") from None
    return spec_from_dict(data)
