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
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

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
    IngestError naming the file.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError(f"{path}: empty file (missing header)") from None
            header = [h.strip() for h in header]
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise IngestError(f"{path}: missing column(s) {', '.join(missing)}")
            extra = [c for c in header if c not in CSV_COLUMNS]
            if extra:
                warnings.warn(f"{path}: ignoring extra column(s) {', '.join(extra)}")
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None

    # Each check notes its first bad row as (row, check order, message). The
    # earliest row wins, then the earlier check. Data row i is file line i + 2.
    problems: list[tuple[int, int, str]] = []
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    short = np.flatnonzero(widths < len(header))
    if short.size:
        row = int(short[0])
        problems.append((row, 0, f"expected {len(header)} columns, got {len(rows[row])}"))
        rows = rows[:row]
    columns = list(zip(*rows)) or [()] * len(header)
    text = {c: columns[header.index(c)] for c in CSV_COLUMNS}

    numbers = [_floats(text[column], column, order, problems)
               for order, column in enumerate(CSV_COLUMNS[:3], start=1)]
    codes, labels = _labels(text, problems)
    for order, (name, values) in enumerate(zip(_SAMPLE_COLUMNS, numbers), start=5):
        problem = first_violation(name, values)
        if problem is not None:
            problems.append((problem[0], order, problem[1]))
    if problems:
        row, _, message = min(problems)
        raise IngestError(f"{path} line {row + 2}: {message}")
    return Dataset.from_columns(*numbers, codes, labels)


_SAMPLE_COLUMNS = ("frequency", "distance", "path_loss")


def _floats(texts: tuple[str, ...], column: str, order: int, problems: list) -> np.ndarray:
    """The parsed values; on a bad one, only those before it, and a problem noted."""
    try:
        return np.fromiter(map(float, texts), dtype=float, count=len(texts))
    except ValueError:
        values = []
        for text in texts:
            try:
                values.append(float(text))
            except ValueError:
                problems.append((len(values), order,
                                 f"unparsable {column} value {text.strip()!r}"))
                return np.array(values, dtype=float)
        raise


def _labels(text: dict, problems: list) -> tuple[np.ndarray, tuple]:
    """Each row's label code and the distinct labels; on a bad label, a problem noted."""
    index: dict[tuple[str, str, str], int] = {}
    raw = np.array([index.setdefault(key, len(index)) for key in zip(
        text["scenario"], text["environment"], text["campaign"])], dtype=np.intp)
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


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write the canonical CSV form: shortest round-trip float text, LF endings."""
    path = Path(path)
    label_text = [(str(scenario), environment.value, campaign)
                  for scenario, environment, campaign in ds.labels]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(
            (repr(f), repr(d), repr(pl), *label_text[c])
            for f, d, pl, c in zip(ds.frequency.tolist(), ds.distance.tolist(),
                                   ds.path_loss.tolist(), ds.codes.tolist()))


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
    zero-mean Gaussian with standard deviation ``sigma`` dB.
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
        object.__setattr__(self, "frequencies",
                           tuple((float(f), int(c)) for f, c in self.frequencies))
        object.__setattr__(self, "distance_range",
                           tuple(float(v) for v in self.distance_range))
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


def spec_from_dict(data: dict) -> SyntheticSpec:
    try:
        return SyntheticSpec(
            truth=params_from_dict(data["truth"]),
            frequencies=tuple((entry["frequency_ghz"], entry["count"])
                              for entry in data["frequencies"]),
            distance_range=tuple(data["distance_range"]),
            sigma=float(data["sigma"]),
            seed=int(data["seed"]),
            distance_law=data.get("distance_law", "log-uniform"),
            scenario=Scenario.parse(data.get("scenario", "Other")),
            environment=Environment(data.get("environment", "NLOS")),
            campaign=data.get("campaign", "synthetic"),
        )
    except IngestError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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
