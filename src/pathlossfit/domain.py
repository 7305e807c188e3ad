"""Core value types and forward evaluation of the ABG, CI and CIF path loss models.

All frequencies are carrier frequencies in GHz, all distances are 3D
transmitter-receiver separations in meters, and all losses are in dB.
Every type is immutable and every function is pure, so everything here is
safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Union

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition

# Free-space loss of the first meter at 1 GHz: 20*log10(4*pi*1e9/c).
# This is the frequency-independent part of FSPL, 32.4478 dB (often quoted
# rounded to 32.4 dB).
FREE_SPACE_INTERCEPT_DB = 20.0 * math.log10(4.0 * math.pi * 1e9 / SPEED_OF_LIGHT)


class DomainError(ValueError):
    """A model was evaluated or constructed outside its physical domain."""


class Environment(enum.Enum):
    """Line-of-sight condition of a measured link."""

    LOS = "LOS"
    NLOS = "NLOS"


@dataclass(frozen=True)
class Scenario:
    """Deployment scenario label (urban macro/micro, indoor office/mall, or custom)."""

    name: str
    label: str = ""

    _KNOWN = ("UMa", "UMiSC", "InHOffice", "InHSM", "Other")

    def __post_init__(self) -> None:
        if self.name not in self._KNOWN:
            raise DomainError(f"unknown scenario {self.name!r}; expected one of {self._KNOWN}")
        if self.label and self.name != "Other":
            raise DomainError("only the Other scenario carries a free-text label")

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        """Parse the CSV form: a known name, or ``Other:<label>``."""
        if text.startswith("Other:"):
            return cls("Other", text[len("Other:"):])
        return cls(text)

    def __str__(self) -> str:
        if self.name == "Other" and self.label:
            return f"Other:{self.label}"
        return self.name


UMA = Scenario("UMa")
UMI_SC = Scenario("UMiSC")
INH_OFFICE = Scenario("InHOffice")
INH_SM = Scenario("InHSM")
OTHER = Scenario("Other")


# Per-column sample invariants: (message, rule on finite values).
_SAMPLE_RULES = {
    "frequency": ("frequency must be > 0 GHz", lambda v: v > 0),
    "distance": ("distance must be >= 1 m", lambda v: v >= 1.0),
    "path_loss": ("path_loss must be finite", lambda v: v == v),
}


def first_violation(column: str, values: np.ndarray) -> tuple[int, str] | None:
    """Index and message of the first value of the 1-D ``values`` of ``column``
    (frequency, distance or path_loss) that breaks the sample invariants, or
    None if all hold. A value that is not finite always breaks them.
    """
    text, rule = _SAMPLE_RULES[column]
    ok = np.isfinite(values) & rule(values)
    if ok.all():
        return None
    i = int(np.argmin(ok))
    return i, f"{text}, got {float(values[i])}"


# The labels a sample carries besides its numbers.
Label = tuple[Scenario, Environment, str]
DEFAULT_LABEL: Label = (OTHER, Environment.NLOS, "")


# One (frequency GHz, distance m, loss dB) row for Dataset(rows), kept because
# bench/checks.py builds its datasets from rows. Build others with Dataset.from_columns.
PathLossSample = namedtuple("PathLossSample", "frequency distance path_loss")


def _readonly(values, dtype=float) -> np.ndarray:
    """A read-only 1-D copy of ``values``."""
    out = np.array(values, dtype=dtype).reshape(-1)
    out.setflags(write=False)
    return out


class Dataset:
    """Immutable, validated path loss samples stored as read-only columns.

    ``frequency``, ``distance`` and ``path_loss`` are float64 arrays, one
    entry per sample. ``codes[i]`` indexes ``labels``, a tuple of distinct
    (scenario, environment, campaign) triples, to give sample i's labels.
    :meth:`from_columns` builds one from arrays.

    ``freq_summary`` lists each unique frequency once, ascending, with its
    sample count; the counts always sum to ``len(dataset)``. Every fit of the
    dataset shares its ``design`` and ``moments``, each built on first use.
    A dataset is a value: ``==`` compares samples and :meth:`row_labels`.
    """

    def __init__(self, rows: Iterable[PathLossSample] = ()) -> None:
        """Kept for bench/checks.py: (f, d, loss) rows, each with the default label."""
        f, d, pl = np.array(tuple(rows) or np.empty((0, 3)), dtype=float).T
        self._assign(f, d, pl, np.zeros(f.size, dtype=np.intp), (DEFAULT_LABEL,))
        self._validate()

    @classmethod
    def from_columns(cls, frequency, distance, path_loss, codes=None,
                     labels: tuple[Label, ...] = (DEFAULT_LABEL,)) -> "Dataset":
        """Dataset from equal-length columns; ``codes`` index ``labels``.

        Without ``codes`` every sample carries ``labels[0]``. The columns are
        copied and validated: f > 0 GHz, d >= 1 m, finite loss.
        """
        if codes is None:
            codes = np.zeros(np.size(frequency), dtype=np.intp)
        ds = cls.__new__(cls)
        ds._assign(frequency, distance, path_loss, codes, tuple(labels))
        ds._validate()
        return ds

    def _assign(self, frequency, distance, path_loss, codes, labels) -> None:
        self.frequency = _readonly(frequency)
        self.distance = _readonly(distance)
        self.path_loss = _readonly(path_loss)
        self.codes = _readonly(codes, dtype=np.intp)
        self.labels = labels

    def _validate(self) -> None:
        n = self.frequency.size
        if not (self.distance.size == self.path_loss.size == self.codes.size == n):
            raise DomainError("dataset columns must share one length")
        for column in _SAMPLE_RULES:
            problem = first_violation(column, getattr(self, column))
            if problem is not None:
                raise DomainError(problem[1])
        if n and not (0 <= self.codes.min() and self.codes.max() < len(self.labels)):
            raise DomainError("label codes must index the labels")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("dataset labels must be distinct")
        for scenario, environment, campaign in self.labels:
            if not (isinstance(scenario, Scenario) and isinstance(environment, Environment)
                    and isinstance(campaign, str)):
                raise DomainError("a label is (Scenario, Environment, campaign str)")

    def __len__(self) -> int:
        return int(self.frequency.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (np.array_equal(self.frequency, other.frequency)
                and np.array_equal(self.distance, other.distance)
                and np.array_equal(self.path_loss, other.path_loss)
                and self.row_labels() == other.row_labels())

    __hash__ = None

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, frequencies={self.frequencies})"

    def row_labels(self) -> list[Label]:
        """Each sample's (scenario, environment, campaign), in sample order."""
        return [self.labels[c] for c in self.codes.tolist()]

    @cached_property
    def freq_summary(self) -> tuple[tuple[float, int], ...]:
        values, counts = np.unique(self.frequency, return_counts=True)
        return tuple(zip(values.tolist(), counts.tolist()))

    @cached_property
    def design(self):  # a fitters.RegressionDesign (fitters imports this module)
        from .fitters import RegressionDesign
        return RegressionDesign.from_dataset(self)

    @cached_property
    def moments(self):  # the one-point fitters.Moments record of the design
        from .fitters import Moments
        columns = self.design.variables  # first: an empty dataset's error
        frequencies, counts = zip(*self.freq_summary)
        return Moments.of(columns, frequencies, [counts])

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(f for f, _ in self.freq_summary)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only (frequency, distance, path_loss) columns; a traced bench span."""
        return self.frequency, self.distance, self.path_loss

    def filter(self, keep) -> "Dataset":
        """New dataset with the samples where the boolean mask ``keep`` is true, order kept."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.frequency.shape:
            raise DomainError(f"mask of shape {keep.shape} does not fit {len(self)} samples")
        index = np.flatnonzero(keep)  # one integer gather per column beats four mask gathers
        # a subset of valid samples is valid: no second validation
        subset = Dataset.__new__(Dataset)
        subset._assign(self.frequency[index], self.distance[index], self.path_loss[index],
                       self.codes[index], self.labels)
        return subset


# ---------------------------------------------------------------------------
# Fitted model parameter sets (tagged union via distinct frozen classes).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ABGParams:
    """Floating-intercept model: 10*alpha*log10(d) + beta + 10*gamma*log10(f)."""

    alpha: float
    beta: float
    gamma: float

    kind = "abg"
    d0 = 1.0


@dataclass(frozen=True)
class ABParams:
    """Single-frequency floating-intercept model; frequency slope fixed at 2."""

    alpha: float
    beta: float

    kind = "ab"
    d0 = 1.0

    @property
    def gamma(self) -> float:  # the fixed slope, kept in MODEL_KINDS
        return MODEL_KINDS["ab"].fixed["gamma"]


@dataclass(frozen=True)
class CIParams:
    """Close-in free-space reference model with the standard 1 m anchor."""

    n: float

    kind = "ci"
    d0 = 1.0


D0_BOUNDS_DEFAULT = (0.1, 50.0)  # m; where an optimized reference distance may lie
F0_RULE = "f0 must be > 0 GHz, got {}"  # CIF's balance frequency, finite and positive


@dataclass(frozen=True)
class CIOptParams:
    """Close-in model with an optimized reference distance d0 in [0.1, 50] m."""

    n: float
    d0: float

    kind = "ci_opt"

    def __post_init__(self) -> None:
        lo, hi = D0_BOUNDS_DEFAULT
        if not (lo <= self.d0 <= hi):
            raise DomainError(f"d0 must lie in [{lo}, {hi}] m, got {self.d0}")


@dataclass(frozen=True)
class CIFParams:
    """Close-in model with a linear frequency-weighted distance slope about f0."""

    n: float
    b: float
    f0: float

    kind = "cif"
    d0 = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f0) and self.f0 > 0):
            raise DomainError(F0_RULE.format(self.f0))


ModelParams = Union[ABGParams, ABParams, CIParams, CIOptParams, CIFParams]


# ---------------------------------------------------------------------------
# Forward model evaluation: mean path loss in dB. Every kind is defined for
# f > 0 and d >= its params' d0 (1 m unless CI-opt fitted it); evaluate checks
# that one rule, then applies the kind's formula from MODEL_KINDS.
# ---------------------------------------------------------------------------

def fspl(frequency: float | np.ndarray, d0: float | np.ndarray = 1.0):
    """Free-space path loss 20*log10(4*pi*f*d0*1e9/c) in dB.

    Args:
        frequency: carrier frequency in GHz (> 0)
        d0: separation in meters (> 0)
    """
    frequency = np.asarray(frequency, dtype=float)
    d0 = np.asarray(d0, dtype=float)
    if (frequency <= 0).any():
        raise DomainError("frequency must be > 0 GHz")
    if (d0 <= 0).any():
        raise DomainError("distance must be > 0 m")
    with np.errstate(over="ignore", divide="ignore"):  # a DomainError below instead
        out = 20.0 * np.log10(4.0 * math.pi * frequency * d0 * 1e9 / SPEED_OF_LIGHT)
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out) & np.isfinite(frequency) & np.isfinite(d0)
        if bad.any():
            f, d = (np.broadcast_to(v, out.shape)[bad][0] for v in (frequency, d0))
            raise DomainError(f"free-space path loss at {f} GHz and {d} m "
                              "is out of the float range")
    return float(out) if out.ndim == 0 else out


def _abg_loss(p: ABGParams | ABParams, f, d):
    return 10.0 * p.alpha * np.log10(d) + p.beta + 10.0 * p.gamma * np.log10(f)


def _ci_loss(p: CIParams | CIOptParams, f, d):  # free space at d = d0, the anchor
    return fspl(f, p.d0) + 10.0 * p.n * np.log10(d / p.d0)


def _cif_loss(p: CIFParams, f, d):  # CI's slope where b = 0 or f = f0
    return fspl(f, 1.0) + 10.0 * p.n * (1.0 + p.b * (f - p.f0) / p.f0) * np.log10(d)


@dataclass(frozen=True)
class ModelKind:
    """One model kind: its parameter class, the names of its fitted values in
    constructor order, its mean loss formula(params, f, d) on checked float
    arrays, its text for d < d0 (with ``{d0}``) and any constants reported alongside."""

    params: type
    names: tuple[str, ...]
    formula: Callable
    below_d0: str
    fixed: Mapping[str, float] = field(default_factory=dict)

    value_names = property(lambda self: (*self.names, *self.fixed))  # param_values' keys


_ABG_BELOW_D0 = "ABG model is defined for d >= 1 m"
_CI_BELOW_D0 = "CI model with d0={d0} m is defined for d >= d0"

MODEL_KINDS: dict[str, ModelKind] = {
    "abg": ModelKind(ABGParams, ("alpha", "beta", "gamma"), _abg_loss, _ABG_BELOW_D0),
    "ab": ModelKind(ABParams, ("alpha", "beta"), _abg_loss, _ABG_BELOW_D0, {"gamma": 2.0}),
    "ci": ModelKind(CIParams, ("n",), _ci_loss, _CI_BELOW_D0),
    "ci_opt": ModelKind(CIOptParams, ("n", "d0"), _ci_loss, _CI_BELOW_D0),
    "cif": ModelKind(CIFParams, ("n", "b", "f0"), _cif_loss, "CIF model is defined for d >= 1 m"),
}


def _model_kind(params: ModelParams) -> ModelKind:
    entry = MODEL_KINDS.get(getattr(params, "kind", None))
    if entry is None:
        raise DomainError(f"unknown parameter type {type(params).__name__}")
    return entry


def params_to_dict(params: ModelParams) -> dict[str, float | str]:
    """Serialize a parameter set to a flat JSON-friendly dict (kind + values)."""
    return {"kind": params.kind, **param_values(params)}


def params_from_dict(data: Mapping[str, object]) -> ModelParams:
    """Inverse of :func:`params_to_dict`; a bool or str value is an error."""
    entry = MODEL_KINDS.get(data["kind"])
    if entry is None:
        raise DomainError(f"unknown model kind {data['kind']!r}")
    values = [data[name] for name in entry.names]
    for name, value in zip(entry.names, values):
        if isinstance(value, (bool, str)):
            raise DomainError(f"{name} must be a number, got {value!r}")
    return entry.params(*map(float, values))


def param_values(params: ModelParams) -> dict[str, float]:
    """Fitted parameter values by name (fixed constants included for AB)."""
    entry = _model_kind(params)
    return {**{name: getattr(params, name) for name in entry.names}, **entry.fixed}


def evaluate(params: ModelParams, frequency, distance):
    """Mean path loss in dB of any fitted parameter set at (frequency GHz,
    distance m), scalars or arrays; a DomainError where f <= 0 or d < d0."""
    entry = _model_kind(params)
    frequency = np.asarray(frequency, dtype=float)
    distance = np.asarray(distance, dtype=float)
    if (frequency <= 0).any():
        raise DomainError("frequency must be > 0 GHz")
    if (distance < params.d0).any():
        raise DomainError(entry.below_d0.format(d0=params.d0))
    out = entry.formula(params, frequency, distance)
    return float(out) if np.ndim(out) == 0 else out


def auto_f0(freq_counts: Iterable[tuple[float, int]]) -> float:
    """The oracle's CIF balance frequency from (frequency GHz, sample count) pairs.

    It is the count-weighted mean frequency rounded to the nearest integer
    GHz, ties half away from zero (14.5 -> 15), or the unrounded mean where
    that rounds to 0 GHz (sub-GHz data), since f0 must be positive.
    """
    frequencies, counts = np.array(tuple(freq_counts), dtype=float).reshape(-1, 2).T
    return float(auto_f0_rows(frequencies, counts[None, :])[0])


def auto_f0_rows(frequencies, counts) -> np.ndarray:
    """:func:`auto_f0` of each row of ``counts`` (P, n_freq) at ``frequencies``,
    summed in table order as Python's ``sum`` adds the pairs."""
    weighted = total = np.zeros(len(counts))
    for f, column in zip(np.asarray(frequencies).tolist(), np.asarray(counts).T):
        weighted, total = weighted + f * column, total + column
    rounded = np.floor(weighted / total + 0.5)
    return np.where(rounded > 0, rounded, weighted / total)


# ---------------------------------------------------------------------------
# Fit result container.
# ---------------------------------------------------------------------------

def rms(values) -> float:
    """Root mean square of an array-like; the shadow-fading sigma is the RMS of residuals."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError("RMS of an empty sequence is undefined")
    return math.sqrt((arr * arr).sum() / arr.size)  # np.mean's sum and division, bit for bit


@dataclass(frozen=True, eq=False)
class FitReport:
    """A fitted parameter set with its residuals and shadow-fading sigma.

    ``sigma`` is the RMS of the residuals about the fitted mean model (no
    mean removal), so it doubles as the minimized fitting error.
    """

    params: ModelParams
    residuals: np.ndarray  # read-only float64, stored as a copy
    flags: tuple[str, ...] = ()
    sigma: float = field(init=False)  # derived: the RMS of the residuals
    n_points: int = field(init=False)  # derived: the number of residuals

    def __post_init__(self) -> None:
        residuals = _readonly(self.residuals)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "sigma", rms(residuals))
        object.__setattr__(self, "n_points", residuals.size)

    @classmethod
    def from_residuals(cls, params: ModelParams, residuals,
                       flags: tuple[str, ...] = ()) -> "FitReport":
        """The report of ``residuals``, under a name that the bench traces."""
        return cls(params, residuals, flags)
