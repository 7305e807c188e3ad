"""Measurement conditioning: distance-bin local averaging and loss thresholding.

Samples weaker than free space at 1 m plus a margin are dropped (the margin
is frequency dependent through the FSPL term), and the survivors are locally
averaged over fixed-width distance bins per (campaign, frequency,
environment, scenario) group so that different frequencies or campaigns
never average together.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .domain import Dataset, DomainError, fspl

BIN_AVERAGE_MODES = ("db", "linear")


@dataclass(frozen=True)
class PreprocessSettings:
    """Conditioning knobs: 2 m bins and a 100 dB over-1m-FSPL cut by default."""

    bin_width: float = 2.0
    threshold_margin: float = 100.0
    binning_enabled: bool = True
    threshold_enabled: bool = True
    # Local averaging runs on dB values by default, consistent with lognormal
    # shadowing; "linear" averages 10^(PL/10) instead, for experimentation.
    bin_average: str = "db"

    def __post_init__(self) -> None:
        if not 0 < self.bin_width < math.inf:
            raise DomainError(f"bin_width must be finite and > 0 m, got {self.bin_width}")
        if not 0 < self.threshold_margin < math.inf:
            raise DomainError(
                f"threshold_margin must be finite and > 0 dB, got {self.threshold_margin}")
        if self.bin_average not in BIN_AVERAGE_MODES:
            raise DomainError(f"bin_average must be one of {BIN_AVERAGE_MODES}")

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class ThresholdResult:
    dataset: Dataset
    removed: int


@dataclass(frozen=True)
class PreprocessResult:
    dataset: Dataset
    n_input: int
    removed_by_threshold: int


def threshold(ds: Dataset, settings: PreprocessSettings) -> ThresholdResult:
    """Drop samples with path_loss > FSPL(f, 1 m) + margin, keeping order."""
    f, _, pl = ds.arrays()
    over = pl > fspl(f, 1.0) + settings.threshold_margin
    return ThresholdResult(ds.filter(~over), int(np.count_nonzero(over)))


def bin_by_distance(ds: Dataset, settings: PreprocessSettings) -> Dataset:
    """Locally average samples over half-open distance bins [k*w, (k+1)*w).

    Each (campaign, frequency, environment, scenario, bin) group collapses to
    one sample at the mean member distance with the mean member path loss;
    groups appear in order of first occurrence. Averaging runs in dB or in
    linear power depending on ``settings.bin_average``.
    """
    f, d, pl = ds.arrays()
    if len(ds) == 0:
        return ds
    keys = np.column_stack([ds.codes, f, np.floor(d / settings.bin_width)])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    # renumber groups by first occurrence, then list members group by group
    # (stable, so each group's members stay in input order)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    group = rank[inverse.reshape(-1)]
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    starts = np.cumsum(sizes) - sizes

    distance = np.empty(sizes.size)
    path_loss = np.empty(sizes.size)
    for i, (start, size) in enumerate(zip(starts.tolist(), sizes.tolist())):
        index = order[start:start + size]
        distance[i] = np.mean(d[index])
        losses = pl[index]
        if settings.bin_average == "db":
            path_loss[i] = np.mean(losses)
        else:
            path_loss[i] = 10.0 * np.log10(np.mean(10.0 ** (losses / 10.0)))
    heads = np.sort(first)  # each group's first member, in group order
    return Dataset.from_columns(f[heads], distance, path_loss, ds.codes[heads], ds.labels)


def apply(ds: Dataset, settings: PreprocessSettings) -> PreprocessResult:
    """Threshold first (drop unphysically weak samples), then bin the rest."""
    n_input = len(ds)
    removed = 0
    current = ds
    if settings.threshold_enabled:
        result = threshold(current, settings)
        current, removed = result.dataset, result.removed
    if settings.binning_enabled:
        current = bin_by_distance(current, settings)
    return PreprocessResult(dataset=current, n_input=n_input,
                            removed_by_threshold=removed)
