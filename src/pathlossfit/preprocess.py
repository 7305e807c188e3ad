"""Measurement conditioning: distance-bin local averaging and loss thresholding.

Samples weaker than free space at 1 m plus a margin are dropped (the margin
is frequency dependent through the FSPL term), and the survivors are locally
averaged over fixed-width distance bins per (campaign, frequency,
environment, scenario) group so that different frequencies or campaigns
never average together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class BinWidthError(ValueError):
    """The bin width is too small for the distances: d / bin_width overflows."""


@dataclass(frozen=True)
class PreprocessResult:
    dataset: Dataset
    n_input: int
    removed_by_threshold: int


def threshold(ds: Dataset, settings: PreprocessSettings) -> tuple[Dataset, int]:
    """Drop samples with path_loss > FSPL(f, 1 m) + margin, keeping order.

    Returns the kept samples and the number dropped.
    """
    f, _, pl = ds.arrays()
    over = pl > fspl(f, 1.0) + settings.threshold_margin
    return ds.filter(~over), int(np.count_nonzero(over))


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
    with np.errstate(over="ignore"):  # a BinWidthError below instead
        bins = np.floor(d / settings.bin_width)
    if not np.isfinite(bins.max()):
        raise BinWidthError(f"bin_width {settings.bin_width} m is too small for distances "
                            f"up to {d.max()} m: distance / bin_width overflows")
    # one stable sort by (label, frequency, bin): each group is a run whose
    # members keep input order, and its head is the group's first member
    order = np.lexsort((bins, f, ds.codes))
    keys = np.stack((ds.codes[order], f[order], bins[order]))
    runs = np.flatnonzero(np.r_[True, (keys[:, 1:] != keys[:, :-1]).any(axis=0)])
    sizes, heads = np.diff(np.r_[runs, d.size]), order[runs]
    rank = np.argsort(heads)  # the runs in order of first occurrence
    starts, sizes, heads = runs[rank], sizes[rank], heads[rank]

    # the m groups of size k as one (m, k) matrix: numpy sums each row as it
    # sums a 1-D array, so each mean is bit-identical to np.mean of the group
    distance, path_loss = np.empty((2, sizes.size))
    for k in np.unique(sizes).tolist():
        groups = np.flatnonzero(sizes == k)
        members = order[starts[groups, None] + np.arange(k)]
        distance[groups] = np.mean(d[members], axis=1)
        if settings.bin_average == "db":
            path_loss[groups] = np.mean(pl[members], axis=1)
        else:
            with np.errstate(over="ignore", divide="ignore"):  # a DomainError below instead
                mean = 10.0 * np.log10(np.mean(10.0 ** (pl[members] / 10.0), axis=1))
            if not np.isfinite(mean).all():
                losses = pl[members[~np.isfinite(mean)]]
                raise DomainError(f"linear bin averaging is out of the float range for "
                                  f"path losses from {losses.min()} to {losses.max()} dB")
            path_loss[groups] = mean
    return Dataset.from_columns(f[heads], distance, path_loss, ds.codes[heads], ds.labels)


def apply(ds: Dataset, settings: PreprocessSettings) -> PreprocessResult:
    """Threshold first (drop unphysically weak samples), then bin the rest."""
    current, removed = threshold(ds, settings) if settings.threshold_enabled else (ds, 0)
    if settings.binning_enabled:
        current = bin_by_distance(current, settings)
    return PreprocessResult(dataset=current, n_input=len(ds), removed_by_threshold=removed)
