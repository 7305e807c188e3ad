import math
from types import SimpleNamespace

import numpy as np
import pytest

from pathlossfit import (
    CIParams,
    Dataset,
    SyntheticSpec,
    generate,
)
from pathlossfit.fitters import VARIABLES, RegressionDesign


# Malformed values of one top-level field of a synthetic spec's JSON form:
# wherever a spec is read, each is an IngestError "bad synthetic spec".
BAD_SPEC_FIELDS = [
    ("seed", "x"), ("environment", "LOSS"), ("sigma", "abc"),
    ("frequencies", [{"frequency_ghz": 2.0, "count": "many"}]),
    ("scenario", 5), ("scenario", None), ("campaign", 5),
    ("sigma", math.nan), ("sigma", math.inf), ("distance_range", [60.0, math.inf]),
    ("frequencies", [{"frequency_ghz": math.nan, "count": 5}]),
    ("frequencies", [{"frequency_ghz": math.inf, "count": 5}]),
    ("truth", {"kind": "ci", "n": math.nan}),
    ("frequencies", [{"frequency_ghz": 2.0, "count": 2.5}]),
    ("frequencies", [{"frequency_ghz": 2.0, "count": True}]),
    ("seed", 1.7), ("seed", True),
    ("truth", {"kind": "ci", "n": True}), ("truth", {"kind": "ci", "n": "2.9"}),
    ("truth", {"kind": "foo", "n": 2.9}),
]


def make_dataset(rows) -> Dataset:
    """Build a dataset from (frequency, distance, path_loss) triples."""
    return Dataset.from_columns(*np.array(list(rows), dtype=float).reshape(-1, 3).T)


def design_rows(ds: Dataset) -> SimpleNamespace:
    """The rows of ``ds``'s design by their VARIABLES names, and its frequencies as ``f``."""
    rows = dict(zip(VARIABLES, RegressionDesign.from_dataset(ds)))
    return SimpleNamespace(f=ds.frequency, **rows)


@pytest.fixture(scope="session")
def uma_synthetic() -> Dataset:
    """Full-scale synthetic campaign: CI truth n=2.9, sigma=5.7 dB, 1869
    samples over 2-38 GHz and 60-1238 m (per-frequency counts mirror the
    UMa NLOS campaign sizes)."""
    spec = SyntheticSpec(
        truth=CIParams(2.9), sigma=5.7, seed=20160505,
        frequencies=((2.0, 583), (10.0, 581), (18.0, 468), (28.0, 225), (38.0, 12)),
        distance_range=(60.0, 1238.0))
    return generate(spec)


@pytest.fixture(scope="session")
def noisy_multifreq() -> Dataset:
    """Mid-size noisy multi-frequency dataset for estimator invariants."""
    spec = SyntheticSpec(
        truth=CIParams(3.1), sigma=6.0, seed=424242,
        frequencies=((2.0, 40), (10.0, 40), (28.0, 40), (73.0, 40)),
        distance_range=(10.0, 500.0))
    return generate(spec)


def assert_params_close(got, want, atol):
    from pathlossfit import param_values
    gv, wv = param_values(got), param_values(want)
    assert gv.keys() == wv.keys()
    for name in wv:
        assert gv[name] == pytest.approx(wv[name], abs=atol), name
