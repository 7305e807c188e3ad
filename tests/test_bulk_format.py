"""Bulk text formatting: float_texts, the JSON report emitter and write_csv
give the same bytes as repr, json.dumps and csv.writer, and stay off the slow
paths (the pure-Python JSON encoder, one np.mean per bin)."""

import csv
import io
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathlossfit import CIParams, Dataset, SyntheticSpec
from pathlossfit.cli import _json_text, main
from pathlossfit.domain import Environment, Scenario
from pathlossfit.ingest import (
    CSV_CHUNK,
    CSV_COLUMNS,
    float_texts,
    load_csv,
    spec_to_dict,
    write_csv,
)
from pathlossfit.preprocess import BIN_AVERAGE_MODES, PreprocessSettings, bin_by_distance

# where orjson's text and repr part ways, and the extremes of float64
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 1e16, 1e308,
         1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf]
EDGES += [float(np.nextafter(v, t)) for v in (1e-4, -1e-4, 1e16, -1e16) for t in (0, math.inf)]
EDGES += [float(np.nextafter(v, t)) for v in (1e-4, -1e-4, 1e16, -1e16) for t in (0, -math.inf)]

any_float = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(EDGES))


class TestFloatTexts:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(any_float, max_size=40))
    def test_matches_repr(self, values):
        array = np.array(values, dtype=np.float64)
        assert float_texts(array) == [repr(v) for v in array.tolist()]

    def test_edges_and_strided_input(self):
        array = np.array(EDGES * 2)
        assert float_texts(array) == [repr(v) for v in array.tolist()]
        assert float_texts(array[::3]) == [repr(v) for v in array[::3].tolist()]
        assert float_texts(np.array([])) == []

    def test_random_bit_patterns_match_repr(self):
        bits = np.random.default_rng(20160505).integers(0, 2 ** 64, 20_000, dtype=np.uint64)
        array = bits.view(np.float64)
        assert float_texts(array) == [repr(v) for v in array.tolist()]


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), any_float, st.text())
float_lists = st.lists(any_float, min_size=1, max_size=20)
mixed_lists = st.lists(st.one_of(any_float, st.booleans(), st.integers()), max_size=10)
json_docs = st.recursive(
    st.one_of(json_scalars, float_lists, float_lists.map(tuple), mixed_lists),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=30)


class TestJsonText:
    @settings(max_examples=100, deadline=None)
    @given(doc=json_docs)
    def test_matches_json_dumps(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_report_shapes(self):
        doc = {"é": [1.0, math.nan, -math.inf, 1e16], "b": (), "a": {}, "ints": [1, True, 2.5],
               "grid": (0.0, 50.0), "nested": [{"z": None, "y": "☃\n"}, []]}
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            _json_text({"x": object()})


# label text with the characters CSV quotes, and more; load_csv strips fields
label_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                     max_size=8).filter(lambda s: s == s.strip())
labels = st.tuples(
    st.one_of(st.sampled_from([Scenario.parse(name) for name in Scenario._KNOWN]),
              label_text.map(lambda s: Scenario("Other", s)),
              st.sampled_from(["a,b", 'say "hi"', "x\r\ny", "été"]).map(
                  lambda s: Scenario("Other", s))),
    st.sampled_from(list(Environment)),
    st.one_of(label_text, st.sampled_from(["a,b", 'q"q', "l1\nl2", "cr\rlf", "測"])))


def reference_csv(ds: Dataset) -> bytes:
    """The canonical CSV, each row rendered on its own by csv.writer. The
    writer's terminator is CRLF, so that a field with a lone CR is quoted
    too; each row then ends in LF."""
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for f, d, pl, code in zip(ds.frequency.tolist(), ds.distance.tolist(),
                              ds.path_loss.tolist(), ds.codes.tolist()):
        scenario, environment, campaign = ds.labels[code]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(
            (repr(f), repr(d), repr(pl), str(scenario), environment.value, campaign))
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def random_dataset(n: int, label_set, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-6, 20, (3, n))  # plain and exponent float text
    return Dataset.from_columns(rng.random(n) * scale[0] + 1e-300,
                                1.0 + rng.random(n) * scale[1],
                                rng.normal(0.0, 1.0, n) * scale[2],
                                rng.integers(0, len(label_set), n), tuple(label_set))


class TestWriteCsv:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 12), label_set=st.lists(labels, min_size=1, max_size=4, unique=True),
           chunk=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_csv_writer_and_reads_back(self, tmp_path_factory, n, label_set,
                                               chunk, seed):
        ds = random_dataset(n, label_set, seed)
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        with mock.patch("pathlossfit.ingest.CSV_CHUNK", chunk):
            write_csv(ds, path)
        assert path.read_bytes() == reference_csv(ds)
        assert load_csv(path) == ds

    @pytest.mark.parametrize("n", [CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1, 2 * CSV_CHUNK + 1])
    def test_chunk_boundaries(self, tmp_path, n):
        label_set = [(Scenario("UMa"), Environment.NLOS, "a,\"b\"\nc"),
                     (Scenario("Other", "x"), Environment.LOS, "é")]
        ds = random_dataset(n, label_set, n)
        write_csv(ds, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == reference_csv(ds)
        assert load_csv(tmp_path / "out.csv") == ds


class TestCostGuards:
    def test_fit_never_enters_the_pure_python_json_encoder(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=20160505,
                             frequencies=((2.0, 1000), (28.0, 1000)),
                             distance_range=(60.0, 1238.0))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder was entered")
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert main(["fit", "--synthetic", str(spec_path), "--out-dir", str(tmp_path),
                     "--models", "abg,ab,ci,ci_opt,cif", "--no-binning"]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert len(report["models"]["ci"]["residuals_db"]) == report["preprocess"]["n_output"]

    @pytest.mark.parametrize("average", BIN_AVERAGE_MODES)
    def test_bin_by_distance_takes_two_means_per_group_size(self, uma_synthetic,
                                                           monkeypatch, average):
        bins = PreprocessSettings(bin_average=average)
        groups = Counter(zip(uma_synthetic.codes.tolist(), uma_synthetic.frequency.tolist(),
                             np.floor(uma_synthetic.distance / bins.bin_width).tolist()))
        calls = []
        mean = np.mean
        monkeypatch.setattr(np, "mean", lambda *args, **kwargs: calls.append(1)
                            or mean(*args, **kwargs))
        binned = bin_by_distance(uma_synthetic, bins)
        assert len(binned) == len(groups)
        assert len(calls) <= 2 * len(set(groups.values()))

