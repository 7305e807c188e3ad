"""Bulk text formatting: float_texts, the JSON report writer and write_csv
give the same bytes as repr, json.dumps and csv.writer, and stay off the slow
paths (the pure-Python JSON encoder, one np.mean per bin)."""

import csv
import datetime
import enum
import io
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from pathlossfit import CIParams, Dataset, SyntheticSpec
from pathlossfit import cli
from pathlossfit.cli import main
from pathlossfit.domain import Environment, Scenario
from pathlossfit.ingest import (
    CSV_CHUNK,
    CSV_COLUMNS,
    float_texts,
    load_csv,
    needs_repr,
    not_repr_hits,
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


def json_text(obj) -> bytes:
    """The JSON report writer's text of ``obj``: its pieces joined."""
    return b"".join(cli._json_pieces(obj))


class TestJsonText:
    @settings(max_examples=100, deadline=None)
    @given(doc=json_docs)
    def test_matches_json_dumps(self, doc):
        assert json_text(doc).decode() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_report_shapes(self):
        doc = {"é": [1.0, math.nan, -math.inf, 1e16], "b": (), "a": {}, "ints": [1, True, 2.5],
               "grid": (0.0, 50.0), "nested": [{"z": None, "y": "☃\n"}, []]}
        assert json_text(doc).decode() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            json_text({"x": object()})


def json_reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def one_dump(doc) -> bool:
    """Whether ``json_text(doc)`` is one orjson dump, never falling back to
    ``json.dumps``; asserts that its text is json's either way (an array's
    as that of its list)."""
    reference = json.dumps(doc, indent=2, sort_keys=True, default=list) + "\n"
    with mock.patch.object(json, "dumps", wraps=json.dumps) as fallback:
        assert json_text(doc).decode() == reference
    return not fallback.called


# what orjson writes otherwise than repr, at and around the edges of needs_repr
REPAIRED = [1e-4, 1e16, 5e-324, -0.0, -5e-324, 1e-5, -9.99e-5, 1.5e-7, 1e22, -1e308,
            1.7976931348623157e308, 2.2250738585072014e-308, -8.697174632913632e-06,
            float(np.nextafter(1e-4, 0)), float(np.nextafter(1e16, 0)), 10.00001]
# text that looks like a number or holds a needle of the repair's scans
NEEDLES = ["1e5", "0.00001", "null", '": 1e-05', "x\n1e-05", "1e-05", "e-7", "10.0000"]


class Band(str, enum.Enum):
    MM_WAVE = "mmWave"


class TestJsonOneDump:
    def test_random_float_bit_patterns_as_scalars(self):
        bits = np.random.default_rng(20160505).integers(0, 2 ** 64, 6000, dtype=np.uint64)
        values = [v for v in bits.view(np.float64).tolist() if math.isfinite(v)] + REPAIRED
        doc = {"flat": values[:2000],
               "nested": [{"v": v, "pair": [v, -v], "deep": {"x": [[v]]}}
                          for v in values[2000:4000]],
               "keyed": {f"k{i}": v for i, v in enumerate(values[4000:])}}
        assert one_dump(doc)
        assert one_dump(REPAIRED) and one_dump(1e-05) and one_dump(-0.0)

    @settings(max_examples=100, deadline=None)
    @given(doc=st.recursive(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                  st.sampled_from(REPAIRED), st.integers(-2 ** 63, 2 ** 64 - 1),
                  st.booleans(), st.text(st.characters(min_codepoint=32, max_codepoint=126))),
        lambda children: st.one_of(
            st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
            st.dictionaries(st.sampled_from(NEEDLES[1:] + ["a", "b"]), children,
                            max_size=5)),
        max_leaves=30))
    def test_ascii_documents_without_null_match_json_dumps(self, doc):
        assert json_text(doc).decode() == json_reference(doc)

    @pytest.mark.parametrize("text", NEEDLES)
    def test_needles_in_strings_and_keys_are_left_alone(self, text):
        doc = {text: [text, 1e-05, 12, {text: 1e16}], "k": text}
        assert one_dump(doc) == (text != "null")  # "null" anywhere sends it to json.dumps

    def test_none_next_to_nan_and_the_infinities_takes_json_dumps(self):
        for doc in ({"a": None, "b": math.nan, "c": [math.inf, -math.inf, None]},
                    {"x": math.nan}, [-math.inf], {"r": np.array([0.5, math.nan])},
                    {"s": np.float64(math.nan), "z": None}, {"t": (None, 1.0, math.nan)},
                    {"m": np.array([[0.5, math.nan]]), "z": None},
                    {"r": np.array([math.nan]), "z": None}, {"s": "null", "z": None},
                    {"m": np.array([[0.5]]), "x": math.nan, "z": None}):
            assert not one_dump(doc)

    def test_a_numpy_nan_scalar_takes_json_dumps(self):
        with mock.patch.object(json, "dumps", wraps=json.dumps) as fallback:
            text = json_text({"s": np.float32(math.nan), "z": None})
        assert fallback.called
        assert text.decode() == json_reference({"s": math.nan, "z": None})

    def test_none_takes_one_dump_and_keeps_its_null(self):
        for doc in ([None, 1e-05], {"r": np.array([0.5]), "z": None},
                    {"a": [None, np.array([1e-05, 0.5])], "b": None, "é": None,
                     "c": ({"n": None, "r": np.array([])}, np.array([1e16]), None)}):
            assert one_dump(doc)

    @pytest.mark.parametrize("doc", [
        {"del": "a\x7fb"}, {"é": 1.0}, {"x": "snow ☃"}, {"x": ["é\x7f☃", "a\U0001f600b"]},
        {"é": np.array([1e-05, 0.5])}], ids=repr)
    def test_what_json_escapes_takes_one_dump(self, doc):
        assert one_dump(doc)

    @pytest.mark.parametrize("doc, arrays", [
        ({"r": np.array([1e-05, 0.5, -1e-05]), "s": 1e-05, "t": ["0.00001", "1e-05"]}, 1),
        ({"deep": [[{"r": np.array([1e16, 2.5, 1e-4])}]], "e": np.array([]),
          "s": [np.array([1e-7]), np.array([5e-324, -0.0, 1.0])]}, 4),
        ({"a": np.array([1e-05, 0.5]), "n": np.float64(1e-05)}, 1),  # "n" as its float
    ], ids=repr)
    def test_only_the_text_outside_the_arrays_is_scanned(self, doc, arrays, monkeypatch):
        scanned = []
        monkeypatch.setattr(cli, "not_repr_hits",
                            lambda text: scanned.append(text) or not_repr_hits(text))
        assert one_dump(doc)
        assert len(scanned) == 1 and scanned[0].count(b"null") == arrays

    @pytest.mark.parametrize("doc", [
        {"x": "\ud800"}, {"\ud800": 1}, {"big": 2 ** 64}, {"big": [2 ** 64 + 1, 10 ** 30]},
        {"small": -2 ** 63 - 1}, {"r": np.arange(4.0)[::2]}], ids=repr)
    def test_what_orjson_rejects_takes_json_dumps(self, doc):
        assert not one_dump(doc)

    def test_64_bit_ints_and_control_characters_take_one_dump(self):
        assert one_dump({"ints": [2 ** 64 - 1, -2 ** 63, 0, -1], "ctl": "\x1f\b\f\n\r\t\"\\/"})

    def test_a_dataclass_and_a_datetime_raise_as_json_does(self):
        for value in (CIParams(2.9), datetime.datetime(2016, 5, 5), datetime.date(2016, 5, 5)):
            with pytest.raises(TypeError):
                json.dumps({"x": value})
            with pytest.raises(TypeError):
                json_text({"x": value})

    def test_a_non_str_key_is_written_as_json_writes_it(self):
        with pytest.raises(TypeError):  # orjson refuses it, json.dumps writes "1"
            orjson.dumps({1: "x"}, option=cli._ORJSON_OPTIONS)
        assert not one_dump({1: "x", 2.5: [None]})
        assert json_text({1: "x"}).decode() == '{\n  "1": "x"\n}\n'

    def test_a_str_enum_is_written_as_json_writes_it(self):
        assert one_dump({"band": Band.MM_WAVE, "bands": [Band.MM_WAVE]})


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


    @pytest.mark.parametrize("labels, respelled", [(1, False), (1, True), (2, False)])
    def test_plain_rows_in_chunks_of_one_label_or_several(self, tmp_path, labels, respelled):
        rng = np.random.default_rng(labels)
        n = 2 * CSV_CHUNK + 1
        loss = rng.normal(120.0, 10.0, n)
        if respelled:
            loss[CSV_CHUNK + 7] = 1e-05
        label_set = [(Scenario("UMa"), Environment.NLOS, "a,\"b\"\nc"),
                     (Scenario("Other", "x"), Environment.LOS, "é")][:labels]
        ds = Dataset.from_columns(rng.uniform(0.5, 100.0, n), rng.uniform(1.0, 5e3, n), loss,
                                  rng.integers(0, labels, n), tuple(label_set))
        write_csv(ds, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == reference_csv(ds)
        assert load_csv(tmp_path / "out.csv") == ds


class TestStreamedReport:
    def test_a_fit_report_is_written_an_array_at_a_time(self, tmp_path, monkeypatch):
        # residuals of about 1e-4 dB: each array holds runs of needs_repr values
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=2e-4, seed=20160505,
                             frequencies=((2.0, 300), (28.0, 300)),
                             distance_range=(60.0, 1238.0))
        spec_path = tmp_path / "sp\u00e9c.json"  # the report's path takes json's escape
        spec_path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
        docs, written = [], []
        write_json, array_pieces = cli._write_json, cli._array_pieces
        staged = tmp_path / "fit_report.json.tmp"

        def recording_write(obj, path):
            docs.append(obj)
            write_json(obj, path)

        def sized_pieces(values, depth):
            written.append(staged.stat().st_size)
            yield from array_pieces(values, depth)

        monkeypatch.setattr(cli, "_write_json", recording_write)
        monkeypatch.setattr(cli, "_array_pieces", sized_pieces)
        assert main(["fit", "--synthetic", str(spec_path), "--out-dir", str(tmp_path),
                     "--models", "abg,ab,ci,ci_opt,cif", "--no-binning"]) == 0
        text = (tmp_path / "fit_report.json").read_bytes()
        monkeypatch.setattr(cli, "_array_pieces", array_pieces)
        [doc] = docs
        arrays = [model["residuals_db"] for model in doc["models"].values()]
        assert all(needs_repr(values).any() and not needs_repr(values).all()
                   for values in arrays)
        assert text == json_text(doc)
        assert text.decode() == json.dumps(doc, indent=2, sort_keys=True,
                                           default=np.ndarray.tolist) + "\n"
        assert b'/sp\\u00e9c.json"' in text
        # each array's text was in the file before the next one was dumped
        assert len(written) == 5 and all(b - a > 600 * 15 for a, b in zip(written, written[1:]))


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

    @staticmethod
    def sweep_without_json_dumps(tmp_path, monkeypatch, *flags) -> dict:
        """The report of a five-model sweep of a two-frequency campaign, run
        with json.dumps refused."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(SyntheticSpec(
            truth=CIParams(2.9), sigma=5.7, seed=7, frequencies=((2.0, 300), (28.0, 300)),
            distance_range=(60.0, 1238.0)))), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("the json.dumps fallback was entered")
        monkeypatch.setattr(json, "dumps", refuse)
        assert main(["sweep", "--synthetic", str(spec_path), "--out-dir", str(tmp_path),
                     "--models", "abg,ab,ci,ci_opt,cif", *flags]) == 0
        return json.loads((tmp_path / "sweep_report.json").read_text())

    def test_a_distance_sweep_report_is_one_orjson_dump(self, tmp_path, monkeypatch):
        report = self.sweep_without_json_dumps(tmp_path, monkeypatch,
                                               "--split", "distance-close")
        assert len(report["points"]) == 13 and report["input"]["seed"] == 7

    @pytest.mark.parametrize("hold_out", [(), ("--hold-out", "28")], ids=["all", "hold-out"])
    def test_a_frequency_hold_out_report_is_one_orjson_dump(self, tmp_path, monkeypatch,
                                                            hold_out):
        report = self.sweep_without_json_dumps(tmp_path, monkeypatch,
                                               "--split", "frequency-loo", *hold_out)
        assert report["split"]["held_out"] == (28.0 if hold_out else None)
        assert len(report["points"]) == (1 if hold_out else 2)

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

