"""CSV ingestion and the reproducible synthetic generator."""

import csv
import dataclasses
import io
import json
import math
from statistics import NormalDist, _normal_dist_inv_cdf

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pathlossfit import (
    CIParams,
    CIFParams,
    Environment,
    IngestError,
    Scenario,
    SyntheticSpec,
    fit_ci,
    fit_cif,
    generate,
    load_csv,
    write_csv,
)
from pathlossfit.cli import main
from pathlossfit.domain import evaluate
from pathlossfit.ingest import counter_uniforms, load_spec, spec_from_dict, spec_to_dict
from conftest import BAD_SPEC_FIELDS

VALID_HEADER = "frequency_ghz,distance_m,path_loss_db,scenario,environment,campaign\n"


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_single_valid_row(self, tmp_path):
        path = write(tmp_path, VALID_HEADER + "28,100,120.5,UMa,NLOS,aau\n")
        ds = load_csv(path)
        assert len(ds) == 1
        f, d, pl = ds.arrays()
        scenario, environment, campaign = ds.row_labels()[0]
        assert f[0] == 28.0 and d[0] == 100.0 and pl[0] == 120.5
        assert scenario == Scenario("UMa")
        assert environment is Environment.NLOS
        assert campaign == "aau"

    def test_short_distance_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path, VALID_HEADER + "28,0.5,120.5,UMa,NLOS,aau\n")
        with pytest.raises(IngestError, match=r"line 2.*>= 1 m"):
            load_csv(path)

    def test_freq_summary_counts(self, tmp_path):
        rows = "2,10,80,UMa,NLOS,x\n2,20,85,UMa,NLOS,x\n10,10,90,UMa,NLOS,x\n"
        ds = load_csv(write(tmp_path, VALID_HEADER + rows))
        assert ds.freq_summary == ((2.0, 2), (10.0, 1))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (VALID_HEADER + "28,100,120.5,UMa,NLOS,aau\n").encode())
        ds = load_csv(path)
        assert ds == load_csv(write(tmp_path, VALID_HEADER + "28,100,120.5,UMa,NLOS,aau\n"))
        assert ds.frequency[0] == 28.0

    @pytest.mark.parametrize("rows,match", [
        ("28,100,120,UMa,NLOS,a\n28,0.5,120,UMa,NLOS,a\n28,abc,120,UMa,NLOS,a\n",
         r"line 3: distance must be >= 1 m"),
        ("28,100,120,Rural,NLOS,a\n28,100\n", r"line 2: unknown scenario"),
        ("28,100,120,UMa,NLOS,a\n28,100\n28,abc,120,UMa,NLOS,a\n",
         r"line 3: expected 6 columns, got 2"),
        ("0,100,abc,UMa,NLOS,a\n", r"line 2: unparsable path_loss_db"),
        ("0,100,120,UMa,maybe,a\n", r"line 2: 'maybe' is not a valid Environment"),
    ])
    def test_first_bad_line_wins_whatever_is_wrong_with_it(self, tmp_path, rows, match):
        with pytest.raises(IngestError, match=match):
            load_csv(write(tmp_path, VALID_HEADER + rows))

    def test_non_utf8_file_is_an_ingest_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((VALID_HEADER + "28,100,120.5,UMa,NLOS,caf\xe9\n").encode("latin-1"))
        with pytest.raises(IngestError, match="latin1.csv.*not UTF-8"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "frequency_ghz,distance_m,path_loss_db,scenario,environment\n")
        with pytest.raises(IngestError, match="missing column.*campaign"):
            load_csv(path)

    def test_unparsable_number(self, tmp_path):
        path = write(tmp_path, VALID_HEADER + "28,abc,120.5,UMa,NLOS,aau\n")
        with pytest.raises(IngestError, match="line 2.*distance_m"):
            load_csv(path)

    def test_nonpositive_frequency(self, tmp_path):
        path = write(tmp_path, VALID_HEADER + "0,100,120.5,UMa,NLOS,aau\n")
        with pytest.raises(IngestError, match="line 2"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError, match="empty file"):
            load_csv(write(tmp_path, ""))

    def test_header_only_gives_empty_dataset(self, tmp_path):
        assert len(load_csv(write(tmp_path, VALID_HEADER))) == 0

    def test_extra_columns_warn_and_are_ignored(self, tmp_path):
        header = "frequency_ghz,distance_m,path_loss_db,scenario,environment,campaign,rx_id\n"
        path = write(tmp_path, header + "28,100,120.5,UMa,NLOS,aau,7\n")
        with pytest.warns(UserWarning, match="rx_id"):
            ds = load_csv(path)
        assert len(ds) == 1

    def test_bad_scenario_and_environment(self, tmp_path):
        with pytest.raises(IngestError, match="line 2"):
            load_csv(write(tmp_path, VALID_HEADER + "28,100,120.5,Rural,NLOS,aau\n"))
        with pytest.raises(IngestError, match="line 2"):
            load_csv(write(tmp_path, VALID_HEADER + "28,100,120.5,UMa,maybe,aau\n"))

    def test_other_scenario_with_label(self, tmp_path):
        ds = load_csv(write(tmp_path, VALID_HEADER + "28,100,120.5,Other:tunnel,LOS,x\n"))
        assert ds.row_labels()[0][0] == Scenario("Other", "tunnel")


# Valid rows, and rows whose fields come from a wider pool: invalid numbers,
# empty and non-numeric text, non-finite values, unknown labels, short rows.
campaigns = st.text(alphabet='ab ,"', max_size=4)
valid_row = st.tuples(
    st.floats(0.5, 100.0).map(repr), st.floats(1.0, 1000.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["UMa", "UMiSC", "InHOffice", "InHSM", "Other:tunnel"]),
    st.sampled_from(["LOS", "NLOS"]), campaigns)
fuzz_numbers = st.one_of(
    st.floats(allow_nan=False).map(repr), st.integers(-5, 100).map(str),
    st.sampled_from(["", " ", "abc", "nan", "inf", "-inf", "1e400", "0x10", " 28 "]))
fuzz_row = st.tuples(
    fuzz_numbers, fuzz_numbers, fuzz_numbers,
    st.sampled_from(["UMa", "Other:tunnel", "Rural", ""]),
    st.sampled_from(["NLOS", "los", ""]), campaigns,
).flatmap(lambda row: st.sampled_from([6, 5, 2, 0]).map(lambda width: row[:width]))


@st.composite
def fuzz_rows(draw):
    """Up to six valid rows with up to two rows of the wider pool mixed in."""
    rows = draw(st.lists(valid_row, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.one_of(valid_row, fuzz_row)))
    return rows


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=fuzz_rows(), bom=st.booleans())
def test_load_csv_loads_every_row_or_raises_ingest_error(tmp_path, rows, bom):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    path = tmp_path / "fuzz.csv"
    path.write_text(("\ufeff" if bom else "") + VALID_HEADER + buffer.getvalue(),
                    encoding="utf-8")
    try:
        ds = load_csv(path)
    except IngestError:
        return
    assert len(ds) == len(rows)
    for column, values in enumerate((ds.frequency, ds.distance, ds.path_loss)):
        assert np.array_equal(values, [float(row[column]) for row in rows])


class TestRoundTrip:
    def test_load_write_load_is_identity(self, tmp_path):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=3.0, seed=99,
                             frequencies=((2.0, 4), (28.0, 4)),
                             distance_range=(10.0, 400.0),
                             scenario=Scenario("Other", "campus"),
                             environment=Environment.LOS, campaign="t1")
        ds = generate(spec)
        first = tmp_path / "first.csv"
        write_csv(ds, first)
        loaded = load_csv(first)
        assert loaded == ds
        second = tmp_path / "second.csv"
        write_csv(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_canonical_text_is_stable(self, tmp_path):
        ds = load_csv(write(tmp_path, VALID_HEADER + "28,100,120.5,UMa,NLOS,aau\n"))
        out = tmp_path / "canon.csv"
        write_csv(ds, out)
        text = out.read_text()
        assert text.splitlines()[1] == "28.0,100.0,120.5,UMa,NLOS,aau"
        write_csv(load_csv(out), tmp_path / "canon2.csv")
        assert (tmp_path / "canon2.csv").read_bytes() == out.read_bytes()


class TestCounterUniform:
    def test_matches_published_splitmix64_vector(self):
        # reference outputs for seed 1234567 (sequential splitmix64 equals
        # the counter form by construction)
        words = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        for i, word in enumerate(words):
            expected = ((word >> 11) + 0.5) * 2.0 ** -53
            assert counter_uniforms(1234567, [i])[0] == expected

    def test_strictly_inside_unit_interval(self):
        values = counter_uniforms(0, np.arange(1000)).tolist()
        assert all(0.0 < v < 1.0 for v in values)

    def test_the_top_word_gives_the_float_below_1(self, tmp_path):
        seed = seed_of_word((1 << 64) - 1, 1)  # the first sample's shadowing uniform
        top = ((1 << 53) - 1 + 0.5) * 2.0 ** -53
        assert python_int_uniform(seed, 1) == top == 1.0  # the offset rounds up
        assert counter_uniforms(seed, [1])[0] == math.nextafter(1.0, 0.0)
        assert counter_uniforms(seed, [0, 2, 3]).tolist() == [
            python_int_uniform(seed, i) for i in (0, 2, 3)]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_to_dict(SyntheticSpec(
            truth=CIParams(2.9), sigma=5.7, seed=seed, frequencies=((28.0, 3),),
            distance_range=(10.0, 500.0)))), encoding="utf-8")
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out.csv")]) == 0
        ds = load_csv(tmp_path / "out.csv")
        noise = 5.7 * NormalDist().inv_cdf(math.nextafter(1.0, 0.0))
        assert ds.path_loss[0] == evaluate(CIParams(2.9), 28.0, ds.distance)[0] + noise

    def test_counter_access_is_random(self):
        assert counter_uniforms(42, [500])[0] == counter_uniforms(42, [500])[0]
        assert counter_uniforms(42, [500])[0] != counter_uniforms(42, [501])[0]
        assert counter_uniforms(42, [500])[0] != counter_uniforms(43, [500])[0]

    # Seeds near 2^64 and indices up to 2^62 make seed + (i+1) * golden wrap
    # mod 2^64, which Python integers only do through the explicit mask.
    @given(seed=st.integers(0, 2 ** 64 - 1),
           index=st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=20))
    def test_numpy_stream_matches_python_integer_splitmix64(self, seed, index):
        want = [python_int_uniform(seed, i) for i in index]
        assert counter_uniforms(seed, index).tolist() == want
        assert counter_uniforms(seed, index[:1])[0] == want[0]


def seed_of_word(word: int, index: int) -> int:
    """The seed whose stream word number ``index`` is ``word``: the splitmix64
    finalizer undone (each xorshift by its repeated shifts, each product by
    the inverse multiplier mod 2^64), less the counter's offset."""
    mask = (1 << 64) - 1
    z = word
    for shift, multiplier in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        x = z
        for _ in range(64 // shift):
            x = z ^ (x >> shift)
        z = x * pow(multiplier, -1, 1 << 64) & mask if multiplier else x
    return (z - (index + 1) * 0x9E3779B97F4A7C15) & mask


def python_int_uniform(seed: int, index: int) -> float:
    """The stream computed in unbounded Python integers, masked to 64 bits."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    z ^= z >> 31
    return ((z >> 11) + 0.5) * 2.0 ** -53


class TestGenerate:
    def test_seed_determinism(self):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.0, seed=7,
                             frequencies=((2.0, 10), (28.0, 10)),
                             distance_range=(10.0, 400.0))
        assert generate(spec) == generate(spec)

    def test_different_seeds_differ(self):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.0, seed=7,
                             frequencies=((2.0, 10),), distance_range=(10.0, 400.0))
        other = dataclasses.replace(spec, seed=8)
        assert generate(spec) != generate(other)

    def test_counts_and_ranges(self):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.0, seed=7,
                             frequencies=((2.0, 12), (28.0, 30)),
                             distance_range=(10.0, 400.0))
        ds = generate(spec)
        assert len(ds) == 42
        assert dict(ds.freq_summary) == {2.0: 12, 28.0: 30}
        assert all(10.0 <= d <= 400.0 for d in ds.distance.tolist())

    def test_zero_sigma_lies_on_the_model(self):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=0.0, seed=7,
                             frequencies=((2.0, 10), (28.0, 10)),
                             distance_range=(10.0, 400.0))
        ds = generate(spec)
        for f, d, pl in zip(*(column.tolist() for column in ds.arrays())):
            assert pl == pytest.approx(evaluate(CIParams(2.9), f, d), abs=1e-12)
        assert fit_ci(ds).sigma < 1e-12

    def test_shadowing_is_normal_dist_inv_cdf_bit_for_bit(self):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=1.0, seed=20160505,
                             frequencies=((28.0, 100_000),), distance_range=(10.0, 500.0))
        ds = generate(spec)
        uniforms = counter_uniforms(spec.seed, 2 * np.arange(100_000) + 1).tolist()
        noise = np.array([NormalDist().inv_cdf(u) for u in uniforms])
        mean = evaluate(spec.truth, 28.0, ds.distance)
        assert ds.path_loss.tobytes() == (mean + noise).tobytes()
        # the stream's least uniform, (0 + 0.5) * 2**-53, and the float below 1
        for u in (2.0 ** -54, math.nextafter(1.0, 0.0)):
            assert _normal_dist_inv_cdf(u, 0.0, 1.0) == NormalDist().inv_cdf(u)

    def test_uniform_law(self):
        spec = SyntheticSpec(truth=CIParams(2.0), sigma=0.0, seed=7,
                             frequencies=((28.0, 200),), distance_range=(10.0, 20.0),
                             distance_law="uniform")
        ds = generate(spec)
        distances = ds.distance.tolist()
        assert min(distances) >= 10.0 and max(distances) <= 20.0
        assert 14.0 < sum(distances) / len(distances) < 16.0

    def test_campaign_scale_recovery(self, uma_synthetic):
        report = fit_ci(uma_synthetic)
        assert abs(report.params.n - 2.9) < 0.05
        assert abs(fit_cif(uma_synthetic).params.b) < 0.05

    def test_recovery_holds_across_seeds(self):
        slopes = []
        for seed in (1, 2):
            spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=seed,
                                 frequencies=((2.0, 400), (28.0, 400)),
                                 distance_range=(60.0, 1238.0))
            slopes.append(fit_ci(generate(spec)).params.n)
        assert slopes[0] != slopes[1]
        assert all(abs(n - 2.9) < 0.05 for n in slopes)

    def test_spec_validation(self):
        good = dict(truth=CIParams(2.9), sigma=5.0, seed=7,
                    frequencies=((2.0, 10),), distance_range=(10.0, 400.0))
        with pytest.raises(IngestError):
            SyntheticSpec(**{**good, "distance_range": (0.5, 400.0)})
        with pytest.raises(IngestError):
            SyntheticSpec(**{**good, "sigma": -1.0})
        with pytest.raises(IngestError):
            SyntheticSpec(**{**good, "frequencies": ((2.0, 0),)})
        with pytest.raises(IngestError):
            SyntheticSpec(**{**good, "frequencies": ()})
        with pytest.raises(IngestError):
            SyntheticSpec(**{**good, "seed": -1})
        with pytest.raises(IngestError):
            SyntheticSpec(**{**good, "distance_law": "gaussian"})

    @pytest.mark.parametrize("field,value", [
        ("frequencies", ((2.0, 2.5),)), ("frequencies", ((2.0, True),)),
        ("frequencies", ((math.nan, 10),)), ("seed", True), ("seed", 7.0),
        ("sigma", math.nan), ("sigma", "5.0"), ("distance_range", (10.0, math.inf)),
        ("campaign", 5), ("truth", CIParams(math.nan))])
    def test_python_callers_meet_the_json_rules(self, field, value):
        good = dict(truth=CIParams(2.9), sigma=5.0, seed=7,
                    frequencies=((2.0, 10),), distance_range=(10.0, 400.0))
        with pytest.raises(IngestError, match="^bad synthetic spec: "):
            SyntheticSpec(**{**good, field: value})

    def test_truth_domain_violation_surfaces(self):
        # CI-opt truth with d0 above the sampled range is unevaluable there
        from pathlossfit import CIOptParams, DomainError
        spec = SyntheticSpec(truth=CIOptParams(2.5, 8.0), sigma=0.0, seed=7,
                             frequencies=((28.0, 5),), distance_range=(2.0, 5.0))
        with pytest.raises(DomainError):
            generate(spec)


class TestSpecJson:
    def test_round_trip(self):
        spec = SyntheticSpec(truth=CIFParams(2.9, -0.002, 12.0), sigma=5.7, seed=11,
                             frequencies=((2.0, 5), (38.0, 7)),
                             distance_range=(60.0, 1238.0),
                             scenario=Scenario("UMa"), campaign="aau")
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_load_spec_errors(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(IngestError, match="invalid JSON"):
            load_spec(path)
        path.write_text('{"sigma": 1.0}', encoding="utf-8")
        with pytest.raises(IngestError, match="bad synthetic spec"):
            load_spec(path)

    def test_non_utf8_spec_is_an_ingest_error_naming_it(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes('{"campaign": "caf\xe9"}'.encode("latin-1"))
        with pytest.raises(IngestError, match="spec.json.*not UTF-8"):
            load_spec(path)

    @pytest.mark.parametrize("field,value", BAD_SPEC_FIELDS)
    def test_malformed_values_are_ingest_errors(self, field, value):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=11,
                             frequencies=((2.0, 5),), distance_range=(60.0, 1238.0))
        data = {**spec_to_dict(spec), field: value}
        with pytest.raises(IngestError, match="bad synthetic spec"):
            spec_from_dict(data)

    def test_spec_validation_messages_pass_through_unwrapped(self):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=11,
                             frequencies=((2.0, 5),), distance_range=(60.0, 1238.0))
        with pytest.raises(IngestError, match="^sigma must be >= 0 dB"):
            spec_from_dict({**spec_to_dict(spec), "sigma": -1.0})
