"""Command-line behavior: outputs, exit codes, warnings, atomicity."""

import json
import math
import os

import numpy as np
import pytest

from pathlossfit import (CIOptParams, CIParams, Environment, Scenario, SyntheticSpec, generate,
                         load_csv)
from pathlossfit import cli
from pathlossfit.cli import build_parser, main
from pathlossfit.domain import evaluate, fspl
from pathlossfit.fitters import (FITTER_KINDS, FLAG_ABG_AS_AB, FLAG_CIF_SINGLE_FREQUENCY,
                                 fit_with_reversion)
from pathlossfit.ingest import float_texts, spec_to_dict, write_csv
from pathlossfit.preprocess import PreprocessSettings
from pathlossfit.sensitivity import DEFAULT_MODELS
from conftest import BAD_SPEC_FIELDS


@pytest.fixture()
def ci_spec_file(tmp_path):
    spec = SyntheticSpec(truth=CIParams(2.9), sigma=5.7, seed=314159,
                         frequencies=((2.0, 150), (10.0, 150), (28.0, 150)),
                         distance_range=(60.0, 1238.0), campaign="synthetic-uma")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
    return path


@pytest.fixture()
def exact_ci_spec_file(tmp_path):
    spec = SyntheticSpec(truth=CIParams(2.9), sigma=0.0, seed=1,
                         frequencies=((2.0, 20), (28.0, 20)),
                         distance_range=(10.0, 500.0))
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


CSV_HEADER = "frequency_ghz,distance_m,path_loss_db,scenario,environment,campaign\n"


def write_csv_rows(path, rows):
    """A measurement CSV of (frequency, distance, loss, scenario) rows, NLOS."""
    path.write_text(CSV_HEADER + "".join(f"{f},{d},{pl},{scenario},NLOS,c\n"
                                         for f, d, pl, scenario in rows),
                    encoding="utf-8")
    return path


def campaign_rows(scenario, distances=(5.0, 10.0, 30.0, 60.0, 120.0, 250.0, 400.0)):
    return [(f, d, 40.0 + f + 30.0 * math.log10(d) + (k % 3), scenario)
            for k, (f, d) in enumerate((f, d) for f in (2.0, 28.0) for d in distances)]


def curves_per_frequency(ds, fits) -> bytes:
    """The model curve CSV built one frequency at a time: the reference."""
    grid = np.logspace(0.0, np.log10(float(ds.distance.max())), cli.CURVE_POINTS)
    rows = [["frequency_ghz", "distance_m", "fspl_db", *(f"{kind}_db" for kind in fits)]]
    for freq in ds.frequencies:
        columns = [float_texts(np.full(grid.size, freq)), float_texts(grid),
                   float_texts(fspl(freq, grid))]
        for report in fits.values():
            valid = grid >= report.params.d0
            columns.append([""] * int(np.count_nonzero(~valid))
                           + float_texts(evaluate(report.params, freq, grid[valid])))
        rows += zip(*columns)
    return "".join(",".join(row) + "\n" for row in rows).encode()


def read_report(path):
    """Parse a report as strict JSON: a NaN or Infinity fails the test."""
    def reject(constant):
        raise AssertionError(f"{path.name} holds the non-JSON constant {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestFspl:
    def test_prints_the_free_space_intercept(self, capsys):
        assert run("fspl", "1", "1") == 0
        assert capsys.readouterr().out.strip() == "32.4478"

    def test_28_ghz(self, capsys):
        assert run("fspl", "28", "1") == 0
        assert capsys.readouterr().out.strip() == "61.3909"

    def test_frequency_doubling(self, capsys):
        run("fspl", "1", "1")
        one = float(capsys.readouterr().out)
        run("fspl", "2", "1")
        two = float(capsys.readouterr().out)
        assert two - one == pytest.approx(6.0206, abs=1e-4)

    def test_domain_error_exit_code(self, capsys):
        assert run("fspl", "0", "1") == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("nan", "1"), ("28", "inf"), ("inf", "nan")])
    def test_non_finite_input_exits_2_with_one_line(self, capsys, argv):
        assert run("fspl", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestGenerate:
    def test_writes_loadable_csv(self, tmp_path, ci_spec_file):
        out = tmp_path / "data.csv"
        assert run("generate", "--spec", ci_spec_file, "--out", out) == 0
        ds = load_csv(out)
        assert len(ds) == 450
        assert ds.row_labels()[0][2] == "synthetic-uma"

    def test_byte_identical_reruns(self, tmp_path, ci_spec_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("generate", "--spec", ci_spec_file, "--out", a) == 0
        assert run("generate", "--spec", ci_spec_file, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path, ci_spec_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("generate", "--spec", ci_spec_file, "--out", a)
        run("generate", "--spec", ci_spec_file, "--out", b, "--seed", 9)
        assert a.read_bytes() != b.read_bytes()

    def test_missing_spec_is_config_error(self, tmp_path, capsys):
        assert run("generate", "--spec", tmp_path / "nope.json",
                   "--out", tmp_path / "x.csv") == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "fit", "sweep"])
    @pytest.mark.parametrize("field,value", BAD_SPEC_FIELDS)
    def test_bad_spec_value_exits_2_with_one_line_and_no_output(
            self, tmp_path, ci_spec_file, capsys, command, field, value):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({**json.loads(ci_spec_file.read_text()), field: value}),
                        encoding="utf-8")
        out = tmp_path / "out"
        argv = {"generate": ("generate", "--spec", spec, "--out", out),
                "fit": ("fit", "--synthetic", spec, "--out-dir", out),
                "sweep": ("sweep", "--synthetic", spec, "--out-dir", out,
                          "--split", "distance-close")}[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad synthetic spec: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "fit"])
    @pytest.mark.parametrize("change,message", [
        ({"truth": {"kind": "cif", "n": 1e307, "b": 1e300}}, "missing key 'f0'"),
        ({"sigma": None}, "missing key 'sigma'"),
        ({"truth": {"kind": "ci", "n": 2, "d0": 1e300}},
         "truth key 'd0' is not a parameter of kind ci (n)"),
        ({"truth": "ci"}, "truth must be a JSON dict, got 'ci'"),
        ({"truth": {"kind": ["ci"], "n": 2}}, "truth kind must be a JSON str, got ['ci']"),
        ({"truth": {"kind": "ci", "n": [2]}}, "truth n must be a finite number, got [2]"),
        ({"frequencies": [5]}, "frequencies entry must be a JSON dict, got 5"),
        ({"distance_range": 5}, "distance_range must be a JSON list, got 5"),
        ({"distance_range": [1, 2, 3]}, "distance_range must hold two numbers, got 3"),
        ([1, 2], "spec must be a JSON dict, got [1, 2]"),
    ], ids=["truth-without-f0", "without-sigma", "ci-truth-with-d0", "truth-a-str",
            "kind-a-list", "n-a-list", "frequency-a-number", "distance-range-a-number",
            "three-distances", "spec-a-list"])
    def test_a_missing_or_unknown_spec_key_is_named(self, tmp_path, ci_spec_file, capsys,
                                                    command, change, message):
        doc = change if isinstance(change, list) else {
            k: v for k, v in {**json.loads(ci_spec_file.read_text()), **change}.items()
            if v is not None}
        spec, out = tmp_path / "bad.json", tmp_path / "out"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        argv = {"generate": ("generate", "--spec", spec, "--out", out),
                "fit": ("fit", "--synthetic", spec, "--out-dir", out)}[command]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: bad synthetic spec: {message}\n"
        assert not out.exists()

    # counts of 2**50 and more fail before anything is allocated (numpy's
    # arange gives no error for some counts past 2**63); no count stands for
    # a file of 200,000 nested arrays
    @pytest.mark.parametrize("command", ["generate", "fit"])
    @pytest.mark.parametrize("count,naming", [
        (2 ** 50, "1125899906842624 samples: Unable to allocate"),
        (2 ** 63 - 1, "9223372036854775807 samples: "),
        (2 ** 63, "9223372036854775808 samples: "),
        (10 ** 20, "100000000000000000000 samples: Maximum allowed size exceeded"),
        (None, "maximum recursion depth exceeded"),
    ], ids=["count-2**50", "count-2**63-1", "count-2**63", "count-1e20", "nested"])
    def test_a_spec_too_large_to_read_or_draw_exits_2_with_one_line(
            self, tmp_path, ci_spec_file, capsys, command, count, naming):
        doc = {**json.loads(ci_spec_file.read_text()),
               "frequencies": [{"frequency_ghz": 28.0, "count": count}]}
        spec, out = tmp_path / "big.json", tmp_path / "out"
        spec.write_text(json.dumps(doc) if count else "[" * 200_000, encoding="utf-8")
        argv = {"generate": ("generate", "--spec", spec, "--out", out),
                "fit": ("fit", "--synthetic", spec, "--out-dir", out)}[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad synthetic spec: ") and err.count("\n") == 1
        assert naming in err
        assert not out.exists()

    @pytest.mark.parametrize("frequency", [0, -2])
    def test_nonpositive_frequency_exits_2_with_its_own_message(self, tmp_path, ci_spec_file,
                                                              capsys, frequency):
        doc = json.loads(ci_spec_file.read_text())
        doc["frequencies"][0]["frequency_ghz"] = frequency
        spec, out = tmp_path / "bad.json", tmp_path / "out.csv"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        assert run("generate", "--spec", spec, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error: synthetic frequency must be > 0 GHz, got {float(frequency)}\n")
        assert not out.exists()

    def test_byte_order_mark_spec_writes_the_same_csv(self, tmp_path, ci_spec_file):
        bom_spec = tmp_path / "bom.json"
        bom_spec.write_bytes(b"\xef\xbb\xbf" + ci_spec_file.read_bytes())
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        assert run("generate", "--spec", ci_spec_file, "--out", plain) == 0
        assert run("generate", "--spec", bom_spec, "--out", bom) == 0
        assert bom.read_bytes() == plain.read_bytes()


class TestPreprocess:
    def test_bins_and_reports(self, tmp_path, ci_spec_file, capsys):
        raw = tmp_path / "raw.csv"
        run("generate", "--spec", ci_spec_file, "--out", raw)
        out = tmp_path / "pp.csv"
        assert run("preprocess", "--input", raw, "--out", out) == 0
        assert "kept" in capsys.readouterr().err
        assert 0 < len(load_csv(out)) <= 450


class TestFit:
    def test_exact_ci_fit_report(self, tmp_path, exact_ci_spec_file):
        out_dir = tmp_path / "fitout"
        assert run("fit", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir,
                   "--models", "ci", "--no-binning", "--no-threshold") == 0
        doc = read_report(out_dir / "fit_report.json")
        ci = doc["models"]["ci"]
        assert ci["params"]["kind"] == "ci"
        assert ci["params"]["n"] == pytest.approx(2.9, abs=1e-9)
        assert ci["sigma_db"] < 1e-9
        assert doc["tool"]["name"] == "pathlossfit"
        assert len(doc["input"]["sha256"]) == 64

    def test_model_curves_columns(self, tmp_path, exact_ci_spec_file):
        out_dir = tmp_path / "fitout"
        run("fit", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir,
            "--models", "ci,cif", "--no-binning", "--no-threshold")
        read_report(out_dir / "fit_report.json")
        lines = (out_dir / "model_curves.csv").read_text().splitlines()
        assert lines[0] == "frequency_ghz,distance_m,fspl_db,ci_db,cif_db"
        # the curve grid starts at 1 m, where the CI model anchors to free space
        first = lines[1].split(",")
        assert first[1] == "1.0"
        assert float(first[3]) == pytest.approx(float(first[2]), abs=1e-12)

    # a CI-opt truth with d0 = 10 m, so that the fitted d0 blanks the first grid points
    @pytest.mark.parametrize("frequencies", [(28.0,), (28.0, 73.0), (2.0, 10.0, 18.0, 28.0, 38.0)])
    def test_model_curves_equal_a_table_built_per_frequency(self, frequencies):
        ds = generate(SyntheticSpec(truth=CIOptParams(2.2, 10.0), sigma=2.0, seed=7,
                                    frequencies=tuple((f, 60) for f in frequencies),
                                    distance_range=(10.0, 200.0)))
        fits = {kind: fit_with_reversion(ds, kind, d0_bounds=(5.0, 50.0))
                for kind in FITTER_KINDS}
        single = {FLAG_ABG_AS_AB, FLAG_CIF_SINGLE_FREQUENCY} <= {
            flag for report in fits.values() for flag in report.flags}
        assert single == (len(frequencies) == 1)
        curves = cli._model_curves_csv(ds, fits)
        assert curves == curves_per_frequency(ds, fits)
        assert b",," in curves  # CI-opt's blanks below its d0

    def test_single_frequency_abg_becomes_ab_with_warning(self, tmp_path, capsys):
        csv_path = tmp_path / "single.csv"
        csv_path.write_text(
            "frequency_ghz,distance_m,path_loss_db,scenario,environment,campaign\n"
            "28,10,90,UMa,NLOS,x\n28,50,105,UMa,NLOS,x\n28,200,120,UMa,NLOS,x\n",
            encoding="utf-8")
        out_dir = tmp_path / "fitout"
        assert run("fit", "--input", csv_path, "--out-dir", out_dir,
                   "--models", "ci,cif,abg") == 0
        assert "reverted to ab" in capsys.readouterr().err
        doc = read_report(out_dir / "fit_report.json")
        assert doc["models"]["abg"]["params"]["kind"] == "ab"
        assert "abg_reverted_to_ab" in doc["models"]["abg"]["flags"]
        assert doc["models"]["cif"]["params"]["b"] == 0.0

    def test_sub_ghz_cif_with_auto_f0_uses_the_unrounded_mean(self, tmp_path):
        # the weighted mean 0.35 GHz rounds to 0, which is no balance frequency
        csv_path = write_csv_rows(tmp_path / "sub_ghz.csv", [
            (0.3, 10, 60, "UMa"), (0.3, 100, 80, "UMa"),
            (0.4, 20, 70, "UMa"), (0.4, 200, 95, "UMa")])
        out_dir = tmp_path / "fitout"
        assert run("fit", "--input", csv_path, "--out-dir", out_dir,
                   "--models", "cif", "--no-binning") == 0
        params = read_report(out_dir / "fit_report.json")["models"]["cif"]["params"]
        assert params["f0"] == pytest.approx(0.35, abs=1e-15)

    # at 1e308 GHz the check's product overflows: no RuntimeWarning escapes
    @pytest.mark.parametrize("f0", ["1e100", "1e308"])
    def test_cif_f0_too_far_from_the_data_exits_1(self, tmp_path, ci_spec_file, capsys, f0):
        assert run("fit", "--synthetic", ci_spec_file, "--out-dir", tmp_path / "out",
                   "--models", "cif", "--f0", f0) == 1
        assert capsys.readouterr().err == (
            "error: fit_cif: f0 too far from the data to write (a, g) as (n, b)\n")
        assert not (tmp_path / "out").exists()

    def test_an_error_quoting_a_newline_stays_one_line(self, tmp_path, ci_spec_file, capsys):
        assert run("fit", "--synthetic", ci_spec_file, "--out-dir", tmp_path / "out",
                   "--models", "ci\nfoo") == 2
        assert capsys.readouterr().err == ("error: argument --models: unknown model(s) "
                                           "ci\\nfoo; choose from abg, ab, ci, ci_opt, cif\n")

    def test_synthetic_seed_override_fits_the_generated_campaign(self, tmp_path,
                                                                 ci_spec_file):
        raw, models = tmp_path / "raw.csv", ("--models", "abg,ab,ci,ci_opt,cif")
        assert run("generate", "--spec", ci_spec_file, "--seed", 3, "--out", raw) == 0
        assert run("fit", "--input", raw, "--out-dir", tmp_path / "csv", *models) == 0
        assert run("fit", "--synthetic", ci_spec_file, "--seed", 3,
                   "--out-dir", tmp_path / "synthetic", *models) == 0
        synthetic = read_report(tmp_path / "synthetic" / "fit_report.json")
        assert synthetic["input"]["seed"] == 3
        assert synthetic["models"] == read_report(tmp_path / "csv" / "fit_report.json")["models"]

    def test_missing_input_exits_2_without_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "fitout"
        assert run("fit", "--input", tmp_path / "nope.csv", "--out-dir", out_dir) == 2
        assert "not found" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unwritable_out_dir_exits_2_with_one_line(self, tmp_path, exact_ci_spec_file,
                                                       capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        assert run("fit", "--synthetic", exact_ci_spec_file,
                   "--out-dir", blocker / "sub") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

    def test_non_utf8_input_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(("frequency_ghz,distance_m,path_loss_db,scenario,environment,"
                          "campaign\n28,100,120.5,UMa,NLOS,caf\xe9\n").encode("latin-1"))
        assert run("fit", "--input", path, "--out-dir", tmp_path / "fitout") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "latin1.csv" in err and "Traceback" not in err
        assert not (tmp_path / "fitout").exists()

    # unquoted fields and other column orders: test_bulk_load.py
    @pytest.mark.parametrize("campaign", ["c," * 100_000], ids=["quoted"])
    def test_campaign_over_the_csv_field_limit(self, tmp_path, capsys, campaign):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=0.0, seed=1,
                             frequencies=((2.0, 20), (28.0, 20)),
                             distance_range=(10.0, 500.0), campaign=campaign)
        path = tmp_path / "long.csv"
        write_csv(generate(spec), path)
        code = run("fit", "--input", path, "--out-dir", tmp_path / "fitout")
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "fitout").exists()
        assert err == f"error: {path} line 2: field larger than field limit (131072)\n"

    def test_duplicate_required_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text(CSV_HEADER.replace("\n", ",frequency_ghz,note,note\n")
                        + "28,100,120.5,UMa,NLOS,c,38,x,y\n", encoding="utf-8")
        assert run("fit", "--input", path, "--out-dir", tmp_path / "fitout") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: duplicate column(s) frequency_ghz\n")
        path.write_text(CSV_HEADER.replace("\n", ",note,note\n")
                        + "28,100,120.5,UMa,NLOS,c,x,y\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="ignoring extra column[(]s[)] note, note"):
            assert len(load_csv(path)) == 1

    def test_extra_column_warns_in_one_line_on_every_call(self, tmp_path, exact_ci_spec_file,
                                                          capsys):
        raw, path = tmp_path / "raw.csv", tmp_path / "extra.csv"
        assert run("generate", "--spec", exact_ci_spec_file, "--out", raw) == 0
        header, *rows = raw.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{header},note\n" + "".join(f"{row},x\n" for row in rows),
                        encoding="utf-8")
        for _ in range(2):
            assert run("fit", "--input", path, "--out-dir", tmp_path / "fitout") == 0
            assert capsys.readouterr().err == (
                f"warning: {path}: ignoring extra column(s) note\n")

    def test_header_only_csv_exits_1_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER, encoding="utf-8")
        assert run("fit", "--input", path, "--out-dir", tmp_path / "fitout") == 1
        assert capsys.readouterr().err == "error: cannot fit an empty dataset\n"
        assert not (tmp_path / "fitout").exists()

    def test_requires_exactly_one_source(self, tmp_path, ci_spec_file, capsys):
        assert run("fit", "--out-dir", tmp_path) == 2
        csv_path = tmp_path / "d.csv"
        run("generate", "--spec", ci_spec_file, "--out", csv_path)
        assert run("fit", "--input", csv_path, "--synthetic", ci_spec_file,
                   "--out-dir", tmp_path) == 2

    def test_no_temp_files_left_behind(self, tmp_path, exact_ci_spec_file):
        out_dir = tmp_path / "fitout"
        run("fit", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir,
            "--no-binning", "--no-threshold")
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "fit_report.json", "model_curves.csv"]
        read_report(out_dir / "fit_report.json")

    @pytest.mark.parametrize("flags", [
        ("--models", "ci_opt", "--d0-bounds", "0.05", "50"),
        ("--models", "ci", "--d0-bounds", "60", "5"),
        ("--models", "ci", "--d0-bounds", "nan", "5"),
        ("--models", "ci", "--f0", "nan"),
        ("--models", "cif", "--f0", "-5"),
        ("--bin-width", "inf"),
        ("--threshold-margin", "inf"),
    ], ids=["d0-below-0.1", "d0-reversed", "d0-nan", "f0-nan", "f0-negative",
            "bin-width-inf", "threshold-margin-inf"])
    def test_bad_number_exits_2_with_one_line_and_no_report(self, tmp_path,
                                                            exact_ci_spec_file,
                                                            capsys, flags):
        out_dir = tmp_path / "fitout"
        assert run("fit", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir,
                   *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()


class TestSweep:
    def test_distance_close_defaults(self, tmp_path, ci_spec_file):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "distance-close", "--no-binning", "--no-threshold") == 0
        doc = read_report(out_dir / "sweep_report.json")
        assert doc["split"] == {"kind": "distance_close", "d_max": 200.0,
                                "delta_grid": [float(50 * k) for k in range(13)]}
        sigmas = [p["models"]["ci"]["prediction_sigma_db"]
                  for p in doc["points"] if not p["skipped"]]
        assert sigmas and max(sigmas) - min(sigmas) < 1.0

    @pytest.mark.parametrize("scenario,d_max", [
        ("UMiSC", 50.0), ("InHOffice", 15.0), ("InHSM", 200.0)])
    def test_distance_close_d_max_follows_the_scenario(self, tmp_path, scenario, d_max):
        spec = SyntheticSpec(truth=CIParams(2.9), sigma=3.0, seed=5,
                             frequencies=((2.0, 60), (28.0, 60)),
                             distance_range=(2.0, 400.0), scenario=Scenario(scenario))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", spec_path, "--out-dir", out_dir,
                   "--split", "distance-close", "--delta-grid", "0,5",
                   "--no-binning", "--no-threshold") == 0
        doc = read_report(out_dir / "sweep_report.json")
        assert doc["split"]["d_max"] == d_max
        assert doc["points"][0]["n_pred"] == int((generate(spec).distance <= d_max).sum())

    def test_mixed_scenario_defaults_exit_2_naming_them(self, tmp_path, capsys):
        csv_path = write_csv_rows(tmp_path / "mixed.csv",
                                  campaign_rows("UMa") + campaign_rows("UMiSC"))
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--input", csv_path, "--out-dir", out_dir,
                   "--split", "distance-close", "--no-binning") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UMa 200 m" in err and "UMiSC 50 m" in err and "--d-max" in err
        assert not out_dir.exists()
        assert run("sweep", "--input", csv_path, "--out-dir", out_dir,
                   "--split", "distance-close", "--no-binning", "--d-max", "100") == 0

    def test_d_max_default_reads_only_the_scenarios_left_after_conditioning(self, tmp_path):
        # UMa and Other share 200 m; the one UMiSC sample is over the threshold
        rows = (campaign_rows("UMa") + campaign_rows("Other:drive-test")
                + [(28.0, 100.0, 250.0, "UMiSC")])
        csv_path = write_csv_rows(tmp_path / "mixed.csv", rows)
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--input", csv_path, "--out-dir", out_dir,
                   "--split", "distance-close", "--no-binning") == 0
        doc = read_report(out_dir / "sweep_report.json")
        assert doc["preprocess"]["removed_by_threshold"] == 1
        assert doc["split"]["d_max"] == 200.0

    def test_noise_free_distance_sweep_has_zero_sigmas(self, tmp_path, exact_ci_spec_file):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir,
                   "--split", "distance-close", "--models", "abg,ab,ci,ci_opt,cif",
                   "--no-binning", "--no-threshold") == 0
        doc = read_report(out_dir / "sweep_report.json")
        sigmas = [model[key] for point in doc["points"] if not point["skipped"]
                  for model in point["models"].values()
                  for key in ("measurement_sigma_db", "prediction_sigma_db")]
        assert len(sigmas) >= 20
        assert all(math.isfinite(s) and 0.0 <= s < 1e-6 for s in sigmas)

    def test_frequency_loo_row_groups(self, tmp_path, ci_spec_file):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "frequency-loo", "--models", "ci",
                   "--no-binning", "--no-threshold") == 0
        doc = read_report(out_dir / "sweep_report.json")
        assert [p["point"] for p in doc["points"]] == [2.0, 10.0, 28.0]
        lines = (out_dir / "sweep_trace.csv").read_text().splitlines()
        points = {line.split(",")[0] for line in lines[1:]}
        assert points == {"2.0", "10.0", "28.0"}

    def test_all_empty_grid_exits_3(self, tmp_path, ci_spec_file, capsys):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "distance-close", "--d-max", "2000",
                   "--delta-grid", "0", "--no-binning", "--no-threshold") == 3
        assert "degeneracy" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("rows", [[], [(28.0, 100.0, 500.0, "UMa")]],
                             ids=["header-only", "all-over-threshold"])
    def test_frequency_loo_on_no_samples_exits_3(self, tmp_path, capsys, rows):
        csv_path = write_csv_rows(tmp_path / "empty.csv", rows)
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--input", csv_path, "--out-dir", out_dir,
                   "--split", "frequency-loo") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_bad_delta_grid_is_config_error(self, tmp_path, ci_spec_file):
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", tmp_path,
                   "--split", "distance-close", "--delta-grid", "100,50") == 2

    @pytest.mark.parametrize("flags,message", [
        (("--input", "nope.csv", "--bin-width", "0", "--f0", "nan"), "bin_width"),
        (("--input", "nope.csv", "--delta-grid", "100,50", "--f0", "nan"), "not found"),
        (("--delta-grid", "100,50", "--d0-bounds", "60", "5"), "exactly one input source"),
        (("--synthetic", "SPEC", "--delta-grid", "100,50", "--f0", "nan"),
         "strictly increasing"),
    ], ids=["settings", "missing-source", "no-source", "split"])
    def test_first_bad_flag_in_check_order_wins(self, tmp_path, exact_ci_spec_file,
                                                 capsys, flags, message):
        # preprocess settings, the input source, the split spec, then --f0/--d0-bounds
        flags = [exact_ci_spec_file if f == "SPEC" else f for f in flags]
        assert run("sweep", "--split", "distance-close", "--out-dir", tmp_path / "out",
                   *flags) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--split", "distance-close", "--delta-grid", "0,50,inf"),
        ("--split", "distance-close", "--delta-grid", "0,nan"),
        ("--split", "distance-close", "--d-max", "inf"),
        ("--split", "distance-far", "--d-min", "inf"),
    ], ids=["grid-inf", "grid-nan", "d-max-inf", "d-min-inf"])
    def test_non_finite_split_exits_2_without_report(self, tmp_path, ci_spec_file,
                                                      capsys, flags):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir, *flags) == 2
        assert "finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("hold_out", ["73", "28.0000001"])
    def test_hold_out_not_in_the_data_exits_2_naming_the_frequencies(
            self, tmp_path, ci_spec_file, capsys, hold_out):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "frequency-loo", "--hold-out", hold_out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "[2.0, 10.0, 28.0]" in err
        assert not out_dir.exists()

    def test_hold_out_in_the_data_is_the_only_point(self, tmp_path, ci_spec_file):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "frequency-loo", "--hold-out", "28", "--models", "ci") == 0
        doc = read_report(out_dir / "sweep_report.json")
        assert [p["point"] for p in doc["points"]] == [28.0]

    @pytest.mark.parametrize("split,flag", [
        ("distance-close", "--hold-out"), ("distance-far", "--hold-out"),
        ("distance-close", "--d-min"), ("frequency-loo", "--d-min"),
        ("distance-far", "--d-max"), ("frequency-loo", "--d-max"),
    ])
    def test_flag_the_split_ignores_exits_2_before_input_is_read(self, tmp_path, capsys,
                                                                 split, flag):
        empty = tmp_path / "empty.csv"  # loading it would fail: the flag must fail first
        empty.write_text("")
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--input", empty, "--out-dir", out_dir,
                   "--split", split, flag, "28") == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply to --split {split}\n"
        assert not out_dir.exists()

    def test_frequency_loo_accepts_and_ignores_a_delta_grid(self, tmp_path, ci_spec_file):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "frequency-loo", "--delta-grid", "0,50", "--models", "ci") == 0
        doc = read_report(out_dir / "sweep_report.json")
        assert [p["point"] for p in doc["points"]] == [2.0, 10.0, 28.0]

    def test_trace_has_skipped_rows(self, tmp_path, ci_spec_file):
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "distance-far", "--d-min", "1200",
                   "--delta-grid", "0,1100,1190", "--models", "ci",
                   "--no-binning", "--no-threshold") == 0
        read_report(out_dir / "sweep_report.json")
        lines = (out_dir / "sweep_trace.csv").read_text().splitlines()
        assert any(line.endswith(",true") for line in lines[1:])
        assert any(line.endswith(",false") for line in lines[1:])

    def test_trace_rows_repeat_the_report(self, tmp_path, ci_spec_file):
        # each trace row holds its point's counts, or its model's value and
        # sigmas, as the report gives them (floats by repr)
        out_dir = tmp_path / "sweepout"
        assert run("sweep", "--synthetic", ci_spec_file, "--out-dir", out_dir,
                   "--split", "distance-far", "--d-min", "1200",
                   "--delta-grid", "0,1100,1190", "--models", "ci,ci_opt,cif",
                   "--no-binning", "--no-threshold") == 0
        want = []
        for point in read_report(out_dir / "sweep_report.json")["points"]:
            head, tail = repr(point["point"]), [str(point["n_meas"]), str(point["n_pred"])]
            if point["skipped"]:
                want.append([head, "", "", "", "", "", *tail, "true"])
            for model, entry in point.get("models", {}).items():
                sigmas = [repr(entry["measurement_sigma_db"]), repr(entry["prediction_sigma_db"])]
                want += [[head, model, name, repr(value), *sigmas, *tail, "false"]
                         for name, value in entry["params"].items() if name != "kind"]
        lines = (out_dir / "sweep_trace.csv").read_text().splitlines()
        assert lines[0].split(",")[6:8] == ["n_meas", "n_pred"]
        assert sorted(line.split(",") for line in lines[1:]) == sorted(want)
        assert {row[-1] for row in want} == {"true", "false"}

    @pytest.fixture()
    def short_range_csv(self, tmp_path):
        """tools/output_digests.py's short_spec(7, 1): CI-opt truth (n 2.2, d0
        10 m), 150 samples at each of 28 and 73 GHz over 10-200 m, InHOffice LOS."""
        spec = SyntheticSpec(truth=CIOptParams(2.2, 10.0), sigma=2.0, seed=7,
                             frequencies=((28.0, 150), (73.0, 150)),
                             distance_range=(10.0, 200.0), scenario=Scenario("InHOffice"),
                             environment=Environment.LOS)
        spec_path, csv_path = tmp_path / "short.json", tmp_path / "short.csv"
        spec_path.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
        assert run("generate", "--spec", spec_path, "--out", csv_path) == 0
        return csv_path

    # ROADMAP item 4: the first model error skips a whole point, so CI-opt's
    # d0 above the nearest prediction distance skips every point; today the
    # sweep exits 3 naming "CI model with d0=15.70... m is defined for d >= d0"
    @pytest.mark.xfail(strict=True, reason="item 4: one model's error skips the point")
    def test_a_ci_opt_d0_past_the_prediction_set_keeps_the_other_models(
            self, tmp_path, short_range_csv):
        assert run("sweep", "--input", short_range_csv, "--out-dir", tmp_path / "out",
                   "--models", "abg,ab,ci,ci_opt,cif", "--split", "distance-close",
                   "--no-binning", "--delta-grid", "0,5,10,20,40") == 0

    def test_the_short_range_sweep_without_ci_opt_fits(self, tmp_path, short_range_csv):
        assert run("sweep", "--input", short_range_csv, "--out-dir", tmp_path / "out",
                   "--models", "abg,ab,ci,cif", "--split", "distance-close",
                   "--no-binning", "--delta-grid", "0,5,10,20,40") == 0


# Two rows at each of 28 and 73 GHz: a width of 1e-320 m overflows d / w.
TINY_WIDTH_ROWS = [(28.0, 100.0, 110.0, "UMa"), (28.0, 200.0, 118.0, "UMa"),
                   (73.0, 100.0, 120.0, "UMa"), (73.0, 300.0, 125.0, "UMa")]
# 1e300 GHz is finite and > 0, so the CSV loads; its free-space loss is not finite.
HUGE_FREQUENCY_ROWS = [(28.0, 100.0, 110.0, "UMa"), (28.0, 200.0, 118.0, "UMa"),
                       (1e300, 150.0, 120.0, "UMa"), (1e300, 300.0, 125.0, "UMa")]


def assert_one_error_line(captured, naming: str) -> None:
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert naming in captured.err


class TestOverflow:
    def test_tiny_bin_width_preprocess_exits_2_without_output(self, tmp_path, capsys):
        data = write_csv_rows(tmp_path / "in.csv", TINY_WIDTH_ROWS)
        out = tmp_path / "out.csv"
        assert run("preprocess", "--input", data, "--out", out, "--bin-width", "1e-320") == 2
        assert_one_error_line(capsys.readouterr(), "bin_width 1e-320")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_tiny_bin_width_fit_exits_2_without_report(self, tmp_path, capsys):
        data = write_csv_rows(tmp_path / "in.csv", TINY_WIDTH_ROWS)
        assert run("fit", "--input", data, "--out-dir", tmp_path / "out",
                   "--bin-width", "1e-320") == 2
        assert_one_error_line(capsys.readouterr(), "bin_width 1e-320")
        assert not (tmp_path / "out").exists()

    def test_bin_width_that_does_not_overflow_still_bins(self, tmp_path, capsys):
        data = write_csv_rows(tmp_path / "in.csv", TINY_WIDTH_ROWS)
        out = tmp_path / "out.csv"
        assert run("preprocess", "--input", data, "--out", out, "--bin-width", "1e-300") == 0
        assert len(load_csv(out)) == 4

    def test_fspl_overflow_exits_1_with_one_line(self, capsys):
        assert run("fspl", "1e300", "1e300") == 1
        assert_one_error_line(capsys.readouterr(), "free-space path loss")

    def test_a_curve_grid_past_the_fspl_range_exits_1_without_output(self, tmp_path, capsys):
        # the fits hold at 1e308 m, but the curve grid's FSPL overflows at 28 GHz first
        rows = [(f, d, 40.0 + f + 30.0 * math.log10(d) + k % 3, "UMa")
                for k, (f, d) in enumerate((f, d) for f in (28.0, 73.0) for d in (5, 30, 400))]
        data = write_csv_rows(tmp_path / "in.csv", [*rows, (28.0, 1e308, 150.0, "UMa")])
        assert run("fit", "--input", data, "--out-dir", tmp_path / "out", "--models",
                   "abg,ab,ci,ci_opt,cif") == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: free-space path loss at 28.0 GHz and "
                                "4.641588833612982e+298 m is out of the float range\n")
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("sweep", "--split", "frequency-loo", "--no-binning"),
        ("fit",),
    ], ids=["frequency-loo-sweep", "fit"])
    def test_huge_frequency_exits_1_without_report(self, tmp_path, capsys, argv):
        data = write_csv_rows(tmp_path / "in.csv", HUGE_FREQUENCY_ROWS)
        assert run(*argv, "--input", data, "--out-dir", tmp_path / "out") == 1
        assert_one_error_line(capsys.readouterr(), "free-space path loss")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("argv,code", [
        (("fit",), 1), (("sweep", "--split", "frequency-loo"), 3),
    ], ids=["fit", "frequency-loo-sweep"])
    def test_frequency_past_the_product_range_gives_no_numpy_warning(self, tmp_path, capsys,
                                                                     argv, code):
        # 20 dB * 1e307 GHz overflows: the fspl error must come before that product
        rows = [(1e307, 100.0, 120.0, "UMa"), (1e307, 200.0, 130.0, "UMa"),
                (2.0, 300.0, 110.0, "UMa")]
        data = write_csv_rows(tmp_path / "in.csv", rows)
        assert run(*argv, "--input", data, "--out-dir", tmp_path / "out",
                   "--no-threshold", "--no-binning") == code
        assert_one_error_line(capsys.readouterr(),
                              "free-space path loss at 1e+307 GHz and 1.0 m")
        assert not (tmp_path / "out").exists()

    # sigma 1e308 times a standard normal draw beyond 1.8 overflows, and so
    # does a slope of 1e307 times 10 log10(d)
    @pytest.mark.parametrize("field,value", [
        ("sigma", 1e308), ("truth", {"kind": "ci", "n": 1e307}),
    ], ids=["shadowing", "truth"])
    def test_a_spec_past_the_float_range_gives_no_numpy_warning(self, tmp_path, capsys,
                                                                ci_spec_file, field, value):
        spec, out = tmp_path / "wide.json", tmp_path / "out.csv"
        spec.write_text(json.dumps({**json.loads(ci_spec_file.read_text()), field: value}),
                        encoding="utf-8")
        assert run("generate", "--spec", spec, "--out", out) == 1
        assert_one_error_line(capsys.readouterr(), "path_loss must be finite, got ")
        assert not out.exists()

    @pytest.mark.parametrize("losses,naming", [
        ((4000.0, 120.0), "path losses from 120.0 to 4000.0 dB"),
        ((-4000.0, -4000.0), "path losses from -4000.0 to -4000.0 dB"),
    ], ids=["power-overflows", "power-underflows"])
    def test_linear_average_out_of_range_exits_1_without_output(self, tmp_path, capsys,
                                                                losses, naming):
        data = write_csv_rows(tmp_path / "in.csv",
                              [(2.0, 100.0, losses[0], "UMa"), (2.0, 100.5, losses[1], "UMa")])
        assert run("preprocess", "--input", data, "--out", tmp_path / "out.csv",
                   "--no-threshold", "--bin-average", "linear") == 1
        assert_one_error_line(capsys.readouterr(), f"linear bin averaging is out of the "
                                                   f"float range for {naming}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_a_non_utf8_input_file_name_is_escaped_as_json_escapes_it(tmp_path, ci_spec_file):
    # the name decodes with a lone surrogate, which orjson refuses to write
    path = tmp_path / os.fsdecode(b"caf\xe9.csv")
    try:
        path.touch()
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    assert run("generate", "--spec", ci_spec_file, "--out", path) == 0
    assert run("fit", "--input", path, "--out-dir", tmp_path / "fit") == 0
    assert run("sweep", "--input", path, "--out-dir", tmp_path / "loo",
               "--split", "frequency-loo") == 0
    for report in (tmp_path / "fit" / "fit_report.json", tmp_path / "loo" / "sweep_report.json"):
        text = report.read_text(encoding="ascii")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert json.loads(text)["input"]["path"] == str(path)


class TestOutputTargets:
    @pytest.mark.parametrize("argv,blocked", [
        (("fit",), "model_curves.csv"),
        (("sweep", "--split", "distance-close"), "sweep_trace.csv"),
    ], ids=["fit", "sweep"])
    def test_a_directory_target_exits_2_and_writes_nothing(self, tmp_path, exact_ci_spec_file,
                                                           capsys, argv, blocked):
        out_dir = tmp_path / "out"
        (out_dir / blocked).mkdir(parents=True)
        assert run(*argv, "--synthetic", exact_ci_spec_file, "--out-dir", out_dir) == 2
        assert_one_error_line(capsys.readouterr(),
                              f"output path is a directory: {out_dir / blocked}")
        assert [p.name for p in out_dir.iterdir()] == [blocked]
        assert not any((out_dir / blocked).iterdir())

    def test_a_failed_rename_leaves_no_staged_file(self, tmp_path, exact_ci_spec_file,
                                                   capsys, monkeypatch):
        real, targets = os.replace, []

        def replace(src, dst):
            targets.append(dst)
            if len(targets) == 2:
                raise OSError("rename failed")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        out_dir = tmp_path / "out"
        assert run("fit", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir) == 2
        assert_one_error_line(capsys.readouterr(), "rename failed")
        # the file renamed before the failure stays; no staged file is left
        assert [p.name for p in out_dir.iterdir()] == ["fit_report.json"]


    def test_a_writer_failing_halfway_keeps_the_previous_output(self, tmp_path,
                                                                exact_ci_spec_file, capsys,
                                                                monkeypatch):
        out_dir, pieces = tmp_path / "out", cli._array_pieces

        def failing_pieces(values, depth):
            if failing_pieces.arrays == 1:
                raise OSError("disk full")
            failing_pieces.arrays += 1
            yield from pieces(values, depth)

        for previous in (False, True):
            if previous:
                assert run("fit", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir) == 0
            before = {p.name: p.read_bytes() for p in out_dir.glob("*")}
            failing_pieces.arrays = 0
            monkeypatch.setattr(cli, "_array_pieces", failing_pieces)
            assert run("fit", "--synthetic", exact_ci_spec_file, "--out-dir", out_dir) == 2
            monkeypatch.setattr(cli, "_array_pieces", pieces)
            assert_one_error_line(capsys.readouterr(), "disk full")
            # the failure came after the first array was written to the staged file
            assert failing_pieces.arrays == 1
            assert {p.name: p.read_bytes() for p in out_dir.glob("*")} == before
            assert sorted(before) == (["fit_report.json", "model_curves.csv"] if previous
                                      else [])


class TestMalformedCommandLine:
    @pytest.mark.parametrize("argv,message", [
        (("fit", "--f0", "abc"), "argument --f0: --f0 expects 'auto' or a number in GHz"),
        (("fit", "--models", "foo"), "argument --models: unknown model(s) foo; "
                                     "choose from abg, ab, ci, ci_opt, cif"),
        (("fit", "--models", ","), "argument --models: --models needs at least one model"),
        (("sweep", "--split", "distance-close", "--delta-grid", "a"),
         "argument --delta-grid: --delta-grid expects comma-separated numbers"),
        (("fit", "--bogus"), "unrecognized arguments: --bogus"),
        (("sweep",), "the following arguments are required: --split"),
        ((), "the following arguments are required: command"),
    ], ids=["f0", "unknown-model", "no-model", "delta-grid", "unknown-flag", "no-split",
            "no-command"])
    def test_exits_2_with_one_error_line_and_no_usage(self, tmp_path, monkeypatch, capsys,
                                                      argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    def test_flags_of_one_call_do_not_leak_into_the_next(self, tmp_path, ci_spec_file):
        first, second, fresh = (tmp_path / name for name in ("first", "second", "fresh"))
        assert run("fit", "--synthetic", ci_spec_file, "--out-dir", first,
                   "--d0-bounds", "0.5", "20", "--models", "ci_opt") == 0
        assert run("fit", "--synthetic", ci_spec_file, "--out-dir", second) == 0
        build_parser.cache_clear()
        assert run("fit", "--synthetic", ci_spec_file, "--out-dir", fresh) == 0
        report = read_report(second / "fit_report.json")
        assert report["d0_bounds"] == [0.1, 50.0]
        assert sorted(report["models"]) == ["abg", "ci", "cif"]
        for name in ("fit_report.json", "model_curves.csv"):
            assert (second / name).read_bytes() == (fresh / name).read_bytes()
        assert read_report(first / "fit_report.json")["d0_bounds"] == [0.5, 20.0]

    def test_one_parser_serves_every_call(self):
        assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "in.csv"],
    ["sweep", "--input", "in.csv", "--split", "frequency-loo"],
    ["preprocess", "--input", "in.csv", "--out", "out.csv"],
], ids=["fit", "sweep", "preprocess"])
def test_flag_defaults_are_read_from_the_modules_that_own_them(argv):
    args = build_parser().parse_args(argv)
    assert cli._preprocess_settings(args) == PreprocessSettings()
    if argv[0] != "preprocess":
        assert args.models == DEFAULT_MODELS
