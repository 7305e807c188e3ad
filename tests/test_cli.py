"""Command-line behavior: outputs, exit codes, warnings, atomicity."""

import json

import pytest

from pathlossfit import CIParams, SyntheticSpec, load_csv
from pathlossfit.cli import main
from pathlossfit.ingest import spec_to_dict


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
