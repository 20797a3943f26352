"""End-to-end tests of the command-line interface and its exit-code contract."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tangencylab.cli import main
from tangencylab.families import load_family


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_wellspaced_roundtrip(self, tmp_path):
        out = tmp_path / "fam.txt"
        code = run_cli(
            "generate", "--kind", "wellspaced", "--R", "4096", "--rho", "16",
            "--eps", "0.3", "--seed", "1", "-o", str(out),
        )
        assert code == 0
        fam = load_family(out)
        assert fam.provenance["generator"] == "wellspaced"
        assert fam.provenance["seed"] == "1"

    def test_clamshell_rows(self, tmp_path):
        out = tmp_path / "cl.txt"
        assert run_cli("generate", "--kind", "clamshell", "--N", "100", "-o", str(out)) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 100

    def test_invalid_rho_names_parameter(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--kind", "wellspaced", "--R", "4096", "--rho", "100",
            "--eps", "0.1", "--seed", "1", "-o", str(tmp_path / "x.txt"),
        )
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--kind", "wellspaced", "--R", "4096", "--rho", "16",
                "--eps", "0.3", "--seed", "9"]
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--kind", "wellspaced", "--R", "4096", "--rho", "16",
                "--eps", "0.3", "--seed", "1"]
        monkeypatch.setenv("TANGENCY_SEED", "2")
        assert run_cli(*args, "-o", str(a)) == 0
        monkeypatch.delenv("TANGENCY_SEED")
        assert run_cli(*args, "--seed", "2", "-o", str(b)) == 0
        fa = load_family(a)
        fb = load_family(b)
        np.testing.assert_array_equal(fa.points, fb.points)


class TestCount:
    def test_summary_line(self, tmp_path, capsys):
        fam = tmp_path / "cl.txt"
        run_cli("generate", "--kind", "clamshell", "--N", "10", "-o", str(fam))
        capsys.readouterr()
        assert run_cli("count", "--family", str(fam), "--delta", "0.2") == 0
        out = capsys.readouterr().out
        assert "|X|=10" in out and "|CT_delta|=45" in out

    def test_oracle_flag_matches_default(self, tmp_path):
        fam = tmp_path / "f.txt"
        run_cli("generate", "--kind", "separated", "--R", "32", "--rho", "4",
                "--box", "annular", "-o", str(fam))
        d, o = tmp_path / "d.txt", tmp_path / "o.txt"
        assert run_cli("count", "--family", str(fam), "--delta", "0.6", "-o", str(d)) == 0
        assert run_cli("count", "--family", str(fam), "--delta", "0.6", "--oracle", "-o", str(o)) == 0
        assert d.read_bytes() == o.read_bytes()

    def test_exact_path(self, tmp_path, capsys):
        fam = tmp_path / "lat.txt"
        run_cli("generate", "--kind", "lattice", "--n", "3", "-o", str(fam))
        capsys.readouterr()
        assert run_cli("count", "--family", str(fam), "--exact", "--bin") == 0
        assert "delta=0.0" in capsys.readouterr().out

    def test_coincident_integer_points_exit_2(self, tmp_path, capsys):
        # load_family does not validate, so duplicates reach the exact counter
        fam = tmp_path / "dup.txt"
        fam.write_text("# generator=x\n# integer=1 n=3\n0 0 1\n0 0 1\n1 0 2\n")
        for flags in ((), ("--bin",)):
            assert run_cli("count", "--family", str(fam), "--exact", *flags) == 2
            assert "coincident" in capsys.readouterr().err

    def test_non_finite_point_exit_2(self, tmp_path, capsys):
        fam = tmp_path / "cl.txt"
        run_cli("generate", "--kind", "clamshell", "--N", "3", "-o", str(fam))
        lines = fam.read_text().splitlines()
        row = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
        lines[row + 1] = "nan" + lines[row + 1][lines[row + 1].index(" "):]
        fam.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("count", "--family", str(fam), "--delta", "0.1") == 2
        assert "NaN" in capsys.readouterr().err

    def test_exact_on_float_family_is_misuse(self, tmp_path):
        fam = tmp_path / "cl.txt"
        run_cli("generate", "--kind", "clamshell", "--N", "5", "-o", str(fam))
        assert run_cli("count", "--family", str(fam), "--exact") == 2

    def test_parse_error_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# generator=x\n1 2 3\n4 5\n")
        assert run_cli("count", "--family", str(bad), "--delta", "0.1") == 2
        assert "line 3" in capsys.readouterr().err

    def test_empty_family_exit_2(self, tmp_path):
        empty = tmp_path / "e.txt"
        empty.write_text("# generator=x\n")
        assert run_cli("count", "--family", str(empty), "--delta", "0.1") == 2

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)])
    def test_non_finite_delta_exit_2(self, tmp_path, capsys, oracle):
        fam = tmp_path / "cl.txt"
        run_cli("generate", "--kind", "clamshell", "--N", "5", "-o", str(fam))
        capsys.readouterr()
        for delta in ("inf", "nan"):
            assert run_cli("count", "--family", str(fam), "--delta", delta, *oracle) == 2
            assert "delta" in capsys.readouterr().err

    def test_missing_delta(self, tmp_path):
        fam = tmp_path / "cl.txt"
        run_cli("generate", "--kind", "clamshell", "--N", "5", "-o", str(fam))
        assert run_cli("count", "--family", str(fam)) == 2

    def test_pair_files_with_bucket_lines(self, tmp_path):
        near, exact = tmp_path / "near.txt", tmp_path / "int.txt"
        near.write_text("# generator=x\n0.25 0.0 1.25\n0.5 0.0 1.5\n0.75 0.0 1.75\n1.0 0.0 2.0\n")
        exact.write_text("# generator=x\n# integer=1 n=5\n0 0 1\n1 0 2\n0 1 2\n3 4 6\n0 0 3\n")
        near_pairs = (
            "# family_hash=af2ef6786cbbf2c8 delta=0.2 n_pairs=6\n"
            "0 1 0.3535533905932738 0.0\n0 2 0.7071067811865476 0.0\n"
            "0 3 1.0606601717798212 0.0\n1 2 0.3535533905932738 0.0\n"
            "1 3 0.7071067811865476 0.0\n2 3 0.3535533905932738 0.0\n"
        )
        exact_pairs = (
            "# family_hash=cc30c5b9932600ab delta=0.0 n_pairs=5\n"
            "0 1 1.4142135623730951 0.0\n0 2 1.4142135623730951 0.0\n"
            "0 3 7.0710678118654755 0.0\n1 4 1.4142135623730951 0.0\n"
            "2 4 1.4142135623730951 0.0\n"
        )
        expected = {
            ("--delta", "0.2", "--bin"):
                near_pairs + "# bucket D=0.25 n=3\n# bucket D=0.5 n=2\n# bucket D=1.0 n=1\n",
            ("--delta", "0.2", "--oracle", "--bin"):
                near_pairs + "# bucket D=0.25 n=3\n# bucket D=0.5 n=2\n# bucket D=1.0 n=1\n",
            ("--exact", "--bin"): exact_pairs + "# bucket D=1.0 n=4\n# bucket D=4.0 n=1\n",
            ("--delta", "0.2"): near_pairs,
            ("--exact",): exact_pairs,
        }
        out = tmp_path / "pairs.txt"
        for flags, text in expected.items():
            fam = exact if "--exact" in flags else near
            assert run_cli("count", "--family", str(fam), *flags, "-o", str(out)) == 0
            assert out.read_text() == text


class TestPlanksCommand:
    def test_enumeration_with_richness(self, tmp_path, capsys):
        fam = tmp_path / "f.txt"
        run_cli("generate", "--kind", "separated", "--R", "16", "--rho", "4", "-o", str(fam))
        out = tmp_path / "p.txt"
        rt = tmp_path / "rt.txt"
        code = run_cli(
            "planks", "--R", "16", "--K", "2", "-o", str(out),
            "--family", str(fam), "--richness-out", str(rt),
        )
        assert code == 0
        assert rt.read_text().startswith("# mu count_planks")
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        text_n = int(out.read_text().splitlines()[0].split("n=")[1])
        assert len(rows) == text_n


class TestExperimentCommand:
    def test_config_run_and_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[chernoff]\nn = 100\np = 0.05\ntrials = 50000\nseed = 3\n\n"
            "[rectangle_bound]\nR = 64,128\nslope_gate = 0.35\n"
        )
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "chernoff.csv").exists()
        assert (out / "rectangle_bound.json").exists()

    def test_nan_slope_gate_is_misuse(self, tmp_path, capsys):
        # slope <= nan is false, which would read as a failed gate
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[rectangle_bound]\nR = 64,128\nslope_gate = nan\n")
        out = tmp_path / "o"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: slope_gate:")
        assert not list(out.glob("*.csv"))

    def test_gate_failure_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        # an impossible slope gate turns the passing sweep into a gate failure
        cfg.write_text("[rectangle_bound]\nR = 64,128\nslope_gate = -10\n")
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("K", ["nan", "inf"])
    def test_non_finite_plank_K_is_misuse(self, tmp_path, capsys, K):
        # exit 1 is reserved for a failed gate; a bad K is refused as input
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[rectangle_bound]\nR = 64\nK = {K}\n")
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "K: must be finite" in capsys.readouterr().err

    def test_unjudgeable_sharpness_gate_is_not_a_regression(self, tmp_path):
        # at single-tile scale the plank windows hold no integer count: the
        # rows are flagged and only the occupancy gate decides the exit code
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[sharpness]\nR = 256\nrho = 16\neps = 0.25\nseeds = 0:1\n")
        out = tmp_path / "o"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        rows = (out / "sharpness.csv").read_text().splitlines()[2:]
        assert [row.split(",")[11] for row in rows] == ["flagged", "flagged"]

    def test_env_seed_overrides_sharpness_seeds(self, tmp_path, monkeypatch):
        # the override runs as many consecutive seeds as the config lists
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[sharpness]\nR = 256\nrho = 16\neps = 0.25\nseeds = 0 5\n")
        monkeypatch.setenv("TANGENCY_SEED", "7")
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "env")) == 0
        monkeypatch.delenv("TANGENCY_SEED")
        cfg.write_text("[sharpness]\nR = 256\nrho = 16\neps = 0.25\nseeds = 7:8\n")
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "cfg")) == 0

        def rows(sub):
            return (tmp_path / sub / "sharpness.csv").read_text().splitlines()[2:]

        assert [row.split(",")[6] for row in rows("env")] == ["7", "8"]
        assert rows("env") == rows("cfg")

    def test_reports_byte_identical_across_runs_and_workers(self, tmp_path):
        fam = tmp_path / "fam.txt"
        assert run_cli("generate", "--kind", "clamshell", "--N", "12", "-o", str(fam)) == 0
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[rectangle_bound]\nR = 64,128\nslope_gate = 0.35\ncontrol = 1\ncontrol_N = 20\n\n"
            "[ct_bound]\ndelta = 0.0625,0.03125\nrho = 4\n\n"
            "[exact_ct]\nn = 3,4\n\n"
            f"[lemma28]\nfamily = {fam}\ndelta = 0.02\nA = 2\n\n"
            "[sharpness]\nR = 256\nrho = 16\neps = 0.25\nseeds = 0:1\n\n"
            "[chernoff]\nn = 100\np = 0.05\ntrials = 1000\nseed = 3\n"
        )
        runs = [("a", "1"), ("b", "1"), ("c", "2")]
        for sub, workers in runs:
            assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / sub),
                           "--workers", workers) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(names) == 12
        for sub, _ in runs[1:]:
            assert sorted(p.name for p in (tmp_path / sub).iterdir()) == names
            for name in names:
                assert (tmp_path / sub / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    @pytest.mark.parametrize("section, key", [
        ("[ct_bound]\nrho = 4\n", "delta"),
        ("[rectangle_bound]\nK = 2\n", "R"),
        ("[exact_ct]\n", "n"),
        ("[chernoff]\np = 0.1\ntrials = 10\n", "n"),
        ("[chernoff]\nn = 10\ntrials = 10\n", "p"),
    ])
    def test_missing_list_key_exit_2(self, tmp_path, capsys, section, key):
        # a missing list is misuse, not a failed gate (exit 1)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(section)
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert f"error: {key}: required list is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("[sharpness]\nR = 256\nrho = 16\neps = 0.25\nseeds =\n", "seeds"),
        ("[sharpness]\nR = 256\nrho = 16\neps = 0.25\nseeds = 5:3\n", "seeds"),
        ("[ct_bound]\ndelta =\n", "delta"),
        ("[rectangle_bound]\nR = ,\n", "R"),
    ])
    def test_empty_list_exit_2(self, tmp_path, capsys, section, key):
        # an empty list runs nothing, which must not report gates_pass=True
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(section)
        out = tmp_path / "o"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        assert f"error: {key}: list is empty" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("section, key, message", [
        ("[sharpness]\nrho = 16\neps = 0.25\nseeds = 1\n", "R", "required value is missing"),
        ("[sharpness]\nR = 256\neps = 0.25\nseeds = 1\n", "rho", "required value is missing"),
        ("[sharpness]\nR = 256\nrho = 16\nseeds = 1\n", "eps", "required value is missing"),
        ("[sharpness]\nR = 256\nrho = 16\neps = quarter\nseeds = 1\n", "eps", "malformed value 'quarter'"),
        ("[lemma28]\ndelta = 0.01\n", "family", "required value is missing"),
        ("[lemma28]\nfamily =\ndelta = 0.01\n", "family", "required value is missing"),
        ("[lemma28]\nfamily = {fam}\n", "delta", "required value is missing"),
        ("[lemma28]\nfamily = {fam}\ndelta = 1e-2x\n", "delta", "malformed value '1e-2x'"),
    ])
    def test_missing_or_malformed_scalar_names_key(self, tmp_path, capsys, section, key, message):
        fam = tmp_path / "fam.txt"
        assert run_cli("generate", "--kind", "clamshell", "--N", "5", "-o", str(fam)) == 0
        capsys.readouterr()
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(section.format(fam=fam))
        out = tmp_path / "o"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {key}: {message}\n"
        assert not list(out.glob("*.csv"))

    def test_chernoff_min_np_dropping_every_pair_exit_2(self, tmp_path, capsys):
        # n p = 1 < min_np: the filter leaves nothing to run, like an empty list
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[chernoff]\nn = 10\np = 0.1\ntrials = 10\nmin_np = 5\n")
        out = tmp_path / "o"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        assert "error: min_np:" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[mystery]\nfoo = 1\n")
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_degenerate_sweep_exit_2(self, tmp_path, capsys):
        # one R gives the log-log fit no spread: a package error, so misuse
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[rectangle_bound]\nR = 64\n")
        assert run_cli("experiment", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_section_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[chernoff]\nn = 10\np = 0.1\ntrials = 10\n")
        assert run_cli(
            "experiment", "--config", str(cfg), "--section", "nope",
            "--out", str(tmp_path / "o"),
        ) == 2


class TestMisuseContract:
    @pytest.mark.parametrize("text", [
        "R = 5\n[exact_ct]\nn = 4\n",
        "[exact_ct]\nn = 4\nn = 4\n",
    ])
    def test_malformed_config_file_exit_2(self, tmp_path, capsys, text):
        # no section header, or a duplicate option: refused as config input
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: config:")
        assert not out.exists()

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        # -o naming a directory is misuse, not a failed gate
        assert run_cli("planks", "--R", "16", "-o", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        fam = tmp_path / "lat.txt"
        assert run_cli("generate", "--kind", "lattice", "--n", "2", "-o", str(fam)) == 0
        out = tmp_path / "missing" / "pairs.txt"
        assert run_cli("count", "--family", str(fam), "--exact", "-o", str(out)) == 2

    @pytest.mark.parametrize("config, key, raw", [
        ("[rectangle_bound]\nR = 64,128\nK = abc\n", "K", "abc"),
        ("[rectangle_bound]\nR = 64,1x8\n", "R", "1x8"),
        ("[rectangle_bound]\nR = 64,128\nrho_law = abc\n", "rho_law", "abc"),
        ("[rectangle_bound]\nR = 64,128\ncontrol = maybe\n", "control", "maybe"),
        ("[chernoff]\nn = 10\np = 0.1\ntrials = 1e3\n", "trials", "1e3"),
        ("[chernoff]\nn = 10\np = 0.1:1\ntrials = 10\n", "p", "0.1:1"),
        ("[exact_ct]\nn = 1e999\n", "n", "1e999"),
        ("[sharpness]\nR = 256\nrho = 16\neps = 0.25\nseeds = 0:x\n", "seeds", "0:x"),
        ("env", "TANGENCY_SEED", "x"),
        ("# generator=x R=abc\n0 0 1\n1 0 2\n", "R", "abc"),
        ("# generator=x\n# box=0:1,0:1\n0 0 1\n1 0 2\n", "box", "0:1,0:1"),
        ("# generator=x\n# box=0:1,0:1,0:a\n0 0 1\n1 0 2\n", "box", "0:1,0:1,0:a"),
    ])
    def test_malformed_value_names_key(self, tmp_path, capsys, monkeypatch, config, key, raw):
        # each value is refused where it is read, naming its key, before any
        # job starts; none reaches a kernel as an untyped exception
        out = tmp_path / "o"
        if config == "env":
            monkeypatch.setenv(key, raw)
            argv = ["generate", "--kind", "wellspaced", "--R", "4096", "--rho", "16",
                    "--eps", "0.3", "-o", str(tmp_path / "w.txt")]
        elif config.startswith("#"):
            fam = tmp_path / "fam.txt"
            fam.write_text(config)
            argv = ["count", "--family", str(fam), "--delta", "0.1"]
        else:
            cfg = tmp_path / "cfg.ini"
            cfg.write_text(config)
            argv = ["experiment", "--config", str(cfg), "--out", str(out)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {key}: malformed value '{raw}'\n"
        assert not list(tmp_path.glob("o/*.csv"))

    def test_binary_input_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00\x01")
        for argv in (["count", "--family", str(bad), "--delta", "0.1"],
                     ["experiment", "--config", str(bad), "--out", str(tmp_path / "o")],
                     ["plotdata", "--report", str(bad), "-o", str(tmp_path / "p")]):
            assert run_cli(*argv) == 2
            assert "not a text file" in capsys.readouterr().err


class TestPlotdata:
    def _make_report(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[rectangle_bound]\nR = 64,128\nslope_gate = 0.35\n")
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg), "--out", str(out)) == 0
        return out / "rectangle_bound.csv"

    def test_series_emission(self, tmp_path):
        csv = self._make_report(tmp_path)
        assert run_cli("plotdata", "--report", str(csv), "-o", str(tmp_path / "s")) == 0
        series = list(tmp_path.glob("s_*.dat"))
        assert len(series) == 1
        lines = series[0].read_text().splitlines()
        assert lines[1] == "# log2(R) log2(ratio)"
        assert len(lines) == 2 + 2

    def test_provenance_mismatch_refused(self, tmp_path):
        csv = self._make_report(tmp_path)
        assert run_cli(
            "plotdata", "--report", str(csv), "--provenance", "other", "-o", str(tmp_path / "x")
        ) == 2

    def test_empty_report_ok(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run_cli("plotdata", "--report", str(empty), "-o", str(tmp_path / "y")) == 0

    def test_missing_columns_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# provenance=x\nfoo,bar\n1,2\n")
        assert run_cli("plotdata", "--report", str(bad), "-o", str(tmp_path / "z")) == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy is there for cKDTree only; scipy.stats would load with every CLI run
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, tangencylab.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
