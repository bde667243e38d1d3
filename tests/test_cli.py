"""End-to-end command-line runs, in process via cli.main()."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dynamo
from dynamo import cli
from dynamo import fields as df
from dynamo import glue


def run(args, tmp_path, name="out"):
    out = tmp_path / name
    code = cli.main(list(args) + ["--out", str(out)])
    manifest = None
    if (out / "manifest.json").exists():
        manifest = json.loads((out / "manifest.json").read_text())
    return code, out, manifest


class TestAlphaMatrix:
    def test_abc_example_eigenvalues(self, tmp_path):
        code, out, manifest = run(
            ["alpha", "matrix", "--abc", "1,1,1", "--delta0", "0.05",
             "--j", "1,0,0"], tmp_path)
        assert code == 0
        ev = sorted(e["re"] for e in manifest["report"]["eigenvalues"])
        assert ev[1] == pytest.approx(0.0, abs=1e-10)
        assert ev[2] == pytest.approx(0.0025, abs=1e-4)
        assert ev[0] == pytest.approx(-ev[2], abs=1e-12)
        rows = (out / "eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "index,re,im"
        assert len(rows) == 4

    def test_csv_bit_identical_across_runs(self, tmp_path):
        _, out1, _ = run(["alpha", "matrix", "--abc", "1,1,1",
                          "--delta0", "0.05", "--j", "1,0,0"], tmp_path, "a")
        _, out2, _ = run(["alpha", "matrix", "--abc", "1,1,1",
                          "--delta0", "0.05", "--j", "1,0,0"], tmp_path, "b")
        for name in ("eigenvalues.csv", "alpha_matrix.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_triple_exits_2(self, tmp_path):
        code, out, _ = run(["alpha", "matrix", "--abc", "1,1", "--j", "1,0,0"],
                           tmp_path)
        assert code == 2
        assert not (out / "eigenvalues.csv").exists()

    @pytest.mark.parametrize("flags", [["--abc", "nan,1,1"], ["--abc", "1,1,1", "--delta0", "nan"],
                                       ["--abc", "1,1,1", "--delta0", "inf"]])
    def test_non_finite_flow_exits_2(self, tmp_path, flags):
        code, out, _ = run(["alpha", "matrix", "--j", "1,0,0"] + flags, tmp_path)
        assert code == 2
        assert not (out / "eigenvalues.csv").exists()

    @pytest.mark.parametrize("j", ["1e200,0,0", "1e-200,0,0"])
    def test_huge_or_tiny_direction_is_the_x_axis(self, tmp_path, j):
        code, _, manifest = run(["alpha", "matrix", "--abc", "1,1,1", "--delta0", "0.05", "--j", j], tmp_path)
        assert code == 0
        assert manifest["report"]["j_direction"] == [1.0, 0.0, 0.0]

    def test_flow_and_abc_together_exit_2(self, tmp_path):
        code, _, _ = run(
            ["alpha", "matrix", "--abc", "1,1,1", "--flow-file", "x.field",
             "--j", "1,0,0"], tmp_path)
        assert code == 2


class TestAlphaScan:
    def test_axes_scan_certifies_instability(self, tmp_path):
        code, out, manifest = run(
            ["alpha", "scan", "--abc", "1,1,1", "--delta0", "0.05",
             "--directions", "axes"], tmp_path)
        assert code == 0
        rep = manifest["report"]
        assert rep["certified"] is True
        assert rep["directions"] == 6
        assert rep["best_eigenvalue"]["re"] > 1e-4
        header = (out / "scan.csv").read_text().splitlines()[0]
        assert header.startswith("d1,d2,d3,mu1_re")

    @pytest.mark.parametrize("flags", [["--threshold", "nan"], ["--threshold", "inf"], ["--tol", "nan"],
                                       ["--tol", "0"], ["--tol=-1e-12"], ["--threshold=-1.0"], ["--threshold=-1e-300"]])
    def test_invalid_threshold_or_tolerance_exits_2(self, tmp_path, flags):
        code, out, _ = run(["alpha", "scan", "--abc", "1,1,1", "--delta0", "0.05",
                            "--directions", "axes"] + flags, tmp_path)
        assert code == 2
        assert not (out / "scan.csv").exists()

    def test_overflowing_flow_exits_2(self, tmp_path, capsys):
        # a 1e200 flow's l2 norm overflows: an input error, refused before any solve and without a warning
        code, out, manifest = run(["alpha", "scan", "--abc", "1e200,1e200,1e200", "--truncation", "1"], tmp_path)
        assert code == 2
        assert manifest is None
        assert "error: flow coefficients too large" in capsys.readouterr().err
        assert not (out / "scan.csv").exists()

    @pytest.mark.parametrize("amplitude", ["1e100", "1e150"])
    def test_huge_finite_flow_fails_the_cell_gate_without_a_warning(self, tmp_path, capsys, amplitude):
        # the flow passes the size check, so the cell solve runs; its residual norms stay finite
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, manifest = run(["alpha", "scan", "--abc", ",".join([amplitude] * 3), "--truncation", "1"],
                                      tmp_path)
        assert code == 3
        assert manifest["status"] == "numerical-failure"
        assert "cell solve residual" in manifest["error"]
        assert [str(w.message) for w in caught] == []
        assert "Warning" not in capsys.readouterr().err
        assert not (out / "scan.csv").exists()

    def test_alpha_matrix_nan_tolerance_exits_2(self, tmp_path):
        code, out, _ = run(["alpha", "matrix", "--abc", "1,1,1", "--delta0", "0.05",
                            "--j", "1,0,0", "--tol", "nan"], tmp_path)
        assert code == 2
        assert not (out / "eigenvalues.csv").exists()


class TestFieldMakeAbc:
    def test_zero_amplitudes_give_valid_snapshot(self, tmp_path):
        code, out, manifest = run(["field", "make-abc", "--abc", "0,0,0"],
                                  tmp_path)
        assert code == 0
        assert manifest["report"]["modes"] == 0
        f = df.load_field(out / "flow.field")
        assert f.l2() == 0.0

    def test_snapshot_round_trips_the_flow(self, tmp_path):
        code, out, _ = run(["field", "make-abc", "--abc", "1,0.9,1.1",
                            "--delta0", "0.3"], tmp_path)
        assert code == 0
        f = df.load_field(out / "flow.field")
        ref = df.make_abc(df.AbcParams(1.0, 0.9, 1.1))
        np.testing.assert_array_equal(f.coeffs, ref.coeffs * 0.3)


class TestSpectrum:
    def test_eigs_leading_pair(self, tmp_path):
        code, out, manifest = run(
            ["spectrum", "eigs", "--abc", "1,1,1", "--delta0", "0.3",
             "--j", "0,0,0.045", "--truncation", "2", "--count", "4"],
            tmp_path)
        assert code == 0
        assert manifest["report"]["leading"]["re"] == pytest.approx(
            0.0015294, abs=2e-6)
        assert manifest["report"]["leading_residual"] < 1e-10
        assert len((out / "eigs.csv").read_text().splitlines()) == 5

    def test_eigs_csv_bit_identical_across_runs(self, tmp_path):
        args = ["spectrum", "eigs", "--abc", "1,1,1", "--delta0", "0.3",
                "--j", "0.01,0.02,0.04", "--truncation", "3", "--seed", "5"]
        _, out1, _ = run(args, tmp_path, "a")
        _, out2, _ = run(args, tmp_path, "b")
        assert (out1 / "eigs.csv").read_bytes() == (out2 / "eigs.csv").read_bytes()

    def test_method_flag_removed(self, tmp_path):
        args = ["spectrum", "eigs", "--abc", "1,1,1", "--j", "0,0,0.045",
                "--truncation", "1", "--method", "dense"]
        with pytest.raises(SystemExit) as exc:
            run(args, tmp_path)
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "krylov"}))
        code, _, _ = run(args[:-2] + ["--config", str(cfg)], tmp_path, "cfg")
        assert code == 2

    def test_kato_slope_near_two(self, tmp_path):
        code, _, manifest = run(
            ["spectrum", "kato", "--abc", "1,1,1", "--delta0", "0.05",
             "--jmags", "0.02,0.01,0.005", "--truncation", "2"], tmp_path)
        assert code == 0
        assert manifest["report"]["slope"] >= 1.8

    def test_kato_single_magnitude_exits_2(self, tmp_path):
        # one magnitude leaves the log-log slope nothing to fit
        code, _, manifest = run(
            ["spectrum", "kato", "--abc", "1,1,1", "--delta0", "0.05",
             "--jmags", "0.01", "--truncation", "1"], tmp_path)
        assert code == 2
        assert manifest is None


class TestEvolve:
    def test_growth_matches_leading_eigenvalue(self, tmp_path):
        code, out, manifest = run(
            ["evolve", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045",
             "--t-end", "5", "--truncation", "2"], tmp_path)
        assert code == 0
        rep = manifest["report"]
        assert rep["gamma"] == pytest.approx(0.0015294, rel=0.05)
        assert rep["bounds_ok"] is True
        assert rep["min_slack_growth"] >= -1e-6
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == rep["samples"] + 1

    @pytest.mark.parametrize("flags", [["--t-end", "5", "--dt", "0"],
                                       ["--t-end", "5", "--dt", "-0.1"],
                                       ["--t-end", "nan"],
                                       ["--t-end", "inf"]])
    def test_invalid_time_inputs_exit_2(self, tmp_path, flags):
        code, out, _ = run(
            ["evolve", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045",
             "--truncation", "1"] + flags, tmp_path)
        assert code == 2
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("flags", [["--t-end", "1e300"], ["--t-end", "1e300", "--dt", "1e-10"]])
    def test_step_count_above_the_cap_exits_2(self, tmp_path, flags):
        code, _, manifest = run(
            ["evolve", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045",
             "--truncation", "1"] + flags, tmp_path)
        assert code == 2
        assert manifest is None


@pytest.mark.parametrize("args", [
    ["spectrum", "kato", "--jmags", "0.02,0.01"],
    ["bloch", "parseval", "--j-star", "0,0,0.1", "--half-width", "0.05", "--nodes-per-axis", "1",
     "--r-max", "40", "--num", "3"],
    ["bloch", "synth", "--j-star", "0,0,0.1", "--half-width", "0.05", "--nodes-per-axis", "1",
     "--grid-half", "1", "--grid-spacing", "0.5"],
])
def test_default_truncation_covers_the_flow(tmp_path, args):
    # a flow of support 3: a default truncation of 2 would reject it
    flow = df.random_real_field(3, np.random.default_rng(5), div_free=True, amplitude=0.3)
    df.save_field(flow, tmp_path / "flow.field")
    code, _, manifest = run(args + ["--flow-file", str(tmp_path / "flow.field")], tmp_path)
    assert code == 0
    assert manifest["status"] == "ok"


class TestBloch:
    def test_parseval_decreasing_inside_horizon(self, tmp_path):
        code, _, manifest = run(
            ["bloch", "parseval", "--abc", "1,1,1", "--delta0", "0.3",
             "--j-star", "0,0,0.1", "--half-width", "0.1",
             "--truncation", "1", "--nodes-per-axis", "5",
             "--r-max", "40", "--num", "5"], tmp_path)
        assert code == 0
        assert manifest["report"]["decreasing"] is True
        assert manifest["report"]["total_mass"] == pytest.approx(1.0)

    def test_parseval_csv_bit_identical_across_runs(self, tmp_path):
        args = ["bloch", "parseval", "--abc", "1,1,1", "--delta0", "0.3",
                "--j-star", "0,0,0.1", "--half-width", "0.1",
                "--truncation", "1", "--nodes-per-axis", "5",
                "--r-max", "40", "--num", "5"]
        code1, out1, _ = run(args, tmp_path, "a")
        code2, out2, _ = run(args, tmp_path, "b")
        assert code1 == code2 == 0
        assert (out1 / "parseval.csv").read_bytes() == (out2 / "parseval.csv").read_bytes()

    def test_non_finite_radius_exits_2(self, tmp_path):
        code, out, _ = run(
            ["bloch", "parseval", "--abc", "1,1,1", "--delta0", "0.3",
             "--j-star", "0,0,0.1", "--half-width", "0.1",
             "--truncation", "1", "--nodes-per-axis", "2",
             "--r-max", "nan", "--num", "5"], tmp_path)
        assert code == 2
        assert not (out / "parseval.csv").exists()

    def test_non_finite_half_width_exits_2(self, tmp_path):
        code, out, _ = run(
            ["bloch", "synth", "--abc", "1,1,1", "--delta0", "0.3",
             "--j-star", "0,0,0.1", "--half-width", "nan",
             "--truncation", "1", "--nodes-per-axis", "2",
             "--grid-half", "2", "--grid-spacing", "0.5"], tmp_path)
        assert code == 2
        assert not (out / "volume.vol").exists()

    @pytest.mark.parametrize("grid", [["--grid-half", "nan", "--grid-spacing", "0.5"],
                                      ["--grid-half", "2", "--grid-spacing", "nan"],
                                      ["--grid-half", "inf", "--grid-spacing", "0.5"],
                                      # 200001^3 samples: over the volume cap
                                      ["--grid-half", "10000", "--grid-spacing", "0.1"]])
    def test_non_finite_grid_exits_2(self, tmp_path, grid, monkeypatch):
        def refuse(*args):
            raise AssertionError("band eigensolves ran before the grid was checked")

        monkeypatch.setattr(cli, "_band_family", refuse)
        code, out, manifest = run(
            ["bloch", "synth", "--abc", "1,1,1", "--delta0", "0.3",
             "--j-star", "0,0,0.1", "--half-width", "0.1",
             "--truncation", "1", "--nodes-per-axis", "2"] + grid, tmp_path)
        assert code == 2
        assert manifest is None
        assert not (out / "volume.vol").exists()

    def test_synth_writes_volume(self, tmp_path):
        code, out, manifest = run(
            ["bloch", "synth", "--abc", "1,1,1", "--delta0", "0.3",
             "--j-star", "0,0,0.1", "--half-width", "0.1",
             "--truncation", "1", "--nodes-per-axis", "3",
             "--grid-half", "2", "--grid-spacing", "0.5"], tmp_path)
        assert code == 0
        assert manifest["report"]["nodes"] == 54
        vol = __import__("dynamo.bloch", fromlist=["load_volume"]).load_volume(
            out / "volume.vol")
        m = manifest["report"]["grid_points"]
        assert vol.values.shape[0] ** 3 == m

    def test_degenerate_band_exits_3_with_manifest(self, tmp_path):
        code, out, manifest = run(
            ["bloch", "synth", "--abc", "1,1,1", "--delta0", "0.3",
             "--j-star", "0,0,0", "--half-width", "0.05",
             "--truncation", "1", "--nodes-per-axis", "1",
             "--grid-half", "1", "--grid-spacing", "0.5"], tmp_path)
        assert code == 3
        assert manifest["status"] == "numerical-failure"
        assert "BandBroken" in manifest["error"]
        assert manifest["report"] is None


class TestGlue:
    def test_build_then_check_round_trip(self, tmp_path):
        code, out, manifest = run(
            ["glue", "build", "--abc", "0.3,0.3,0.3",
             "--tail-coefficient", "12.2", "--ufrak", "10",
             "--n-max", "1", "--ell-max", "1"], tmp_path, "build")
        assert code == 0
        assert manifest["report"]["blocks"] == 1
        catalog = glue.load_catalog(out / "catalog.txt")
        assert catalog.ufrak == 10.0
        code2, out2, manifest2 = run(
            ["glue", "check", "--catalog", str(out / "catalog.txt")],
            tmp_path, "check")
        assert code2 == 0
        assert manifest2["report"]["passed"] is True
        assert manifest2["report"]["failures"] == []
        header = (out2 / "checks.csv").read_text().splitlines()[0]
        assert header == "name,kind,measured,bound,margin,passed"

    def test_underflowing_budget_exits_3(self, tmp_path):
        code, out, manifest = run(
            ["glue", "build", "--abc", "0.3,0.3,0.3", "--tail-coefficient", "12", "--ufrak", "400"], tmp_path)
        assert code == 3
        assert "CatalogInfeasible" in manifest["error"]
        assert not (out / "catalog.txt").exists()

    @pytest.mark.parametrize("valid_from", ["nan", "inf", "0"])
    def test_invalid_tail_valid_from_exits_2(self, tmp_path, valid_from):
        code, out, _ = run(
            ["glue", "build", "--abc", "0.3,0.3,0.3",
             "--tail-coefficient", "12.2", "--tail-valid-from", valid_from,
             "--ufrak", "10", "--n-max", "1", "--ell-max", "1"], tmp_path)
        assert code == 2
        assert not (out / "catalog.txt").exists()

    def test_failing_checks_still_exit_0(self, tmp_path):
        code, out, _ = run(
            ["glue", "build", "--abc", "0.3,0.3,0.3",
             "--tail-coefficient", "12.2", "--ufrak", "1",
             "--n-max", "1", "--ell-max", "1"], tmp_path, "build")
        assert code == 0
        code2, _, manifest2 = run(
            ["glue", "check", "--catalog", str(out / "catalog.txt")],
            tmp_path, "check")
        assert code2 == 0
        assert manifest2["report"]["passed"] is False
        assert "hypothesis-floor" in manifest2["report"]["failures"]


def test_cli_import_skips_scipy_optimize_and_integrate():
    # the toolkit needs neither, and each adds to the start-up time of every CLI run
    src = str(Path(dynamo.__file__).resolve().parents[1])
    code = ("import sys, dynamo.cli; "
            "print([m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.integrate'))])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _eigs_on(flow_file):
    return ["spectrum", "eigs", "--flow-file", str(flow_file), "--j", "0,0,0.045", "--truncation", "1"]


def _abc_snapshot(tmp_path, old, new):
    """An ABC field snapshot with ``old`` in its header replaced by ``new``."""
    path = tmp_path / "flow.field"
    df.save_field(df.make_abc(df.AbcParams()), path)
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    return path


def _one_block_catalog(tmp_path):
    path = tmp_path / "catalog.txt"
    stream = df.make_abc(df.AbcParams(0.3, 0.3, 0.3))
    glue.save_catalog(glue.plan_catalog(stream, glue.TailModel(12.2, 1.0), n_max=1, ell_max=1), path)
    return path


def _catalog_with_label(tmp_path, label):
    """A one-block catalog whose block line starts with ``label`` instead of n."""
    path = _one_block_catalog(tmp_path)
    lines = path.read_text().splitlines()
    lines[7] = label + lines[7][1:]
    path.write_text("\n".join(lines) + "\n")
    return path


UNREADABLE_INPUTS = {
    "missing-flow-file": lambda t: _eigs_on(t / "missing.field"),
    "field-without-scale": lambda t: _eigs_on(_abc_snapshot(t, b"scale 0x1.0000000000000p+0\n", b"")),
    "field-with-non-integer-size": lambda t: _eigs_on(_abc_snapshot(t, b"N 1\n", b"N x\n")),
    "missing-catalog": lambda t: ["glue", "check", "--catalog", str(t / "missing.txt")],
    "catalog-with-non-integer-label": lambda t: ["glue", "check", "--catalog", str(_catalog_with_label(t, "x"))],
}


@pytest.mark.parametrize("case", list(UNREADABLE_INPUTS))
def test_unreadable_or_malformed_input_file_exits_2(tmp_path, case, capsys):
    code, out, manifest = run(UNREADABLE_INPUTS[case](tmp_path), tmp_path)
    assert code == 2
    assert manifest is None
    assert capsys.readouterr().err.startswith("error: ")


def _nan_snapshot(path):
    """An ABC field snapshot whose payload holds one NaN coefficient."""
    c = np.array(df.make_abc(df.AbcParams(0.3, 0.3, 0.3)).coeffs)
    c[1, 1, 0, 0] = np.nan
    df.save_field(df.SpectralField(c), path)
    return path


def _catalog_with_nan_stream(tmp_path):
    path = _one_block_catalog(tmp_path)
    _nan_snapshot(path.with_name(path.name + ".stream"))
    return path


NAN_SNAPSHOT_INPUTS = {
    "spectrum-eigs": lambda t: _eigs_on(_nan_snapshot(t / "nan.field")),
    "glue-build": lambda t: ["glue", "build", "--flow-file", str(_nan_snapshot(t / "nan.field")),
                             "--tail-coefficient", "12.2", "--n-max", "1", "--ell-max", "1"],
    "glue-check": lambda t: ["glue", "check", "--catalog", str(_catalog_with_nan_stream(t))],
}


@pytest.mark.parametrize("case", list(NAN_SNAPSHOT_INPUTS))
def test_nan_snapshot_exits_2(tmp_path, case, capsys):
    # a NaN past the load would be planned into a catalog, and checking that
    # catalog would end in an untyped SVD failure instead of exit 2
    code, out, manifest = run(NAN_SNAPSHOT_INPUTS[case](tmp_path), tmp_path)
    assert code == 2
    assert manifest is None
    assert "payload holds a non-finite value" in capsys.readouterr().err


class TestConfigAndEnvironment:
    def test_config_file_supplies_required_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"j": "1,0,0", "delta0": 0.05}))
        code, _, manifest = run(
            ["alpha", "matrix", "--abc", "1,1,1", "--config", str(cfg)],
            tmp_path)
        assert code == 0
        assert manifest["config"]["delta0"] == 0.05
        assert manifest["config"]["j"] == "1,0,0"

    def test_explicit_flag_beats_config_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"j": "1,0,0", "delta0": 0.05}))
        code, _, manifest = run(
            ["alpha", "matrix", "--abc", "1,1,1", "--config", str(cfg),
             "--delta0", "0.3"], tmp_path)
        assert code == 0
        assert manifest["config"]["delta0"] == 0.3

    @pytest.mark.parametrize("args", [
        ["field", "make-abc", "--abc", "0.3,0.3,0.3", "--truncation", "7", "--tol", "-5"],
        ["field", "make-abc", "--abc", "0.3,0.3,0.3", "--truncation", "7"],
        ["glue", "build", "--abc", "0.3,0.3,0.3", "--tail-coefficient", "1", "--truncation", "9", "--tol", "nan"],
        ["bloch", "parseval", "--abc", "1,1,1", "--delta0", "0.3", "--j-star", "0.11,0,0", "--half-width", "0.05",
         "--truncation", "1", "--nodes-per-axis", "2", "--r-max", "10", "--tol", "nan"],
        ["spectrum", "eigs", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045", "--truncation", "1",
         "--tol", "1e-10"],
    ])
    def test_option_the_subcommand_ignores_exits_2(self, tmp_path, args, capsys):
        # --tol only where a cell problem is solved, --truncation only where a stencil is built
        with pytest.raises(SystemExit) as exc:
            run(args, tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_keys_of_other_subcommands_still_accepted(self, tmp_path):
        # a config file may serve several subcommands: keys are checked against all of them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-10, "truncation": 1, "j": "0,0,0.045"}))
        code, out, manifest = run(["field", "make-abc", "--abc", "0.3,0.3,0.3", "--config", str(cfg)], tmp_path)
        assert code == 0
        assert "tol" not in manifest["config"] and "truncation" not in manifest["config"]
        code, out, manifest = run(["spectrum", "kato", "--abc", "1,1,1", "--delta0", "0.3", "--jmags", "0.02,0.01",
                                   "--config", str(cfg)], tmp_path, "kato")
        assert code == 0
        assert manifest["config"]["tol"] == 1e-10 and manifest["config"]["truncation"] == 1

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"j": "1,0,0", "detla0": 0.05}))
        code = cli.main(["alpha", "matrix", "--abc", "1,1,1",
                         "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_config_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = cli.main(["alpha", "matrix", "--abc", "1,1,1", "--j", "1,0,0",
                         "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["spectrum", "eigs", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045", "--truncation", "1"],
        ["evolve", "--abc", "1,1,1", "--delta0", "0.3", "--j", "0,0,0.045", "--truncation", "1",
         "--t-end", "1", "--init", "random"],
    ])
    def test_negative_or_non_integer_seed_exits_2(self, tmp_path, args):
        code, out, manifest = run(args + ["--seed", "-1"], tmp_path, "flag")
        assert code == 2
        assert manifest is None
        for seed in (-1, 1.5):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": seed}))
            code, out, manifest = run(args + ["--config", str(cfg)], tmp_path, f"cfg{seed}")
            assert code == 2
            assert manifest is None

    @pytest.mark.parametrize("args, config", [
        (["spectrum", "eigs"], {"truncation": 2.5}),
        (["spectrum", "eigs"], {"count": 2.5}),
        (["spectrum", "eigs"], {"count": True}),
        (["spectrum", "eigs"], {"eps": None}),
        (["spectrum", "eigs"], {"eps": "fast"}),
        (["spectrum", "eigs"], {"abc": [1, 1, 1]}),
        (["alpha", "scan"], {"directions": "cube"}),
        (["evolve", "--t-end", "1"], {"init": "zero"}),
        (["evolve", "--t-end", "1"], {"project": 1}),
    ])
    def test_config_value_its_flag_rejects_exits_2(self, tmp_path, args, config, capsys):
        # config values become defaults, which argparse neither converts nor checks against choices
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"abc": "1,1,1", "delta0": 0.3, "j": "0,0,0.045", "truncation": 1, **config}))
        code, _, manifest = run(args + ["--config", str(cfg)], tmp_path)
        assert code == 2
        assert manifest is None
        assert repr(next(iter(config))) in capsys.readouterr().err

    def test_config_values_take_their_flags_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"abc": "1,1,1", "delta0": "0.3", "j": "0,0,0.045", "truncation": "1",
                                   "eps": 1, "count": 2, "dt": None}))
        code, _, manifest = run(["spectrum", "eigs", "--config", str(cfg)], tmp_path)
        assert code == 0
        got = {k: manifest["config"][k] for k in ("delta0", "truncation", "eps", "count")}
        assert got == {"delta0": 0.3, "truncation": 1, "eps": 1.0, "count": 2}
        assert isinstance(got["eps"], float) and manifest["report"]["count"] == 2

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "env-out"))
        code = cli.main(["field", "make-abc", "--abc", "1,1,1"])
        assert code == 0
        assert (tmp_path / "env-out" / "flow.field").exists()

    @pytest.mark.parametrize("flag, env, config, want", [
        (True, True, True, "flag-out"),
        (False, True, True, "env-out"),
        (False, False, True, "cfg-out"),
        (False, False, False, "dynamo-out"),
    ])
    def test_outdir_precedence(self, tmp_path, monkeypatch, flag, env, config, want):
        # --out > DYNAMO_OUTDIR > config "out" > ./dynamo-out
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        argv = ["field", "make-abc", "--abc", "1,1,1"]
        if flag:
            argv += ["--out", "flag-out"]
        if env:
            monkeypatch.setenv(cli.OUTDIR_ENV, "env-out")
        if config:
            (tmp_path / "cfg.json").write_text(json.dumps({"out": "cfg-out"}))
            argv += ["--config", "cfg.json"]
        assert cli.main(argv) == 0
        written = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert written == [want]
        assert (tmp_path / want / "flow.field").exists()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "env-out"))
        code = cli.main(["field", "make-abc", "--abc", "1,1,1",
                         "--out", str(tmp_path / "flag-out")])
        assert code == 0
        assert (tmp_path / "flag-out" / "flow.field").exists()
        assert not (tmp_path / "env-out").exists()


def _fmt_reference(v) -> str:
    """The CSV cell format: an isinstance chain over Python and numpy scalars."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def test_csv_cells_format_python_and_numpy_scalars_alike():
    floats = np.concatenate((np.random.default_rng(3).standard_normal(50) * 10.0 ** np.arange(-25, 25),
                             [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308]))
    values = [True, False, np.bool_(True), np.bool_(False), 0, -7, 2**70, np.int64(-3), np.int32(12),
              np.uint8(255), np.float32(0.1), np.float16(-0.0), "name", *floats, *floats.tolist()]
    for v in values:
        assert cli._fmt(v) == _fmt_reference(v), repr(v)


class TestManifest:
    def test_manifest_records_provenance(self, tmp_path):
        code, _, manifest = run(
            ["field", "make-abc", "--abc", "1,1,1", "--seed", "7"], tmp_path)
        assert code == 0
        assert manifest["subcommand"] == "field make-abc"
        assert manifest["seed"] == 7
        assert manifest["toolkit_version"] == dynamo.__version__
        assert manifest["wall_time_s"] > 0.0
        assert manifest["status"] == "ok"
        assert manifest["config"]["abc"] == "1,1,1"
