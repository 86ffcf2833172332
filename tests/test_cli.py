"""Tests for the command-line interface: artifacts, replay, exit codes."""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import assert_replay_identical, nan_at_fourth_point

import contestlab
from contestlab import EXAMPLE_CONFIGS, equilibrium, example_scenario, load_scenario
from contestlab._tables import read_csv_columns, write_csv
from contestlab.cli import (
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    MANIFEST_NAME,
    _build_parser,
    _manifest_arguments,
    main,
)


REPO = Path(__file__).resolve().parents[1]
TREND_CSV = REPO / "fixtures" / "trend.csv"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestArtifactsAndReplay:
    def test_validate_writes_report_and_manifest(self, tmp_path):
        out = tmp_path / "v"
        assert run_cli("validate", "--scenario", "example1", "--out", out) == EXIT_OK
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is True
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["command"] == "validate"
        assert manifest["outputs"] == ["validation.json"]
        assert "--out" not in manifest["replay_argv"]
        assert_replay_identical(out, tmp_path)

    def test_cost_curve_artifact(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("cost", "--scenario", "example3", "--theta", "1.0",
                       "--mu-max", "2.0", "--points", "41", "--out", out) == EXIT_OK
        cols = read_csv_columns(out / "cost.csv")
        assert cols["mu"].size == 41
        assert np.all(np.diff(cols["cost"]) >= -1e-12)
        assert_replay_identical(out, tmp_path)

    def test_baseline_artifacts(self, tmp_path):
        out = tmp_path / "b"
        assert run_cli("baseline", "--scenario", "example4", "--grid", "41",
                       "--out", out) == EXIT_OK
        cols = read_csv_columns(out / "baseline.csv")
        assert set(cols) >= {"theta", "a", "b", "mu", "payoff"}
        meta = json.loads((out / "baseline.json").read_text())
        assert meta["mech_upper"] == pytest.approx(1.0, abs=1e-4)
        assert_replay_identical(out, tmp_path)

    def test_cutoff_type_has_one_label(self, tmp_path):
        # example1's two cutoffs are both theta = 1, a grid type at grid
        # 301; its no-contest allocation is the corner b = 1, and baseline
        # and hacking read its label from that one allocation
        base, hack = tmp_path / "b", tmp_path / "h"
        for command, out in (("baseline", base), ("hacking", hack)):
            assert run_cli(command, "--scenario", "example1", "--grid", "301",
                           "--out", out) == EXIT_OK
        cols = read_csv_columns(base / "baseline.csv")
        row = int(np.flatnonzero(cols["theta"] == 1.0)[0])
        assert (cols["a"][row], cols["case"][row]) == (0.0, "mech-only")
        bands = read_csv_columns(hack / "hacking.csv")
        assert bands["theta"][row] == 1.0
        assert bands["band"][row] == "pure-mechanizer"

    def test_artifact_headers(self, tmp_path):
        # every CSV artifact's columns, in order: band names a hacking
        # band and case a least-cost case
        runs = [
            (("cost", "--theta", "1.0", "--points", "5"),
             {"cost.csv": "mu,theta,a,b,case,cost,shadow_price,marginal_cost"}),
            (("baseline", "--grid", "5"), {"baseline.csv": "theta,a,b,mu,case,payoff"}),
            (("equilibrium", "--grid", "51"),
             {"equilibrium.csv": "theta,mu_star,a,b,case,mu_baseline"}),
            (("hacking", "--grid", "51"),
             {"hacking.csv": "theta,hacks,band,a_star,b_star,a_baseline,b_baseline,"
                             "mu_star,mu_baseline"}),
            (("sweep", "--prizes", "1,0;2,0", "--grid", "51"),
             {"sweep.csv": "prizes,theta,mu_star,a_star,b_star,hacks,band"}),
            (("sweep", "--prizes", "1,0", "--grid", "51"),
             {"sweep.csv": "prizes,theta,mu_star,a_star,b_star,hacks,band"}),
            (("simulate", "--contests", "2", "--traj-length", "5", "--grid", "21"),
             {"contests.csv": "contest_id,player_id,type,a,b,mu,score,rank,prize,payoff",
              "panel.csv": "contest_id,player_id,type,a,b,mu,score_final,mk_S,mk_Z,"
                           "prize_value,prize_skew"}),
        ]
        for k, (argv, headers) in enumerate(runs):
            out = tmp_path / str(k)
            assert run_cli(*argv, "--scenario", "example3", "--out", out) == EXIT_OK
            for name, header in headers.items():
                with open(out / name) as fh:
                    assert fh.readline() == header + "\n", name

        sweep = read_csv_columns(tmp_path / "4" / "sweep.csv")
        assert sweep["prizes"].size == 2 * 51
        assert set(sweep["prizes"].tolist()) == {0, 1}
        assert np.all(sweep["mu_star"] >= 0)
        # a one-vector sweep of the scenario's own prizes is its hacking run
        one = read_csv_columns(tmp_path / "5" / "sweep.csv")
        hacking = read_csv_columns(tmp_path / "3" / "hacking.csv")
        for name in ("theta", "mu_star", "a_star", "b_star", "hacks", "band"):
            np.testing.assert_array_equal(one[name], hacking[name], err_msg=name)

    def test_mk_artifact(self, tmp_path):
        out = tmp_path / "m"
        assert run_cli("mk", "--input", TREND_CSV,
                       "--column", "score", "--out", out) == EXIT_OK
        result = json.loads((out / "mk.json").read_text())
        assert result["S"] == 6
        assert_replay_identical(out, tmp_path)

    def test_regress_artifact(self, tmp_path, rng):
        panel = tmp_path / "panel.csv"
        g = np.repeat(np.arange(12), 25)
        x = rng.normal(size=g.size)
        y = 1.5 * x + g.astype(float) + 0.1 * rng.normal(size=g.size)
        write_csv(panel, {"g": g, "x": x, "y": y})
        out = tmp_path / "r"
        assert run_cli("regress", "--input", panel, "--outcome", "y",
                       "--dummies", "x", "--group", "g", "--out", out) == EXIT_OK
        result = json.loads((out / "regress.json").read_text())
        assert result["coefficients"]["x"] == pytest.approx(1.5, abs=0.05)
        assert_replay_identical(out, tmp_path)

    def test_simulate_artifacts(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli("simulate", "--scenario", "example1", "--seed", "7",
                       "--contests", "4", "--traj-length", "5",
                       "--grid", "41", "--out", out) == EXIT_OK
        contests = read_csv_columns(out / "contests.csv")
        assert contests["contest_id"].size == 4 * 2
        panel = read_csv_columns(out / "panel.csv")
        assert set(panel) >= {"mk_Z", "prize_value", "prize_skew"}
        assert_replay_identical(out, tmp_path)

    def test_simulate_panel_cells_tables_agree(self, tmp_path):
        # the skewed cells pay three ranks, so the scenario needs 3 players
        with open(REPO / "scenarios" / "example1.json") as fh:
            spec = json.load(fh)
        spec["players"] = 3
        scenario = tmp_path / "three.json"
        scenario.write_text(json.dumps(spec))
        out = tmp_path / "pc"
        assert run_cli("simulate", "--scenario", scenario, "--seed", "3",
                       "--contests", "6", "--traj-length", "5", "--grid", "21",
                       "--tol", "1e-3", "--panel-cells", "--out", out) == EXIT_OK
        contests = read_csv_columns(out / "contests.csv")
        panel = read_csv_columns(out / "panel.csv")
        assert contests["contest_id"].size == 6 * 3
        for name in ("contest_id", "player_id", "type", "a", "b", "mu"):
            np.testing.assert_array_equal(contests[name], panel[name], err_msg=name)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert "--threads" not in manifest["replay_argv"]
        assert_replay_identical(out, tmp_path)

    @pytest.mark.parametrize("flag", ["--drift-scale", "--noise-scale"])
    def test_simulate_rejects_non_finite_scales(self, tmp_path, capsys, flag):
        assert run_cli("simulate", "--scenario", "example1", "--contests", "2",
                       flag, "nan", "--out", tmp_path / "s") == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err

    def test_simulate_panel_cells_needs_three_players(self, tmp_path, capsys):
        assert run_cli("simulate", "--scenario", "example1", "--panel-cells",
                       "--out", tmp_path / "pc2") == EXIT_INPUT
        assert "need at least 3 players" in capsys.readouterr().err

    def test_examples_checks_artifact(self, tmp_path):
        out = tmp_path / "e"
        assert run_cli("examples", "--out", out) == EXIT_OK
        checks = json.loads((out / "examples.json").read_text())
        assert all(c["passed"] for c in checks)
        assert len(checks) >= 12

    def test_one_manifest_per_run(self, tmp_path):
        out = tmp_path / "v2"
        run_cli("validate", "--scenario", "example2", "--out", out)
        manifests = [p for p in out.iterdir() if p.name == MANIFEST_NAME]
        assert len(manifests) == 1
        listed = json.loads(manifests[0].read_text())["outputs"]
        for name in listed:
            assert (out / name).exists()


# one invocation per subcommand that writes a manifest
MANIFEST_ARGV = {
    "validate": ["--scenario", "example1"],
    "cost": ["--scenario", "example3", "--theta", "1.0", "--mu-max", "2.5"],
    "baseline": ["--scenario", "example4", "--grid", "41"],
    "equilibrium": ["--scenario", "example1", "--tol", "1e-4"],
    "hacking": ["--scenario", "example3", "--grid", "41"],
    "sweep": ["--scenario", "example3", "--prizes", "1,0;2,0"],
    "simulate": ["--scenario", "example1", "--seed", "7", "--panel-cells"],
    "mk": ["--input", "trend.csv", "--column", "score"],
    "regress": ["--input", "panel.csv", "--outcome", "y", "--dummies", "x"],
    "examples": [],
}


def test_replay_argv_parses_back_to_parameters():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) - {"replay"} == set(MANIFEST_ARGV)
    for command, argv in MANIFEST_ARGV.items():
        params, replay_argv = _manifest_arguments(
            parser.parse_args([command, *argv, "--out", "x"]))
        assert replay_argv[0] == command and "--out" not in replay_argv
        assert _manifest_arguments(parser.parse_args(replay_argv)) == (params, replay_argv)
    params, replay_argv = _manifest_arguments(parser.parse_args(["simulate", "--scenario", "e"]))
    assert params["panel_cells"] is False and "--panel-cells" not in replay_argv


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        assert run_cli("validate", "--scenario", "example1",
                       "--out", tmp_path / "ok") == EXIT_OK

    def test_unknown_scenario_is_input_error(self, tmp_path):
        assert run_cli("validate", "--scenario", "nonesuch",
                       "--out", tmp_path / "x") == EXIT_INPUT

    def test_malformed_scenario_file_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("baseline", "--scenario", bad,
                       "--out", tmp_path / "y") == EXIT_INPUT

    @pytest.mark.parametrize("command", ["validate", "baseline", "equilibrium"])
    @pytest.mark.parametrize("section, key, value, field", [
        (None, "prizes", [float("nan"), 0.0], "prizes"),
        (None, "prizes", [float("inf"), 0.0], "prizes"),
        ("noise", "dispersion", float("inf"), "dispersion"),
        ("cost", "kappa", float("inf"), "kappa"),
    ], ids=["prize-nan", "prize-inf", "dispersion-inf", "kappa-inf"])
    def test_non_finite_scenario_number_is_input_error(self, tmp_path, capsys, command,
                                                       section, key, value, field):
        config = copy.deepcopy(EXAMPLE_CONFIGS["example1"])
        (config[section] if section else config)[key] = value
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(config))  # NaN / Infinity literals
        code = run_cli(command, "--scenario", path, "--out", tmp_path / "o")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{field} must be" in err[0] and "finite" in err[0]

    @pytest.mark.parametrize("command", ["validate", "baseline", "equilibrium", "hacking",
                                         "sweep", "simulate"])
    @pytest.mark.parametrize("name, kappa", [("example4", 1.0), ("example3", 2.0),
                                             ("example3", 3.0)])
    def test_unbounded_scenario_is_input_error(self, tmp_path, capsys, command,
                                               name, kappa):
        config = copy.deepcopy(EXAMPLE_CONFIGS[name])
        config["cost"] = {"kind": "linear", "kappa": kappa}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(config))
        reason = example_scenario(name, cost=config["cost"]).unbounded_reason()
        extra = ("--prizes", "1,0") if command == "sweep" else ()
        code = run_cli(command, *extra, "--scenario", path, "--out", tmp_path / "o")
        assert code == EXIT_INPUT
        out, err = capsys.readouterr()
        if command == "validate":   # the failed report is an artifact
            assert f"[FAIL] bounded-optimum: {reason}" in out
            assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
                MANIFEST_NAME, "validation.json"]
        else:
            assert err == f"error: {reason}\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value, field", [
        (None, "nu", 5, "nu"),
        (None, "noise", "normal", "noise"),
        ("cost", "kappa", "x", "cost.kappa"),
        ("cost", "kappa", True, "cost.kappa"),
        ("types", "support", ["a", 1], "types.support[0]"),
        (None, "prizes", ["a"], "prizes[0]"),
        (None, "prizes", [True], "prizes[0]"),
        ("noise", "dispersion", None, "noise.dispersion"),
        ("noise", "dispersion", True, "noise.dispersion"),
        ("xi", "alpha", "q", "xi.alpha"),
        ("types", "kind", "unif\xe9", "UTF-8"),
    ], ids=["nu-number", "noise-text", "kappa-text", "kappa-bool", "support-text",
            "prize-text", "prize-bool", "dispersion-null", "dispersion-bool",
            "alpha-text", "not-utf8"])
    def test_malformed_scenario_value_is_one_error_line(self, tmp_path, capsys, section,
                                                        key, value, field):
        # example3's xi is a power form, so its alpha is read; the file is
        # Latin-1, which is UTF-8 unless it holds a non-ASCII character
        config = copy.deepcopy(EXAMPLE_CONFIGS["example3"])
        (config[section] if section else config)[key] = value
        path = tmp_path / "scn.json"
        path.write_bytes(json.dumps(config, ensure_ascii=False).encode("latin-1"))
        code = run_cli("validate", "--scenario", path, "--out", tmp_path / "o")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert field in lines[0]

    @pytest.mark.parametrize("command", ["validate", "equilibrium"])
    @pytest.mark.parametrize("dispersion", [0.0, -1.0, 2.0])
    def test_exponential_noise_takes_no_dispersion(self, tmp_path, capsys, command,
                                                   dispersion):
        config = copy.deepcopy(EXAMPLE_CONFIGS["example1"])
        config["noise"] = {"kind": "exponential", "dispersion": dispersion}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(config))
        code = run_cli(command, "--scenario", path, "--out", tmp_path / "o")
        assert code == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith(f"exponential noise takes no dispersion, got {dispersion!r}")

    def test_exponential_noise_without_dispersion_keeps_its_id(self, tmp_path):
        config = copy.deepcopy(EXAMPLE_CONFIGS["example1"])
        config["noise"] = {"kind": "exponential"}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(config))
        assert load_scenario(path).scenario_id == "7ad8b9311d0f"

    @pytest.mark.parametrize("kind", ["normal", "gumbel"])
    def test_tiny_dispersion_is_one_error_line(self, tmp_path, capsys, kind):
        # at dispersion 1e-300 almost every score lies beyond |z| = 40, where
        # the noise law is exactly 0 or 1: no overflow warning, and the
        # unconverged solve is reported as such
        config = copy.deepcopy(EXAMPLE_CONFIGS["example1"])
        config["noise"] = {"kind": kind, "dispersion": 1e-300}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(config))
        code = run_cli("equilibrium", "--scenario", path, "--grid", "21",
                       "--out", tmp_path / "o")
        assert code == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_mk_reads_integers_beyond_int64(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("x\n1\n99999999999999999999\n5\n")
        assert run_cli("mk", "--input", path, "--column", "x",
                       "--out", tmp_path / "m") == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_missing_column_is_input_error(self, tmp_path, capsys):
        assert run_cli("mk", "--input", TREND_CSV,
                       "--column", "nope", "--out", tmp_path / "z") == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("no column 'nope' (have ['score', 'step'])")

    def test_missing_outcome_is_input_error(self, tmp_path, rng, capsys):
        panel = tmp_path / "panel.csv"
        g = np.repeat(np.arange(10), 5)
        write_csv(panel, {"g": g, "x": rng.normal(size=g.size)})
        out = tmp_path / "r"
        assert run_cli("regress", "--input", panel, "--outcome", "y", "--dummies", "x",
                       "--group", "g", "--out", out) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: panel is missing columns ['y']"]
        assert not out.exists()

    def test_regress_ignores_unread_text_column(self, tmp_path):
        # the typed parse reads only the fit's columns, so a text column
        # elsewhere in the file leaves regress.json as it was
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", "example1", "--contests", "6",
                       "--grid", "21", "--out", sim) == EXIT_OK
        plain = sim / "panel.csv"
        header, *rows = plain.read_text().splitlines()
        text = tmp_path / "text.csv"
        text.write_text("\n".join([f"{header},note", *(f"{row},n/a" for row in rows)]) + "\n")
        for path, out in ((plain, tmp_path / "plain"), (text, tmp_path / "text")):
            assert run_cli("regress", "--input", path, "--outcome", "mu",
                           "--dummies", "type", "--out", out) == EXIT_OK
        assert ((tmp_path / "plain" / "regress.json").read_bytes()
                == (tmp_path / "text" / "regress.json").read_bytes())

    @pytest.mark.parametrize("command", ["mk", "regress"])
    @pytest.mark.parametrize("bad_row", ["3", "3,3.0,7"], ids=["short", "long"])
    def test_ragged_csv_row_is_input_error(self, tmp_path, capsys, command, bad_row):
        path = tmp_path / "ragged.csv"
        path.write_text(f"step,score\n1,1.0\n2,2.0\n{bad_row}\n4,4.0\n")
        # mk reads one column; under --column step the bad field lies outside it
        for args in ([["--column", "score"], ["--column", "step"]] if command == "mk"
                     else [["--outcome", "score", "--dummies", "step", "--group", "step"]]):
            assert run_cli(command, "--input", path, *args,
                           "--out", tmp_path / "r") == EXIT_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "ragged.csv: line 4 " in err

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run_cli("cost", "--scenario", "example1") == EXIT_USAGE
        capsys.readouterr()

    def test_exhausted_iteration_budget_is_exit_three(self, tmp_path, monkeypatch):
        # tol 0 can never be met; four sweeps are too few for a stall, so
        # the solver stops at its iteration budget
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 4)
        out = tmp_path / "nc"
        code = run_cli("equilibrium", "--scenario", "example1",
                       "--grid", "21", "--tol", "0", "--out", out)
        assert code == EXIT_NO_CONVERGENCE
        assert json.loads((out / "equilibrium.json").read_text())["iterations"] == 4

    def test_unreachable_tolerance_is_exit_three(self, tmp_path):
        # tol 0 can never be met, so the solver stops on a stalled residual
        out = tmp_path / "nc"
        code = run_cli("equilibrium", "--scenario", "example1",
                       "--grid", "21", "--tol", "0", "--out", out)
        assert code == EXIT_NO_CONVERGENCE
        assert json.loads((out / "equilibrium.json").read_text())["iterations"] < 500
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["outputs"] == ["equilibrium.csv", "equilibrium.json"]

    def test_unconverged_hacking_leaves_no_directory(self, tmp_path, capsys):
        # hacking verdicts need a converged profile, so nothing is written
        out = tmp_path / "nc"
        code = run_cli("hacking", "--scenario", "example1",
                       "--grid", "21", "--tol", "0", "--out", out)
        assert code == EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err.startswith("error: equilibrium did not converge")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["equilibrium"], ["hacking"], ["sweep", "--prizes", "1,0;2,0"],
        ["simulate", "--contests", "5"],
    ], ids=["equilibrium", "hacking", "sweep", "simulate"])
    def test_unconverged_equilibrium_is_one_error_line(self, tmp_path, monkeypatch,
                                                       capsys, argv):
        monkeypatch.setattr(equilibrium, "_MAX_ITER", 2)
        out = tmp_path / "nc"
        code = run_cli(*argv, "--scenario", "example1", "--grid", "21", "--out", out)
        assert code == EXIT_NO_CONVERGENCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: equilibrium did not converge")
        if argv[0] == "equilibrium":
            # the artifacts are written first and record the failure
            assert json.loads((out / "equilibrium.json").read_text())["converged"] is False

    @pytest.mark.parametrize("argv", [
        ["equilibrium", "--grid", "0"], ["equilibrium", "--grid", "-3"],
        ["equilibrium", "--grid", "1"], ["sweep", "--prizes", "1,0;2,0", "--grid", "0"],
        ["baseline", "--grid", "-3"], ["baseline", "--grid", "1"],
        ["cost", "--theta", "1", "--points", "0"],
        ["cost", "--theta", "1", "--points", "-2"],
    ], ids=["equilibrium-grid-0", "equilibrium-grid-negative", "equilibrium-grid-1",
            "sweep-grid-0", "baseline-grid-negative", "baseline-grid-1",
            "cost-points-0", "cost-points-negative"])
    def test_bad_count_is_input_error(self, tmp_path, capsys, argv):
        code = run_cli(*argv, "--scenario", "example1", "--out", tmp_path / "n")
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_is_input_error(self, tmp_path, capsys, tol):
        code = run_cli("equilibrium", "--scenario", "example1", "--tol", tol,
                       "--out", tmp_path / "t")
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_payoff_is_exit_three(self, tmp_path, monkeypatch, capsys):
        table = contestlab.GainTable
        monkeypatch.setattr(table, "gain", nan_at_fourth_point(table.gain))
        code = run_cli("equilibrium", "--scenario", "example1", "--grid", "21",
                       "--out", tmp_path / "nan")
        assert code == EXIT_NO_CONVERGENCE
        assert "not finite" in capsys.readouterr().err

    def test_rank_deficient_regression_is_input_error(self, tmp_path, capsys):
        # prize_value is constant within each contest, so the contest
        # effects absorb it: the input is at fault, not a solver
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", "example1", "--contests", "4",
                       "--grid", "21", "--out", sim) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "r"
        assert run_cli("regress", "--input", sim / "panel.csv", "--outcome", "mu",
                       "--dummies", "type,prize_value", "--out", out) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "prize_value" in err[0]
        assert not out.exists()

    def test_nan_group_label_is_input_error(self, tmp_path, rng, capsys):
        # rows with a NaN label would otherwise share one fixed effect
        panel = tmp_path / "panel.csv"
        g = np.repeat(np.arange(10), 5).astype(float)
        g[[7, 31]] = np.nan
        write_csv(panel, {"g": g, "x": rng.normal(size=g.size), "y": rng.normal(size=g.size)})
        out = tmp_path / "r"
        assert run_cli("regress", "--input", panel, "--outcome", "y", "--dummies", "x",
                       "--group", "g", "--out", out) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "'g'" in err[0]
        assert not out.exists()

    def test_blank_group_label_is_input_error(self, tmp_path, rng, capsys):
        # blank labels would otherwise pool their rows into one fixed effect
        panel = tmp_path / "panel.csv"
        g = np.repeat(np.arange(10), 5).astype(str).astype(object)
        g[[7, 31]] = ""
        write_csv(panel, {"g": g, "x": rng.normal(size=g.size), "y": rng.normal(size=g.size)})
        out = tmp_path / "r"
        assert run_cli("regress", "--input", panel, "--outcome", "y", "--dummies", "x",
                       "--group", "g", "--out", out) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "blank labels" in err[0]
        assert not out.exists()

    def test_replay_of_missing_manifest_is_input_error(self, tmp_path):
        assert run_cli("replay", tmp_path / "nope.json",
                       "--out", tmp_path / "r") == EXIT_INPUT

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--scenario", "example1", "--prizes", "1,x"], "bad prize vector"),
        (["sweep", "--scenario", "example1", "--prizes", ";"], "no prize vectors given"),
        (["cost", "--scenario", "example1", "--theta", "1", "--mu-max", "0"],
         "--mu-max must be positive"),
        (["replay", "{not json"], "not valid JSON"),
        (["replay", '{"command": "cost"}'], "missing replay_argv"),
    ], ids=["bad-prize", "no-prizes", "mu-max-0", "manifest-not-json",
            "manifest-without-argv"])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, argv, message):
        if argv[0] == "replay":   # the second item is the manifest's text
            manifest = tmp_path / MANIFEST_NAME
            manifest.write_text(argv[1])
            argv = ["replay", manifest]
        assert run_cli(*argv, "--out", tmp_path / "e") == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    @pytest.mark.parametrize("argv, message", [
        (["mk", "--column", "band"], "Mann-Kendall series must be numeric"),
        (["regress", "--outcome", "mu_star", "--dummies", "band", "--group", "hacks"],
         "panel column 'band' is not numeric"),
    ], ids=["mk", "regress"])
    def test_text_column_is_one_error_line(self, tmp_path, capsys, argv, message):
        hack = tmp_path / "h"
        assert run_cli("hacking", "--scenario", "example3", "--grid", "21",
                       "--out", hack) == EXIT_OK
        capsys.readouterr()
        assert run_cli(argv[0], "--input", hack / "hacking.csv", *argv[1:],
                       "--out", tmp_path / "e") == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_console_script_entry_point(tmp_path):
    # one end-to-end check through the installed executable; the child
    # imports the same contestlab as this process, installed or not
    src = str(Path(contestlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "contestlab.cli", "validate",
         "--scenario", "example1", "--out", str(tmp_path / "sub")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "validation.json").exists()
