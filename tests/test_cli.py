import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hamlv
from hamlv.averaging import (AveragedState, CoefficientPath, SlowEnvironment,
                             evolve_averaged)
from hamlv.cli import main
from hamlv.star import StarSystem, period
from hamlv.util import sha256_file

STAR = {"a": [1.0], "b": [1.0], "rbar": 1.0, "mu": 1.0}
SYSTEM = {"N": 1, "M": 1, "r": [1.0], "rbar": [1.0], "A": [[1.0]],
          "B": [[1.0]], "Gamma": [[0.0]], "D": [[0.0]]}


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(SYSTEM))
    return path


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"x": [2.0], "v": [1.0]}))
    return path


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(STAR))
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestNetgen:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "net"
        assert main(["netgen", "--nodes", "100", "--m", "2", "--seed", "7",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out)
        for name, digest in manifest["outputs"].items():
            assert sha256_file(out / name) == digest
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_edges"] == 3 + 97 * 2

    def test_seed_repeatable(self, tmp_path):
        for d in ("a", "b"):
            main(["netgen", "--nodes", "60", "--m", "2", "--seed", "3",
                  "--out", str(tmp_path / d)])
        assert (tmp_path / "a" / "topology.txt").read_bytes() == \
            (tmp_path / "b" / "topology.txt").read_bytes()

    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HLV_SEED", "11")
        main(["netgen", "--nodes", "40", "--m", "2", "--out",
              str(tmp_path / "env")])
        assert read_manifest(tmp_path / "env")["seed"] == 11
        # flag wins over the environment
        main(["netgen", "--nodes", "40", "--m", "2", "--seed", "5", "--out",
              str(tmp_path / "flag")])
        assert read_manifest(tmp_path / "flag")["seed"] == 5


class TestCheck:
    def test_persistent_system_exit_zero(self, tmp_path, system_file):
        out = tmp_path / "chk"
        assert main(["check", "--input", str(system_file), "--out",
                     str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["sign_class"] == "PP"
        assert cert["strong_persistence"]["persistent"]

    def test_infeasible_exit_two(self, tmp_path):
        bad = dict(SYSTEM, r=[1.0, 1.0], A=[[1.0], [2.0]], B=[[1.0, 2.0]],
                   N=2, Gamma=[[0.0, 0.0], [0.0, 0.0]])
        path = tmp_path / "bad_sys.json"
        path.write_text(json.dumps(bad))
        assert main(["check", "--input", str(path), "--out",
                     str(tmp_path / "o")]) == 2

    def test_malformed_input_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"N": 1, "M": 1, "r": [1.0]}))
        assert main(["check", "--input", str(path), "--out",
                     str(tmp_path / "o")]) == 1
        assert "rbar" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["check", "--input", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_unknown_flag_exit_one(self, tmp_path, system_file):
        assert main(["check", "--input", str(system_file), "--out",
                     str(tmp_path / "o"), "--bogus"]) == 1


class TestSimulateAndCanonical:
    def test_trajectory_schema(self, tmp_path, system_file, state_file):
        out = tmp_path / "sim"
        assert main(["simulate", "--input", str(system_file), "--state",
                     str(state_file), "--t-end", "5", "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,v1"
        assert len(lines) == 1002

    def test_canonical_star_records_energy(self, tmp_path, system_file,
                                           state_file):
        out = tmp_path / "can"
        assert main(["canonical", "--input", str(system_file), "--state",
                     str(state_file), "--t-end", "5", "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,q,p,H"
        state = json.loads((out / "canonical_state.json").read_text())
        assert state == {"q": [0.0], "p": [0.0], "C": [2.0]}

    def test_canonical_escape_reported(self, tmp_path, state_file):
        # the star a = [1], b = [-1] has no well and blows up near t = 0.97
        escaping = dict(SYSTEM, B=[[-1.0]])
        system = tmp_path / "escaping.json"
        system.write_text(json.dumps(escaping))
        state_file.write_text(json.dumps({"x": [1.0], "v": [1.0]}))
        out = tmp_path / "can"
        assert main(["canonical", "--input", str(system), "--state",
                     str(state_file), "--t-end", "20", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["escaped"] and run["meta"]["escape_reason"] == "clamp"
        assert 0.9 < run["escape_time"] < 1.0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert rows[-1, 0] < run["escape_time"]
        assert set(read_manifest(out)["outputs"]) == {
            "canonical_state.json", "trajectory.csv", "run.json"}

    def test_energy_guard_exit_one(self, tmp_path, capsys, system_file,
                                   state_file):
        # h = 2.5 is far too large for the unit star: the Verlet energy
        # guard raises RuntimeError, which the CLI reports as an error
        assert main(["canonical", "--input", str(system_file), "--state",
                     str(state_file), "--h", "2.5", "--t-end", "5000",
                     "--out", str(tmp_path / "can")]) == 1
        assert "error: energy moved" in capsys.readouterr().err

    def test_svg_emitted_on_request(self, tmp_path, system_file, state_file):
        out = tmp_path / "svg"
        main(["simulate", "--input", str(system_file), "--state",
              str(state_file), "--t-end", "2", "--format", "svg", "--out",
              str(out)])
        svg = (out / "trajectory.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestFormatOption:
    @pytest.mark.parametrize("command", [
        ["simulate", "--input", "s.json", "--state", "x.json"],
        ["star", "--input", "s.json"],
        ["average", "--input", "e.json", "--E0", "3"],
        ["ensemble", "curve"]])
    def test_json_format_rejected(self, tmp_path, capsys, command):
        # the json choice used to write the csv files; argparse now refuses
        # it, and the CLI maps parse errors to exit code 1
        assert main(command + ["--format", "json", "--out",
                               str(tmp_path / "o")]) == 1
        assert "invalid choice: 'json'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestStar:
    def test_periodic_orbit_report(self, tmp_path, star_file):
        out = tmp_path / "star"
        assert main(["star", "--input", str(star_file), "--E", "3", "--out",
                     str(out)]) == 0
        orbit = json.loads((out / "orbit.json").read_text())
        assert orbit["class"] == "periodic"
        assert orbit["q_minus"] == pytest.approx(-1.8414056604, abs=1e-6)
        assert orbit["q_plus"] == pytest.approx(1.1461932206, abs=1e-6)
        assert orbit["period"] == period(StarSystem(**STAR), 3.0)
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "q,phi"
        report = json.loads((out / "report.json").read_text())
        assert report["window"] == [-50.0, 50.0]
        assert report["window_warning"] is False

    def test_unresolved_period_is_null(self, tmp_path):
        # 2.2e-7 below the barrier of the double well's left well, 28 and 18
        # segments still differ by 3.5e-6 relative; the unchecked 8-segment
        # value there is 6.95596884
        path = tmp_path / "double_well.json"
        path.write_text(json.dumps({"a": [2.0, -2.0, 1.0, -1.0],
                                    "b": [8.0, -8.0, -20.0, 20.0],
                                    "rbar": 0.0}))
        out = tmp_path / "o"
        assert main(["star", "--input", str(path), "--E", "-31.0000002246",
                     "--out", str(out)]) == 2
        orbit = json.loads((out / "orbit.json").read_text())
        assert orbit["class"] == "periodic" and orbit["period"] is None
        assert orbit["period_error"].startswith(
            "period at E = -31.0000002246 did not converge to rtol = 1e-06")
        assert orbit["q_minus"] == pytest.approx(-0.96242363, abs=1e-8)
        assert orbit["q_plus"] == pytest.approx(-0.00023696, abs=1e-8)
        report = json.loads((out / "report.json").read_text())
        assert report["persistence"] == {"rule": "PIII", "passed": True,
                                         "i_plus": 0, "i_minus": 1,
                                         "tied": False}

    @pytest.mark.parametrize("star,E,code,digest", [
        (STAR, "3", 0,
         "f5f147cea38f2c5baab48f556dd1e9b41eb618ff922323adb257b2e7bb95fc11"),
        # the unresolved period of test_unresolved_period_is_null
        ({"a": [2.0, -2.0, 1.0, -1.0], "b": [8.0, -8.0, -20.0, 20.0],
          "rbar": 0.0}, "-31.0000002246", 2,
         "5fc713b58250726acb98dba0058448c0905870f7a191b89527d3322e168970e2"),
        (STAR, "2", 0,
         "eac0fe99c6c8f28900fb240f3e11bef3f34413c193c90027c5143be3ea1d411c"),
        (STAR, "1.5", 2,
         "7f7008190cd663b989e9aa89cb6e5e8a52dd57ba05dab7207fa5567d11f09319"),
        # the stars of test_star.py's soliton, kink and unbounded tests, at
        # the barrier energy of the first maximum, and E = 5
        ({"a": [2.0, -2.0, 1.0, -1.0], "b": [2.0, -2.0, -5.0, 5.0],
          "rbar": 0.0}, "-7.0", 0,
         "2ca44f8333451dfe9e161155fda5e1cc9f93034cb912eab5fe55c60bd84cfe1b"),
        ({"a": [2.0, -2.0, 0.8, -0.8], "b": [-0.1, 0.1, 0.8, -0.8],
          "rbar": 0.0}, "3.6539984377758485", 2,
         "c637272b03bdc1888e691a158229df86a00bacb4efc96a5bf6a43a69744f6d50"),
        ({"a": [1.0], "b": [-1.0], "rbar": 1.0}, "5", 2,
         "dc01e71b72c0ff8e3797583007ded1ddda32d53b515976352f2cf39591742d2c"),
    ], ids=["periodic", "unresolved", "equilibrium", "below-well", "soliton",
            "kink", "unbounded"])
    def test_orbit_report_bytes(self, tmp_path, star, E, code, digest):
        # each verdict the report can give: a checked period, an unresolved
        # one, the equilibrium, an energy below the well and each orbit
        # class without a period
        path = tmp_path / "star.json"
        path.write_text(json.dumps(star))
        out = tmp_path / "o"
        assert main(["star", "--input", str(path), "--E", E, "--out",
                     str(out)]) == code
        assert sha256_file(out / "orbit.json") == digest

    def test_energy_past_exp_overflow(self, tmp_path, capsys):
        # Phi = 2 cosh q: at E = 1e250 the upper kinetic roots sit near
        # p = 575, where a doubling bracket passes ln(DBL_MAX)
        path = tmp_path / "cosh.json"
        path.write_text(json.dumps({"a": [1.0, -1.0], "b": [1.0, -1.0],
                                    "rbar": 0.0}))
        out = tmp_path / "o"
        assert main(["star", "--input", str(path), "--E", "1e250", "--out",
                     str(out)]) == 0
        assert capsys.readouterr().err == ""
        orbit = json.loads((out / "orbit.json").read_text())
        assert orbit["class"] == "periodic" and orbit["period"] > 0.0

    def test_root_on_a_grid_point(self, tmp_path):
        # the minimum sits at q = 0, a grid point where the grid's Phi' and
        # a scalar call's have opposite signs; this exited 1 with "f(a) and
        # f(b) must have different signs"
        path = tmp_path / "star.json"
        path.write_text(json.dumps({
            "a": [0.6892132363451832, 1.237444522393971, 1.6498075117355366,
                  0.6809448521022694, 0.7097079018250396, 1.6840678591134866,
                  1.5427070843173807, 0.42826654704320233],
            "b": [1.2288885085888996, 1.2637515520893936, 0.34895609699394825,
                  0.9777271980015749, 0.3754410705497331, 0.4408897968393155,
                  0.7916080574600988, 0.8311080391311317],
            "rbar": 6.258370319654095, "mu": 1}))
        out = tmp_path / "o"
        assert main(["star", "--input", str(path), "--E", "10", "--out",
                     str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [e["kind"] for e in report["extrema"]] == ["min"]
        assert abs(report["extrema"][0]["q"]) <= 1e-12
        assert json.loads((out / "orbit.json").read_text())["class"] == \
            "periodic"

    def test_failing_star_exit_two(self, tmp_path):
        path = tmp_path / "bad_star.json"
        path.write_text(json.dumps({"a": [1.0], "b": [-1.0], "rbar": 1.0}))
        assert main(["star", "--input", str(path), "--out",
                     str(tmp_path / "o")]) == 2


class TestAverageAndResonance:
    def test_average_outputs(self, tmp_path, star_file):
        env = {"star": STAR, "epsilon": 0.01, "dbar": 1.0}
        path = tmp_path / "env.json"
        path.write_text(json.dumps(env))
        out = tmp_path / "avg"
        assert main(["average", "--input", str(path), "--E0", "3.0",
                     "--tau-end", "0.3", "--out", str(out)]) == 0
        header = (out / "averaged.csv").read_text().splitlines()[0]
        assert header == "tau,E,C1"
        events = json.loads((out / "events.json").read_text())
        assert events[-1]["kind"] == "stabilized"

    def test_average_from_the_well_bottom(self, tmp_path):
        # 5e-10 above the bottom at E = 2: the equilibrium by classify_orbit
        path = tmp_path / "env.json"
        path.write_text(json.dumps(ENV))
        out = tmp_path / "avg"
        assert main(["average", "--input", str(path), "--E0", "2.0000000005",
                     "--tau-end", "0.3", "--out", str(out)]) == 0
        events = json.loads((out / "events.json").read_text())
        assert [e["kind"] for e in events] == ["stabilized"]

    @pytest.mark.parametrize("block, value, slope", [
        ({"kind": "linear", "rate": 0.5},
         lambda tau: 1.0 + 0.5 * tau, lambda tau: 0.5),
        ({"kind": "sinusoid", "base": 1.2, "amp": 0.3, "freq": 4.0},
         lambda tau: 1.2 + 0.3 * np.sin(4.0 * tau),
         lambda tau: 0.3 * 4.0 * np.cos(4.0 * tau)),
    ], ids=["linear", "sinusoid"])
    def test_average_coefficient_path(self, tmp_path, block, value, slope):
        # the run of an rbar path has the bytes of the same path built by
        # hand (a linear path without a base starts at the star's rbar)
        path = tmp_path / "env.json"
        path.write_text(json.dumps(dict(ENV, rbar_path=block)))
        out = tmp_path / "avg"
        assert main(["average", "--input", str(path), "--E0", "3.0",
                     "--tau-end", "0.3", "--out", str(out)]) == 0
        star = StarSystem(**STAR)
        env = SlowEnvironment(a=CoefficientPath.constant(star.a),
                              b=CoefficientPath.constant(star.b),
                              rbar=CoefficientPath.from_callable(value, slope),
                              mu=star.mu, epsilon=0.01, dbar=1.0)
        init = AveragedState(tau=0.0, E=3.0, Cbar=star.C)
        evolve_averaged(env, init, 0.3).to_csv(tmp_path / "by_hand.csv")
        assert (out / "averaged.csv").read_bytes() == \
            (tmp_path / "by_hand.csv").read_bytes()

    def test_average_svg(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text(json.dumps(ENV))
        out = tmp_path / "avg"
        assert main(["average", "--input", str(path), "--E0", "3.0",
                     "--tau-end", "0.3", "--format", "svg", "--out",
                     str(out)]) == 0
        svg = (out / "averaged.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == 1
        assert "averaged.svg" in read_manifest(out)["outputs"]

    def test_resonance_verdict_schema(self, tmp_path):
        two = {"star1": STAR, "star2": STAR, "atilde1": [0.0],
               "atilde2": [0.0], "btilde1": [0.3], "btilde2": [-0.3],
               "kappa": 0.01, "epsilon": 0.0}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(two))
        out = tmp_path / "res"
        assert main(["resonance", "--input", str(path), "--out",
                     str(out)]) == 2  # unstable pair reports as negative
        verdict = json.loads((out / "verdict.json").read_text())
        for key in ("R", "b12", "b21", "ebar", "lambda_max", "verdict"):
            assert key in verdict
        assert verdict["verdict"] == "unstable"

    def test_resonance_slow_run(self, tmp_path):
        two = {"star1": STAR, "star2": STAR, "atilde1": [0.0],
               "atilde2": [0.0], "btilde1": [0.3], "btilde2": [0.3],
               "kappa": 0.01, "epsilon": 0.0}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(two))
        out = tmp_path / "res"
        assert main(["resonance", "--input", str(path), "--tau-end", "5",
                     "--out", str(out)]) == 0
        header = (out / "slow_trajectory.csv").read_text().splitlines()[0]
        assert header == "tau,Q1,Q2,phi1,phi2"

    def test_resonance_slow_run_reaches_the_end(self, tmp_path):
        # a stable pair exchanges energy, so an amplitude passes through zero
        two = dict(TWO_STAR, kappa=0.02)
        path = tmp_path / "two.json"
        path.write_text(json.dumps(two))
        out = tmp_path / "res"
        assert main(["resonance", "--input", str(path), "--tau-end", "100",
                     "--out", str(out)]) == 0
        rows = (out / "slow_trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == 1001
        assert float(rows[-1].split(",")[0]) == 100.0


class TestEnsembleCli:
    def test_census_deterministic_across_workers(self, tmp_path):
        args = ["ensemble", "census", "--n-low", "1", "--n-high", "30",
                "--trials", "120", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "w1"), "--workers", "1"])
        main(args + ["--out", str(tmp_path / "w4"), "--workers", "4"])
        assert (tmp_path / "w1" / "report.json").read_bytes() == \
            (tmp_path / "w4" / "report.json").read_bytes()

    def test_curve_csv_schema(self, tmp_path):
        out = tmp_path / "curve"
        assert main(["ensemble", "curve", "--N", "5", "--mix", "0,0.2",
                     "--trials", "40", "--seed", "2", "--out", str(out)]) == 0
        header = (out / "curve.csv").read_text().splitlines()[0]
        assert header == ("mix,P_periodic,P_periodic_lo,P_periodic_hi,"
                          "P_soliton,P_soliton_lo,P_soliton_hi")

    def test_curve_svg(self, tmp_path):
        out = tmp_path / "curve"
        assert main(["ensemble", "curve", "--N", "5", "--mix", "0,0.2",
                     "--trials", "20", "--seed", "2", "--format", "svg",
                     "--out", str(out)]) == 0
        svg = (out / "curve.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == 2
        assert ">P_periodic<" in svg and ">P_soliton<" in svg
        assert "curve.svg" in read_manifest(out)["outputs"]

    def test_positive_frequency_report(self, tmp_path):
        out = tmp_path / "t3"
        assert main(["ensemble", "positive-frequency", "--N", "5", "--trials", "200",
                     "--seed", "3", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["trials"] == 200
        assert 0.0 <= report["frequency"] <= 1.0

    def test_manifest_checksums_verify(self, tmp_path):
        out = tmp_path / "t2"
        main(["ensemble", "cone-frequency", "--M", "2", "--N", "20", "--trials",
              "30", "--seed", "1", "--out", str(out)])
        manifest = read_manifest(out)
        for name, digest in manifest["outputs"].items():
            assert sha256_file(out / name) == digest
        assert manifest["versions"]["hamlv"]


ENV = {"star": STAR, "epsilon": 0.01, "dbar": 1.0}
TWO_STAR = {"star1": STAR, "star2": STAR, "atilde1": [0.0], "atilde2": [0.0],
            "btilde1": [0.3], "btilde2": [0.3], "kappa": 0.01, "epsilon": 0.0}
# self-limited with positive factors: check runs the permanence criterion
LIMITED = dict(SYSTEM, Gamma=[[0.5]], D=[[0.5]])
# sigma_2 b_22 = rho_2 a_22 asks for 2 = 1 once the other entries fix 1s
UNFACTORIZABLE = {"N": 2, "M": 2, "r": [1.0, 1.0], "rbar": [1.0, 1.0],
                  "A": [[1.0, 1.0], [1.0, 1.0]], "B": [[1.0, 1.0], [1.0, 2.0]]}
DOUBLE_WELL = {"a": [2.0, -2.0, 1.0, -1.0], "b": [8.0, -8.0, -20.0, 20.0],
               "rbar": 0.0}


@pytest.fixture
def inputs(tmp_path):
    """Paths of one input file of each kind the subcommands read."""
    paths = {}
    for name, data in (("system", SYSTEM), ("state", {"x": [2.0], "v": [1.0]}),
                       ("star", STAR), ("env", ENV), ("two", TWO_STAR),
                       ("limited", LIMITED),
                       ("unfactorizable", UNFACTORIZABLE),
                       ("well", DOUBLE_WELL),
                       ("unstable", dict(TWO_STAR, btilde2=[-0.3]))):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    return paths


class TestManifestConfig:
    """config is every option of the run except --out, --seed, --workers."""

    @pytest.mark.parametrize("argv, command, config", [
        (["netgen", "--nodes", "30", "--seed", "1"], "netgen",
         {"nodes": 30, "m": 2}),
        (["check", "--input", "{system}"], "check",
         {"input": "{system}", "tol": 1e-9}),
        (["simulate", "--input", "{system}", "--state", "{state}",
          "--t-end", "2", "--samples", "11"], "simulate",
         {"input": "{system}", "state": "{state}", "t_end": 2.0,
          "rtol": 1e-8, "atol": 1e-10, "samples": 11, "format": "csv"}),
        (["canonical", "--input", "{system}", "--state", "{state}",
          "--t-end", "1", "--h", "0.01"], "canonical",
         {"input": "{system}", "state": "{state}", "t_end": 1.0, "h": 0.01,
          "rtol": 1e-8, "tol": 1e-9}),
        (["star", "--input", "{star}", "--format", "svg"], "star",
         {"input": "{star}", "E": None, "format": "svg"}),
        (["average", "--input", "{env}", "--E0", "3", "--tau-end", "0.1"],
         "average", {"input": "{env}", "E0": 3.0, "tau_end": 0.1,
                     "format": "csv"}),
        (["resonance", "--input", "{two}"], "resonance",
         {"input": "{two}", "tau_end": None, "Q0": 1e-3}),
        (["ensemble", "census", "--n-high", "5", "--trials", "3",
          "--workers", "2"], "ensemble census",
         {"mode": "census", "n_low": 1, "n_high": 5, "trials": 3,
          "bbar": 1.0, "sigma_b": 10.0, "sigma_a": 5.0}),
        (["ensemble", "curve", "--N", "3", "--mix", "0", "--trials", "3"],
         "ensemble curve",
         {"mode": "curve", "N": 3, "mix": "0", "trials": 3,
          "format": "csv"}),
        (["ensemble", "cone-frequency", "--M", "2", "--N", "6", "--trials",
          "3"], "ensemble cone-frequency",
         {"mode": "cone-frequency", "M": 2, "N": 6, "r0": 1.0,
          "sigma": 0.3, "trials": 3}),
        (["ensemble", "positive-frequency", "--N", "3", "--trials", "5",
          "--seed", "4"], "ensemble positive-frequency",
         {"mode": "positive-frequency", "N": 3, "trials": 5,
          "matrix_model": "sparse_uniform"}),
    ])
    def test_config_echoes_every_option(self, tmp_path, inputs, argv,
                                        command, config):
        fill = lambda v: v.format(**inputs) if isinstance(v, str) else v
        out = tmp_path / "out"
        assert main([fill(a) for a in argv] + ["--out", str(out)]) in (0, 2)
        manifest = read_manifest(out)
        assert manifest["command"] == command
        assert manifest["config"] == {k: fill(v) for k, v in config.items()}


class TestResultBytes:
    """Each JSON result file, pinned by its sha256: a result's JSON is its
    fields by name, with arrays as lists."""

    @pytest.mark.parametrize("argv, name, code, digest", [
        (["check", "--input", "{system}"], "certificate.json", 0,
         "0cffb3f4aafa7551be1deadffb50376d0b892d944307750094c68f156229b38a"),
        (["check", "--input", "{limited}"], "certificate.json", 0,
         "2be00bdd8087dbf0b29920cd1844b2d9775e9deaabe670f6166da4639912cbf8"),
        (["check", "--input", "{unfactorizable}"], "certificate.json", 2,
         "f6cbf1a8b61d59b5977c937918b77b0a1633da10583efc467865141043884708"),
        (["star", "--input", "{star}"], "report.json", 0,
         "a86219e9675920aba6742173ea0953eafe01388f75187f7eec94e54872b07433"),
        (["star", "--input", "{well}"], "report.json", 0,
         "2e4da5e2ee526ed4f9155a16e28d33c1759dc6d5b4a0e6fa06a3885ac8195765"),
        (["canonical", "--input", "{system}", "--state", "{state}",
          "--t-end", "1", "--h", "0.01"], "canonical_state.json", 0,
         "b96310f78dfbca5335a3b5ff6fe2b3c0000171119a0dac24350ba47f0c6876bb"),
        (["average", "--input", "{env}", "--E0", "3", "--tau-end", "0.3"],
         "events.json", 0,
         "9db11d53e7f2f036aa67d7babd1e2fb25136fda0e6ff858926978afbb4fbcf44"),
        (["resonance", "--input", "{two}"], "verdict.json", 0,
         "c50650482ed92fe77cf8801aaa212b383072841b8c236b631be0ad32b7548611"),
        (["resonance", "--input", "{unstable}"], "verdict.json", 2,
         "f58a5b0ca795c4e0724dccc233f84bb2c454b4fe1d81b71da5e55c42e8a571d7"),
    ], ids=["check-persistent", "check-permanence", "check-unfactorizable",
            "star", "star-double-well", "canonical", "average",
            "resonance-stable", "resonance-unstable"])
    def test_result_bytes(self, tmp_path, inputs, argv, name, code, digest):
        out = tmp_path / "out"
        assert main([a.format(**inputs) for a in argv]
                    + ["--out", str(out)]) == code
        assert sha256_file(out / name) == digest


class TestMalformedInput:
    """A file of the wrong shape ends in error: and exit 1, no traceback."""

    def run(self, tmp_path, capsys, command, payload, *extra):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code = main([command, "--input", str(path), *extra,
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        return err

    def test_check_list_instead_of_object(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "check", [])
        assert "must be a JSON object" in err

    def test_check_null_size(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "check", dict(SYSTEM, N=None))
        assert "'N'" in err

    def test_star_null_rbar(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "star", dict(STAR, rbar=None))
        assert "'rbar'" in err

    def test_star_rbar_array(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "star", dict(STAR, rbar=[1.0, 2.0]))
        assert "'rbar' must be a number" in err

    def test_average_path_of_wrong_type(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "average",
                       dict(ENV, rbar_path={"kind": "linear", "rate": {}}),
                       "--E0", "3")
        assert "'rate' must be a number or an array" in err

    def test_average_unknown_path_kind(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "average",
                       dict(ENV, b_path={"kind": "cubic"}), "--E0", "3")
        assert "unknown coefficient path kind 'cubic'" in err

    def test_resonance_star_not_object(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "resonance",
                       dict(TWO_STAR, star2=[1.0]))
        assert "star2 must be a JSON object" in err

    def test_resonance_nan_kappa(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "resonance",
                       dict(TWO_STAR, kappa=float("nan")))
        assert "kappa contains non-finite" in err

    def test_average_below_the_well(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "average", ENV, "--E0", "1.0")
        assert "below the well bottom" in err

    def test_average_above_the_barrier(self, tmp_path, capsys):
        # the double well's barrier is at E = -31
        star = {"a": [2.0, -2.0, 1.0, -1.0], "b": [8.0, -8.0, -20.0, 20.0],
                "rbar": 0.0}
        err = self.run(tmp_path, capsys, "average", dict(ENV, star=star),
                       "--E0", "-30")
        assert "reached the barrier" in err

    def test_average_nan_epsilon(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "average",
                       dict(ENV, epsilon=float("nan")), "--E0", "3")
        assert "epsilon contains non-finite" in err

    def test_simulate_state_of_wrong_type(self, tmp_path, capsys,
                                          system_file):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"x": {"a": 1}, "v": [1.0]}))
        assert main(["simulate", "--input", str(system_file), "--state",
                     str(state), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x'" in err

    @pytest.mark.parametrize("command", ["simulate", "canonical"])
    @pytest.mark.parametrize("state, wrong", [
        ({"x": [1.0, 2.0, 3.0], "v": []}, "x has 3, v has 0"),
        ({"x": [1.0], "v": [1.0]}, "x has 1")], ids=["3+0", "1+1"])
    def test_state_of_wrong_size(self, tmp_path, capsys, command, state,
                                 wrong):
        # on this N = 2, M = 1 system, simulate ran 3 + 0 abundances as
        # 2 + 1 and exited 0, and 1 + 1 ended in a numpy shape error
        system = tmp_path / "system.json"
        system.write_text(json.dumps(dict(
            SYSTEM, N=2, r=[1.0, 1.0], A=[[1.0], [1.0]], B=[[1.0, 1.0]],
            Gamma=[[0.0, 0.0], [0.0, 0.0]])))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main([command, "--input", str(system), "--state", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "N = 2, M = 1" in err and wrong in err

    def test_null_optional_field_takes_the_default(self, tmp_path, capsys):
        path = tmp_path / "star.json"
        path.write_text(json.dumps(dict(STAR, mu=None, C=None)))
        assert main(["star", "--input", str(path), "--out",
                     str(tmp_path / "o")]) == 0


class TestNonFiniteParameters:
    """A non-finite run end, tolerance or energy, a run end not after the
    start, or an ensemble parameter out of range, ends in error: and exit 1
    naming the parameter."""

    @pytest.mark.parametrize("argv, name", [
        (["simulate", "--input", "{system}", "--state", "{state}",
          "--t-end", "nan"], "t_end"),
        (["simulate", "--input", "{system}", "--state", "{state}",
          "--t-end", "inf"], "t_end"),
        (["simulate", "--input", "{system}", "--state", "{state}",
          "--rtol", "nan"], "rtol"),
        (["resonance", "--input", "{two}", "--tau-end", "nan"], "tau_end"),
        (["average", "--input", "{env}", "--E0", "3", "--tau-end", "nan"],
         "tau_end"),
        (["canonical", "--input", "{system}", "--state", "{state}",
          "--t-end", "inf"], "t_end"),
    ])
    def test_run_fails_in_time(self, tmp_path, inputs, argv, name):
        # these runs used not to end: each gets its own process and 30 s
        src = str(Path(hamlv.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "hamlv.cli",
             *[a.format(**inputs) for a in argv], "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and name in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["star", "--input", "{star}", "--E", "inf"], "E must be finite"),
        (["star", "--input", "{star}", "--E", "nan"], "E must be finite"),
        (["ensemble", "census", "--bbar", "nan", "--trials", "3"],
         "bbar must be finite"),
        (["ensemble", "census", "--sigma-b", "-5", "--trials", "3"],
         "sigma_b and sigma_a must be nonnegative"),
        (["ensemble", "cone-frequency", "--r0", "nan", "--trials", "3"],
         "r0 must be finite"),
        (["ensemble", "positive-frequency", "--N", "0", "--trials", "3"],
         "N and trials must be >= 1"),
        (["ensemble", "curve", "--N", "0", "--trials", "3"],
         "N must be >= 1"),
        (["simulate", "--input", "{system}", "--state", "{state}",
          "--samples", "0"], "n_samples must be at least 2"),
        (["simulate", "--input", "{system}", "--state", "{state}",
          "--samples", "1"], "n_samples must be at least 2"),
        # a worker count below one used to exit 0
        (["ensemble", "census", "--trials", "3", "--workers", "0"],
         "workers must be >= 1"),
        (["ensemble", "curve", "--trials", "3", "--workers", "-3"],
         "workers must be >= 1"),
        (["ensemble", "cone-frequency", "--trials", "3", "--workers", "0"],
         "workers must be >= 1"),
        (["ensemble", "positive-frequency", "--trials", "3", "--workers",
          "-3"], "workers must be >= 1"),
    ])
    def test_parameter_named(self, tmp_path, capsys, inputs, argv, message):
        assert main([a.format(**inputs) for a in argv]
                    + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("t_end", ["-5", "0"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--input", "{system}", "--state", "{state}", "--t-end"],
        ["average", "--input", "{env}", "--E0", "3", "--tau-end"],
        ["resonance", "--input", "{two}", "--tau-end"],
    ], ids=["simulate", "average", "resonance"])
    def test_run_goes_forward(self, tmp_path, capsys, inputs, argv, t_end):
        # a negative end ran backward and exited 0; a zero end raised a
        # traceback from inside solve_ivp
        assert main([a.format(**inputs) for a in argv]
                    + [t_end, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "after its start" in err
