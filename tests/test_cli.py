"""Tests for the command-line front end: schema checks and artifact round trips."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import uptake_reference

import eccsim.solver
from eccsim import AllocationState
from eccsim.cli import (SCHEMES, InvalidScenario, _csv, _derive, _override,
                        _summary, load_scenario, main)
from eccsim.solver import RK4_REAL_BOUND, solve_open_loop, solve_ssec

BASE = {
    "n_ecps": 2,
    "n_users": 100,
    "ecp_power": [2.0, 1.0],
    "ecp_access_price": [0.3, 0.2],
    "cloud_power": 2.0,
    "cloud_access_price": 0.2,
    "learning_rate": 1.0,
    "mapping_factor": 1.0,
    "discount_rate": 0.1,
    "ecp_weights": [1.0, 1.0, 1.0],
    "ccp_weights": [1.0, 1.0, 1.0],
    "nominal_rate": 0.05,
    "horizon": 5.0,
    "x0": [0.3, 0.3, 0.4],
    "r0": [0.0, 0.0],
    "dt": 0.01,
    "eps_convergence": 0.001,
    "scheme": "fixed-controls",
}

HEADER = "t,x_1,x_2,x_c,r_1,r_2,r_c,p,u_1,u_2,u_c,U_1,U_2,U_c"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, name="scn.json", drop=(), **overrides):
    doc = {k: v for k, v in BASE.items() if k not in drop}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestLoadScenario:
    def test_valid_round_trip(self, tmp_path):
        scn = load_scenario(write_scenario(tmp_path))
        assert scn.cfg.n_ecps == 2
        assert scn.cfg.cloud_power == 2.0
        assert scn.scheme == "fixed-controls"
        assert scn.sweep is None
        assert scn.x0.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unknown_field(self, tmp_path):
        path = write_scenario(tmp_path, bogus=1.0)
        with pytest.raises(InvalidScenario, match="bogus: unknown field"):
            load_scenario(path)

    # Every field of SystemConfig and Scenario but population_delay and
    # sweep, which have defaults.
    @pytest.mark.parametrize("field", sorted(BASE))
    def test_missing_field(self, tmp_path, field):
        path = write_scenario(tmp_path, drop=(field,))
        with pytest.raises(InvalidScenario, match=f"{field}: missing field"):
            load_scenario(path)

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_shipped_scenarios_load(self, path):
        assert load_scenario(str(path)).x0.sum() == pytest.approx(1.0)

    def test_replace_is_checked(self):
        # The rules live in Scenario itself, not only in the loader.
        scn = load_scenario(str(SCENARIOS / "scenario_a.json"))
        with pytest.raises(ValueError, match="^dt: span must be an integer"):
            dataclasses.replace(scn, dt=0.3)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(InvalidScenario, match="not valid JSON"):
            load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidScenario, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_non_integer_count(self, tmp_path):
        path = write_scenario(tmp_path, n_users=99.5)
        with pytest.raises(InvalidScenario, match="n_users: expected an integer"):
            load_scenario(path)

    def test_boolean_is_not_a_number(self, tmp_path):
        path = write_scenario(tmp_path, dt=True)
        with pytest.raises(InvalidScenario, match="dt: expected a number"):
            load_scenario(path)

    @pytest.mark.parametrize("power", [[], 2.0], ids=["empty", "number"])
    def test_ecp_power_must_be_a_list(self, tmp_path, power):
        path = write_scenario(tmp_path, ecp_power=power)
        with pytest.raises(InvalidScenario, match="^ecp_power: expected a"
                           " non-empty list of numbers$"):
            load_scenario(path)

    def test_top_level_array(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([BASE]), encoding="utf-8")
        with pytest.raises(InvalidScenario,
                           match="^scenario: top level must be an object$"):
            load_scenario(str(path))

    def test_config_error_names_field(self, tmp_path):
        path = write_scenario(tmp_path, ecp_power=[2.0, 1.0, 1.0])
        with pytest.raises(InvalidScenario, match="^ecp_power"):
            load_scenario(path)

    def test_x0_length(self, tmp_path):
        path = write_scenario(tmp_path, x0=[0.5, 0.5])
        with pytest.raises(InvalidScenario, match="x0: expected 3 entries"):
            load_scenario(path)

    def test_x0_positivity(self, tmp_path):
        path = write_scenario(tmp_path, x0=[0.5, 0.5, 0.0])
        with pytest.raises(InvalidScenario, match="strictly positive"):
            load_scenario(path)

    def test_x0_sum(self, tmp_path):
        path = write_scenario(tmp_path, x0=[0.5, 0.3, 0.1])
        with pytest.raises(InvalidScenario, match="x0: shares must sum to 1"):
            load_scenario(path)

    def test_x0_tiny_imbalance_normalized(self, tmp_path):
        path = write_scenario(tmp_path, x0=[0.3 + 5e-10, 0.3, 0.4])
        scn = load_scenario(path)
        assert abs(scn.x0.sum() - 1.0) < 1e-15

    def test_r0_length(self, tmp_path):
        path = write_scenario(tmp_path, r0=[0.1])
        with pytest.raises(InvalidScenario, match="r0: expected 2 entries"):
            load_scenario(path)

    def test_r0_domain(self, tmp_path):
        path = write_scenario(tmp_path, r0=[0.7, 0.7])
        with pytest.raises(InvalidScenario, match="^r0"):
            load_scenario(path)

    def test_bad_dt(self, tmp_path):
        path = write_scenario(tmp_path, dt=0.0)
        with pytest.raises(InvalidScenario, match="dt: must be positive"):
            load_scenario(path)

    def test_dt_must_divide_horizon(self, tmp_path):
        path = write_scenario(tmp_path, dt=0.03)
        with pytest.raises(InvalidScenario, match="^dt: .*integer number"):
            load_scenario(path)

    def test_delay_shorter_than_dt(self, tmp_path):
        path = write_scenario(tmp_path, population_delay=0.005)
        with pytest.raises(InvalidScenario, match="^population_delay: "):
            load_scenario(path)

    @pytest.mark.parametrize("field,value", [
        ("n_ecps", float("inf")),
        ("n_ecps", float("nan")),
        ("ecp_power", [2.0, float("inf")]),
        ("ecp_power", [2.0, float("nan")]),
        ("horizon", 10 ** 400),
    ])
    def test_non_finite_number(self, tmp_path, field, value):
        # json writes Infinity/NaN literals, which json.load accepts.
        path = write_scenario(tmp_path, **{field: value})
        with pytest.raises(InvalidScenario, match=f"^{field}: expected a finite"):
            load_scenario(path)

    def test_grid_size_cap(self, tmp_path):
        # 5e8 steps; rejected before anything is allocated.
        path = write_scenario(tmp_path, dt=1e-8)
        with pytest.raises(InvalidScenario, match="^dt: grid would exceed"):
            load_scenario(path)

    def test_grid_size_cap_on_override(self):
        scn = load_scenario(str(SCENARIOS / "scenario_a_fixed.json"))
        args = argparse.Namespace(dt=1e-7, horizon=None, scheme=None)
        with pytest.raises(InvalidScenario, match="^dt: grid would exceed"):
            _override(scn, args)

    def test_bad_eps(self, tmp_path):
        path = write_scenario(tmp_path, eps_convergence=-1.0)
        with pytest.raises(InvalidScenario, match="eps_convergence"):
            load_scenario(path)

    def test_bad_scheme(self, tmp_path):
        path = write_scenario(tmp_path, scheme="closed-loop")
        with pytest.raises(InvalidScenario, match="scheme: expected one of"):
            load_scenario(path)

    def test_delay_requires_fixed_controls(self, tmp_path):
        path = write_scenario(tmp_path, population_delay=0.5, scheme="olsec")
        with pytest.raises(InvalidScenario, match="population_delay"):
            load_scenario(path)

    def test_delay_with_fixed_controls_accepted(self, tmp_path):
        path = write_scenario(tmp_path, population_delay=0.5)
        assert load_scenario(path).cfg.population_delay == 0.5

    def test_sweep_block_shape(self, tmp_path):
        path = write_scenario(tmp_path, sweep={"param": "R_c"})
        with pytest.raises(InvalidScenario, match="sweep: expected an object"):
            load_scenario(path)

    def test_sweep_bad_param(self, tmp_path):
        for param in ("K", ["R_c"], {}):
            path = write_scenario(tmp_path,
                                  sweep={"param": param, "values": [1.0]})
            with pytest.raises(InvalidScenario,
                               match="sweep: param must be one of"):
                load_scenario(path)

    def test_sweep_valid(self, tmp_path):
        path = write_scenario(tmp_path,
                              sweep={"param": "R_c", "values": [5, 6]})
        assert load_scenario(path).sweep == ("R_c", (5.0, 6.0))


class TestSimulate:
    def test_fixed_round_trip(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", scenario, "--out", str(out)]) == 0

        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 502
        first = np.array([float(v) for v in lines[1].split(",")])
        np.testing.assert_allclose(first[:4], [0.0, 0.3, 0.3, 0.4],
                                   atol=1e-15)
        np.testing.assert_allclose(first[8:11], [8.75, 5.75, 8.0], rtol=1e-14)
        assert not first[11:].any()

        summary = json.loads((out / "summary.json").read_text())
        assert summary == json.loads(capsys.readouterr().out)
        assert summary["scheme"] == "fixed-controls"
        assert summary["converged"] is True
        assert "sweep_report" not in summary

        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[-1, 1:4],
                                      summary["equilibrium_shares"])
        i_eq = int(np.argmin(np.abs(data[:, 0] - 0.7 * data[-1, 0])))
        assert data[i_eq, 7] == summary["equilibrium_price"]
        np.testing.assert_array_equal(data[i_eq, 4:6],
                                      summary["equilibrium_requests"])

    def test_deterministic_bytes(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", scenario, "--out", str(out_a)]) == 0
        assert main(["simulate", scenario, "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == \
            (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == \
            (out_b / "summary.json").read_bytes()

    def test_olsec_summary_reports_sweep(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, scheme="olsec")
        out = tmp_path / "run"
        assert main(["simulate", scenario, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sweep_report"]["converged"] is True
        assert summary["converged"] is True
        assert set(summary["integral_utilities"]) == {"ecp_1", "ecp_2", "ccp"}

    def test_overrides_apply(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", scenario, "--out", str(out),
                     "--horizon", "2", "--dt", "0.1"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 22

    def test_override_cannot_break_delay_rule(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, population_delay=0.5)
        code = main(["simulate", scenario, "--scheme", "olsec",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "population_delay" in capsys.readouterr().err

    def test_indivisible_dt_override_exit_code(self, tmp_path, capsys):
        scenario = str(SCENARIOS / "scenario_a_fixed.json")
        code = main(["simulate", scenario, "--dt", "0.03",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: dt:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_non_finite_dt_override_exit_code(self, tmp_path, capsys, dt):
        scenario = str(SCENARIOS / "scenario_a_fixed.json")
        code = main(["simulate", scenario, "--dt", dt,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: dt: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_dt_past_rk4_stability_exit_code(self, tmp_path, capsys, scheme):
        # Every scheme steps rates up to rho + Theta, Theta largest at a
        # vertex of the requests (r = 0 or r = e_n).  Past RK4's real
        # stability bound a step amplifies: the fixed run used to raise
        # ZeroShare, ssec and olsec wrote a blown-up trajectory.  Just
        # inside the bound every scheme runs.
        path = str(SCENARIOS / "scenario_a_fixed.json")
        cfg = load_scenario(path).cfg
        vertices = np.vstack([np.zeros(cfg.n_ecps), np.eye(cfg.n_ecps)])
        limit = RK4_REAL_BOUND / (
            cfg.discount_rate + float(uptake_reference(cfg, vertices)[1].max()))
        assert limit == pytest.approx(8.795663884437754, rel=1e-12)
        for factor, want in ((1.0 + 1e-6, 2), (1.0 - 1e-6, 0)):
            dt = limit * factor
            code = main(["simulate", path, "--scheme", scheme,
                         "--dt", repr(dt), "--horizon", repr(10.0 * dt),
                         "--out", str(tmp_path / "x")])
            assert code == want
            err = capsys.readouterr().err
            if want:
                assert err.startswith("error: dt: above 8.79566, RK4's")
                assert not (tmp_path / "x").exists()
        with pytest.raises(InvalidScenario, match="^dt: above 1.6225, RK4's"):
            _override(load_scenario(str(SCENARIOS / "scenario_n6.json")),
                      argparse.Namespace(dt=2.5, horizon=30.0, scheme=None))

    def test_delay_shorter_than_dt_exit_code(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, population_delay=0.005)
        code = main(["simulate", scenario, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: population_delay:" in capsys.readouterr().err

    def test_infinite_horizon_override_exit_code(self, tmp_path, capsys):
        scenario = str(SCENARIOS / "scenario_a.json")
        code = main(["simulate", scenario, "--horizon", "inf",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: horizon:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_blowup_exit_code(self, tmp_path, capsys):
        # Twice the stability bound: oscillation grows until the delayed
        # state hits the simplex boundary and the utilities diverge.
        scenario = write_scenario(tmp_path, population_delay=14.49965840118366,
                                  horizon=50.0)
        out = tmp_path / "run"
        code = main(["simulate", scenario, "--out", str(out)])
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_invalid_scenario_exit_code(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, scheme="bogus")
        assert main(["simulate", scenario]) == 2
        assert "scheme" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("command", [
    ["simulate", "scn.json"],
    ["compare", "scn.json", "--deltas", "1"],
    ["sweep", "scn.json", "--param", "R_c", "--values", "2"],
])
def test_out_blocked_by_file_exit_code(tmp_path, capsys, command, under):
    # --out names an existing file, or a path below one.
    scenario = write_scenario(tmp_path, scheme="olsec", dt=0.1)
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / "run" if under else blocker
    argv = [scenario if arg == "scn.json" else arg for arg in command]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: out: ")
    assert blocker.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("command,artifact", [
    (["simulate", "scn.json"], "trajectory.csv"),
    (["simulate", "scn.json"], "summary.json"),
    (["compare", "scn.json", "--deltas", "1"], "compare.csv"),
    (["compare", "scn.json", "--deltas", "1"], "compare_summary.json"),
    (["sweep", "scn.json", "--param", "R_c", "--values", "2"], "sweep.csv"),
])
def test_artifact_blocked_by_directory_exit_code(tmp_path, capsys, command,
                                                 artifact):
    scenario = write_scenario(tmp_path, scheme="olsec", dt=0.1)
    out = tmp_path / "run"
    (out / artifact).mkdir(parents=True)
    argv = [scenario if arg == "scn.json" else arg for arg in command]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: out: ")


class TestEss:
    def test_prints_rest_point(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["ess", scenario]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["ess_shares"],
                                   [0.30769231, 0.23076923, 0.46153846],
                                   atol=1e-8)
        assert payload["theta"] == pytest.approx(0.21666666666666667)
        assert payload["common_utility"] == pytest.approx(0.21666666666666667)
        np.testing.assert_allclose(payload["eigenvalues"],
                                   [-0.21666666666666667] * 3)
        assert payload["delay_bound"] == pytest.approx(7.24982920059183)

    def test_honors_r0(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, r0=[0.25, 0.25])
        assert main(["ess", scenario]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["ess_shares"], [0.4, 0.36, 0.24],
                                   atol=1e-12)

    @pytest.mark.parametrize("flag", [["--dt", "1e-9"], ["--horizon", "2"],
                                      ["--scheme", "olsec"]])
    def test_rejects_run_flags(self, tmp_path, flag, capsys):
        # ess integrates nothing, so it takes no grid or scheme override.
        with pytest.raises(SystemExit) as exc:
            main(["ess", write_scenario(tmp_path)] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCompare:
    def test_two_learning_rates(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, scheme="olsec", dt=0.02)
        out = tmp_path / "cmp"
        assert main(["compare", scenario, "--deltas", "1,2",
                     "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "delta,scheme,convergence_time,U_1,U_2,U_c"
        assert len(lines) == 5
        schemes = [line.split(",")[1] for line in lines[1:]]
        assert schemes == ["olsec", "ssec", "olsec", "ssec"]
        payload = json.loads(capsys.readouterr().out)
        assert payload["deltas"] == [1.0, 2.0]
        assert len(payload["rows"]) == 4
        assert all(row["converged"] for row in payload["rows"])

    def test_unconverged_run_writes_nan(self, tmp_path, capsys):
        # At this horizon neither scheme locks onto its rest point.
        out = tmp_path / "cmp"
        assert main(["compare", str(SCENARIOS / "scenario_a.json"),
                     "--dt", "1.0", "--horizon", "5", "--deltas", "0.5",
                     "--out", str(out)]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["0.5", "olsec", "nan"], ["0.5", "ssec", "nan"]]
        for text in (capsys.readouterr().out,
                     (out / "compare_summary.json").read_text()):
            rows = json.loads(text)["rows"]
            assert [row["convergence_time"] for row in rows] == [None, None]

    def test_ssec_rows_are_the_sweeps_first_pass(self, tmp_path, capsys):
        # compare reads each ssec row from the first forward pass (g = 0)
        # of the olsec sweep at the same learning rate, in place of a
        # solve_ssec run.  That pass must be solve_ssec's trajectory bit
        # for bit, and the rows those of solve_ssec plus _summary.
        scenario = str(SCENARIOS / "scenario_a.json")
        out = tmp_path / "cmp"
        assert main(["compare", scenario, "--dt", "1.0",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads((out / "compare_summary.json").read_text())
        deltas = [0.5, 1.0, 1.5, 2.0]  # the default --deltas
        assert payload["deltas"] == deltas
        rows = [row for row in payload["rows"] if row["scheme"] == "ssec"]
        assert [row["delta"] for row in rows] == deltas
        scn = _override(load_scenario(scenario),
                        argparse.Namespace(dt=1.0, horizon=None))
        for delta, row in zip(deltas, rows):
            sub = _derive(scn, {"learning_rate": delta}, scheme="ssec")
            _, report = solve_open_loop(sub.cfg, sub.x0, dt=sub.dt)
            shared = report.first_pass
            alone = solve_ssec(sub.cfg, sub.x0, sub.dt)
            for name in ("times", "shares", "requests", "prices", "g",
                         "utilities", "integral_utilities"):
                got, want = (getattr(t, name) for t in (shared, alone))
                if want is None:
                    assert got is None, name
                else:
                    assert got.shape == want.shape, name
                    assert got.tobytes() == want.tobytes(), name
            summary = _summary(sub, alone, None)
            assert row == {
                "delta": delta,
                "scheme": "ssec",
                "convergence_time": summary["convergence_time"],
                "integral_utilities": summary["integral_utilities"],
                "converged": True,
            }

    def test_rejects_bad_deltas(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["compare", scenario, "--deltas", "nope"]) == 2
        assert main(["compare", scenario, "--deltas", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("delta", ["inf", "1e400"])
    def test_infinite_delta_exit_code(self, tmp_path, capsys, delta):
        scenario = str(SCENARIOS / "scenario_a.json")
        code = main(["compare", scenario, "--dt", "1.0", "--deltas", delta,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: learning_rate: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_delay_scenario_rejected(self, tmp_path, capsys):
        # olsec and ssec cannot model the scenario's 0.7 reaction delay.
        scenario = str(SCENARIOS / "scenario_delay.json")
        code = main(["compare", scenario, "--dt", "0.5",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: population_delay:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_rejects_scheme_flag(self, tmp_path, capsys):
        # compare always runs olsec and ssec.
        scenario = write_scenario(tmp_path, scheme="olsec")
        with pytest.raises(SystemExit) as exc:
            main(["compare", scenario, "--scheme", "fixed-controls"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweep:
    def test_scenario_block(self, tmp_path):
        scenario = write_scenario(tmp_path,
                                  sweep={"param": "R_c", "values": [2, 3]})
        out = tmp_path / "swp"
        assert main(["sweep", scenario, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,x_1,x_2,x_c,p_star,r_c,verdict"
        assert len(lines) == 3
        assert all(line.endswith("converged") for line in lines[1:])

    def test_explicit_param_overrides_block(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "swp"
        assert main(["sweep", scenario, "--param", "p_c",
                     "--values", "0.2,0.5", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == [0.2, 0.5]
        # Dearer cloud access drives users toward the edge providers.
        x_c = [float(line.split(",")[3]) for line in lines[1:]]
        assert x_c[1] < x_c[0]

    def test_delay_sweep_verdict(self, tmp_path):
        scenario = write_scenario(tmp_path, population_delay=0.7,
                                  horizon=30.0)
        out = tmp_path / "swp"
        assert main(["sweep", scenario, "--param", "tau_x",
                     "--values", "0.7", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].endswith("converged")

    def test_delay_sweep_computes_no_payoffs(self, tmp_path, monkeypatch):
        # sweep.csv reads no payoff column, so a delay sweep never derives
        # one: with the payoff formula broken it writes the same bytes.
        argv = ["sweep", str(SCENARIOS / "scenario_delay.json"), "--out"]
        assert main(argv + [str(tmp_path / "plain")]) == 0

        def broken(*args):
            raise AssertionError("payoffs computed")

        monkeypatch.setattr(eccsim.solver, "_payoffs", broken)
        assert main(argv + [str(tmp_path / "patched")]) == 0
        assert ((tmp_path / "patched" / "sweep.csv").read_bytes()
                == (tmp_path / "plain" / "sweep.csv").read_bytes())

    def test_delay_past_the_bound_oscillates(self, tmp_path):
        # tau = 9 is past delay_stability_bound = pi/(2*Theta) = 7.25 of
        # the shipped delay scenario, where the equilibrium loses stability.
        out = tmp_path / "swp"
        assert main(["sweep", str(SCENARIOS / "scenario_delay.json"),
                     "--param", "tau_x", "--values", "9",
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[-1] == "oscillating"

    @pytest.mark.filterwarnings("error")
    def test_delay_verdict_skips_zero_target(self, tmp_path):
        # r0 hands all cloud compute to the ECPs, so the cloud's target share
        # is 0; its decaying share must not read as an infinite oscillation.
        scenario = write_scenario(tmp_path, population_delay=0.7,
                                  horizon=3.0, r0=[0.5, 0.5])
        out = tmp_path / "swp"
        assert main(["sweep", scenario, "--param", "tau_x",
                     "--values", "0.7,1.7", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[-1] for line in lines[1:]] == [
            "indeterminate", "indeterminate"]

    def test_delay_past_float_range(self, tmp_path):
        # tau/dt overflows at tau = 1e307; a delay past the run reads x0
        # at every lag, so the row matches the one at tau = 2T.
        scenario = write_scenario(tmp_path, population_delay=0.7,
                                  horizon=3.0, r0=[0.1, 0.2])
        out = tmp_path / "swp"
        assert main(["sweep", scenario, "--param", "tau_x",
                     "--values", "1e307,6", "--out", str(out)]) == 0
        far, twice = [line.split(",")[1:]
                      for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert far == twice

    def test_tau_requires_fixed_controls(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, scheme="ssec")
        code = main(["sweep", scenario, "--param", "tau_x",
                     "--values", "0.7", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "fixed-controls" in capsys.readouterr().err

    def test_tau_value_shorter_than_dt(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["sweep", scenario, "--param", "tau_x",
                     "--values", "0.005", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "population_delay" in capsys.readouterr().err

    def test_requires_some_sweep(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["sweep", scenario]) == 2
        assert "no sweep block" in capsys.readouterr().err

    def test_values_without_param(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path,
                                  sweep={"param": "R_c", "values": [2, 3]})
        code = main(["sweep", scenario, "--values", "5,6",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: values: --param and --values" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_param_without_values(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["sweep", scenario, "--param", "R_c",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: values: --param and --values" in capsys.readouterr().err

    def test_non_numeric_value(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["sweep", scenario, "--param", "tau_x", "--values", "a",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: values: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_empty_values(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert main(["sweep", scenario, "--param", "R_c",
                     "--values", ""]) == 2
        capsys.readouterr()

    def test_value_violating_config(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = main(["sweep", scenario, "--param", "R_c", "--values", "0"])
        assert code == 2
        assert "cloud_power" in capsys.readouterr().err

    def test_infinite_value_exit_code(self, tmp_path, capsys):
        scenario = str(SCENARIOS / "scenario_a.json")
        code = main(["sweep", scenario, "--param", "R_c", "--values", "inf",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: cloud_power: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_cloud_remainder_matches_allocation_state(tmp_path):
    # numpy adds these 8 requests pairwise to 0.06999999999999995; the
    # model adds them left to right.  Every r_c the CLI writes is the
    # model's, bit for bit.
    r0 = [0.048, 0.234, 0.006, 0.021, 0.162, 0.121, 0.273, 0.065]
    want = AllocationState(r0).cloud_remainder
    assert want == 0.06999999999999984
    scenario = write_scenario(tmp_path, n_ecps=8, ecp_power=[1.0] * 8,
                              ecp_access_price=[0.3] * 8,
                              x0=[0.1] * 8 + [0.2], r0=r0)
    assert main(["simulate", scenario, "--out", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["equilibrium_cloud_remainder"] == want
    lines = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    col = lines[0].split(",").index("r_c")
    assert {float(line.split(",")[col]) for line in lines[1:]} == {want}
    assert main(["sweep", scenario, "--param", "R_c", "--values", "3",
                 "--out", str(tmp_path / "swp")]) == 0
    head, row = (tmp_path / "swp" / "sweep.csv").read_text().splitlines()
    assert float(row.split(",")[head.split(",").index("r_c")]) == want


def test_cli_import_leaves_scipy_out():
    code = "import sys, eccsim.cli; print('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["ess", "simulate"])
def test_closed_stdout_ends_quietly(tmp_path, command, unbuffered):
    # A reader that has gone (`eccsim ess ... | head -0`): unbuffered, the
    # command's print meets the closed pipe; buffered, the flush does.
    root = Path(__file__).resolve().parent.parent
    argv = ([command, str(SCENARIOS / "scenario_a.json")] if command == "ess"
            else [command, write_scenario(tmp_path),
                  "--out", str(tmp_path / "run")])
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "eccsim.cli", *argv],
                             stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (0, b"")
    if command == "simulate":
        assert (tmp_path / "run" / "summary.json").is_file()


def test_bench_tracer_hooks_bind(tmp_path):
    # The benchmark's tracer wraps cli, solver, replicator and model names
    # by attribute from outside the package; a renamed hook crashes it, and
    # so does a cli.solve_open_loop that returns anything but the pair
    # (trajectory, report) the tracer unpacks, on compare and sweep alike.
    # A fixed-controls run steps a precomputed RK4 map per step in
    # solver._method_of_steps when delayed, and is closed form when not; it
    # calls neither integrate_dde nor ReplicatorField.delayed_rate, and the
    # tracer must still run it.
    # compare makes one solve per learning rate: its ssec rows come from
    # the olsec sweeps.
    root = Path(__file__).resolve().parent.parent
    code = f"""
import sys
sys.path.insert(0, {str(root / "bench")!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
from eccsim.cli import main
code = main(sys.argv[1:])
metrics = tracer.metrics(1.0)
print(code, metrics["solver.solves"], metrics["solver.dde_steps"],
      metrics["replicator.field_evals"])
"""

    def traced(command, scenario, *flags):
        out = subprocess.run(
            [sys.executable, "-c", code, command, scenario, *flags,
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")})
        return [float(v) for v in out.stdout.splitlines()[-1].split()]

    assert traced("simulate", write_scenario(tmp_path)) == [0, 1, 0, 0]
    delayed = write_scenario(tmp_path, "delayed.json", population_delay=0.5)
    assert traced("simulate", delayed)[0] == 0
    scenario_a = str(SCENARIOS / "scenario_a.json")
    assert traced("compare", scenario_a, "--dt", "1.0")[:2] == [0, 4]
    assert traced("sweep", scenario_a, "--dt", "1.0")[:2] == [0, 3]


def test_csv_formats_array_rows_and_float_rows_alike():
    # `simulate` hands _csv its table row by row as Python floats; the
    # lines must be those of the numpy rows.
    rng = np.random.default_rng(5)
    table = np.vstack([rng.normal(size=(20, 7)) * 10.0 ** rng.integers(
        -300, 300, size=(20, 7)), [np.nan, np.inf, -np.inf, 0.0, -0.0,
                                   1e-320, 0.1]])
    header = [f"c{k}" for k in range(7)]
    want = list(_csv(header, table))
    assert list(_csv(header, (row.tolist() for row in table))) == want
    assert len(want) == 22
