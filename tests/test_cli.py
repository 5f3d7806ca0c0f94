"""Tests for the command-line front end: schema checks and artifact round trips."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eccsim.cli import InvalidScenario, _override, load_scenario, main

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

    @pytest.mark.parametrize("field", ["dt", "x0", "scheme", "ecp_power",
                                       "eps_convergence"])
    def test_missing_field(self, tmp_path, field):
        path = write_scenario(tmp_path, drop=(field,))
        with pytest.raises(InvalidScenario, match=f"{field}: missing field"):
            load_scenario(path)

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
        path = write_scenario(tmp_path,
                              sweep={"param": "K", "values": [1.0]})
        with pytest.raises(InvalidScenario, match="sweep: param must be one of"):
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


def test_cli_import_leaves_scipy_out():
    code = "import sys, eccsim.cli; print('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_bench_tracer_hooks_bind(tmp_path):
    # The benchmark's tracer wraps cli, solver, replicator and model names
    # by attribute from outside the package; a renamed hook crashes it.
    root = Path(__file__).resolve().parent.parent
    scenario = write_scenario(tmp_path, population_delay=0.5)
    code = f"""
import sys
sys.path.insert(0, {str(root / "bench")!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
from eccsim.cli import main
code = main(["simulate", {scenario!r}, "--out", {str(tmp_path / "run")!r}])
metrics = tracer.metrics(1.0)
print(code, metrics["solver.dde_steps"], metrics["replicator.field_evals"])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    # 500 steps of dt = 0.01 over the horizon 5, four field calls per step.
    assert out.stdout.splitlines()[-1].split() == ["0", "500", "2000"]
