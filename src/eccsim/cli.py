"""Command-line front end: scenario files in, CSV/JSON artifacts out.

Commands:
    simulate  run one scheme over the horizon, write trajectory + summary
    ess       print the closed-form rest point and stability numbers
    compare   run olsec and ssec across learning rates, tabulate
    sweep     re-solve across one parameter (R_c, p_c, tau_x)

Scenario files are strict JSON: every field of the system configuration by
its own name, plus x0, r0, dt, eps_convergence, scheme, and an optional
sweep block.  Unknown or missing fields are rejected with the field named,
exit code 2; a diverging integration exits 3.

Measurement conventions for summaries: equilibrium shares are read at the
final grid time; equilibrium price and requests are sampled at 70% of the
horizon, before the terminal adjoint boundary layer (the zero terminal
conditions pull the controls toward their myopic values over the last few
time units, an intrinsic feature of the finite-horizon open-loop game);
convergence time is measured on the first 80% of the horizon against the
rest point implied by the controls at the 70% sample.  All numbers are
recomputable from the emitted CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .model import AllocationState, SystemConfig
from .replicator import analytic_ess, delay_stability_bound, ess_jacobian_eigen
from .solver import (
    BlowUp,
    SweepReport,
    Trajectory,
    check_delay,
    convergence_time,
    grid_steps,
    solve_fixed,
    solve_open_loop,
    solve_ssec,
)

__all__ = ["InvalidScenario", "Scenario", "load_scenario", "main"]

SCHEMES = ("olsec", "ssec", "fixed-controls")
# Sweepable parameter name -> configuration field it overrides.
SWEEP_PARAMS = {
    "R_c": "cloud_power",
    "p_c": "cloud_access_price",
    "tau_x": "population_delay",
}
# Fraction of the horizon where equilibrium controls are sampled / where
# convergence measurement stops; see the module docstring.
SAMPLE_FRACTION = 0.7
CONVERGENCE_FRACTION = 0.8

_SCALAR_FIELDS = {
    "n_ecps": int,
    "n_users": int,
    "cloud_power": float,
    "cloud_access_price": float,
    "learning_rate": float,
    "mapping_factor": float,
    "discount_rate": float,
    "nominal_rate": float,
    "horizon": float,
}
_VECTOR_FIELDS = ("ecp_power", "ecp_access_price", "ecp_weights", "ccp_weights")


class InvalidScenario(RuntimeError):
    """A scenario file violates the schema; the message names the field."""


@dataclass(frozen=True)
class Scenario:
    """A loaded, validated scenario ready to run."""

    cfg: SystemConfig
    x0: np.ndarray
    r0: np.ndarray
    dt: float
    eps_convergence: float
    scheme: str
    sweep: tuple[str, tuple[float, ...]] | None = None


def _number(raw, name: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InvalidScenario(f"{name}: expected a number")
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise InvalidScenario(f"{name}: expected a finite number")
    return value


def _number_list(raw, name: str) -> list[float]:
    if not isinstance(raw, list) or not raw:
        raise InvalidScenario(f"{name}: expected a non-empty list of numbers")
    return [_number(v, name) for v in raw]


def _derive(scn: Scenario, cfg_changes: dict | None = None,
            **changes) -> Scenario:
    """`scn` with configuration and scenario fields replaced, re-validated.

    Every scenario a command runs passes through here: the configuration
    checks, the rule that only fixed-controls models a population delay,
    and the solvers' grid rules (`grid_steps`, `check_delay`) for the
    horizon, dt and delay.
    """
    try:
        if cfg_changes:
            changes["cfg"] = dataclasses.replace(scn.cfg, **cfg_changes)
        scn = dataclasses.replace(scn, **changes)
        if scn.cfg.population_delay > 0.0 and scn.scheme != "fixed-controls":
            raise InvalidScenario(
                "population_delay: only the fixed-controls scheme models delay")
        grid_steps((0.0, scn.cfg.horizon), scn.dt)
        check_delay(scn.cfg.population_delay, scn.dt, "population_delay")
    except ValueError as exc:
        raise InvalidScenario(str(exc)) from exc
    return scn


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file.

    Raises:
        InvalidScenario: unreadable file, unknown/missing fields, or any
            value outside its domain; the message names the offender.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidScenario(f"scenario: cannot read {path} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"scenario: {path} is not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise InvalidScenario("scenario: top level must be an object")

    known = (set(_SCALAR_FIELDS) | set(_VECTOR_FIELDS)
             | {"population_delay", "x0", "r0", "dt", "eps_convergence",
                "scheme", "sweep"})
    for key in raw:
        if key not in known:
            raise InvalidScenario(f"{key}: unknown field")
    required = (set(_SCALAR_FIELDS) | set(_VECTOR_FIELDS)
                | {"x0", "r0", "dt", "eps_convergence", "scheme"})
    for key in sorted(required):
        if key not in raw:
            raise InvalidScenario(f"{key}: missing field")

    kwargs = {}
    for name, cast in _SCALAR_FIELDS.items():
        value = _number(raw[name], name)
        if cast is int:
            if value != int(value):
                raise InvalidScenario(f"{name}: expected an integer")
            value = int(value)
        kwargs[name] = value
    for name in _VECTOR_FIELDS:
        kwargs[name] = _number_list(raw[name], name)
    kwargs["population_delay"] = _number(raw.get("population_delay", 0.0),
                                         "population_delay")
    try:
        cfg = SystemConfig(**kwargs)
    except ValueError as exc:
        raise InvalidScenario(str(exc)) from exc

    n = cfg.n_ecps
    x0 = np.asarray(_number_list(raw["x0"], "x0"), dtype=float)
    if x0.shape[0] != n + 1:
        raise InvalidScenario(f"x0: expected {n + 1} entries")
    if np.any(x0 <= 0.0):
        raise InvalidScenario("x0: shares must be strictly positive")
    if abs(float(x0.sum()) - 1.0) > 1e-9:
        raise InvalidScenario("x0: shares must sum to 1")
    x0 = x0 / x0.sum()

    r0 = np.asarray(_number_list(raw["r0"], "r0"), dtype=float)
    if r0.shape[0] != n:
        raise InvalidScenario(f"r0: expected {n} entries")
    try:
        AllocationState(r0)
    except ValueError as exc:
        raise InvalidScenario(f"r0: {exc}") from exc

    dt = _number(raw["dt"], "dt")
    eps = _number(raw["eps_convergence"], "eps_convergence")
    if not eps > 0.0:
        raise InvalidScenario("eps_convergence: must be positive")
    scheme = raw["scheme"]
    if scheme not in SCHEMES:
        raise InvalidScenario(
            f"scheme: expected one of {', '.join(SCHEMES)}")

    sweep = None
    if "sweep" in raw:
        block = raw["sweep"]
        if not isinstance(block, dict) or set(block) != {"param", "values"}:
            raise InvalidScenario("sweep: expected an object with param and values")
        param = block["param"]
        if param not in SWEEP_PARAMS:
            raise InvalidScenario(
                f"sweep: param must be one of {', '.join(SWEEP_PARAMS)}")
        values = tuple(_number_list(block["values"], "sweep"))
        sweep = (param, values)

    return _derive(Scenario(cfg=cfg, x0=x0, r0=r0, dt=dt,
                            eps_convergence=eps, scheme=scheme, sweep=sweep))


def _override(scn: Scenario, args: argparse.Namespace) -> Scenario:
    """Apply the --dt/--horizon/--scheme overrides a command takes."""
    cfg_changes, changes = {}, {}
    if getattr(args, "horizon", None) is not None:
        cfg_changes["horizon"] = args.horizon
    for name in ("dt", "scheme"):
        if getattr(args, name, None) is not None:
            changes[name] = getattr(args, name)
    return _derive(scn, cfg_changes, **changes)


def _run_scheme(scn: Scenario) -> tuple[Trajectory, SweepReport | None]:
    cfg = scn.cfg
    span = (0.0, cfg.horizon)
    if scn.scheme == "olsec":
        return solve_open_loop(cfg, scn.x0, dt=scn.dt, t_span=span)
    if scn.scheme == "ssec":
        return solve_ssec(cfg, scn.x0, span, scn.dt), None
    return solve_fixed(cfg, scn.x0, scn.r0, span, scn.dt), None


def _summary(scn: Scenario, traj: Trajectory,
             report: SweepReport | None) -> dict:
    cfg = scn.cfg
    t_end = float(traj.times[-1])
    i_eq = traj.index_at(SAMPLE_FRACTION * t_end)
    requests_eq = traj.requests[i_eq]
    target = analytic_ess(cfg, AllocationState(requests_eq)).shares
    t_conv = convergence_time(traj.upto(CONVERGENCE_FRACTION * t_end),
                              target, scn.eps_convergence)
    n = cfg.n_ecps
    out = {
        "scheme": scn.scheme,
        "equilibrium_shares": [float(v) for v in traj.shares[-1]],
        "equilibrium_price": float(traj.prices[i_eq]),
        "equilibrium_requests": [float(v) for v in requests_eq],
        "equilibrium_cloud_remainder": float(1.0 - requests_eq.sum()),
        "convergence_time": None if t_conv is None else float(t_conv),
        "integral_utilities": {
            **{f"ecp_{k + 1}": float(traj.integral_utilities[-1][k])
               for k in range(n)},
            "ccp": float(traj.integral_utilities[-1][n]),
        },
        "converged": True if report is None else bool(report.converged),
    }
    if report is not None:
        out["sweep_report"] = {
            "iterations": int(report.iterations),
            "state_residual": float(report.state_residual),
            "costate_terminal_residual": float(report.costate_terminal_residual),
            "converged": bool(report.converged),
        }
    return out


def _csv_header(n: int) -> str:
    cols = (["t"] + [f"x_{k}" for k in range(1, n + 1)] + ["x_c"]
            + [f"r_{k}" for k in range(1, n + 1)] + ["r_c", "p"]
            + [f"u_{k}" for k in range(1, n + 1)] + ["u_c"]
            + [f"U_{k}" for k in range(1, n + 1)] + ["U_c"])
    return ",".join(cols)


def _write_trajectory_csv(path: str, cfg: SystemConfig, traj: Trajectory) -> None:
    n = cfg.n_ecps
    remainder = 1.0 - traj.requests.sum(axis=1)
    data = np.column_stack([
        traj.times, traj.shares, traj.requests, remainder, traj.prices,
        traj.utilities, traj.integral_utilities,
    ])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=_csv_header(n), comments="")


def _dump_json(obj: dict, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def _ensure_out(args: argparse.Namespace) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    scn = _override(load_scenario(args.scenario), args)
    out = _ensure_out(args)
    traj, report = _run_scheme(scn)
    _write_trajectory_csv(os.path.join(out, "trajectory.csv"), scn.cfg, traj)
    summary = _summary(scn, traj, report)
    print(_dump_json(summary, os.path.join(out, "summary.json")))
    return 0


def cmd_ess(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    cfg = scn.cfg
    alloc = AllocationState(scn.r0)
    result = analytic_ess(cfg, alloc)
    eig = ess_jacobian_eigen(cfg, alloc)
    payload = {
        "ess_shares": [float(v) for v in result.shares.shares],
        "common_utility": float(result.common_utility),
        "theta": float(-eig[0]),
        "eigenvalues": [float(v) for v in eig],
        "delay_bound": float(delay_stability_bound(cfg, alloc)),
    }
    print(_dump_json(payload, None))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    scn = _override(load_scenario(args.scenario), args)
    try:
        deltas = [float(v) for v in args.deltas.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidScenario(f"deltas: {exc}") from exc
    if not deltas or any(not d > 0.0 for d in deltas):
        raise InvalidScenario("deltas: expected a non-empty list of positive numbers")
    runs = [_derive(scn, {"learning_rate": delta}, scheme=scheme)
            for delta in deltas for scheme in ("olsec", "ssec")]
    out = _ensure_out(args)
    n = scn.cfg.n_ecps
    rows = []
    for sub in runs:
        traj, report = _run_scheme(sub)
        summary = _summary(sub, traj, report)
        rows.append({
            "delta": sub.cfg.learning_rate,
            "scheme": sub.scheme,
            "convergence_time": summary["convergence_time"],
            "integral_utilities": summary["integral_utilities"],
            "converged": summary["converged"],
        })
    header = (["delta", "scheme", "convergence_time"]
              + [f"U_{k}" for k in range(1, n + 1)] + ["U_c"])
    lines = [",".join(header)]
    for row in rows:
        cells = [format(row["delta"], ".17g"), row["scheme"]]
        t_conv = row["convergence_time"]
        cells.append("nan" if t_conv is None else format(t_conv, ".17g"))
        for k in range(1, n + 1):
            cells.append(format(row["integral_utilities"][f"ecp_{k}"], ".17g"))
        cells.append(format(row["integral_utilities"]["ccp"], ".17g"))
        lines.append(",".join(cells))
    with open(os.path.join(out, "compare.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(_dump_json({"deltas": deltas, "rows": rows},
                     os.path.join(out, "compare_summary.json")))
    return 0


def _delay_verdict(cfg: SystemConfig, traj: Trajectory, r0: np.ndarray,
                   eps: float) -> str:
    target = analytic_ess(cfg, AllocationState(r0)).shares.shares
    final_err = float(np.max(np.abs(traj.shares[-1] - target)))
    if final_err < eps:
        return "converged"
    tail = traj.shares[traj.index_at(0.8 * float(traj.times[-1])):]
    amplitude = 0.5 * (tail.max(axis=0) - tail.min(axis=0))
    live = target > 0.0
    if float(np.max(amplitude[live] / target[live])) > 0.1:
        return "oscillating"
    return "indeterminate"


def cmd_sweep(args: argparse.Namespace) -> int:
    scn = _override(load_scenario(args.scenario), args)
    if (args.param is None) != (args.values is None):
        raise InvalidScenario("values: --param and --values go together")
    if args.param is not None:
        param = args.param
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise InvalidScenario(f"values: {exc}") from exc
    elif scn.sweep is not None:
        param, values = scn.sweep
    else:
        raise InvalidScenario("sweep: no sweep block in scenario and no --param given")
    if not values:
        raise InvalidScenario("sweep: expected a non-empty value list")
    if param == "tau_x" and scn.scheme != "fixed-controls":
        raise InvalidScenario(
            "sweep: tau_x sweeps require the fixed-controls scheme")
    runs = [_derive(scn, {SWEEP_PARAMS[param]: value}) for value in values]
    out = _ensure_out(args)
    n = scn.cfg.n_ecps
    rows = []
    for value, sub in zip(values, runs):
        traj, report = _run_scheme(sub)
        i_eq = traj.index_at(SAMPLE_FRACTION * float(traj.times[-1]))
        if param == "tau_x":
            verdict = _delay_verdict(sub.cfg, traj, sub.r0,
                                     sub.eps_convergence)
        else:
            verdict = ("converged" if report is None or report.converged
                       else "no-convergence")
        rows.append([value] + [float(v) for v in traj.shares[-1]]
                    + [float(traj.prices[i_eq]),
                       float(1.0 - traj.requests[i_eq].sum())]
                    + [verdict])
    header = (["value"] + [f"x_{k}" for k in range(1, n + 1)] + ["x_c"]
              + ["p_star", "r_c", "verdict"])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format(cell, ".17g")
            for cell in row))
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eccsim",
        description="Edge/cloud market simulator: population dynamics plus "
                    "the providers' hierarchical differential game.")
    sub = parser.add_subparsers(dest="command", required=True)

    overrides = {
        "--dt": {"type": float, "help": "override the scenario step size"},
        "--horizon": {"type": float, "help": "override the scenario horizon"},
        "--scheme": {"choices": SCHEMES, "help": "override the scenario scheme"},
    }

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        p.add_argument("scenario", help="path to a scenario JSON file")
        for flag in flags:
            p.add_argument(flag, default=None, **overrides[flag])

    p_sim = sub.add_parser("simulate", help="run one scheme, write CSV + summary")
    common(p_sim, "--dt", "--horizon", "--scheme")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_ess = sub.add_parser("ess", help="print the closed-form rest point")
    common(p_ess)
    p_ess.set_defaults(func=cmd_ess)

    p_cmp = sub.add_parser("compare", help="olsec vs ssec across learning rates")
    common(p_cmp, "--dt", "--horizon")
    p_cmp.add_argument("--deltas", default="0.5,1,1.5,2",
                       help="comma-separated learning rates")
    p_cmp.add_argument("--out", default=None, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="re-solve across one parameter")
    common(p_swp, "--dt", "--horizon", "--scheme")
    p_swp.add_argument("--param", default=None, choices=sorted(SWEEP_PARAMS),
                       help="parameter to sweep (default: scenario sweep block)")
    p_swp.add_argument("--values", default=None,
                       help="comma-separated parameter values")
    p_swp.add_argument("--out", default=None, help="output directory")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUp as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
