"""Command-line front end: scenario files in, CSV/JSON artifacts out.

Commands:
    simulate  run one scheme over the horizon, write trajectory + summary
    ess       print the closed-form rest point and stability numbers
    compare   run olsec and ssec across learning rates, tabulate
    sweep     re-solve across one parameter (R_c, p_c, tau_x)

Scenario files are strict JSON: every field of SystemConfig and of
Scenario (x0, r0, dt, eps_convergence, scheme, an optional sweep block) by
its own name, read by its declared type; the two dataclasses check the
values whenever one is built.  main loads the file, applies the overrides
and hands the Scenario to the command.  Unknown or missing fields and
broken rules are rejected with the field named, exit code 2; a diverging
integration exits 3.

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

from .model import (AllocationState, SystemConfig, _as_float_vector,
                    _cloud_remainder, _running_total)
from .replicator import analytic_ess, delay_stability_bound, ess_jacobian_eigen
from .solver import (BlowUp, SweepReport, Trajectory, _check_undelayed,
                     check_delay, check_stability, convergence_time,
                     grid_steps, solve_fixed, solve_open_loop, solve_ssec)

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


class InvalidScenario(RuntimeError):
    """A scenario file violates the schema; the message names the field."""


@dataclass(frozen=True, eq=False)
class Scenario:
    """A scenario ready to run, checked whenever one is built (a
    `dataclasses.replace` too); a broken rule raises ValueError naming the
    field.  x0 (N+1 positive shares summing to 1 within 1e-9) and r0 (a
    feasible allocation) are coerced to float arrays; then eps_convergence,
    scheme, the rule that only fixed-controls models a population delay,
    the solvers' grid rules for horizon, dt and delay, and RK4's bound."""

    cfg: SystemConfig
    x0: np.ndarray
    r0: np.ndarray
    dt: float
    eps_convergence: float
    scheme: str
    sweep: tuple[str, tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        cfg, n = self.cfg, self.cfg.n_ecps
        x0 = _as_float_vector(self.x0, "x0")
        if x0.shape[0] != n + 1:
            raise ValueError(f"x0: expected {n + 1} entries")
        if not np.all(x0 > 0.0):
            raise ValueError("x0: shares must be strictly positive")
        if abs(_running_total(x0) - 1.0) > 1e-9:
            raise ValueError("x0: shares must sum to 1")
        r0 = _as_float_vector(self.r0, "r0")
        if r0.shape[0] != n:
            raise ValueError(f"r0: expected {n} entries")
        try:
            AllocationState(r0)
        except ValueError as exc:
            raise ValueError(f"r0: {exc}") from None
        if not self.eps_convergence > 0.0:
            raise ValueError("eps_convergence: must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: expected one of {', '.join(SCHEMES)}")
        if self.scheme != "fixed-controls":
            _check_undelayed(cfg)
        grid_steps((0.0, cfg.horizon), self.dt)
        check_delay(cfg.population_delay, self.dt, "population_delay")
        check_stability(cfg, self.dt)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "r0", r0)


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


def _integer(raw, name: str) -> int:
    value = _number(raw, name)
    if value != int(value):
        raise InvalidScenario(f"{name}: expected an integer")
    return int(value)


def _number_list(raw, name: str) -> list[float]:
    if not isinstance(raw, list) or not raw:
        raise InvalidScenario(f"{name}: expected a non-empty list of numbers")
    return [_number(v, name) for v in raw]


def _sweep_block(block, name: str) -> tuple[str, tuple[float, ...]]:
    if not isinstance(block, dict) or set(block) != {"param", "values"}:
        raise InvalidScenario(f"{name}: expected an object with param and values")
    param = block["param"]
    if not isinstance(param, str) or param not in SWEEP_PARAMS:
        raise InvalidScenario(
            f"{name}: param must be one of {', '.join(SWEEP_PARAMS)}")
    return param, tuple(_number_list(block["values"], name))


# Reader of a scenario file's value by its field's annotation (a string:
# annotations are postponed); SystemConfig and Scenario check the value.
_READERS = {
    "int": _integer,
    "float": _number,
    "np.ndarray": _number_list,
    "tuple[float, float, float]": _number_list,
    "str": lambda raw, name: raw,
    "tuple[str, tuple[float, ...]] | None": _sweep_block,
}
# Scenario-file field (SystemConfig's, then Scenario's) -> has no default.
_FIELDS = {f.name: f.default is dataclasses.MISSING
           for cls in (SystemConfig, Scenario) for f in dataclasses.fields(cls)
           if f.name != "cfg"}


def _read(raw: dict, cls) -> dict:
    """The fields of dataclass `cls` that `raw` holds, each read by kind."""
    return {f.name: _READERS[f.type](raw[f.name], f.name)
            for f in dataclasses.fields(cls) if f.name in raw}


def _derive(scn: Scenario, cfg_changes: dict | None = None,
            **changes) -> Scenario:
    """`scn` with configuration and scenario fields replaced, re-validated
    by SystemConfig and Scenario; every scenario a command runs is one."""
    try:
        if cfg_changes:
            changes["cfg"] = dataclasses.replace(scn.cfg, **cfg_changes)
        return dataclasses.replace(scn, **changes)
    except ValueError as exc:
        raise InvalidScenario(str(exc)) from exc


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file; x0 is renormalised to sum to 1.

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

    for key in raw:
        if key not in _FIELDS:
            raise InvalidScenario(f"{key}: unknown field")
    for key in sorted(_FIELDS):
        if _FIELDS[key] and key not in raw:
            raise InvalidScenario(f"{key}: missing field")
    try:
        scn = Scenario(cfg=SystemConfig(**_read(raw, SystemConfig)),
                       **_read(raw, Scenario))
        return dataclasses.replace(scn, x0=scn.x0 / _running_total(scn.x0))
    except ValueError as exc:
        raise InvalidScenario(str(exc)) from exc


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
    if scn.scheme == "olsec":
        return solve_open_loop(scn.cfg, scn.x0, dt=scn.dt)
    if scn.scheme == "ssec":
        return solve_ssec(scn.cfg, scn.x0, scn.dt), None
    return solve_fixed(scn.cfg, scn.x0, scn.r0, scn.dt), None


def _summary(scn: Scenario, traj: Trajectory,
             report: SweepReport | None) -> dict:
    cfg = scn.cfg
    t_end = float(traj.times[-1])
    i_eq = traj.index_at(SAMPLE_FRACTION * t_end)
    alloc_eq = AllocationState(traj.requests[i_eq])
    target = analytic_ess(cfg, alloc_eq).shares.shares
    t_conv = convergence_time(traj.upto(CONVERGENCE_FRACTION * t_end),
                              target, scn.eps_convergence)
    n = cfg.n_ecps
    out = {
        "scheme": scn.scheme,
        "equilibrium_shares": [float(v) for v in traj.shares[-1]],
        "equilibrium_price": float(traj.prices[i_eq]),
        "equilibrium_requests": alloc_eq.requests.tolist(),
        "equilibrium_cloud_remainder": alloc_eq.cloud_remainder,
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


def _cols(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{k}" for k in range(1, n + 1)] + [f"{prefix}_c"]


def _csv(header: list[str], rows):
    """CSV lines, streamed: string cells as they are, numbers as %.17g."""
    yield ",".join(header)
    for row in rows:
        yield ",".join(["%s" if isinstance(c, str) else "%.17g"
                        for c in row]) % tuple(row)


def _write(out: str, name: str, lines) -> None:
    """Write `lines`, each ended by a newline, to the artifact out/name."""
    path = os.path.join(out, name)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise InvalidScenario(f"out: {exc.strerror}: {path}") from None


def _floats(text: str, name: str) -> list[float]:
    """The numbers of a comma-separated option; empty items are skipped."""
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidScenario(f"{name}: {exc}") from exc


def _ensure_out(args: argparse.Namespace) -> str:
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise InvalidScenario(f"out: {exc.strerror}: {out}") from None
    return out


def cmd_simulate(scn: Scenario, args: argparse.Namespace) -> None:
    out = _ensure_out(args)
    traj, report = _run_scheme(scn)
    n = scn.cfg.n_ecps
    table = np.column_stack([
        traj.times, traj.shares, traj.requests,
        _cloud_remainder(traj.requests), traj.prices,
        traj.utilities, traj.integral_utilities,
    ])
    # Row by row as Python floats, which format faster than numpy scalars.
    _write(out, "trajectory.csv", _csv(
        ["t"] + _cols("x", n) + _cols("r", n) + ["p"] + _cols("u", n)
        + _cols("U", n), (row.tolist() for row in table)))
    text = json.dumps(_summary(scn, traj, report), indent=2, sort_keys=True)
    _write(out, "summary.json", [text])
    print(text)


def cmd_ess(scn: Scenario, args: argparse.Namespace) -> None:
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
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_compare(scn: Scenario, args: argparse.Namespace) -> None:
    """olsec and ssec rows per learning rate: one sweep per rate.

    The ssec row is the sweep's first forward pass (SweepReport.first_pass),
    the run solve_ssec would repeat bit for bit.  Each row is summarised as
    it is produced, so no more than one rate's trajectories are held.
    """
    deltas = _floats(args.deltas, "deltas")
    if not deltas or any(not d > 0.0 for d in deltas):
        raise InvalidScenario("deltas: expected a non-empty list of positive numbers")
    runs = [_derive(scn, {"learning_rate": delta}, scheme="olsec")
            for delta in deltas]
    out = _ensure_out(args)
    rows = []

    def row(sub, scheme, traj, report):
        summary = _summary(sub, traj, report)
        return {
            "delta": sub.cfg.learning_rate,
            "scheme": scheme,
            "convergence_time": summary["convergence_time"],
            "integral_utilities": summary["integral_utilities"],
            "converged": summary["converged"],
        }

    for sub in runs:
        traj, report = _run_scheme(sub)
        rows.append(row(sub, "olsec", traj, report))
        rows.append(row(sub, "ssec", report.first_pass, None))
    _write(out, "compare.csv", _csv(
        ["delta", "scheme", "convergence_time"] + _cols("U", scn.cfg.n_ecps),
        ([row["delta"], row["scheme"],
          math.nan if row["convergence_time"] is None
          else row["convergence_time"], *row["integral_utilities"].values()]
         for row in rows)))
    text = json.dumps({"deltas": deltas, "rows": rows}, indent=2,
                      sort_keys=True)
    _write(out, "compare_summary.json", [text])
    print(text)


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


def cmd_sweep(scn: Scenario, args: argparse.Namespace) -> None:
    if (args.param is None) != (args.values is None):
        raise InvalidScenario("values: --param and --values go together")
    if args.param is not None:
        param, values = args.param, _floats(args.values, "values")
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
        rows.append([value, *traj.shares[-1], traj.prices[i_eq],
                     _cloud_remainder(traj.requests[i_eq]), verdict])
    _write(out, "sweep.csv", _csv(
        ["value"] + _cols("x", scn.cfg.n_ecps) + ["p_star", "r_c", "verdict"],
        rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eccsim",
        description="Edge/cloud market simulator: population dynamics plus "
                    "the providers' hierarchical differential game.")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--dt": {"type": float, "help": "override the scenario step size"},
        "--horizon": {"type": float, "help": "override the scenario horizon"},
        "--scheme": {"choices": SCHEMES, "help": "override the scenario scheme"},
        "--out": {"help": "output directory"},
    }

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        p.add_argument("scenario", help="path to a scenario JSON file")
        for flag in flags:
            p.add_argument(flag, default=None, **options[flag])

    p_sim = sub.add_parser("simulate", help="run one scheme, write CSV + summary")
    common(p_sim, "--dt", "--horizon", "--scheme", "--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_ess = sub.add_parser("ess", help="print the closed-form rest point")
    common(p_ess)
    p_ess.set_defaults(func=cmd_ess)

    p_cmp = sub.add_parser("compare", help="olsec vs ssec across learning rates")
    common(p_cmp, "--dt", "--horizon", "--out")
    p_cmp.add_argument("--deltas", default="0.5,1,1.5,2",
                       help="comma-separated learning rates")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="re-solve across one parameter")
    common(p_swp, "--dt", "--horizon", "--scheme", "--out")
    p_swp.add_argument("--param", default=None, choices=sorted(SWEEP_PARAMS),
                       help="parameter to sweep (default: scenario sweep block)")
    p_swp.add_argument("--values", default=None,
                       help="comma-separated parameter values")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(_override(load_scenario(args.scenario), args), args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except (InvalidScenario, BlowUp) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BlowUp) else 2
    except BrokenPipeError:  # the reader left; every artifact is written
        # fd 1 to devnull, so the flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
