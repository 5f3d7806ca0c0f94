"""Per-layer counters recorded from outside the program.

`Tracer.install()` replaces public functions of `eccsim.cli`, `solver`,
`replicator`, `model` and `stackelberg` with timing wrappers, wherever those
functions are bound.  Nothing under `src/` knows about it.  A call into a
layer from inside the same layer (e.g. `optimal_request` calling
`decompose_request`) is counted and timed once, as the outermost call.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import types
from collections import defaultdict

UNITS = {
    "solver.sweeps": "count",
    "solver.converged_frac": "frac",
    "solver.solves": "count",
    "solver.solve_s": "s",
    "solver.backward_calls": "count",
    "solver.backward_s": "s",
    "solver.backward_us_per_node": "us",
    "solver.forward_us_per_node": "us",
    "solver.adjoint_bytes": "bytes",
    "solver.dde_steps": "count",
    "solver.dde_us_per_step": "us",
    "replicator.field_evals": "count",
    "replicator.field_us_per_eval": "us",
    "model.provider_power_calls": "count",
    "model.provider_power_us": "us",
    "stackelberg.calls": "count",
    "stackelberg.s": "s",
    "cli.load_s": "s",
    "cli.self_s": "s",
}

# Trajectory fields that are not adjoints; every other array field is.
_NON_ADJOINT = {"times", "shares", "requests", "prices", "utilities",
                "integral_utilities"}


def _rebind(orig, new, modules) -> None:
    """Point every name bound to `orig` in `modules` at `new`."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)


def _adjoint_nbytes(traj) -> int:
    arrays = (getattr(traj, f.name) for f in dataclasses.fields(traj)
              if f.name not in _NON_ADJOINT)
    return sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))


def _nodes(out) -> int:
    first = out[0] if isinstance(out, tuple) else out
    return len(first)


class Tracer:
    """Counts and busy time per layer, for one child process."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.units = defaultdict(int)      # nodes or steps, per layer
        self._depth = defaultdict(int)
        self.sweeps = 0
        self.converged = 0
        self.forward_s = 0.0
        self.forward_nodes = 0
        self.adjoint_bytes = 0

    def span(self, layer: str, fn, units=None):
        """Wrap `fn` so that its outermost calls count toward `layer`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[layer]:
                return fn(*args, **kwargs)
            self._depth[layer] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[layer] += time.perf_counter() - start
                self.calls[layer] += 1
                self._depth[layer] -= 1
            if units is not None:
                self.units[layer] += units(out)
            return out
        return wrapper

    def _olsec(self, fn):
        timed = self.span("solver", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            back0 = self.seconds["backward"]
            start = time.perf_counter()
            traj, report = timed(*args, **kwargs)
            busy = time.perf_counter() - start
            self.sweeps += report.iterations
            self.converged += bool(report.converged)
            self.forward_s += busy - (self.seconds["backward"] - back0)
            self.forward_nodes += (report.iterations + 1) * traj.times.shape[0]
            self.adjoint_bytes = max(self.adjoint_bytes, _adjoint_nbytes(traj))
            return traj, report
        return wrapper

    def _no_report(self, fn):
        timed = self.span("solver", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            self.converged += 1
            return out
        return wrapper

    def install(self) -> None:
        import eccsim.cli as cli
        import eccsim.model as model
        import eccsim.replicator as replicator
        import eccsim.solver as solver
        import eccsim.stackelberg as stackelberg

        mods = [m for name, m in list(sys.modules.items())
                if name == "eccsim" or name.startswith("eccsim.")]
        cli.solve_open_loop = self._olsec(cli.solve_open_loop)
        cli.solve_ssec = self._no_report(cli.solve_ssec)
        cli.solve_fixed = self._no_report(cli.solve_fixed)
        cli.load_scenario = self.span("load", cli.load_scenario)
        _rebind(solver.costate_backward_grid,
                self.span("backward", solver.costate_backward_grid, _nodes), mods)
        _rebind(solver.integrate_dde,
                self.span("dde", solver.integrate_dde,
                          lambda traj: traj.times.shape[0] - 1), mods)
        field = replicator.ReplicatorField
        field.delayed_rate = self.span("field", field.delayed_rate)
        replicator.provider_power = self.span("provider_power",
                                              model.provider_power)
        for name in stackelberg.__all__:
            fn = getattr(stackelberg, name)
            if isinstance(fn, types.FunctionType):
                _rebind(fn, self.span("stackelberg", fn), mods)

    def metrics(self, main_s: float) -> dict[str, float]:
        """Per-layer numbers for one `main` call that took `main_s`."""
        def per(total, count, scale=1.0):
            return scale * total / count if count else 0.0

        solves = self.calls["solver"]
        return {
            "solver.sweeps": self.sweeps,
            "solver.converged_frac": per(self.converged, solves),
            "solver.solves": solves,
            "solver.solve_s": self.seconds["solver"],
            "solver.backward_calls": self.calls["backward"],
            "solver.backward_s": self.seconds["backward"],
            "solver.backward_us_per_node": per(
                self.seconds["backward"], self.units["backward"], 1e6),
            "solver.forward_us_per_node": per(
                self.forward_s, self.forward_nodes, 1e6),
            "solver.adjoint_bytes": self.adjoint_bytes,
            "solver.dde_steps": self.units["dde"],
            "solver.dde_us_per_step": per(
                self.seconds["dde"], self.units["dde"], 1e6),
            "replicator.field_evals": self.calls["field"],
            "replicator.field_us_per_eval": per(
                self.seconds["field"], self.calls["field"], 1e6),
            "model.provider_power_calls": self.calls["provider_power"],
            "model.provider_power_us": per(
                self.seconds["provider_power"], self.calls["provider_power"], 1e6),
            "stackelberg.calls": self.calls["stackelberg"],
            "stackelberg.s": self.seconds["stackelberg"],
            "cli.load_s": self.seconds["load"],
            "cli.self_s": main_s - self.seconds["solver"],
        }
