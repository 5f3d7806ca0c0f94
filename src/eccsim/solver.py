"""Numerical machinery: integrators and the equilibrium sweep.

Everything runs on a fixed uniform grid with Runge-Kutta stages.  Fixed
stepping keeps runs deterministic and lines the grid up with the delay
buffer, which matters more here than raw speed.  The order of each scheme
in dt: integrate_ode is classical RK4, fourth order; a delayed run reads
its lagged states by linear interpolation: second order on a smooth
field, but on the projected population field (solve_fixed, scenario_delay,
tau = 0.7, T = 7) final-share errors fall by 3.12, 2.80, 2.55 and 2.42 per
halving of dt; the equilibrium sweep holds each node's controls over the
step, which makes it first order (U_ccp errors fall by 2.07-2.34 per
halving of dt on scenario_a).

The open-loop equilibrium is found by forward-backward sweeping.  The
adjoints depend on the state only through Theta(r(t)) and vanish at T, so
they collapse to one scalar profile g with g' = (rho+Theta) g - 1, g(T) = 0:
lam_nn and mu_n are g times their sources (stackelberg._adjoint_scales),
every other entry 0.  One sweep integrates the population forward under the
stationary controls for the current g, integrates g backward from zero
(backward is the stable direction, since it grows at rate rho+Theta forward
in time), and mixes the new g with the last (depth-1 Anderson): the map
settles in 5-8 sweeps on the shipped scenarios; the last forward pass,
stored with the g it ran under, is the answer.  The first pass, at g = 0,
is the myopic baseline (solve_ssec), and the sweep's report keeps it.
Controls come from the kernel of `eccsim.stackelberg`, and supply, Theta
and payoffs from `eccsim.model`; each record derives its payoffs from cfg.

Every step loop runs on Python floats, not numpy arrays: at a handful of
shares per node the interpreter's cost per numpy call, not the arithmetic,
sets the speed.  The one population loop, _method_of_steps, hands a block
function the lagged states of up to LAG_BLOCK steps, read in one numpy
pass, with the state the block before handed on; the block runs those
steps and returns the states to store and the state to hand on: _staged,
the RK4 stages of integrate_ode's and integrate_dde's array field, each
state settled by the pass the integrator chose, or _rank_one_rk4, one
projected map per step of a delayed fixed-controls run (solve_fixed) over
the lag terms of its one ReplicatorField, on a state carried unnormalised
by straight-line code written out for the run's component count.  At zero
delay that run is _affine_rk4's map in closed form.  The sweep's fields
are affine too, so its RK4 step is one _affine_rk4 map per interval, and
its forward pass is bound to (cfg, grid) once per solve (_forward_map).
That map keeps the simplex by construction (S*Theta = 1 - R, and R, S > 0
within check_stability's bound), so the sweep settles each step by the
finite check alone; _project_simplex settles only integrate_ode and
integrate_dde with simplex=True.  The other step and field loops append
instead of using comprehensions, which only Python 3.12 inlines (PEP 709).
Every sum over providers, the simplex sums of x0 and of each step
included, runs left to right (model._left_sum).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from .model import (
    SIMPLEX_TOL,
    AllocationState,
    SystemConfig,
    _check_count,
    _left_sum,
    _payoffs,
    _real_array,
    _real_number,
    _uptake,
    _vertex_uptakes,
)
from .replicator import ReplicatorField
from .stackelberg import _adjoint_scales, _price_gaps, _stationary_controls

__all__ = [
    "BlowUp",
    "Trajectory",
    "SweepReport",
    "integrate_ode",
    "integrate_dde",
    "solve_open_loop",
    "solve_ssec",
    "solve_fixed",
    "replay_forward",
    "costate_backward_grid",
    "convergence_time",
    "grid_steps",
    "check_delay",
    "check_stability",
    "default_price_cap",
]

# Hard ceiling on any integrated magnitude before the run is declared lost.
MAGNITUDE_LIMIT = 1e12
# Interior floor for population shares.
SHARE_FLOOR = 1e-12
# Requests are kept strictly inside [0, 1) with this margin.
CONTROL_CAP = 1.0 - 1e-6
# Largest grid any integrator lays out; finer grids are rejected, not allocated.
MAX_GRID_STEPS = 10**6
# Most steps in one _method_of_steps block, whose lag rows are read in one pass.
LAG_BLOCK = 256
# RK4 is stable on y' = a*y, a < 0, while -a*dt stays below this root of
# R(z) = 1 (R: _affine_rk4's polynomial): its real stability interval.
RK4_REAL_BOUND = 2.785293563405289
# Bounds on the share and adjoint residuals of a converged sweep (SweepReport).
SWEEP_TOL = 1e-8
COSTATE_TOL = 1e-6


class BlowUp(RuntimeError):
    """An integrated state left the finite range the model is meant for."""


@dataclass(eq=False)
class Trajectory:
    """Time-gridded run record.

    Only `times` and `shares` are always present; the solvers fill in the
    control and adjoint columns they produce, and cfg.  Shapes: times (M,),
    shares (M, N+1), requests (M, N), prices (M,), g (M,) the scalar
    adjoint profile (see the module docstring).
    """

    times: np.ndarray
    shares: np.ndarray
    requests: np.ndarray | None = None
    prices: np.ndarray | None = None
    g: np.ndarray | None = None
    cfg: SystemConfig | None = dataclasses.field(default=None, repr=False)

    @cached_property
    def utilities(self) -> np.ndarray | None:
        """Payoffs [u_1..u_N, u_c] per node (model._payoffs); None without cfg."""
        if self.cfg is None:
            return None
        return _payoffs(self.cfg, self.shares, self.requests, self.prices)

    @cached_property
    def integral_utilities(self) -> np.ndarray | None:
        """Their discounted running integrals from 0; None without cfg."""
        if self.cfg is None:
            return None
        rate = _discount(self.cfg.discount_rate, self.times)[:, None]
        return _running_trapezoid(rate * self.utilities, self.times)

    def index_at(self, t: float) -> int:
        """Grid index nearest to time t."""
        return int(np.argmin(np.abs(self.times - t)))

    def upto(self, t_end: float) -> "Trajectory":
        """View of the trajectory restricted to times <= t_end, same cfg."""
        m = int(np.searchsorted(self.times, t_end + 1e-12, side="right"))
        return dataclasses.replace(self, **{
            f.name: a[:m] for f in dataclasses.fields(self)
            if isinstance(a := getattr(self, f.name), np.ndarray)})


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Outcome of the forward-backward sweep.

    state_residual is the largest change in any share between the last two
    sweeps; costate_terminal_residual the largest change in the adjoint
    paths (pinned to zero at T, so path change is the residual that
    matters), the largest adjoint source (stackelberg._adjoint_scales)
    times the largest change in g.  Converged: the two fell below
    SWEEP_TOL and COSTATE_TOL.  Non-convergence is reported here, not raised.

    first_pass is the sweep's first forward pass, at g = 0: bit for bit
    the trajectory solve_ssec returns.  It is left out of repr.
    """

    iterations: int
    state_residual: float
    costate_terminal_residual: float
    converged: bool
    first_pass: Trajectory | None = dataclasses.field(default=None, repr=False)


def default_price_cap(cfg: SystemConfig) -> float:
    """Projection ceiling for the cloud price: ten times the dearest access price."""
    return 10.0 * float(max(np.max(cfg.ecp_access_price), cfg.cloud_access_price))


def grid_steps(t_span: tuple[float, float], dt: float) -> int:
    """Step count of the uniform grid every integrator lays over t_span.

    Raises:
        ValueError: dt not a finite positive number, t_span not a finite
            (start, end) pair or empty, a span that is not an integer number
            of steps, or more than MAX_GRID_STEPS steps; the message names
            dt or t_span.
    """
    span = _real_array(t_span, "t_span")
    if span.shape != (2,):
        raise ValueError("t_span: expected a (start, end) pair")
    t0, t1 = span.tolist()
    dt = _real_number(dt, "dt")
    if not math.isfinite(dt):
        raise ValueError("dt: must be finite")
    if not dt > 0.0:
        raise ValueError("dt: must be positive")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span: must be finite")
    if not t1 > t0:
        raise ValueError("t_span: end must exceed start")
    steps_exact = (t1 - t0) / dt
    if not steps_exact <= MAX_GRID_STEPS:
        raise ValueError(f"dt: grid would exceed {MAX_GRID_STEPS} steps")
    steps = int(round(steps_exact))
    if steps < 1 or abs(steps_exact - steps) > 1e-9 * max(1.0, steps_exact):
        raise ValueError("dt: span must be an integer number of steps")
    return steps


def check_delay(tau: float, dt: float, name: str = "tau") -> None:
    """Reject a non-finite or negative delay, or a nonzero one shorter than a step."""
    tau = _real_number(tau, name)
    if not math.isfinite(tau):
        raise ValueError(f"{name}: must be finite")
    if tau < 0.0:
        raise ValueError(f"{name}: must be nonnegative")
    if tau != 0.0 and tau < dt:
        raise ValueError(f"{name}: delay shorter than dt is not resolvable")


def _check_undelayed(cfg: SystemConfig) -> None:
    """Reject a population delay, which only solve_fixed models."""
    if cfg.population_delay:
        raise ValueError(
            "population_delay: only the fixed-controls scheme models delay")


def check_stability(cfg: SystemConfig, dt: float) -> None:
    """Reject a dt past RK4's real stability bound on rho + Theta_max, the
    fastest rate a solver steps (model._vertex_uptakes).  Names dt."""
    dt = _real_number(dt, "dt")
    limit = RK4_REAL_BOUND / (cfg.discount_rate + max(
        th for _, th in _vertex_uptakes(cfg)))
    if dt > limit:
        raise ValueError(f"dt: above {limit:.6g}, RK4's stability limit"
                         " for this configuration")


def _make_grid(t_span: tuple[float, float], dt: float) -> np.ndarray:
    steps = grid_steps(t_span, dt)
    times = float(t_span[0]) + dt * np.arange(steps + 1)
    times[-1] = float(t_span[1])
    return times


def _check_finite(y: list[float]) -> list[float]:
    """y, each component checked against MAGNITUDE_LIMIT; NaN fails too."""
    for v in y:
        if not abs(v) <= MAGNITUDE_LIMIT:
            raise BlowUp("state magnitude left the finite range")
    return y


def _project_simplex(y: list[float]) -> list[float]:
    """_check_finite, floor at SHARE_FLOOR and renormalise always, in one pass."""
    floored, total = [], 0.0
    for v in y:
        if not abs(v) <= MAGNITUDE_LIMIT:  # checked before the floor
            raise BlowUp("state magnitude left the finite range")
        v = v if v > SHARE_FLOOR else SHARE_FLOOR
        floored.append(v)
        total += v
    return [v / total for v in floored]


def integrate_ode(field: Callable[[np.ndarray], np.ndarray],
                  x0, t_span: tuple[float, float], dt: float,
                  *, simplex: bool = False) -> Trajectory:
    """Fixed-step RK4 integration of the autonomous x' = field(x).

    With simplex=True (default False, as for integrate_dde) each step is
    floored at SHARE_FLOOR to preserve interiority and renormalized onto
    the simplex (_project_simplex); population runs pass it, generic test
    problems must not (a 1-d decay would be pinned to its initial value).
    The steps are the staged ones of _method_of_steps at zero delay, on
    floats.

    Raises:
        BlowUp: a state magnitude exceeded MAGNITUDE_LIMIT or went non-finite.
        ValueError: `field` returned anything but a vector as long as the state.
    """
    times = _make_grid(t_span, dt)  # checks dt before _staged reads it
    return _method_of_steps(
        _staged(lambda now, lag: field(now), dt,
                _project_simplex if simplex else _check_finite),
        x0, 0.0, times, dt)


def _staged(field: Callable[..., np.ndarray], dt: float,
            settle: Callable[[list[float]], list[float]]) -> Callable:
    """Array field f(now, lag) as the _method_of_steps block of RK4 stages.

    Step j of a block reads lag rows 2j (start), 2j+1 (mid) and 2j+2 (end);
    the lag is the stage itself when `lags` is None.  It calls the field at
    k1 = f(y, row 2j), k2 and k3 at row 2j+1 and the built stages
    y + dt/2*k1, y + dt/2*k2, and k4 at row 2j+2 and y + dt*k3: four field
    calls per step, each stage built as a list, then handed to `field` as
    an array.  The next step starts from the RK4 sum passed through
    `settle`, the one pass integrate_ode and integrate_dde choose
    (_check_finite, or _project_simplex on the simplex); the block returns
    the settled states and the last of them.

    Raises:
        ValueError: `field` returned anything but a vector as long as the state.
    """
    half, sixth = 0.5 * dt, dt / 6.0

    def rate(lag, base, slope, h):
        """Velocity at lag row `lag` of the state base + h*slope."""
        now = np.array([a + h * k for a, k in zip(base, slope)])
        out = np.asarray(field(now, now if lag is None else lag))
        if out.shape != (len(base),):
            raise ValueError(
                "field: must return a vector as long as the state")
        return out.tolist()

    def block(steps, lags, y):
        rows = []
        lags = [None] * (2 * steps + 1) if lags is None else lags
        for j in range(steps):
            mid = lags[2 * j + 1]
            k1 = rate(lags[2 * j], y, y, 0.0)
            k2 = rate(mid, y, k1, half)
            k3 = rate(mid, y, k2, half)
            k4 = rate(lags[2 * j + 2], y, k3, dt)
            nxt = []
            for v, a, b, c, d in zip(y, k1, k2, k3, k4):
                nxt.append(v + sixth * (a + 2.0 * b + 2.0 * c + d))
            y = settle(nxt)
            rows.append(y)
        return rows, y
    return block


def _rank_one_rk4(terms: Callable, source: list[float], theta: float,
                  dt: float) -> Callable:
    """Delayed _method_of_steps block of x' = G*(u - x . u): projected RK4 maps.

    (u, G) = terms(lags) are read from the lag rows alone (for the
    population, ReplicatorField._lag_terms), and G*u is the same vector
    `source` in every row, summing to `theta` (for the population delta*c
    and Theta: the share in G cancels the one in u, see ReplicatorField).
    Under a fixed lag row the field is affine in the state with a rank-one
    slope, so, as for _affine_rk4, the RK4 step is a map computed ahead.
    With rows 1 (start: k1, the previous step's end row), 2 (mid: k2, k3)
    and 4 (end: k4), a stage at state z has velocity source - G_j*(z . u_j),
    and its mean m_j = z . u_j follows from the step's start x:
      m1 = x.u1,  m2 = x.u2 + h/2 (A2 - m1 B12),
      m3 = x.u2 + h/2 (A2 - m2 theta),  m4 = x.u4 + h (A4 - m3 B24),
      x' = x + h source - (h/6 G1 m1 + h/3 G2 (m2 + m3) + h/6 G4 m4),
    A2 = sum source u2, A4 = sum source u4, B12 = sum G1 u2, B24 = sum G2 u4,
    and x' is then projected as _project_simplex projects it.

    The state is carried unnormalised, y with sigma its sum (x = y/sigma):
    the map is affine in x, so sigma times the step of y/sigma is the same
    recurrence on y with its constant terms (h*source, A2, A4) taken sigma
    times, and the projection checks and floors against sigma*MAGNITUDE_LIMIT
    and sigma*SHARE_FLOOR; the floored sum is the next sigma.  No step
    divides: the block divides each stored state by its sigma in one numpy
    pass and returns them with y, the last state unnormalised.  It first
    scales y by the power of two that puts y's sum in [0.5, 1) (math.frexp):
    that is exact, and every operation is of degree one in (y, sigma), so no
    bit of a row depends on where blocks start, and sigma cannot under- or
    overflow on a long run.  The block is written out for n = len(source)
    components (_rank_one_source), each sum one chain from 0.0, left to
    right.  Delayed runs only, so the lag rows give the step count; at zero
    delay the lag is the stage state.
    """
    return partial(_rank_one_kernel(len(source)), terms=terms, source=source,
                   theta=theta, dt=dt)


# Most terms per statement of a written-out sum: the compiler recurses on each.
CHAIN_TERMS = 100
_RANK_ONE_BLOCK = """\
def block(steps, lags, y, *, terms, source, theta, dt):
    half, sixth, third = 0.5 * dt, dt / 6.0, dt / 3.0
    u, g = terms(lags)
    u, g, flat, sigmas = u.tolist(), g.tolist(), [], []
    {s} = source
    {hs} = [dt * v for v in source]
    sigma = _left_sum(y)
    scale = math.ldexp(1.0, -math.frexp(sigma)[1])
    {y} = [v * scale for v in y]
    sigma *= scale
    for j in range(0, 2 * steps, 2):
        ({u1}), ({u2}), ({u4}) = u[j], u[j + 1], u[j + 2]
        ({g1}), ({g2}), ({g4}) = g[j], g[j + 1], g[j + 2]
        {sums}
        a2 *= sigma
        m2 = d2 + half * (a2 - m1 * b12)
        m3 = d2 + half * (a2 - m2 * theta)
        m4 = d4 + dt * (sigma * a4 - m3 * b24)
        w1, w2, w4 = sixth * m1, third * (m2 + m3), sixth * m4
        top, low = sigma * MAGNITUDE_LIMIT, sigma * SHARE_FLOOR
        {update}
        {total}
        flat += {y}
        sigmas.append(total)
        sigma = total
    rows = np.array(flat).reshape(len(sigmas), -1)
    return rows / np.array(sigmas)[:, None], [{y}]
"""
_RANK_ONE_COMPONENT = """\
y_{i} = y_{i} + sigma * hs_{i} - (w1 * g1_{i} + w2 * g2_{i} + w4 * g4_{i})
if not abs(y_{i}) <= top:  # _project_simplex's checks, times sigma
    raise BlowUp("state magnitude left the finite range")
y_{i} = y_{i} if y_{i} > low else low"""


def _rank_one_source(n: int) -> str:
    """_RANK_ONE_BLOCK written out for n components; it reads nothing but n."""
    def chain(name, *factors):
        """name = 0.0 + a_0 * b_0 + ..., at most CHAIN_TERMS per statement."""
        terms = [" * ".join(f"{f}_{i}" for f in factors) for i in range(n)]
        return [f"{name} = {name if k else '0.0'} + "
                + " + ".join(terms[k:k + CHAIN_TERMS])
                for k in range(0, n, CHAIN_TERMS)]

    body = "\n        ".join
    return _RANK_ONE_BLOCK.format(
        total=body(chain("total", "y")),
        sums=body(line for spec in ("m1 y u1", "d2 y u2", "d4 y u4", "a2 s u2",
                                    "b12 g1 u2", "a4 s u4", "b24 g2 u4")
                  for line in chain(*spec.split())),
        update=body(line for i in range(n) for line
                    in _RANK_ONE_COMPONENT.format(i=i).splitlines()),
        **{stem: ", ".join(f"{stem}_{i}" for i in range(n)) + ","
           for stem in ("s", "hs", "y", "u1", "u2", "u4", "g1", "g2", "g4")})


@lru_cache(maxsize=16)
def _rank_one_kernel(n: int) -> Callable:
    """_rank_one_source(n) compiled, reading this module's names: once per n
    in a process (1 ms at n = 3, 0.5 s at n = 3000), for the last 16 n."""
    namespace = {}
    exec(compile(_rank_one_source(n), f"<rank-one block, n={n}>", "exec"),
         globals(), namespace)
    return namespace["block"]


def _method_of_steps(block: Callable, x0, tau: float, times: np.ndarray,
                     dt: float) -> Trajectory:
    """RK4 steps of x'(t) = f(x(t), x(t - tau)) on `times` over float lists.

    rows, y = block(steps, lags, y) runs steps s..e-1 (steps = e - s) from
    y, the state the block before handed on (x0 first), and returns the
    states to store and the state to hand on: _staged, or _rank_one_rk4,
    which hands on its state unnormalised, built for this run's dt.  `lags`
    holds their 2*steps + 1 lag rows: the start row, then mid-step and
    end-of-step for each step.  Step i reads the lag at grid position
    i - tau/dt for k1, i + 1/2 - tau/dt for k2 and k3 and i + 1 - tau/dt
    for k4.  Position p reads row j = max(floor(p), 0) plus (p - j) times
    the step to row max(ceil(p), 0), a zero step if p - j <= 0.  A delay
    past the run reads x0 everywhere, so tau/dt is capped at the step count
    plus one, which keeps it finite.  With e - s < tau/dt a block's rows lie
    at or before s, the last row stored, so one numpy pass reads them;
    e - s <= LAG_BLOCK bounds its memory.  Its start row is the previous
    block's end row, read again.  At tau = 0 no row is read, block gets
    lags None, and blocks are LAG_BLOCK steps wide.  Raises as integrate_dde.
    """
    check_delay(tau, dt)
    x0 = _real_array(x0, "x0").tolist()
    steps = times.shape[0] - 1
    shift = min(tau / dt, steps + 1.0)
    out = np.empty((steps + 1, len(x0)))
    out[0] = y = x0

    def read(s: int, e: int):
        """Lag rows of steps s..e-1: the start row, then two per step."""
        pos = np.arange(2 * s, 2 * e + 1) * 0.5 - shift
        lo = np.maximum(np.floor(pos), 0.0)
        hi = np.maximum(np.ceil(pos), 0.0)
        a = out[lo.astype(int)]
        return a + (pos - lo)[:, None] * (out[hi.astype(int)] - a)

    width = min(max(math.ceil(shift) - 1, 1), LAG_BLOCK) if shift else LAG_BLOCK
    for s in range(0, steps, width):
        e = min(s + width, steps)
        rows, y = block(e - s, read(s, e) if shift else None, y)
        out[s + 1:e + 1] = rows
    return Trajectory(times=times, shares=out)


def integrate_dde(field: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  x0, tau: float, t_span: tuple[float, float], dt: float,
                  *, simplex: bool = False) -> Trajectory:
    """Method of steps for the autonomous x'(t) = field(x(t), x(t - tau)).

    Each step takes RK4 stages, but the delayed state is read from the
    already-integrated grid by linear interpolation: second order on a
    smooth field (the error falls by 4 per halving of dt), less on the
    projected population field (see the module docstring).  Before the
    start the delayed state is the constant x0; at tau = 0 it is each
    stage's own state.  `field` is called once per RK4 stage (_staged);
    simplex as for integrate_ode, off by default (plain method of steps).

    Raises:
        ValueError: tau not finite, negative, or 0 < tau < dt (one step
            would outrun the buffer); `field` as for integrate_ode.
        BlowUp: as for integrate_ode.
    """
    times = _make_grid(t_span, dt)  # checks dt before _staged reads it
    return _method_of_steps(
        _staged(field, dt, _project_simplex if simplex else _check_finite),
        x0, tau, times, dt)


def _affine_rk4(a: float, h: float) -> tuple[float, float]:
    """(R, S): one RK4 step of y' = a*y - src (a, src constant) is R*y - S*src.

    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is RK4's stability polynomial at
    z = a*h and S = h*(R(z) - 1)/z; h < 0 steps backward.
    """
    z = a * h
    poly = 1.0 + z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0)))
    return 1.0 + z * poly, h * poly


def _adjoint_profile(cfg: SystemConfig, times: np.ndarray,
                     thetas: list[float]) -> np.ndarray:
    """Backward RK4 for g' = (rho+Theta) g - 1 from g(T) = 0, shape (M,).

    Theta(r(t)) is held piecewise constant per interval to match the
    forward pass's piecewise-constant controls: `thetas` holds the M-1
    per-interval values, as _forward_pass returns them.
    """
    rho, m = cfg.discount_rate, times.shape[0]
    h = float(times[0] - times[1]) if m > 1 else 0.0
    g = [0.0] * m
    for i in range(m - 1, 0, -1):
        grow, shift = _affine_rk4(rho + thetas[i - 1], h)
        g[i - 1] = grow * g[i] - shift
    return np.array(_check_finite(g))


def costate_backward_grid(cfg: SystemConfig, times: np.ndarray,
                          requests: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-integrate all adjoints from zero terminal conditions.

    Expands the scalar profile g into the general adjoint layout of
    `eccsim.stackelberg`, g times the sources of its _adjoint_scales: lam
    (M, N, N) diagonal, mu (M, N), theta_mat (M, N, N) = 0.  The sweep
    itself carries only g.  Raises ValueError unless times and requests
    are numeric and requests holds one row per time of one request per edge
    provider.
    """
    times = _real_array(times, "times")
    requests = _real_array(requests, "requests")
    if requests.shape[:1] != times.shape:
        raise ValueError("requests: length inconsistent with times")
    if requests.shape[1:] != (cfg.n_ecps,):
        raise ValueError("requests: length inconsistent with n_ecps")
    uptake = _uptake(cfg)
    g = _adjoint_profile(cfg, times, [uptake(r)[1]
                                      for r in requests[:-1].tolist()])
    lam_diag, mu_scale = _adjoint_scales(cfg)
    lam = g[:, None, None] * np.diag(lam_diag)
    mu = np.repeat((mu_scale * g)[:, None], cfg.n_ecps, axis=1)
    return lam, mu, np.zeros_like(lam)


def _forward_map(cfg: SystemConfig, times: np.ndarray) -> Callable:
    """The sweep's forward pass bound to (cfg, times): run(x0, g) on floats.

    At each node the adjoints, g times the sources of _adjoint_scales
    (theta_mat = 0), give the two adjoint terms of the control kernel of
    `eccsim.stackelberg` (the loop that builds them adds the edge shares
    once, for the leader term and the kernel alike); its price and
    requests, projected onto the feasible box (price cap:
    default_price_cap), hold over the step, on which x' = delta*c - Theta*x
    (see ReplicatorField) is one _affine_rk4 map.  The map keeps the sum
    of the shares at 1 and each share positive (S*Theta = 1 - R; R, S > 0
    while dt*Theta stays within check_stability's bound), so each new
    state gets only _check_finite's test, folded into the step loop, and
    no projection.  What depends on cfg and times alone, the control and
    uptake kernels too, is bound once.
    run(x0, g), with M values of g, returns lists: shares, requests and
    prices per node, and the M-1 per-interval Theta that the backward pass
    (_adjoint_profile) must read; it refuses a population delay.
    """
    _check_undelayed(cfg)
    n, m = cfg.n_ecps, times.shape[0]
    dt = float(times[1] - times[0]) if m > 1 else 0.0
    inv_p, gap, inv_p_sum, mix = _price_gaps(cfg)
    lam_diag, mu_scale = _adjoint_scales(cfg)
    q_terms = list(zip(lam_diag.tolist(), inv_p.tolist(), gap.tolist()))
    p_max, delta = default_price_cap(cfg), cfg.learning_rate
    controls, uptake, last = _stationary_controls(cfg), _uptake(cfg), m - 1

    def run(x, g):
        shares, requests, prices, thetas = [], [], [], []
        for i, gi in enumerate(g):
            shares.append(x)
            xe, lam_dot_q, sum_x = x[:n], [], 0.0
            for (lam, ip, gp), xk in zip(q_terms, xe):
                lam_dot_q.append((gi * lam) * (ip - gp * xk))
                sum_x += xk
            flow = -(mu_scale * gi) * (inv_p_sum + sum_x * mix)
            a_vec, b_slope, price = controls(xe, sum_x, lam_dot_q, flow)
            price = 0.0 if price < 0.0 else p_max if price > p_max else price
            r, total = [], 0.0
            for a in a_vec:
                v = a - b_slope * price
                v = 0.0 if v < 0.0 else CONTROL_CAP if v > CONTROL_CAP else v
                r.append(v)
                total += v
            if total > CONTROL_CAP:
                r = [v * (CONTROL_CAP / total) for v in r]
            requests.append(r)
            prices.append(price)
            if i == last:
                break
            c, theta = uptake(r)
            thetas.append(theta)
            grow, shift = _affine_rk4(-theta, dt)
            nxt = []
            for y, cs in zip(x, c):
                y = grow * y + shift * (delta * cs)
                if not abs(y) <= MAGNITUDE_LIMIT:  # _check_finite, inlined
                    raise BlowUp("state magnitude left the finite range")
                nxt.append(y)
            x = nxt
        return shares, requests, prices, thetas
    return run


def _forward_pass(cfg: SystemConfig, x0, times: np.ndarray,
                  g: np.ndarray | None) -> Trajectory:
    """A _forward_map pass from x0 (checked: _initial_shares) as a Trajectory
    stored with g (None: zeros, stored as None) and cfg."""
    x0 = _initial_shares(cfg, x0).tolist()
    shares, requests, prices, _ = _forward_map(cfg, times)(
        x0, [0.0] * times.shape[0] if g is None else g.tolist())
    return Trajectory(times, np.array(shares), np.array(requests),
                      np.array(prices), g, cfg=cfg)


def _running_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoidal running integral of `values` along axis 0, starting at 0."""
    d = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    out = np.zeros(values.shape)
    np.cumsum(d * (values[1:] + values[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def _discount(rho: float, times: np.ndarray) -> np.ndarray:
    """Discount weights e^(-rho*t) at `times`, one libm exp (math.exp) each:
    numpy's array exp may take a SIMD path whose last bits depend on the CPU."""
    return np.array([math.exp(v) for v in (-rho * times).tolist()])


def _initial_shares(cfg: SystemConfig, x0) -> np.ndarray:
    """x0 as an array, checked: one interior share per provider, summing to 1."""
    x0 = _real_array(x0, "x0")
    if x0.shape != (cfg.n_ecps + 1,):
        raise ValueError("x0: length inconsistent with n_ecps")
    if not np.all(x0 > 0.0):
        raise ValueError("x0: initial shares must be interior")
    if abs(_left_sum(x0.tolist()) - 1.0) > SIMPLEX_TOL:
        raise ValueError("x0: initial shares must sum to 1")
    return x0


def _anderson(image: np.ndarray, res: np.ndarray, last) -> np.ndarray:
    """Next g: image - gamma*(image - image_prev), depth-1 Anderson mixing.

    res = image - g; gamma = <dr, res>/<dr, dr>, dr = res - res_prev, with
    last = (image_prev, res_prev) (Walker & Ni 2011).  No last or no finite
    gamma: the plain image.  Inner products add left to right.
    """
    if last is None:
        return image
    d_res = (res - last[1]).tolist()
    den = _left_sum([d * d for d in d_res])
    num = _left_sum([d * r for d, r in zip(d_res, res.tolist())])
    gamma = num / den if den > 0.0 else math.nan
    return image - gamma * (image - last[0]) if math.isfinite(gamma) else image


def solve_open_loop(cfg: SystemConfig, x0, *, dt: float,
                    max_iter: int = 500) -> tuple[Trajectory, SweepReport]:
    """Open-loop equilibrium of the full hierarchical game over [0, horizon].

    Iterates the map g -> forward pass -> backward pass -> g from g = 0,
    so the first forward pass runs the myopic controls (solve_ssec's run;
    the report keeps it as first_pass); later maps mix the last two
    images (_anderson), which keeps the fixed points.  It stops
    once converged (see SweepReport), after at most max_iter forward
    passes.  The returned trajectory is the last forward pass, stored with
    the g it ran under, so the report's residuals describe it and replaying
    it reproduces it exactly.  A run that exhausts max_iter returns
    converged=False in the report rather than raising.

    Raises:
        BlowUp: integration left the finite range.
        ValueError: malformed grid or parameters, max_iter and a nonzero
            population_delay included.
    """
    _check_count(max_iter, "max_iter")
    check_stability(cfg, dt)
    x0 = _initial_shares(cfg, x0).tolist()
    times = _make_grid((0.0, cfg.horizon), dt)
    lam_diag, mu_scale = _adjoint_scales(cfg)
    adjoint_unit = max(float(np.max(np.abs(lam_diag))), abs(mu_scale))
    forward = _forward_map(cfg, times)
    g, shares, last = np.zeros(times.shape[0]), None, None
    state_res = costate_res = np.inf
    for iterations in range(1, max_iter + 1):
        prev, ran = shares, g
        rows, requests, prices, thetas = forward(x0, g.tolist())
        shares = np.array(rows)
        if prev is None:
            first = Trajectory(times, shares, np.array(requests),
                               np.array(prices), cfg=cfg)
        else:
            state_res = float(np.max(np.abs(shares - prev)))
        image = _adjoint_profile(cfg, times, thetas)
        res = image - ran
        costate_res = adjoint_unit * float(np.max(np.abs(res)))
        converged = state_res < SWEEP_TOL and costate_res < COSTATE_TOL
        if converged:
            break
        g, last = _anderson(image, res, last), (image, res)
    report = SweepReport(iterations, state_res, costate_res, converged, first)
    return Trajectory(times, shares, np.array(requests), np.array(prices),
                      ran, cfg=cfg), report


def replay_forward(traj: Trajectory) -> Trajectory:
    """Re-run the forward pass under a record's frozen g and its own cfg.

    The result of solve_open_loop, converged or not, replays bit for bit;
    used to certify that the stored schedule is self-consistent.
    """
    if traj.cfg is None:
        raise ValueError("trajectory stores no configuration to replay under")
    if traj.g is None:
        raise ValueError("trajectory stores no adjoints to replay")
    if traj.g.shape != traj.times.shape:
        raise ValueError("g: length inconsistent with times")
    return _forward_pass(traj.cfg, traj.shares[0], traj.times, traj.g)


def solve_ssec(cfg: SystemConfig, x0, dt: float) -> Trajectory:
    """Myopic baseline: each instant's static game, then one population step.

    Identical to the sweep's forward pass over [0, horizon] with g pinned
    to zero, i.e. providers optimize instantaneous payoff only: the first
    pass of solve_open_loop (SweepReport.first_pass), raising as it does.
    """
    check_stability(cfg, dt)
    return _forward_pass(cfg, x0, _make_grid((0.0, cfg.horizon), dt), None)


def solve_fixed(cfg: SystemConfig, x0, r0, dt: float) -> Trajectory:
    """Population run over [0, horizon], frozen allocation, zero cloud price.

    Honors cfg.population_delay with constant prehistory x0.  At zero
    delay the field is x' = delta*c - Theta*x (see ReplicatorField), and
    RK4's step, the sweep's _affine_rk4 map y -> R*y + S*delta*c under one
    allocation, has the fixed point delta*c/Theta (S*Theta = 1 - R): step
    i is x0 + (1 - R**i)*(delta*c/Theta - x0), a convex combination that
    keeps the simplex unprojected.  Delayed, each step is the rank-one map
    over the lag terms of the run's one ReplicatorField with the projection
    folded in, stepped on the unnormalised state (_rank_one_rk4);
    _project_simplex is not called.  These are the RK4 steps of that
    field's integrate_ode(field.rate, ..) or
    integrate_dde(field.delayed_rate, ..) with simplex=True, summed in
    another order: the shares agree to rounding, not bit for bit.
    """
    field = ReplicatorField(cfg, AllocationState(r0))
    field.supply  # checks the length of r0, before check_stability
    check_stability(cfg, dt)
    tau, delta = cfg.population_delay, cfg.learning_rate
    c, theta = _uptake(cfg)(field.alloc.requests.tolist())
    source = [delta * cs for cs in c]
    x0, times = _initial_shares(cfg, x0), _make_grid((0.0, cfg.horizon), dt)
    if tau:
        shares = _method_of_steps(
            _rank_one_rk4(field._lag_terms, source, theta, dt), x0, tau,
            times, dt).shares
    else:
        grow = _affine_rk4(-theta, dt)[0]
        # Powers of a Python float (libm's pow): numpy's array power may
        # take a SIMD path whose bits depend on the CPU.
        decay = np.array([1.0 - grow ** i for i in range(times.shape[0])])
        shares = x0 + decay[:, None] * (np.array(source) / theta - x0)
    requests = np.tile(field.alloc.requests, (times.shape[0], 1))
    return Trajectory(times, shares, requests, np.zeros_like(times), cfg=cfg)


def convergence_time(traj: Trajectory, target, eps: float) -> float | None:
    """First grid time after which the shares stay eps-close to target.

    target is a numeric vector of shares, one per provider.  Closeness is
    the max-norm against it, required to hold from that time through the
    end of the stored horizon; None if the trajectory never locks on.
    """
    eps = _real_number(eps, "eps")
    if not eps > 0.0:
        raise ValueError("eps: must be positive")
    tgt = _real_array(target, "target")
    if tgt.shape != traj.shares.shape[1:]:
        raise ValueError("target: length inconsistent with trajectory")
    err = np.max(np.abs(traj.shares - tgt[None, :]), axis=1)
    bad = np.nonzero(err >= eps)[0]
    if bad.shape[0] == 0:
        return float(traj.times[0])
    after = int(bad[-1]) + 1
    return float(traj.times[after]) if after < traj.times.shape[0] else None
