"""Numerical machinery: integrators and the equilibrium sweep.

Everything runs on a fixed uniform grid with classical fourth-order
Runge-Kutta steps.  Fixed stepping keeps runs deterministic and lines the
grid up with the delay buffer, which matters more here than raw speed.
The delayed integrator reads lagged states by linear interpolation, which
makes it second order overall despite its RK4 stages.

The open-loop equilibrium is found by forward-backward sweeping.  The
adjoints depend on the state only through Theta(r(t)) and vanish at T, so
they collapse to one scalar profile g with g' = (rho+Theta) g - 1, g(T) = 0:
the follower adjoints are lam_nn = eta1*p_n*K*g (off-diagonal entries 0),
the leader's are mu_n = xi1*p_c*K*g (its theta_mat is 0).  One sweep
integrates the population forward under the stationary controls for the
current g, integrates g backward from zero (backward is the stable
direction, since it grows at rate rho+Theta forward in time), and takes
the new g undamped: the map settles in 5-9 sweeps on the shipped
scenarios.  The controls come from the one stationary-control kernel of
`eccsim.stackelberg`, and supply, Theta and payoffs from `eccsim.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    AllocationState,
    MarketSnapshot,
    PopulationState,
    SystemConfig,
    _payoffs,
    _uptake,
)
from .replicator import ReplicatorField
from .stackelberg import _price_gaps, _stationary_controls

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
    "integral_utility",
    "default_price_cap",
]

# Hard ceiling on any integrated magnitude before the run is declared lost.
MAGNITUDE_LIMIT = 1e12
# Interior floor for population shares.
SHARE_FLOOR = 1e-12
# Renormalize the simplex only when the sum drifts past this.
DRIFT_TOL = 1e-12
# Requests are kept strictly inside [0, 1) with this margin.
CONTROL_CAP = 1.0 - 1e-6
# Largest grid any integrator lays out; finer grids are rejected, not allocated.
MAX_GRID_STEPS = 10**6


class BlowUp(RuntimeError):
    """An integrated state left the finite range the model is meant for."""


@dataclass
class Trajectory:
    """Time-gridded run record.

    Only `times` and `shares` are always present; control, adjoint, and
    utility columns are filled by the solvers that produce them.  Shapes:
    times (M,), shares (M, N+1), requests (M, N), prices (M,), g (M,) the
    scalar adjoint profile (see the module docstring), utilities (M, N+1)
    ordered [u_1..u_N, u_c], integral_utilities ditto.
    """

    times: np.ndarray
    shares: np.ndarray
    requests: np.ndarray | None = None
    prices: np.ndarray | None = None
    g: np.ndarray | None = None
    utilities: np.ndarray | None = None
    integral_utilities: np.ndarray | None = None

    @property
    def n_ecps(self) -> int:
        return self.shares.shape[1] - 1

    def state(self, i: int) -> PopulationState:
        return PopulationState(self.shares[i])

    def allocation(self, i: int) -> AllocationState:
        if self.requests is None:
            raise ValueError("trajectory stores no control schedule")
        return AllocationState(self.requests[i])

    def snapshot(self, i: int) -> MarketSnapshot:
        price = 0.0 if self.prices is None else float(self.prices[i])
        return MarketSnapshot(self.state(i), self.allocation(i),
                              price=price, time=float(self.times[i]))

    def index_at(self, t: float) -> int:
        """Grid index nearest to time t."""
        return int(np.argmin(np.abs(self.times - t)))

    def upto(self, t_end: float) -> "Trajectory":
        """View of the trajectory restricted to times <= t_end."""
        m = int(np.searchsorted(self.times, t_end + 1e-12, side="right"))

        def cut(a):
            return None if a is None else a[:m]

        return Trajectory(self.times[:m], self.shares[:m], cut(self.requests),
                          cut(self.prices), cut(self.g), cut(self.utilities),
                          cut(self.integral_utilities))


@dataclass(frozen=True)
class SweepReport:
    """Outcome of the forward-backward sweep.

    state_residual is the largest change in any share between the last two
    sweeps; costate_terminal_residual is the analogous change over the
    terminal-anchored adjoint paths (their values at T are pinned to zero
    by construction, so path change is the meaningful residual), i.e.
    max(eta1*max p_n, xi1*p_c)*K times the largest change in g.
    Non-convergence is reported here, not raised.
    """

    iterations: int
    state_residual: float
    costate_terminal_residual: float
    converged: bool


def default_price_cap(cfg: SystemConfig) -> float:
    """Projection ceiling for the cloud price: ten times the dearest access price."""
    return 10.0 * float(max(np.max(cfg.ecp_access_price), cfg.cloud_access_price))


def grid_steps(t_span: tuple[float, float], dt: float) -> int:
    """Step count of the uniform grid every integrator lays over t_span.

    Raises:
        ValueError: dt not positive, an empty span, a span that is not an
            integer number of steps, or more than MAX_GRID_STEPS steps; the
            message names dt or t_span.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not dt > 0.0:
        raise ValueError("dt: must be positive")
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
    """Reject a nonzero delay shorter than one step (it outruns the buffer)."""
    if tau != 0.0 and tau < dt:
        raise ValueError(f"{name}: delay shorter than dt is not resolvable")


def _make_grid(t_span: tuple[float, float], dt: float) -> np.ndarray:
    steps = grid_steps(t_span, dt)
    times = float(t_span[0]) + dt * np.arange(steps + 1)
    times[-1] = float(t_span[1])
    return times


def _check_finite(y: np.ndarray) -> None:
    # Also true for NaN and +-inf, which compare False.
    if not np.abs(y).max() <= MAGNITUDE_LIMIT:
        raise BlowUp("state magnitude left the finite range")


def _project_simplex(y: np.ndarray) -> np.ndarray:
    y = np.maximum(y, SHARE_FLOOR)
    s = y.sum()
    if abs(s - 1.0) > DRIFT_TOL:
        y = y / s
    return y


def integrate_ode(field: Callable[[float, np.ndarray], np.ndarray],
                  x0, t_span: tuple[float, float], dt: float,
                  *, simplex: bool = False) -> Trajectory:
    """Fixed-step RK4 integration of x' = field(t, x).

    With simplex=True each step is renormalized onto the simplex when the
    sum drifts past DRIFT_TOL and floored at SHARE_FLOOR to preserve
    interiority; population runs use this, generic test problems must not
    (a 1-d decay would be pinned to its initial value by renormalization).

    Raises:
        BlowUp: a state magnitude exceeded MAGNITUDE_LIMIT or went non-finite.
    """
    times = _make_grid(t_span, dt)
    y = np.asarray(x0, dtype=float).copy()
    out = np.empty((times.shape[0], y.shape[0]))
    out[0] = y
    for i, t in enumerate(times[:-1]):
        k1 = field(t, y)
        k2 = field(t + 0.5 * dt, y + (0.5 * dt) * k1)
        k3 = field(t + 0.5 * dt, y + (0.5 * dt) * k2)
        k4 = field(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(y)
        if simplex:
            y = _project_simplex(y)
        out[i + 1] = y
    return Trajectory(times=times, shares=out)


def integrate_dde(field: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
                  x0, tau: float, t_span: tuple[float, float], dt: float,
                  *, simplex: bool = True) -> Trajectory:
    """Method of steps for x'(t) = field(t, x(t), x(t - tau)).

    Each step takes RK4 stages, but the delayed state is read from the
    already-integrated grid by linear interpolation, so the method is
    second order: the error falls by 4 per halving of dt.  Before the start
    the delayed state is the constant x0.  tau = 0 hands the field to
    integrate_ode with the current state fed to both slots.

    Raises:
        ValueError: 0 < tau < dt (one step would outrun the buffer).
        BlowUp: as for integrate_ode.
    """
    check_delay(tau, dt)
    if tau == 0.0:
        return integrate_ode(lambda t, x: field(t, x, x), x0, t_span, dt,
                             simplex=simplex)
    times = _make_grid(t_span, dt)
    t0 = times[0]
    y = np.asarray(x0, dtype=float).copy()
    out = np.empty((times.shape[0], y.shape[0]))
    out[0] = y

    def delayed(tq: float, filled: int) -> np.ndarray:
        if tq <= t0:
            return out[0]
        pos = (tq - t0) / dt
        j = int(pos)
        if j >= filled:
            return out[filled]
        frac = pos - j
        if frac <= 0.0:
            return out[j]
        return out[j] + frac * (out[j + 1] - out[j])

    half, sixth = 0.5 * dt, dt / 6.0
    for i, t in enumerate(times[:-1]):
        k1 = field(t, y, delayed(t - tau, i))
        lag_mid = delayed(t + half - tau, i)
        k2 = field(t + half, y + half * k1, lag_mid)
        k3 = field(t + half, y + half * k2, lag_mid)
        k4 = field(t + dt, y + dt * k3, delayed(t + dt - tau, i))
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(y)
        if simplex:
            y = _project_simplex(y)
        out[i + 1] = y
    return Trajectory(times=times, shares=out)


def _affine_rk4(y, a: float, src, h: float):
    """One RK4 step of y' = a*y - src with constant coefficients (h < 0: back)."""
    k1 = a * y - src
    k2 = a * (y + (0.5 * h) * k1) - src
    k3 = a * (y + (0.5 * h) * k2) - src
    k4 = a * (y + h * k3) - src
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _adjoint_profile(cfg: SystemConfig, times: np.ndarray,
                     requests: np.ndarray) -> np.ndarray:
    """Backward RK4 for g' = (rho+Theta) g - 1 from g(T) = 0, shape (M,).

    Theta(r(t)) is held piecewise constant per interval to match the
    forward pass's piecewise-constant controls.
    """
    rate = (cfg.discount_rate + _uptake(cfg, requests)[1]).tolist()
    m = times.shape[0]
    h = float(times[0] - times[1]) if m > 1 else 0.0
    g = [0.0] * m
    for i in range(m - 1, 0, -1):
        g[i - 1] = _affine_rk4(g[i], rate[i - 1], 1.0, h)
    out = np.array(g)
    _check_finite(out)
    return out


def _adjoint_scales(cfg: SystemConfig) -> tuple[np.ndarray, float]:
    """Adjoints per unit of g: (eta1*p_n*K for each follower, xi1*p_c*K)."""
    return (cfg.ecp_weights[0] * cfg.ecp_access_price * cfg.n_users,
            cfg.ccp_weights[0] * cfg.cloud_access_price * cfg.n_users)


def costate_backward_grid(cfg: SystemConfig, times: np.ndarray,
                          requests: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-integrate all adjoints from zero terminal conditions.

    Expands the scalar profile g into the general adjoint layout of
    `eccsim.stackelberg`: lam (M, N, N) with diagonal eta1*p_n*K*g and zero
    off-diagonal entries, mu (M, N) = xi1*p_c*K*g, theta_mat (M, N, N) = 0.
    The sweep itself carries only g.
    """
    g = _adjoint_profile(cfg, times, requests)
    lam_diag, mu_scale = _adjoint_scales(cfg)
    n = cfg.n_ecps
    lam = np.zeros((g.shape[0], n, n))
    lam[:, np.arange(n), np.arange(n)] = g[:, None] * lam_diag
    mu = np.repeat((mu_scale * g)[:, None], n, axis=1)
    return lam, mu, np.zeros_like(lam)


def _forward_pass(cfg: SystemConfig, x0: np.ndarray, times: np.ndarray,
                  g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the population forward under stationary-point controls.

    At each grid node the adjoints lam_nn = eta1*p_n*K*g, mu_n = xi1*p_c*K*g
    (theta_mat = 0) give the two adjoint terms of the stationary-control
    kernel of `eccsim.stackelberg`; its price and requests are projected
    onto the feasible box (price cap: default_price_cap) and stay frozen
    across the RK4 stages of the step.  The state advances by the reduced
    linear field x' = delta*c - Theta*x (see ReplicatorField).
    """
    n = cfg.n_ecps
    m = times.shape[0]
    dt = float(times[1] - times[0]) if m > 1 else 0.0
    inv_p, gap, mix = _price_gaps(cfg)
    inv_p_sum = float(inv_p.sum())
    lam_diag, mu_scale = _adjoint_scales(cfg)
    p_max = default_price_cap(cfg)
    delta = cfg.learning_rate

    shares = np.empty((m, n + 1))
    requests = np.empty((m, n))
    prices = np.empty(m)
    x = np.asarray(x0, dtype=float).copy()
    for i, gi in enumerate(g.tolist()):
        shares[i] = x
        xe = x[:n]
        lam_dot_q = (gi * lam_diag) * (inv_p - gap * xe)
        flow = -(mu_scale * gi) * (inv_p_sum + float(xe.sum()) * mix)
        a_vec, b_slope, price = _stationary_controls(cfg, xe, lam_dot_q, flow)
        price = min(max(price, 0.0), p_max)
        r = np.minimum(np.maximum(a_vec - b_slope * price, 0.0), CONTROL_CAP)
        total = r.sum()
        if total > CONTROL_CAP:
            r *= CONTROL_CAP / total
        requests[i] = r
        prices[i] = price
        if i == m - 1:
            break
        c, theta = _uptake(cfg, r)
        x = _affine_rk4(x, -theta, -delta * c, dt)
        _check_finite(x)
        x = _project_simplex(x)
    return shares, requests, prices


def _running_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoidal running integral of `values` along axis 0, starting at 0."""
    d = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    out = np.zeros(values.shape)
    np.cumsum(d * (values[1:] + values[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def _attach_utilities(cfg: SystemConfig, traj: Trajectory) -> None:
    """Fill the per-provider utility and discounted running-integral columns."""
    utilities = _payoffs(cfg, traj.shares, traj.requests, traj.prices)
    weighted = np.exp(-cfg.discount_rate * traj.times)[:, None] * utilities
    traj.utilities = utilities
    traj.integral_utilities = _running_trapezoid(weighted, traj.times)


def solve_open_loop(cfg: SystemConfig, x0, *, dt: float,
                    t_span: tuple[float, float] | None = None,
                    max_iter: int = 500, tol: float = 1e-8,
                    costate_tol: float = 1e-6
                    ) -> tuple[Trajectory, SweepReport]:
    """Open-loop equilibrium of the full hierarchical game.

    Iterates the map g -> forward pass -> backward pass -> g from g = 0,
    so the first forward pass runs the myopic controls.  The map is taken
    undamped; it contracts fast on every tested configuration.  Converged
    means the largest share change between sweeps fell below tol and the
    largest adjoint change, max(eta1*max p_n, xi1*p_c)*K * max|dg|, below
    costate_tol.  The returned trajectory is a final forward pass under the
    last g, stored with it, so replaying it reproduces it exactly.  A run
    that exhausts max_iter returns converged=False in the report rather
    than raising.

    Raises:
        BlowUp: integration left the finite range.
        ValueError: malformed grid or parameters.
    """
    if t_span is None:
        t_span = (0.0, cfg.horizon)
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0.0):
        raise ValueError("x0: initial shares must be interior")
    times = _make_grid(t_span, dt)
    lam_diag, mu_scale = _adjoint_scales(cfg)
    adjoint_unit = max(float(np.max(np.abs(lam_diag))), abs(mu_scale))
    g = np.zeros(times.shape[0])
    prev_shares = None
    state_res = costate_res = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        shares, requests, _ = _forward_pass(cfg, x0, times, g)
        if prev_shares is not None:
            state_res = float(np.max(np.abs(shares - prev_shares)))
        g_new = _adjoint_profile(cfg, times, requests)
        costate_res = adjoint_unit * float(np.max(np.abs(g_new - g)))
        g = g_new
        prev_shares = shares
        if state_res < tol and costate_res < costate_tol:
            converged = True
            break
    report = SweepReport(iterations=iterations, state_residual=state_res,
                         costate_terminal_residual=costate_res,
                         converged=converged)
    shares, requests, prices = _forward_pass(cfg, x0, times, g)
    traj = Trajectory(times=times, shares=shares, requests=requests,
                      prices=prices, g=g)
    _attach_utilities(cfg, traj)
    return traj, report


def replay_forward(cfg: SystemConfig, traj: Trajectory) -> Trajectory:
    """Re-run the forward pass under a trajectory's frozen adjoint profile g.

    On a converged solve the result matches the original bit for bit; used
    to certify that the stored schedule is self-consistent.
    """
    if traj.g is None:
        raise ValueError("trajectory stores no adjoints to replay")
    shares, requests, prices = _forward_pass(
        cfg, traj.shares[0].copy(), traj.times, traj.g)
    out = Trajectory(times=traj.times, shares=shares, requests=requests,
                     prices=prices, g=traj.g)
    _attach_utilities(cfg, out)
    return out


def solve_ssec(cfg: SystemConfig, x0, t_span: tuple[float, float],
               dt: float) -> Trajectory:
    """Myopic baseline: each instant's static game, then one population step.

    Identical to the sweep's forward pass with g pinned to zero, i.e.
    providers optimize instantaneous payoff only.
    """
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0.0):
        raise ValueError("x0: initial shares must be interior")
    times = _make_grid(t_span, dt)
    shares, requests, prices = _forward_pass(
        cfg, x0, times, np.zeros(times.shape[0]))
    traj = Trajectory(times=times, shares=shares, requests=requests,
                      prices=prices)
    _attach_utilities(cfg, traj)
    return traj


def solve_fixed(cfg: SystemConfig, x0, r0, t_span: tuple[float, float],
                dt: float) -> Trajectory:
    """Population run under a frozen allocation and zero cloud price.

    Honors cfg.population_delay through integrate_dde with constant
    prehistory x0; zero delay is the plain RK4 run of integrate_ode.
    """
    alloc = AllocationState(np.asarray(r0, dtype=float))
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0.0):
        raise ValueError("x0: initial shares must be interior")
    field = ReplicatorField(cfg, alloc)
    traj = integrate_dde(field.delayed_rate, x0, cfg.population_delay,
                         t_span, dt)
    m = traj.times.shape[0]
    traj.requests = np.tile(alloc.requests, (m, 1))
    traj.prices = np.zeros(m)
    _attach_utilities(cfg, traj)
    return traj


def convergence_time(traj: Trajectory, target, eps: float) -> float | None:
    """First grid time after which the shares stay eps-close to target.

    Closeness is the max-norm against the target shares, required to hold
    from that time through the end of the stored horizon; None if the
    trajectory never locks on.
    """
    if not eps > 0.0:
        raise ValueError("eps: must be positive")
    tgt = target.shares if isinstance(target, PopulationState) else np.asarray(target, float)
    err = np.max(np.abs(traj.shares - tgt[None, :]), axis=1)
    bad = np.nonzero(err >= eps)[0]
    if bad.shape[0] == 0:
        return float(traj.times[0])
    last = int(bad[-1])
    if last == traj.times.shape[0] - 1:
        return None
    return float(traj.times[last + 1])


def integral_utility(traj: Trajectory, who, rho: float) -> float:
    """Discounted integral payoff over the stored horizon.

    `who` is an edge provider index 1..N or the string "ccp"; trapezoidal
    quadrature of exp(-rho*t) times the stored utility column.
    """
    if traj.utilities is None:
        raise ValueError("trajectory stores no utilities")
    n = traj.n_ecps
    if isinstance(who, str):
        if who.lower() != "ccp":
            raise ValueError('who: expected an index in 1..N or "ccp"')
        col = n
    else:
        if not 1 <= int(who) <= n:
            raise ValueError(f"who: must be in 1..{n}")
        col = int(who) - 1
    weighted = np.exp(-rho * traj.times) * traj.utilities[:, col]
    return float(_running_trapezoid(weighted, traj.times)[-1])
