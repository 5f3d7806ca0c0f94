"""Unit tests for the integrators and the equilibrium sweep."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (make_big_cloud_config, make_config, random_market,
                      uptake_reference)

import eccsim.solver
from eccsim.cli import _delay_verdict, load_scenario
from eccsim.model import (AllocationState, PopulationState, _uptake,
                          ccp_instant_utility, ecp_instant_utility)
from eccsim.replicator import ReplicatorField, analytic_ess
from eccsim.solver import (
    COSTATE_TOL,
    LAG_BLOCK,
    MAGNITUDE_LIMIT,
    MAX_GRID_STEPS,
    RK4_REAL_BOUND,
    SHARE_FLOOR,
    SWEEP_TOL,
    BlowUp,
    Trajectory,
    check_delay,
    check_stability,
    convergence_time,
    costate_backward_grid,
    default_price_cap,
    grid_steps,
    integrate_dde,
    integrate_ode,
    replay_forward,
    solve_fixed,
    solve_open_loop,
    solve_ssec,
)
from eccsim.solver import (_adjoint_profile, _adjoint_scales, _affine_rk4,
                           _check_finite, _discount, _forward_pass,
                           _make_grid, _method_of_steps, _project_simplex,
                           _rank_one_rk4, _running_trapezoid, _staged)
from eccsim.stackelberg import CcpCostate, EcpCostate, optimal_controls

E_INV = 0.36787944117144233
# Largest share gap allowed between a delayed solve_fixed (rank-one RK4 map)
# and integrate_dde on the same field (staged RK4): the two sum the same
# steps in another order.  Over 20 000 random draws of the
# test_delayed_pass_matches_dde inputs (2 292 blew up on both routes), the
# gap reached 2.5e-15 on the 14 198 runs whose shares all stayed above 1e-9.
# Where a share sinks to SHARE_FLOOR its per-user utility grows as 1/share,
# and the gap reached 1.1e-12 on the other 3 510: those runs get
# DDE_AT_FLOOR.  (When each step divided by its sum: 4.2e-15 and 4.4e-13.)
DDE_AGREEMENT = 1e-14
DDE_AT_FLOOR = 1e-11
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def decay(y):
    return -y


def population_block(cfg, r0, dt):
    """The rank-one block a delayed solve_fixed steps under allocation r0."""
    c, theta = _uptake(cfg)(list(r0))
    field = ReplicatorField(cfg, AllocationState(r0))
    return _rank_one_rk4(field._lag_terms,
                         [cfg.learning_rate * v for v in c], theta, dt)



class TestGrid:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            integrate_ode(decay, [1.0], (0.0, 1.0), 0.0)

    def test_rejects_non_finite_dt(self):
        # Checked first: nan fails every comparison and inf divides the
        # span into zero steps, which would give the wrong reason.
        for dt in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^dt: must be finite$"):
                grid_steps((0.0, 1.0), dt)

    def test_rejects_reversed_span(self):
        with pytest.raises(ValueError, match="t_span"):
            integrate_ode(decay, [1.0], (1.0, 0.0), 0.1)

    def test_rejects_non_finite_span(self):
        # Not blamed on dt, whose grid an infinite span would overflow.
        for span in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="^t_span: must be finite$"):
                integrate_ode(decay, [1.0], span, 0.1)

    def test_rejects_indivisible_span(self):
        with pytest.raises(ValueError, match="integer number of steps"):
            integrate_ode(decay, [1.0], (0.0, 1.0), 0.3)

    def test_grid_size_cap(self):
        # Checked before any array is laid out; 1e-320 overflows the count.
        assert grid_steps((0.0, 1.0), 1e-6) == MAX_GRID_STEPS
        for dt in (1e-7, 1e-320):
            with pytest.raises(ValueError, match="^dt: grid would exceed"):
                grid_steps((0.0, 1.0), dt)

    @pytest.mark.parametrize("message,call", [
        ("t_span: must be numeric", lambda: grid_steps(("a", 1.0), 0.1)),
        ("t_span: expected a (start, end) pair",
         lambda: grid_steps((0.0,), 0.1)),
        ("t_span: expected a (start, end) pair",
         lambda: grid_steps((0.0, 1.0, 2.0), 0.1)),
        ("dt: must be numeric", lambda: grid_steps((0.0, 1.0), "0.1")),
        ("dt: must be a number", lambda: grid_steps((0.0, 1.0), [0.1])),
        ("dt: must be numeric",
         lambda: integrate_ode(decay, [1.0], (0.0, 1.0), "0.1")),
        ("dt: must be numeric",
         lambda: integrate_dde(lambda now, lag: -lag, [1.0], 0.5,
                               (0.0, 1.0), "0.1")),
        ("dt: must be numeric",
         lambda: check_stability(make_config(), "0.1")),
        ("tau: must be numeric", lambda: check_delay("0.5", 0.1)),
    ], ids=["span", "short_span", "long_span", "dt", "dt_vector", "ode",
            "dde", "stability", "delay"])
    def test_malformed_input_names_itself(self, message, call):
        # Named before any arithmetic reads it (integrate_ode and
        # integrate_dde build their RK4 stages from dt).
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_grid_is_uniform_and_exact(self):
        traj = integrate_ode(decay, [1.0], (0.0, 2.0), 0.1)
        assert traj.times.shape == (21,)
        assert traj.times[-1] == 2.0
        np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-12)


class TestIntegrateOde:
    def test_exponential_oracle(self):
        traj = integrate_ode(decay, [1.0], (0.0, 1.0), 0.001)
        assert traj.shares[-1, 0] == pytest.approx(E_INV, abs=1e-12)

    def test_fourth_order_decay(self):
        errs = []
        for dt in (0.1, 0.05):
            traj = integrate_ode(decay, [1.0], (0.0, 1.0), dt)
            errs.append(abs(traj.shares[-1, 0] - E_INV))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_constant_field_is_exact(self):
        traj = integrate_ode(lambda y: np.array([2.0]), [0.0],
                             (0.0, 3.0), 0.5)
        assert traj.shares[-1, 0] == pytest.approx(6.0, abs=1e-12)

    def test_blowup_raises(self):
        # y' = y^2 from y(0)=2 blows up at t = 0.5.
        with pytest.raises(BlowUp):
            integrate_ode(lambda y: y * y, [2.0], (0.0, 1.0), 0.01)

    def test_non_finite_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(BlowUp):
                integrate_ode(lambda y: np.array([bad]), [1.0],
                              (0.0, 1.0), 0.1)

    @pytest.mark.parametrize("field", [
        lambda y, z: -y[:1],
        lambda y, z: np.append(-y, 0.0),
        lambda y, z: float(-y[0]),
    ], ids=["shorter", "longer", "scalar"])
    def test_rejects_field_of_wrong_length(self, field):
        # A shorter vector used to leave unwritten rows in the trajectory,
        # a longer one was cut to the state's length, and a scalar failed
        # inside the step loop.  Checked undelayed and delayed.
        match = "^field: must return a vector as long as the state$"
        with pytest.raises(ValueError, match=match):
            integrate_ode(lambda y: field(y, y), [1.0, 2.0],
                          (0.0, 1.0), 0.1)
        with pytest.raises(ValueError, match=match):
            integrate_dde(field, [1.0, 2.0], 0.5, (0.0, 1.0), 0.1,
                          simplex=False)

    def test_simplex_projection_keeps_interior(self):
        drift = np.array([-10.0, 10.0, 0.0])
        traj = integrate_ode(lambda y: drift, [0.3, 0.3, 0.4],
                             (0.0, 1.0), 0.01, simplex=True)
        assert np.all(traj.shares > 0.0)
        np.testing.assert_allclose(traj.shares.sum(axis=1), 1.0, atol=1e-12)

    def test_replicator_preserves_simplex_unprojected(self, cfg, x0):
        field = ReplicatorField(cfg, AllocationState([0.0, 0.0]))
        traj = integrate_ode(field.rate, x0, (0.0, 10.0), 0.01)
        drift = np.max(np.abs(traj.shares.sum(axis=1) - 1.0))
        assert drift < 1e-12


class TestIntegrateDde:
    def test_zero_delay_matches_ode_bitwise(self, cfg, x0):
        field = ReplicatorField(cfg, AllocationState([0.1, 0.2]))
        ode = integrate_ode(field.rate, x0, (0.0, 5.0), 0.01, simplex=True)
        dde = integrate_dde(field.delayed_rate, x0, 0.0, (0.0, 5.0), 0.01,
                            simplex=True)
        np.testing.assert_array_equal(ode.shares, dde.shares)

    def test_rejects_sub_step_delay(self):
        with pytest.raises(ValueError, match="tau"):
            integrate_dde(lambda y, z: -z, [1.0], 0.005, (0.0, 1.0), 0.01)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_delay(self, tau):
        with pytest.raises(ValueError, match="^tau: must be finite"):
            integrate_dde(lambda y, z: -z, [1.0], tau, (0.0, 1.0), 0.01)

    def test_rejects_negative_delay(self):
        # A negative shift would read rows the loop has not written yet.
        with pytest.raises(ValueError, match="^tau: must be nonnegative$"):
            integrate_dde(lambda y, z: -z, [1.0], -0.5, (0.0, 1.0), 0.01)

    def test_delay_past_the_run_reads_x0(self, x0):
        # At tau = 1e308, tau/dt overflows to inf.  Any delay past the run
        # reads x0 at every lag, as tau = 2T does: both give the same
        # bytes, through integrate_dde and a delayed solve_fixed alike.
        def run(tau):
            cfg = make_config(population_delay=tau)
            field = ReplicatorField(cfg, AllocationState([0.1, 0.2]))
            return [integrate_dde(field.delayed_rate, x0, tau, (0.0, 3.0),
                                  0.01, simplex=True).shares.tobytes(),
                    solve_fixed(dataclasses.replace(cfg, horizon=3.0), x0,
                                [0.1, 0.2], 0.01).shares.tobytes()]

        assert run(1e308) == run(6.0)

    def test_zero_delay_reads_only_stored_rows(self):
        # At tau = 0 x(t - tau) is x(t): every RK4 stage hands the state its
        # field is called at as its lag, so no stored row is read and no lag
        # is interpolated.  A position taken from the grid times,
        # (t - tau - t0)/dt, could fall a rounding error below a node.
        assert _make_grid((0.0, 30.0), 0.01).shape == (3001,)
        calls = []

        def field(now, lag):
            calls.append((lag.tolist(), now.tolist()))
            return -0.1 * now

        _method_of_steps(_staged(field, 0.01, _check_finite), [0.3, 0.7],
                         0.0, _make_grid((0.0, 30.0), 0.01), 0.01)
        assert len(calls) == 4 * 3000
        assert all(lag == now for lag, now in calls)

    def test_zero_delay_runs_lag_block_wide_blocks(self):
        # With no lag to bound it, a zero-delay block is LAG_BLOCK steps
        # wide: 3000 steps make 11 full blocks and one of 184.
        widths = []

        block = _staged(lambda now, lag: -0.1 * now, 0.01, _check_finite)

        def counted(steps, lags, y):
            widths.append(steps)
            return block(steps, lags, y)

        _method_of_steps(counted, [0.3, 0.7], 0.0,
                         _make_grid((0.0, 30.0), 0.01), 0.01)
        assert widths == [LAG_BLOCK] * (3000 // LAG_BLOCK) + [
            3000 % LAG_BLOCK]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_curried_kernel_builds_the_stage(self, n):
        # The array field staged by _staged sees each RK4 stage built bit
        # for bit as a list would be, at its row's lag: k1 at row
        # 0 and y, k2 and k3 at row 1 and y + dt/2*k, k4 at row 2 and
        # y + dt*k3, and the step is RK4's sum of the four, which the block
        # also hands on as the state the next block starts from.
        rng = np.random.default_rng(n)
        seen = []

        def field(now, lag):
            seen.append((now.tolist(), lag.tolist()))
            return np.sin(now) * lag

        dt, lags = 0.25, rng.normal(size=(3, n))
        y = rng.normal(size=n).tolist()
        (got,), last = _staged(field, dt, _check_finite)(1, lags, y)
        assert last is got

        def at(lag, base, slope, h):
            now = [a + h * k for a, k in zip(base, slope)]
            assert seen.pop(0) == (now, lag.tolist())
            return (np.sin(now) * lag).tolist()

        k1 = at(lags[0], y, y, 0.0)
        k2 = at(lags[1], y, k1, 0.5 * dt)
        k3 = at(lags[1], y, k2, 0.5 * dt)
        k4 = at(lags[2], y, k3, dt)
        assert not seen
        assert got == [v + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                       for v, a, b, c, d in zip(y, k1, k2, k3, k4)]

    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.3])
    def test_two_lag_reads_per_step(self, x0, tau, monkeypatch):
        # Stages k2 and k3 share the mid-step lag, and the end-of-step lag
        # of k4 is the next step's start lag: a delayed solve_fixed hands
        # its rank-one block two lag rows per step plus one start row per
        # block (2*steps + blocks), and stages no field.
        rows = []

        def counted(field, lags, _orig=ReplicatorField._lag_terms):
            rows.append(len(lags))
            return _orig(field, lags)

        def staged(field, dt, settle):
            raise AssertionError("a delayed run stages no field")

        monkeypatch.setattr(ReplicatorField, "_lag_terms", counted)
        monkeypatch.setattr(eccsim.solver, "_staged", staged)
        solve_fixed(make_config(population_delay=tau, horizon=1.0), x0,
                    [0.1, 0.2], 0.1)
        assert all(r % 2 == 1 for r in rows)
        assert sum(rows) == 2 * 10 + len(rows)

    @pytest.mark.parametrize("tau,dt,t_end", [
        (0.1, 0.1, 2.0),       # tau = dt: one step per block
        (0.15, 0.1, 2.0),      # tau = 1.5 dt
        (0.3, 0.1, 2.5),       # tau/dt = 2.9999999999999996: two steps
        (0.73, 0.1, 5.0),      # tau/dt = 7.3: seven steps, 50 = 7*7 + 1
        (1.7, 0.01, 5.0),      # tau/dt = 170: 169 steps, 500 = 2*169 + 162
        (3.0, 0.01, 6.0),      # tau/dt = 300: LAG_BLOCK steps bound the block
    ])
    def test_lag_rows_interpolate_the_trajectory(self, tau, dt, t_end):
        # Every lag row handed to the block is the linear interpolation of
        # the returned trajectory at its grid position, x0 at or below 0,
        # bit for bit; a block of steps s..e-1 gets the rows at s, s + 1/2,
        # .., e, less tau/dt.  A block that reads a row before the loop has
        # written it gets a value the finished trajectory does not hold.
        blocks = []

        block = population_block(make_config(), [0.1, 0.2], dt)

        def spied(steps, lags, y):
            blocks.append(lags.tolist())
            return block(steps, lags, y)

        x0 = [0.3, 0.3, 0.4]
        traj = _method_of_steps(spied, x0, tau, _make_grid((0.0, t_end), dt),
                                dt)
        shares = traj.shares.tolist()
        steps = len(shares) - 1
        window = {0.1: 1, 0.15: 1, 0.3: 2, 0.73: 7, 1.7: 169, 3.0: 299}[tau]
        width = min(window, LAG_BLOCK)
        assert [len(b) // 2 for b in blocks] == (
            [width] * (steps // width) + [steps % width] * (steps % width > 0))
        shift = tau / dt
        positions = [p for s in range(0, steps, width)
                     for p in [s - shift] + [
                         q for i in range(s, min(s + width, steps))
                         for q in ((i + 0.5) - shift, (i + 1) - shift)]]
        rows = [row for b in blocks for row in b]
        want = []
        for p in positions:
            j = int(p)
            if p <= 0.0:
                want.append(x0)
            elif p == j:
                want.append(shares[j])
            else:
                want.append([a + (p - j) * (b - a)
                             for a, b in zip(shares[j], shares[j + 1])])
        assert len(rows) == 2 * steps + len(blocks)
        assert np.array(rows).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("route,tau", [
        ("fixed", 0.7), ("fixed", 0.73), ("fixed", 1.7),
        ("ode", 0.0), ("dde", 0.0), ("dde", 0.7)])
    def test_block_width_does_not_show(self, route, tau, monkeypatch):
        # Blocks only group steps: one step per block and LAG_BLOCK-wide
        # blocks give the same shares, byte for byte, on every route that
        # steps in blocks (a zero-delay solve_fixed is closed form).
        scn = load_scenario(str(SCENARIOS / "scenario_delay.json"))
        cfg = dataclasses.replace(scn.cfg, population_delay=tau)
        field = ReplicatorField(cfg, AllocationState(scn.r0))
        run = {
            "fixed": lambda: solve_fixed(cfg, scn.x0, scn.r0, scn.dt),
            "ode": lambda: integrate_ode(field.rate, scn.x0, (0.0, 5.0),
                                         scn.dt, simplex=True),
            "dde": lambda: integrate_dde(field.delayed_rate, scn.x0, tau,
                                         (0.0, 5.0), scn.dt, simplex=True),
        }[route]
        shares = []
        for width in (1, LAG_BLOCK):
            monkeypatch.setattr(eccsim.solver, "LAG_BLOCK", width)
            shares.append(run().shares.tobytes())
        assert shares[0] == shares[1]

    def test_default_is_plain_method_of_steps(self):
        # No flag: y' = -y(t - 1) from y == 1, whose exact y(3) is -1/6;
        # a projection would pin the 1-d state at 1.
        traj = integrate_dde(lambda y, z: -z, [1.0], 1.0, (0.0, 3.0), 0.1)
        plain = integrate_dde(lambda y, z: -z, [1.0], 1.0, (0.0, 3.0), 0.1,
                              simplex=False)
        assert traj.shares.tobytes() == plain.shares.tobytes()
        assert abs(traj.shares[-1, 0] + 1.0 / 6.0) < 1e-3

    def test_constant_prehistory_linear_segment(self):
        # y' = -y(t - 0.5) with y == 1 before t=0: y(t) = 1 - t on [0, 0.5].
        traj = integrate_dde(lambda y, z: -z, [1.0], 0.5,
                             (0.0, 0.5), 0.05, simplex=False)
        np.testing.assert_allclose(traj.shares[:, 0], 1.0 - traj.times,
                                   atol=1e-12)

    def test_second_order_delayed_decay(self):
        # x' = -x(t - 1) with x == 1 before t=0 has x(3) = -1/6 exactly.
        errs = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            traj = integrate_dde(lambda y, z: -z, [1.0], 1.0,
                                 (0.0, 3.0), dt, simplex=False)
            errs.append(abs(traj.shares[-1, 0] + 1.0 / 6.0))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.8 < coarse / fine < 4.2

    def test_second_order_off_grid_delay(self):
        # x' = -x(t - 0.73), x == 1 before t=0: on [2 tau, 3 tau], which
        # holds t = 2, x(t) = 1 - t + (t-tau)^2/2 - (t-2 tau)^3/6.  The delay
        # is no multiple of any dt below, so every lag is interpolated.
        tau = 0.73
        exact = 1.0 - 2.0 + (2.0 - tau) ** 2 / 2.0 - (2.0 - 2.0 * tau) ** 3 / 6.0
        errs = []
        for dt in (0.1, 0.05, 0.025, 0.0125, 0.00625):
            traj = integrate_dde(lambda y, z: -z, [1.0], tau,
                                 (0.0, 2.0), dt, simplex=False)
            errs.append(abs(traj.shares[-1, 0] - exact))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 < coarse / fine < 4.6

    def test_subcritical_delay_converges(self, cfg, x0):
        alloc = AllocationState([0.0, 0.0])
        field = ReplicatorField(cfg, alloc)
        traj = integrate_dde(field.delayed_rate, x0, 0.7, (0.0, 30.0), 0.01,
                             simplex=True)
        ess = analytic_ess(cfg, alloc).shares.shares
        assert np.max(np.abs(traj.shares[-1] - ess)) < 1e-3
        np.testing.assert_allclose(traj.shares.sum(axis=1), 1.0, atol=1e-9)


class TestTrajectory:
    def test_accessors(self, cfg, x0):
        traj = solve_fixed(dataclasses.replace(cfg, horizon=1.0), x0,
                           [0.1, 0.2], 0.1)
        assert isinstance(traj.state(0), PopulationState)
        snap = traj.snapshot(3)
        assert snap.price == 0.0
        np.testing.assert_array_equal(snap.allocation.requests, [0.1, 0.2])

    def test_index_at_rounds_to_nearest(self):
        traj = integrate_ode(decay, [1.0], (0.0, 1.0), 0.1)
        assert traj.index_at(0.74) == 7
        assert traj.index_at(0.76) == 8
        assert traj.index_at(5.0) == 10

    def test_upto_includes_endpoint(self):
        traj = integrate_ode(decay, [1.0], (0.0, 1.0), 0.1)
        head = traj.upto(0.5)
        assert head.times.shape == (6,)
        assert head.times[-1] == pytest.approx(0.5)

    def test_allocation_requires_schedule(self):
        traj = integrate_ode(decay, [1.0], (0.0, 1.0), 0.1)
        with pytest.raises(ValueError, match="no control schedule"):
            traj.allocation(0)

    def test_fields(self):
        # The payoff columns are derived, not stored.
        assert [f.name for f in dataclasses.fields(Trajectory)] == [
            "times", "shares", "requests", "prices", "g", "cfg"]

    def test_integrator_record_has_no_payoffs(self):
        traj = integrate_ode(decay, [1.0], (0.0, 1.0), 0.1)
        assert traj.cfg is None
        assert traj.utilities is None
        assert traj.integral_utilities is None

    def test_payoffs_computed_once_on_first_read(self, cfg, x0, monkeypatch):
        calls = []

        def counted(*args, _orig=eccsim.solver._payoffs):
            calls.append(args)
            return _orig(*args)

        monkeypatch.setattr(eccsim.solver, "_payoffs", counted)
        traj = solve_fixed(dataclasses.replace(cfg, horizon=1.0), x0,
                           [0.1, 0.2], 0.1)
        assert calls == []
        first = traj.utilities, traj.integral_utilities
        again = traj.utilities, traj.integral_utilities
        assert len(calls) == 1
        assert all(a is b for a, b in zip(first, again))

    def test_upto_keeps_cfg_and_prefixes_the_payoffs(self, solved):
        # The shorter record derives its own columns from the same cfg;
        # they are the full ones' first rows, bit for bit.
        scn = load_scenario(str(SCENARIOS / "scenario_a_fixed.json"))
        fixed = solve_fixed(scn.cfg, scn.x0, scn.r0, scn.dt)
        for full in (fixed, solved[1]):
            head = full.upto(0.8 * float(full.times[-1]))
            m = head.times.shape[0]
            assert 1 < m < full.times.shape[0]
            assert head.cfg is full.cfg
            for name in ("utilities", "integral_utilities"):
                got, want = getattr(head, name), getattr(full, name)[:m]
                assert got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name


@pytest.fixture(scope="module")
def grids():
    cfg = make_config()
    times = np.round(np.arange(0.0, 50.0 + 1e-9, 0.01), 10)
    requests = np.zeros((times.shape[0], 2))
    return cfg, times, costate_backward_grid(cfg, times, requests)


class TestCostateBackward:
    # Closed form lam_nn(t) = (eta1 p_n K / a)(1 - e^{a(t-T)}), a = rho+Theta,
    # frozen for the duopoly at r == 0, rho=0.1, T=50.
    ORACLE = [
        (0.0, 94.73682951051154, 63.15788634034103),
        (25.0, 94.70229956633082, 63.134866377553884),
        (45.0, 75.28834822927176, 50.19223215284784),
        (49.0, 25.714082604183826, 17.14272173612255),
    ]

    def test_shapes_and_terminal(self, grids):
        _, times, (lam, mu, theta_mat) = grids
        m = times.shape[0]
        assert lam.shape == (m, 2, 2)
        assert mu.shape == (m, 2)
        assert theta_mat.shape == (m, 2, 2)
        assert not lam[-1].any() and not mu[-1].any()
        assert not theta_mat.any()

    @pytest.mark.parametrize("t,lam11,mu_val", ORACLE)
    def test_matches_closed_form(self, grids, t, lam11, mu_val):
        _, times, (lam, mu, _) = grids
        i = int(np.argmin(np.abs(times - t)))
        assert lam[i, 0, 0] == pytest.approx(lam11, rel=1e-6)
        assert mu[i, 0] == pytest.approx(mu_val, rel=1e-6)

    def test_off_diagonal_stays_zero(self, grids):
        _, _, (lam, _, _) = grids
        assert not lam[:, 0, 1].any() and not lam[:, 1, 0].any()

    def test_expands_scalar_profile(self):
        # Along a moving request schedule every adjoint is a fixed multiple
        # of the one profile g; the homogeneous components are exactly 0.
        cfg = make_big_cloud_config(horizon=10.0)
        traj = solve_ssec(cfg, [0.3, 0.3, 0.4], 0.01)
        lam, mu, theta_mat = costate_backward_grid(cfg, traj.times,
                                                   traj.requests)
        g = _adjoint_profile(cfg, traj.times,
                             [_uptake(cfg)(r)[1]
                              for r in traj.requests[:-1].tolist()])
        assert g[-1] == 0.0 and g[0] > 0.0
        eta1, xi1, users = cfg.ecp_weights[0], cfg.ccp_weights[0], cfg.n_users
        for k, p_k in enumerate(cfg.ecp_access_price):
            np.testing.assert_array_equal(lam[:, k, k],
                                          g * (eta1 * p_k * users))
            np.testing.assert_array_equal(
                mu[:, k], (xi1 * cfg.cloud_access_price * users) * g)
        assert not lam[:, 0, 1].any() and not lam[:, 1, 0].any()
        assert not theta_mat.any()

    @pytest.mark.parametrize("rows,cols,match", [
        (8, 2, "times"), (15, 2, "times"), (11, 3, "n_ecps")])
    def test_rejects_requests_of_wrong_shape(self, rows, cols, match):
        # Too few rows used to fail inside the list indexing, too many were
        # cut off, and a third column was summed into r_c.
        cfg = make_config()
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match=f"^requests: length "
                                             f"inconsistent with {match}$"):
            costate_backward_grid(cfg, times, np.zeros((rows, cols)))

    def test_reads_lists_and_names_non_numeric_input(self):
        # Lists are read as arrays; a string is named, not met with a
        # missing `shape`.
        cfg = make_config()
        times = np.linspace(0.0, 1.0, 11)
        requests = np.full((11, 2), 0.1)
        want = costate_backward_grid(cfg, times, requests)
        got = costate_backward_grid(cfg, times.tolist(), requests.tolist())
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        for field, args in (("times", ("abc", requests)),
                            ("requests", (times, "abc"))):
            with pytest.raises(ValueError, match=f"^{field}: must be numeric$"):
                costate_backward_grid(cfg, *args)

    def test_rows_scale_with_access_price(self, grids):
        # Source eta1*p_n*K makes lam22 = (p_2/p_1) * lam11 pointwise.
        _, _, (lam, _, _) = grids
        np.testing.assert_allclose(lam[:, 1, 1], lam[:, 0, 0] * (2.0 / 3.0),
                                   rtol=1e-12)


def staged_rk4(y, a, src, h):
    """The staged RK4 step of y' = a*y - src that _affine_rk4's map replaced."""
    k1 = a * y - src
    k2 = a * (y + (0.5 * h) * k1) - src
    k3 = a * (y + (0.5 * h) * k2) - src
    k4 = a * (y + h * k3) - src
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_affine_map_is_the_staged_step(sign):
    # RK4 on y' = a*y - src is y -> R*y - S*src.  The two spellings round
    # apart by a few eps times the terms' size: |y| + |h*src|, times the sum
    # of the polynomials' absolute terms, at most e^|z|.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(18)
    for _ in range(2000):
        h = sign * 10.0 ** rng.uniform(-3.0, 0.5)
        a = rng.uniform(-2.5, 2.5) / h
        y, src = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        grow, shift = _affine_rk4(a, h)
        bound = 8.0 * eps * math.exp(abs(a * h)) * (abs(y) + abs(h * src))
        assert abs((grow * y - shift * src) - staged_rk4(y, a, src, h)) <= bound


def test_rk4_real_bound_is_where_the_step_stops_damping():
    # R(z) = 1 at z = -RK4_REAL_BOUND: RK4's step damps y' = a*y, a < 0,
    # inside the bound and amplifies past it (R > 0 on the whole axis).
    for factor, sign in ((1.0 - 1e-9, -1.0), (1.0 + 1e-9, 1.0)):
        grow, _ = _affine_rk4(-RK4_REAL_BOUND * factor, 1.0)
        assert math.copysign(1.0, grow - 1.0) == sign
    assert abs(_affine_rk4(-RK4_REAL_BOUND, 1.0)[0] - 1.0) < 1e-13


@pytest.mark.parametrize("scheme", ["olsec", "ssec", "fixed"])
def test_library_dt_past_rk4_bound_raises(scheme):
    # The solvers check dt against RK4's real stability bound themselves,
    # with the CLI's message: library calls are covered too.
    scn = load_scenario(str(SCENARIOS / "scenario_a_fixed.json"))
    cfg, x0, r0 = scn.cfg, scn.x0, scn.r0
    vertices = np.vstack([np.zeros(cfg.n_ecps), np.eye(cfg.n_ecps)])
    limit = RK4_REAL_BOUND / (
        cfg.discount_rate + float(uptake_reference(cfg, vertices)[1].max()))
    def short(dt):
        return dataclasses.replace(cfg, horizon=10.0 * dt)

    run = {
        "olsec": lambda dt: solve_open_loop(short(dt), x0, dt=dt),
        "ssec": lambda dt: solve_ssec(short(dt), x0, dt),
        "fixed": lambda dt: solve_fixed(short(dt), x0, r0, dt),
    }[scheme]
    with pytest.raises(ValueError, match="^dt: above 8.79566, RK4's"):
        run(limit * (1.0 + 1e-6))
    run(limit * (1.0 - 1e-6))


@pytest.mark.parametrize("scheme", ["olsec", "ssec", "fixed", "delayed"])
def test_solvers_run_over_the_configured_horizon(scheme):
    # The solvers take no span: each lays its grid over [0, cfg.horizon],
    # and a configuration with another horizon, the route --horizon takes,
    # moves the grid's end with it.
    cfg = make_config(population_delay=0.5 if scheme == "delayed" else 0.0)
    x0, r0 = [0.3, 0.3, 0.4], [0.1, 0.2]
    run = {
        "olsec": lambda cfg: solve_open_loop(cfg, x0, dt=0.1)[0],
        "ssec": lambda cfg: solve_ssec(cfg, x0, 0.1),
        "fixed": lambda cfg: solve_fixed(cfg, x0, r0, 0.1),
        "delayed": lambda cfg: solve_fixed(cfg, x0, r0, 0.1),
    }[scheme]
    for horizon, steps in ((2.0, 20), (3.5, 35)):
        traj = run(dataclasses.replace(cfg, horizon=horizon))
        assert traj.times.shape == (steps + 1,)
        assert traj.times[0] == 0.0 and traj.times[-1] == horizon


@pytest.mark.parametrize("solver", ["olsec", "ssec", "replay"])
def test_undelayed_solvers_reject_a_population_delay(solver, solved):
    # Only solve_fixed models a reaction delay; the sweep's forward pass
    # would return the undelayed shares, so the other routes refuse it
    # with the CLI's message.
    cfg, traj, _ = solved
    delayed = dataclasses.replace(cfg, population_delay=5.0)
    run = {
        "olsec": lambda: solve_open_loop(delayed, [0.3, 0.3, 0.4], dt=0.1),
        "ssec": lambda: solve_ssec(delayed, [0.3, 0.3, 0.4], 0.1),
        "replay": lambda: replay_forward(
            dataclasses.replace(traj, cfg=delayed)),
    }[solver]
    with pytest.raises(ValueError, match="^population_delay: only the "
                                         "fixed-controls scheme models delay$"):
        run()


def smooth_terms(lags):
    """Lag terms (u, G) of a made-up rank-one field, positive and smooth."""
    return 1.0 + np.sin(lags) ** 2, 0.5 + 0.25 * np.cos(lags)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 10])
@pytest.mark.parametrize("tau,dt", [(0.1, 0.1), (0.37, 0.05), (2.0, 0.01)])
def test_rank_one_map_is_the_staged_step(n, tau, dt):
    # RK4 on the delayed population field G*(u - x . u), with (u, G) read
    # from the lag rows (ReplicatorField._lag_terms) of a random market: the
    # precomputed map, which takes G*u as the constant delta*c and carries
    # the state unnormalised, and the four staged field calls of
    # integrate_dde step the same projected trajectory, apart by rounding
    # only (1.0e-15 at most).  At learning rate 0.5 every share stays above
    # 0.015, off the floor.
    cfg, x0, r0 = random_market(n, n)
    cfg = dataclasses.replace(cfg, learning_rate=0.5)
    field = ReplicatorField(cfg, AllocationState(r0))
    mapped = _method_of_steps(population_block(cfg, r0, dt), x0, tau,
                              _make_grid((0.0, 3.0), dt), dt)
    staged = integrate_dde(field.delayed_rate, x0, tau, (0.0, 3.0), dt,
                           simplex=True)
    np.testing.assert_allclose(mapped.shares, staged.shares, rtol=0.0,
                               atol=1e-14)
    assert np.ptp(mapped.shares, axis=0).max() > 0.01  # the state moves


def left_total(values):
    """Sum from 0.0, left to right, as the float loops add."""
    out = 0.0
    for v in values:
        out += v
    return out


@pytest.mark.parametrize("n", range(1, 11))
def test_rank_one_map_follows_its_formula(n):
    # The block's four steps, each row against the docstring's formula on
    # the carried state: y scaled by the power of two that puts its sum
    # sigma in [0.5, 1), then per step the map with its constant terms
    # times sigma, the floor at sigma*SHARE_FLOOR, the new sum, and the row
    # y/sigma.  In Python floats with every sum over components left to
    # right from 0.0, bit for bit: numpy would add 8 or more entries
    # pairwise.  The block takes source and theta as given, so made-up
    # ones check the formula.
    rng = np.random.default_rng(40 + n)
    dt = 0.01
    lags = rng.uniform(0.1, 1.0, size=(9, n))
    y = rng.uniform(0.1, 1.0, size=n).tolist()
    source = rng.uniform(0.1, 1.0, size=n).tolist()
    theta = float(rng.uniform(0.5, 2.0))
    rows, last = _rank_one_rk4(smooth_terms, source, theta, dt)(4, lags, y)
    assert rows.shape == (4, n)
    u, g = (a.tolist() for a in smooth_terms(lags))
    sigma = left_total(y)
    scale = 2.0 ** -math.frexp(sigma)[1]
    y, sigma = [v * scale for v in y], sigma * scale
    assert 0.5 <= sigma < 1.0
    for k, row in enumerate(rows.tolist()):
        u1, u2, u4 = u[2 * k], u[2 * k + 1], u[2 * k + 2]
        g1, g2, g4 = g[2 * k], g[2 * k + 1], g[2 * k + 2]
        a2 = sigma * left_total(a * b for a, b in zip(source, u2))
        b12 = left_total(a * b for a, b in zip(g1, u2))
        a4 = sigma * left_total(a * c for a, c in zip(source, u4))
        b24 = left_total(a * c for a, c in zip(g2, u4))
        m1 = left_total(a * b for a, b in zip(y, u1))
        d2 = left_total(a * b for a, b in zip(y, u2))
        m2 = d2 + 0.5 * dt * (a2 - m1 * b12)
        m3 = d2 + 0.5 * dt * (a2 - m2 * theta)
        m4 = left_total(a * b for a, b in zip(y, u4)) + dt * (a4 - m3 * b24)
        step = [v + sigma * (dt * s) - (
                    (dt / 6.0 * m1) * p + (dt / 3.0 * (m2 + m3)) * q
                    + (dt / 6.0 * m4) * r)
                for v, s, p, q, r in zip(y, source, g1, g2, g4)]
        assert max(abs(v) for v in step) <= sigma * MAGNITUDE_LIMIT
        y = [max(v, sigma * SHARE_FLOOR) for v in step]
        sigma = left_total(y)
        assert row == [v / sigma for v in y]
    assert last == y


@pytest.mark.parametrize("k", [-40, 40])
def test_rank_one_block_ignores_the_carried_scale(k):
    # A block started from 2**k * y returns the rows of one started from
    # y, bit for bit, and hands on the same state: it rescales by the
    # power of two of its start sum, which is exact.
    cfg, _, r0 = random_market(3, 3)
    rng = np.random.default_rng(5)
    lags = rng.dirichlet(np.ones(4), size=9)
    y = rng.uniform(0.1, 1.0, size=4).tolist()
    block = population_block(cfg, r0, 0.01)
    rows, last = block(4, lags, y)
    scaled_rows, scaled_last = block(4, lags, [math.ldexp(v, k) for v in y])
    assert scaled_rows.tobytes() == rows.tobytes()
    assert scaled_last == last


@pytest.fixture(scope="module")
def solved():
    cfg = make_config(horizon=10.0)
    traj, report = solve_open_loop(cfg, [0.3, 0.3, 0.4], dt=0.01)
    return cfg, traj, report


@pytest.fixture(scope="module")
def solved_big():
    cfg = make_big_cloud_config(horizon=10.0)
    traj, report = solve_open_loop(cfg, [0.3, 0.3, 0.4], dt=0.01)
    return cfg, traj, report


class TestSweep:
    def test_converges(self, solved):
        _, _, report = solved
        assert report.converged
        assert report.iterations <= 500
        assert report.state_residual < 1e-8

    def test_replay_is_bit_identical(self, solved):
        _, traj, _ = solved
        again = replay_forward(traj)
        np.testing.assert_array_equal(traj.shares, again.shares)
        np.testing.assert_array_equal(traj.requests, again.requests)
        np.testing.assert_array_equal(traj.prices, again.prices)

    def test_deterministic(self, solved):
        cfg, traj, _ = solved
        traj2, _ = solve_open_loop(cfg, [0.3, 0.3, 0.4], dt=0.01)
        np.testing.assert_array_equal(traj.shares, traj2.shares)
        np.testing.assert_array_equal(traj.prices, traj2.prices)

    def test_stored_controls_feasible(self, solved):
        _, traj, _ = solved
        assert np.all(traj.requests >= 0.0)
        assert np.all(traj.requests.sum(axis=1) <= 1.0)
        assert np.all(traj.prices >= 0.0)

    def test_costates_attached(self, solved):
        _, traj, _ = solved
        assert traj.g is not None
        assert traj.g.shape == traj.times.shape
        assert traj.g[-1] == 0.0
        assert traj.utilities is not None
        assert traj.integral_utilities is not None

    def test_utilities_equal_snapshot_payoffs(self, solved):
        # One payoff implementation: the trajectory columns are exactly the
        # per-snapshot provider payoffs at every node.
        cfg, traj, _ = solved
        n = cfg.n_ecps
        for i in range(traj.times.shape[0]):
            snap = traj.snapshot(i)
            want = [ecp_instant_utility(cfg, snap, k) for k in range(1, n + 1)]
            want.append(ccp_instant_utility(cfg, snap))
            assert traj.utilities[i].tolist() == want

    def test_big_cloud_duopoly_converges_fast(self):
        # The Anderson-mixed map settles in 7 maps at T=50, dt=0.01 (the
        # plain map took 9, the control-damped sweep before it 35).
        cfg = make_big_cloud_config()
        _, report = solve_open_loop(cfg, [0.3, 0.3, 0.4], dt=0.01)
        assert report.converged
        assert report.iterations <= 8

    def test_mixing_changes_the_work_not_the_answer(self):
        # The plain map g -> image, iterated here to the same two
        # tolerances, reaches the same equilibrium in more maps.
        def plain(cfg, x0, times):
            lam_diag, mu_scale = _adjoint_scales(cfg)
            unit = max(float(np.max(np.abs(lam_diag))), abs(mu_scale))
            g, prev = np.zeros(times.shape[0]), None
            for maps in range(1, 100):
                traj = _forward_pass(cfg, x0, times, g)
                g = _adjoint_profile(cfg, times, [
                    _uptake(cfg)(r)[1]
                    for r in traj.requests[:-1].tolist()])
                if (prev is not None
                        and np.max(np.abs(traj.shares - prev.shares))
                        < SWEEP_TOL
                        and unit * np.max(np.abs(g - traj.g)) < COSTATE_TOL):
                    return traj, maps
                prev = traj
            raise AssertionError("plain map did not converge")

        scn = load_scenario(str(SCENARIOS / "scenario_a.json"))
        times = _make_grid((0.0, 50.0), 1.0)
        mixed_maps = plain_maps = 0
        for delta in (0.5, 1.0, 1.5, 2.0):
            cfg = dataclasses.replace(scn.cfg, learning_rate=delta)
            traj, report = solve_open_loop(cfg, scn.x0, dt=1.0)
            want, maps = plain(cfg, scn.x0, times)
            assert report.converged
            np.testing.assert_allclose(traj.integral_utilities[-1],
                                       want.integral_utilities[-1], rtol=1e-7)
            mixed_maps += report.iterations
            plain_maps += maps
        assert mixed_maps <= 30 < plain_maps
        n6 = load_scenario(str(SCENARIOS / "scenario_n6.json"))
        _, report = solve_open_loop(dataclasses.replace(n6.cfg, horizon=30.0),
                                    n6.x0, dt=0.25)
        assert report.converged and report.iterations == 5

    def test_controls_match_general_costate_formulas(self, solved_big):
        # At the adjoints expanded from g, the sweep's stationary controls
        # are those of eccsim.stackelberg (interior prices here; requests
        # are clipped at 0 and never reach the sum cap).
        cfg, traj, _ = solved_big
        n = cfg.n_ecps
        lam_diag = cfg.ecp_weights[0] * cfg.ecp_access_price * cfg.n_users
        mu_scale = cfg.ccp_weights[0] * cfg.cloud_access_price * cfg.n_users
        for i in range(0, traj.times.shape[0], 25):
            pop = traj.state(i)
            ecp = EcpCostate(np.diag(lam_diag * traj.g[i]))
            ccp = CcpCostate(np.full(n, mu_scale * traj.g[i]),
                             np.zeros((n, n)))
            a_vec, b_slope, price = optimal_controls(cfg, pop, ecp, ccp)
            assert traj.prices[i] == pytest.approx(price, rel=1e-12)
            want = np.maximum(a_vec - b_slope * price, 0.0)
            np.testing.assert_allclose(traj.requests[i], want, rtol=1e-12,
                                       atol=1e-14)

    def test_n7_controls_match_general_costate_formulas(self):
        # At N = 7 the uptake sums N+1 = 8 entries, which numpy would sum
        # pairwise and the float loop sums left to right.  The sweep must
        # still agree with the general-costate formulas to 1e-12 and
        # replay bit for bit.  Prices stay interior here and the requests
        # stay below the sum cap.
        n = 7
        cfg = make_big_cloud_config(
            n_ecps=n, ecp_power=np.linspace(0.5, 1.5, n),
            ecp_access_price=np.linspace(0.2, 0.4, n), cloud_power=8.0,
            nominal_rate=0.15, horizon=5.0)
        traj, report = solve_open_loop(cfg, np.full(n + 1, 1.0 / (n + 1)),
                                       dt=0.05)
        assert report.converged
        lam_diag = cfg.ecp_weights[0] * cfg.ecp_access_price * cfg.n_users
        mu_scale = cfg.ccp_weights[0] * cfg.cloud_access_price * cfg.n_users
        interior = 0
        for i in range(traj.times.shape[0]):
            pop = traj.state(i)
            ecp = EcpCostate(np.diag(lam_diag * traj.g[i]))
            ccp = CcpCostate(np.full(n, mu_scale * traj.g[i]),
                             np.zeros((n, n)))
            a_vec, b_slope, price = optimal_controls(cfg, pop, ecp, ccp)
            assert traj.prices[i] == pytest.approx(price, rel=1e-12)
            want = np.maximum(a_vec - b_slope * price, 0.0)
            np.testing.assert_allclose(traj.requests[i], want, rtol=1e-12,
                                       atol=1e-14)
            interior += int(np.count_nonzero(traj.requests[i]))
        assert interior > 0
        again = replay_forward(traj)
        np.testing.assert_array_equal(traj.shares, again.shares)
        np.testing.assert_array_equal(traj.requests, again.requests)
        np.testing.assert_array_equal(traj.prices, again.prices)

    def test_n8_backward_pass_reads_forward_theta(self, monkeypatch):
        # From N = 7 numpy's pairwise sum of the N+1 uptakes may round
        # Theta differently from the float one of the forward pass.  Each
        # backward pass must see exactly the per-interval Theta of the
        # forward pass before it.
        n = 8
        cfg = make_big_cloud_config(
            n_ecps=n, ecp_power=np.linspace(0.5, 1.5, n),
            ecp_access_price=np.linspace(0.2, 0.4, n), cloud_power=8.0,
            nominal_rate=0.15, horizon=5.0)
        forward, backward = [], []

        def uptake(cfg, _orig=eccsim.solver._uptake):
            kernel = _orig(cfg)

            def spied(requests):
                c, theta = kernel(requests)
                forward.append(theta)
                return c, theta
            return spied

        def adjoint_profile(cfg, times, thetas,
                            _orig=eccsim.solver._adjoint_profile):
            backward.append(list(thetas))
            return _orig(cfg, times, thetas)

        monkeypatch.setattr(eccsim.solver, "_uptake", uptake)
        monkeypatch.setattr(eccsim.solver, "_adjoint_profile", adjoint_profile)
        traj, report = solve_open_loop(cfg, np.full(n + 1, 1.0 / (n + 1)),
                                       dt=0.05)
        assert report.converged
        m = traj.times.shape[0] - 1
        # check_stability reads Theta at the n + 1 vertices of the requests
        # before the first pass.
        forward = forward[n + 1:]
        assert len(backward) == report.iterations
        assert len(forward) == report.iterations * m
        for k, thetas in enumerate(backward):
            assert thetas == forward[k * m:(k + 1) * m]
        # At this N numpy's sum rounds some intervals differently.
        c, _ = uptake_reference(cfg, traj.requests[:-1])
        assert (cfg.learning_rate * c.sum(axis=-1)).tolist() != forward[-m:]

    def test_non_finite_adjoint_raises(self, solved):
        # One NaN node in g turns that node's controls into NaN, and the
        # state step after it must stop the pass.
        cfg, traj, _ = solved
        g = traj.g.copy()
        g[traj.times.shape[0] // 2] = np.nan
        with pytest.raises(BlowUp):
            _forward_pass(cfg, traj.shares[0], traj.times, g)

    def test_float_finite_check_reads_every_component(self):
        _check_finite([0.5, -0.25, MAGNITUDE_LIMIT])
        for bad in (np.nan, np.inf, -np.inf, 2.0 * MAGNITUDE_LIMIT):
            with pytest.raises(BlowUp):
                _check_finite([0.5, 0.25, bad])

    def test_projection_checks_before_the_floor(self):
        # A floor applied first would turn each of these into SHARE_FLOOR.
        with pytest.raises(BlowUp):
            _project_simplex([-2e12, 0.5, 0.5])
        for bad in (np.nan, np.inf, -np.inf):
            for k in range(3):
                y = [0.3, 0.3, 0.4]
                y[k] = bad
                with pytest.raises(BlowUp):
                    _project_simplex(y)

    @pytest.mark.parametrize("excess", [0.0, 1e-15, 1e-13, 1e-9])
    def test_projection_renormalises_every_state(self, excess):
        # No drift threshold decides whether a state is renormalised: a
        # few ulps off the simplex or far off it, each share is divided by
        # the floored sum, added left to right.
        y = [0.3, 0.3, 0.4 + excess]
        total = 0.0
        for v in y:
            total += v
        assert _project_simplex(y) == [v / total for v in y]

    def test_rejects_boundary_start(self, cfg):
        with pytest.raises(ValueError, match="x0"):
            solve_open_loop(cfg, [0.5, 0.5, 0.0], dt=0.1)

    @pytest.mark.parametrize("solve", [
        lambda cfg, x0: solve_open_loop(cfg, x0, dt=0.1),
        lambda cfg, x0: solve_ssec(cfg, x0, 0.1),
        lambda cfg, x0: solve_fixed(cfg, x0, [0.1, 0.2], 0.1),
    ], ids=["olsec", "ssec", "fixed"])
    def test_rejects_nan_share(self, cfg, solve):
        cfg = dataclasses.replace(cfg, horizon=1.0)
        for x0, match in (([0.5, np.nan, 0.5], "be interior"),
                          ([1.0, 1.0, 1.0], "sum to 1")):
            with pytest.raises(ValueError,
                               match=f"^x0: initial shares must {match}$"):
                solve(cfg, x0)

    def test_nonconvergence_reported_not_raised(self, cfg):
        _, report = solve_open_loop(dataclasses.replace(cfg, horizon=5.0),
                                    [0.3, 0.3, 0.4], dt=0.1, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    @pytest.mark.parametrize("max_iter", [0, -3, True, 2.5])
    def test_rejects_bad_max_iter(self, cfg, max_iter):
        with pytest.raises(ValueError,
                           match="^max_iter: must be a positive integer$"):
            solve_open_loop(dataclasses.replace(cfg, horizon=1.0),
                            [0.3, 0.3, 0.4], dt=0.1, max_iter=max_iter)

    def test_one_map_is_unconverged(self, cfg):
        # A single forward pass has no predecessor to compare shares with.
        _, report = solve_open_loop(dataclasses.replace(cfg, horizon=5.0),
                                    [0.3, 0.3, 0.4], dt=0.1, max_iter=1)
        assert not report.converged
        assert report.iterations == 1
        assert report.state_residual == np.inf

    @pytest.mark.parametrize("max_iter", [500, 2, 3])
    def test_report_certifies_returned_trajectory(self, max_iter):
        # The costate residual is that of the returned pass: its own
        # backward pass moves the stored g by exactly that much, and
        # replaying it reproduces it, converged or not.  With max_iter=3
        # the returned pass ran under a mixed g, not a plain image.
        cfg = make_config(horizon=10.0)
        traj, report = solve_open_loop(cfg, [0.3, 0.3, 0.4], dt=0.05,
                                       max_iter=max_iter)
        assert report.converged == (max_iter == 500)
        g_next = _adjoint_profile(cfg, traj.times,
                                  [_uptake(cfg)(r)[1]
                                   for r in traj.requests[:-1].tolist()])
        lam_diag, mu_scale = _adjoint_scales(cfg)
        unit = max(float(np.max(np.abs(lam_diag))), abs(mu_scale))
        assert (unit * float(np.max(np.abs(g_next - traj.g)))
                == report.costate_terminal_residual)
        again = replay_forward(traj)
        for name in ("shares", "requests", "prices", "utilities",
                     "integral_utilities"):
            np.testing.assert_array_equal(getattr(traj, name),
                                          getattr(again, name))

    def test_replay_rejects_a_run_without_configuration(self, solved):
        _, traj, _ = solved
        bare = dataclasses.replace(traj, cfg=None)
        with pytest.raises(ValueError, match="^trajectory stores no "
                                             "configuration to replay under$"):
            replay_forward(bare)

    def test_replay_rejects_a_run_without_adjoints(self, cfg):
        traj = solve_ssec(cfg, [0.3, 0.3, 0.4], 0.1)
        with pytest.raises(ValueError, match="^trajectory stores no adjoints"):
            replay_forward(traj)

    @pytest.mark.parametrize("resize", [lambda g: g[:10],
                                        lambda g: np.append(g, 0.0)],
                             ids=["shorter", "longer"])
    def test_replay_rejects_g_of_wrong_length(self, solved, resize):
        cfg, traj, _ = solved
        bad = Trajectory(times=traj.times, shares=traj.shares,
                         g=resize(traj.g), cfg=cfg)
        with pytest.raises(ValueError,
                           match="^g: length inconsistent with times$"):
            replay_forward(bad)

    @pytest.mark.parametrize("spoil,match", [
        (lambda x: x * 1.5, "initial shares must sum to 1"),
        (lambda x: np.column_stack([x, x[:, :1]]),
         "length inconsistent with n_ecps")], ids=["sum", "width"])
    def test_replay_checks_the_start_row(self, solved, spoil, match):
        # The start row passes the x0 checks of every other solver.
        cfg, traj, _ = solved
        bad = Trajectory(times=traj.times, shares=spoil(traj.shares),
                         g=traj.g, cfg=cfg)
        with pytest.raises(ValueError, match=f"^x0: {match}$"):
            replay_forward(bad)

    def test_solve_binds_the_control_kernel_once(self, monkeypatch):
        # What depends on (cfg, grid) alone is bound once per solve, not
        # once per forward pass: the control kernel by the forward map, the
        # uptake kernel by check_stability and by the forward map.
        binds = {"_stationary_controls": [], "_uptake": []}

        def spy(name):
            orig = getattr(eccsim.solver, name)

            def bind(cfg):
                binds[name].append(cfg)
                return orig(cfg)
            return bind

        for name in binds:
            monkeypatch.setattr(eccsim.solver, name, spy(name))
        cfg = make_config(horizon=10.0)
        _, report = solve_open_loop(cfg, [0.3, 0.3, 0.4], dt=0.05)
        assert report.converged and report.iterations > 1
        assert binds == {"_stationary_controls": [cfg], "_uptake": [cfg, cfg]}

    @pytest.mark.parametrize("name,dt", [("scenario_n6.json", 0.1),
                                         ("scenario_a.json", 0.01)])
    def test_sweep_keeps_the_simplex_unprojected(self, name, dt, monkeypatch):
        # The sweep's RK4 map y -> R*y + S*delta*c has S*Theta = 1 - R and
        # R, S > 0 within check_stability's bound, so it settles each step
        # by the finite check alone: over every forward pass of the two
        # longest shipped sweeps each share stays positive and the shares
        # sum to 1 within 1e-12 at every node, with no projection.
        scn = load_scenario(str(SCENARIOS / name))
        passes = []

        def forward_map(cfg, times, _orig=eccsim.solver._forward_map):
            run = _orig(cfg, times)

            def spied(x, g):
                out = run(x, g)
                passes.append(out[0])
                return out
            return spied

        def project(y):
            raise AssertionError("the sweep projects no state")

        monkeypatch.setattr(eccsim.solver, "_forward_map", forward_map)
        monkeypatch.setattr(eccsim.solver, "_project_simplex", project)
        traj, report = solve_open_loop(scn.cfg, scn.x0, dt=dt)
        assert report.converged
        assert len(passes) == report.iterations
        assert traj.times.shape == (round(scn.cfg.horizon / dt) + 1,)
        assert min(min(row) for rows in passes for row in rows) > 0.0
        assert max(abs(math.fsum(row) - 1.0)
                   for rows in passes for row in rows) <= 1e-12


class TestMyopicAndFixed:
    def test_ssec_matches_static_oracle(self, x0):
        # Zero adjoints at t=0 reproduce the static game p*=0.45,
        # r*=[0.035, 0.235] for the big-cloud duopoly.
        cfg = make_big_cloud_config(horizon=1.0)
        traj = solve_ssec(cfg, x0, 0.01)
        assert traj.prices[0] == pytest.approx(0.45, abs=1e-14)
        np.testing.assert_allclose(traj.requests[0], [0.035, 0.235],
                                   atol=1e-14)
        assert traj.g is None

    def test_open_loop_price_departs_from_myopic(self):
        cfg = make_big_cloud_config(horizon=10.0)
        traj, _ = solve_open_loop(cfg, [0.3, 0.3, 0.4], dt=0.01)
        myopic = solve_ssec(cfg, [0.3, 0.3, 0.4], 0.01)
        assert abs(traj.prices[0] - myopic.prices[0]) > 0.01

    def test_fixed_matches_plain_integration(self, cfg, x0):
        # The closed form of the affine map and the staged field's RK4
        # steps round apart: 2.8e-16 over these 500 steps.
        r0 = [0.1, 0.2]
        traj = solve_fixed(dataclasses.replace(cfg, horizon=5.0), x0, r0,
                           0.01)
        field = ReplicatorField(cfg, AllocationState(r0))
        plain = integrate_ode(field.rate, x0, (0.0, 5.0), 0.01, simplex=True)
        np.testing.assert_allclose(traj.shares, plain.shares, rtol=0.0,
                                   atol=1e-13)
        np.testing.assert_array_equal(traj.requests[0], r0)
        assert not traj.prices.any()

    @pytest.mark.parametrize("n", [1, 2, 6, 9])
    def test_fixed_steps_the_affine_map(self, n):
        # At zero delay a step is y -> grow*y + shift*(delta*c) with
        # (grow, shift) = _affine_rk4(-Theta, dt), whose fixed point is
        # delta*c/Theta: row i is x0 + (1 - grow**i)*(delta*c/Theta - x0),
        # bit for bit as a plain float loop, and within 1e-13 of iterating
        # the map 500 times.
        cfg, x0, r0 = random_market(n, n, horizon=5.0)
        traj = solve_fixed(cfg, x0, r0, 0.01)
        c, theta = _uptake(cfg)(r0.tolist())
        source = [cfg.learning_rate * v for v in c]
        grow, shift = _affine_rk4(-theta, 0.01)
        x0 = x0.tolist()
        assert traj.shares.tolist() == [
            [a + (1.0 - grow ** i) * (s / theta - a)
             for a, s in zip(x0, source)] for i in range(501)]
        y, stepped = x0, [x0]
        for _ in range(500):
            y = [grow * v + shift * s for v, s in zip(y, source)]
            stepped.append(y)
        np.testing.assert_allclose(traj.shares, stepped, rtol=0.0,
                                   atol=1e-13)

    def test_zero_delay_fixed_keeps_the_simplex_unprojected(self,
                                                            monkeypatch):
        # The closed form is a convex combination of x0 and delta*c/Theta,
        # so scenario_a_fixed's 5 001 rows keep every share positive and
        # the sum within 1e-14 of 1 (1.1e-16 measured; 1.4e-14 for the
        # projected step loop it replaced) with no projection.
        def project(y):
            raise AssertionError("a zero-delay fixed run projects no state")

        monkeypatch.setattr(eccsim.solver, "_project_simplex", project)
        scn = load_scenario(str(SCENARIOS / "scenario_a_fixed.json"))
        assert scn.cfg.population_delay == 0.0
        traj = solve_fixed(scn.cfg, scn.x0, scn.r0, scn.dt)
        assert traj.shares.shape[0] == 5001
        assert traj.shares.min() > 0.0
        assert max(abs(math.fsum(row) - 1.0)
                   for row in traj.shares.tolist()) <= 1e-14

    @pytest.mark.parametrize("tau", [0.7, 1.7])
    def test_delayed_fixed_calls_no_projection(self, tau, monkeypatch):
        # The rank-one block projects its carried state itself: over the
        # shipped sweep's 3 001 rows every share stays positive and each
        # row sums to 1 within 1e-15 (2.2e-16 measured) with
        # _project_simplex patched to fail.
        def project(y):
            raise AssertionError("a delayed fixed run calls no projection")

        monkeypatch.setattr(eccsim.solver, "_project_simplex", project)
        scn = load_scenario(str(SCENARIOS / "scenario_delay.json"))
        cfg = dataclasses.replace(scn.cfg, population_delay=tau)
        traj = solve_fixed(cfg, scn.x0, scn.r0, scn.dt)
        assert traj.shares.shape[0] == 3001
        assert traj.shares.min() > 0.0
        assert max(abs(math.fsum(row) - 1.0)
                   for row in traj.shares.tolist()) <= 1e-15

    @pytest.mark.parametrize("tau", [10.0, 12.0])
    def test_long_delay_has_the_outcome_of_dde(self, tau):
        # Past the delay bound, over T = 50 (5 000 steps): at tau = 12 both
        # routes blow up; at tau = 10 a share sits on the floor and the
        # two agree within DDE_AT_FLOOR (2.7e-14 measured).  Unrescaled,
        # the carried sum drifts to 0.069 over the tau = 12 run.
        scn = load_scenario(str(SCENARIOS / "scenario_delay.json"))
        cfg = dataclasses.replace(scn.cfg, population_delay=tau, horizon=50.0)
        field = ReplicatorField(cfg, AllocationState(scn.r0))
        runs = [lambda: solve_fixed(cfg, scn.x0, scn.r0, 0.01),
                lambda: integrate_dde(field.delayed_rate, scn.x0, tau,
                                      (0.0, 50.0), 0.01, simplex=True)]
        if tau == 12.0:
            for run in runs:
                with pytest.raises(BlowUp):
                    run()
        else:
            fast, staged = (run().shares for run in runs)
            assert min(fast.min(), staged.min()) <= 1e-9
            np.testing.assert_allclose(fast, staged, rtol=0.0,
                                       atol=DDE_AT_FLOOR)

    def test_fixed_dispatches_to_dde(self, x0):
        cfg = make_config(population_delay=0.5, horizon=5.0)
        traj = solve_fixed(cfg, x0, [0.0, 0.0], 0.01)
        field = ReplicatorField(cfg, AllocationState([0.0, 0.0]))
        manual = integrate_dde(field.delayed_rate, x0, 0.5, (0.0, 5.0), 0.01,
                               simplex=True)
        np.testing.assert_allclose(traj.shares, manual.shares, rtol=0.0,
                                   atol=DDE_AGREEMENT)

    @given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
           st.one_of(st.floats(0.05, 1.5),
                     st.integers(1, 30).map(lambda k: 0.05 * k)))
    @settings(max_examples=60, deadline=None)
    def test_delayed_pass_matches_dde(self, n, seed, tau):
        # A delayed solve_fixed steps the rank-one RK4 map a block of lags
        # at a time; it must reproduce the staged RK4 steps of integrate_dde
        # on the field, one lag row per call, to DDE_AGREEMENT (DDE_AT_FLOOR
        # once a share sinks to the floor), whether or not tau is a multiple
        # of dt.  Past the delay bound some runs blow up; then both must.
        cfg, x0, r0 = random_market(seed, n, population_delay=tau,
                                    horizon=2.0)
        field = ReplicatorField(cfg, AllocationState(r0))

        def shares(run):
            try:
                return run().shares
            except BlowUp:
                return None

        fast = shares(lambda: solve_fixed(cfg, x0, r0, 0.05))
        staged = shares(lambda: integrate_dde(
            field.delayed_rate, x0, tau, (0.0, 2.0), 0.05, simplex=True))
        assert (fast is None) == (staged is None)
        if fast is not None:
            floored = min(fast.min(), staged.min()) <= 1e-9
            np.testing.assert_allclose(
                fast, staged, rtol=0.0,
                atol=DDE_AT_FLOOR if floored else DDE_AGREEMENT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_delayed_pass_checks_last_component(self, x0, bad, monkeypatch):
        # A bad growth factor in the last column of the end-of-step rows
        # reaches only the last component of the new state (no sum reads
        # G4), and the rank-one block's own check must still see it.
        def rank_one(terms, source, theta, dt,
                     _orig=eccsim.solver._rank_one_rk4):
            def spoiled(lags):
                u, g = terms(lags)
                g[2::2, -1] = bad
                return u, g
            return _orig(spoiled, source, theta, dt)
        monkeypatch.setattr(eccsim.solver, "_rank_one_rk4", rank_one)
        with pytest.raises(BlowUp):
            solve_fixed(make_config(population_delay=0.5, horizon=1.0), x0,
                        [0.1, 0.2], 0.1)

    @pytest.mark.parametrize("tau", [0.7, 1.7])
    def test_delayed_pass_matches_dde_over_the_shipped_sweep(self, tau):
        # The delay sweep of scenario_delay over its whole horizon (3 000
        # steps): the map and the staged steps stay within 1e-13 of each
        # other (1.2e-15 measured; 6.8e-15 when each step divided by its
        # sum), and the CLI reads the same verdict.
        scn = load_scenario(str(SCENARIOS / "scenario_delay.json"))
        cfg = dataclasses.replace(scn.cfg, population_delay=tau)
        fast = solve_fixed(cfg, scn.x0, scn.r0, 0.01)
        field = ReplicatorField(cfg, AllocationState(scn.r0))
        staged = integrate_dde(field.delayed_rate, scn.x0, tau, (0.0, 30.0),
                               0.01, simplex=True)
        np.testing.assert_allclose(fast.shares, staged.shares, rtol=0.0,
                                   atol=1e-13)
        assert (_delay_verdict(cfg, fast, scn.r0, scn.eps_convergence)
                == _delay_verdict(cfg, staged, scn.r0, scn.eps_convergence))

    def test_delayed_pass_with_a_computeless_cloud(self, x0):
        # r0 hands all cloud compute to the edge (sum r0 = 1), so the
        # cloud's uptake and utility enter the map's four sums as 0; the
        # random draws of test_delayed_pass_matches_dde sum below 1.  The
        # cloud's share sinks to 3.9e-4, off the floor; gap 1.8e-15.
        cfg, r0 = make_config(population_delay=0.7, horizon=30.0), [0.6, 0.4]
        assert _uptake(cfg)(r0)[0][-1] == 0.0
        fast = solve_fixed(cfg, x0, r0, 0.01)
        field = ReplicatorField(cfg, AllocationState(r0))
        staged = integrate_dde(field.delayed_rate, x0, 0.7, (0.0, 30.0),
                               0.01, simplex=True)
        assert fast.shares.min() > 1e-9
        np.testing.assert_allclose(fast.shares, staged.shares, rtol=0.0,
                                   atol=DDE_AGREEMENT)

    @pytest.mark.parametrize("x0,r0,field", [
        ([0.5, 0.5], [0.1, 0.2], "x0"),
        ([0.3, 0.3, 0.4], [0.1], "requests"),
        ([0.2, 0.2, 0.3, 0.3], [0.1, 0.2], "x0"),
    ])
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_fixed_rejects_wrong_lengths(self, x0, r0, field, tau):
        # The other solvers take no allocation: only the x0 cases apply.
        cfg = make_config(population_delay=tau, horizon=1.0)
        solves = [lambda: solve_fixed(cfg, x0, r0, 0.1)]
        if field == "x0":
            solves += [lambda: solve_open_loop(cfg, x0, dt=0.1),
                       lambda: solve_ssec(cfg, x0, 0.1)]
        for solve in solves:
            with pytest.raises(ValueError, match=f"^{field}: length"):
                solve()

    @pytest.mark.parametrize("field,call", [
        ("x0", lambda cfg, x0: solve_open_loop(cfg, "abc", dt=0.1)),
        ("x0", lambda cfg, x0: solve_ssec(cfg, "abc", 0.1)),
        ("requests", lambda cfg, x0: solve_fixed(cfg, x0, "ab", 0.1)),
        ("x0", lambda cfg, x0: integrate_ode(decay, "ab", (0.0, 1.0), 0.1)),
        ("target", lambda cfg, x0: convergence_time(
            integrate_ode(decay, [1.0, 2.0], (0.0, 1.0), 0.1), "ab", 0.1)),
    ], ids=["open_loop", "ssec", "fixed", "ode", "convergence_time"])
    def test_non_numeric_input_names_itself(self, cfg, x0, field, call):
        with pytest.raises(ValueError, match=f"^{field}: must be numeric$"):
            call(dataclasses.replace(cfg, horizon=1.0), x0)

    def test_fixed_utility_start_oracle(self, cfg, x0):
        # At r=0 and zero price: u = [8.75, 5.75, 8.0] for the duopoly start.
        traj = solve_fixed(dataclasses.replace(cfg, horizon=1.0), x0,
                           [0.0, 0.0], 0.1)
        np.testing.assert_allclose(traj.utilities[0], [8.75, 5.75, 8.0],
                                   rtol=1e-14)
        assert not traj.integral_utilities[0].any()


class TestMeasures:
    def make_traj(self, errs):
        # Two-group shares drifting toward [0.5, 0.5] with given max errors.
        times = np.arange(float(len(errs)))
        shares = np.column_stack([0.5 + np.asarray(errs),
                                  0.5 - np.asarray(errs)])
        return Trajectory(times=times, shares=shares)

    def test_convergence_time_crossing(self):
        traj = self.make_traj([0.3, 0.2, 0.05, 0.01])
        assert convergence_time(traj, [0.5, 0.5], 0.1) == 2.0

    def test_convergence_time_immediate(self):
        traj = self.make_traj([0.01, 0.02, 0.01, 0.0])
        assert convergence_time(traj, [0.5, 0.5], 0.1) == 0.0

    def test_convergence_time_never(self):
        traj = self.make_traj([0.3, 0.01, 0.01, 0.2])
        assert convergence_time(traj, [0.5, 0.5], 0.1) is None

    def test_convergence_time_rejects_population_state(self):
        # One spelling of the target: its numeric shares, not the record.
        traj = self.make_traj([0.3, 0.05, 0.01, 0.01])
        tgt = PopulationState([0.5, 0.5])
        assert convergence_time(traj, tgt.shares, 0.1) == 1.0
        with pytest.raises(ValueError, match="^target: must be numeric$"):
            convergence_time(traj, tgt, 0.1)

    def test_convergence_time_rejects_bad_eps(self):
        traj = self.make_traj([0.0])
        with pytest.raises(ValueError, match="eps"):
            convergence_time(traj, [0.5, 0.5], 0.0)

    def test_convergence_time_rejects_wrong_length_target(self):
        # A length-1 target would broadcast silently; a length-2 one against
        # three shares would fail inside numpy.
        two = self.make_traj([0.3, 0.01])
        three = Trajectory(times=np.arange(2.0),
                           shares=np.tile([0.2, 0.3, 0.5], (2, 1)))
        for traj, target in ((two, [0.5]), (three, [0.5, 0.5])):
            with pytest.raises(ValueError, match="^target: length inconsistent"
                                                 " with trajectory$"):
                convergence_time(traj, target, 0.1)

    def flat_utility_traj(self, value, t_end, dt, cfg=None):
        times = np.round(np.arange(0.0, t_end + 1e-12, dt), 12)
        shares = np.tile([0.5, 0.5], (times.shape[0], 1))
        traj = Trajectory(times=times, shares=shares, cfg=cfg)
        traj.utilities = np.full((times.shape[0], 2), value)
        return traj

    def test_integral_utility_undiscounted(self):
        traj = self.flat_utility_traj(3.0, 2.0, 0.01)
        total = _running_trapezoid(traj.utilities, traj.times)[-1, 0]
        assert total == pytest.approx(6.0, rel=1e-12)

    def test_integral_utility_discounted_oracle(self):
        # integral of e^{-t} over [0,1] = 1 - 1/e.
        cfg = make_config(n_ecps=1, ecp_power=[1.0], ecp_access_price=[0.3],
                          discount_rate=1.0)
        traj = self.flat_utility_traj(1.0, 1.0, 0.001, cfg)
        want = 1.0 - E_INV
        assert traj.integral_utilities[-1, -1] == pytest.approx(want,
                                                                abs=1e-6)

    def test_running_integral_consistent(self, cfg, x0):
        # The stored columns against a trapezoid written out here, with
        # numpy's exp for the discount.
        traj = solve_fixed(dataclasses.replace(cfg, horizon=5.0), x0,
                           [0.1, 0.1], 0.01)
        t, u = traj.times, traj.utilities
        weighted = np.exp(-cfg.discount_rate * t)[:, None] * u
        total = (np.diff(t)[:, None] * (weighted[1:] + weighted[:-1])
                 / 2.0).sum(axis=0)
        for col in range(3):
            assert traj.integral_utilities[-1, col] == pytest.approx(
                total[col], rel=1e-12)

    def test_discount_weights_are_libm_exp(self):
        # e^(-rho*t) comes from math.exp at every node, bit for bit, in the
        # stored integral columns: numpy's
        # array exp, on a SIMD path, differed from it on 220 of these
        # 5 001 nodes on an AVX-512 CPU.
        scn = load_scenario(str(SCENARIOS / "scenario_a_fixed.json"))
        rho = scn.cfg.discount_rate
        traj = solve_fixed(scn.cfg, scn.x0, scn.r0, scn.dt)
        assert traj.times.shape == (5001,)
        weights = np.array([math.exp(-rho * t) for t in traj.times.tolist()])
        assert _discount(rho, traj.times).tobytes() == weights.tobytes()
        want = _running_trapezoid(weights[:, None] * traj.utilities,
                                  traj.times)
        assert traj.integral_utilities.tobytes() == want.tobytes()

    def test_price_cap_default(self, cfg):
        assert default_price_cap(cfg) == pytest.approx(3.0)
        assert default_price_cap(make_big_cloud_config()) == pytest.approx(5.0)
