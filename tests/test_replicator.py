"""Unit tests for the population dynamics module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config, random_market

import eccsim.model
import eccsim.replicator
from eccsim.model import (
    AllocationState,
    PopulationState,
    ZeroShare,
    _uptake,
    provider_power,
    theta,
)
from eccsim.replicator import (
    ReplicatorField,
    analytic_ess,
    delay_stability_bound,
    delayed_replicator_rhs,
    ess_jacobian_eigen,
    replicator_rhs,
)
from eccsim.solver import _check_finite, _staged, solve_fixed


class TestRhs:
    def test_rejects_a_population_of_the_wrong_length(self, cfg):
        with pytest.raises(ValueError,
                           match="^shares: length inconsistent with n_ecps$"):
            replicator_rhs(cfg, PopulationState([0.5, 0.5]),
                           AllocationState([0.1, 0.2]))

    def test_duopoly_oracle(self, cfg, x0):
        # pi = [2/9, 1/6, 1/4], mean = 13/60, rhs_s = x_s*(pi_s - mean).
        rhs = replicator_rhs(cfg, PopulationState(x0), AllocationState([0.0, 0.0]))
        expected = [1.0 / 600.0, -3.0 / 200.0, 1.0 / 75.0]
        np.testing.assert_allclose(rhs, expected, rtol=0, atol=1e-15)

    def test_single_ecp_oracle(self):
        # K=1, R=[1], p=[1], R_c=3, p_c=1, x=[1/2,1/2]: pi=[2,6], mean=4.
        cfg = make_config(
            n_ecps=1,
            n_users=1,
            ecp_power=[1.0],
            ecp_access_price=[1.0],
            cloud_power=3.0,
            cloud_access_price=1.0,
        )
        rhs = replicator_rhs(cfg, PopulationState([0.5, 0.5]),
                             AllocationState([0.0]))
        np.testing.assert_allclose(rhs, [-1.0, 1.0], rtol=0, atol=1e-15)

    def test_scales_with_learning_rate(self, cfg, x0):
        pop = PopulationState(x0)
        alloc = AllocationState([0.1, 0.2])
        base = replicator_rhs(cfg, pop, alloc)
        fast = replicator_rhs(make_config(learning_rate=3.0), pop, alloc)
        np.testing.assert_allclose(fast, 3.0 * base, rtol=1e-15)

    def test_zero_share_with_supply_raises(self, cfg):
        pop = PopulationState([0.6, 0.0, 0.4])
        with pytest.raises(ZeroShare, match="ecp 2"):
            replicator_rhs(cfg, pop, AllocationState([0.0, 0.0]))

    def test_empty_cloud_without_supply_is_fine(self, cfg):
        # All compute moved to the ECPs: the empty cloud group is inert.
        pop = PopulationState([0.6, 0.4, 0.0])
        alloc = AllocationState([0.55, 0.45])
        rhs = replicator_rhs(cfg, pop, alloc)
        assert rhs.shape == (3,)
        assert rhs[2] == 0.0

    def test_vanishes_at_ess(self, cfg):
        alloc = AllocationState([0.15, 0.1])
        ess = analytic_ess(cfg, alloc)
        rhs = replicator_rhs(cfg, ess.shares, alloc)
        assert np.max(np.abs(rhs)) < 1e-15


class TestLinearForm:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_affine_field(self, seed):
        # On the simplex the flow collapses to delta*c - Theta*x with
        # c_s = beta*w_s/(K*p_s); verify against the utility-difference form.
        rng = np.random.default_rng(seed)
        cfg = make_config(learning_rate=float(rng.uniform(0.2, 3.0)))
        raw = rng.dirichlet([2.0, 2.0, 2.0])
        raw = np.maximum(raw, 1e-3)
        pop = PopulationState(raw / raw.sum())
        r = rng.uniform(0.0, 0.45, size=2)
        alloc = AllocationState(r)
        rhs = replicator_rhs(cfg, pop, alloc)
        c = (cfg.mapping_factor * provider_power(cfg, alloc)
             / (cfg.n_users * cfg.all_access_prices))
        affine = cfg.learning_rate * c - theta(cfg, alloc) * pop.shares
        np.testing.assert_allclose(rhs, affine, rtol=0, atol=1e-14)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_zero_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        cfg = make_config()
        raw = np.maximum(rng.dirichlet([1.5] * 3), 1e-3)
        pop = PopulationState(raw / raw.sum())
        alloc = AllocationState(rng.uniform(0.0, 0.45, size=2))
        rhs = replicator_rhs(cfg, pop, alloc)
        assert abs(rhs.sum()) < 1e-15


class TestReplicatorField:
    def test_rejects_an_allocation_of_the_wrong_length(self, cfg, x0):
        # One request on a duopoly is not spread over both edge providers:
        # the field's supply checks the allocation against cfg.
        field = ReplicatorField(cfg, AllocationState([0.1]))
        match = "^requests: length inconsistent with n_ecps$"
        with pytest.raises(ValueError, match=match):
            field.rate(np.asarray(x0))
        with pytest.raises(ValueError, match=match):
            field.supply

    @pytest.mark.parametrize("size", [2, 4])
    def test_rejects_a_state_of_the_wrong_length(self, cfg, x0, size):
        # Named as replicator_rhs names it, not left to numpy's broadcast
        # (or to zip, which cut a long current state short).
        field = ReplicatorField(cfg, AllocationState([0.1, 0.2]))
        bad = np.full(size, 1.0 / size)
        for name, call in (("shares", lambda: field.rate(bad)),
                           ("shares", lambda: field.delayed_rate(bad, x0)),
                           ("shares_delayed",
                            lambda: field.delayed_rate(x0, bad))):
            with pytest.raises(ValueError, match=f"^{name}: length "
                                                 "inconsistent with n_ecps$"):
                call()

    def test_matches_public_rhs(self, cfg, x0):
        alloc = AllocationState([0.1, 0.3])
        field = ReplicatorField(cfg, alloc)
        got = field.rate(np.asarray(x0))
        want = replicator_rhs(cfg, PopulationState(x0), alloc)
        np.testing.assert_array_equal(got, want)

    def test_delayed_rate_degenerates(self, cfg, x0):
        alloc = AllocationState([0.1, 0.2])
        field = ReplicatorField(cfg, alloc)
        x = np.asarray(x0)
        np.testing.assert_array_equal(field.delayed_rate(x, x),
                                      field.rate(x))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_public_rhs_bitwise(self, seed):
        # The field reads its supply once; the public functions rebuild it
        # from the requests on every call.  Both must agree to the bit.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        power = rng.uniform(0.5, 3.0, size=n)
        cfg = make_config(n_ecps=n, ecp_power=power,
                          ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                          cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                          learning_rate=float(rng.uniform(0.2, 3.0)))
        alloc = AllocationState(rng.dirichlet(np.ones(n + 1))[:n])
        now = PopulationState(rng.dirichlet(np.ones(n + 1)))
        delayed = PopulationState(rng.dirichlet(np.ones(n + 1)))
        field = ReplicatorField(cfg, alloc)
        np.testing.assert_array_equal(
            field.delayed_rate(now.shares, delayed.shares),
            delayed_replicator_rhs(cfg, now, delayed, alloc))
        np.testing.assert_array_equal(field.rate(now.shares),
                                      replicator_rhs(cfg, now, alloc))
        np.testing.assert_array_equal(field.supply, provider_power(cfg, alloc))
        assert not field.supply.flags.writeable

    def test_zero_share_raises_through_field(self, cfg):
        field = ReplicatorField(cfg, AllocationState([0.0, 0.0]))
        now = np.array([0.3, 0.3, 0.4])
        with pytest.raises(ZeroShare, match="cloud"):
            field.delayed_rate(now, np.array([0.5, 0.5, 0.0]))

    @given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_float_kernel_matches_arrays_bitwise(self, n, seed):
        # delayed_rate and delayed_replicator_rhs both match a plain Python
        # reference that sums the population mean left to right, at every
        # N: numpy would sum 8 or more entries pairwise.
        rng = np.random.default_rng(seed)
        power = rng.uniform(0.5, 3.0, size=n)
        cfg = make_config(n_ecps=n, n_users=int(rng.integers(1, 500)),
                          ecp_power=power,
                          ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                          cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                          learning_rate=float(rng.uniform(0.2, 3.0)),
                          mapping_factor=float(rng.uniform(0.5, 2.0)))
        field = ReplicatorField(cfg, AllocationState(
            rng.dirichlet(np.ones(n + 1))[:n]))
        now = rng.dirichlet(np.ones(n + 1))
        delayed = rng.dirichlet(np.ones(n + 1))
        supply = field.supply.tolist()

        utils = [cfg.mapping_factor * (w / (cfg.n_users * y)) / p
                 for w, y, p in zip(supply, delayed.tolist(),
                                    cfg.all_access_prices.tolist())]
        mean = 0.0
        for x, u in zip(now.tolist(), utils):
            mean += x * u
        want = [(cfg.learning_rate * y) * (u - mean)
                for y, u in zip(delayed.tolist(), utils)]
        assert field.delayed_rate(now, delayed).tolist() == want
        assert delayed_replicator_rhs(
            cfg, PopulationState(now), PopulationState(delayed),
            field.alloc).tolist() == want

    @pytest.mark.parametrize("n", range(1, 10))
    def test_fused_stage_matches_built_stage_bitwise(self, n):
        # Staged RK4 (solver._staged) on delayed_rate evaluates the field at
        # each stage built as a list: bit for bit the RK4 step written out,
        # on every row of a block of random lags, each step from the row
        # before it.
        rng = np.random.default_rng(n)
        power = rng.uniform(0.5, 3.0, size=n)
        cfg = make_config(n_ecps=n, ecp_power=power,
                          ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                          cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                          learning_rate=float(rng.uniform(0.2, 3.0)))
        field = ReplicatorField(cfg, AllocationState(
            rng.dirichlet(np.ones(n + 1))[:n]))
        lags = rng.dirichlet(np.ones(n + 1), size=5)
        dt = 0.01
        y = rng.dirichlet(np.ones(n + 1)).tolist()
        rows, last = _staged(field.delayed_rate, dt, _check_finite)(
            2, lags, y)
        assert len(rows) == 2 and last is rows[-1]

        def rate(lag, base, slope, h):
            now = np.array([a + h * k for a, k in zip(base, slope)])
            return field.delayed_rate(now, lag).tolist()

        for j, row in enumerate(rows):
            first, mid, end = lags[2 * j:2 * j + 3]
            k1 = rate(first, y, y, 0.0)
            k2 = rate(mid, y, k1, 0.5 * dt)
            k3 = rate(mid, y, k2, 0.5 * dt)
            k4 = rate(end, y, k3, dt)
            assert row == [v + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                           for v, a, b, c, d in zip(y, k1, k2, k3, k4)]
            y = row

    def test_zero_share_raises_through_float_kernel(self, cfg):
        field = ReplicatorField(cfg, AllocationState([0.0, 0.0]))
        with pytest.raises(ZeroShare, match="cloud"):
            field._lag_terms(np.array([[0.5, 0.5, 0.0]]))

    def test_zero_share_check_covers_every_row_of_a_block(self, cfg):
        # One zero share in the last row of a block raises when the block
        # is read, naming the provider.  A check on the first row alone
        # would divide by the zero share instead.  The earlier rows, as a
        # block of their own, give the terms of one-row blocks.
        terms = ReplicatorField(cfg, AllocationState([0.1, 0.2]))._lag_terms
        lags = np.array([[0.3, 0.3, 0.4], [0.2, 0.5, 0.3], [0.6, 0.0, 0.4]])
        with pytest.raises(ZeroShare, match="^ecp 2:"):
            terms(lags)
        u, g = terms(lags[:2])
        for k, lag in enumerate(lags[:2]):
            one_u, one_g = terms(lag[None, :])
            assert one_u.tolist() == u[k:k + 1].tolist()
            assert one_g.tolist() == g[k:k + 1].tolist()

    def test_lag_terms_are_what_the_field_reads(self, cfg):
        # delayed_rate is G*(u - now . u) with (u, G) = _lag_terms(lags),
        # the one spelling the solver's rank-one map reads too; a zero
        # share with compute on offer raises there, naming the provider.
        field = ReplicatorField(cfg, AllocationState([0.1, 0.2]))
        terms = field._lag_terms
        lags = np.array([[0.3, 0.3, 0.4], [0.2, 0.5, 0.3]])
        u, g = terms(lags)
        np.testing.assert_array_equal(g, cfg.learning_rate * lags)
        now = [0.25, 0.35, 0.4]
        for lag, lag_u, lag_g in zip(lags, u.tolist(), g.tolist()):
            mean = 0.0
            for x, v in zip(now, lag_u):
                mean += x * v
            assert field.delayed_rate(np.array(now), lag).tolist() == [
                a * (v - mean) for a, v in zip(lag_g, lag_u)]
        with pytest.raises(ZeroShare, match="^ecp 1:"):
            terms(np.array([[0.0, 0.6, 0.4]]))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_lag_terms_product_is_the_uptake(self, n):
        # G*u = delta*y * beta*w/(K*y*p) is delta*c of model._uptake in
        # every row, whatever the lag: the identity the solver's rank-one
        # map takes as a constant.  Both sides round a few operations
        # apart: within 8 units in the last place (4 measured).
        cfg, _, r0 = random_market(70 + n, n)
        c, _ = _uptake(cfg)(r0.tolist())
        source = cfg.learning_rate * np.array(c)
        field = ReplicatorField(cfg, AllocationState(r0))
        lags = np.random.default_rng(n).dirichlet(np.ones(n + 1), size=200)
        u, g = field._lag_terms(lags)
        assert np.all(np.abs(g * u - source) <= 8.0 * np.spacing(source))

    def test_field_binds_its_lag_terms_once(self, cfg, x0, monkeypatch):
        # The supply is fixed per field: many delayed_rate calls, which
        # read their lag terms against it, compute it once.
        binds = []

        def counted(*args, _orig=eccsim.replicator.provider_power):
            binds.append(args)
            return _orig(*args)

        monkeypatch.setattr(eccsim.replicator, "provider_power", counted)
        field = ReplicatorField(cfg, AllocationState([0.1, 0.2]))
        for k in range(50):
            field.delayed_rate(x0, np.roll(x0, k))
            field.rate(x0)
        assert len(binds) == 1

    def test_float_kernel_empty_group_without_supply(self, cfg):
        # All compute moved to the ECPs: the empty cloud group's utility
        # term is 0, and so is its velocity.
        field = ReplicatorField(cfg, AllocationState([0.55, 0.45]))
        now, delayed = [0.5, 0.4, 0.1], [0.6, 0.4, 0.0]
        u, g = field._lag_terms(np.array([delayed]))
        assert u[0, 2] == 0.0 and g[0, 2] == 0.0
        got = field.delayed_rate(np.array(now), np.array(delayed))
        assert got[2] == 0.0

    def test_empty_group_without_supply_through_field(self, cfg):
        # All compute moved to the ECPs: the empty cloud group is inert.
        field = ReplicatorField(cfg, AllocationState([0.55, 0.45]))
        rate = field.delayed_rate(np.array([0.5, 0.4, 0.1]),
                                  np.array([0.6, 0.4, 0.0]))
        assert rate[2] == 0.0

    def test_solve_fixed_computes_supply_once(self, x0, monkeypatch):
        # The allocation is frozen for the whole run, so the supply count
        # must not grow with the number of steps (one map per step):
        # once for the lag terms, once for the payoffs along the trajectory.
        counts = []
        for horizon in (1.0, 2.0):
            calls = [0]

            def counted(*args, _orig=eccsim.model._supply):
                calls[0] += 1
                return _orig(*args)

            with monkeypatch.context() as patch:
                patch.setattr(eccsim.model, "_supply", counted)
                solve_fixed(make_config(population_delay=0.3,
                                        horizon=horizon), x0, [0.1, 0.2],
                            0.01).utilities
            counts.append(calls[0])
        assert counts == [2, 2]


class TestDelayedRhs:
    def test_degenerates_bitwise(self, cfg, x0):
        pop = PopulationState(x0)
        alloc = AllocationState([0.05, 0.15])
        np.testing.assert_array_equal(
            delayed_replicator_rhs(cfg, pop, pop, alloc),
            replicator_rhs(cfg, pop, alloc))

    def test_stale_population_oracle(self, cfg):
        # Hand values at delayed=[0.2,0.3,0.5]: omega=[0.1, 1/30, 0.04],
        # pi=omega/p=[1/3, 1/6, 1/5].  The mean mixes these with the current
        # shares; the rate multiplies the delayed ones.
        now = PopulationState([0.3, 0.3, 0.4])
        delayed = PopulationState([0.2, 0.3, 0.5])
        alloc = AllocationState([0.0, 0.0])
        utils = np.array([1.0 / 3.0, 1.0 / 6.0, 0.2])
        mean = float(np.dot(now.shares, utils))
        expected = delayed.shares * (utils - mean)
        got = delayed_replicator_rhs(cfg, now, delayed, alloc)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)

    def test_zero_share_checks_delayed_state(self, cfg):
        now = PopulationState([0.3, 0.3, 0.4])
        dead_cloud = PopulationState([0.5, 0.5, 0.0])
        with pytest.raises(ZeroShare, match="cloud"):
            delayed_replicator_rhs(cfg, now, dead_cloud,
                                   AllocationState([0.0, 0.0]))


class TestAnalyticEss:
    # Frozen proportional equilibria for the four capacity/price corners.
    CASES = [
        (2.0, 0.2, [0.30769231, 0.23076923, 0.46153846], 0.21666666666666667),
        (5.0, 0.5, [0.30769231, 0.23076923, 0.46153846], 0.21666666666666667),
        (2.0, 0.5, [0.42553191, 0.31914894, 0.25531915], 0.15666666666666668),
        (5.0, 0.2, [0.18181818, 0.13636364, 0.68181818], 0.3666666666666667),
    ]

    @pytest.mark.parametrize("rc,pc,shares,th", CASES)
    def test_frozen_corners(self, rc, pc, shares, th):
        cfg = make_config(cloud_power=rc, cloud_access_price=pc)
        res = analytic_ess(cfg, AllocationState([0.0, 0.0]))
        np.testing.assert_allclose(res.shares.shares, shares, rtol=0, atol=1e-8)
        assert res.common_utility == pytest.approx(th, abs=1e-15)

    def test_with_offloading_exact(self, cfg):
        # r=[1/4,1/4]: weights [25/3, 15/2, 5] -> shares [0.4, 0.36, 0.24].
        res = analytic_ess(cfg, AllocationState([0.25, 0.25]))
        np.testing.assert_allclose(res.shares.shares, [0.4, 0.36, 0.24],
                                   rtol=0, atol=1e-15)

    def test_common_utility_is_theta_over_delta(self):
        cfg = make_config(learning_rate=2.5)
        alloc = AllocationState([0.1, 0.05])
        res = analytic_ess(cfg, alloc)
        assert res.common_utility == pytest.approx(
            theta(cfg, alloc) / cfg.learning_rate, rel=1e-15)

    def test_returns_population_state(self, cfg):
        res = analytic_ess(cfg, AllocationState([0.0, 0.0]))
        assert isinstance(res.shares, PopulationState)
        assert res.shares.shares.sum() == pytest.approx(1.0, abs=1e-12)


class TestStability:
    def test_spectrum_is_uniform(self, cfg):
        alloc = AllocationState([0.0, 0.0])
        eig = ess_jacobian_eigen(cfg, alloc)
        assert eig.shape == (3,)
        np.testing.assert_allclose(eig, -0.21666666666666667, rtol=1e-15)

    def test_unit_case(self):
        # K=1, R=[1], p=[1], R_c=1, p_c=1: S=2, Theta=2.
        cfg = make_config(
            n_ecps=1,
            n_users=1,
            ecp_power=[1.0],
            ecp_access_price=[1.0],
            cloud_power=1.0,
            cloud_access_price=1.0,
        )
        alloc = AllocationState([0.0])
        np.testing.assert_allclose(ess_jacobian_eigen(cfg, alloc), [-2.0, -2.0])
        assert delay_stability_bound(cfg, alloc) == pytest.approx(math.pi / 4.0)

    BOUNDS = [
        (2.0, 0.2, 7.24982920059183),
        (5.0, 0.5, 7.24982920059183),
        (2.0, 0.5, 10.026359532733382),
        (5.0, 0.2, 4.283989982167899),
    ]

    @pytest.mark.parametrize("rc,pc,bound", BOUNDS)
    def test_delay_bound_corners(self, rc, pc, bound):
        cfg = make_config(cloud_power=rc, cloud_access_price=pc)
        got = delay_stability_bound(cfg, AllocationState([0.0, 0.0]))
        assert got == pytest.approx(bound, rel=1e-14)

    def test_bound_shrinks_with_learning_rate(self, cfg):
        alloc = AllocationState([0.0, 0.0])
        slow = delay_stability_bound(make_config(learning_rate=0.5), alloc)
        fast = delay_stability_bound(make_config(learning_rate=2.0), alloc)
        assert fast == pytest.approx(slow / 4.0, rel=1e-14)
