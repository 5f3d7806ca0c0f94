"""Market primitives: containers, validation, and instantaneous quantities."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccsim import (
    AllocationState,
    CcpCostate,
    EcpCostate,
    MarketSnapshot,
    PopulationState,
    SweepReport,
    SystemConfig,
    Trajectory,
    ZeroShare,
    ccp_instant_utility,
    ecp_instant_utility,
    mean_utility,
    per_user_power,
    provider_power,
    theta,
    user_utility,
)
from eccsim.cli import load_scenario
from eccsim.model import ALLOC_TOL, _left_sum, _payoffs, _uptake
from eccsim.replicator import ReplicatorField, analytic_ess
from eccsim.stackelberg import _price_gaps

from conftest import make_config, uptake_reference


def snap_of(cfg, shares, requests, price=0.0):
    return MarketSnapshot(PopulationState(shares), AllocationState(requests),
                          price=price)


class TestSystemConfig:
    def test_valid_roundtrip(self):
        cfg = make_config()
        assert cfg.n_ecps == 2
        np.testing.assert_allclose(cfg.all_access_prices, [0.3, 0.2, 0.2])
        assert cfg.ecp_weights == (1.0, 1.0, 1.0)

    def test_cloud_power_may_equal_largest_edge_power(self):
        cfg = make_config(cloud_power=2.0)
        assert cfg.cloud_power == 2.0

    @pytest.mark.parametrize("field,overrides", [
        ("n_ecps", dict(n_ecps=0)),
        ("n_users", dict(n_users=-3)),
        ("ecp_power", dict(ecp_power=[2.0, 0.0])),
        ("ecp_power", dict(ecp_power=[2.0, 1.0, 1.0])),
        ("ecp_access_price", dict(ecp_access_price=[0.3, -0.2])),
        ("cloud_power", dict(cloud_power=1.5)),
        ("cloud_access_price", dict(cloud_access_price=0.0)),
        ("learning_rate", dict(learning_rate=-1.0)),
        ("mapping_factor", dict(mapping_factor=0.0)),
        ("discount_rate", dict(discount_rate=-0.1)),
        ("ecp_weights", dict(ecp_weights=(1.0, 1.0))),
        ("ccp_weights", dict(ccp_weights=(1.0, 0.0, 1.0))),
        ("nominal_rate", dict(nominal_rate=0.0)),
        ("horizon", dict(horizon=0.0)),
        ("population_delay", dict(population_delay=-0.5)),
        ("n_ecps", dict(n_ecps=True)),
        ("n_users", dict(n_users=True)),
        ("ecp_power", dict(ecp_power=[[2.0, 1.0]])),
        ("ecp_power", dict(ecp_power=[2.0, np.inf])),
        ("ecp_power", dict(ecp_power="abc")),
        ("horizon", dict(horizon="5")),
        ("population_delay", dict(population_delay=None)),
        ("ecp_weights", dict(ecp_weights="abc")),
        ("horizon", dict(horizon=[5.0])),
        ("horizon", dict(horizon=np.array([5.0, 6.0]))),
        ("learning_rate", dict(learning_rate=np.array([1.0]))),
        ("population_delay", dict(population_delay=[0.1])),
        ("ecp_weights", dict(ecp_weights=5.0)),
    ])
    def test_rejections_name_the_field(self, field, overrides):
        with pytest.raises(ValueError, match=f"^{field}"):
            make_config(**overrides)

    @pytest.mark.parametrize("value", [5e-324, 1e-310])
    @pytest.mark.parametrize("field", ["learning_rate", "mapping_factor"])
    def test_theta_must_be_a_normal_float(self, field, value):
        # Each value passes its own rule, but Theta = delta*beta/K*sum(w/p)
        # underflows: to 0 at 5e-324 (0/0 in the rest point, 1/0 in the
        # delay bound), to a subnormal at 1e-310 (an infinite delay bound).
        with pytest.raises(ValueError, match="^learning_rate, mapping_factor:"
                                             " Theta .* positive normal"):
            make_config(**{field: value})
        assert theta(make_config(**{field: 1e-300}),
                     AllocationState([0.0, 0.0])) > 1e-308

    def test_theta_must_not_overflow(self):
        with pytest.raises(ValueError, match=", got inf$"):
            make_config(learning_rate=1e300, mapping_factor=1e300)


class TestStates:
    def test_population_properties(self):
        pop = PopulationState([0.3, 0.3, 0.4])
        assert pop.n_ecps == 2
        np.testing.assert_allclose(pop.ecp, [0.3, 0.3])

    def test_population_boundary_allowed(self):
        pop = PopulationState([0.6, 0.4, 0.0])
        np.testing.assert_array_equal(pop.shares, [0.6, 0.4, 0.0])

    @pytest.mark.parametrize("shares", [
        [0.5, 0.6, -0.1],
        [0.5, 0.4, 0.2],
        [1.2, -0.1, -0.1],
        [1.0],
    ])
    def test_population_rejections(self, shares):
        with pytest.raises(ValueError, match="^shares"):
            PopulationState(shares)

    def test_allocation_remainder(self):
        alloc = AllocationState([0.2, 0.3])
        assert alloc.cloud_remainder == pytest.approx(0.5)
        assert AllocationState([0.6, 0.4]).cloud_remainder == 0.0

    @pytest.mark.parametrize("requests", [
        [-0.1, 0.2],
        [1.0, 0.0],
        [0.7, 0.7],
        [],
    ])
    def test_allocation_rejections(self, requests):
        with pytest.raises(ValueError, match="^requests"):
            AllocationState(requests)

    def test_snapshot_consistency(self):
        pop = PopulationState([0.3, 0.3, 0.4])
        with pytest.raises(ValueError, match="^allocation"):
            MarketSnapshot(pop, AllocationState([0.1]))
        with pytest.raises(ValueError, match="^price"):
            MarketSnapshot(pop, AllocationState([0.1, 0.1]), price=-1.0)
        with pytest.raises(ValueError, match="^price: must be a number$"):
            MarketSnapshot(pop, AllocationState([0.1, 0.1]), price=[0.5])


# Each builds one record of the package afresh from the same inputs.
RECORDS = {
    "SystemConfig": make_config,
    "PopulationState": lambda: PopulationState([0.3, 0.3, 0.4]),
    "AllocationState": lambda: AllocationState([0.1, 0.2]),
    "MarketSnapshot": lambda: snap_of(make_config(), [0.3, 0.3, 0.4],
                                      [0.1, 0.2], 0.5),
    "ReplicatorField": lambda: ReplicatorField(make_config(),
                                               AllocationState([0.1, 0.2])),
    "EssResult": lambda: analytic_ess(make_config(),
                                      AllocationState([0.1, 0.2])),
    "EcpCostate": lambda: EcpCostate.zero(2),
    "CcpCostate": lambda: CcpCostate.zero(2),
    "Trajectory": lambda: Trajectory(np.arange(3.0),
                                     np.tile([0.5, 0.5], (3, 1))),
    "SweepReport": lambda: SweepReport(3, 1e-9, 1e-7, True),
    "Scenario": lambda: load_scenario(str(
        Path(__file__).resolve().parent.parent / "scenarios"
        / "scenario_a.json")),
}


@pytest.mark.parametrize("build", RECORDS.values(), ids=RECORDS.keys())
def test_records_compare_by_identity(build):
    # No generated __eq__ or __hash__: the arrays records hold cannot be
    # compared as one truth value, so equality is identity.
    a, b = build(), build()
    assert a == a
    assert (a == b) is False
    hash(a)
    assert {a: 1}[a] == 1


class TestPerUserPower:
    def test_baseline_values(self, cfg):
        snap = snap_of(cfg, [0.3, 0.3, 0.4], [0.0, 0.0])
        omega = per_user_power(cfg, snap)
        np.testing.assert_allclose(omega, [2 / 30, 1 / 30, 2 / 40])

    def test_requests_shift_compute(self, cfg):
        snap = snap_of(cfg, [0.3, 0.3, 0.4], [0.25, 0.25])
        omega = per_user_power(cfg, snap)
        np.testing.assert_allclose(
            omega, [2.5 / 30, 1.5 / 30, 1.0 / 40])

    def test_zero_share_with_supply_raises(self, cfg):
        snap = snap_of(cfg, [0.6, 0.4, 0.0], [0.0, 0.0])
        with pytest.raises(ZeroShare, match="cloud"):
            per_user_power(cfg, snap)
        snap = snap_of(cfg, [0.0, 0.6, 0.4], [0.0, 0.0])
        with pytest.raises(ZeroShare, match="ecp 1"):
            per_user_power(cfg, snap)

    def test_zero_share_with_zero_supply_is_zero(self, cfg):
        # Cloud fully allocated away and holding no users: 0/0 counts as 0.
        snap = snap_of(cfg, [0.6, 0.4, 0.0], [0.55, 0.45])
        omega = per_user_power(cfg, snap)
        assert omega[-1] == 0.0
        assert np.all(omega[:-1] > 0.0)


class TestUtilities:
    def test_per_user_utilities(self, cfg):
        snap = snap_of(cfg, [0.3, 0.3, 0.4], [0.0, 0.0])
        utils = user_utility(cfg, snap)
        np.testing.assert_allclose(
            utils, [2 / 9, 1 / 6, 1 / 4], rtol=1e-12)
        assert mean_utility(snap.population, utils) == pytest.approx(
            13 / 60, abs=1e-15)

    def test_mean_utility_simple(self):
        pop = PopulationState([0.5, 0.5])
        assert mean_utility(pop, [2.0, 4.0]) == 3.0

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_mean_utility_sums_in_provider_order(self, n):
        # numpy sums 8 or more products pairwise; the mean adds them left
        # to right at every N.
        rng = np.random.default_rng(n)
        for _ in range(50):
            shares = rng.dirichlet(np.ones(n + 1))
            utils = rng.uniform(0.0, 10.0, size=n + 1)
            want = 0.0
            for x, u in zip(shares.tolist(), utils.tolist()):
                want += x * u
            assert mean_utility(PopulationState(shares), utils) == want

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_supply_sums_requests_in_provider_order(self, n):
        # numpy sums 8 or more entries pairwise; every sum over providers
        # adds them left to right, as _uptake does: the cloud's
        # remainder max(1 - sum r, 0) in provider_power,
        # ReplicatorField.supply and AllocationState.cloud_remainder, the
        # compute sales sum r in the cloud's payoff along a grid, and
        # sum 1/p_n in _price_gaps.
        rng = np.random.default_rng(n)
        power = rng.uniform(0.5, 3.0, size=n)
        cfg = make_config(n_ecps=n, ecp_power=power,
                          ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                          cloud_power=float(power.max() * 2.0))
        scale, prices = cfg.mapping_factor / cfg.n_users, cfg.all_access_prices
        requests = rng.dirichlet(np.ones(n + 1), size=200)[:, :n]
        for r in requests:
            alloc = AllocationState(r)
            c, _ = _uptake(cfg)(r.tolist())
            for supply in (provider_power(cfg, alloc),
                           ReplicatorField(cfg, alloc).supply):
                assert (scale * supply / prices).tolist() == c
            assert alloc.cloud_remainder == max(1.0 - _left_sum(r.tolist()), 0.0)

        shares = rng.dirichlet(np.ones(n + 1), size=200)
        price = rng.uniform(0.0, 2.0, size=200)
        got = _payoffs(cfg, shares, requests, price)[:, -1]
        xi1, xi2, xi3 = cfg.ccp_weights
        kphi, p_c, r_c = (cfg.n_users * cfg.nominal_rate,
                          cfg.cloud_access_price, cfg.cloud_power)
        for u, x, r, p in zip(got.tolist(), shares[:, -1].tolist(),
                              requests.tolist(), price.tolist()):
            sold = _left_sum(r)
            gap = kphi * x - r_c * max(1.0 - sold, 0.0)
            assert u == (xi1 * p_c * cfg.n_users * x + r_c * p * (xi2 * sold)
                         - xi3 * (gap * gap))

        for _ in range(200):
            p_n = rng.uniform(0.1, 1.0, size=n)
            gaps = _price_gaps(make_config(n_ecps=n, ecp_power=power,
                                           ecp_access_price=p_n,
                                           cloud_power=cfg.cloud_power))
            inv_sum = _left_sum((1.0 / p_n).tolist())
            assert gaps[2] == inv_sum
            assert gaps[3] == n / cfg.cloud_access_price - inv_sum

    def test_mean_utility_shape_check(self):
        pop = PopulationState([0.5, 0.5])
        with pytest.raises(ValueError, match="^utils"):
            mean_utility(pop, [1.0, 2.0, 3.0])

    def test_mean_utility_names_non_numeric_input(self):
        pop = PopulationState([0.5, 0.5])
        with pytest.raises(ValueError, match="^utils: must be numeric$"):
            mean_utility(pop, "ab")

    def test_theta_values(self, cfg, cfg_big_cloud):
        alloc = AllocationState([0.0, 0.0])
        assert theta(cfg, alloc) == pytest.approx(13 / 60, abs=1e-15)
        assert theta(cfg_big_cloud, alloc) == pytest.approx(13 / 60, abs=1e-15)

    def test_theta_unit_case(self):
        cfg = make_config(n_ecps=1, n_users=1, ecp_power=[1.0],
                          ecp_access_price=[1.0], cloud_power=1.0,
                          cloud_access_price=1.0)
        assert theta(cfg, AllocationState([0.0])) == pytest.approx(2.0)

    def test_provider_payoffs_no_trade(self, cfg):
        snap = snap_of(cfg, [0.3, 0.3, 0.4], [0.0, 0.0], price=0.1)
        assert ecp_instant_utility(cfg, snap, 1) == pytest.approx(8.75)
        assert ecp_instant_utility(cfg, snap, 2) == pytest.approx(5.75)
        assert ccp_instant_utility(cfg, snap) == pytest.approx(8.0)

    def test_provider_payoffs_with_trade(self, cfg):
        snap = snap_of(cfg, [0.3, 0.3, 0.4], [0.1, 0.0], price=1.3)
        assert ecp_instant_utility(cfg, snap, 1) == pytest.approx(8.25)
        assert ccp_instant_utility(cfg, snap) == pytest.approx(8.22)

    def test_provider_index_checked(self, cfg):
        snap = snap_of(cfg, [0.3, 0.3, 0.4], [0.0, 0.0])
        with pytest.raises(ValueError, match="^n"):
            ecp_instant_utility(cfg, snap, 3)


# Strategy: modest sizes and ranges; shares kept interior by construction.
@st.composite
def market_draws(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    unit = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)
    power = draw(st.lists(unit, min_size=n, max_size=n))
    price = draw(st.lists(unit, min_size=n, max_size=n))
    cloud_power = draw(st.floats(max(power), max(power) + 5.0))
    cloud_price = draw(unit)
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n + 1, max_size=n + 1))
    shares = np.asarray(raw) / np.sum(raw)
    req = draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n))
    req = np.asarray(req)
    total = req.sum()
    if total > 0.95:
        req = req * (0.95 / total)
    cfg = make_config(n_ecps=n, ecp_power=power, ecp_access_price=price,
                      cloud_power=cloud_power, cloud_access_price=cloud_price)
    return cfg, PopulationState(shares), AllocationState(req)


@settings(max_examples=60, deadline=None)
@given(market_draws())
def test_total_compute_is_conserved(data):
    cfg, _, alloc = data
    total = float(provider_power(cfg, alloc).sum())
    expected = float(cfg.ecp_power.sum()) + cfg.cloud_power
    assert total == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(market_draws())
def test_mean_utility_is_state_independent(data):
    # sum_s x_s * (beta*omega_s/p_s) collapses to Theta/delta at any
    # interior population because x_s cancels against omega_s.
    cfg, pop, alloc = data
    snap = MarketSnapshot(pop, alloc)
    mean = mean_utility(pop, user_utility(cfg, snap))
    assert mean == pytest.approx(theta(cfg, alloc) / cfg.learning_rate,
                                 rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(market_draws())
def test_theta_positive_and_price_scaling(data):
    cfg, _, alloc = data
    th = theta(cfg, alloc)
    assert th > 0.0
    doubled = make_config(
        n_ecps=cfg.n_ecps, ecp_power=cfg.ecp_power,
        ecp_access_price=2.0 * cfg.ecp_access_price,
        cloud_power=cfg.cloud_power,
        cloud_access_price=2.0 * cfg.cloud_access_price,
    )
    assert theta(doubled, alloc) == pytest.approx(th / 2.0, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_uptake_row_matches_uptake(n, seed):
    # The per-node uptake over Python floats, and the public theta and
    # analytic_ess built on it, against the array formula.  Both sum the
    # requests and the N+1 uptakes left to right, so the uptakes, Theta
    # and the ESS agree bit for bit at every N.
    rng = np.random.default_rng(seed)
    power = rng.uniform(0.5, 3.0, size=n)
    cfg = make_config(n_ecps=n, ecp_power=power,
                      ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                      cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                      cloud_access_price=float(rng.uniform(0.1, 1.0)),
                      learning_rate=float(rng.uniform(0.2, 3.0)),
                      mapping_factor=float(rng.uniform(0.5, 2.0)))
    requests = rng.dirichlet(np.ones(n + 1))[:n]
    requests[rng.random(n) < 0.2] = 0.0
    # The public functions take an allocation, which may not lie past the
    # feasibility slack.
    ess = None
    if rng.random() < 0.25:
        # At the feasibility slack, where the remainder is clamped to 0.
        requests = rng.dirichlet(np.ones(n)) * (1.0 + ALLOC_TOL)
    else:
        alloc = AllocationState(requests)
        ess = analytic_ess(cfg, alloc)
    c_row, theta_row = _uptake(cfg)(requests.tolist())
    if ess is not None:
        assert theta(cfg, alloc) == theta_row
    c, theta_arr = uptake_reference(cfg, requests)
    common = float(np.cumsum(c)[-1])
    assert c_row == c.tolist()
    assert theta_row == float(theta_arr)
    if ess is not None:
        assert ess.common_utility == common
        assert ess.shares.shares.tolist() == (c / common).tolist()


@pytest.mark.parametrize("requests", [[np.nan, 0.2], [0.7, 0.6]],
                         ids=["nan", "excess"])
def test_uptake_clamp_keeps_nan_and_zeroes_excess(requests):
    # The cloud remainder is clamped by comparison: a NaN request gives a
    # NaN Theta, a request sum above 1 a zero cloud uptake, both bit for
    # bit as the array formula's np.maximum.
    cfg = make_config()
    c_row, theta_row = _uptake(cfg)(requests)
    c, theta_arr = uptake_reference(cfg, np.array(requests))
    assert np.array(c_row).tobytes() == c.tobytes()
    assert np.float64(theta_row).tobytes() == theta_arr.tobytes()
    if np.isnan(requests[0]):
        assert np.isnan(theta_row)
    else:
        assert c_row[-1] == 0.0


def uptake_row_comprehensions(cfg, requests):
    """model._uptake's kernel as it was spelled before its one-loop form."""
    power, prices = cfg.ecp_power.tolist(), cfg.all_access_prices.tolist()
    r_c = cfg.cloud_power
    remainder = max(1.0 - _left_sum(requests), 0.0)
    supply = [w + r_c * r for w, r in zip(power, requests)]
    supply.append(r_c * remainder)
    scale = cfg.mapping_factor / cfg.n_users
    c = [scale * w / p for w, p in zip(supply, prices)]
    return c, cfg.learning_rate * _left_sum(c)


@pytest.mark.parametrize("n", range(1, 10))
def test_uptake_row_loop_matches_comprehensions(n):
    # The one-loop kernel performs the comprehension spelling's operations
    # and sums in the same order, so the two agree to the bit, also with
    # zero requests and with the remainder clamped at 0.
    rng = np.random.default_rng(100 + n)
    for _ in range(50):
        power = rng.uniform(0.5, 3.0, size=n)
        cfg = make_config(n_ecps=n, ecp_power=power,
                          ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                          cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                          cloud_access_price=float(rng.uniform(0.1, 1.0)),
                          learning_rate=float(rng.uniform(0.2, 3.0)),
                          mapping_factor=float(rng.uniform(0.5, 2.0)))
        requests = rng.dirichlet(np.ones(n + 1))[:n]
        requests[rng.random(n) < 0.2] = 0.0
        if rng.random() < 0.25:
            requests = rng.dirichlet(np.ones(n)) * (1.0 + ALLOC_TOL)
        row = requests.tolist()
        assert _uptake(cfg)(row) == uptake_row_comprehensions(cfg, row)
