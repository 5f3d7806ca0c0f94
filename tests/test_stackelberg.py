"""Unit tests for the leader/follower control machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config

from eccsim.model import (
    AllocationState,
    MarketSnapshot,
    PopulationState,
    ccp_instant_utility,
    ecp_instant_utility,
)
from eccsim.replicator import ReplicatorField
from eccsim.stackelberg import (
    CcpCostate,
    EcpCostate,
    ccp_costate_rhs,
    ccp_hamiltonian,
    ecp_costate_rhs,
    ecp_hamiltonian,
    optimal_controls,
)
from eccsim.stackelberg import _stationary_controls


def snapshot(x, r, price=0.0):
    return MarketSnapshot(PopulationState(x), AllocationState(r), price)


class TestCostateContainers:
    def test_zero_shapes(self):
        ec = EcpCostate.zero(3)
        cc = CcpCostate.zero(3)
        assert ec.lam.shape == (3, 3) and not ec.lam.any()
        assert cc.mu.shape == (3,) and cc.theta_mat.shape == (3, 3)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="lam"):
            EcpCostate(np.zeros((2, 3)))

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError, match="mu"):
            CcpCostate(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_mismatched_theta(self):
        with pytest.raises(ValueError, match="theta_mat"):
            CcpCostate(np.zeros(2), np.zeros((3, 3)))

    @pytest.mark.parametrize("field,build", [
        ("lam", lambda: EcpCostate("abc")),
        ("lam", lambda: EcpCostate([[1.0, "a"], [0.0, 0.0]])),
        ("mu", lambda: CcpCostate(["x", 1.0], np.eye(2))),
        ("theta_mat", lambda: CcpCostate([1.0, 2.0], [[1, 2], [3]])),
    ])
    def test_non_numeric_input_names_the_field(self, field, build):
        with pytest.raises(ValueError, match=f"^{field}"):
            build()


def request_shift(cfg, pop, n, m):
    """A_n at lam = e_n e_m^T minus A_n at lam = 0, over its factor
    delta*beta/(K*2*eta3*R_c): q_n[m], the direction in which r_n moves
    x_m's flow."""
    lam = np.zeros((cfg.n_ecps, cfg.n_ecps))
    lam[n - 1, m - 1] = 1.0
    zero = CcpCostate.zero(cfg.n_ecps)
    moved = optimal_controls(cfg, pop, EcpCostate(lam), zero)[0][n - 1]
    base = optimal_controls(cfg, pop, EcpCostate.zero(cfg.n_ecps), zero)[0]
    factor = (cfg.learning_rate * cfg.mapping_factor
              / (cfg.n_users * 2.0 * cfg.ecp_weights[2] * cfg.cloud_power))
    return moved - base[n - 1], factor


class TestQVector:
    def test_hand_case(self):
        # p1=0.5, pc=0.25, x=[0.2,0.3]: q1 = [2,0] + 2*[0.2,0.3] = [2.4,0.6].
        cfg = make_config(ecp_access_price=[0.5, 0.2], cloud_access_price=0.25)
        pop = PopulationState([0.2, 0.3, 0.5])
        for m, q in ((1, 2.4), (2, 0.6)):
            shift, factor = request_shift(cfg, pop, 1, m)
            assert shift == pytest.approx(q * factor, rel=1e-12)

    def test_equal_prices_is_basis_vector(self):
        cfg = make_config(ecp_access_price=[0.2, 0.2], cloud_access_price=0.2)
        pop = PopulationState([0.3, 0.3, 0.4])
        assert request_shift(cfg, pop, 2, 1)[0] == 0.0
        shift, factor = request_shift(cfg, pop, 2, 2)
        assert shift == pytest.approx(5.0 * factor, rel=1e-12)


class TestOptimalRequest:
    def test_hand_case_zero(self):
        # A = (K*phi*x_n - R_n)/R_c = (10*0.5*0.4 - 1)/2 = 0.5,
        # B = eta2/(2*eta3*R_c) = 2/4 = 0.5, so r*(p=1) = 0.
        cfg = make_config(
            n_ecps=1,
            n_users=10,
            ecp_power=[1.0],
            ecp_access_price=[1.0],
            cloud_power=2.0,
            cloud_access_price=1.0,
            nominal_rate=0.5,
            ecp_weights=[1.0, 2.0, 1.0],
        )
        pop = PopulationState([0.4, 0.6])
        a_vec, b, _ = optimal_controls(cfg, pop, EcpCostate.zero(1),
                                       CcpCostate.zero(1))
        assert a_vec - b * 1.0 == pytest.approx([0.0], abs=1e-15)

    def test_zero_costate_duopoly(self, cfg_big_cloud, x0):
        # A = [0.08, 0.28], B = 0.1 at x0 for the big-cloud scenario.
        pop = PopulationState(x0)
        a_vec, b, _ = optimal_controls(cfg_big_cloud, pop, EcpCostate.zero(2),
                                       CcpCostate.zero(2))
        assert isinstance(a_vec, np.ndarray) and a_vec.shape == (2,)
        assert a_vec.tolist() == [pytest.approx(0.08), pytest.approx(0.28)]
        assert b == pytest.approx(0.1, abs=1e-15)

    def test_matches_decomposition(self, cfg_big_cloud, x0):
        # A_n does not depend on the leader's adjoints, and B on no adjoint.
        pop = PopulationState(x0)
        ec = EcpCostate(np.array([[3.0, -1.0], [0.5, 2.0]]))
        a_vec, b, _ = optimal_controls(cfg_big_cloud, pop, ec,
                                       CcpCostate.zero(2))
        leader = CcpCostate(np.array([5.0, -3.0]), np.eye(2))
        a_led, b_led, _ = optimal_controls(cfg_big_cloud, pop, ec, leader)
        assert a_led.tolist() == a_vec.tolist() and b_led == b

    def test_costate_shifts_intercept_not_slope(self, cfg_big_cloud, x0):
        pop = PopulationState(x0)
        a0, b0, _ = optimal_controls(cfg_big_cloud, pop, EcpCostate.zero(2),
                                     CcpCostate.zero(2))
        lam = np.array([[10.0, 4.0], [-2.0, 6.0]])
        a1, b1, _ = optimal_controls(cfg_big_cloud, pop, EcpCostate(lam),
                                     CcpCostate.zero(2))
        assert b0 == b1 and a0[0] != a1[0]


class TestOptimalPrice:
    def test_zero_costate_oracle(self, cfg_big_cloud, x0):
        pop = PopulationState(x0)
        a_vec, b, p = optimal_controls(cfg_big_cloud, pop, EcpCostate.zero(2),
                                       CcpCostate.zero(2))
        assert p == pytest.approx(0.45, abs=1e-14)
        np.testing.assert_allclose(a_vec - b * p, [0.035, 0.235], rtol=0,
                                   atol=1e-14)

    def test_follower_stationarity_fd(self, cfg_big_cloud, x0):
        # Central difference of H_n in r_n vanishes at the stationary request.
        pop = PopulationState(x0)
        ec = EcpCostate.zero(2)
        price = 0.45
        a_vec, b, _ = optimal_controls(cfg_big_cloud, pop, ec,
                                       CcpCostate.zero(2))
        r_star = (a_vec - b * price).tolist()
        h = 1e-5
        for n in (1, 2):
            def ham(rn):
                r = list(r_star)
                r[n - 1] = rn
                return ecp_hamiltonian(cfg_big_cloud,
                                       snapshot(x0, r, price), ec, n)
            fd = (ham(r_star[n - 1] + h) - ham(r_star[n - 1] - h)) / (2.0 * h)
            assert abs(fd) < 1e-8

    def test_leader_stationarity_fd(self, cfg_big_cloud, x0):
        # After substituting the followers' reaction, dH_c/dp = 0 at p*.
        pop = PopulationState(x0)
        ec = EcpCostate.zero(2)
        cc = CcpCostate.zero(2)
        a_vec, b, p_star = optimal_controls(cfg_big_cloud, pop, ec, cc)

        def ham(p):
            r = a_vec - b * p
            return ccp_hamiltonian(cfg_big_cloud, snapshot(x0, r, p), ec, cc)

        h = 1e-5
        fd = (ham(p_star + h) - ham(p_star - h)) / (2.0 * h)
        assert abs(fd) < 1e-8
        assert ham(p_star) > ham(p_star + 0.05)
        assert ham(p_star) > ham(p_star - 0.05)

    def test_nonzero_costates_move_price(self, cfg_big_cloud, x0):
        pop = PopulationState(x0)
        base = optimal_controls(cfg_big_cloud, pop, EcpCostate.zero(2),
                                CcpCostate.zero(2))[2]
        cc = CcpCostate(np.array([5.0, -3.0]), np.eye(2))
        moved = optimal_controls(cfg_big_cloud, pop,
                                 EcpCostate(np.ones((2, 2))), cc)[2]
        assert moved != base


class TestHamiltonians:
    def test_ecp_reduces_to_utility_at_zero_costate(self, cfg, x0):
        snap = snapshot(x0, [0.0, 0.0], price=0.1)
        for n in (1, 2):
            assert ecp_hamiltonian(cfg, snap, EcpCostate.zero(2), n) == \
                ecp_instant_utility(cfg, snap, n)

    def test_ecp_hand_value(self, cfg, x0):
        # u_1 = 8.75 and flow[:2] = [1/600, -3/200], lam row [1, 2].
        snap = snapshot(x0, [0.0, 0.0], price=0.1)
        ec = EcpCostate(np.array([[1.0, 2.0], [0.0, 0.0]]))
        want = 8.75 + 1.0 / 600.0 - 2.0 * 0.015
        assert ecp_hamiltonian(cfg, snap, ec, 1) == pytest.approx(want,
                                                                  rel=1e-14)

    def test_ccp_reduces_to_utility_at_zero_costate(self, cfg, x0):
        snap = snapshot(x0, [0.0, 0.0], price=0.1)
        got = ccp_hamiltonian(cfg, snap, EcpCostate.zero(2), CcpCostate.zero(2))
        assert got == ccp_instant_utility(cfg, snap)

    def test_ccp_hand_value(self, cfg, x0):
        # u_c = 8; mu.flow = 1/600 - 3/200; theta=I picks the diagonal of the
        # zero-costate adjoint flow [[-30,0],[0,-20]], contributing -50.
        snap = snapshot(x0, [0.0, 0.0], price=0.1)
        cc = CcpCostate(np.array([1.0, 1.0]), np.eye(2))
        got = ccp_hamiltonian(cfg, snap, EcpCostate.zero(2), cc)
        want = 8.0 + (1.0 / 600.0 - 3.0 / 200.0) - 50.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_flow_term_matches_replicator(self, cfg, x0):
        snap = snapshot(x0, [0.1, 0.2], price=0.5)
        lam = np.array([[2.0, -1.0], [4.0, 0.5]])
        flow = ReplicatorField(cfg, snap.allocation).rate(x0)[:2]
        for n in (1, 2):
            got = ecp_hamiltonian(cfg, snap, EcpCostate(lam), n)
            want = (ecp_instant_utility(cfg, snap, n)
                    + float(np.dot(lam[n - 1], flow)))
            assert got == pytest.approx(want, rel=1e-15)


class TestCostateFields:
    def test_zero_costate_sources(self, cfg, x0):
        # At lam = 0 only the diagonal source -eta1*p_n*K remains.
        snap = snapshot(x0, [0.0, 0.0])
        ec = EcpCostate.zero(2)
        np.testing.assert_allclose(ecp_costate_rhs(cfg, snap, ec, 1),
                                   [-30.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(ecp_costate_rhs(cfg, snap, ec, 2),
                                   [0.0, -20.0], rtol=0, atol=1e-15)
        mu_dot, theta_dot = ccp_costate_rhs(cfg, snap, CcpCostate.zero(2))
        np.testing.assert_allclose(mu_dot, [-20.0, -20.0], rtol=0, atol=1e-15)
        assert not theta_dot.any()

    def test_decay_rate(self, cfg, x0):
        # Homogeneous part grows at rho + Theta = 0.1 + 13/60.
        snap = snapshot(x0, [0.0, 0.0])
        decay = 0.1 + 13.0 / 60.0
        lam = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = ecp_costate_rhs(cfg, snap, EcpCostate(lam), 1)
        np.testing.assert_allclose(got, [1.0 * decay - 30.0, 2.0 * decay],
                                   rtol=1e-14)
        mu_dot, theta_dot = ccp_costate_rhs(
            cfg, snap, CcpCostate(np.array([1.0, -1.0]), np.eye(2)))
        np.testing.assert_allclose(mu_dot, [decay - 20.0, -decay - 20.0],
                                   rtol=1e-14)
        np.testing.assert_allclose(theta_dot, np.eye(2) * (13.0 / 60.0),
                                   rtol=1e-14)

    def test_theta_rate_excludes_discount(self, cfg, x0):
        # theta_mat tracks the follower adjoints, whose own growth already
        # carries the discount; its homogeneous rate is Theta alone.
        snap = snapshot(x0, [0.0, 0.0])
        _, theta_dot = ccp_costate_rhs(
            cfg, snap, CcpCostate(np.zeros(2), np.full((2, 2), 6.0)))
        np.testing.assert_allclose(theta_dot, np.full((2, 2), 1.3),
                                   rtol=1e-14)

    def test_rejects_out_of_range_provider(self, cfg, x0):
        snap = snapshot(x0, [0.0, 0.0])
        with pytest.raises(ValueError, match="n: must be in 1..2"):
            ecp_costate_rhs(cfg, snap, EcpCostate.zero(2), 3)


# Every function of one edge provider n, called on the default duopoly.
PROVIDER_CALLS = {
    "ecp_instant_utility": lambda cfg, x, n: ecp_instant_utility(
        cfg, snapshot(x, [0.1, 0.2]), n),
    "ecp_hamiltonian": lambda cfg, x, n: ecp_hamiltonian(
        cfg, snapshot(x, [0.1, 0.2]), EcpCostate.zero(2), n),
    "ecp_costate_rhs": lambda cfg, x, n: ecp_costate_rhs(
        cfg, snapshot(x, [0.1, 0.2]), EcpCostate.zero(2), n),
}


@pytest.mark.parametrize("n", [0, 3, True, 1.5],
                         ids=["zero", "past_n", "bool", "float"])
@pytest.mark.parametrize("name", sorted(PROVIDER_CALLS))
def test_provider_index_is_checked(cfg, x0, name, n):
    # One check (model._check_provider) behind every per-provider function:
    # an index out of range, a bool (True would serve provider 1) or a
    # float (1.5 would reach numpy's indexing) gets the same ValueError.
    with pytest.raises(ValueError, match=r"^n: must be in 1\.\.2$"):
        PROVIDER_CALLS[name](cfg, x0, n)


@pytest.mark.parametrize("name", sorted(PROVIDER_CALLS))
def test_provider_index_may_be_a_numpy_integer(cfg, x0, name):
    want = PROVIDER_CALLS[name](cfg, x0, 2)
    np.testing.assert_array_equal(
        PROVIDER_CALLS[name](cfg, x0, np.int64(2)), want)


# Every public function that takes costates, on the duopoly, given costates
# sized for N = k (1 or 3) in the argument the key names.
COSTATE_CALLS = {
    "optimal_controls/lam": lambda cfg, x, k: optimal_controls(
        cfg, PopulationState(x), EcpCostate.zero(k), CcpCostate.zero(2)),
    "optimal_controls/mu": lambda cfg, x, k: optimal_controls(
        cfg, PopulationState(x), EcpCostate.zero(2), CcpCostate.zero(k)),
    "ecp_hamiltonian/lam": lambda cfg, x, k: ecp_hamiltonian(
        cfg, snapshot(x, [0.1, 0.2]), EcpCostate.zero(k), 1),
    "ecp_costate_rhs/lam": lambda cfg, x, k: ecp_costate_rhs(
        cfg, snapshot(x, [0.1, 0.2]), EcpCostate.zero(k), 1),
    "ccp_hamiltonian/lam": lambda cfg, x, k: ccp_hamiltonian(
        cfg, snapshot(x, [0.1, 0.2]), EcpCostate.zero(k), CcpCostate.zero(2)),
    "ccp_hamiltonian/mu": lambda cfg, x, k: ccp_hamiltonian(
        cfg, snapshot(x, [0.1, 0.2]), EcpCostate.zero(2), CcpCostate.zero(k)),
    "ccp_costate_rhs/mu": lambda cfg, x, k: ccp_costate_rhs(
        cfg, snapshot(x, [0.1, 0.2]), CcpCostate.zero(k)),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(COSTATE_CALLS))
def test_costates_are_checked_against_the_configuration(cfg, x0, name, k):
    # A costate sized for another N would broadcast silently or fail
    # inside numpy; each is rejected by name.
    field = name.split("/")[1]
    with pytest.raises(ValueError,
                       match=f"^{field}: .* inconsistent with n_ecps$"):
        COSTATE_CALLS[name](cfg, x0, k)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_stationary_controls_match_array_spelling(n, seed):
    # The float kernel is this array formula evaluated in the same order.
    # numpy sums fewer than 8 entries left to right, so up to N = 6 the two
    # agree to the bit.
    rng = np.random.default_rng(seed)
    power = rng.uniform(0.5, 3.0, size=n)
    cfg = make_config(n_ecps=n, ecp_power=power,
                      ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                      cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                      learning_rate=float(rng.uniform(0.2, 3.0)),
                      ecp_weights=tuple(rng.uniform(0.5, 2.0, size=3)),
                      ccp_weights=tuple(rng.uniform(0.5, 2.0, size=3)))
    x = rng.dirichlet(np.ones(n + 1))[:n]
    lam_dot_q = 10.0 * rng.normal(size=n)
    flow = 10.0 * float(rng.normal())
    a_list, b_slope, price = _stationary_controls(cfg)(
        x.tolist(), float(x.sum()), lam_dot_q.tolist(), flow)

    eta2, eta3 = cfg.ecp_weights[1:]
    xi2, xi3 = cfg.ccp_weights[1:]
    power_c = cfg.cloud_power
    kphi = cfg.n_users * cfg.nominal_rate
    gain = cfg.learning_rate * cfg.mapping_factor / cfg.n_users
    b_want = eta2 / (2.0 * eta3 * power_c)
    a_want = ((kphi * x - cfg.ecp_power) / power_c
              + (gain / (2.0 * eta3 * power_c)) * lam_dot_q)
    sum_a = float(a_want.sum())
    nb = n * b_want
    numerator = (xi2 * sum_a
                 + 2.0 * xi3 * nb * (kphi * (1.0 - float(x.sum()))
                                     - power_c * (1.0 - sum_a))
                 + gain * b_want * flow)
    assert a_list == a_want.tolist()
    assert b_slope == b_want
    assert price == numerator / (2.0 * nb * (xi2 + xi3 * power_c * nb))


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


@pytest.mark.parametrize("n", [8, 9])
def test_general_costate_sums_run_left_to_right(n):
    # From N = 8 BLAS products (np.dot, @, einsum) round unlike a left to
    # right sum; the general-costate controls and both Hamiltonians match a
    # plain Python reference bit for bit.
    rng = np.random.default_rng(n)
    power = rng.uniform(0.5, 3.0, size=n)
    cfg = make_config(n_ecps=n, ecp_power=power,
                      ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                      cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                      learning_rate=float(rng.uniform(0.2, 3.0)))
    inv_p = (1.0 / cfg.ecp_access_price).tolist()
    inv_c = 1.0 / cfg.cloud_access_price
    mix = n / cfg.cloud_access_price - left_to_right(inv_p)
    for _ in range(50):
        x = rng.dirichlet(np.ones(n + 1))
        r = rng.dirichlet(np.ones(n + 1))[:n]
        lam, th = rng.normal(size=(2, n, n)).tolist()
        mu = rng.normal(size=n).tolist()
        pop, costate = PopulationState(x), EcpCostate(np.array(lam))
        leader = CcpCostate(np.array(mu), np.array(th))
        xe = x[:n].tolist()
        lam_dot_q = [lam[k][k] * inv_p[k] - (inv_p[k] - inv_c)
                     * left_to_right(a * b for a, b in zip(lam[k], xe))
                     for k in range(n)]
        flow = (left_to_right(m * (-ip - xk * mix)
                              for m, ip, xk in zip(mu, inv_p, xe))
                + left_to_right(a * b for ta, la in zip(th, lam)
                                for a, b in zip(ta, la)) * mix)
        a_vec, b_slope, price = _stationary_controls(cfg)(
            xe, left_to_right(xe), lam_dot_q, flow)
        got_a, got_b, got_price = optimal_controls(cfg, pop, costate, leader)
        assert (got_a.tolist(), got_b, got_price) == (a_vec, b_slope, price)

        snap = snapshot(x, r, price=abs(price))
        x_dot = ReplicatorField(cfg, snap.allocation).rate(x)[:n].tolist()
        for k in range(1, n + 1):
            assert ecp_hamiltonian(cfg, snap, costate, k) == (
                ecp_instant_utility(cfg, snap, k)
                + left_to_right(a * b for a, b in zip(lam[k - 1], x_dot)))
        lam_flow = [ecp_costate_rhs(cfg, snap, costate, k).tolist()
                    for k in range(1, n + 1)]
        assert ccp_hamiltonian(cfg, snap, costate, leader) == (
            ccp_instant_utility(cfg, snap)
            + left_to_right(a * b for a, b in zip(mu, x_dot))
            + left_to_right(a * b for ta, fa in zip(th, lam_flow)
                            for a, b in zip(ta, fa)))


def controls_comprehensions(cfg):
    """The control kernel as it was spelled before its one-loop form."""
    eta2, eta3 = cfg.ecp_weights[1:]
    xi2, xi3 = cfg.ccp_weights[1:]
    power_c, power = cfg.cloud_power, cfg.ecp_power.tolist()
    kphi = cfg.n_users * cfg.nominal_rate
    gain = cfg.learning_rate * cfg.mapping_factor / cfg.n_users
    b_slope = eta2 / (2.0 * eta3 * power_c)
    adjoint_gain = gain / (2.0 * eta3 * power_c)
    nb = cfg.n_ecps * b_slope
    share_gain, flow_gain = 2.0 * xi3 * nb, gain * b_slope
    denominator = 2.0 * nb * (xi2 + xi3 * power_c * nb)

    def controls(x_ecp, sum_x, lam_dot_q, leader_flow):
        a_vec = [(kphi * x - w) / power_c + adjoint_gain * q
                 for x, w, q in zip(x_ecp, power, lam_dot_q)]
        sum_a = left_to_right(a_vec)
        numerator = (xi2 * sum_a
                     + share_gain * (kphi * (1.0 - sum_x)
                                     - power_c * (1.0 - sum_a))
                     + flow_gain * leader_flow)
        return a_vec, b_slope, numerator / denominator
    return controls


@pytest.mark.parametrize("n", range(1, 10))
def test_control_kernel_loop_matches_comprehensions(n):
    # The one-loop kernel builds A and sum A with the comprehension
    # spelling's operations, summed left to right from 0.0, and reads the
    # sum of x it is handed: equal bits.
    rng = np.random.default_rng(200 + n)
    for _ in range(50):
        power = rng.uniform(0.5, 3.0, size=n)
        cfg = make_config(n_ecps=n, ecp_power=power,
                          ecp_access_price=rng.uniform(0.1, 1.0, size=n),
                          cloud_power=float(power.max() * rng.uniform(1.0, 4.0)),
                          learning_rate=float(rng.uniform(0.2, 3.0)),
                          ecp_weights=tuple(rng.uniform(0.5, 2.0, size=3)),
                          ccp_weights=tuple(rng.uniform(0.5, 2.0, size=3)))
        x = rng.dirichlet(np.ones(n + 1))[:n].tolist()
        args = (x, left_to_right(x), (10.0 * rng.normal(size=n)).tolist(),
                10.0 * float(rng.normal()))
        assert (_stationary_controls(cfg)(*args)
                == controls_comprehensions(cfg)(*args))
