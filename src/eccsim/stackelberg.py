"""Leader/follower optimal controls and their adjoint fields.

The cloud provider (leader) announces a compute price p(t); each edge
provider (follower) answers with a request share r_n(t).  Both sides
maximize a discounted integral payoff subject to the population dynamics,
which couples every decision through the user shares.  This module carries
the first-order machinery of that hierarchical game: per-player
Hamiltonians, the closed-form stationary controls, and the adjoint
(costate) vector fields integrated backward by the solver.

The stationary controls have one implementation, the float kernel that
`_stationary_controls(cfg)` binds to a configuration.  It sees the adjoints
only through two aggregate terms, which one public function,
`optimal_controls`, evaluates at general costates, and the solver's
forward pass at its scalar profile.
The adjoint sources eta1*p_n*K and xi1*p_c*K have one home as well,
`_adjoint_scales`, read by the costate fields here and by the solver.
The Hamiltonians read the share flow from `ReplicatorField.rate`, not
the control kernel, so they check the stationarity conditions independently.

Controls returned here are unprojected stationary points; clamping to the
feasible box is the caller's job, because feasibility is a property of the
stored schedule, not of the optimality condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    MarketSnapshot,
    PopulationState,
    SystemConfig,
    _check_provider,
    _check_sizes,
    _left_sum,
    _real_array,
    _running_total,
    ccp_instant_utility,
    ecp_instant_utility,
    theta,
)
from .replicator import ReplicatorField

__all__ = [
    "EcpCostate",
    "CcpCostate",
    "optimal_controls",
    "ecp_hamiltonian",
    "ecp_costate_rhs",
    "ccp_hamiltonian",
    "ccp_costate_rhs",
]


@dataclass(frozen=True, eq=False)
class EcpCostate:
    """Edge-provider adjoints: lam[n, m] prices x_m in provider n's problem.

    The cloud share is eliminated through x_c = 1 - sum x_n, so each row
    covers only the N edge shares.  Terminal condition: lam(T) = 0.
    """

    lam: np.ndarray

    def __post_init__(self) -> None:
        arr = _real_array(self.lam, "lam")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("lam: expected a square N x N matrix")
        object.__setattr__(self, "lam", arr)

    @classmethod
    def zero(cls, n_ecps: int) -> "EcpCostate":
        return cls(np.zeros((n_ecps, n_ecps)))


@dataclass(frozen=True, eq=False)
class CcpCostate:
    """Cloud-provider adjoints.

    mu[n] prices the share x_n; theta_mat[n, m] prices the follower adjoint
    lam[n, m], which the leader treats as part of the controlled system.
    Terminal condition: both zero at T.
    """

    mu: np.ndarray
    theta_mat: np.ndarray

    def __post_init__(self) -> None:
        mu = _real_array(self.mu, "mu")
        th = _real_array(self.theta_mat, "theta_mat")
        if mu.ndim != 1:
            raise ValueError("mu: expected an N-vector")
        if th.shape != (mu.shape[0], mu.shape[0]):
            raise ValueError("theta_mat: expected an N x N matrix")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "theta_mat", th)

    @classmethod
    def zero(cls, n_ecps: int) -> "CcpCostate":
        return cls(np.zeros(n_ecps), np.zeros((n_ecps, n_ecps)))


def _check_costates(cfg: SystemConfig, ecp: EcpCostate | None = None,
                    ccp: CcpCostate | None = None) -> None:
    """Reject adjoints sized for another N: lam must be N x N, mu of length N
    (CcpCostate ties theta_mat to mu)."""
    if ecp is not None and ecp.lam.shape[0] != cfg.n_ecps:
        raise ValueError("lam: size inconsistent with n_ecps")
    if ccp is not None and ccp.mu.shape[0] != cfg.n_ecps:
        raise ValueError("mu: length inconsistent with n_ecps")


def _adjoint_scales(cfg: SystemConfig) -> tuple[np.ndarray, float]:
    """The adjoint sources: (eta1*p_n*K for each follower, xi1*p_c*K)."""
    return (cfg.ecp_weights[0] * cfg.ecp_access_price * cfg.n_users,
            cfg.ccp_weights[0] * cfg.cloud_access_price * cfg.n_users)


def _price_gaps(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(1/p_n, gap_n = 1/p_n - 1/p_c, sum 1/p_n, mix = N/p_c - sum 1/p_n).

    mix is the common sensitivity of the cloud-bound utility mass to the
    price.
    """
    inv_p = 1.0 / cfg.ecp_access_price
    inv_sum = float(_running_total(inv_p))
    mix = cfg.n_ecps / cfg.cloud_access_price - inv_sum
    return inv_p, inv_p - 1.0 / cfg.cloud_access_price, inv_sum, mix


def _stationary_controls(cfg: SystemConfig) -> Callable:
    """Kernel controls(x_ecp, sum_x, lam_dot_q, leader_flow) -> (A, B, p) for cfg.

    Stationary requests A_n - B*p and the leader price p.  The adjoints
    enter only through lam_dot_q[n] = lam_n . q_n(x) and the leader's flow
    term mu . (-1/p - x*mix) + mix * <theta_mat, lam>.  The price maximizes
    the leader's Hamiltonian after the followers' reactions are
    substituted, which makes it strictly concave in p.

    A float kernel over lists of Python floats, with no numpy, because the
    sweep's forward pass calls it at every grid node; cfg is read and the
    constant factors folded once, in the formula's order of operations.
    sum_x is the sum of x_ecp, which the caller has already added left to
    right from 0.0 (the rule of model._left_sum); one loop builds A and
    its sum in the same order.
    """
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
        a_vec, sum_a = [], 0.0
        for x, w, q in zip(x_ecp, power, lam_dot_q):
            a = (kphi * x - w) / power_c + adjoint_gain * q
            a_vec.append(a)
            sum_a += a
        numerator = (xi2 * sum_a
                     + share_gain * (kphi * (1.0 - sum_x)
                                     - power_c * (1.0 - sum_a))
                     + flow_gain * leader_flow)
        return a_vec, b_slope, numerator / denominator
    return controls


def optimal_controls(cfg: SystemConfig, pop: PopulationState,
                     ecp_costates: EcpCostate, ccp_costate: CcpCostate
                     ) -> tuple[np.ndarray, float, float]:
    """Stationary controls (A, B, p) at general costates, unprojected.

    Follower n's reaction to a price p is the request A_n - B*p (A, shape
    (N,), is free of the leader's adjoints); p maximizes the leader's
    Hamiltonian with those reactions substituted.  The kernel's adjoint
    terms add left to right: lam_dot_q[n] = lam_n . q_n, where
    q_n = (1/p_n) e_n - (1/p_n - 1/p_c) x_ecp is how r_n moves the flow.
    """
    _check_sizes(cfg, pop)
    _check_costates(cfg, ecp_costates, ccp_costate)
    x_ecp, lam = pop.ecp, ecp_costates.lam
    x_list = x_ecp.tolist()
    inv_p, gap, _, mix = _price_gaps(cfg)
    lam_dot_q = np.diagonal(lam) * inv_p - gap * _running_total(lam * x_ecp)
    flow = (float(_running_total(ccp_costate.mu * (-inv_p - x_ecp * mix)))
            + float(_running_total((ccp_costate.theta_mat * lam).ravel())) * mix)
    a_vec, b_slope, price = _stationary_controls(cfg)(
        x_list, _left_sum(x_list), lam_dot_q.tolist(), flow)
    return np.array(a_vec), b_slope, price


def ecp_hamiltonian(cfg: SystemConfig, snap: MarketSnapshot,
                    costate: EcpCostate, n: int) -> float:
    """Provider n's Hamiltonian: payoff plus adjoint-weighted share flow."""
    _check_provider(cfg, n)
    _check_costates(cfg, costate)
    flow = ReplicatorField(cfg, snap.allocation).rate(snap.population.shares)
    return (ecp_instant_utility(cfg, snap, n)
            + float(_running_total(costate.lam[n - 1] * flow[:-1])))


def ecp_costate_rhs(cfg: SystemConfig, snap: MarketSnapshot,
                    costate: EcpCostate, n: int) -> np.ndarray:
    """Adjoint velocities for provider n's row of lam.

    lam_dot_nm = lam_nm*(rho + Theta) minus the access-revenue source
    eta1*p_n*K on the diagonal entry.  The off-diagonal equations are
    homogeneous, so rows started at zero stay diagonal.
    """
    _check_provider(cfg, n)
    _check_costates(cfg, costate)
    out = costate.lam[n - 1] * (cfg.discount_rate + theta(cfg, snap.allocation))
    out[n - 1] -= _adjoint_scales(cfg)[0][n - 1]
    return out


def ccp_hamiltonian(cfg: SystemConfig, snap: MarketSnapshot,
                    ecp_costates: EcpCostate, ccp_costate: CcpCostate) -> float:
    """Leader's Hamiltonian: payoff plus adjoint-weighted system flow.

    The controlled system seen by the leader is the share flow plus the
    followers' adjoint flow, hence the theta_mat-weighted lam velocities.
    """
    _check_costates(cfg, ecp_costates, ccp_costate)
    flow = ReplicatorField(cfg, snap.allocation).rate(snap.population.shares)
    lam_flow = np.stack([ecp_costate_rhs(cfg, snap, ecp_costates, n)
                         for n in range(1, cfg.n_ecps + 1)])
    return (ccp_instant_utility(cfg, snap)
            + float(_running_total(ccp_costate.mu * flow[:-1]))
            + float(_running_total((ccp_costate.theta_mat * lam_flow).ravel())))


def ccp_costate_rhs(cfg: SystemConfig, snap: MarketSnapshot,
                    ccp_costate: CcpCostate) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint velocities (mu_dot, theta_mat_dot) for the leader.

    mu_dot_n = mu_n*(rho + Theta) - xi1*p_c*K; the theta_mat equations are
    homogeneous with rate Theta (the discount cancels against the growth of
    the follower adjoints they track).
    """
    _check_costates(cfg, ccp=ccp_costate)
    th = theta(cfg, snap.allocation)
    mu_dot = ccp_costate.mu * (cfg.discount_rate + th) - _adjoint_scales(cfg)[1]
    return mu_dot, ccp_costate.theta_mat * th
