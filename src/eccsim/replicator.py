"""Population dynamics of user provider choice.

Users imitate better-performing peers: a group's share grows in proportion
to its utility advantage over the population mean (replicator dynamics).
This module provides the vector field, its delayed variant, the closed-form
evolutionary equilibrium, and the two stability readings used downstream:
the uniform spectrum -Theta of the linearized flow and the reaction-delay
bound pi/(2*Theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    AllocationState,
    PopulationState,
    SystemConfig,
    _check_sizes,
    _left_sum,
    _per_user_power,
    _supply,
    _uptake_row,
    theta,
)

__all__ = [
    "ReplicatorField",
    "EssResult",
    "replicator_rhs",
    "delayed_replicator_rhs",
    "analytic_ess",
    "ess_jacobian_eigen",
    "delay_stability_bound",
]


def _lag_terms(cfg: SystemConfig, supply: list[float]):
    """terms(lags) -> (u, G): what the delayed field reads of its lag rows alone.

    For each row y of the 2-D array `lags`, u = beta*w/(K*y*p) the per-user
    utilities and G = delta*y the growth factors, in one numpy pass for the
    block; the per-user compute comes from model._per_user_power, which owns
    the ZeroShare check and the empty-group rule.  The delayed field is
    G*(u - now . u); ReplicatorField.delayed_rate and the solver's rank-one
    RK4 map both read these terms, so the field has one spelling.
    """
    beta, delta = cfg.mapping_factor, cfg.learning_rate
    w, prices = np.array(supply), cfg.all_access_prices

    def terms(lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return beta * _per_user_power(cfg, lags, w) / prices, delta * lags
    return terms


def replicator_rhs(cfg: SystemConfig, pop: PopulationState,
                   alloc: AllocationState) -> np.ndarray:
    """Share velocities x_dot_s = delta * x_s * (pi_s - mean pi).

    The components sum to zero, so the flow preserves the simplex.

    Raises:
        ZeroShare: a provider with compute on offer has an empty group.
    """
    return delayed_replicator_rhs(cfg, pop, pop, alloc)


def delayed_replicator_rhs(cfg: SystemConfig, pop_now: PopulationState,
                           pop_delayed: PopulationState,
                           alloc: AllocationState) -> np.ndarray:
    """Share velocities when users react to stale observations.

    x_dot_s = delta * x_s(t-tau) * (pi_s(t-tau) - mean), where the mean
    mixes the delayed utilities with the current shares.  With both
    populations equal this is replicator_rhs, which calls it.
    """
    _check_sizes(cfg, pop_now, alloc)
    _check_sizes(cfg, pop_delayed)
    return ReplicatorField(cfg, alloc).delayed_rate(0.0, pop_now.shares,
                                                    pop_delayed.shares)


@dataclass(frozen=True)
class ReplicatorField:
    """Population vector field under one fixed allocation.

    For interior states the field equals delta*c_s - Theta*x_s with
    c_s = beta*w_s/(K p_s) and w the per-provider compute: multiplying the
    share into its own utility cancels the division, which is why the flow
    is exactly linear in x for a fixed allocation.  The methods keep the
    utility-difference form so the error behavior (ZeroShare) matches the
    public vector field.  The supply w is fixed per field and computed
    once (`supply`), and so are the lag terms the field reads (_lag_terms).
    Integrators take `rate` or `delayed_rate` (the time argument is
    unused); a delayed `solve_fixed` steps the same terms itself.
    """

    cfg: SystemConfig
    alloc: AllocationState

    @cached_property
    def supply(self) -> np.ndarray:
        """Compute per provider w of `alloc` (read-only)."""
        supply = _supply(self.cfg, self.alloc.requests)
        supply.flags.writeable = False
        return supply

    def rate(self, t: float, shares: np.ndarray) -> np.ndarray:
        """Undelayed velocities at raw state `shares`."""
        return self.delayed_rate(t, shares, shares)

    @cached_property
    def _terms(self):
        """_lag_terms of `supply`, bound once per field."""
        return _lag_terms(self.cfg, self.supply.tolist())

    def delayed_rate(self, t: float, shares_now: np.ndarray,
                     shares_delayed: np.ndarray) -> np.ndarray:
        """Velocities G*(u - now . u), with (u, G) read from `shares_delayed`.

        The mean now . u adds left to right (model._left_sum).
        """
        (u,), (g,) = (a.tolist() for a in self._terms(
            np.array(shares_delayed, dtype=float, ndmin=2)))
        now = np.asarray(shares_now, dtype=float).tolist()
        mean = _left_sum([x * v for x, v in zip(now, u)])
        return np.array([a * (v - mean) for a, v in zip(g, u)])


@dataclass(frozen=True)
class EssResult:
    """Evolutionary equilibrium: shares plus the equalized per-user utility."""

    shares: PopulationState
    common_utility: float


def analytic_ess(cfg: SystemConfig, alloc: AllocationState) -> EssResult:
    """Closed-form evolutionary equilibrium for a fixed allocation.

    At equilibrium every group enjoys the same per-user utility, which
    forces x*_s proportional to the uptake c_s = beta*w_s/(K p_s).  The
    common utility is then the total uptake sum_s c_s, i.e. Theta/delta.
    """
    _check_sizes(cfg, alloc=alloc)
    c, _ = _uptake_row(cfg, alloc.requests.tolist())
    common = _left_sum(c)
    return EssResult(shares=PopulationState(np.array(c) / common),
                     common_utility=common)


def ess_jacobian_eigen(cfg: SystemConfig, alloc: AllocationState) -> np.ndarray:
    """Spectrum of the linearized population flow at fixed allocation.

    Because x_s * pi_s is state-independent, the flow is affine with matrix
    -Theta * I; all N+1 eigenvalues equal -Theta regardless of the state.
    """
    return np.full(cfg.n_ecps + 1, -theta(cfg, alloc))


def delay_stability_bound(cfg: SystemConfig, alloc: AllocationState) -> float:
    """Largest reaction delay that keeps the equilibrium stable, pi/(2*Theta)."""
    return math.pi / (2.0 * theta(cfg, alloc))
