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
    _real_array,
    _uptake,
    _utilities,
    provider_power,
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
    return ReplicatorField(cfg, alloc).delayed_rate(pop_now.shares,
                                                    pop_delayed.shares)


@dataclass(frozen=True, eq=False)
class ReplicatorField:
    """Population vector field under one fixed allocation.

    For interior states the field equals delta*c_s - Theta*x_s with
    c_s = beta*w_s/(K p_s) and w the per-provider compute: multiplying the
    share into its own utility cancels the division, which is why the flow
    is exactly linear in x for a fixed allocation.  The methods keep the
    utility-difference form so the error behavior (ZeroShare) matches the
    public vector field.  The field is the one binding of an allocation's
    population field: its supply w is checked against cfg and computed once
    (`supply`), and _lag_terms reads a block of lag rows against it.
    Integrators take `rate` or `delayed_rate` (no time argument: the field
    is autonomous); a delayed `solve_fixed` steps the same _lag_terms itself.
    """

    cfg: SystemConfig
    alloc: AllocationState

    @cached_property
    def supply(self) -> np.ndarray:
        """Compute per provider w of `alloc` (read-only)."""
        supply = provider_power(self.cfg, self.alloc)
        supply.flags.writeable = False
        return supply

    def rate(self, shares: np.ndarray) -> np.ndarray:
        """Undelayed velocities at raw state `shares`."""
        return self.delayed_rate(shares, shares)

    def _lag_terms(self, lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, G) of each row y of the 2-D `lags`, in one numpy pass: the
        utilities u = beta*w/(K*y*p) (model._utilities) and G = delta*y.
        The delayed field G*(u - now . u) of delayed_rate and the solver's
        rank-one RK4 map both read these terms."""
        return (_utilities(self.cfg, lags, self.supply),
                self.cfg.learning_rate * lags)

    def delayed_rate(self, shares_now: np.ndarray,
                     shares_delayed: np.ndarray) -> np.ndarray:
        """Velocities G*(u - now . u), with (u, G) read from `shares_delayed`.

        The mean now . u adds left to right (model._left_sum).  Raises
        ValueError unless both states hold one share per provider.
        """
        now, lag = (_real_array(shares_now, "shares"),
                    _real_array(shares_delayed, "shares_delayed"))
        for arr, name in ((now, "shares"), (lag, "shares_delayed")):
            if arr.shape != (self.cfg.n_ecps + 1,):
                raise ValueError(f"{name}: length inconsistent with n_ecps")
        (u,), (g,) = (a.tolist() for a in self._lag_terms(lag[None, :]))
        mean = _left_sum([x * v for x, v in zip(now.tolist(), u)])
        return np.array([a * (v - mean) for a, v in zip(g, u)])


@dataclass(frozen=True, eq=False)
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
    c, _ = _uptake(cfg)(alloc.requests.tolist())
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
