"""Market primitives for a two-tier edge/cloud compute market.

A cloud provider (the leader) sells compute to N edge providers (the
followers) at a unit price p(t); each edge provider n resells access to a
population of K user devices at a fixed access price p_n.  Users split into
N+1 groups by provider choice; the group shares live on the simplex.  This
module holds the static parameter bundle, the state containers, and the
instantaneous quantities everything else is built from: per-user compute,
per-user utility, the population mean utility, the aggregate utility mass
Theta, and the providers' instantaneous payoffs.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "ZeroShare",
    "SystemConfig",
    "PopulationState",
    "AllocationState",
    "MarketSnapshot",
    "provider_power",
    "per_user_power",
    "user_utility",
    "mean_utility",
    "theta",
    "ecp_instant_utility",
    "ccp_instant_utility",
]

# Sum-to-one slack for population states.
SIMPLEX_TOL = 1e-12
# Feasibility slack for allocation states (floating-point headroom only).
ALLOC_TOL = 1e-9


class ZeroShare(RuntimeError):
    """A provider with positive compute to hand out has an empty user group.

    The per-user quantities divide compute by group size; a zero share with
    nonzero compute behind it makes the division meaningless.  Raised instead
    of returning infinity so integrators can detect boundary exit.
    """


def _real_array(value, name: str) -> np.ndarray:
    """value as a float array of reals (bools too); else ValueError naming
    `name`."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise ValueError(f"{name}: must be numeric")
    return arr.astype(float, copy=False)


def _real_number(value, name: str) -> float:
    """value as a float (_real_array, 0-d); else ValueError naming `name`."""
    arr = _real_array(value, name)
    if arr.ndim != 0:
        raise ValueError(f"{name}: must be a number")
    return float(arr)


def _check_count(value, name: str) -> None:
    """Reject value unless it is a positive integer (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise ValueError(f"{name}: must be a positive integer")


def _as_float_vector(value, name: str, length: int | None = None) -> np.ndarray:
    arr = _real_array(value, name)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name}: expected length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Static parameters of the market.

    Attributes:
        n_ecps: number of edge providers N.
        n_users: population size K.
        ecp_power: own compute R_n of each edge provider, length N, kH/s.
        ecp_access_price: user access price p_n of each edge provider.
        cloud_power: cloud compute capacity R_c, kH/s.
        cloud_access_price: user access price p_c of the cloud provider.
        learning_rate: population adaptation speed delta.
        mapping_factor: compute-to-utility scale beta.
        discount_rate: provider discount rate rho.
        ecp_weights: payoff weights (eta1, eta2, eta3) of every edge provider.
        ccp_weights: payoff weights (xi1, xi2, xi3) of the cloud provider.
        nominal_rate: nominal per-user compute demand phi.
        horizon: planning horizon T.
        population_delay: user-side reaction delay tau_x, 0 means undelayed.
    """

    n_ecps: int
    n_users: int
    ecp_power: np.ndarray
    ecp_access_price: np.ndarray
    cloud_power: float
    cloud_access_price: float
    learning_rate: float
    mapping_factor: float
    discount_rate: float
    ecp_weights: tuple[float, float, float]
    ccp_weights: tuple[float, float, float]
    nominal_rate: float
    horizon: float
    population_delay: float = 0.0

    def __post_init__(self) -> None:
        # By declared kind (cli._READERS's strings), n_ecps first.
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if f.type == "int":
                _check_count(value, name)
            elif f.type == "np.ndarray":
                vec = _as_float_vector(value, name, self.n_ecps)
                if np.any(vec <= 0.0):
                    raise ValueError(f"{name}: every entry must be positive")
                object.__setattr__(self, name, vec)
            else:
                arr = (_real_number if f.type == "float" else _real_array)(
                    value, name)
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"{name}: must be finite")
                if f.type == "float":
                    if arr < 0.0 and name == "population_delay":
                        raise ValueError(f"{name}: must be nonnegative")
                    if arr <= 0.0 and name != "population_delay":
                        raise ValueError(f"{name}: must be positive")
                else:  # a weight triple
                    if arr.ndim != 1:
                        raise ValueError(f"{name}: must be a list of 3 weights")
                    if arr.shape[0] != 3:
                        raise ValueError(f"{name}: expected exactly 3 weights")
                    if np.any(arr <= 0.0):
                        raise ValueError(f"{name}: weights must be positive")
                    object.__setattr__(self, name, tuple(arr.tolist()))
        # The model assumes the cloud dwarfs each edge provider; unit test
        # scenarios legitimately use equality, so only R_c < R_n is rejected.
        if self.cloud_power < float(np.max(self.ecp_power)):
            raise ValueError("cloud_power: must be at least max(ecp_power)")
        # A Theta that under- or overflows leaves the rest point c/sum c
        # at 0/0 and the delay bound pi/(2*Theta) infinite; a subnormal
        # uptake keeps a few bits of c, which a large delta can hide.
        for c, th in _vertex_uptakes(self):
            if not sys.float_info.min <= th <= sys.float_info.max:
                raise ValueError("learning_rate, mapping_factor: Theta must"
                                 f" be a positive normal float, got {th!r}")
            if any(0.0 < v < sys.float_info.min for v in c):
                raise ValueError("mapping_factor, n_users: each uptake"
                                 " beta*w/(K*p) must be 0 or a positive"
                                 f" normal float, got {c!r}")

    @cached_property
    def all_access_prices(self) -> np.ndarray:
        """Access prices [p_1..p_N, p_c] in provider order (read-only)."""
        prices = np.append(self.ecp_access_price, self.cloud_access_price)
        prices.flags.writeable = False
        return prices


@dataclass(frozen=True, eq=False)
class PopulationState:
    """User distribution over providers, ordered [x_1..x_N, x_c].

    Shares must lie in [0, 1] and sum to one within SIMPLEX_TOL.  Zero
    entries are representable (boundary states appear in formal inputs);
    dynamics additionally require interior states at t=0.
    """

    shares: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_float_vector(self.shares, "shares")
        if arr.shape[0] < 2:
            raise ValueError("shares: need at least one edge provider plus the cloud")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("shares: entries must lie in [0, 1]")
        if abs(_running_total(arr) - 1.0) > SIMPLEX_TOL:
            raise ValueError("shares: must sum to 1")
        object.__setattr__(self, "shares", arr)

    @property
    def n_ecps(self) -> int:
        return self.shares.shape[0] - 1

    @property
    def ecp(self) -> np.ndarray:
        """Edge-provider shares [x_1..x_N]."""
        return self.shares[:-1]


@dataclass(frozen=True, eq=False)
class AllocationState:
    """Cloud-compute request fractions r_n of the edge providers.

    Each r_n lies in [0, 1) and the requests sum to at most 1; whatever is
    not requested stays with the cloud as cloud_remainder.
    """

    requests: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_float_vector(self.requests, "requests")
        if arr.shape[0] < 1:
            raise ValueError("requests: need at least one edge provider")
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ValueError("requests: entries must lie in [0, 1)")
        if _running_total(arr) > 1.0 + ALLOC_TOL:
            raise ValueError("requests: must sum to at most 1")
        object.__setattr__(self, "requests", arr)

    @property
    def cloud_remainder(self) -> float:
        """Fraction r_c = max(1 - sum r_n, 0) retained by the cloud."""
        return float(_cloud_remainder(self.requests))


@dataclass(frozen=True, eq=False)
class MarketSnapshot:
    """One instant of the market: population, allocation, cloud price."""

    population: PopulationState
    allocation: AllocationState
    price: float = 0.0

    def __post_init__(self) -> None:
        if self.population.n_ecps != self.allocation.requests.shape[0]:
            raise ValueError("allocation: length inconsistent with population")
        price = _real_number(self.price, "price")
        if not np.isfinite(price) or price < 0.0:
            raise ValueError("price: must be nonnegative")
        object.__setattr__(self, "price", price)


def _check_sizes(cfg: SystemConfig, pop: PopulationState | None = None,
                 alloc: AllocationState | None = None) -> None:
    if pop is not None and pop.n_ecps != cfg.n_ecps:
        raise ValueError("shares: length inconsistent with n_ecps")
    if alloc is not None and alloc.requests.shape[0] != cfg.n_ecps:
        raise ValueError("requests: length inconsistent with n_ecps")


def _left_sum(values) -> float:
    """Sum of Python floats added left to right from 0.0.

    Every sum over providers runs in this order (arrays: _running_total),
    not numpy's sum, which adds 8 or more entries pairwise, nor builtin
    sum(), which from Python 3.12 compensates rounding.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def _running_total(values: np.ndarray) -> np.ndarray:
    """Sum along the last axis, left to right: the last running sum."""
    return np.cumsum(values, axis=-1)[..., -1]


def _cloud_remainder(requests: np.ndarray) -> np.ndarray:
    """r_c = max(1 - sum r_n, 0) along the last axis; floats: _uptake."""
    return np.maximum(1.0 - _running_total(requests), 0.0)


def _supply(cfg: SystemConfig, requests: np.ndarray) -> np.ndarray:
    """Compute per provider [R_n + R_c r_n .., R_c r_c] along the last axis."""
    remainder = _cloud_remainder(requests)[..., None]
    return np.concatenate((cfg.ecp_power + cfg.cloud_power * requests,
                           cfg.cloud_power * remainder), axis=-1)


def _uptake(cfg: SystemConfig) -> Callable:
    """Kernel uptake(requests) -> (c, Theta) of one node, cfg bound once.

    Uptake c_s = beta*w_s/(K p_s) and Theta = delta*sum_s c_s: c_s is the
    utility mass of group s; w the compute per provider, as _supply lays
    it out.  Takes and returns Python floats.  One loop builds c and the
    running sums of r and c, left to right.
    """
    power, prices = cfg.ecp_power.tolist(), cfg.all_access_prices.tolist()
    r_c, scale = cfg.cloud_power, cfg.mapping_factor / cfg.n_users
    p_c, delta = prices[-1], cfg.learning_rate

    def uptake(requests):
        c, sum_r, sum_c = [], 0.0, 0.0
        for w, p, r in zip(power, prices, requests):
            u = scale * (w + r_c * r) / p
            c.append(u)
            sum_r += r
            sum_c += u
        rem = 1.0 - sum_r  # clamped as max would, NaN kept
        u = scale * (r_c * (0.0 if rem < 0.0 else rem)) / p_c
        c.append(u)
        return c, delta * (sum_c + u)
    return uptake


def _vertex_uptakes(cfg: SystemConfig) -> list[tuple[list[float], float]]:
    """(c, Theta) at r = e_1..e_N, 0: linear in r, both are extreme there."""
    n, uptake = cfg.n_ecps, _uptake(cfg)
    return [uptake([float(k == j) for k in range(n)]) for j in range(n + 1)]


def provider_power(cfg: SystemConfig, alloc: AllocationState) -> np.ndarray:
    """Total compute per provider [R_1+R_c r_1, .., R_N+R_c r_N, R_c r_c]."""
    _check_sizes(cfg, alloc=alloc)
    return _supply(cfg, alloc.requests)


def _per_user_power(cfg: SystemConfig, shares: np.ndarray,
                    supply: np.ndarray) -> np.ndarray:
    """Per-user compute w_s/(K x_s) from shares and supply; 0 if w_s = x_s = 0.

    Shares may carry leading axes (a block of states); the output has their shape.

    Raises:
        ZeroShare: some provider holds compute but has no users.
    """
    if shares.min() > 0.0:
        return supply / (cfg.n_users * shares)
    empty = shares <= 0.0
    stuck = empty & (supply > 0.0)
    if stuck.any():
        idx = int(np.nonzero(stuck)[-1][0])
        label = "cloud" if idx == cfg.n_ecps else f"ecp {idx + 1}"
        raise ZeroShare(f"{label}: positive compute with zero user share")
    return np.divide(supply, cfg.n_users * shares,
                     out=np.zeros(shares.shape), where=~empty)


def per_user_power(cfg: SystemConfig, snap: MarketSnapshot) -> np.ndarray:
    """Compute each user receives from its chosen provider.

    Entry n is (R_n + R_c r_n)/(K x_n); the last entry is the cloud's
    R_c r_c/(K x_c).  A provider whose compute and share are both zero
    contributes omega = 0.

    Raises:
        ZeroShare: some provider holds compute but has no users.
    """
    _check_sizes(cfg, snap.population, snap.allocation)
    return _per_user_power(cfg, snap.population.shares,
                           _supply(cfg, snap.allocation.requests))


def _utilities(cfg: SystemConfig, shares: np.ndarray,
               supply: np.ndarray) -> np.ndarray:
    """beta*omega_s/p_s, omega from _per_user_power (its shapes, ZeroShare)."""
    return (cfg.mapping_factor * _per_user_power(cfg, shares, supply)
            / cfg.all_access_prices)


def user_utility(cfg: SystemConfig, snap: MarketSnapshot) -> np.ndarray:
    """Per-user utility beta*omega_s/p_s for each provider choice s."""
    _check_sizes(cfg, snap.population, snap.allocation)
    return _utilities(cfg, snap.population.shares,
                      _supply(cfg, snap.allocation.requests))


def mean_utility(pop: PopulationState, utils: np.ndarray) -> float:
    """Population-average utility sum_s x_s * pi_s, summed in provider order.

    Not np.dot: its rounding depends on which BLAS kernel the machine runs.
    """
    utils = _real_array(utils, "utils")
    if utils.shape != pop.shares.shape:
        raise ValueError("utils: length inconsistent with population")
    return _left_sum((pop.shares * utils).tolist())


def theta(cfg: SystemConfig, alloc: AllocationState) -> float:
    """Aggregate utility mass Theta of the current allocation.

    Theta = (delta*beta/K) * [sum_n (R_n + R_c r_n)/p_n + R_c r_c/p_c].
    It is the uniform decay rate of the population dynamics around the
    evolutionary equilibrium and is strictly positive for every feasible
    allocation because each R_n is.
    """
    _check_sizes(cfg, alloc=alloc)
    return _uptake(cfg)(alloc.requests.tolist())[1]


def _check_provider(cfg: SystemConfig, n) -> None:
    """Reject n unless it is an integer provider index 1..N (not a bool)."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 1 <= n <= cfg.n_ecps):
        raise ValueError(f"n: must be in 1..{cfg.n_ecps}")


def _payoffs(cfg: SystemConfig, shares: np.ndarray, requests: np.ndarray,
             price) -> np.ndarray:
    """Instantaneous payoffs [u_1..u_N, u_c] along the leading axes.

    Edge provider n: access revenue eta1*p_n*K*x_n, minus the cloud-compute
    bill eta2*R_c*p*r_n, minus the quadratic supply/demand mismatch penalty
    eta3*(K*phi*x_n - (R_n + R_c r_n))^2.  Cloud: access revenue
    xi1*p_c*K*x_c, plus compute sales xi2*R_c*p*sum r_n, minus the mismatch
    penalty xi3*(K*phi*x_c - R_c r_c)^2.
    """
    eta1, eta2, eta3 = cfg.ecp_weights
    xi1, xi2, xi3 = cfg.ccp_weights
    n = cfg.n_ecps
    revenue_w = np.array([eta1] * n + [xi1])
    mismatch_w = np.array([eta3] * n + [xi3])
    sales = np.concatenate((-eta2 * requests,
                            xi2 * _running_total(requests)[..., None]), axis=-1)
    mismatch = cfg.n_users * cfg.nominal_rate * shares - _supply(cfg, requests)
    return (revenue_w * cfg.all_access_prices * cfg.n_users * shares
            + cfg.cloud_power * np.asarray(price)[..., None] * sales
            - mismatch_w * mismatch ** 2)


def ecp_instant_utility(cfg: SystemConfig, snap: MarketSnapshot, n: int) -> float:
    """Instantaneous payoff of edge provider n (1-based); see _payoffs."""
    _check_sizes(cfg, snap.population, snap.allocation)
    _check_provider(cfg, n)
    return float(_payoffs(cfg, snap.population.shares,
                          snap.allocation.requests, snap.price)[n - 1])


def ccp_instant_utility(cfg: SystemConfig, snap: MarketSnapshot) -> float:
    """Instantaneous payoff of the cloud provider; see _payoffs."""
    _check_sizes(cfg, snap.population, snap.allocation)
    return float(_payoffs(cfg, snap.population.shares,
                          snap.allocation.requests, snap.price)[-1])
