"""Relations between runs that hold whatever the numbers (metamorphic tests).

Three properties of the model, checked on the shipped scenarios and, for
the first two, on drawn configurations:

- Time rescaling.  Mapping (delta, rho, T, tau, dt) to (s*delta, s*rho,
  T/s, tau/s, dt/s) runs the same game on a clock s times faster: Theta
  scales with delta, so z = Theta*dt on the grid is unchanged.  Shares,
  requests and prices come back unchanged, and the adjoint profile g and
  the integral utilities scaled by 1/s.  For s a power of two every
  scaling is exact, so all of it holds bit for bit.
- Relabelling.  Reversing the order of the edge providers (their power,
  access price, initial share and request) reverses the output.  Bit for
  bit at N = 2 on the shipped scenarios; elsewhere the sums over providers
  may run in another order, so to rounding, relative to each array's
  largest entry.
- Restart.  Re-solving the olsec equilibrium from its own state at t0
  over the remaining horizon T - t0 gives back the tail of the full run
  within the sweep's own tolerances: every costate has a terminal
  condition only, so the open-loop solution is time consistent here.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccsim.cli import load_scenario
from eccsim.solver import (COSTATE_TOL, SWEEP_TOL, BlowUp, solve_fixed,
                           solve_open_loop, solve_ssec)
from eccsim.stackelberg import _adjoint_scales

from conftest import random_market

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def solve(scheme, cfg, x0, r0, dt, max_iter=500):
    """(trajectory, sweep iterations or None) of one scheme's run;
    (None, "blow-up") if it raises BlowUp."""
    try:
        if scheme == "olsec":
            traj, report = solve_open_loop(cfg, x0, dt=dt, max_iter=max_iter)
            return traj, report.iterations
        if scheme == "ssec":
            return solve_ssec(cfg, x0, dt), None
        return solve_fixed(cfg, x0, r0, dt), None
    except BlowUp:
        return None, "blow-up"


def equilibrium(traj, rows=slice(None), shares=slice(None),
                edges=slice(None)):
    """(shares, requests, prices, g) of an olsec record, rows and columns
    picked."""
    return (traj.shares[rows][:, shares], traj.requests[rows][:, edges],
            traj.prices[rows], traj.g[rows])


def check_sweep_tolerances(cfg, got, want):
    """Two equilibria agree within the sweep's own tolerances: shares,
    requests and prices within SWEEP_TOL, and g times the largest adjoint
    source within COSTATE_TOL."""
    for a, b in zip(got[:3], want[:3]):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=SWEEP_TOL)
    lam_diag, mu_scale = _adjoint_scales(cfg)
    adjoint_unit = max(float(np.max(np.abs(lam_diag))), abs(mu_scale))
    assert adjoint_unit * np.max(np.abs(got[3] - want[3])) < COSTATE_TOL


def check_rescaling(scheme, cfg, x0, r0, dt, s, same_maps=True):
    """Relation 2.  same_maps=False compares two sweeps that stop a map
    apart at the earlier map: the sweep's costate test reads g in absolute
    units, and g scales by 1/s, so a residual between COSTATE_TOL and
    s*COSTATE_TOL stops one run and not the other."""
    fast = dataclasses.replace(
        cfg, learning_rate=s * cfg.learning_rate,
        discount_rate=s * cfg.discount_rate, horizon=cfg.horizon / s,
        population_delay=cfg.population_delay / s)
    base, maps = solve(scheme, cfg, x0, r0, dt)
    run, fast_maps = solve(scheme, fast, x0, r0, dt / s)
    if not same_maps and scheme == "olsec" and fast_maps != maps:
        k = min(maps, fast_maps)
        base, maps = solve(scheme, cfg, x0, r0, dt, max_iter=k)
        run, fast_maps = solve(scheme, fast, x0, r0, dt / s, max_iter=k)
    assert fast_maps == maps
    if base is None:
        return
    np.testing.assert_array_equal(run.times, base.times / s)
    for field in ("shares", "requests", "prices", "utilities"):
        np.testing.assert_array_equal(getattr(run, field),
                                      getattr(base, field))
    np.testing.assert_array_equal(run.integral_utilities,
                                  base.integral_utilities / s)
    if maps is not None:
        np.testing.assert_array_equal(run.g, base.g / s)


def check_relabelling(scheme, cfg, x0, r0, dt, rtol, same_maps=True):
    """Relation 1.  same_maps=False lets two sweeps that rounding sent down
    different maps agree within the sweep's tolerances only: on a slowly
    settling draw the depth-1 mixing amplifies a last-bit difference in
    the provider sums from map to map."""
    n = cfg.n_ecps
    edges = np.arange(n)[::-1]
    shares = np.append(edges, n)  # the cloud stays last
    flipped = dataclasses.replace(
        cfg, ecp_power=cfg.ecp_power[edges],
        ecp_access_price=cfg.ecp_access_price[edges])
    base, maps = solve(scheme, cfg, x0, r0, dt)
    run, flipped_maps = solve(scheme, flipped, x0[shares], r0[edges], dt)
    if not same_maps and scheme == "olsec" and flipped_maps != maps:
        check_sweep_tolerances(cfg, equilibrium(run), equilibrium(
            base, shares=shares, edges=edges))
        return
    assert flipped_maps == maps
    if base is None:
        return
    pairs = [(run.prices, base.prices)] + [
        (getattr(run, field), getattr(base, field)[:, order])
        for field, order in (("shares", shares), ("requests", edges),
                             ("utilities", shares),
                             ("integral_utilities", shares))]
    if maps is not None:
        pairs.append((run.g, base.g))
    for got, want in pairs:
        # Relative to the array's largest entry: a cloud share of 1.6e-5
        # on scenario_n6 differs by 1.5e-10 of itself, 1.5e-15 of the
        # largest share.
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=rtol * np.max(np.abs(want)))


@pytest.mark.parametrize("s", [2.0, 0.5])
@pytest.mark.parametrize("name,dt", [("scenario_a", 0.1),
                                     ("scenario_n6", 0.1),
                                     ("scenario_delay", 0.01)])
def test_time_rescaling(name, dt, s):
    scn = load_scenario(str(SCENARIOS / f"{name}.json"))
    check_rescaling(scn.scheme, scn.cfg, scn.x0, scn.r0, dt, s)


@pytest.mark.parametrize("name,dt,rtol", [("scenario_a", 0.1, 0.0),
                                          ("scenario_delay", 0.01, 0.0),
                                          ("scenario_n6", 0.1, 1e-12)])
def test_relabelling(name, dt, rtol):
    scn = load_scenario(str(SCENARIOS / f"{name}.json"))
    check_relabelling(scn.scheme, scn.cfg, scn.x0, scn.r0, dt, rtol)


@pytest.mark.parametrize("name,dt,t0", [("scenario_a", 0.1, 10.0),
                                        ("scenario_a", 0.1, 25.0),
                                        ("scenario_a", 0.05, 10.0),
                                        ("scenario_a", 0.05, 25.0),
                                        ("scenario_n6", 0.1, 10.0)])
def test_restart(name, dt, t0):
    # Measured: scenario_a within 9.0e-13 in shares, 5.8e-12 in requests,
    # 7.1e-11 in price and 2.5e-10 in g; scenario_n6 within 7.8e-16.
    scn = load_scenario(str(SCENARIOS / f"{name}.json"))
    cfg = scn.cfg
    full, _ = solve_open_loop(cfg, scn.x0, dt=dt)
    i0 = full.index_at(t0)
    tail, _ = solve_open_loop(
        dataclasses.replace(cfg, horizon=cfg.horizon - t0), full.shares[i0],
        dt=dt)
    check_sweep_tolerances(cfg, equilibrium(tail),
                           equilibrium(full, rows=slice(i0, None)))


@pytest.mark.parametrize("scheme", ["olsec", "ssec", "fixed-controls"])
@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1), st.floats(0.1, 3.0))
def test_drawn_configurations(scheme, n, seed, tau):
    # T = 10 on a grid of dt = 0.1 passes check_stability for every draw
    # of random_market.  Delayed runs are the fixed-controls ones.
    cfg, x0, r0 = random_market(seed, n, horizon=10.0)
    if scheme == "fixed-controls":
        cfg = dataclasses.replace(cfg, population_delay=tau)
    check_rescaling(scheme, cfg, x0, r0, 0.1, 2.0, same_maps=False)
    check_relabelling(scheme, cfg, x0, r0, 0.1, 1e-12, same_maps=False)
