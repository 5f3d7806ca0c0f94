"""Relations between runs that hold whatever the numbers (metamorphic tests).

Two properties of the model, checked on the shipped scenarios:

- Time rescaling.  Mapping (delta, rho, T, tau, dt) to (s*delta, s*rho,
  T/s, tau/s, dt/s) runs the same game on a clock s times faster: Theta
  scales with delta, so z = Theta*dt on the grid is unchanged.  Shares,
  requests and prices come back unchanged, and the adjoint profile g and
  the integral utilities scaled by 1/s.  For s a power of two every
  scaling is exact, so all of it holds bit for bit.
- Relabelling.  Reversing the order of the edge providers (their power,
  access price, initial share and request) reverses the output.  Bit for
  bit at N = 2; at N = 6 the sums over providers run in another order,
  so to rounding, relative to each array's largest entry.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from eccsim.cli import load_scenario
from eccsim.solver import solve_fixed, solve_open_loop

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def solve(scn, cfg, x0, r0, dt):
    """(trajectory, sweep iterations or None) of the scenario's scheme."""
    if scn.scheme == "olsec":
        traj, report = solve_open_loop(cfg, x0, dt=dt)
        return traj, report.iterations
    return solve_fixed(cfg, x0, r0, dt), None


@pytest.mark.parametrize("s", [2.0, 0.5])
@pytest.mark.parametrize("name,dt", [("scenario_a", 0.1),
                                     ("scenario_n6", 0.1),
                                     ("scenario_delay", 0.01)])
def test_time_rescaling(name, dt, s):
    scn = load_scenario(str(SCENARIOS / f"{name}.json"))
    cfg = scn.cfg
    fast = dataclasses.replace(
        cfg, learning_rate=s * cfg.learning_rate,
        discount_rate=s * cfg.discount_rate, horizon=cfg.horizon / s,
        population_delay=cfg.population_delay / s)
    base, maps = solve(scn, cfg, scn.x0, scn.r0, dt)
    run, fast_maps = solve(scn, fast, scn.x0, scn.r0, dt / s)
    assert fast_maps == maps
    np.testing.assert_array_equal(run.times, base.times / s)
    for field in ("shares", "requests", "prices", "utilities"):
        np.testing.assert_array_equal(getattr(run, field),
                                      getattr(base, field))
    np.testing.assert_array_equal(run.integral_utilities,
                                  base.integral_utilities / s)
    if maps is not None:
        np.testing.assert_array_equal(run.g, base.g / s)


@pytest.mark.parametrize("name,dt,rtol", [("scenario_a", 0.1, 0.0),
                                          ("scenario_delay", 0.01, 0.0),
                                          ("scenario_n6", 0.1, 1e-12)])
def test_relabelling(name, dt, rtol):
    scn = load_scenario(str(SCENARIOS / f"{name}.json"))
    cfg, n = scn.cfg, scn.cfg.n_ecps
    edges = np.arange(n)[::-1]
    shares = np.append(edges, n)  # the cloud stays last
    flipped = dataclasses.replace(
        cfg, ecp_power=cfg.ecp_power[edges],
        ecp_access_price=cfg.ecp_access_price[edges])
    base, maps = solve(scn, cfg, scn.x0, scn.r0, dt)
    run, flipped_maps = solve(scn, flipped, scn.x0[shares], scn.r0[edges], dt)
    assert flipped_maps == maps
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
