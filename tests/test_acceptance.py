"""End-to-end acceptance runs for the simulation and equilibrium engine.

Each test certifies one advertised property at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers (bypassing output
capture, so the lines appear in any run log).  Heavy solves keep to the
desk-scale scenarios; the whole file runs in a few minutes.
"""

from pathlib import Path

import numpy as np

from conftest import make_big_cloud_config, make_config

from eccsim.cli import load_scenario, main
from eccsim.model import (
    AllocationState,
    MarketSnapshot,
    PopulationState,
    theta,
    user_utility,
)
from eccsim.replicator import (
    ReplicatorField,
    analytic_ess,
    delay_stability_bound,
    ess_jacobian_eigen,
    replicator_rhs,
)
from eccsim.solver import (
    convergence_time,
    integrate_dde,
    integrate_ode,
    replay_forward,
    solve_fixed,
    solve_open_loop,
    solve_ssec,
)
from eccsim.stackelberg import (
    CcpCostate,
    EcpCostate,
    ccp_hamiltonian,
    ecp_hamiltonian,
    optimal_controls,
)

SEED = 20260822
X0 = np.array([0.3, 0.3, 0.4])
GRID_STEP = 1e-4
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(capsys, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def interior_simplex(rng, size=3):
    x = np.maximum(rng.dirichlet(2.0 * np.ones(size)), 1e-3)
    return x / x.sum()


def test_ess_fixed_point(capsys):
    # Integrated endpoint vs the closed-form rest point, and the vanishing
    # field at that rest point, for both cloud variants.
    errs, rhs_norms = [], []
    for build in (make_config, make_big_cloud_config):
        cfg = build()
        alloc = AllocationState([0.0, 0.0])
        field = ReplicatorField(cfg, alloc)
        traj = integrate_ode(field.rate, X0, (0.0, 50.0), 0.01, simplex=True)
        ess = analytic_ess(cfg, alloc).shares
        errs.append(float(np.max(np.abs(traj.shares[-1] - ess.shares))))
        rhs_norms.append(float(np.max(np.abs(
            replicator_rhs(cfg, ess, alloc)))))
    ok = max(errs) < 1e-4 and max(rhs_norms) < 1e-10
    report(capsys, "ess fixed point", ok,
           f"endpoint err {errs[0]:.2e}/{errs[1]:.2e} (tol 1e-4), "
           f"field at rest {rhs_norms[0]:.2e}/{rhs_norms[1]:.2e} (tol 1e-10)")


def test_stability_spectrum(capsys):
    # Analytic spectrum is -Theta with full multiplicity; the numerically
    # linearized flow at the rest point agrees and is strictly stable.
    worst_gap = 0.0
    worst_real = -np.inf
    for build in (make_config, make_big_cloud_config):
        cfg = build()
        alloc = AllocationState([0.0, 0.0])
        th = theta(cfg, alloc)
        eig = ess_jacobian_eigen(cfg, alloc)
        worst_gap = max(worst_gap, float(np.max(np.abs(eig + th))))
        field = ReplicatorField(cfg, alloc)
        x_star = analytic_ess(cfg, alloc).shares.shares
        h = 1e-6
        jac = np.empty((3, 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = h
            jac[:, j] = (field.rate(x_star + step)
                         - field.rate(x_star - step)) / (2.0 * h)
        fd_eig = np.linalg.eigvals(jac)
        worst_real = max(worst_real, float(np.max(fd_eig.real)))
        worst_gap = max(worst_gap, float(np.max(np.abs(fd_eig - (-th)))))
    ok = worst_gap < 1e-8 and worst_real < 0.0
    report(capsys, "stability spectrum", ok,
           f"max |eig + Theta| {worst_gap:.2e} (tol 1e-8), "
           f"max real part {worst_real:.3e} (< 0)")


def _follower_h_grid(cfg, x, r_fixed, n, price, lam_row, r_grid):
    """Provider n's Hamiltonian over a grid of own requests, vectorized."""
    r = np.tile(r_fixed, (r_grid.shape[0], 1))
    r[:, n - 1] = r_grid
    w_e = cfg.ecp_power[None, :] + cfg.cloud_power * r
    w_c = cfg.cloud_power * (1.0 - r.sum(axis=1))
    beta_k = cfg.mapping_factor / cfg.n_users
    c_e = beta_k * w_e / cfg.ecp_access_price[None, :]
    c_c = beta_k * w_c / cfg.cloud_access_price
    th = cfg.learning_rate * (c_e.sum(axis=1) + c_c)
    flow = cfg.learning_rate * c_e - th[:, None] * x[None, :2]
    eta1, eta2, eta3 = cfg.ecp_weights
    kphi = cfg.n_users * cfg.nominal_rate
    u_n = (eta1 * cfg.ecp_access_price[n - 1] * cfg.n_users * x[n - 1]
           - eta2 * cfg.cloud_power * price * r_grid
           - eta3 * (kphi * x[n - 1] - w_e[:, n - 1]) ** 2)
    return u_n + flow @ lam_row


def test_follower_stationarity(capsys):
    # 100 random feasible draws: the stationary request zeroes the central
    # difference of the provider Hamiltonian; grid argmax lands within one
    # cell of it.  Draws are rejection-sampled to keep every probe point
    # feasible (the model is only smooth while the cloud keeps a remainder).
    cfg = make_big_cloud_config()
    rng = np.random.default_rng(SEED)
    accepted = 0
    attempts = 0
    worst_fd = 0.0
    worst_cell = 0.0
    spot_gap = 0.0
    h = 1e-5
    while accepted < 100 and attempts < 20000:
        attempts += 1
        x = interior_simplex(rng)
        lam = rng.uniform(-30.0, 30.0, (2, 2))
        price = float(rng.uniform(0.2, 2.0))
        pop = PopulationState(x)
        ec = EcpCostate(lam)
        # A does not depend on the leader's adjoints.
        a_vec, b, _ = optimal_controls(cfg, pop, ec, CcpCostate.zero(2))
        r_star = a_vec - b * price
        if not (np.all(r_star > 0.02) and np.all(r_star < 0.5)
                and r_star.sum() <= 0.8):
            continue
        accepted += 1
        for n in (1, 2):
            def ham(rn):
                r = r_star.copy()
                r[n - 1] = rn
                snap = MarketSnapshot(pop, AllocationState(r), price)
                return ecp_hamiltonian(cfg, snap, ec, n)
            fd = (ham(r_star[n - 1] + h) - ham(r_star[n - 1] - h)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd))
            lo = max(GRID_STEP, r_star[n - 1] - 0.15)
            grid = np.arange(lo, r_star[n - 1] + 0.15, GRID_STEP)
            values = _follower_h_grid(cfg, x, r_star, n, price,
                                      lam[n - 1], grid)
            worst_cell = max(worst_cell,
                             abs(grid[int(np.argmax(values))] - r_star[n - 1]))
            if accepted <= 5:
                i = int(rng.integers(grid.shape[0]))
                r_probe = r_star.copy()
                r_probe[n - 1] = grid[i]
                snap = MarketSnapshot(pop, AllocationState(r_probe), price)
                spot_gap = max(spot_gap, abs(
                    values[i] - ecp_hamiltonian(cfg, snap, ec, n)))
    ok = (accepted >= 100 and worst_fd < 1e-8
          and worst_cell <= GRID_STEP + 1e-12 and spot_gap < 1e-10)
    report(capsys, "follower stationarity", ok,
           f"{accepted} draws, max |dH/dr| {worst_fd:.2e} (tol 1e-8), "
           f"argmax offset {worst_cell:.2e} (<= {GRID_STEP:g}), "
           f"evaluator cross-check {spot_gap:.2e}")


def _leader_h_grid(cfg, x, a_vec, b_slope, lam, mu, theta_mat, p_grid):
    """Leader Hamiltonian over a price grid after reaction substitution."""
    r = a_vec[None, :] - b_slope * p_grid[:, None]
    w_e = cfg.ecp_power[None, :] + cfg.cloud_power * r
    sold = r.sum(axis=1)
    w_c = cfg.cloud_power * (1.0 - sold)
    beta_k = cfg.mapping_factor / cfg.n_users
    c_e = beta_k * w_e / cfg.ecp_access_price[None, :]
    c_c = beta_k * w_c / cfg.cloud_access_price
    th = cfg.learning_rate * (c_e.sum(axis=1) + c_c)
    flow = cfg.learning_rate * c_e - th[:, None] * x[None, :2]
    xi1, xi2, xi3 = cfg.ccp_weights
    kphi = cfg.n_users * cfg.nominal_rate
    x_c = x[2]
    u_c = (xi1 * cfg.cloud_access_price * cfg.n_users * x_c
           + xi2 * cfg.cloud_power * p_grid * sold
           - xi3 * (kphi * x_c - w_c) ** 2)
    eta1 = cfg.ecp_weights[0]
    src = np.diag(eta1 * cfg.ecp_access_price * cfg.n_users)
    lam_dot = (lam[None, :, :] * (cfg.discount_rate + th)[:, None, None]
               - src[None, :, :])
    return (u_c + flow @ mu
            + np.einsum("gnm,nm->g", lam_dot, theta_mat))


def test_leader_stationarity(capsys):
    # Same protocol for the price: stationarity of the substituted leader
    # Hamiltonian, with every follower already at its reaction.
    cfg = make_big_cloud_config()
    rng = np.random.default_rng(SEED)
    accepted = 0
    attempts = 0
    worst_fd = 0.0
    worst_cell = 0.0
    spot_gap = 0.0
    h = 1e-5
    while accepted < 100 and attempts < 20000:
        attempts += 1
        x = interior_simplex(rng)
        lam = rng.uniform(-30.0, 30.0, (2, 2))
        mu = rng.uniform(-30.0, 30.0, 2)
        theta_mat = rng.uniform(-1.0, 1.0, (2, 2))
        pop = PopulationState(x)
        ec = EcpCostate(lam)
        cc = CcpCostate(mu, theta_mat)
        a_vec, b, p_star = optimal_controls(cfg, pop, ec, cc)
        if not 0.4 <= p_star <= 2.2:
            continue
        edges = a_vec[None, :] - b * np.array([[p_star - 0.3],
                                               [p_star + 0.3]])
        if not (np.all(edges > 0.01) and np.all(edges < 0.6)
                and np.all(edges.sum(axis=1) <= 0.9)):
            continue
        accepted += 1

        def ham(p):
            r = a_vec - b * p
            snap = MarketSnapshot(pop, AllocationState(r), p)
            return ccp_hamiltonian(cfg, snap, ec, cc)

        fd = (ham(p_star + h) - ham(p_star - h)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(fd))
        grid = np.arange(p_star - 0.3, p_star + 0.3, GRID_STEP)
        values = _leader_h_grid(cfg, x, a_vec, b, lam, mu, theta_mat, grid)
        worst_cell = max(worst_cell,
                         abs(grid[int(np.argmax(values))] - p_star))
        if accepted <= 5:
            i = int(rng.integers(grid.shape[0]))
            spot_gap = max(spot_gap, abs(values[i] - ham(grid[i])))
    ok = (accepted >= 100 and worst_fd < 1e-8
          and worst_cell <= GRID_STEP + 1e-12 and spot_gap < 1e-10)
    report(capsys, "leader stationarity", ok,
           f"{accepted} draws, max |dH/dp| {worst_fd:.2e} (tol 1e-8), "
           f"argmax offset {worst_cell:.2e} (<= {GRID_STEP:g}), "
           f"evaluator cross-check {spot_gap:.2e}")


def test_costate_backward_closed_form(capsys):
    # With a frozen allocation the adjoints are scalar affine ODEs with the
    # exact solution (source/a)(1 - e^{a(t-T)}); backward RK4 must track it
    # to 1e-6 relative accuracy everywhere it is not vanishing.
    from eccsim.solver import costate_backward_grid

    cfg = make_config()
    times = np.round(np.arange(0.0, 50.0 + 1e-9, 0.01), 10)
    requests = np.zeros((times.shape[0], 2))
    lam, mu, theta_mat = costate_backward_grid(cfg, times, requests)
    a = cfg.discount_rate + theta(cfg, AllocationState([0.0, 0.0]))
    shape = 1.0 - np.exp(a * (times - times[-1]))
    rel_errs = []
    for series, source in ((lam[:, 0, 0], 0.3 * 100.0),
                           (lam[:, 1, 1], 0.2 * 100.0),
                           (mu[:, 0], 0.2 * 100.0)):
        closed = (source / a) * shape
        floor = 1e-3 * float(np.max(np.abs(closed)))
        rel = np.abs(series - closed) / np.maximum(np.abs(closed), floor)
        rel_errs.append(float(np.max(rel)))
    off_diag = float(max(np.max(np.abs(lam[:, 0, 1])),
                         np.max(np.abs(lam[:, 1, 0])),
                         np.max(np.abs(theta_mat))))
    ok = max(rel_errs) < 1e-6 and off_diag == 0.0
    report(capsys, "adjoint closed form", ok,
           f"max rel err {max(rel_errs):.2e} (tol 1e-6), "
           f"homogeneous components {off_diag:.1e}")


def test_sweep_convergence_and_replay(capsys):
    # The forward-backward sweep settles fast, its trajectory is exactly
    # reproducible under frozen adjoints, and controls and shares hold
    # steady once past the transient (measured on the 70-90% window; the
    # final few time units live in the terminal adjoint boundary layer,
    # where zero terminal conditions pull controls toward myopic values).
    cfg = make_big_cloud_config(horizon=150.0)
    traj, rep = solve_open_loop(cfg, X0, dt=0.01)
    again = replay_forward(traj)
    replay_gap = float(np.max(np.abs(traj.shares - again.shares)))
    lo, hi = traj.index_at(105.0), traj.index_at(135.0) + 1
    worst_ratio = 0.0
    for series in ([traj.prices] + [traj.requests[:, k] for k in range(2)]
                   + [traj.shares[:, k] for k in range(3)]):
        window = series[lo:hi]
        spread = float(window.max() - window.min())
        tol = 1e-3 * max(1.0, abs(float(np.median(window))))
        worst_ratio = max(worst_ratio, spread / tol)
    ok = (rep.converged and rep.iterations <= 500
          and rep.state_residual < 1e-8 and replay_gap < 1e-8
          and worst_ratio < 1.0)
    report(capsys, "sweep convergence and replay", ok,
           f"{rep.iterations} sweeps, residual {rep.state_residual:.2e} "
           f"(tol 1e-8), replay gap {replay_gap:.2e} (tol 1e-8), "
           f"steadiness {worst_ratio:.2f} of budget")


def test_olsec_vs_ssec_trends(capsys):
    # Faster learners lock on sooner under both schemes; the foresighted
    # scheme is never slower than the myopic one and the leader never
    # prefers myopia.
    times = {"olsec": [], "ssec": []}
    utils = {"olsec": [], "ssec": []}
    deltas = (0.5, 1.0, 1.5, 2.0)
    all_converged = True
    for delta in deltas:
        cfg = make_big_cloud_config(horizon=100.0, learning_rate=delta)
        solved, rep = solve_open_loop(cfg, X0, dt=0.02)
        all_converged &= rep.converged
        myopic = solve_ssec(cfg, X0, 0.02)
        for name, tr in (("olsec", solved), ("ssec", myopic)):
            i_eq = tr.index_at(70.0)
            target = analytic_ess(cfg, tr.allocation(i_eq)).shares.shares
            times[name].append(convergence_time(tr.upto(80.0), target, 1e-3))
            utils[name].append(tr.integral_utilities[-1, -1])
    finite = all(v is not None for v in times["olsec"] + times["ssec"])
    dec_o = all(a > b for a, b in zip(times["olsec"], times["olsec"][1:]))
    dec_s = all(a > b for a, b in zip(times["ssec"], times["ssec"][1:]))
    no_slower = all(a <= b for a, b in zip(times["olsec"], times["ssec"]))
    richer = all(a >= b for a, b in zip(utils["olsec"], utils["ssec"]))
    ok = all_converged and finite and dec_o and dec_s and no_slower and richer
    fmt = lambda vals: "/".join("-" if v is None else f"{v:.1f}" for v in vals)
    report(capsys, "foresight vs myopia trends", ok,
           f"conv times olsec {fmt(times['olsec'])} vs ssec "
           f"{fmt(times['ssec'])}, both decreasing {dec_o and dec_s}, "
           f"leader utility gap "
           f"{min(a - b for a, b in zip(utils['olsec'], utils['ssec'])):.2f}")


def test_capacity_sweep_trends(capsys):
    # More cloud capacity at a fixed access price pushes the equilibrium
    # compute price down and the retained cloud remainder up.
    prices, remainders = [], []
    all_converged = True
    for power_c in (5.0, 6.0, 7.0):
        cfg = make_big_cloud_config(cloud_power=power_c)
        traj, rep = solve_open_loop(cfg, X0, dt=0.01)
        all_converged &= rep.converged
        i_eq = traj.index_at(35.0)
        prices.append(float(traj.prices[i_eq]))
        remainders.append(float(1.0 - traj.requests[i_eq].sum()))
    dec = all(a > b for a, b in zip(prices, prices[1:]))
    inc = all(a < b for a, b in zip(remainders, remainders[1:]))
    ok = all_converged and dec and inc
    report(capsys, "capacity sweep trends", ok,
           f"price {'/'.join(f'{p:.4f}' for p in prices)} decreasing {dec}, "
           f"remainder {'/'.join(f'{r:.4f}' for r in remainders)} "
           f"increasing {inc}")


def test_symmetry_equalization(capsys):
    # Providers with identical capacity and access price end up with the
    # same share, and every user group's utility equalizes at equilibrium.
    scn = load_scenario(str(SCENARIOS / "scenario_n6.json"))
    traj, rep = solve_open_loop(scn.cfg, scn.x0, dt=scn.dt)
    x_end = traj.shares[-1]
    pair_gap = max(abs(x_end[0] - x_end[1]), abs(x_end[4] - x_end[5]))
    utils = user_utility(scn.cfg, traj.snapshot(len(traj.times) - 1))
    spread = float(utils.max() - utils.min())
    ok = rep.converged and pair_gap < 1e-6 and spread < 1e-4
    report(capsys, "symmetric providers equalize", ok,
           f"twin share gap {pair_gap:.2e} (tol 1e-6), "
           f"user utility spread {spread:.2e} (tol 1e-4), "
           f"{rep.iterations} sweeps")


def test_delay_threshold(capsys):
    # A reaction delay well under pi/(2*Theta) still converges; twice the
    # bound drives persistent large oscillation.  The two literal delay
    # values ship as a scenario and are asserted by qualitative verdict.
    cfg = make_config()
    alloc = AllocationState([0.0, 0.0])
    bound = delay_stability_bound(cfg, alloc)
    ess = analytic_ess(cfg, alloc).shares.shares
    field = ReplicatorField(cfg, alloc)

    def run(tau):
        return integrate_dde(field.delayed_rate, X0, tau, (0.0, 30.0), 0.01,
                             simplex=True)

    sub = run(0.1 * bound)
    sub_err = float(np.max(np.abs(sub.shares[-1] - ess)))
    sup = run(2.0 * bound)
    tail = sup.shares[sup.index_at(24.0):]
    amplitude = 0.5 * (tail.max(axis=0) - tail.min(axis=0))
    rel_amp = float(np.max(amplitude / ess))
    small_errs = [float(np.max(np.abs(run(tau).shares[-1] - ess)))
                  for tau in (0.7, 1.7)]
    ok = (sub_err < 1e-3 and rel_amp > 0.1
          and all(e < 1e-3 for e in small_errs))
    report(capsys, "delay threshold", ok,
           f"bound {bound:.3f}; 0.1x err {sub_err:.2e} (tol 1e-3), "
           f"2x tail amplitude {rel_amp:.2f} of share (> 0.1), "
           f"literal delays err {small_errs[0]:.2e}/{small_errs[1]:.2e}")


def test_numerical_hygiene(capsys, tmp_path):
    # Order-4 convergence on a known flow, no simplex drift without the
    # projection, and bit-identical artifacts for identical inputs.
    e_inv = float(np.exp(-1.0))
    errs = [abs(integrate_ode(lambda y: -y, [1.0], (0.0, 1.0),
                              dt).shares[-1, 0] - e_inv)
            for dt in (0.1, 0.05)]
    ratio = errs[0] / errs[1]

    cfg = make_config()
    field = ReplicatorField(cfg, AllocationState([0.0, 0.0]))
    free = integrate_ode(field.rate, X0, (0.0, 50.0), 0.01)
    drift = float(np.max(np.abs(free.shares.sum(axis=1) - 1.0)))

    short = make_config(horizon=10.0)
    one, _ = solve_open_loop(short, X0, dt=0.01)
    two, _ = solve_open_loop(short, X0, dt=0.01)
    solver_match = (np.array_equal(one.shares, two.shares)
                    and np.array_equal(one.requests, two.requests)
                    and np.array_equal(one.prices, two.prices))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["simulate", str(SCENARIOS / "scenario_a_fixed.json"),
                     "--out", str(out)])
        assert code == 0
    csv_match = ((out_a / "trajectory.csv").read_bytes()
                 == (out_b / "trajectory.csv").read_bytes())

    ok = (12.0 < ratio < 20.0 and drift < 1e-9
          and solver_match and csv_match)
    report(capsys, "numerical hygiene", ok,
           f"order ratio {ratio:.1f} (expect ~16), simplex drift "
           f"{drift:.1e} (tol 1e-9), bit-identical solver {solver_match} "
           f"/ artifacts {csv_match}")
