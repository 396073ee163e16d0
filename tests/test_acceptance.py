"""Acceptance gate: one test (and one pass/fail line under pytest -v) per
release criterion.

Each criterion is checked against an independent oracle or invariant:
analytic free-flow times, a brute-force cumulative-curve construction,
storage-bound recomputation from exported curves, junction audits through a
wrapped flow model, a breakpoint/fine-scan dual-root oracle, a constructed
equilibrium, and end-to-end solver/CLI runs.
"""

import filecmp
import json
import os
import time

import numpy as np
import pytest

from dtaflow import (
    SolverConfig,
    TimeGrid,
    dual_residual,
    fixed_point_update,
    init_departures,
    run_dnl,
    solve_due,
    solve_dual,
)
from dtaflow.cli import main
from dtaflow.dnl import exit_time
from dtaflow import junctions
from dtaflow.junctions import resolve_network
from helpers import (
    braess_network,
    grid_network,
    parallel_network,
    path_matrix,
    random_network,
    serial_network,
    single_link_network,
)
from test_cli import DEMAND, NETWORK, PATHS, due_args
from test_dnl import lagged_bound_gap, newell_two_link_tt


# -- shared audited loading runs -------------------------------------------------


def audited_dnl(net, h, grid):
    """Run the loader through a wrapped junction kernel, patched in place of
    the loader's own for one loading, that records, for every junction with
    demand at every step, the conservation residual and the split-row sums
    of the inputs with positive demand."""
    residuals = []
    row_errors = []

    def audit(movements, demands, supplies, alpha):
        f_out, f_in = resolve_network(movements, demands, supplies, alpha)
        n = movements.n_junctions
        busy = np.bincount(movements.in_junction, demands, minlength=n) > 1e-12
        out = np.bincount(movements.in_junction, f_out, minlength=n)[busy]
        into = np.bincount(movements.out_junction, f_in, minlength=n)[busy]
        residuals.extend(np.abs(out - into) / np.maximum(1.0, out))
        sums = np.bincount(movements.src, alpha, minlength=len(demands))
        row_errors.extend(np.abs(sums[demands > 1e-12] - 1.0))
        return f_out, f_in

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(junctions, "resolve_unchecked", audit)
        res = run_dnl(net, h, grid)
    return res, np.array(residuals), np.array(row_errors)


@pytest.fixture(scope="module")
def braess_flows():
    net = braess_network()
    grid = TimeGrid(0.0, 2400.0, 5.0)
    h = path_matrix(net, grid,
                    {"p1": 0.3, "p3": 0.3, "p4": 0.3, "p5": 0.2, "p8": 0.2},
                    until_s=600.0)
    return net, grid, audited_dnl(net, h, grid)


@pytest.fixture(scope="module")
def random_flows():
    net = random_network()
    grid = TimeGrid(0.0, 1800.0, 5.0)
    h = np.zeros((len(net.paths), grid.n_steps))
    h[:, grid.times()[: grid.n_steps] < 600.0] = 0.1
    return net, grid, audited_dnl(net, h, grid)


# -- criteria ----------------------------------------------------------------------


def test_criterion_01_free_flow_oracle():
    # 240 m at 12 m/s: free-flow time exactly 20 s
    elapsed = 0.0
    for dt in (1.0, 2.0, 5.0):
        net = single_link_network(240.0, 12.0, 0.8)
        grid = TimeGrid(0.0, 700.0, dt)
        h = path_matrix(net, grid, {"p1": 0.4}, until_s=600.0)
        t0 = time.perf_counter()
        res = run_dnl(net, h, grid)
        elapsed += time.perf_counter() - t0
        dep = grid.times()[: grid.n_steps]
        tt = res.travel_time[0][dep < 600.0]
        assert not np.any(np.isnan(tt))
        assert np.abs(tt - 20.0).max() <= dt
    assert elapsed < 1.0


def test_criterion_02_bottleneck_oracle():
    specs = [(1800.0, 12.0, 0.9), (600.0, 12.0, 0.3)]
    net = serial_network(specs)
    elapsed = 0.0
    for dt in (1.0, 2.0, 5.0):
        grid = TimeGrid(0.0, 3000.0, dt)
        h = path_matrix(net, grid, {"p1": 0.6}, until_s=600.0)
        t0 = time.perf_counter()
        res = run_dnl(net, h, grid)
        elapsed += time.perf_counter() - t0
        dep = grid.times()[: grid.n_steps]
        mask = dep < 600.0
        oracle = newell_two_link_tt(specs, 0.6, 600.0, 3000.0, dep[mask])
        err = np.abs(res.travel_time[0][mask] - oracle)
        assert not np.any(np.isnan(err))
        assert err.max() <= 2.0 * dt
    assert elapsed < 5.0


def test_criterion_03_spillback_bound():
    net = serial_network([(1200.0, 12.0, 0.8), (200.0, 12.0, 0.5),
                          (600.0, 12.0, 0.1)])
    grid = TimeGrid(0.0, 3000.0, 2.0)
    h = path_matrix(net, grid, {"p1": 0.6}, until_s=900.0)
    res = run_dnl(net, h, grid)
    times = grid.times()
    for state in res.link_states.values():
        # n_up(t) <= n_dn(t - L/w) + rho_jam * L at every knot
        assert lagged_bound_gap(state, times).min() >= -1e-9
    # while the middle link's bound binds, upstream exits are throttled to
    # the downstream bottleneck rate
    binding = lagged_bound_gap(res.link_states["2"], times) <= 1e-6
    assert binding.sum() > 100
    up_out = res.link_states["1"].outflow[binding[:-1]]
    assert np.abs(up_out - 0.1).max() <= 1e-6


def test_criterion_04_conservation(braess_flows, random_flows):
    for net, grid, (res, residuals, _) in (braess_flows, random_flows):
        # per-call junction conservation, recomputed from model outputs
        assert residuals.max() <= 1e-9
        # end-of-run (and per-knot) vehicle balance
        assert res.diagnostics.max() <= 1e-6
    # independent per-step recomputation at pure internal nodes
    net, grid, (res, _, _) = random_flows
    checked = 0
    for nid, node in net.nodes.items():
        if node.origin or node.destination:
            continue
        if not net.incoming[nid] or not net.outgoing[nid]:
            continue
        into = sum(res.link_states[l].outflow for l in net.incoming[nid])
        out = sum(res.link_states[l].inflow for l in net.outgoing[nid])
        assert np.abs(into - out).max() <= 1e-9 * max(1.0, into.max())
        checked += 1
    assert checked > 10


def test_criterion_05_fifo(braess_flows, random_flows):
    for net, grid, (res, _, _) in (braess_flows, random_flows):
        times = grid.times()
        # exit-time curve lambda nondecreasing on every link
        for state in res.link_states.values():
            lam = np.array([exit_time(state, grid, t) for t in times[::10]])
            fin = lam[~np.isnan(lam)]
            assert np.all(np.diff(fin) >= -1e-6)
        # path arrivals nondecreasing in departure time within one step
        for row in res.arrival_time:
            fin = row[~np.isnan(row)]
            assert np.all(np.diff(fin) >= -grid.dt_s)


def test_criterion_06_composition(braess_flows, random_flows):
    for net, grid, (res, _, row_errors) in (braess_flows, random_flows):
        seen = 0
        for state in res.link_states.values():
            for k, comp in enumerate(state.entry_composition):
                if state.inflow[k] <= 1e-9:
                    continue
                assert comp is not None
                _, fr = comp
                seen += 1
                assert np.all(fr >= 0.0) and np.all(fr <= 1.0)
                assert abs(fr.sum() - 1.0) <= 1e-9
        assert seen > 0
        # distribution-matrix rows with positive demand sum to one
        assert row_errors.size > 0
        assert row_errors.max() <= 1e-6


def test_criterion_07_projection_feasibility():
    net = braess_network()
    grid = TimeGrid(0.0, 2400.0, 10.0)
    order = tuple(net.paths)
    cfg = SolverConfig(alpha=1e-3)
    rng = np.random.default_rng(17)
    h = init_departures(net, grid)
    for _ in range(50):
        psi = rng.uniform(50.0, 2000.0, h.shape)
        h = fixed_point_update(h, psi, net, grid, cfg)
        assert np.all(h >= 0.0)
        for od in net.od_pairs:
            rows = [order.index(p) for p in od.paths]
            mass = h[rows].sum() * grid.dt_s
            assert abs(mass - od.demand_veh) <= 1e-6 * od.demand_veh


def test_criterion_08_dual_root_oracle():
    tol = 1e-8
    rng = np.random.default_rng(23)
    for _ in range(100):
        h = rng.uniform(0.0, 1.0, (3, 10))
        psi = rng.uniform(0.0, 800.0, (3, 10))
        alpha = rng.uniform(1e-5, 1e-2)
        dt = rng.uniform(1.0, 10.0)
        q = rng.uniform(0.5, 60.0)
        x_b = solve_dual(h, psi, q, alpha, dt)

        # exhaustive fine-grid scan of G over a bracketing interval
        b = np.sort((alpha * psi - h).ravel())
        x_lo = float(b.min())  # G(x_lo) = -q
        x_hi = float(b.max()) + q / dt + 1.0  # all cells active: G > 0
        xs = np.linspace(x_lo, x_hi, 1_000_001)
        k = np.searchsorted(b, xs, side="right")
        csum = np.concatenate(([0.0], np.cumsum(b)))
        g = dt * (xs * k - csum[k]) - q
        x_scan = xs[np.argmin(np.abs(g))]

        spacing = (x_hi - x_lo) / 1_000_000
        # the breakpoint root has |G| <= tol*q and G's slope is at least dt
        # near the root, so the roots agree to tol*q/dt plus the scan resolution
        assert abs(x_b - x_scan) <= tol * q / dt + spacing + 1e-12
        assert abs(dual_residual(h, psi, x_b, q, alpha, dt)) <= tol * q
        assert np.all(np.diff(g) >= -1e-9)


def test_criterion_09_equilibrium_fixed_point():
    # two identical free-flow routes (100 s), demand so light no queue forms;
    # all demand in the single on-time departure cell is an exact equilibrium
    net = parallel_network(2, length=1200.0, v=12.0, cap=0.8, demand=6.0,
                           target=600.0)
    grid = TimeGrid(0.0, 900.0, 10.0)
    h = np.zeros((2, grid.n_steps))
    k_on_time = int(np.where(grid.times()[: grid.n_steps] == 500.0)[0][0])
    h[:, k_on_time] = 6.0 / (2 * grid.dt_s)

    from dtaflow import effective_delay

    res = run_dnl(net, h, grid)
    psi = effective_delay(res, net)
    used = h > 0
    # confirm construction: every used cell attains the O-D minimum cost
    assert np.abs(psi[used] - psi[used].min()).max() <= 1e-9
    assert psi[used].min() <= psi[~used].min()

    cfg = SolverConfig(alpha=1e-3)
    h_new = fixed_point_update(h, psi, net, grid, cfg)
    moved = np.abs(h_new - h).sum() * grid.dt_s
    assert moved <= 6e-8


def test_criterion_10_braess_due():
    demands = {("1", "3"): 25.0, ("2", "3"): 15.0,
               ("1", "4"): 35.0, ("2", "4"): 25.0}
    net = braess_network(demands=demands, target=1200.0)
    grid = TimeGrid(0.0, 2400.0, 5.0)
    cfg = SolverConfig(alpha=5e-3, epsilon=1e-4, max_iters=200,
                       initial_window_s=(0.0, 1200.0))
    report = solve_due(net, grid, cfg)
    assert report.converged and report.iterations_used <= 200

    # every O-D gap within 5% of that O-D's minimum used cost
    order = report.path_order
    for od in net.od_pairs:
        rows = [order.index(p) for p in od.paths]
        hb = report.h_final[rows]
        pb = report.psi_final[rows]
        used = hb > 1e-6 * hb.max()
        key = (od.origin, od.destination)
        assert report.od_gaps[key] <= 0.05 * pb[used].min()

    # relative-gap history predominantly decreasing
    g = report.relative_gap_history
    wins = sum(g[k + 10] < g[k] for k in range(len(g) - 10))
    assert wins >= 0.8 * (len(g) - 10)


def test_criterion_11_scale_check():
    net = grid_network()  # 24 nodes, 76 links, 552 O-D pairs, ~6.6k paths
    assert len(net.links) == 76
    assert len(net.od_pairs) > 500
    assert len(net.paths) > 6000
    grid = TimeGrid(0.0, 4000.0, 10.0)
    h = init_departures(net, grid, window=(0.0, 2000.0))
    t0 = time.perf_counter()
    res = run_dnl(net, h, grid)
    elapsed = time.perf_counter() - t0
    assert res.diagnostics.max() <= 1e-6
    assert elapsed <= 30.0


def test_criterion_12_determinism(tmp_path):
    files = {}
    for name, text in [("network.txt", NETWORK), ("paths.txt", PATHS),
                       ("demand.txt", DEMAND)]:
        f = tmp_path / name
        f.write_text(text)
        files[name] = str(f)
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert main(due_args(files, out1)) == 0
    assert main(due_args(files, out2)) == 0
    for name in ("h_final.csv", "eff_delay.csv", "od_gaps.csv",
                 "convergence.csv", "travel_times.csv", "link_timeseries.csv"):
        assert filecmp.cmp(os.path.join(out1, name),
                           os.path.join(out2, name), shallow=False), name

    def summary(out):  # all but the wall-clock timings
        with open(os.path.join(out, "summary.json")) as fh:
            s = json.load(fh)
        del s["dnl_time_s"], s["update_time_s"]
        return s

    assert summary(out1) == summary(out2)
