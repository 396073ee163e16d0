"""Projection-solver tests: dual root finding, updates, convergence."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dtaflow import (
    SolverConfig,
    TimeGrid,
    dual_residual,
    effective_delay,
    fixed_point_update,
    init_departures,
    od_gap,
    relative_gap,
    run_dnl,
    solve_due,
    solve_dual,
    validate_network,
)
from helpers import (braess_components, braess_network, parallel_network,
                     single_link_network)


def exact_dual_root(h, psi, q, alpha, dt):
    """Closed-form root of the projected-demand residual, via its breakpoints.

    G(x) = dt * sum_i max(x - b_i, 0) - q with b_i = alpha*psi_i - h_i, so on
    the segment where exactly k breakpoints are passed the root is
    (q/dt + sum of those b_i) / k.
    """
    b = np.sort((alpha * psi - h).ravel())
    n = b.size
    for k in range(1, n + 1):
        x = (q / dt + b[:k].sum()) / k
        hi = b[k] if k < n else np.inf
        if b[k - 1] - 1e-12 <= x <= hi + 1e-12:
            return x
    raise AssertionError("no segment contained the root")


class TestDualResidual:
    def test_constant_block_closed_form(self):
        h = np.full((3, 10), 0.2)
        psi = np.full((3, 10), 400.0)
        alpha, dt, q = 1e-4, 5.0, 40.0
        # all cells identical: G(x) = 30 * (0.2 - 0.04 + x) * 5 - 40
        assert dual_residual(h, psi, 0.0, q, alpha, dt) == pytest.approx(
            30 * 0.16 * 5 - 40)
        x_star = q / (30 * dt) - 0.2 + alpha * 400.0
        assert dual_residual(h, psi, x_star, q, alpha, dt) == pytest.approx(0.0)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(0, 1, (3, 10))
        psi = rng.uniform(0, 500, (3, 10))
        xs = np.linspace(-2, 2, 101)
        vals = [dual_residual(h, psi, x, 10.0, 1e-3, 2.0) for x in xs]
        assert np.all(np.diff(vals) >= -1e-12)


class TestSolveDual:
    def test_matches_constant_closed_form(self):
        h = np.full((3, 10), 0.2)
        psi = np.full((3, 10), 400.0)
        alpha, dt, q = 1e-4, 5.0, 40.0
        x = solve_dual(h, psi, q, alpha, dt)
        assert x == pytest.approx(q / (30 * dt) - 0.2 + alpha * 400.0, abs=1e-6)

    def test_zero_demand_returns_zero(self):
        assert solve_dual(np.ones((1, 4)), np.ones((1, 4)), 0.0, 1.0, 1.0) == 0.0

    def test_shift_invariance_in_cost(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(0, 0.5, (3, 12))
        psi = rng.uniform(50, 600, (3, 12))
        alpha, dt, q = 2e-4, 4.0, 25.0
        x0 = solve_dual(h, psi, q, alpha, dt)
        x1 = solve_dual(h, psi + 250.0, q, alpha, dt)
        assert x1 - x0 == pytest.approx(alpha * 250.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_breakpoint_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0, 1.0, (3, 10))
        psi = rng.uniform(0, 800.0, (3, 10))
        alpha = rng.uniform(1e-5, 1e-2)
        dt = rng.uniform(1.0, 10.0)
        q = rng.uniform(0.5, 60.0)
        x = solve_dual(h, psi, q, alpha, dt)
        assert x == pytest.approx(exact_dual_root(h, psi, q, alpha, dt), abs=1e-6)

    @pytest.mark.parametrize("h, psi, q", [
        # Q = 1e-300 with a zero lowest breakpoint: root Q/dt, no rounding
        (np.zeros((1, 3)), np.array([[0.0, 100.0, 300.0]]), 1e-300),
        (np.zeros((2, 5)), np.zeros((2, 5)), 1e-300),
        # a single-cell block
        (np.array([[0.2]]), np.array([[300.0]]), 5.0),
        # every breakpoint tied
        (np.full((2, 6), 0.3), np.full((2, 6), 200.0), 7.0),
        # two tied groups, the root inside the first and past both
        (np.full((2, 6), 0.3), np.repeat([[200.0], [700.0]], 6, axis=1), 0.5),
        (np.full((2, 6), 0.3), np.repeat([[200.0], [700.0]], 6, axis=1), 70.0),
    ])
    def test_edge_blocks_meet_the_demand(self, h, psi, q):
        alpha, dt = 1e-3, 3.0
        x = solve_dual(h, psi, q, alpha, dt)
        assert abs(dual_residual(h, psi, x, q, alpha, dt)) <= 1e-8 * q

    def test_demand_below_the_breakpoint_spacing(self):
        # Q/dt = 1e-300 vanishes next to the lowest breakpoint 0.5: no double
        # x has G(x) = 0, and the root is that breakpoint, the last x with G <= 0
        h = np.zeros((1, 4))
        psi = np.array([[500.0, 600.0, 700.0, 800.0]])
        x = solve_dual(h, psi, 1e-300, 1e-3, 3.0)
        assert x == 0.5
        assert dual_residual(h, psi, x, 1e-300, 1e-3, 3.0) <= 0.0
        assert dual_residual(h, psi, np.nextafter(x, 1.0), 1e-300, 1e-3, 3.0) > 0.0

    @settings(max_examples=100, deadline=None)
    @given(arrays(float, (2, 8), elements=st.floats(0, 1)),
           arrays(float, (2, 8), elements=st.floats(0, 1000)),
           st.floats(0.1, 50.0))
    def test_projection_restores_feasibility(self, h, psi, q):
        alpha, dt, tol = 1e-3, 3.0, 1e-10
        x = solve_dual(h, psi, q, alpha, dt)
        projected = np.maximum(h - alpha * psi + x, 0.0).sum() * dt
        assert projected == pytest.approx(q, abs=max(tol * q, 1e-7))


class TestInitDepartures:
    def test_uniform_and_feasible(self):
        net = braess_network()
        grid = TimeGrid(0.0, 2400.0, 10.0)
        h = init_departures(net, grid)
        order = tuple(net.paths)
        for od in net.od_pairs:
            rows = [order.index(p) for p in od.paths]
            assert h[rows].sum() * grid.dt_s == pytest.approx(od.demand_veh)
            assert np.ptp(h[rows]) == pytest.approx(0.0)

    def test_window_restricts_support(self):
        net = single_link_network(demand=90.0)
        grid = TimeGrid(0.0, 900.0, 10.0)
        h = init_departures(net, grid, window=(100.0, 400.0))
        times = grid.times()[: grid.n_steps]
        assert np.all(h[0][(times < 100.0) | (times >= 400.0)] == 0.0)
        assert h[0].sum() * grid.dt_s == pytest.approx(90.0)

    def test_empty_window_rejected(self):
        net = single_link_network()
        grid = TimeGrid(0.0, 900.0, 10.0)
        with pytest.raises(ValueError, match="window"):
            init_departures(net, grid, window=(800.0, 800.0))


class TestFixedPointUpdate:
    @pytest.fixture
    def setup(self):
        net = parallel_network(2, demand=60.0, target=400.0)
        grid = TimeGrid(0.0, 600.0, 10.0)
        h = init_departures(net, grid)
        return net, grid, h

    def test_conserves_od_demand(self, setup):
        net, grid, h = setup
        rng = np.random.default_rng(5)
        psi = rng.uniform(100, 700, h.shape)
        cfg = SolverConfig(alpha=1e-3)
        h_new = fixed_point_update(h, psi, net, grid, cfg)
        assert h_new.sum() * grid.dt_s == pytest.approx(60.0, abs=1e-6)
        assert np.all(h_new >= 0)

    def test_constant_cost_is_a_fixed_point(self, setup):
        net, grid, h = setup
        psi = np.full(h.shape, 300.0)
        cfg = SolverConfig(alpha=1e-3)
        h_new = fixed_point_update(h, psi, net, grid, cfg)
        assert np.abs(h_new - h).max() < 1e-8

    def test_exact_equilibrium_is_a_fixed_point(self):
        # criterion 09's equilibrium: all demand in the on-time cell of two
        # identical free-flow routes
        net = parallel_network(2, length=1200.0, v=12.0, cap=0.8, demand=6.0,
                               target=600.0)
        grid = TimeGrid(0.0, 900.0, 10.0)
        h = np.zeros((2, grid.n_steps))
        h[:, 50] = 6.0 / (2 * grid.dt_s)  # the 500 s cell arrives on time
        psi = effective_delay(run_dnl(net, h, grid), net)
        h_new = fixed_point_update(h, psi, net, grid, SolverConfig(alpha=1e-3))
        assert np.abs(h_new - h).max() <= 1e-12

    def test_flow_moves_toward_cheaper_cells(self, setup):
        net, grid, h = setup
        psi = np.full(h.shape, 500.0)
        psi[0] = 100.0  # first path strictly cheaper everywhere
        cfg = SolverConfig(alpha=1e-3)
        h_new = fixed_point_update(h, psi, net, grid, cfg)
        assert h_new[0].sum() > h[0].sum()
        assert h_new[1].sum() < h[1].sum()

    def test_indifference_band_freezes_near_optimal_cells(self, setup):
        net, grid, h = setup
        rng = np.random.default_rng(9)
        psi = 300.0 + rng.uniform(0, 200, h.shape)
        cfg = SolverConfig(alpha=1e-3, br_tolerance=100.0)
        h_new = fixed_point_update(h, psi, net, grid, cfg)
        keep = psi <= psi.min() + 100.0
        assert keep.any() and not keep.all()
        assert np.array_equal(h_new[keep], h[keep])
        assert h_new.sum() * grid.dt_s == pytest.approx(60.0, abs=1e-6)

    def test_zero_band_and_tiny_band_differ(self, setup):
        net, grid, h = setup
        rng = np.random.default_rng(11)
        psi = rng.uniform(100, 700, h.shape)
        strict = fixed_point_update(h, psi, net, grid, SolverConfig(alpha=1e-3))
        banded = fixed_point_update(h, psi, net, grid,
                                    SolverConfig(alpha=1e-3, br_tolerance=300.0))
        assert not np.allclose(strict, banded)

    @pytest.mark.parametrize("case", ["every cell kept", "cheap path kept"])
    def test_band_carrying_the_whole_demand_is_scaled_onto_it(self, setup, case):
        # the kept cells hold twice the demand: they are scaled back onto
        # it, and every other cell of the O-D pair is zeroed
        net, grid, h = setup
        psi = np.full(h.shape, 300.0)
        before = 2 * h
        if case == "cheap path kept":
            psi[1] = 500.0
            before[0] *= 2
        cfg = SolverConfig(alpha=1e-3, br_tolerance=1.0)
        h_new = fixed_point_update(before, psi, net, grid, cfg)
        keep = psi <= psi.min() + 1.0
        kept_demand = before[keep].sum() * grid.dt_s
        assert np.allclose(h_new[keep], before[keep] * (60.0 / kept_demand),
                           rtol=1e-12, atol=0)
        assert np.all(h_new[~keep] == 0.0)
        assert h_new.sum() * grid.dt_s == pytest.approx(60.0, rel=1e-12)


def test_od_path_order_does_not_change_results():
    # an O-D pair may pin its paths in another order than the path table;
    # every per-O-D consumer reads the same rows either way
    nodes, links, paths, ods = braess_components(target=1200.0)
    plain = validate_network(nodes, links, paths, ods)
    pinned = validate_network(nodes, links, paths, [
        dataclasses.replace(od, paths=od.paths[::-1]) for od in plain.od_pairs])
    assert [od.paths for od in pinned.od_pairs] != [od.paths for od in plain.od_pairs]
    grid = TimeGrid(0.0, 2400.0, 10.0)
    h = init_departures(plain, grid, (0.0, 1200.0))
    np.testing.assert_array_equal(init_departures(pinned, grid, (0.0, 1200.0)), h)
    res = run_dnl(plain, h, grid)
    psi = effective_delay(res, plain)
    np.testing.assert_array_equal(effective_delay(res, pinned), psi)
    for cfg in (SolverConfig(alpha=1e-3), SolverConfig(alpha=1e-3, br_tolerance=60.0)):
        np.testing.assert_array_equal(fixed_point_update(h, psi, pinned, grid, cfg),
                                      fixed_point_update(h, psi, plain, grid, cfg))
    assert od_gap(h, psi, pinned) == od_gap(h, psi, plain)
    # rows ordered otherwise than the network's path table are refused
    reordered = validate_network(nodes, links, paths[::-1], ods)
    with pytest.raises(ValueError, match="path table"):
        effective_delay(res, reordered)


class TestGapMeasures:
    def test_relative_gap_values(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[1.0, 1.0]])
        assert relative_gap(a, b, 2.0) == pytest.approx((1.0 * 2.0) / (2.0 * 2.0))
        assert relative_gap(b, b, 2.0) == 0.0
        assert relative_gap(a, np.zeros_like(a), 2.0) == np.inf

    def test_relative_gap_survives_overflowing_sums(self):
        # the squares overflow; in units of max|h| the gap is (0.25 + 0.25) / 1
        old = np.array([[1e308, 0.0]])
        new = np.array([[0.5e308, 0.5e308]])
        with np.errstate(all="raise"):
            assert relative_gap(new, old, 10.0) == pytest.approx(0.5, rel=1e-15)

    def test_od_gap_ignores_unused_cells(self):
        net = parallel_network(2, demand=60.0)
        h = np.array([[0.5, 0.5], [0.0, 0.0]])
        psi = np.array([[100.0, 110.0], [900.0, 950.0]])
        gaps = od_gap(h, psi, net)
        assert gaps[("a", "b")] == pytest.approx(10.0)


class TestSolverConfig:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=2.5)
        with pytest.raises(ValueError):
            SolverConfig(br_tolerance=-1.0)


class TestSolveDue:
    def test_two_identical_routes_balance(self):
        net = parallel_network(2, demand=120.0, target=500.0)
        grid = TimeGrid(0.0, 900.0, 10.0)
        cfg = SolverConfig(alpha=2e-3, epsilon=1e-5, max_iters=150,
                           initial_window_s=(0.0, 600.0))
        report = solve_due(net, grid, cfg)
        assert report.converged
        # feasibility of the final flows
        assert report.h_final.sum() * grid.dt_s == pytest.approx(120.0, rel=1e-6)
        # symmetric network: the two routes carry (nearly) the same profile
        assert np.abs(report.h_final[0] - report.h_final[1]).max() < 1e-3
        # used departure cells share a near-common cost
        assert report.od_gaps[("a", "b")] <= 20.0

    def test_history_and_timers_populated(self):
        net = single_link_network(demand=40.0, target=400.0)
        grid = TimeGrid(0.0, 700.0, 10.0)
        cfg = SolverConfig(alpha=5e-4, epsilon=1e-5, max_iters=200,
                           initial_window_s=(0.0, 500.0))
        report = solve_due(net, grid, cfg)
        assert len(report.relative_gap_history) == report.iterations_used
        assert report.dnl_time_s > 0 and report.update_time_s > 0
        assert report.final_dnl is not None
        assert report.psi_final.shape == report.h_final.shape

    def test_warm_start_from_equilibrium_stays_put(self):
        net = single_link_network(demand=40.0, target=400.0)
        grid = TimeGrid(0.0, 700.0, 10.0)
        cfg = SolverConfig(alpha=5e-4, epsilon=1e-5, max_iters=200,
                           initial_window_s=(0.0, 500.0))
        first = solve_due(net, grid, cfg)
        assert first.converged
        second = solve_due(net, grid, cfg, h0=first.h_final)
        assert second.iterations_used <= 3
        assert np.abs(second.h_final - first.h_final).max() < 0.01


def test_criterion_10_solve_matches_pinned_iterates():
    """The criterion-10 Braess solve (the benchmark's seed 0) gives the
    pinned final departures and costs, so that a change meant to be
    numerically neutral cannot move them unnoticed. A change that alters
    the solve on purpose, such as a new cell cost or a new stopping rule,
    regenerates tests/data/braess_c10_seed0.npz and says so."""
    demands = {("1", "3"): 25.0, ("2", "3"): 15.0,
               ("1", "4"): 35.0, ("2", "4"): 25.0}
    net = braess_network(demands=demands, target=1200.0)
    grid = TimeGrid(0.0, 2400.0, 5.0)
    cfg = SolverConfig(alpha=5e-3, epsilon=1e-4, max_iters=200,
                       initial_window_s=(0.0, 1200.0))
    report = solve_due(net, grid, cfg)
    pinned = np.load(os.path.join(os.path.dirname(__file__), "data",
                                  "braess_c10_seed0.npz"))
    assert report.iterations_used == 60
    np.testing.assert_allclose(report.h_final, pinned["h_final"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.psi_final, pinned["psi_final"], rtol=1e-12, atol=0)
