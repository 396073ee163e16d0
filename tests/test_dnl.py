"""Loading-engine tests: boundary-rate branches, curve inversions, oracles."""

import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaflow import (
    JunctionError,
    Link,
    Node,
    ODPair,
    Path,
    TimeGrid,
    init_departures,
    run_dnl,
    validate_network,
)
from dtaflow import dnl, junctions
from dtaflow.dnl import (
    DNLError,
    LinkState,
    _Layout,
    _Loader,
    _exit_times,
    _read_at,
    _read_table,
    exit_time,
    link_demand,
    link_supply,
    mix_composition,
    origin_demand,
    propagate_composition,
    step_origin_queue,
)
from dtaflow.junctions import resolve_network, resolve_unchecked
from helpers import (
    braess_components,
    braess_network,
    grid_network,
    parallel_network,
    path_matrix,
    random_network,
    serial_network,
    single_link_network,
)


# -- boundary-rate branches ----------------------------------------------------


@pytest.fixture
def grid():
    return TimeGrid(0.0, 1000.0, 100.0)


@pytest.fixture
def link():
    # free-flow time 100 s, backward-wave time 300 s, storage 200 veh
    return Link.create("1", "a", "b", 1200.0, 12.0, 0.5)


def make_state(link, grid, n_up, n_dn, inflow=None, outflow=None):
    n = grid.n_steps
    zero = np.zeros(n)
    return LinkState(link, np.asarray(n_up, float), np.asarray(n_dn, float),
                     zero if inflow is None else np.asarray(inflow, float),
                     zero if outflow is None else np.asarray(outflow, float),
                     np.zeros(0, dtype=np.int64), np.zeros((n, 0)),
                     np.full(n, -1))


class TestLinkDemand:
    def test_zero_before_first_vehicles_can_arrive(self, link, grid):
        st = make_state(link, grid, np.zeros(11), np.zeros(11))
        assert link_demand(link, st, grid, 0.0) == 0.0

    def test_free_flow_branch_returns_lagged_inflow(self, link, grid):
        times = grid.times()
        st = make_state(link, grid, 0.3 * times, 0.3 * np.clip(times - 100, 0, None),
                        inflow=np.full(10, 0.3))
        # N_up(t - L/v) == N_dn(t): demand equals the inflow 100 s ago
        assert link_demand(link, st, grid, 300.0) == pytest.approx(0.3)

    def test_congested_branch_returns_capacity(self, link, grid):
        times = grid.times()
        st = make_state(link, grid, 0.3 * times, np.zeros(11),
                        inflow=np.full(10, 0.3))
        # exit blocked: N_up(t - L/v) > N_dn(t)
        assert link_demand(link, st, grid, 300.0) == link.capacity_vps


class TestLinkSupply:
    def test_empty_link_offers_capacity(self, link, grid):
        st = make_state(link, grid, np.zeros(11), np.zeros(11))
        assert link_supply(link, st, grid, 500.0) == link.capacity_vps

    def test_full_blocked_link_offers_nothing(self, link, grid):
        times = grid.times()
        st = make_state(link, grid, np.minimum(0.3 * times, link.storage_veh),
                        np.zeros(11))
        # storage bound binds and the lagged outflow is zero
        assert link_supply(link, st, grid, 800.0) == 0.0

    def test_full_draining_link_offers_lagged_outflow(self, link, grid):
        times = grid.times()
        n_dn = 0.1 * times
        n_up = 0.1 * np.clip(times - 300.0, 0, None) + link.storage_veh
        st = make_state(link, grid, n_up, n_dn, outflow=np.full(10, 0.1))
        assert link_supply(link, st, grid, 600.0) == pytest.approx(0.1)

    def test_nearly_full_link_still_offers_capacity(self, link, grid):
        times = grid.times()
        st = make_state(link, grid, np.minimum(0.3 * times, link.storage_veh - 1.0),
                        np.zeros(11))
        assert link_supply(link, st, grid, 800.0) == link.capacity_vps


def test_curve_reads_match_np_interp():
    # the loader reads its curves with np.interp's arithmetic, bit for bit
    rng = np.random.default_rng(0)
    times = 7.0 + 3.3 * np.arange(40)
    curves = np.cumsum(rng.uniform(0.0, 2.0, size=(5, 40)), axis=1)
    s = rng.uniform(times[0] - 10.0, times[-1] + 10.0, size=(3, 5))
    s[0, :3] = times[[0, 17, -1]]  # on knots, the first and last included
    s[1, :2] = times[0] - 5.0, times[-1] + 5.0  # outside the grid
    expected = [[np.interp(s[a, i], times, curves[i]) for i in range(5)]
                for a in range(3)]
    idx, span, off = _read_table(times, s, np.arange(len(curves)) * len(times))
    read = _read_at(curves, idx, np.minimum(idx + 1, curves.size - 1), span, off)
    np.testing.assert_array_equal(read, expected)


class TestCurveInversion:
    def test_exit_time_on_steady_link(self, link, grid):
        times = grid.times()
        st = make_state(link, grid, 0.3 * times, 0.3 * np.clip(times - 100, 0, None))
        assert exit_time(st, grid, 200.0) == pytest.approx(300.0)

    def test_exit_time_empty_link_is_free_flow(self, link, grid):
        st = make_state(link, grid, np.zeros(11), np.zeros(11))
        assert exit_time(st, grid, 200.0) == pytest.approx(300.0)

    def test_exit_time_nan_past_horizon(self, link, grid):
        times = grid.times()
        st = make_state(link, grid, 0.3 * times, 0.3 * np.clip(times - 100, 0, None))
        assert math.isnan(exit_time(st, grid, 950.0))


class TestOriginOps:
    def test_queue_forces_big_m(self):
        assert origin_demand(5.0, 0.2, 100.0) == 100.0

    def test_no_queue_passes_rate(self):
        assert origin_demand(0.0, 0.2, 100.0) == 0.2

    def test_queue_grows_by_net_rate(self):
        assert step_origin_queue(0.0, 1.0, 0.5, 2.0) == pytest.approx(1.0)

    def test_queue_clamped_at_zero(self):
        assert step_origin_queue(0.5, 0.0, 1.0, 2.0) == 0.0

    def test_balanced_queue_is_steady(self):
        assert step_origin_queue(3.0, 2.0, 2.0, 5.0) == pytest.approx(3.0)


class TestPropagateComposition:
    def test_rate_weighted_mixture(self):
        # two feeders at 0.2 veh/s into link 0: one all path 0, one half
        # paths 0 and 1; link 1 takes nothing
        mix = 0.2 * np.array([1.0, 0.0, 0.0]) + 0.2 * np.array([0.5, 0.5, 0.0])
        shares, fed = propagate_composition(mix, np.array([0, 0, 1]), np.array([0.4, 0.0]))
        assert shares == pytest.approx([0.75, 0.25, 0.0])
        assert list(fed) == [0]

    def test_no_flow_returns_none(self):
        shares, fed = propagate_composition(np.zeros(2), np.array([0, 0]), np.zeros(1))
        assert fed.size == 0 and not shares.any()

    def test_mass_mismatch_raises(self):
        with pytest.raises(DNLError, match="composition mass"):
            propagate_composition(np.array([0.3, 0.0]), np.array([0, 0]), np.array([0.4]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 5.0),
                          st.integers(0, 9),
                          st.floats(0.01, 1.0)),
                min_size=1, max_size=6))
def test_propagated_fractions_always_normalized(raw):
    # each feeder carries rate r of one path slot; slots 0-4 are link 0's and
    # 5-9 link 1's, and each link's inflow is what its feeders carry
    mix = np.zeros(10)
    for r, slot, _ in raw:
        mix[slot] += r
    slot_link = np.repeat([0, 1], 5)
    inflow = np.bincount(slot_link, mix)
    shares, fed = propagate_composition(mix, slot_link, inflow)
    assert list(fed) == list(np.flatnonzero(inflow > 0))
    for link in fed:
        out = shares[slot_link == link]
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out >= 0)
        assert np.all(out[mix[slot_link == link] == 0] == 0)
    assert not shares[~np.isin(slot_link, fed)].any()


def test_every_stepped_step_propagates_compositions(monkeypatch):
    # the loader mixes its compositions through the module-level function,
    # once per stepped step (one junction resolution each)
    calls = {"compositions": 0, "junctions": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    net, grid, h = _braess_dt7()
    expected = run_dnl(net, h, grid)
    monkeypatch.setattr(dnl, "mix_composition",
                        counted("compositions", mix_composition))
    monkeypatch.setattr(junctions, "resolve_unchecked",
                        counted("junctions", resolve_unchecked))
    res = run_dnl(net, h, grid)
    assert 0 < calls["compositions"] == calls["junctions"] < grid.n_steps
    np.testing.assert_array_equal(res.travel_time, expected.travel_time)


# -- whole-run oracles -----------------------------------------------------------


@pytest.mark.parametrize("dt", [1.0, 2.0, 5.0])
def test_free_flow_travel_time_exact(dt):
    net = single_link_network(1200.0, 12.0, 0.8)
    grid = TimeGrid(0.0, 600.0, dt)
    h = path_matrix(net, grid, {"p1": 0.4}, until_s=300.0)
    res = run_dnl(net, h, grid)
    dep = grid.times()[: grid.n_steps]
    tt = res.travel_time[0][dep < 300.0]
    assert np.nanmax(np.abs(tt - 100.0)) < 1e-9


def newell_two_link_tt(specs, rate, t_end, horizon, dep_times):
    """Brute-force cumulative-curve oracle on a 0.01 s grid for a two-link
    corridor whose second link is the bottleneck."""
    (L1, v1, _), (L2, v2, C2) = specs
    ff1, ff2 = L1 / v1, L2 / v2
    tg = np.arange(0.0, horizon + 0.005, 0.01)
    A1 = rate * np.minimum(np.clip(tg - ff1, 0.0, None), t_end)
    B1 = np.minimum(A1, np.minimum.accumulate(A1 - C2 * tg) + C2 * tg)
    B2 = np.interp(tg - ff2, tg, B1, left=0.0)
    counts = rate * np.minimum(dep_times, t_end)
    exit_t = np.interp(counts, B2, tg)
    return np.maximum(exit_t - dep_times, ff1 + ff2)


@pytest.mark.parametrize("dt", [1.0, 2.0, 5.0])
def test_bottleneck_matches_newell_oracle(dt):
    specs = [(1800.0, 12.0, 0.9), (600.0, 12.0, 0.3)]
    net = serial_network(specs)
    grid = TimeGrid(0.0, 3000.0, dt)
    h = path_matrix(net, grid, {"p1": 0.6}, until_s=600.0)
    res = run_dnl(net, h, grid)
    dep = grid.times()[: grid.n_steps]
    mask = dep < 600.0
    oracle = newell_two_link_tt(specs, 0.6, 600.0, 3000.0, dep[mask])
    err = np.abs(res.travel_time[0][mask] - oracle)
    assert not np.any(np.isnan(err))
    assert err.max() <= 2.0 * dt


def test_grid_refinement_consistency():
    specs = [(1800.0, 12.0, 0.9), (600.0, 12.0, 0.3)]
    net = serial_network(specs)
    results = {}
    for dt in (4.0, 1.0):
        grid = TimeGrid(0.0, 3000.0, dt)
        h = path_matrix(net, grid, {"p1": 0.6}, until_s=600.0)
        res = run_dnl(net, h, grid)
        dep = grid.times()[: grid.n_steps]
        keep = (dep < 600.0) & (np.mod(dep, 4.0) == 0)
        results[dt] = res.travel_time[0][keep]
    assert np.abs(results[4.0] - results[1.0]).max() <= 8.0


def lagged_bound_gap(state, times):
    """Slack of n_up(t) against the backward-lagged storage bound, per knot."""
    link = state.link
    lag = link.length_m / link.backward_speed_mps
    n_dn_lag = np.interp(times - lag, times, state.n_dn, left=0.0)
    return n_dn_lag + link.storage_veh - state.n_up


@pytest.fixture(scope="module")
def spillback():
    net = serial_network([(1200.0, 12.0, 0.8), (200.0, 12.0, 0.5),
                          (600.0, 12.0, 0.1)])
    grid = TimeGrid(0.0, 3000.0, 2.0)
    h = path_matrix(net, grid, {"p1": 0.6}, until_s=900.0)
    return grid, run_dnl(net, h, grid)


class TestSpillback:
    def test_storage_bound_never_violated(self, spillback):
        grid, res = spillback
        times = grid.times()
        for state in res.link_states.values():
            assert lagged_bound_gap(state, times).min() >= -1e-9
            occ = state.n_up - state.n_dn
            assert occ.max() <= state.link.storage_veh + 1e-9
            assert occ.min() >= -1e-9

    def test_middle_link_fills_and_throttles_upstream(self, spillback):
        grid, res = spillback
        times = grid.times()
        binding = lagged_bound_gap(res.link_states["2"], times) <= 1e-6
        assert binding.sum() > 100  # sustained spillback, not a transient
        up_out = res.link_states["1"].outflow[binding[:-1]]
        # upstream exits collapse to the downstream bottleneck rate
        assert up_out.max() <= 0.1 + 1e-6
        assert up_out.min() >= 0.1 - 1e-6

    def test_queue_reaches_the_origin(self, spillback):
        _, res = spillback
        assert res.origin_states["n0"].queue_veh.max() > 10.0


# -- global invariants -----------------------------------------------------------


@pytest.fixture(scope="module")
def braess_run():
    net = braess_network()
    grid = TimeGrid(0.0, 2400.0, 2.0)
    h = path_matrix(net, grid, {"p1": 0.3, "p4": 0.3, "p5": 0.2},
                    until_s=600.0)
    return net, grid, run_dnl(net, h, grid)


class TestInvariants:
    def test_vehicle_balance(self, braess_run):
        _, _, res = braess_run
        assert res.diagnostics.max() <= 1e-6

    def test_counts_monotone_and_ordered(self, braess_run):
        _, _, res = braess_run
        for state in res.link_states.values():
            assert np.all(np.diff(state.n_up) >= -1e-12)
            assert np.all(np.diff(state.n_dn) >= -1e-12)
            assert np.all(state.n_dn <= state.n_up + 1e-9)

    def test_fifo_arrivals_nondecreasing(self, braess_run):
        _, _, res = braess_run
        for row in res.arrival_time:
            fin = row[~np.isnan(row)]
            assert np.all(np.diff(fin) >= -1e-9)

    def test_compositions_normalized(self, braess_run):
        _, _, res = braess_run
        seen = 0
        for state in res.link_states.values():
            for comp in state.entry_composition:
                if comp is None:
                    continue
                ids, fr = comp
                seen += 1
                assert fr.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(fr > 0)
        assert seen > 0

    def test_unused_paths_do_not_leak(self, braess_run):
        net, _, res = braess_run
        p4 = res.path_order.index("p4")
        for comp in res.link_states["4"].entry_composition:
            if comp is not None:
                assert list(comp[0]) == [p4]
        # link 2 is traversed by no loaded path at all
        assert res.link_states["2"].n_up[-1] == 0.0

    def test_free_flow_paths_keep_free_flow_times(self, braess_run):
        # demand is far below every capacity: all loaded paths stay free flow
        _, grid, res = braess_run
        dep = grid.times()[: grid.n_steps]
        for pid, ff in [("p1", 200.0), ("p4", 300.0), ("p5", 300.0)]:
            row = res.travel_time[res.path_order.index(pid)]
            sel = row[dep < 600.0]
            assert np.nanmax(np.abs(sel - ff)) < 1e-9


def _braess_dt7():
    net = braess_network()
    grid = TimeGrid(0.0, 2400.0, 7.0)
    h = path_matrix(net, grid, {"p1": 0.3, "p3": 0.3, "p4": 0.3, "p5": 0.2,
                                "p8": 0.2}, until_s=600.0)
    return net, grid, h


def _random_dt5():
    net = random_network()
    grid = TimeGrid(0.0, 1800.0, 5.0)
    h = np.zeros((len(net.paths), grid.n_steps))
    h[:, grid.times()[: grid.n_steps] < 600.0] = 0.1
    return net, grid, h


@pytest.mark.parametrize("case", [_braess_dt7, _random_dt5])
def test_loaded_flows_within_public_demand_and_supply(case):
    # the loader's array boundary flows and the scalar link_demand/link_supply
    # are one formula: loaded flows never exceed the wrappers' values read
    # off the final curves, also where a lag falls between knots
    net, grid, h = case()
    res = run_dnl(net, h, grid)
    times = grid.times()
    excess = -np.inf
    for st in res.link_states.values():
        link = st.link
        lags = np.array([link.free_flow_time_s,
                         link.length_m / link.backward_speed_mps]) / grid.dt_s
        assert np.any(np.abs(lags - np.round(lags)) > 1e-9)
        # zero flows are within any bound: check the steps that carry flow
        for k in np.flatnonzero((st.inflow > 0) | (st.outflow > 0)):
            excess = max(excess,
                         st.outflow[k] - link_demand(link, st, grid, times[k]),
                         st.inflow[k] - link_supply(link, st, grid, times[k]))
    assert excess <= 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "a step's exit flow takes the composition of one entry step, so path "
    "shares drift by O(dt) on links that several paths share"))
def test_random_network_conserves_path_mass():
    # every vehicle of a path that departs enters each link of that path:
    # per path, inflow weighted by the entry shares adds up to its departures
    net, grid, h = _random_dt5()
    grid = TimeGrid(0.0, 5400.0, grid.dt_s)
    h = np.pad(h, ((0, 0), (0, grid.n_steps - h.shape[1])))
    res = run_dnl(net, h, grid)
    assert not res.truncated[h > 0].any()
    departed = h.sum(axis=1) * grid.dt_s
    worst = 0.0
    for state in res.link_states.values():
        entered = np.zeros(len(net.paths))
        for k, comp in enumerate(state.entry_composition):
            if comp is not None:
                entered[comp[0]] += state.inflow[k] * comp[1] * grid.dt_s
        on_link = [res.path_order.index(p) for p, path in net.paths.items()
                   if state.link.id in path.links]
        rel = np.abs(entered[on_link] - departed[on_link]) / departed[on_link]
        worst = max(worst, rel.max(initial=0.0))
    assert worst <= 1e-9


def test_random_network_conserves_vehicles():
    net, grid, h = _random_dt5()
    res = run_dnl(net, h, grid)
    assert res.diagnostics.max() <= 1e-6
    for state in res.link_states.values():
        assert np.all(state.n_dn <= state.n_up + 1e-9)
        assert (state.n_up - state.n_dn).max() <= state.link.storage_veh + 1e-9


# -- active window: empty steps before the first departure and after draining ---


def _link_curves(res):
    return (np.array([s.n_up for s in res.link_states.values()]),
            np.array([s.n_dn for s in res.link_states.values()]))


def test_zero_padded_horizon_changes_nothing():
    # a longer horizon only appends empty steps: the common knots and the
    # trips that finish on the short horizon are the same bit for bit
    net = braess_network()
    short, long = TimeGrid(0.0, 2400.0, 5.0), TimeGrid(0.0, 4800.0, 5.0)
    h = init_departures(net, short, (0.0, 1200.0))
    res_s = run_dnl(net, h, short)
    res_l = run_dnl(net, np.pad(h, ((0, 0), (0, long.n_steps - short.n_steps))),
                    long)
    n = short.n_steps + 1
    for curve_s, curve_l in zip(_link_curves(res_s), _link_curves(res_l)):
        np.testing.assert_array_equal(curve_s, curve_l[:, :n])
    np.testing.assert_array_equal(res_s.diagnostics, res_l.diagnostics[:n])
    done = ~res_s.truncated
    assert done.sum() > 0
    np.testing.assert_array_equal(res_s.travel_time[done],
                                  res_l.travel_time[:, : short.n_steps][done])


def test_second_pulse_after_draining_is_loaded():
    # the network drains completely between two equal pulses; the second one
    # still loads, and it travels like the first
    net = braess_network()
    grid = TimeGrid(0.0, 4800.0, 5.0)
    h = init_departures(net, grid, (0.0, 300.0))  # steps 0-59
    h[:, 600:660] = h[:, :60]
    res = run_dnl(net, h, grid)
    n_up, n_dn = _link_curves(res)
    queue = np.array([o.queue_veh for o in res.origin_states.values()])
    drained = np.all(n_up == n_dn, axis=0) & np.all(queue == 0.0, axis=0)
    assert drained[61:600].any()
    assert np.all(n_up[:, 590:].max(axis=1) > n_up[:, 590])
    np.testing.assert_allclose(n_up[:, -1], 2.0 * n_up[:, 590], rtol=1e-12)
    assert res.diagnostics.max() <= 1e-6
    # once the second pulse has drained, the state holds to the end
    last = 660 + np.flatnonzero(drained[660:])[0]
    for curve in (n_up, n_dn, queue):
        assert np.all(curve[:, last:] == curve[:, last, None])
    assert np.all(res.diagnostics[last:] == res.diagnostics[last])
    for state in res.link_states.values():
        labelled = np.where(state.composition.any(axis=1),
                            np.arange(grid.n_steps), -1)
        np.testing.assert_array_equal(state.entered,
                                      np.maximum.accumulate(labelled))
    first, second = res.travel_time[:, :60], res.travel_time[:, 600:660]
    assert not np.isnan(first).any() and not np.isnan(second).any()
    np.testing.assert_allclose(second, first, rtol=0.0, atol=1e-6)


def assert_results_equal(res, ref):
    """Every array of two loadings is equal, NaN pattern included."""
    for name in ("travel_time", "arrival_time", "diagnostics", "truncated", "departed"):
        np.testing.assert_array_equal(getattr(res, name), getattr(ref, name), err_msg=name)
    assert res.link_states.keys() == ref.link_states.keys()
    for lid, state in res.link_states.items():
        for name in ("n_up", "n_dn", "inflow", "outflow", "paths", "composition",
                     "entered"):
            np.testing.assert_array_equal(getattr(state, name),
                                          getattr(ref.link_states[lid], name),
                                          err_msg=f"link {lid} {name}")
    assert res.origin_states.keys() == ref.origin_states.keys()
    for o, state in res.origin_states.items():
        for name in ("queue_veh", "cum_departures", "cum_served"):
            np.testing.assert_array_equal(getattr(state, name),
                                          getattr(ref.origin_states[o], name),
                                          err_msg=f"origin {o} {name}")


def test_origin_queue_rounding_residue_settles(monkeypatch):
    # 0.8 veh/s for 100 s onto a 0.5 veh/s link: the Forward-Euler update
    # drains the origin queue to a residue of a few 1e-15 veh. It carries a
    # label, but its rate q/dt is at or below the 1e-12 veh/s demand
    # threshold, so it is never served. The loading stops stepping soon
    # after the last trip has left, and fills the rest of the horizon with
    # exactly what stepping every step would have written.
    net = single_link_network(1200.0, 12.0, 0.5)
    grid = TimeGrid(0.0, 1500.0, 5.0)
    h = path_matrix(net, grid, {"p1": 0.8}, until_s=100.0)
    steps = 0

    def counted(*args):
        nonlocal steps
        steps += 1
        return mix_composition(*args)

    monkeypatch.setattr(dnl, "mix_composition", counted)
    res = run_dnl(net, h, grid)
    queue = res.origin_states["a"].queue_veh
    assert queue.max() > 10.0
    assert 0.0 < queue[-1] <= 1e-12 * grid.dt_s  # the residue stays queued
    k_last = np.flatnonzero(h.any(axis=0))[-1]
    lag = max(l.free_flow_time_s for l in net.links.values()) / grid.dt_s
    assert steps < k_last + 2 * lag + 10 < grid.n_steps

    monkeypatch.setattr(_Loader, "_drained", lambda self, k: False)
    steps = 0
    full = run_dnl(net, h, grid)
    assert steps == grid.n_steps
    assert_results_equal(res, full)


def test_settle_refuses_while_an_origin_may_still_send():
    # links empty and no queue yet, but departures to come: not settled
    net = single_link_network()
    grid = TimeGrid(0.0, 600.0, 10.0)
    h = path_matrix(net, grid, {"p1": 0.4})
    h[:, :10] = 0.0
    loader = _Loader(net, h, grid)
    assert loader._drained(5) and not loader._settle(5)
    # and a queue whose rate is above 1e-12 veh/s will be served
    loader = _Loader(net, np.zeros_like(h), grid)
    loader.queue[:, 5] = 2e-12 * grid.dt_s
    assert not loader._drained(5) and not loader._settle(5)
    loader.queue[:, 5] = 0.5e-12 * grid.dt_s
    assert loader._drained(5) and loader._settle(5)
    assert np.all(loader.queue[:, 5:] == 0.5e-12 * grid.dt_s)


def _shifted(h, steps, scale):
    """The departures of h, `steps` steps later and scaled."""
    out = np.zeros_like(h)
    out[:, steps:] = scale * h[:, :h.shape[1] - steps]
    return out


@pytest.mark.parametrize("case", [_braess_dt7, _random_dt5])
def test_reused_layout_leaks_nothing_between_loadings(case):
    net, grid, h1 = case()
    h2 = _shifted(h1, 20, 1.7)
    layout = _Layout(net, grid)
    first = run_dnl(net, h1, grid, layout=layout)
    second = run_dnl(net, h2, grid, layout=layout)
    # the first result shares no array with the loading after it
    assert_results_equal(first, run_dnl(net, h1, grid))
    assert_results_equal(second, run_dnl(net, h2, grid))


def test_layout_of_another_network_or_grid_rejected():
    net, grid, h = _braess_dt7()
    with pytest.raises(DNLError, match="another network or time grid"):
        run_dnl(net, h, grid, layout=_Layout(braess_network(), grid))
    with pytest.raises(DNLError, match="another network or time grid"):
        run_dnl(net, h, grid, layout=_Layout(net, TimeGrid(0.0, 2400.0, 5.0)))


def test_zero_departures_give_empty_curves_and_free_flow_times():
    net = braess_network()
    grid = TimeGrid(0.0, 2400.0, 5.0)
    res = run_dnl(net, np.zeros((len(net.paths), grid.n_steps)), grid)
    for state in res.link_states.values():
        assert not state.n_up.any() and not state.n_dn.any()
        assert np.all(state.entered == -1)
    for o in res.origin_states.values():
        assert not (o.queue_veh.any() or o.cum_departures.any()
                    or o.cum_served.any())
    assert not res.diagnostics.any()
    dep = grid.times()[: grid.n_steps]
    for p, pid in enumerate(res.path_order):
        ff = sum(net.links[l].free_flow_time_s for l in net.paths[pid].links)
        done = dep + ff <= grid.tf_s
        np.testing.assert_allclose(res.travel_time[p, done], ff, rtol=1e-12)
        assert np.array_equal(res.truncated[p], ~done)


def test_origin_without_paths_or_entering_links_is_no_junction_input():
    # origin 1 has no incoming link, and with only origin 2's paths no path
    # leaves it: no merge priority is formed for it
    nodes, links, paths, ods = braess_components(
        demands={("2", "3"): 150.0, ("2", "4"): 250.0})
    net = validate_network(nodes, links, [p for p in paths if p.od[0] == "2"], ods)
    grid = TimeGrid(0.0, 2400.0, 30.0)
    res = run_dnl(net, init_departures(net, grid, (0.0, 1200.0)), grid)
    assert list(res.origin_states) == ["2"]
    served = res.origin_states["2"].cum_served[-1]
    assert served == pytest.approx(400.0, rel=1e-9)
    assert not res.link_states["1"].n_up.any()


def test_origin_that_no_path_leaves_is_no_junction_input():
    # origin 2 has an entering link, and with only origin 1's paths no path
    # leaves it: the link takes its whole merge share
    nodes, links, paths, ods = braess_components(
        demands={("1", "3"): 250.0, ("1", "4"): 350.0})
    net = validate_network(nodes, links, [p for p in paths if p.od[0] == "1"], ods)
    grid = TimeGrid(0.0, 2400.0, 30.0)
    res = run_dnl(net, init_departures(net, grid, (0.0, 1200.0)), grid)
    assert list(res.origin_states) == ["1"]
    served = res.origin_states["1"].cum_served[-1]
    assert served == pytest.approx(600.0, rel=1e-9)
    assert not res.truncated_trips.any()


def test_departures_below_the_demand_threshold_do_not_block_their_origin():
    # 300 cells at 1e-12 veh/s leave 1.5e-9 veh queued, more than the count
    # tolerance, before 50 veh depart at 0.5 veh/s: every vehicle carries a
    # path label, so the queue is served and drains, and every trip ends
    net = single_link_network()
    grid = TimeGrid(0.0, 2000.0, 5.0)
    h = np.zeros((1, grid.n_steps))
    h[0, :300] = 1e-12
    h[0, 300:320] = 0.5
    res = run_dnl(net, h, grid)
    assert not res.truncated_trips.any()
    assert res.origin_states["a"].queue_veh[-1] == 0.0
    assert res.link_states["1"].n_dn[-1] == pytest.approx(50.0, rel=1e-9)


def test_nan_junction_flows_stop_the_loading(monkeypatch):
    # NaN fails every loop check instead of slipping through a comparison
    def nan_flows(movements, demands, supplies, alpha):
        f_out, f_in = resolve_network(movements, demands, supplies, alpha)
        return f_out * np.nan, f_in * np.nan

    net, grid, h = _braess_dt7()
    monkeypatch.setattr(junctions, "resolve_unchecked", nan_flows)
    with pytest.raises(DNLError, match="conservation residual nan"):
        run_dnl(net, h, grid)


def test_split_rows_not_summing_to_one_stop_the_loading():
    # halve every origin's entry shares: the loader's split rows then sum to
    # 0.5 at the first step with departures
    net, grid, h = _braess_dt7()
    loader = _Loader(net, h, grid)
    loader.shares[:, loader.layout.n_link_slots:] *= 0.5
    with pytest.raises(JunctionError, match=r"distribution row \d+ sums to 0\.500000000"):
        loader.run()


# -- checks of a loading: faults injected at one step ------------------------------
#
# The loader checks its junction inputs, junction conservation, the
# composition mass and the vehicle balance once, after its steps, and before
# re-raising any error of a step. Each fault below is injected at one step
# (_braess_dt7 steps from step 0, with one origin demand, one junction
# resolution, one composition and one origin-queue update per step), and
# each must be reported with its own message and step, as a check inside
# every step would report it.

FAULT_STEP = 30


def _inject_flows(monkeypatch, faults, kernel=resolve_network):
    """Have the loader's junction kernel, replaced by `kernel`, apply
    faults[k](f_out, f_in) at step k; return the list of the steps resolved.
    The default, resolve_network, also raises on bad junction inputs."""
    steps = []

    def faulty(movements, demands, supplies, alpha):
        k = len(steps)
        steps.append(k)
        f_out, f_in = kernel(movements, demands, supplies, alpha)
        if k in faults:
            faults[k](f_out, f_in)
        return f_out, f_in

    monkeypatch.setattr(junctions, "resolve_unchecked", faulty)
    return steps


def _inject_queue(monkeypatch, step, extra_veh):
    """Add extra_veh to every origin queue that step `step` leaves."""
    calls = []

    def faulty(queue_veh, departure_rate_vps, served_rate_vps, dt_s):
        calls.append(None)
        q = step_origin_queue(queue_veh, departure_rate_vps, served_rate_vps, dt_s)
        return q + extra_veh if len(calls) - 1 == step else q

    monkeypatch.setattr(dnl, "step_origin_queue", faulty)


def _inject_demand(monkeypatch, step, value):
    """Have every origin demand `value` veh/s at step `step`."""
    calls = []

    def faulty(queue_veh, departure_rate_vps, big_m):
        calls.append(None)
        d = origin_demand(queue_veh, departure_rate_vps, big_m)
        return np.full(d.shape, value) if len(calls) - 1 == step else d

    monkeypatch.setattr(dnl, "origin_demand", faulty)


def _inject_mass(monkeypatch, step, factor):
    """Scale the carried totals of every link entry composition at step
    `step` by `factor`, leaving the shares as they are."""
    calls = []

    def faulty(mix, slot_link, inflow_vps):
        calls.append(None)
        shares, fed, total = mix_composition(mix, slot_link, inflow_vps)
        return shares, fed, total * factor if len(calls) - 1 == step else total

    monkeypatch.setattr(dnl, "mix_composition", faulty)


def _sink_gains(rate_vps):
    """A fault that adds rate_vps to the last sink's inflow: its junction
    then passes on more than it takes in, and no composition sees it."""
    def fault(f_out, f_in):
        f_in[-1] += rate_vps
    return fault


def _stop(f_out, f_in):
    raise JunctionError("injected fault")


def test_conservation_breach_at_one_step_is_reported_at_that_step(monkeypatch):
    net, grid, h = _braess_dt7()
    clean = _inject_flows(monkeypatch, {})
    run_dnl(net, h, grid)
    # 1e-6 veh/s breaks conservation (1e-9 relative) but not the balance
    steps = _inject_flows(monkeypatch, {FAULT_STEP: _sink_gains(1e-6)})
    with pytest.raises(DNLError, match=rf"conservation residual 1\.000e-06 at step {FAULT_STEP}$"):
        run_dnl(net, h, grid)
    assert len(clean) > FAULT_STEP + 1
    assert len(steps) == len(clean)  # every later step ran


def test_conservation_breach_reported_before_a_later_step_fails(monkeypatch):
    net, grid, h = _braess_dt7()
    steps = _inject_flows(monkeypatch, {FAULT_STEP: _sink_gains(1e-6),
                                        FAULT_STEP + 1: _stop})
    with pytest.raises(DNLError, match=rf"conservation residual .* at step {FAULT_STEP}$"):
        run_dnl(net, h, grid)
    assert len(steps) == FAULT_STEP + 2


def test_error_of_a_step_raised_when_checks_pass(monkeypatch):
    net, grid, h = _braess_dt7()
    _inject_flows(monkeypatch, {FAULT_STEP: _stop})
    with pytest.raises(JunctionError, match="injected fault"):
        run_dnl(net, h, grid)


def test_balance_breach_reported_at_the_knot_after_its_step(monkeypatch):
    net, grid, h = _braess_dt7()
    _inject_queue(monkeypatch, FAULT_STEP, 1.0)
    with pytest.raises(DNLError, match=rf"vehicle balance residual .* at step {FAULT_STEP + 1}$"):
        run_dnl(net, h, grid)


@pytest.mark.parametrize("queue_step, expected", [
    (FAULT_STEP, f"conservation residual .* at step {FAULT_STEP}$"),
    (FAULT_STEP - 1, f"vehicle balance residual .* at step {FAULT_STEP}$"),
], ids=["conservation-then-balance-at-its-end-knot", "balance-at-the-step-before"])
def test_first_breach_in_stepping_order_is_reported(monkeypatch, queue_step, expected):
    # a step's conservation comes before the balance at its end knot, and
    # after the balance at the knot it starts from; one more vehicle queued
    # by step k breaks the balance at knot k + 1 (test above)
    net, grid, h = _braess_dt7()
    _inject_flows(monkeypatch, {FAULT_STEP: _sink_gains(1e-6)})
    _inject_queue(monkeypatch, queue_step, 1.0)
    with pytest.raises(DNLError, match=expected):
        run_dnl(net, h, grid)


@pytest.mark.parametrize("bad", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("flow_step, queue_step, error, expected", [
    (FAULT_STEP - 1, None, DNLError, f"conservation residual .* at step {FAULT_STEP - 1}$"),
    (FAULT_STEP, None, JunctionError, "junction demands/supplies/priorities must be >= 0"),
    (None, FAULT_STEP - 1, DNLError, f"vehicle balance residual .* at step {FAULT_STEP}$"),
], ids=["conservation-of-the-step-before", "inputs-then-conservation",
        "balance-at-its-start-knot"])
def test_junction_inputs_of_a_step_are_checked_first_in_it(
        monkeypatch, bad, flow_step, queue_step, error, expected):
    # a bad origin demand at step k reaches the junction kernel, which
    # neither raises nor warns, and the steps go on; the check reports it
    # after the steps before k and before step k's conservation
    net, grid, h = _braess_dt7()
    _inject_demand(monkeypatch, FAULT_STEP, bad)
    steps = _inject_flows(monkeypatch,
                          {} if flow_step is None else {flow_step: _sink_gains(1e-6)},
                          kernel=resolve_unchecked)
    if queue_step is not None:
        _inject_queue(monkeypatch, queue_step, 1.0)
    with pytest.raises(error, match=expected):
        run_dnl(net, h, grid)
    assert len(steps) > FAULT_STEP + 1


@pytest.mark.parametrize("flow_step, queue_step, expected", [
    (FAULT_STEP, None, f"conservation residual .* at step {FAULT_STEP}$"),
    (FAULT_STEP + 1, None, "composition mass .* does not match inflow"),
    (None, FAULT_STEP, "composition mass .* does not match inflow"),
], ids=["conservation-then-composition", "composition-then-next-conservation",
        "composition-then-balance-at-its-end-knot"])
def test_composition_mass_of_a_step_is_checked_after_its_conservation(
        monkeypatch, flow_step, queue_step, expected):
    net, grid, h = _braess_dt7()
    _inject_mass(monkeypatch, FAULT_STEP, 1.01)
    _inject_flows(monkeypatch, {} if flow_step is None else {flow_step: _sink_gains(1e-6)})
    if queue_step is not None:
        _inject_queue(monkeypatch, queue_step, 1.0)
    with pytest.raises(DNLError, match=expected):
        run_dnl(net, h, grid)


# -- input validation and warnings -----------------------------------------------


def test_wrong_departure_shape_rejected():
    net = single_link_network()
    grid = TimeGrid(0.0, 600.0, 10.0)
    with pytest.raises(DNLError, match="shape"):
        run_dnl(net, np.zeros((2, grid.n_steps)), grid)


def test_negative_departures_rejected():
    net = single_link_network()
    grid = TimeGrid(0.0, 600.0, 10.0)
    for bad in (-1.0, math.nan, math.inf):
        h = np.zeros((1, grid.n_steps))
        h[0, 0] = bad
        with pytest.raises(DNLError, match="nonnegative"):
            run_dnl(net, h, grid)


def test_overflowing_cumulative_departures_rejected():
    net = single_link_network()
    grid = TimeGrid(0.0, 600.0, 10.0)
    h = np.zeros((1, grid.n_steps))
    h[0, 5] = 1e308  # finite, but 1e308 * dt is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(DNLError, match="cumulative departures at origin a"):
            run_dnl(net, h, grid)


@pytest.mark.parametrize("v, w, kind", [(1e308, 4.0, "free-flow"),
                                        (12.0, 1e308, "backward-wave")])
def test_lag_lost_in_grid_times_rejected(v, w, kind):
    # 1200 m at 1e308 m/s is a lag of 1.2e-305 s: t - lag == t at every knot
    # but t = 0
    net = validate_network([Node("a", origin=True), Node("b", destination=True)],
                           [Link.create("1", "a", "b", 1200.0, v, 0.8, w)],
                           [Path("p1", ("a", "b"), ("1",))],
                           [ODPair("a", "b", 60.0, 600.0)])
    grid = TimeGrid(0.0, 600.0, 10.0)
    with pytest.raises(DNLError, match=f"link 1: {kind} time .* grid times"):
        run_dnl(net, np.full((1, grid.n_steps), 0.1), grid)


def test_chained_exit_times_give_travel_time():
    # capacity 0.5 veh/s below the 0.8 veh/s departures: an origin queue forms
    net = single_link_network(1200.0, 12.0, 0.5)
    grid = TimeGrid(0.0, 1500.0, 5.0)
    h = path_matrix(net, grid, {"p1": 0.8}, until_s=400.0)
    res = run_dnl(net, h, grid)
    origin = next(iter(res.origin_states.values()))
    assert origin.queue_veh.max() > 10.0
    times = grid.times()
    dep = times[: grid.n_steps]
    entered = _exit_times(times, origin.cum_departures, origin.cum_served,
                          dep, 0.0, grid.tf_s)
    state = next(iter(res.link_states.values()))
    arrived = np.array([exit_time(state, grid, t) for t in entered])
    np.testing.assert_array_equal(arrived - dep, res.travel_time[0])
    assert np.nanmax(res.travel_time[0]) > 150.0  # the queue delay counts


def reference_travel_times(loader):
    """The per-path chain: each path's elements chained from its departure
    times, origin queue first, sharing nothing with other paths."""
    lay = loader.layout
    N = loader.grid.n_steps
    dep_times = lay.times[:N]
    tt = np.full((len(lay.path_ids), N), np.nan)
    for p, elems in enumerate(lay.path_elems):
        a = dep_times
        for e in elems:
            a = _exit_times(lay.times, loader.up[e], loader.dn[e], a,
                            lay.min_delay[e], loader.grid.tf_s)
        tt[p] = a - dep_times
    return tt


def _grid_k4():
    # the criterion-11 grid with 4 paths per O-D, congested
    net = grid_network(k_paths=4)
    grid = TimeGrid(0.0, 4000.0, 20.0)
    return net, grid, init_departures(net, grid, window=(0.0, 2000.0))


def _prefix_network(order=("q1", "q2", "q3")):
    # q1 = [l1] is a strict prefix of q2 = [l1, l2]; q3 leaves the same
    # origin by l3. l2 is a bottleneck and the horizon cuts late trips off.
    nodes = [Node("a", origin=True), Node("b", destination=True),
             Node("c", destination=True)]
    links = [Link.create("l1", "a", "b", 1200.0, 12.0, 0.5),
             Link.create("l2", "b", "c", 1200.0, 12.0, 0.3),
             Link.create("l3", "a", "c", 2400.0, 12.0, 0.8)]
    paths = {"q1": Path("q1", ("a", "b"), ("l1",)),
             "q2": Path("q2", ("a", "c"), ("l1", "l2")),
             "q3": Path("q3", ("a", "c"), ("l3",))}
    net = validate_network(nodes, links, [paths[p] for p in order],
                           [ODPair("a", "b", 200.0, 600.0),
                            ODPair("a", "c", 200.0, 600.0)])
    grid = TimeGrid(0.0, 900.0, 5.0)
    h = path_matrix(net, grid, {"q1": 0.3, "q2": 0.3, "q3": 0.4}, until_s=500.0)
    return net, grid, h


def _prefix_network_shuffled():
    return _prefix_network(("q3", "q2", "q1"))


@pytest.mark.parametrize("case", [_grid_k4, _random_dt5, _prefix_network,
                                  _prefix_network_shuffled])
def test_shared_prefix_extraction_matches_per_path_chain(case):
    net, grid, h = case()
    loader = _Loader(net, h, grid)
    res = loader.run()
    # array_equal, NaN pattern included
    np.testing.assert_array_equal(res.travel_time, reference_travel_times(loader))
    assert res.truncated.any() and not res.truncated.all()


def _grid_k4_random_rates():
    # the grid-replay departures with random magnitudes, so that the order
    # in which a cell's rates are summed shows in the shares
    net, grid, h = _grid_k4()
    rng = np.random.default_rng(3)
    h = h * rng.uniform(0.0, 1.0, h.shape) * 10.0 ** rng.integers(-6, 3, h.shape)
    h[:, 40:45] *= 1e-14  # cells at or below 1e-12 veh/s, labelled too
    return net, grid, h


@pytest.mark.parametrize("case", [_grid_k4, _grid_k4_random_rates])
def test_origin_compositions_match_per_cell_shares(case):
    # grid origins send 92 paths each, so numpy pairs the rates of a cell
    # when it sums them
    net, grid, h = case()
    loader = _Loader(net, h, grid)
    nL = len(loader.layout.links)
    for oi, paths in enumerate(loader.layout.slot_paths[nL:]):
        assert len(paths) > 8
        shares = np.zeros((grid.n_steps, len(paths)))
        entered = np.full(grid.n_steps, -1)
        for j in range(grid.n_steps):
            rates = h[paths, j]
            total = rates.sum()
            if total > 0:
                shares[j] = rates / total
                entered[j] = j
        np.testing.assert_array_equal(loader.comp[nL + oi], shares)
        np.testing.assert_array_equal(loader.entered[nL + oi],
                                      np.maximum.accumulate(entered))


def test_exit_times_chained_once_per_depth_and_element(monkeypatch):
    net, grid, h = _grid_k4()
    calls = 0
    rows = 0

    def counted(times, n_in, n_out, a, *args):
        nonlocal calls, rows
        calls += 1
        rows += len(a)
        return _exit_times(times, n_in, n_out, a, *args)

    monkeypatch.setattr(dnl, "_exit_times", counted)
    loader = _Loader(net, h, grid)
    loader.run()
    path_elems = loader.layout.path_elems
    groups = {(i, e) for elems in path_elems for i, e in enumerate(elems)}
    prefixes = {tuple(elems[:i]) for elems in path_elems
                for i in range(1, len(elems) + 1)}
    # one call per (depth, element), over one row per distinct prefix
    assert calls == len(groups) == 441
    assert rows == len(prefixes) == 2256 < sum(map(len, path_elems))


def test_queued_origin_serves_paths_first_in_first_out():
    # one origin, two parallel 0.5 veh/s links: p1 departs in a burst at
    # 1 veh/s and queues; p2 then departs onto its empty link but waits
    # behind p1's queued vehicles at the origin
    net = parallel_network(2, 1200.0, 12.0, 0.5)
    grid = TimeGrid(0.0, 1500.0, 5.0)
    times = grid.times()
    dep = times[: grid.n_steps]
    h = np.zeros((2, grid.n_steps))
    h[0, dep < 200.0] = 1.0
    h[1, (dep >= 200.0) & (dep < 400.0)] = 0.2
    res = run_dnl(net, h, grid)
    origin = res.origin_states["a"]
    left = _exit_times(times, origin.cum_departures, origin.cum_served,
                       dep, 0.0, grid.tf_s)
    last_a, first_b = np.flatnonzero(h[0])[-1], np.flatnonzero(h[1])[0]
    # the 200 queued p1 vehicles are served at 0.5 veh/s until t = 400 s
    assert left[first_b] >= left[last_a]
    assert left[first_b] == pytest.approx(400.0)
    assert res.link_states["2"].n_up[times <= 400.0].max() == 0.0
    # p2's first trip: 200 s at the origin, then 100 s free flow
    assert res.travel_time[1, first_b] == pytest.approx(300.0)


def test_truncation_flagged_near_horizon():
    net = single_link_network()
    grid = TimeGrid(0.0, 150.0, 10.0)  # shorter than one full trip for late cells
    h = path_matrix(net, grid, {"p1": 0.1})
    res = run_dnl(net, h, grid)
    assert res.truncated.any()
    assert np.isnan(res.travel_time[res.truncated]).all()
    assert not res.truncated[0, 0]
    # every cell departs here; an empty cell would not count as a trip
    np.testing.assert_array_equal(res.departed, h > 0)
    np.testing.assert_array_equal(res.truncated_trips, res.truncated)


# -- the checks of a loading against their per-step form ---------------------------


def reference_balance(loader):
    """The vehicle balance knot by knot, as a check inside every step makes
    it: departed vehicles against those stored on links, queued at origins
    and exited into sinks, relative to max(1, departed). Over steps that were
    not stepped, the flows are 0 and the curves frozen, so the value holds."""
    lay = loader.layout
    nL = len(lay.links)
    balance = np.zeros(loader.grid.n_steps + 1)
    exited = 0.0
    for k in range(loader.grid.n_steps):
        exited = exited + loader.grid.dt_s * loader.f_in[k, nL:].sum()
        departed = loader.departed_veh[k + 1]
        stored = (loader.n_up[:, k + 1] - loader.n_dn[:, k + 1]).sum()
        queued = loader.queue[:, k + 1].sum()
        balance[k + 1] = abs(departed - (stored + queued + exited)) / max(1.0, departed)
    return balance


def reference_conservation(loader, k):
    """Per junction, whether step k passes on what its inputs send out, to
    1e-9 (NaN fails), and the residual."""
    mv = loader.layout.moves
    out = np.bincount(mv.in_junction, loader.f_out[k], minlength=mv.n_junctions)
    residual = np.abs(out - np.bincount(mv.out_junction, loader.f_in[k],
                                        minlength=mv.n_junctions))
    return residual <= 1e-9 * np.maximum(1.0, out), residual


def _criterion_10_final():
    # the final loading of the criterion-10 solve, from its pinned departures
    demands = {("1", "3"): 25.0, ("2", "3"): 15.0, ("1", "4"): 35.0, ("2", "4"): 25.0}
    net = braess_network(demands=demands, target=1200.0)
    grid = TimeGrid(0.0, 2400.0, 5.0)
    pinned = np.load(os.path.join(os.path.dirname(__file__), "data", "braess_c10_seed0.npz"))
    return net, grid, pinned["h_final"]


def step_inputs(loader, k):
    """The junction inputs recorded at step k: demands, supplies, fractions."""
    lay = loader.layout
    nE = len(lay.links) + len(lay.origin_ids)
    return (loader.demand_supply[k, 0, :nE], loader.demand_supply[k, 1, :lay.n_outputs],
            loader.alpha[k])


def reference_composition(loader, k):
    """The composition mass check of step k as propagate_composition makes
    it: the carried totals, one slot per link, against the links' inflow."""
    nL = len(loader.layout.links)
    propagate_composition(loader.carried[k], np.arange(nL), loader.f_in[k, :nL])


@pytest.mark.parametrize("case", [_criterion_10_final, _grid_k4])
def test_loading_checks_match_per_step_oracles(case):
    net, grid, h = case()
    loader = _Loader(net, h, grid)
    res = loader.run()
    lay = loader.layout
    np.testing.assert_array_equal(res.diagnostics, reference_balance(loader))
    stepped = np.flatnonzero(loader.f_out.any(axis=1))
    assert stepped.size > 20
    for k in range(grid.n_steps):
        assert reference_conservation(loader, k)[0].all()
        # each step's recorded junction inputs pass the per-step input check
        # of resolve_network and give the step's recorded flows; its carried
        # totals pass the per-step composition check
        f_out, f_in = resolve_network(lay.moves, *step_inputs(loader, k))
        np.testing.assert_array_equal(f_out, loader.f_out[k])
        np.testing.assert_array_equal(f_in, loader.f_in[k])
        reference_composition(loader, k)
    assert np.isinf(loader.demand_supply[stepped, 1, len(lay.links):lay.n_outputs]).all()
    # the flow tables are the link states' inflow and outflow
    for li, state in enumerate(res.link_states.values()):
        assert np.shares_memory(state.inflow, loader.f_in)
        np.testing.assert_array_equal(state.inflow, loader.f_in[:, li])
        np.testing.assert_array_equal(state.outflow, loader.f_out[:, li])

    # a breach written into the recorded flows is found at the junction and
    # step where the per-step oracle finds it first
    k0, k_end = stepped[0], stepped[-1] + 1
    rng = np.random.default_rng(0)
    for k in rng.choice(stepped, 5, replace=False):
        f_in = loader.f_in[k].copy()
        loader.f_in[k, rng.integers(loader.f_in.shape[1])] += 1e-3
        passes, residual = reference_conservation(loader, k)
        j = np.flatnonzero(~passes)[0]
        message = (f"junction {loader.layout.node_ids[j]} conservation residual "
                   f"{residual[j]:.3e} at step {k}")
        with pytest.raises(DNLError, match=f"^{re.escape(message)}$"):
            loader._check(k0, k_end, k_end)
        loader.f_in[k] = f_in

    # so is a bad junction input (a split row off 1, a negative demand, a NaN
    # supply) or a composition total off its inflow, where the per-step
    # check of resolve_network or propagate_composition finds it
    def bad_split(k):
        D, _, alpha = step_inputs(loader, k)
        i = rng.choice(np.flatnonzero(D > 1e-12))
        alpha[lay.moves.src == i] *= 0.5

    def negative_demand(k):
        step_inputs(loader, k)[0][rng.integers(len(lay.moves.in_junction))] = -1e-3

    def nan_supply(k):
        step_inputs(loader, k)[1][rng.integers(lay.n_outputs)] = math.nan

    for k, fault in zip(rng.choice(stepped, 6, replace=False),
                        [bad_split, negative_demand, nan_supply] * 2):
        demand_supply, alpha = loader.demand_supply[k].copy(), loader.alpha[k].copy()
        fault(k)
        with pytest.raises(JunctionError) as ref:
            resolve_network(lay.moves, *step_inputs(loader, k))
        with pytest.raises(JunctionError, match=f"^{re.escape(str(ref.value))}$"):
            loader._check(k0, k_end, k_end)
        loader.demand_supply[k], loader.alpha[k] = demand_supply, alpha

    fed = stepped[(loader.carried[stepped] > 0).any(axis=1)]
    for k in rng.choice(fed, 5, replace=False):
        carried = loader.carried[k].copy()
        loader.carried[k, rng.choice(np.flatnonzero(carried > 0))] *= 1 + 1e-3
        with pytest.raises(DNLError) as ref:
            reference_composition(loader, k)
        with pytest.raises(DNLError, match=f"^{re.escape(str(ref.value))}$"):
            loader._check(k0, k_end, k_end)
        loader.carried[k] = carried
    loader._check(k0, k_end, k_end)  # every table is restored
