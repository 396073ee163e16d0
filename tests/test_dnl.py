"""Loading-engine tests: boundary-rate branches, curve inversions, oracles."""

import math
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
from dtaflow import junctions
from dtaflow.dnl import (
    DNLError,
    LinkState,
    _Loader,
    _exit_times,
    _read,
    exit_time,
    link_demand,
    link_supply,
    origin_demand,
    propagate_composition,
    step_origin_queue,
)
from dtaflow.junctions import resolve_network
from helpers import (
    braess_network,
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
    np.testing.assert_array_equal(_read(times, curves, s), expected)


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
        # two feeders at 0.2 veh/s: one all path 0, one half paths 0 and 1
        mix = 0.2 * np.array([1.0, 0.0]) + 0.2 * np.array([0.5, 0.5])
        assert propagate_composition(mix, 0.4) == pytest.approx([0.75, 0.25])

    def test_no_flow_returns_none(self):
        assert propagate_composition(np.zeros(2), 0.0) is None

    def test_mass_mismatch_raises(self):
        with pytest.raises(DNLError, match="composition mass"):
            propagate_composition(np.array([0.3, 0.0]), 0.4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 5.0),
                          st.integers(0, 9),
                          st.floats(0.01, 1.0)),
                min_size=1, max_size=6))
def test_propagated_fractions_always_normalized(raw):
    # each feeder carries rate r of one path; the mix is over 10 paths
    mix = np.zeros(10)
    for r, pid, _ in raw:
        mix[pid] += r
    total = sum(r for r, _, _ in raw)
    out = propagate_composition(mix, total)
    if total > 1e-12:
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out >= 0)
        assert np.all(out[mix == 0] == 0)


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


def test_nan_junction_flows_stop_the_loading(monkeypatch):
    # NaN fails every loop check instead of slipping through a comparison
    def nan_flows(movements, demands, supplies, alpha):
        f_out, f_in = resolve_network(movements, demands, supplies, alpha)
        return f_out * np.nan, f_in * np.nan

    net, grid, h = _braess_dt7()
    monkeypatch.setattr(junctions, "resolve_network", nan_flows)
    with pytest.raises(DNLError, match="conservation residual nan"):
        run_dnl(net, h, grid)


def test_split_rows_not_summing_to_one_stop_the_loading():
    # halve every origin's entry shares: the loader's split rows then sum to
    # 0.5 at the first step with departures
    net, grid, h = _braess_dt7()
    loader = _Loader(net, h, grid)
    loader.shares[:, loader.n_link_slots:] *= 0.5
    with pytest.raises(JunctionError, match=r"distribution row \d+ sums to 0\.500000000"):
        loader.run()


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
