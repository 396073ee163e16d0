"""Refinement oracle: loadings settle as the time step halves.

The loading discretises a continuous-time model, so its outputs should stop
moving as dt -> 0, whatever the implementation. Each case loads one network
at dt = 20, 10, 5, 2.5, 1.25 and 0.625 s with the same departures: per-path
rates spread evenly over 0.3-0.9 veh/s times a half-sine pulse over
0-1,200 s, given as cell averages (the exact integral over each cell), on a
2,400 s horizon. Both networks are congested by this demand, and some trips
do not finish within the horizon.
"""

import numpy as np
import pytest

from dtaflow import TimeGrid, run_dnl
from helpers import braess_network, random_network

PULSE_S, HORIZON_S = 1200.0, 2400.0
STEPS_S = (20.0, 10.0, 5.0, 2.5, 1.25, 0.625)
READ_S = 20.0  # outputs are compared on this grid, a knot of every step above

# The largest changes between the two finest loadings were, on Braess,
# 1.25 s of travel time and 0.128 veh of N_dn; on the 10-node random network
# (picked for its run time: the default 50-node one takes three times as
# long), 2.82 s and 0.51 veh. The bounds below allow twice these.
NETWORKS = {"braess": (braess_network, 2.5, 0.26),
            "random": (lambda: random_network(n_nodes=10), 5.7, 1.02)}


def pulse_departures(n_paths, grid):
    rates = np.linspace(0.3, 0.9, n_paths)
    t = np.minimum(grid.times(), PULSE_S)
    integral = -np.cos(np.pi * t / PULSE_S) * PULSE_S / np.pi
    return rates[:, None] * np.diff(integral) / grid.dt_s


@pytest.fixture(scope="module", params=list(NETWORKS))
def study(request):
    """The case's network, bounds, and its loading at each step."""
    make, tt_bound, n_dn_bound = NETWORKS[request.param]
    net = make()
    loadings = {}
    for dt in STEPS_S:
        grid = TimeGrid(0.0, HORIZON_S, dt)
        loadings[dt] = run_dnl(net, pulse_departures(len(net.paths), grid), grid)
    return net, tt_bound, n_dn_bound, loadings


def test_loadings_settle_as_dt_halves(study):
    # the largest change between successive steps, read on the 20 s grid,
    # never grows as dt halves and ends below the case's bound; travel times
    # are compared where the trip finishes at both steps
    _, tt_bound, n_dn_bound, loadings = study
    tt, n_dn = [], []
    for dt, res in loadings.items():
        every = round(READ_S / dt)
        tt.append(res.travel_time[:, ::every])
        n_dn.append(np.array([s.n_dn[::every] for s in res.link_states.values()]))
    for reads, bound in ((tt, tt_bound), (n_dn, n_dn_bound)):
        change = [np.nanmax(np.abs(a - b)) for a, b in zip(reads, reads[1:])]
        assert all(b <= a * (1 + 1e-6) for a, b in zip(change, change[1:])), change
        assert change[-1] <= bound, change


def entered_by_path(state, dt):
    """Per knot, the vehicles of each of the link's paths that entered it."""
    per_step = state.inflow[:, None] * state.composition * dt
    return np.vstack([np.zeros(len(state.paths)), np.cumsum(per_step, axis=0)])


@pytest.mark.xfail(strict=True, reason=(
    "a step's exit flow takes the composition of one entry step, so a link "
    "passes on path shares that differ by O(dt) from the ones it took in"))
@pytest.mark.parametrize("dt", STEPS_S)
def test_links_pass_on_the_path_mass_they_take_in(study, dt):
    # links are first in, first out: the vehicles of a path that leave link
    # l1 for the next link l2 of that path by the horizon are its share of
    # the first N_dn(l1) vehicles that entered l1
    net, _, _, loadings = study
    res = loadings[dt]
    departed = pulse_departures(len(net.paths), res.grid).sum(axis=1) * dt
    worst = 0.0
    for p, pid in enumerate(res.path_order):
        states = [res.link_states[lid] for lid in net.paths[pid].links]
        for s1, s2 in zip(states, states[1:]):
            left = np.interp(s1.n_dn[-1], s1.n_up,
                             entered_by_path(s1, dt)[:, np.searchsorted(s1.paths, p)])
            arrived = entered_by_path(s2, dt)[-1, np.searchsorted(s2.paths, p)]
            worst = max(worst, abs(left - arrived) / departed[p])
    assert worst <= 1e-9, worst
