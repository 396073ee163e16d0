"""Generalized-cost tests: schedule penalties and truncation sentinels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaflow import (
    PenaltyParams,
    TimeGrid,
    arrival_penalty,
    effective_delay,
    run_dnl,
    truncation_sentinel,
)
from helpers import path_matrix, single_link_network


PARAMS = PenaltyParams()  # early 0.5, late 2.0


class TestArrivalPenalty:
    def test_on_target_is_free(self):
        assert arrival_penalty(600.0, 600.0, PARAMS) == 0.0

    def test_early_side(self):
        assert arrival_penalty(500.0, 600.0, PARAMS) == pytest.approx(50.0)

    def test_late_side(self):
        assert arrival_penalty(630.0, 600.0, PARAMS) == pytest.approx(60.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PenaltyParams(early_weight=-0.1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 2000), st.floats(0, 2000))
    def test_nonnegative_everywhere(self, arrival, target):
        assert arrival_penalty(arrival, target, PARAMS) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 2000), st.floats(0, 2000), st.floats(0, 2000))
    def test_convex_in_arrival_time(self, a, b, target):
        mid = arrival_penalty(0.5 * (a + b), target, PARAMS)
        avg = 0.5 * (arrival_penalty(a, target, PARAMS)
                     + arrival_penalty(b, target, PARAMS))
        assert mid <= avg + 1e-9

    def test_continuous_at_target(self):
        eps = 1e-7
        lo = arrival_penalty(600.0 - eps, 600.0, PARAMS)
        hi = arrival_penalty(600.0 + eps, 600.0, PARAMS)
        assert lo == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(0.0, abs=1e-6)


def load(target=600.0):
    # free-flow trip of 100 s, target arrival at 600 s by default
    net = single_link_network(1200.0, 12.0, 0.8, target=target)
    grid = TimeGrid(0.0, 900.0, 5.0)
    h = path_matrix(net, grid, {"p1": 0.2}, until_s=700.0)
    return net, grid, run_dnl(net, h, grid)


@pytest.fixture(scope="module")
def loaded():
    return load()


def assert_sentinel_dominates(net, res, params):
    psi = effective_delay(res, net, params)
    trunc = res.truncated[0]
    assert trunc.any()
    completed_max = psi[0, ~trunc].max()
    assert psi[0, trunc].min() > completed_max
    assert np.all(np.isfinite(psi))


class TestEffectiveDelay:
    def test_travel_time_plus_penalty(self, loaded):
        net, grid, res = loaded
        psi = effective_delay(res, net, PARAMS)
        dep = grid.times()[: grid.n_steps]
        k = int(np.where(dep == 300.0)[0][0])  # arrives 400, 200 s early
        assert psi[0, k] == pytest.approx(100.0 + 0.5 * 200.0)
        k = int(np.where(dep == 600.0)[0][0])  # arrives 700, 100 s late
        assert psi[0, k] == pytest.approx(100.0 + 2.0 * 100.0)
        k = int(np.where(dep == 500.0)[0][0])  # arrives exactly on target
        assert psi[0, k] == pytest.approx(100.0)

    def test_minimum_at_on_time_departure(self, loaded):
        net, grid, res = loaded
        psi = effective_delay(res, net, PARAMS)
        dep = grid.times()[: grid.n_steps]
        finite = ~res.truncated[0]
        best = dep[finite][np.argmin(psi[0, finite])]
        assert best == pytest.approx(500.0)  # 500 + 100 = target

    def test_truncated_cells_get_dominating_sentinel(self, loaded):
        net, grid, res = loaded
        assert_sentinel_dominates(net, res, PARAMS)

    # Off the default weights and target the sentinel still dominates: with
    # both weights 0 a completed trip costs up to its travel time (100 s),
    # and with a target past the horizon its early penalty dominates its
    # cost; the sentinel's bound covers both.
    @pytest.mark.parametrize("params, target", [
        (PenaltyParams(0.0, 0.0), 600.0),
        (PARAMS, 5000.0),
    ], ids=["zero-weights", "target-past-horizon"])
    def test_truncated_cells_get_dominating_sentinel_everywhere(self, params, target):
        net, grid, res = load(target)
        assert_sentinel_dominates(net, res, params)

    def test_matches_per_cell_formulas(self, loaded):
        # the array evaluation gives exactly the scalar per-cell costs
        net, grid, res = loaded
        psi = effective_delay(res, net, PARAMS)
        dep = grid.times()[: grid.n_steps]
        for k, t in enumerate(dep):
            tt = res.travel_time[0, k]
            if res.truncated[0, k]:
                want = truncation_sentinel(grid.t0_s, grid.tf_s, t, 600.0, PARAMS)
            else:
                want = tt + arrival_penalty(t + tt, 600.0, PARAMS)
            assert psi[0, k] == want

    def test_sentinel_formula(self):
        # remaining horizon plus the horizon and the larger of the worst
        # early (arrival at t0) and worst late (arrival at tf) penalties
        val = truncation_sentinel(0.0, 900.0, 750.0, 600.0, PARAMS)
        assert val == (900.0 - 750.0) + (900.0 + max(0.5 * 600.0, 2.0 * 300.0))
        val = truncation_sentinel(0.0, 900.0, 750.0, 5000.0, PARAMS)
        assert val == (900.0 - 750.0) + (900.0 + 0.5 * 5000.0)
