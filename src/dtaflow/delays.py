"""Effective path delays: travel time plus schedule (early/late) penalty."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dnl import DNLResult
from .network import Network


@dataclass(frozen=True)
class PenaltyParams:
    """Piecewise-linear schedule penalty weights, in cost-seconds per second
    of early/late arrival."""

    early_weight: float = 0.5
    late_weight: float = 2.0

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0
                   for w in (self.early_weight, self.late_weight)):
            raise ValueError("penalty weights must be nonnegative and finite")


def arrival_penalty(arrival_s, target_s, params: PenaltyParams):
    """Cost of arriving off-target: early and late sides weighted separately.
    Works elementwise on arrays."""
    return params.early_weight * np.maximum(0.0, target_s - arrival_s) + \
        params.late_weight * np.maximum(0.0, arrival_s - target_s)


def truncation_sentinel(grid_t0: float, grid_tf: float, dep_t, target_s,
                        params: PenaltyParams):
    """Large finite cost for trips that do not finish within the horizon:
    the time left, tf - t, plus a bound on the cost of any completed trip to
    the same target, the horizon plus the worse of the early penalty of an
    arrival at t0 and the late penalty of one at tf. Works elementwise on
    arrays of departure times and targets."""
    bound = (grid_tf - grid_t0) + np.maximum(
        params.early_weight * np.maximum(0.0, target_s - grid_t0),
        params.late_weight * np.maximum(0.0, grid_tf - target_s))
    return (grid_tf - dep_t) + bound


def effective_delay(result: DNLResult, network: Network,
                    params: PenaltyParams = PenaltyParams()) -> np.ndarray:
    """Generalized cost psi[p, k] (seconds) per path (rows in `network.paths`
    order, which the result must follow) and departure step: travel time
    plus arrival penalty against each O-D pair's target time.

    Horizon-truncated cells receive a finite sentinel cost so downstream
    updates push flow away from them.
    """
    if result.path_order != tuple(network.paths):
        raise ValueError("result rows do not follow the network's path table")
    t_a = np.empty((len(result.path_order), 1))
    for od, rows in network.od_rows:
        t_a[rows] = od.target_arrival_s
    grid = result.grid
    psi = result.travel_time + arrival_penalty(result.arrival_time, t_a, params)
    rows, steps = np.nonzero(result.truncated)
    psi[rows, steps] = truncation_sentinel(grid.t0_s, grid.tf_s, grid.times()[steps],
                                           t_a[rows, 0], params)
    return psi
