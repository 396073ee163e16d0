"""Fixed-point iteration for route-and-departure-time user equilibrium.

Each iteration loads the network, evaluates effective delays, and projects
h - alpha * psi back onto the demand-feasible set. The projection decomposes
per O-D pair into a clamp with a scalar dual shift: the exact root of a
monotone piecewise-linear residual, read off its sorted breakpoints.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .delays import PenaltyParams, effective_delay
from .dnl import DNLResult, run_dnl
from .network import Network, TimeGrid

USED_FLOW_FRACTION = 1e-6  # a cell is "used" above this share of its O-D peak


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 1e-4  # step size, veh/s per cost-second
    epsilon: float = 1e-4  # relative-gap termination threshold
    max_iters: int = 100
    br_tolerance: float = 0.0  # indifference band, cost-seconds
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    initial_window_s: Optional[Tuple[float, float]] = None  # default: full horizon

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"step size alpha {self.alpha} must be finite and > 0")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon {self.epsilon} must be finite and > 0")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters {self.max_iters!r} must be an integer >= 1")
        if not (math.isfinite(self.br_tolerance) and self.br_tolerance >= 0):
            raise ValueError(f"br_tolerance {self.br_tolerance} must be finite and >= 0")


@dataclass
class SolveReport:
    converged: bool
    iterations_used: int
    relative_gap_history: List[float]
    od_gaps: Dict[Tuple[str, str], float]
    h_final: np.ndarray
    psi_final: np.ndarray
    path_order: tuple
    dnl_time_s: float
    update_time_s: float
    final_dnl: Optional[DNLResult] = None


def init_departures(network: Network, grid: TimeGrid,
                    window: Optional[Tuple[float, float]] = None) -> np.ndarray:
    """Uniform feasible start: each O-D's demand spread evenly over its paths
    and over the departure window (full horizon by default)."""
    N = grid.n_steps
    path_ids = tuple(network.paths)
    pidx = {p: i for i, p in enumerate(path_ids)}
    h = np.zeros((len(path_ids), N))
    times = grid.times()[:N]
    if window is None:
        mask = np.ones(N, dtype=bool)
    else:
        lo, hi = window
        mask = (times >= lo) & (times < hi)
        if not mask.any():
            raise ValueError("initial departure window contains no grid steps")
    n_active = int(mask.sum())
    for od in network.od_pairs:
        if od.demand_veh == 0:
            continue
        if not od.paths:
            raise ValueError(
                f"O-D ({od.origin}, {od.destination}) has demand but no paths"
            )
        rate = od.demand_veh / (len(od.paths) * n_active * grid.dt_s)
        for pid in od.paths:
            h[pidx[pid], mask] = rate
    return h


def dual_residual(h_block: np.ndarray, psi_block: np.ndarray, x: float,
                  q_veh: float, alpha: float, dt_s: float) -> float:
    """G(x): projected demand at dual shift x minus the target demand.
    Continuous, nondecreasing and piecewise linear in x."""
    z = h_block - alpha * psi_block + x
    return float(np.maximum(z, 0.0).sum() * dt_s - q_veh)


def solve_dual(h_block: np.ndarray, psi_block: np.ndarray, q_veh: float,
               alpha: float, dt_s: float) -> float:
    """Exact root of G from its sorted breakpoints b = alpha*psi - h.

    Past its k lowest breakpoints G(x) = dt*(k*x - their sum) - Q, so the
    root is x_k = (Q/dt + their sum)/k for the largest k with x_k > b_(k)
    (Duchi et al. 2008; Condat 2016).
    """
    if q_veh <= 0:
        return 0.0
    b = np.sort((alpha * psi_block - h_block).ravel())
    x = (q_veh / dt_s + np.cumsum(b)) / np.arange(1, b.size + 1)
    past = np.flatnonzero(x > b)
    # none when Q/dt is below the rounding of the lowest breakpoint
    return float(x[past[-1]] if past.size else x[0])


def _od_blocks(network: Network, path_order: tuple) -> Dict[Tuple[str, str], np.ndarray]:
    pidx = {p: i for i, p in enumerate(path_order)}
    return {
        (od.origin, od.destination): np.array([pidx[p] for p in od.paths], dtype=int)
        for od in network.od_pairs
    }


def fixed_point_update(h: np.ndarray, psi: np.ndarray, network: Network,
                       grid: TimeGrid, config: SolverConfig,
                       path_order: tuple) -> np.ndarray:
    """One projection step h <- [h - alpha*psi + v]_+ per O-D pair.

    With a positive indifference band, cells whose cost sits within the band
    of the O-D minimum keep their current rate and only the remaining cells
    are re-projected onto the leftover demand.
    """
    dt = grid.dt_s
    out = h.copy()
    blocks = _od_blocks(network, path_order)
    for od in network.od_pairs:
        rows = blocks[(od.origin, od.destination)]
        if len(rows) == 0 or od.demand_veh <= 0:
            out[rows] = 0.0
            continue
        hb = h[rows]
        pb = psi[rows]
        eta = config.br_tolerance
        keep = pb <= pb.min() + eta if eta > 0 else np.zeros(pb.shape, bool)
        kept_demand = float(hb[keep].sum() * dt)
        q_rest = od.demand_veh - kept_demand
        upd = out[rows]
        if q_rest <= 1e-12 * od.demand_veh or keep.all():
            # band already carries the whole demand: zero the rest and
            # scale kept cells back onto the constraint
            upd[:] = 0.0
            if kept_demand > 0:
                upd[keep] = hb[keep] * (od.demand_veh / kept_demand)
        else:
            v = solve_dual(hb[~keep], pb[~keep], q_rest, config.alpha, dt)
            upd[:] = np.maximum(hb - config.alpha * pb + v, 0.0)
            upd[keep] = hb[keep]
        out[rows] = upd
    return out


def relative_gap(h_new: np.ndarray, h_old: np.ndarray, dt_s: float) -> float:
    """Squared discrete-L2 distance between iterates, relative to the old.
    Where the plain sums overflow, both are taken in units of max|h|."""
    with np.errstate(over="ignore"):
        num = float(((h_new - h_old) ** 2).sum() * dt_s)
        den = float((h_old ** 2).sum() * dt_s)
    if not (math.isfinite(num) and math.isfinite(den)):
        scale = max(np.abs(h_new).max(), np.abs(h_old).max())
        num = float((((h_new - h_old) / scale) ** 2).sum())
        den = float(((h_old / scale) ** 2).sum())
    if den == 0:
        return 0.0 if num == 0 else float("inf")
    return num / den


def od_gap(h: np.ndarray, psi: np.ndarray, network: Network,
           path_order: tuple) -> Dict[Tuple[str, str], float]:
    """Per O-D spread (max - min) of cost over used departure cells."""
    blocks = _od_blocks(network, path_order)
    gaps: Dict[Tuple[str, str], float] = {}
    for key, rows in blocks.items():
        hb = h[rows]
        peak = hb.max() if hb.size else 0.0
        used = hb > USED_FLOW_FRACTION * peak if peak > 0 else np.zeros_like(hb, bool)
        vals = psi[rows][used]
        gaps[key] = float(vals.max() - vals.min()) if vals.size else 0.0
    return gaps


def solve_due(network: Network, grid: TimeGrid, config: SolverConfig,
              h0: Optional[np.ndarray] = None) -> SolveReport:
    """Iterate loading -> delays -> projection until the relative gap falls
    below epsilon or the iteration cap is reached."""
    path_order = tuple(network.paths)
    if h0 is None:
        h = init_departures(network, grid, config.initial_window_s)
    else:
        h = np.asarray(h0, dtype=float).copy()

    gaps_hist: List[float] = []
    dnl_time = 0.0
    upd_time = 0.0
    converged = False
    for it in range(config.max_iters):
        t0 = time.perf_counter()
        result = run_dnl(network, h, grid)
        psi = effective_delay(result, network, config.penalty)
        dnl_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        h_new = fixed_point_update(h, psi, network, grid, config, path_order)
        upd_time += time.perf_counter() - t0

        eps_k = relative_gap(h_new, h, grid.dt_s)
        gaps_hist.append(eps_k)
        h = h_new
        if eps_k <= config.epsilon:
            converged = True
            break

    # one extra loading to report delays and gaps consistent with h_final
    t0 = time.perf_counter()
    result = run_dnl(network, h, grid)
    psi_final = effective_delay(result, network, config.penalty)
    dnl_time += time.perf_counter() - t0
    gaps = od_gap(h, psi_final, network, path_order)

    return SolveReport(
        converged=converged,
        iterations_used=len(gaps_hist),
        relative_gap_history=gaps_hist,
        od_gaps=gaps,
        h_final=h,
        psi_final=psi_final,
        path_order=path_order,
        dnl_time_s=dnl_time,
        update_time_s=upd_time,
        final_dnl=result,
    )
