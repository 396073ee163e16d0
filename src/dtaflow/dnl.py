"""Time-stepping network loading engine.

Link dynamics are tracked purely through cumulative boundary counts
(entering N_up, exiting N_dn). Each origin is a point queue whose entry
and exit curves are the cumulative departures and service; it feeds its
node's junction like one more incoming link. Each step is one pass over
the whole network: demands and supplies come from lagged lookups on the
link curves (read positions tabulated once per loading), the flows of
every junction from one call of junctions.resolve_network, and path labels
from FIFO compositions at every element's exit, mixed into link entry
shares by one call of propagate_composition. Path travel times are
chained horizontal differences between the curves (origin queue first,
then links in path order). Paths that share a prefix of elements share
its exit times, so each distinct prefix is chained once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import junctions
from .network import SOURCE_KEY, Link, Network, TimeGrid

COUNT_TOL = 1e-9  # veh; equality tolerance on cumulative counts
_FLOW_EPS = 1e-12  # veh/s; below this a rate is treated as "no flow to label"


class DNLError(RuntimeError):
    """Raised when the loading run detects an internal inconsistency."""


Composition = Tuple[np.ndarray, np.ndarray]  # (path indices, fractions)


@dataclass
class LinkState:
    """Cumulative-count trace of one link over the grid.

    n_up/n_dn live on the N+1 grid knots; inflow/outflow are per step
    (length N). `paths` lists, in ascending order, the paths that use the
    link; composition[k] holds their shares in the vehicles entering in step
    k (all zero when the step had no labelled inflow), and entered[k] is the
    latest step <= k that has an entry composition, -1 if none. The arrays
    are views of the loader's tables.
    """

    link: Link
    n_up: np.ndarray
    n_dn: np.ndarray
    inflow: np.ndarray
    outflow: np.ndarray
    paths: np.ndarray
    composition: np.ndarray
    entered: np.ndarray

    @property
    def entry_composition(self) -> Iterator[Optional[Composition]]:
        """Per step, the (path indices, fractions) of the nonzero entry
        shares, or None when the step had no labelled inflow."""
        for k, row in enumerate(self.composition):
            yield (self.paths[row > 0], row[row > 0]) if self.entered[k] == k else None


@dataclass
class OriginState:
    """Point-queue trace of one origin over the grid, per knot: the queue, and
    the cumulative departures and service that are its entry and exit curves."""

    node_id: str
    queue_veh: np.ndarray
    cum_departures: np.ndarray
    cum_served: np.ndarray


@dataclass
class DNLResult:
    grid: TimeGrid
    path_order: Tuple[str, ...]
    travel_time: np.ndarray  # (|P|, N), seconds; NaN where trip not completed
    arrival_time: np.ndarray  # (|P|, N)
    link_states: Dict[str, LinkState]
    origin_states: Dict[str, OriginState]
    diagnostics: np.ndarray  # per-knot relative vehicle-balance residual
    truncated: np.ndarray  # bool (|P|, N)
    departed: np.ndarray  # bool (|P|, N): cells with departures

    @property
    def truncated_trips(self) -> np.ndarray:
        """Truncated cells that carry departures: the trips the horizon cuts
        off. An empty truncated cell is no trip."""
        return self.truncated & self.departed


# -- elementary curve operations ----------------------------------------------


def _inverse_cum(times: np.ndarray, curve: np.ndarray, y) -> np.ndarray:
    """Earliest time at which the nondecreasing piecewise-linear `curve`
    reaches `y`; NaN where y exceeds the recorded maximum."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.full(y.shape, np.nan)
    valid = ~np.isnan(y)
    reach = valid & (y <= curve[-1])
    idx = np.searchsorted(curve, y[reach], side="left")
    t = np.empty(idx.shape)
    at_start = idx == 0
    t[at_start] = times[0]
    ii = idx[~at_start]
    c0 = curve[ii - 1]
    c1 = curve[ii]
    yy = y[reach][~at_start]
    t[~at_start] = times[ii - 1] + (yy - c0) / (c1 - c0) * (times[ii] - times[ii - 1])
    out[reach] = t
    return out


def _exit_times(times: np.ndarray, n_in: np.ndarray, n_out: np.ndarray,
                a: np.ndarray, min_delay_s: float, tf_s: float) -> np.ndarray:
    """Exit times of the vehicles entering a FIFO element (link or origin
    queue) at times `a`: n_out(lambda) = n_in(a), never sooner than
    a + min_delay_s. NaN where `a` is NaN or the exit falls past tf_s."""
    y = np.full(a.shape, np.nan)
    ok = ~np.isnan(a)
    y[ok] = np.interp(a[ok], times, n_in)
    lam = _inverse_cum(times, n_out, y - COUNT_TOL)
    lam = np.maximum(lam, a + min_delay_s)
    lam[lam > tf_s + 1e-9] = np.nan
    return lam


def exit_time(state: LinkState, grid: TimeGrid, t: float) -> float:
    """Exit time lambda(t) of the vehicle entering at t: N_dn(lambda) = N_up(t).

    Scalar form of the exit-time map the loader chains into path travel
    times. Returns NaN (unresolved exit) when the vehicle has not left by
    the end of the horizon. Degenerates to the free-flow continuation
    t + L/v on an empty link.
    """
    return float(_exit_times(grid.times(), state.n_up, state.n_dn,
                             np.array([t], dtype=float),
                             state.link.free_flow_time_s, grid.tf_s)[0])


def _read_table(times: np.ndarray, s: np.ndarray, base):
    """Where a read at the times s falls, as (idx, span, off): idx = base + j
    for the knot j at or before s (clamped to the grid), span = t[j+1] - t[j]
    and off = s - t[j]. A read held at a knot value (s on or before t[j], or
    past the grid) gets that knot's idx and off = 0, so the blend returns
    the knot value exactly."""
    n = len(times)
    j = np.minimum(np.maximum(np.searchsorted(times, s, side="right") - 1, 0), n - 2)
    tj = times[j]
    past = s >= times[-1]
    return (base + np.where(past, n - 1, j), times[j + 1] - tj,
            np.where((s <= tj) | past, 0.0, s - tj))


def _read_at(curves: np.ndarray, idx, span, off) -> np.ndarray:
    """Flat `curves` read at positions from _read_table, with np.interp's
    arithmetic: exact at knots, held at the end values outside the grid.
    Where off is 0 the next value is multiplied by 0, so clipping the
    index past the last knot of the last row changes nothing."""
    c0 = np.take(curves, idx)
    return (np.take(curves, idx + 1, mode="clip") - c0) / span * off + c0


def _read(times: np.ndarray, curves: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row i of `curves` read at the times s[..., i]."""
    return _read_at(curves, *_read_table(times, s, np.arange(len(curves)) * len(times)))


def _link_params(links: Sequence[Link]) -> np.ndarray:
    """Per-link rows of (free-flow time, backward-wave time, capacity,
    storage), as a 4 x L array."""
    return np.array([(l.free_flow_time_s, l.length_m / l.backward_speed_mps,
                      l.capacity_vps, l.storage_veh) for l in links]).T


class _Lags(NamedTuple):
    """Lagged reads of the link curves at step(s) k, as from _read_table:
    axis -2 takes N_up at s_up and s1_up, then N_dn at s_dn and s1_dn; the
    last axis is the link. Indices are flat into the stacked (2, rows,
    knots) entry and exit curves."""

    idx: np.ndarray
    span: np.ndarray
    off: np.ndarray
    now: np.ndarray  # N_up, N_dn at knot k
    early: np.ndarray  # s_up < t0: nothing has entered yet
    den: np.ndarray  # s1 - s of the demand and supply rates, 1 where not > 0

    def at(self, k) -> "_Lags":
        return _Lags(*(a[k] for a in self))


def _lag_table(times: np.ndarray, dt_s: float, params: np.ndarray, k,
               rows: int) -> _Lags:
    """Lagged reads at step(s) k of the links whose parameters are `params`
    (as from _link_params) and whose curves are the first rows of stacked
    curves with `rows` rows each. Lags are fixed per link, so the loader
    builds this once, for every step.

    A boundary rate at the lagged time s is the average slope of its curve
    over [s, s1], s1 = min(s + dt, t): on a knot the recorded per-step rate,
    mid-step a blend of the two neighbouring steps (snapping to one can stall
    flow by a full step when a lag is not a multiple of dt), and never past
    the knots written so far. A lag so long that s + dt == s gives s1 == s;
    that rate is never used (s < t0), and its 0/0 is masked here.
    """
    t = times[k][..., None]
    s_up, s_dn = t - params[0], t - params[1]
    s = np.stack([s_up, np.minimum(s_up + dt_s, t), s_dn, np.minimum(s_dn + dt_s, t)],
                 axis=-2)
    base = (np.array([0, 0, rows, rows])[:, None] + np.arange(params.shape[1])) * len(times)
    with np.errstate(invalid="ignore"):  # -inf - -inf of an infinite lag
        den = s[..., 1::2, :] - s[..., ::2, :]
    return _Lags(*_read_table(times, s, base), base[::2] + np.asarray(k)[..., None, None],
                 s_up < times[0], np.where(den > 0, den, 1.0))


def _boundary_flows(lags: _Lags, curves: np.ndarray, params: np.ndarray, dt_s: float):
    """(demand, supply, capped demand, capped supply) at the steps of `lags`
    of its links, whose entry and exit curves are curves[0] and curves[1];
    params as from _link_params. Each result has the steps' shape followed
    by one entry per link. The caps are what one step can pass: vehicles at
    the exit by s1, room under the storage bound at s1.
    """
    capacity, storage = params[2:]
    read = _read_at(curves, *lags[:3])
    up, up1, dn, dn1 = (read[..., r, :] for r in range(4))
    now = np.take(curves, lags.now)
    up_k, dn_k = now[..., 0, :], now[..., 1, :]
    demand = np.where(lags.early, 0.0,
                      np.where(up <= dn_k + COUNT_TOL, (up1 - up) / lags.den[..., 0, :],
                               capacity))
    supply = np.where(up_k >= dn + storage - COUNT_TOL,
                      (dn1 - dn) / lags.den[..., 1, :], capacity)
    return (demand, supply,
            np.minimum(demand, np.maximum(0.0, up1 - dn_k) / dt_s),
            np.minimum(supply, np.maximum(0.0, dn1 + storage - up_k) / dt_s))


def _one_link(link: Link, state: LinkState, grid: TimeGrid, t: float):
    k = int(round((t - grid.t0_s) / grid.dt_s))  # reads are at the nearest knot
    params = _link_params([link])
    lags = _lag_table(grid.times(), grid.dt_s, params, k, 1)
    return _boundary_flows(lags, np.stack([state.n_up, state.n_dn])[:, None], params,
                           grid.dt_s)


def link_demand(link: Link, state: LinkState, grid: TimeGrid, t: float) -> float:
    """Boundary demand: inflow lagged by the free-flow time while the exit is
    uncongested, the capacity otherwise."""
    return _one_link(link, state, grid, t)[0].item()


def link_supply(link: Link, state: LinkState, grid: TimeGrid, t: float) -> float:
    """Boundary supply: capacity until the storage bound binds, then the
    outflow lagged by the backward-wave time."""
    return _one_link(link, state, grid, t)[1].item()


def origin_demand(queue_veh, departure_rate_vps, big_m):
    """Origin boundary demand: effectively unbounded while a queue persists,
    the instantaneous departure rate otherwise. Works elementwise on arrays."""
    return np.where(queue_veh > 0, big_m, departure_rate_vps)


def step_origin_queue(queue_veh, departure_rate_vps, served_rate_vps, dt_s: float):
    """Forward-Euler point-queue update, clamped at zero; elementwise."""
    return np.maximum(0.0, queue_veh + dt_s * (departure_rate_vps - served_rate_vps))


def propagate_composition(mix: np.ndarray, slot_link: np.ndarray,
                          inflow_vps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Entry shares of every link slot at one step, and the links they fill.

    mix[s] is the rate that slot s's path brings to its link slot_link[s];
    inflow_vps[l] is link l's junction inflow. The fed links are those that
    take labelled flow and inflow above 1e-12 veh/s; their slots get mix
    over the link's carried total, and every other slot 0. Raises DNLError
    where a fed link's carried total differs from its inflow by more than
    1e-6 relative (1e-12 veh/s absolute).
    """
    nL = len(inflow_vps)
    # bincount adds in slot order, as np.sum does below 8 entries (above
    # that np.sum pairs them): bit for bit the per-link sum over few paths
    total = np.bincount(slot_link, mix, minlength=nL)
    fed = np.flatnonzero((total > 0) & (inflow_vps > _FLOW_EPS))
    close = (np.abs(total[fed] - inflow_vps[fed])
             <= np.maximum(1e-6 * np.maximum(np.abs(total[fed]), np.abs(inflow_vps[fed])),
                           1e-12))
    if not close.all():
        li = fed[~close][0]
        raise DNLError(
            f"composition mass {total[li]} does not match inflow {inflow_vps[li]}"
        )
    den = np.full(nL, math.inf)
    den[fed] = total[fed]
    return mix / den[slot_link], fed


# -- engine --------------------------------------------------------------------


class _Loader:
    """One loading of a network with a |P| x N departure-rate matrix.

    The junction inputs are uniform elements: the links (0 .. L-1), then one
    origin queue per origin (L + i for origin_ids[i]). Element e has an
    entry curve up[e] (N_up, or the cumulative departures), an exit curve
    dn[e] (N_dn, or the cumulative service), and feeds the junction at its
    downstream node. The junction outputs are the links, then one sink per
    destination node. Every node is a junction; `moves` lists each (element,
    output) movement that some path makes.

    Entry compositions are dense over each element's own paths, in one table
    `shares` whose columns are the slots (element, path), element by element
    and paths ascending: slot_paths[e] lists e's paths, comp[e] is the view
    of its columns, comp[e][k] their shares in the vehicles entering in step
    k, and entered[e, k] the latest step <= k that has a composition (-1 if
    none). Row N of `shares` stays 0. A link's fill in as it loads; an
    origin's are the path shares of its departures.
    """

    def __init__(self, network: Network, departures: np.ndarray, grid: TimeGrid):
        self.grid = grid
        self.path_ids = tuple(network.paths)
        self.link_ids = tuple(network.links)
        lidx = {l: i for i, l in enumerate(self.link_ids)}
        self.links = [network.links[l] for l in self.link_ids]
        self.link_params = _link_params(self.links)
        nP, nL, N = len(self.path_ids), len(self.link_ids), grid.n_steps
        self.times = grid.times()
        # a lag lost in t - lag would make a boundary rate 0/0
        lost = self.times - self.link_params[:2, :, None] == self.times
        for kind, li in zip(*np.nonzero(lost.any(axis=2))):
            raise DNLError(
                f"link {self.link_ids[li]}: {('free-flow', 'backward-wave')[kind]} "
                f"time {float(self.link_params[kind, li])!r} s is lost in the "
                "grid times (t - lag == t)"
            )

        h = np.asarray(departures, dtype=float)
        if h.shape != (nP, N):
            raise DNLError(
                f"departure matrix shape {h.shape} does not match "
                f"(paths, steps) = ({nP}, {N})"
            )
        if not np.all(np.isfinite(h) & (h >= 0)):
            raise DNLError("departure rates must be finite and nonnegative")
        self.departed = h > 0

        self.origin_ids = sorted({network.paths[p].od[0] for p in self.path_ids})
        self.oidx = {o: i for i, o in enumerate(self.origin_ids)}
        nO = len(self.origin_ids)
        nE = nL + nO
        self.node_ids = tuple(network.nodes)
        sinks = [n for n in self.node_ids if network.nodes[n].destination]
        sink_of = {n: nL + i for i, n in enumerate(sinks)}

        # route[e, p]: the output path p takes at e's downstream junction, -1
        # where p does not use e; prev[l, p]: the element p leaves to enter l
        route = np.full((nE, nP), -1, dtype=np.int64)
        prev = np.full((nL, nP), -1, dtype=np.int64)
        self.path_elems: List[List[int]] = []  # origin queue, then links
        for p, pid in enumerate(self.path_ids):
            path = network.paths[pid]
            elems = [nL + self.oidx[path.od[0]]] + [lidx[l] for l in path.links]
            route[elems, p] = elems[1:] + [sink_of[self.links[elems[-1]].head]]
            prev[elems[1:], p] = elems[:-1]
            self.path_elems.append(elems)
        self.slot_elem, slot_path = np.nonzero(route >= 0)
        n_slots = len(self.slot_elem)
        bounds = np.searchsorted(self.slot_elem, np.arange(nE + 1))
        self.slot_paths = [slot_path[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        moves, self.slot_move = np.unique(
            self.slot_elem * (nL + len(sinks)) + route[self.slot_elem, slot_path],
            return_inverse=True)
        # each link slot is fed by one slot: the same path on the element before
        slot_of = np.full((nE, nP), -1, dtype=np.int64)
        slot_of[self.slot_elem, slot_path] = np.arange(n_slots)
        self.n_link_slots = bounds[nL]
        link_slots = slice(0, self.n_link_slots)
        self.src_slot = slot_of[prev[self.slot_elem[link_slots], slot_path[link_slots]],
                                slot_path[link_slots]]
        self.src_elem = self.slot_elem[self.src_slot]

        node = {n: i for i, n in enumerate(self.node_ids)}
        self.moves = junctions.Movements(
            *np.divmod(moves, nL + len(sinks)),
            np.array([node[l.head] for l in self.links] + [node[o] for o in self.origin_ids],
                     dtype=np.int64),
            np.array([node[l.tail] for l in self.links] + [node[n] for n in sinks],
                     dtype=np.int64),
            self._priorities(network, lidx), len(self.node_ids))
        self.sink_supply = np.full(len(sinks), math.inf)  # a sink takes any flow

        self.curves = np.zeros((2, nE, N + 1))  # entry curves, then exit curves
        self.up, self.dn = self.curves
        self.n_up, self.cum_dep = self.up[:nL], self.up[nL:]
        self.n_dn, self.cum_srv = self.dn[:nL], self.dn[nL:]
        self.inflow = np.zeros((nL, N))
        self.outflow = np.zeros((nL, N))
        self.shares = np.zeros((N + 1, n_slots))
        self.comp = [self.shares[:N, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        self.entered = np.full((nE, N), -1, dtype=np.int64)
        self.at_exit = np.zeros(nE, dtype=np.int64)  # entry knot of the exiting vehicles

        with np.errstate(over="ignore"):
            self.dep_rate = np.array([h[paths].sum(axis=0)
                                      for paths in self.slot_paths[nL:]]).reshape(nO, N)
            self.cum_dep[:, 1:] = np.cumsum(self.dep_rate, axis=1) * grid.dt_s
        for oi in np.flatnonzero(~np.isfinite(self.cum_dep[:, -1])):
            raise DNLError(f"cumulative departures at origin {self.origin_ids[oi]} "
                           "are not finite: departure rates too large")
        # each origin's total is finite; their sum may still overflow
        with np.errstate(over="ignore"):
            departed = self.cum_dep[:, -1].sum()
        if not np.isfinite(departed):
            raise DNLError("cumulative departures summed over all origins are not "
                           "finite: departure rates too large")
        for oi, paths in enumerate(self.slot_paths[nL:]):
            for j in np.flatnonzero(self.dep_rate[oi] > 0):
                rates = h[paths, j]
                tot = rates.sum()
                if tot > _FLOW_EPS:
                    self.comp[nL + oi][j] = rates / tot
                    self.entered[nL + oi, j] = j
        np.maximum.accumulate(self.entered[nL:], axis=1, out=self.entered[nL:])
        self.queue = np.zeros((nO, N + 1))
        self.big_m = np.array([
            10.0 * max(network.links[l].capacity_vps for l in network.outgoing[o])
            for o in self.origin_ids
        ])
        self.min_delay = np.append(self.link_params[0], np.zeros(nO))
        self.lags = _lag_table(self.times, grid.dt_s, self.link_params, np.arange(N), nE)

        self.exited = np.zeros(N + 1)
        self.balance = np.zeros(N + 1)

    def _priorities(self, network: Network, lidx: Dict[str, int]) -> np.ndarray:
        """Merge priority of each element at its downstream junction: the
        node's incoming links, then its origin queue if a path leaves it."""
        nL = len(self.links)
        out = np.zeros(nL + len(self.origin_ids))
        for nid, node in network.nodes.items():
            inputs = [lidx[l] for l in network.incoming[nid]]
            pri = [network.priorities[nid][l] for l in network.incoming[nid]]
            if node.origin:
                pri.append(network.priorities[nid][SOURCE_KEY])
            if not pri:
                continue
            pri = np.asarray(pri, dtype=float)
            pri = pri / pri.sum()
            if nid in self.oidx:
                inputs.append(nL + self.oidx[nid])
            elif node.origin:  # an origin that no path leaves
                pri = pri[:-1]
                total = pri.sum()
                pri = pri / total if total > 0 else np.full(len(pri), 1.0 / len(pri))
            out[inputs] = pri
        return out

    # -- per-step machinery ---------------------------------------------------

    def _exit_shares(self, D: np.ndarray, k: int) -> np.ndarray:
        """Per slot, the path share of the vehicles now at its element's exit:
        that of the latest step, up to the one they entered in, that has a
        composition; 0 for elements that demand no flow. An origin whose
        departures are too small to label keeps them queued (D set to 0)."""
        nL = len(self.links)
        row = np.full(len(D), self.grid.n_steps)  # the all-zero row
        dem = np.flatnonzero(D > _FLOW_EPS)
        if dem.size:
            # the entry knot only moves forward: search from the last one
            lo = self.at_exit[dem].min()
            passed = self.up[dem, lo:k + 1] <= (self.dn[dem, k] + COUNT_TOL)[:, None]
            self.at_exit[dem] = lo - 1 + passed.sum(axis=1)
            j = self.entered[dem, self.at_exit[dem]]
            for e in dem[(j < 0) & (dem < nL)]:
                raise DNLError(
                    f"link {self.link_ids[e]} demands flow at step {k} "
                    "but carries no labeled vehicles"
                )
            D[dem[j < 0]] = 0.0
            row[dem[j >= 0]] = j[j >= 0]
        return self.shares[row[self.slot_elem], np.arange(len(self.slot_elem))]

    def _check_conservation(self, f_out: np.ndarray, f_in: np.ndarray, k: int) -> None:
        """Each junction passes on what its inputs send out, to 1e-9."""
        mv = self.moves
        out = np.bincount(mv.in_junction, f_out, minlength=mv.n_junctions)
        residual = np.abs(out - np.bincount(mv.out_junction, f_in, minlength=mv.n_junctions))
        bad = ~(residual <= 1e-9 * np.maximum(1.0, out))  # NaN fails too
        if bad.any():
            j = bad.argmax()
            raise DNLError(
                f"junction {self.node_ids[j]} conservation residual "
                f"{residual[j]:.3e} at step {k}"
            )

    def _enter(self, exit_shares: np.ndarray, f_out: np.ndarray, f_in: np.ndarray,
               k: int) -> None:
        """Entry compositions at step k of the links that take labelled flow:
        each link slot gets its source slot's share of its source's outflow,
        normalised by propagate_composition."""
        nL = len(self.links)
        rate = np.where(f_out > _FLOW_EPS, f_out, 0.0)
        mix = rate[self.src_elem] * exit_shares[self.src_slot]
        self.shares[k, :self.n_link_slots], fed = propagate_composition(
            mix, self.slot_elem[:self.n_link_slots], f_in[:nL])
        self.entered[fed, k] = k

    def run(self) -> DNLResult:
        """Step from the first departure until the network drains; the
        frozen state fills the rest of the horizon."""
        N = self.grid.n_steps
        dt = self.grid.dt_s
        nL = len(self.links)
        departing = np.flatnonzero(self.dep_rate.any(axis=0))
        # Before the first departure every curve, queue and count is 0 and no
        # link has an entry composition: the allocation holds that state.
        k0, k_last = (departing[0], departing[-1]) if departing.size else (N, N)
        settle_tried = False

        for k in range(k0, N):
            if k:
                self.entered[:nL, k] = self.entered[:nL, k - 1]
            D_eff, S_eff = _boundary_flows(self.lags.at(k), self.curves, self.link_params,
                                           dt)[2:]
            q_k = self.queue[:, k]
            dep_k = self.dep_rate[:, k]
            D_org = np.minimum(origin_demand(q_k, dep_k, self.big_m), q_k / dt + dep_k)
            D = np.concatenate([D_eff, D_org])
            exit_shares = self._exit_shares(D, k)
            alpha = np.bincount(self.slot_move, exit_shares, minlength=len(self.moves.src))
            f_out, f_in = junctions.resolve_network(
                self.moves, D, np.concatenate([S_eff, self.sink_supply]), alpha)
            self._check_conservation(f_out, f_in, k)
            self._enter(exit_shares, f_out, f_in, k)

            self.n_up[:, k + 1] = self.n_up[:, k] + dt * f_in[:nL]
            self.dn[:, k + 1] = self.dn[:, k] + dt * f_out
            self.inflow[:, k] = f_in[:nL]
            self.outflow[:, k] = f_out[:nL]
            self.queue[:, k + 1] = step_origin_queue(q_k, dep_k, f_out[nL:], dt)
            self.exited[k + 1] = self.exited[k] + dt * f_in[nL:].sum()

            departed = self.cum_dep[:, k + 1].sum()
            stored = (self.n_up[:, k + 1] - self.n_dn[:, k + 1]).sum()
            queued = self.queue[:, k + 1].sum()
            resid = abs(departed - (stored + queued + self.exited[k + 1]))
            self.balance[k + 1] = resid / max(1.0, departed)
            if not self.balance[k + 1] <= 1e-6:  # NaN fails too
                raise DNLError(
                    f"vehicle balance residual {self.balance[k + 1]:.3e} "
                    f"at step {k + 1}"
                )

            if not settle_tried and k >= k_last and self._drained(k + 1):
                settle_tried = True
                if self._settle(k + 1):
                    break

        return self._extract_result()

    def _drained(self, k: int) -> bool:
        """Every link holds no vehicles at knot k and no origin queue is left.
        The origin curves are not compared: cumulative departures and service
        differ by rounding even when the queue is exactly 0."""
        return bool(np.all(self.n_up[:, k] == self.n_dn[:, k])
                    and not self.queue[:, k].any())

    def _settle(self, k: int) -> bool:
        """Freeze the drained state at knot k over the rest of the horizon and
        return True if every later step would be a no-op. That holds when no
        link demands flow at any later step; the demands are read with the
        step loop's own formula, up to the longest free-flow lag past k (later
        reads fall on the flat, frozen curves and give exactly 0). On False the
        caller keeps stepping, overwriting the frozen columns."""
        N = self.grid.n_steps
        dt = self.grid.dt_s
        nL = len(self.links)
        self.n_up[:, k + 1:] = self.n_up[:, k, None]
        self.dn[:, k + 1:] = self.dn[:, k, None]
        reach = k + math.ceil(self.link_params[0].max() / dt) + 2
        D_eff = _boundary_flows(self.lags.at(slice(k, min(reach, N))), self.curves,
                                self.link_params, dt)[2]
        if D_eff.any():
            return False
        self.entered[:nL, k:] = self.entered[:nL, k - 1, None]
        self.exited[k + 1:] = self.exited[k]
        self.balance[k + 1:] = self.balance[k]
        return True

    # -- travel-time extraction -------------------------------------------------

    def _extract_result(self) -> DNLResult:
        N = self.grid.n_steps
        tf = self.grid.tf_s
        dep_times = self.times[:N]
        tt = np.full((len(self.path_ids), N), np.nan)
        # Paths that share their first i elements reach element i + 1 at the
        # same times. In lexicographic element order, each path keeps the
        # prefix it shares with the one before and extends it, so every
        # distinct prefix is chained once; `stack` holds the current prefix's
        # (element, exit times).
        stack: List[Tuple[int, np.ndarray]] = []
        for p in sorted(range(len(self.path_elems)), key=self.path_elems.__getitem__):
            elems = self.path_elems[p]
            i = 0
            while i < min(len(stack), len(elems)) and stack[i][0] == elems[i]:
                i += 1
            del stack[i:]
            for e in elems[i:]:
                a = stack[-1][1] if stack else dep_times
                stack.append((e, _exit_times(self.times, self.up[e], self.dn[e], a,
                                             self.min_delay[e], tf)))
            tt[p] = stack[-1][1] - dep_times
        origin_states = {
            o: OriginState(o, self.queue[oi], self.cum_dep[oi], self.cum_srv[oi])
            for o, oi in self.oidx.items()
        }
        link_states = {
            lid: LinkState(link, self.n_up[li], self.n_dn[li], self.inflow[li],
                           self.outflow[li], self.slot_paths[li], self.comp[li],
                           self.entered[li])
            for li, (lid, link) in enumerate(zip(self.link_ids, self.links))
        }
        return DNLResult(self.grid, self.path_ids, tt, dep_times[None, :] + tt,
                         link_states, origin_states,
                         self.balance, np.isnan(tt), self.departed)


def run_dnl(network: Network, departures: np.ndarray, grid: TimeGrid) -> DNLResult:
    """Load the network with the given |P| x N departure-rate matrix.

    Rows of `departures` follow the iteration order of `network.paths`.
    Raises DNLError on a wrong shape or on negative or non-finite rates.
    Cells whose trips do not finish within the horizon are flagged in
    `truncated`; the loader itself prints and logs nothing.
    """
    return _Loader(network, departures, grid).run()
