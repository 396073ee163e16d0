"""Time-stepping network loading engine.

Link dynamics are tracked purely through cumulative boundary counts
(entering N_up, exiting N_dn). Each origin is a point queue whose entry
and exit curves are the cumulative departures and service; it feeds its
node's junction like one more incoming link, demanding q/dt plus the
step's departure rate. Each step is one pass over the whole network:
demands and supplies come from lagged lookups on the link curves, made
once per block of steps that the lags allow (positions and blocks are
tabulated once per layout, which a solve builds once for its loadings, and
whose slot tables come from one sort of the paths' element runs),
the flows of every junction from one call of the junction kernel
junctions.resolve_unchecked, and path labels from FIFO compositions at
every element's exit (the composition of the step its exiting vehicles
entered in, or of its latest step with one where the element is empty),
mixed into link entry shares by one call of propagate_composition. Path
travel times are chained horizontal differences between the curves (origin
queue first, then links in path order; free flow past a drained knot),
each distinct path prefix once, by one call per (depth, element) over the
prefixes of that depth that end there. A step checks nothing. The junction
inputs (as resolve_network checks them), the composition mass
(composition_fault), junction conservation and the vehicle balance are
checked once per loading, after the steps, from tables that record every
step's inputs, carried totals and flows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import junctions
from .network import SOURCE_KEY, Link, Network, TimeGrid

COUNT_TOL = 1e-9  # veh; equality tolerance on cumulative counts
# veh/s; an element demands flow above this rate, and an origin queue whose
# rate q/dt is at or below it counts as drained
_FLOW_EPS = 1e-12
# The step's constants as array operands: numpy 2 takes a 0-d array as a
# ufunc operand about 0.3 us faster than a Python float, with the same
# result, and a Braess step makes dozens of ufunc calls on 7 elements
_COUNT_TOL_A, _FLOW_EPS_A, _ZERO, _INF = (
    np.array(x) for x in (COUNT_TOL, _FLOW_EPS, 0.0, math.inf))


class DNLError(RuntimeError):
    """Raised when the loading run detects an internal inconsistency."""


Composition = Tuple[np.ndarray, np.ndarray]  # (path indices, fractions)


@dataclass
class LinkState:
    """Cumulative-count trace of one link over the grid.

    n_up/n_dn live on the N+1 grid knots; inflow/outflow are per step
    (length N). `paths` lists, in ascending order, the paths that use the
    link; composition[k] holds their shares in the vehicles entering in step
    k, all zero when the step had no inflow. The arrays are views of the
    loader's tables.
    """

    link: Link
    n_up: np.ndarray
    n_dn: np.ndarray
    inflow: np.ndarray
    outflow: np.ndarray
    paths: np.ndarray
    composition: np.ndarray

    @property
    def entry_composition(self) -> Iterator[Optional[Composition]]:
        """Per step, the (path indices, fractions) of the nonzero entry
        shares, or None when the step had no inflow."""
        for row in self.composition:
            yield (self.paths[row > 0], row[row > 0]) if row.any() else None


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
    link_states: Dict[str, LinkState]
    origin_states: Dict[str, OriginState]
    diagnostics: np.ndarray  # per-knot relative vehicle-balance residual
    departed: np.ndarray  # bool (|P|, N): cells with departures

    @property
    def arrival_time(self) -> np.ndarray:
        """(|P|, N) departure time plus travel time; NaN where truncated."""
        return self.grid.times()[:self.grid.n_steps] + self.travel_time

    @property
    def truncated(self) -> np.ndarray:
        """bool (|P|, N): cells whose trip does not finish within the horizon."""
        return np.isnan(self.travel_time)

    @property
    def truncated_trips(self) -> np.ndarray:
        """Truncated cells that carry departures: the trips the horizon cuts
        off. An empty truncated cell is no trip."""
        return self.truncated & self.departed


# -- elementary curve operations ----------------------------------------------


def _exit_times(times: np.ndarray, n_in: np.ndarray, n_out: np.ndarray,
                a: np.ndarray, min_delay_s: float, tf_s: float) -> np.ndarray:
    """Exit times of the vehicles entering a FIFO element (link or origin
    queue) at times `a`: the earliest time at which the exit curve n_out
    reaches the entry count n_in(a) less COUNT_TOL, read off the
    piecewise-linear curve, and never sooner than a + min_delay_s. NaN
    where `a` is NaN, where n_out never reaches that count, and where the
    exit falls past tf_s. A NaN or unreached count searches to index
    len(times); a count reached at the first knot exits at times[0]."""
    y = np.interp(a, times, n_in) - COUNT_TOL
    idx = np.searchsorted(n_out, y)
    i = np.minimum(np.maximum(idx, 1), len(times) - 1)
    t0, c0 = times[i - 1], n_out[i - 1]
    # only the clipped ends, replaced below, can divide by 0 or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = t0 + (y - c0) / (n_out[i] - c0) * (times[i] - t0)
    lam = np.maximum(np.where(idx == 0, times[0], lam), a + min_delay_s)
    lam[(idx == len(times)) | (lam > tf_s + 1e-9)] = np.nan
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


def _read_at(curves: np.ndarray, idx, idx1, span, off) -> np.ndarray:
    """Flat `curves` read at positions from _read_table (idx1 = idx + 1,
    clipped to the last knot of the last row), with np.interp's arithmetic:
    exact at knots, held at the end values outside the grid. Where off is 0
    the next value is multiplied by 0, so the clipped index changes nothing."""
    c0 = curves.take(idx)
    return (curves.take(idx1) - c0) / span * off + c0


def _link_params(links: Sequence[Link]) -> np.ndarray:
    """Per-link rows of (free-flow time, backward-wave time, capacity, 0,
    storage), as a 5 x L array. Rows 3:5 are what the demand and the supply
    test add to the curve they read: nothing to N_up, the storage to N_dn."""
    return np.array([(l.free_flow_time_s, l.length_m / l.backward_speed_mps,
                      l.capacity_vps, 0.0, l.storage_veh) for l in links]).T


class _Lags(NamedTuple):
    """Lagged reads of the link curves at step(s) k, as from _read_table:
    axis -2 takes N_up at s_up and s1_up, then N_dn at s_dn and s1_dn; the
    last axis is the link. Indices are flat into the stacked (2, rows,
    knots) entry and exit curves. The other fields have two rows on axis
    -2, the demand's and the supply's."""

    idx: np.ndarray
    idx1: np.ndarray  # idx + 1, clipped to the curves
    span: np.ndarray
    off: np.ndarray
    across: np.ndarray  # N_dn, N_up at knot k: the other end of each link
    gate: np.ndarray  # demand: s_up >= t0, something may have entered; supply: True
    den: np.ndarray  # s1 - s of the demand and supply rates, 1 where not > 0

    def at(self, k) -> "_Lags":
        return _Lags(*(a[k] for a in self))


# Count tolerances of the demand and the supply test, as added to the curve
# read at the lagged time and to the curve at the other end
_TOL_LAGGED = np.array([[0.0], [COUNT_TOL]])
_TOL_ACROSS = np.array([[COUNT_TOL], [0.0]])


def _lag_table(times: np.ndarray, dt_s: float, params: np.ndarray, k,
               rows: int) -> _Lags:
    """Lagged reads at step(s) k of the links whose parameters are `params`
    (as from _link_params) and whose curves are the first rows of stacked
    curves with `rows` rows each. Lags are fixed per link, so a layout
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
    idx, span, off = _read_table(times, s, base)
    return _Lags(idx, np.minimum(idx + 1, 2 * rows * len(times) - 1), span, off,
                 base[::-2] + np.asarray(k)[..., None, None],
                 np.stack([s_up >= times[0], np.ones(s_up.shape, dtype=bool)], axis=-2),
                 np.where(den > 0, den, 1.0))


def _lagged_terms(lags: _Lags, curves: np.ndarray, params: np.ndarray):
    """lags.across, then what _capped_flows takes from the lagged reads: the
    gated rates and capacities, and the lagged sides of the test and the cap."""
    read = _read_at(curves, *lags[:4])
    lagged, lagged1 = read[..., ::2, :], read[..., 1::2, :]  # at s, at s1
    return (lags.across, np.where(lags.gate, (lagged1 - lagged) / lags.den, _ZERO),
            np.where(lags.gate, params[2], _ZERO),
            lagged + params[3:5] - _TOL_LAGGED, lagged1 + params[3:5])


def _capped_flows(curves, across, rate, capacity, test, cap_base, dt_s, out=None):
    """(rates, capped) of the links whose entry and exit curves are curves[0]
    and curves[1], from their _lagged_terms, shaped as those (steps, demand
    and supply row, link); `capped` is written to `out` if given.

    Demand is the inflow lagged by the free-flow time while the exit is
    uncongested (N_up(s_up) <= N_dn(t)), the capacity otherwise; supply is
    the capacity until the storage bound binds (N_dn(s_dn) + storage <=
    N_up(t)), then the outflow lagged by the backward-wave time. The caps are
    what one step can pass: vehicles at the exit by s1, room under the
    storage bound at s1.
    """
    across = curves.take(across)
    rates = np.where(test <= across + _TOL_ACROSS, rate, capacity)
    return rates, np.minimum(rates, np.maximum(_ZERO, cap_base - across) / dt_s, out=out)


def _one_link(link: Link, state: LinkState, grid: TimeGrid, t: float):
    k = int(round((t - grid.t0_s) / grid.dt_s))  # reads are at the nearest knot
    params = _link_params([link])
    lags = _lag_table(grid.times(), grid.dt_s, params, k, 1)
    curves = np.stack([state.n_up, state.n_dn])[:, None]
    return _capped_flows(curves, *_lagged_terms(lags, curves, params), grid.dt_s)[0]


def link_demand(link: Link, state: LinkState, grid: TimeGrid, t: float) -> float:
    """Boundary demand: inflow lagged by the free-flow time while the exit is
    uncongested, the capacity otherwise."""
    return _one_link(link, state, grid, t)[0].item()


def link_supply(link: Link, state: LinkState, grid: TimeGrid, t: float) -> float:
    """Boundary supply: capacity until the storage bound binds, then the
    outflow lagged by the backward-wave time."""
    return _one_link(link, state, grid, t)[1].item()


def step_origin_queue(queue_veh, departure_rate_vps, served_rate_vps, dt_s: float):
    """Forward-Euler point-queue update, clamped at zero; elementwise."""
    return np.maximum(_ZERO, queue_veh + dt_s * (departure_rate_vps - served_rate_vps))


def propagate_composition(mix: np.ndarray, slot_link: np.ndarray, inflow_vps: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry shares of every link slot at one step, the links they fill,
    and each link's carried total.

    mix[s] is the rate that slot s's path brings to its link slot_link[s];
    inflow_vps[l] is link l's junction inflow. The fed links are those whose
    carried total and inflow are above 0, so that every vehicle entering a
    link is labelled; their slots get mix over the link's carried total, and
    every other slot 0. Checks nothing: the loader checks every step's
    carried totals against the inflows once, after its steps
    (composition_fault).
    """
    # bincount adds in slot order, as np.sum does below 8 entries (above
    # that np.sum pairs them): bit for bit the per-link sum over few paths
    total = np.bincount(slot_link, mix, minlength=len(inflow_vps))
    fed = (total > _ZERO) & (inflow_vps > _ZERO)
    return mix / np.where(fed, total, _INF)[slot_link], fed.nonzero()[0], total


def composition_fault(total: np.ndarray, inflow_vps: np.ndarray
                      ) -> Optional[Tuple[int, DNLError]]:
    """The first row of (rows, links) carried totals and inflows in which a
    link whose total and inflow are above 0 differs from its inflow by more
    than 1e-6 relative (1e-12 veh/s absolute), and the error that reports
    its first such link; None if every row passes."""
    fed = (total > 0) & (inflow_vps > 0)
    bad = fed & ~(np.abs(total - inflow_vps)
                  <= np.maximum(1e-6 * np.maximum(np.abs(total), np.abs(inflow_vps)), 1e-12))
    rows = bad.any(axis=1).nonzero()[0]
    if not rows.size:
        return None
    k = rows[0]
    li = bad[k].argmax()
    return k, DNLError(
        f"composition mass {total[k, li]} does not match inflow {inflow_vps[k, li]}")


class _Depth(NamedTuple):
    """The distinct path prefixes of one length (a depth of travel-time
    extraction), one row each, grouped by their last element."""

    groups: List[Tuple[int, int, int]]  # (element, lo, hi): rows lo:hi end at element
    parent: np.ndarray  # per row, its prefix's row at the depth before
    ends: np.ndarray  # the paths this depth completes
    end_rows: np.ndarray  # and their rows


def _extraction_depths(elem: np.ndarray, sizes: np.ndarray) -> List[_Depth]:
    """Per depth d, the prefixes of length d + 1 of the paths whose elements
    are `elem`, path after path, `sizes[p]` for path p. Paths that share a
    prefix reach its last element at the same times, so each distinct
    prefix is one row; one np.unique per depth ranks the rows by (last
    element, parent row). Depth 0's only parent row is the departure times."""
    depths = []
    start = np.cumsum(sizes) - sizes
    row = np.zeros(len(sizes), dtype=np.int64)  # each path's prefix row at the depth before
    n_rows = 1
    for d in range(sizes.max(initial=0)):
        live = np.flatnonzero(sizes > d)
        keys, row[live] = np.unique(elem[start[live] + d] * n_rows + row[live],
                                    return_inverse=True)
        elems, parent = np.divmod(keys, n_rows)
        group_elems, lo = np.unique(elems, return_index=True)
        hi = np.append(lo[1:], len(keys))
        ends = live[sizes[live] == d + 1]
        depths.append(_Depth(list(zip(group_elems.tolist(), lo.tolist(), hi.tolist())),
                             parent, ends, row[ends]))
        n_rows = len(keys)
    return depths


# -- engine --------------------------------------------------------------------


class _Layout:
    """What every loading of a network on a time grid shares: the element,
    slot and movement tables, the link parameters, the lagged-read table
    `lags` and its blocks (block_end[k] ends the block of steps from k whose
    reads after step k's lie on knots up to k; it is at least k + 1), and the
    path prefixes that travel-time extraction chains, depth by depth. It
    holds no state of a loading, so a solve builds it once and passes it to
    each of its loadings.

    The junction inputs are uniform elements: the links (0 .. L-1), then one
    origin queue per origin (L + i for origin_ids[i]). Element e has an
    entry curve (N_up, or the cumulative departures), an exit curve (N_dn,
    or the cumulative service), and feeds the junction at its downstream
    node. The junction outputs are the links, then one sink per destination
    node. Every node is a junction; `moves` lists each (element, output)
    movement that some path makes, and each element's merge priority as
    validate_network set it in Network.priorities. Entry compositions are
    dense over each element's own paths: one slot per (element, path),
    element by element and paths ascending, so that slot_paths[e] lists e's
    paths and columns bounds[e]:bounds[e + 1] of a loading's `shares` are
    e's slots. The slots are the positions of the run of every path's
    elements end to end (path_elems), put in that order by one sort; each
    slot's move and, on a link, its source slot are read off the run, so
    the tables grow with the slots, not with elements x paths.
    """

    def __init__(self, network: Network, grid: TimeGrid):
        self.network = network
        self.grid = grid
        self.path_ids = tuple(network.paths)
        self.link_ids = tuple(network.links)
        lidx = {l: i for i, l in enumerate(self.link_ids)}
        self.links = [network.links[l] for l in self.link_ids]
        self.link_params = _link_params(self.links)
        nP, nL, N = len(self.path_ids), len(self.link_ids), grid.n_steps
        self.times = grid.times()
        self.dt = np.array(grid.dt_s)  # 0-d: the step's faster operand
        # a lag lost in t - lag would make a boundary rate 0/0
        lost = self.times - self.link_params[:2, :, None] == self.times
        for kind, li in zip(*np.nonzero(lost.any(axis=2))):
            raise DNLError(
                f"link {self.link_ids[li]}: {('free-flow', 'backward-wave')[kind]} "
                f"time {float(self.link_params[kind, li])!r} s is lost in the "
                "grid times (t - lag == t)"
            )

        self.origin_ids = sorted({network.paths[p].od[0] for p in self.path_ids})
        self.oidx = {o: i for i, o in enumerate(self.origin_ids)}
        nO = len(self.origin_ids)
        nE = nL + nO
        self.node_ids = tuple(network.nodes)
        sinks = [n for n in self.node_ids if network.nodes[n].destination]
        sink_of = {n: nL + i for i, n in enumerate(sinks)}
        self.n_outputs = nL + len(sinks)

        paths = [network.paths[pid] for pid in self.path_ids]
        self.path_elems: List[List[int]] = [  # origin queue, then links
            [nL + self.oidx[path.od[0]]] + [lidx[l] for l in path.links]
            for path in paths]
        # every path's elements end to end: each moves to the next element of
        # its path, and a path's last link to the sink of its destination
        sizes = np.array([len(elems) for elems in self.path_elems], dtype=np.int64)
        elem = np.fromiter(itertools.chain.from_iterable(self.path_elems),
                           dtype=np.int64, count=int(sizes.sum()))
        col = np.repeat(np.arange(nP), sizes)
        nxt = np.roll(elem, -1)
        nxt[np.cumsum(sizes) - 1] = [sink_of[network.links[path.links[-1]].head]
                                     for path in paths]
        # a path visits an element once, so each run position is one slot;
        # slot s is run position run[s]
        run = np.lexsort((col, elem))
        self.slot_elem, slot_path = elem[run], col[run]
        slot_path.setflags(write=False)  # every loading's link states share it
        self.slot_range = np.arange(len(run))
        self.bounds = np.searchsorted(self.slot_elem, np.arange(nE + 1))
        self.slot_paths = [slot_path[a:b] for a, b in zip(self.bounds[:-1], self.bounds[1:])]
        moves, self.slot_move = np.unique(self.slot_elem * self.n_outputs + nxt[run],
                                          return_inverse=True)
        # each link slot is fed by the slot of the run position before it: the
        # same path on the element before (a path's first is its origin queue)
        slot_at = np.empty_like(run)
        slot_at[run] = self.slot_range
        self.n_link_slots = self.bounds[nL]
        self.link_slot_elem = self.slot_elem[:self.n_link_slots]
        self.src_slot = slot_at[run[:self.n_link_slots] - 1]
        self.src_elem = self.slot_elem[self.src_slot]

        node = {n: i for i, n in enumerate(self.node_ids)}
        self.moves = junctions.Movements(
            *np.divmod(moves, self.n_outputs),
            np.array([node[l.head] for l in self.links] + [node[o] for o in self.origin_ids],
                     dtype=np.int64),
            np.array([node[l.tail] for l in self.links] + [node[n] for n in sinks],
                     dtype=np.int64),
            np.array([network.priorities[l.head][l.id] for l in self.links]
                     + [network.priorities[o][SOURCE_KEY] for o in self.origin_ids]),
            len(self.node_ids))
        self.no_entry = np.full(nE, N)  # per element, the all-zero row of `shares`
        self.min_delay = np.append(self.link_params[0], np.zeros(nO))
        steps = np.arange(N)
        self.lags = lags = _lag_table(self.times, grid.dt_s, self.link_params, steps, nE)
        # the last knot each step reads, idx1 too where off is 0: nondecreasing
        need = np.maximum(lags.idx % (N + 1), lags.idx1 % (N + 1)).max(axis=(1, 2), initial=0)
        self.block_end = np.maximum(np.searchsorted(need, steps, side="right"), steps + 1)
        self.depths = _extraction_depths(elem, sizes)


class _Loader:
    """One loading of a network with a |P| x N departure-rate matrix, on a
    layout of the network and grid (built here when none is given).

    Entry compositions are one table `shares` whose columns are the layout's
    slots: comp[e] is the view of element e's columns and comp[e][k] their
    shares in the vehicles entering in step k, all zero when none enter.
    Row N of `shares` stays 0. A link's columns fill in as it loads; an
    origin's are the path shares of its departures. latest[e] is the latest
    step so far whose composition of e is not zero (N if none): in step k,
    an origin's latest departure step (`dep_latest[k]`), and a step before
    k for a link.
    f_out[k] and f_in[k] are step k's outflow of each element and inflow of
    each output (0 in steps not stepped); a link state's inflow and outflow
    are views of their columns. Next to them, each stepped step records
    what _check tests once the steps are done: its junction inputs, the
    demands and supplies (`demand_supply[k]`: row 0 the demands, row 1 the
    supplies) and the split fractions (`alpha[k]`), and the total rate each
    link's entry composition carries (`carried[k]`). Every array here
    belongs to this loading alone: the result's states are views of them.
    A block of steps reads its lagged link counts as its first step starts.
    """

    def __init__(self, network: Network, departures: np.ndarray, grid: TimeGrid,
                 layout: Optional[_Layout] = None):
        if layout is None:
            layout = _Layout(network, grid)
        elif layout.network is not network or layout.grid != grid:
            raise DNLError("layout was built for another network or time grid")
        self.layout = lay = layout
        self.grid = grid
        nP, nL, nO, N = len(lay.path_ids), len(lay.links), len(lay.origin_ids), grid.n_steps
        nE = nL + nO

        h = np.asarray(departures, dtype=float)
        if h.shape != (nP, N):
            raise DNLError(
                f"departure matrix shape {h.shape} does not match "
                f"(paths, steps) = ({nP}, {N})"
            )
        if not np.all(np.isfinite(h) & (h >= 0)):
            raise DNLError("departure rates must be finite and nonnegative")
        self.departed = h > 0

        self.curves = np.zeros((2, nE, N + 1))  # entry curves, then exit curves
        self.up, self.dn = self.curves
        self.n_up, self.cum_dep = self.up[:nL], self.up[nL:]
        self.n_dn, self.cum_srv = self.dn[:nL], self.dn[nL:]
        self.f_out = np.zeros((N, nE))
        self.f_in = np.zeros((N, lay.n_outputs))
        self.demand_supply = np.zeros((N, 2, max(nE, lay.n_outputs)))
        self.alpha = np.zeros((N, len(lay.moves.src)))
        self.carried = np.zeros((N, nL))
        self.shares = np.zeros((N + 1, len(lay.slot_elem)))
        self.comp = [self.shares[:N, a:b] for a, b in zip(lay.bounds[:-1], lay.bounds[1:])]
        self.latest = lay.no_entry.copy()
        self.at_exit = np.zeros(nE, dtype=np.int64)  # entry knot of the exiting vehicles

        with np.errstate(over="ignore"):
            self.dep_rate = np.array([h[paths].sum(axis=0)
                                      for paths in lay.slot_paths[nL:]]).reshape(nO, N)
            self.cum_dep[:, 1:] = np.cumsum(self.dep_rate, axis=1) * grid.dt_s
        for oi in np.flatnonzero(~np.isfinite(self.cum_dep[:, -1])):
            raise DNLError(f"cumulative departures at origin {lay.origin_ids[oi]} "
                           "are not finite: departure rates too large")
        # each origin's total is finite; their sum may still overflow
        with np.errstate(over="ignore"):
            departed = self.cum_dep[:, -1].sum()
        if not np.isfinite(departed):
            raise DNLError("cumulative departures summed over all origins are not "
                           "finite: departure rates too large")
        # vehicles departed by each knot: each knot's sum over a contiguous
        # last axis, bit for bit self.cum_dep[:, k].sum()
        self.departed_veh = np.ascontiguousarray(self.cum_dep.T).sum(axis=1)
        for oi, paths in enumerate(lay.slot_paths[nL:]):
            # each cell's path rates along a contiguous last axis, so that
            # their sum is bit for bit that of the cell's own rate vector
            rates = np.ascontiguousarray(h[paths].T)
            tot = rates.sum(axis=1)
            cells = np.flatnonzero(tot > 0)
            self.comp[nL + oi][cells] = rates[cells] / tot[cells, None]
        latest = np.maximum.accumulate(np.where(self.dep_rate > 0, np.arange(N), -1), axis=1)
        self.dep_latest = np.ascontiguousarray(np.where(latest < 0, N, latest).T)
        self.queue = np.zeros((nO, N + 1))
        self.balance = np.zeros(N + 1)

    # -- per-step machinery ---------------------------------------------------

    def _exit_shares(self, D: np.ndarray, k: int) -> np.ndarray:
        """Per slot, the path share of the vehicles now at its element's exit:
        that of the step they entered in; 0 for elements that demand no flow.
        The entry knot `at` is the last knot at or before k whose entry count
        the exit count has reached. Counts never fall, so the knots that
        reach it are a prefix, holding the last `at` found: when some element
        demands flow, all search from the lowest of those. Before k, the
        entry count rose in step `at`, and every positive flow is labelled,
        so that step has a composition. At k the element is empty to within
        COUNT_TOL, and its latest composition is read, or the all-zero row N
        if none, which the input check refuses as a split row not summing to 1."""
        lay = self.layout
        dem = D > _FLOW_EPS_A
        if not np.count_nonzero(dem):
            return self.shares[-1]  # row N
        lo = min(self.at_exit.tolist())
        passed = self.up[:, lo:k + 1] <= (self.dn[:, k] + _COUNT_TOL_A)[:, None]
        at = self.at_exit = k - passed[:, ::-1].argmax(axis=1)  # the last knot passed
        row = np.where(dem, np.where(at < k, at, self.latest), lay.no_entry)
        return self.shares[row[lay.slot_elem], lay.slot_range]

    def _enter(self, exit_shares: np.ndarray, f_out: np.ndarray, f_in: np.ndarray,
               k: int) -> None:
        """Entry compositions at step k of the links that take labelled flow:
        each link slot gets its source slot's share of its source's outflow,
        normalised per link by propagate_composition; their carried totals are
        recorded for _check."""
        lay = self.layout
        mix = f_out[lay.src_elem] * exit_shares[lay.src_slot]
        self.shares[k, :lay.n_link_slots], fed, self.carried[k] = propagate_composition(
            mix, lay.link_slot_elem, f_in[:len(lay.links)])
        self.latest[fed] = k

    def run(self) -> DNLResult:
        """Step from the first departure. After the last departure, at the
        first knot where the network is drained (_drained), stop: that
        knot's curves and queues are held to the end of the horizon. The
        checks of the junction inputs and conservation, the composition mass
        and the vehicle balance run once, after the steps (see _check), and
        also before any error raised while stepping is re-raised, so that a
        breach is reported as such and not as what a later step made of it."""
        lay = self.layout
        N = self.grid.n_steps
        dt = lay.dt
        nL = len(lay.links)
        nE = nL + len(lay.origin_ids)
        departing = np.flatnonzero(self.dep_rate.any(axis=0))
        # Before the first departure every curve, queue and count is 0 and no
        # link has an entry composition: the allocation holds that state.
        k0, k_last = (departing[0], departing[-1]) if departing.size else (N, N)
        # one step's element demands (links, then origins) and output supplies
        # (links, then sinks, which take any flow)
        step_flows = np.zeros(self.demand_supply.shape[1:])
        D, S = step_flows[0, :nE], step_flows[1, :lay.n_outputs]
        S[nL:] = math.inf
        link_flows, D_org = step_flows[:, :nL], D[nL:]  # the links' D and S; origin D
        n_moves = len(lay.moves.src)
        queue, n_up, dn = self.queue, self.n_up, self.dn
        latest_org = self.latest[nL:]
        curves, params, end = self.curves, lay.link_params, k0

        k = k0 - 1  # so that k + 1 is the last knot stepped to, also with no step
        try:
            for k in range(k0, N):
                if k == end:  # a block's lagged reads are on the curves as it starts
                    end = lay.block_end[k]
                    block = zip(*_lagged_terms(lay.lags.at(slice(k, end)), curves, params))
                _capped_flows(curves, *next(block), dt, out=link_flows)
                q_k = queue[:, k]
                dep_k = self.dep_rate[:, k]
                # an origin demands its queue and this step's departures; its
                # junction caps what it sends
                np.add(q_k / dt, dep_k, out=D_org)
                latest_org[:] = self.dep_latest[k]
                exit_shares = self._exit_shares(D, k)
                alpha = np.bincount(lay.slot_move, exit_shares, minlength=n_moves)
                # recorded whole, just before the kernel: a step that fails
                # earlier leaves its junction inputs 0, which pass the check
                self.demand_supply[k] = step_flows
                self.alpha[k] = alpha
                f_out, f_in = junctions.resolve_unchecked(lay.moves, D, S, alpha)
                self.f_out[k] = f_out
                self.f_in[k] = f_in
                self._enter(exit_shares, f_out, f_in, k)

                n_up[:, k + 1] = n_up[:, k] + dt * f_in[:nL]
                dn[:, k + 1] = dn[:, k] + dt * f_out
                queue[:, k + 1] = step_origin_queue(q_k, dep_k, f_out[nL:], dt)

                if k >= k_last and self._drained(k + 1):
                    # nothing moves again: hold knot k + 1 to the end
                    for curve in (n_up, dn, queue):
                        curve[:, k + 2:] = curve[:, k + 1, None]
                    break
        except Exception:
            # step k's records are complete or still 0, which pass; its end
            # knot k + 1 may be incomplete
            self._check(k0, k + 1, k)
            raise
        self._check(k0, k + 1, k + 1)
        return self._extract_result(k + 1)

    def _check(self, k0: int, stop: int, last: int) -> None:
        """Check the steps k0 .. stop - 1, all at once: their junction inputs
        are what resolve_network accepts (junctions.input_fault), every
        junction passes on what its inputs send out, to 1e-9, each link's
        entry composition carries its inflow (composition_fault), and at each
        knot k0 + 1 .. last the vehicles departed are stored on links, queued
        or exited, to 1e-6 relative. Writes `balance`, held at knot `last`
        over the rest of the horizon. Raises for the first failing step, in
        stepping order; within step k: its junction inputs, its
        conservation, its composition mass, then the balance at knot k + 1.
        Sums run along a contiguous last axis and bincounts add in element
        order, so every value is bit for bit that of a check of one step."""
        lay = self.layout
        mv = lay.moves
        nJ = mv.n_junctions
        nL = len(lay.links)
        steps = stop - k0
        faults = []  # (step, rank within the step, error)
        demand_supply = self.demand_supply[k0:stop]
        fault = junctions.input_fault(mv, demand_supply[:, 0, :len(mv.in_junction)],
                                      demand_supply[:, 1, :len(mv.out_junction)],
                                      self.alpha[k0:stop])
        if fault is not None:
            faults.append((k0 + fault[0], 0, fault[1]))

        # junction j of step k0 + i is bin i * nJ + j
        offset = nJ * np.arange(steps)[:, None]
        out = np.bincount((mv.in_junction + offset).ravel(), self.f_out[k0:stop].ravel(),
                          minlength=steps * nJ).reshape(steps, nJ)
        residual = np.abs(out - np.bincount((mv.out_junction + offset).ravel(),
                                            self.f_in[k0:stop].ravel(),
                                            minlength=steps * nJ).reshape(steps, nJ))
        # NaN fails too
        breach = (~(residual <= 1e-9 * np.maximum(1.0, out))).ravel().nonzero()[0]
        if breach.size:
            i, j = divmod(breach[0], nJ)
            faults.append((k0 + i, 1, DNLError(
                f"junction {lay.node_ids[j]} conservation residual "
                f"{residual[i, j]:.3e} at step {k0 + i}")))

        fault = composition_fault(self.carried[k0:stop], self.f_in[k0:stop, :nL])
        if fault is not None:
            faults.append((k0 + fault[0], 2, fault[1]))

        knots = slice(k0 + 1, last + 1)
        departed = self.departed_veh[knots]
        stored = np.ascontiguousarray((self.n_up[:, knots] - self.n_dn[:, knots]).T)
        queued = np.ascontiguousarray(self.queue[:, knots].T)
        sunk = self.f_in[k0:last, nL:].sum(axis=1)
        exited = np.cumsum(self.grid.dt_s * sunk)
        balance = self.balance
        balance[knots] = (np.abs(departed - (stored.sum(axis=1) + queued.sum(axis=1) + exited))
                          / np.maximum(1.0, departed))
        balance[last + 1:] = balance[last]
        off = (~(balance[knots] <= 1e-6)).nonzero()[0]  # NaN fails too
        if off.size:
            k = k0 + 1 + off[0]
            faults.append((k - 1, 3, DNLError(
                f"vehicle balance residual {balance[k]:.3e} at step {k}")))
        if faults:
            raise min(faults, key=lambda f: f[:2])[2]

    def _drained(self, k: int) -> bool:
        """Every link holds no vehicles at knot k and no origin queue is left
        that a step would serve: the Forward-Euler update can leave a queue
        of rounding residue (around 1e-16 veh) whose rate q/dt, at or below
        1e-12 veh/s, is not a demand. The origin curves are not compared:
        cumulative departures and service differ by rounding even when the
        queue is exactly 0. With no departures left, nothing moves after a
        drained knot: each link's N_up equals its N_dn there, bit for bit,
        and with both held flat its capped demand min(rate, max(0, N_up(s1)
        - N_dn(t)) / dt), s1 <= t, is 0 up to the rounding of one
        interpolated read, below the 1e-12 veh/s at which an element
        demands flow."""
        return bool((self.n_up[:, k] == self.n_dn[:, k]).all()
                    and (self.queue[:, k] / self.grid.dt_s <= _FLOW_EPS).all())

    # -- travel-time extraction -------------------------------------------------

    def _extract_result(self, K: int) -> DNLResult:
        lay = self.layout
        N = self.grid.n_steps
        tf = self.grid.tf_s
        times = lay.times
        dep_times = times[:N]
        tt = np.full((len(lay.path_ids), N), np.nan)
        # exit times of the previous depth's prefixes; before the first
        # element, the departure times
        prev = dep_times[None]
        # curves are flat from K on: from K, an element whose exit count reaches its
        # entry count less COUNT_TOL (every link, by _drained) passes at free flow
        searched = np.where(self.dn[:, K] >= self.up[:, K] - COUNT_TOL, K, N)
        for depth in lay.depths:
            cur = np.empty((len(depth.parent), N))
            for e, lo, hi in depth.groups:
                m, a = searched[e], prev[depth.parent[lo:hi]]
                cur[lo:hi, :m] = _exit_times(times, self.up[e], self.dn[e], a[:, :m],
                                             lay.min_delay[e], tf)
                cur[lo:hi, m:] = a[:, m:] + lay.min_delay[e]
            cur[cur > tf + 1e-9] = np.nan  # as _exit_times marks an exit past tf
            tt[depth.ends] = cur[depth.end_rows] - dep_times
            prev = cur
        origin_states = {
            o: OriginState(o, self.queue[oi], self.cum_dep[oi], self.cum_srv[oi])
            for o, oi in lay.oidx.items()
        }
        link_states = {
            lid: LinkState(link, self.n_up[li], self.n_dn[li], self.f_in[:, li],
                           self.f_out[:, li], lay.slot_paths[li], self.comp[li])
            for li, (lid, link) in enumerate(zip(lay.link_ids, lay.links))
        }
        return DNLResult(self.grid, lay.path_ids, tt, link_states, origin_states,
                         self.balance, self.departed)


def run_dnl(network: Network, departures: np.ndarray, grid: TimeGrid, *,
            layout: Optional[_Layout] = None) -> DNLResult:
    """Load the network with the given |P| x N departure-rate matrix.

    Rows of `departures` follow the iteration order of `network.paths`.
    Raises DNLError on a wrong shape or on negative or non-finite rates.
    Cells whose trips do not finish within the horizon are flagged in
    `truncated`; the loader itself prints and logs nothing. `layout`, built
    by _Layout(network, grid), lets repeated loadings of one network and grid
    share their set-up; the result does not depend on it.
    """
    return _Loader(network, departures, grid, layout).run()
