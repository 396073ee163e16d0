"""Time-stepping network loading engine.

Link dynamics are tracked purely through cumulative boundary counts
(entering N_up, exiting N_dn). Each origin is a point queue whose entry
and exit curves are the cumulative departures and service; it feeds its
node's junction like one more incoming link. Demands and supplies come
from lagged lookups on the link curves, junction flows from the pluggable
junction model, path labels from FIFO compositions at every element's
exit, and path travel times from chained horizontal differences between
the curves (origin queue first, then links in path order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .junctions import get_junction_model
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


def _read(times: np.ndarray, curves: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row i of `curves` read at the times s[..., i], with np.interp's
    arithmetic: exact at knots, held at the end values outside the grid."""
    j = np.minimum(np.maximum(np.searchsorted(times, s, side="right") - 1, 0),
                   len(times) - 2)
    rows = np.arange(len(curves))
    c0 = curves[rows, j]
    tj = times[j]
    v = (curves[rows, j + 1] - c0) / (times[j + 1] - tj) * (s - tj) + c0
    return np.where(s <= tj, c0, np.where(s >= times[-1], curves[:, -1], v))


def _link_params(links: Sequence[Link]) -> np.ndarray:
    """Per-link rows of (free-flow time, backward-wave time, capacity,
    storage), as a 4 x L array."""
    return np.array([(l.free_flow_time_s, l.length_m / l.backward_speed_mps,
                      l.capacity_vps, l.storage_veh) for l in links]).T


def _boundary_flows(times: np.ndarray, dt_s: float, n_up: np.ndarray,
                    n_dn: np.ndarray, k, params: np.ndarray):
    """(demand, supply, capped demand, capped supply) at knot k, time t, of
    the links whose counts are the rows of n_up/n_dn; params as from
    _link_params.
    k is a step index or an array of them; each result has k's shape
    followed by one entry per link.

    A boundary rate at the lagged time s is the average slope of its curve
    over [s, s1], s1 = min(s + dt, t): on a knot the recorded per-step rate,
    mid-step a blend of the two neighbouring steps (snapping to one can stall
    flow by a full step when a lag is not a multiple of dt), and never past
    the knots written so far. The caps are what one step can pass: vehicles
    at the exit by s1, room under the storage bound at s1.
    """
    capacity, storage = params[2:]
    t = times[k][..., None]
    s_up, s_dn = t - params[0], t - params[1]  # lagged times of the two curves
    s1_up, s1_dn = np.minimum(s_up + dt_s, t), np.minimum(s_dn + dt_s, t)
    up, up1 = _read(times, n_up, np.array([s_up, s1_up]))
    dn, dn1 = _read(times, n_dn, np.array([s_dn, s1_dn]))
    up_k, dn_k = n_up.T[k], n_dn.T[k]
    demand = np.where(s_up < times[0], 0.0,
                      np.where(up <= dn_k + COUNT_TOL,
                               (up1 - up) / (s1_up - s_up), capacity))
    supply = np.where(up_k >= dn + storage - COUNT_TOL,
                      (dn1 - dn) / (s1_dn - s_dn), capacity)
    return (demand, supply,
            np.minimum(demand, np.maximum(0.0, up1 - dn_k) / dt_s),
            np.minimum(supply, np.maximum(0.0, dn1 + storage - up_k) / dt_s))


def _one_link(link: Link, state: LinkState, grid: TimeGrid, t: float):
    k = int(round((t - grid.t0_s) / grid.dt_s))  # reads are at the nearest knot
    return _boundary_flows(grid.times(), grid.dt_s, state.n_up[None],
                           state.n_dn[None], k, _link_params([link]))


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


def propagate_composition(mix: np.ndarray,
                          total_inflow_vps: float) -> Optional[np.ndarray]:
    """Entry shares of a link's paths from `mix`, the rate each of them
    receives from the feeders. None when no feeder carries flow to label."""
    carried = mix > 0
    if not carried.any():
        return None
    total = mix[carried].sum()
    if not math.isclose(total, total_inflow_vps, rel_tol=1e-6, abs_tol=1e-12):
        raise DNLError(
            f"composition mass {total} does not match inflow {total_inflow_vps}"
        )
    return mix / total


# -- engine --------------------------------------------------------------------


@dataclass
class _Junction:
    node_id: str
    inputs: np.ndarray  # elements: incoming links, then the origin queue if any
    out_links: np.ndarray  # out-slots: outgoing links, then n_links for the sink
    priorities: np.ndarray  # merge weights aligned with inputs
    # per out-slot, (input position, source slots, destination slots) of the
    # paths that make that movement; empty for the sink
    moves: List[List[Tuple[int, np.ndarray, np.ndarray]]]


class _Loader:
    """One loading of a network with a |P| x N departure-rate matrix.

    The junction inputs are uniform elements: the links (0 .. L-1), then one
    origin queue per origin (L + i for origin_ids[i]). Element e has an
    entry curve up[e] (N_up, or the cumulative departures), an exit curve
    dn[e] (N_dn, or the cumulative service), and feeds the junction at its
    downstream node.

    route[e, p] is the out-slot, at e's downstream junction, of the movement
    path p makes there (-1 where p does not use e). A node's out-slots are
    its outgoing links in `network.outgoing` order, then the sink.

    Entry compositions are dense over each element's own paths: slot_paths[e]
    lists them in ascending order, slot_route[e] their out-slots, comp[e][k]
    their shares in the vehicles entering in step k, and entered[e, k] the
    latest step <= k that has a composition (-1 if none). A link's fill in
    as it loads; an origin's are the path shares of its departures.
    """

    def __init__(self, network: Network, departures: np.ndarray, grid: TimeGrid):
        self.net = network
        self.grid = grid
        self.model = get_junction_model("fifo_priority")

        self.path_ids = tuple(network.paths)
        self.link_ids = tuple(network.links)
        self.lidx = {l: i for i, l in enumerate(self.link_ids)}
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

        self.origin_ids = sorted({network.paths[p].od[0] for p in self.path_ids})
        self.oidx = {o: i for i, o in enumerate(self.origin_ids)}
        nO = len(self.origin_ids)

        route = np.full((nL + nO, nP), -1, dtype=np.int64)
        self.path_elems: List[List[int]] = []  # origin queue, then links
        for p, pid in enumerate(self.path_ids):
            path = network.paths[pid]
            elems = [nL + self.oidx[path.od[0]]] + [self.lidx[l] for l in path.links]
            nodes = [path.od[0]] + [network.links[l].head for l in path.links]
            for e, node, nxt in zip(elems, nodes, path.links + (None,)):
                route[e, p] = (network.outgoing[node] + (None,)).index(nxt)
            self.path_elems.append(elems)
        self.slot_paths = [np.flatnonzero(r >= 0) for r in route]
        self.slot_route = [r[paths] for r, paths in zip(route, self.slot_paths)]

        self.junctions = self._build_junctions()

        self.up = np.zeros((nL + nO, N + 1))
        self.dn = np.zeros((nL + nO, N + 1))
        self.n_up, self.cum_dep = self.up[:nL], self.up[nL:]
        self.n_dn, self.cum_srv = self.dn[:nL], self.dn[nL:]
        self.inflow = np.zeros((nL, N))
        self.outflow = np.zeros((nL, N))
        self.comp = [np.zeros((N, len(paths))) for paths in self.slot_paths]
        self.entered = np.full((nL + nO, N), -1, dtype=np.int64)

        with np.errstate(over="ignore"):
            self.dep_rate = np.array([h[paths].sum(axis=0)
                                      for paths in self.slot_paths[nL:]]).reshape(nO, N)
            self.cum_dep[:, 1:] = np.cumsum(self.dep_rate, axis=1) * grid.dt_s
        for oi in np.flatnonzero(~np.isfinite(self.cum_dep[:, -1])):
            raise DNLError(f"cumulative departures at origin {self.origin_ids[oi]} "
                           "are not finite: departure rates too large")
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

        self.exited = np.zeros(N + 1)
        self.balance = np.zeros(N + 1)

    def _build_junctions(self) -> List[_Junction]:
        net = self.net
        nL = len(self.links)
        out: List[_Junction] = []
        for nid, node in net.nodes.items():
            inputs = [self.lidx[l] for l in net.incoming[nid]]
            if nid in self.oidx:
                inputs.append(nL + self.oidx[nid])
            out_links = [self.lidx[l] for l in net.outgoing[nid]]
            if node.destination:
                out_links.append(nL)
            if not inputs or not out_links:
                continue
            pri_map = net.priorities[nid]
            pri = [pri_map[l] for l in net.incoming[nid]]
            if node.origin:
                pri.append(pri_map[SOURCE_KEY])
            pri = np.asarray(pri, dtype=float)
            pri = pri / pri.sum()
            if len(pri) > len(inputs):  # an origin that no path leaves
                pri = pri[:-1]
                total = pri.sum()
                pri = pri / total if total > 0 else np.full(len(pri), 1.0 / len(pri))
            moves = [[] for _ in out_links]
            for si, e in enumerate(inputs):
                for sj, lj in enumerate(out_links):
                    src = np.flatnonzero(self.slot_route[e] == sj)
                    if lj < nL and src.size:
                        moves[sj].append((si, src, np.searchsorted(
                            self.slot_paths[lj], self.slot_paths[e][src])))
            out.append(_Junction(nid, np.array(inputs), np.array(out_links), pri,
                                 moves))
        return out

    # -- per-step machinery ---------------------------------------------------

    def _comp_at_count(self, e: int, k: int) -> Optional[np.ndarray]:
        """Composition of the vehicles now at the exit of element e: that of
        the latest step, up to the one they entered in, that has one. During
        step k a link's entered[e, k] still names an earlier step."""
        idx = int(np.searchsorted(self.up[e, : k + 1],
                                  self.dn[e, k] + COUNT_TOL, side="right")) - 1
        j = self.entered[e, idx] if idx >= 0 else -1
        return self.comp[e][j] if j >= 0 else None

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
            D_eff, S_eff = _boundary_flows(self.times, dt, self.n_up, self.n_dn,
                                           k, self.link_params)[2:]
            q_k = self.queue[:, k]
            dep_k = self.dep_rate[:, k]
            D_org = np.minimum(origin_demand(q_k, dep_k, self.big_m), q_k / dt + dep_k)
            D = np.append(D_eff, D_org)
            S = np.append(S_eff, math.inf)  # the sink takes any flow

            comps: List[Optional[np.ndarray]] = [None] * len(D)
            for e in np.flatnonzero(D > _FLOW_EPS):
                comps[e] = self._comp_at_count(e, k)
                if comps[e] is None:
                    if e < nL:
                        raise DNLError(
                            f"link {self.link_ids[e]} demands flow at step {k} "
                            "but carries no labeled vehicles"
                        )
                    D[e] = 0.0  # departures too small to label stay queued

            outflow = np.zeros(len(D))  # per element: link outflow, origin service
            inflow = np.zeros(nL + 1)  # per link, then the sinks
            for J in self.junctions:
                demands = D[J.inputs]
                if demands.sum() <= _FLOW_EPS:
                    continue
                n = len(J.out_links)
                alpha = np.zeros((len(J.inputs), n))
                for si, e in enumerate(J.inputs):
                    if comps[e] is not None:
                        alpha[si] = np.bincount(self.slot_route[e], weights=comps[e],
                                                minlength=n)

                f_out, f_in = self.model(demands, S[J.out_links], J.priorities, alpha)

                residual = abs(f_out.sum() - f_in.sum())
                if not residual <= 1e-9 * max(1.0, f_out.sum()):  # NaN fails too
                    raise DNLError(
                        f"junction {J.node_id} conservation residual "
                        f"{residual:.3e} at step {k}"
                    )
                outflow[J.inputs] = f_out
                inflow[J.out_links] += f_in

                # entrance compositions of the outgoing links
                for sj, lj in enumerate(J.out_links):
                    if lj == nL or f_in[sj] <= _FLOW_EPS:
                        continue
                    mix = np.zeros(len(self.slot_paths[lj]))
                    for si, src, dst in J.moves[sj]:
                        if f_out[si] > _FLOW_EPS:
                            mix[dst] += f_out[si] * comps[J.inputs[si]][src]
                    shares = propagate_composition(mix, f_in[sj])
                    if shares is not None:
                        self.comp[lj][k] = shares
                        self.entered[lj, k] = k

            self.n_up[:, k + 1] = self.n_up[:, k] + dt * inflow[:nL]
            self.dn[:, k + 1] = self.dn[:, k] + dt * outflow
            self.inflow[:, k] = inflow[:nL]
            self.outflow[:, k] = outflow[:nL]
            self.queue[:, k + 1] = step_origin_queue(q_k, dep_k, outflow[nL:], dt)
            self.exited[k + 1] = self.exited[k] + dt * inflow[nL]

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
        D_eff = _boundary_flows(self.times, dt, self.n_up, self.n_dn,
                                np.arange(k, min(reach, N)), self.link_params)[2]
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
        for p, elems in enumerate(self.path_elems):
            a = dep_times
            for e in elems:
                a = _exit_times(self.times, self.up[e], self.dn[e], a,
                                self.min_delay[e], tf)
            tt[p] = a - dep_times
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
                         self.balance, np.isnan(tt))


def run_dnl(network: Network, departures: np.ndarray, grid: TimeGrid) -> DNLResult:
    """Load the network with the given |P| x N departure-rate matrix.

    Rows of `departures` follow the iteration order of `network.paths`.
    Raises DNLError on a wrong shape or on negative or non-finite rates.
    Cells whose trips do not finish within the horizon are flagged in
    `truncated`; the loader itself prints and logs nothing.
    """
    return _Loader(network, departures, grid).run()
