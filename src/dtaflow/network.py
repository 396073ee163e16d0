"""Domain types for road networks, paths and O-D demand.

All quantities are kept in SI-ish traffic units internally: meters, seconds,
vehicles. Every link carries a triangular flow-density relation with free-flow
slope ``v`` and congested slope ``-w``; the critical and jam densities are
derived from (v, w, C) rather than stored independently, so the two branches
are consistent by construction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class NetworkError(ValueError):
    """Raised when network data violates a structural or physical invariant."""


DEFAULT_SOURCE_PRIORITY = 0.5


def _positive(x: float) -> bool:
    """x is a finite number above zero (False for NaN)."""
    return math.isfinite(x) and x > 0


def derive_fd(
    length_m: float,
    free_speed_mps: float,
    capacity_vps: float,
    backward_speed_mps: Optional[float] = None,
) -> Tuple[float, float, float]:
    """Derive (w, critical density, jam density) for a triangular diagram.

    When the backward wave speed is not given it defaults to v/3, the
    convention used for single-parameter link tables.
    """
    if not all(_positive(x) for x in (length_m, free_speed_mps, capacity_vps)):
        raise NetworkError(
            "nonpositive or non-finite physical parameter: "
            f"L={length_m}, v={free_speed_mps}, C={capacity_vps}"
        )
    if backward_speed_mps is None:
        w = free_speed_mps / 3.0
    else:
        if not _positive(backward_speed_mps):
            raise NetworkError(
                f"nonpositive or non-finite physical parameter: w={backward_speed_mps}")
        w = backward_speed_mps
    rho_c = capacity_vps / free_speed_mps
    rho_jam = rho_c * (1.0 + free_speed_mps / w)
    return w, rho_c, rho_jam


@dataclass(frozen=True)
class Link:
    """Directed road segment with a triangular fundamental diagram."""

    id: str
    tail: str
    head: str
    length_m: float
    free_speed_mps: float
    capacity_vps: float
    backward_speed_mps: float
    critical_density_vpm: float = field(init=False)
    jam_density_vpm: float = field(init=False)

    def __post_init__(self):
        w, rho_c, rho_jam = derive_fd(
            self.length_m,
            self.free_speed_mps,
            self.capacity_vps,
            self.backward_speed_mps,
        )
        object.__setattr__(self, "critical_density_vpm", rho_c)
        object.__setattr__(self, "jam_density_vpm", rho_jam)

    @classmethod
    def create(
        cls,
        id: str,
        tail: str,
        head: str,
        length_m: float,
        free_speed_mps: float,
        capacity_vps: float,
        backward_speed_mps: Optional[float] = None,
    ) -> "Link":
        w, _, _ = derive_fd(length_m, free_speed_mps, capacity_vps, backward_speed_mps)
        return cls(id, tail, head, length_m, free_speed_mps, capacity_vps, w)

    @property
    def free_flow_time_s(self) -> float:
        return self.length_m / self.free_speed_mps

    @property
    def storage_veh(self) -> float:
        """Maximum number of vehicles the link can hold (jam density x length)."""
        return self.jam_density_vpm * self.length_m


@dataclass(frozen=True)
class Node:
    id: str
    coord: Optional[Tuple[float, float]] = None
    origin: bool = False
    destination: bool = False
    source_priority: float = DEFAULT_SOURCE_PRIORITY

    def __post_init__(self):
        if not (0.0 <= self.source_priority <= 1.0):
            raise NetworkError(
                f"source_priority of node {self.id} must lie in [0, 1], "
                f"got {self.source_priority}"
            )


@dataclass(frozen=True)
class Path:
    id: str
    od: Tuple[str, str]
    links: Tuple[str, ...]

    def __post_init__(self):
        # report names a file after a path id
        if not self.id or os.sep in self.id or (os.altsep and os.altsep in self.id):
            raise NetworkError(f"path id {self.id!r} is empty or holds a path separator")
        if len(self.links) == 0:
            raise NetworkError(f"path {self.id} has no links")
        if len(set(self.links)) != len(self.links):
            raise NetworkError(f"path {self.id} repeats a link (must be simple)")


@dataclass(frozen=True)
class ODPair:
    origin: str
    destination: str
    demand_veh: float
    target_arrival_s: float
    paths: Tuple[str, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.demand_veh) and self.demand_veh >= 0
                and math.isfinite(self.target_arrival_s)):
            raise NetworkError(
                f"negative or non-finite demand {self.demand_veh} or target "
                f"{self.target_arrival_s} for O-D ({self.origin}, {self.destination})"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of the horizon [t0, tf] with step dt."""

    t0_s: float
    tf_s: float
    dt_s: float

    def __post_init__(self):
        if not (math.isfinite(self.t0_s) and _positive(self.tf_s - self.t0_s)):
            raise NetworkError(f"time horizon [{self.t0_s}, {self.tf_s}] must be "
                               "finite with tf > t0")
        if not _positive(self.dt_s):
            raise NetworkError(f"time step {self.dt_s} must be positive and finite")

    @property
    def n_steps(self) -> int:
        return int(math.ceil((self.tf_s - self.t0_s) / self.dt_s - 1e-12))

    def times(self) -> np.ndarray:
        return self.t0_s + self.dt_s * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Network:
    """Validated, cross-indexed network bundle. Immutable after construction."""

    nodes: Dict[str, Node]
    links: Dict[str, Link]
    paths: Dict[str, Path]
    od_pairs: Tuple[ODPair, ...]
    incoming: Dict[str, Tuple[str, ...]]  # node id -> incoming link ids
    outgoing: Dict[str, Tuple[str, ...]]  # node id -> outgoing link ids
    # node id -> {link id or "": merge weight}, summing to 1 at every node
    # that some link enters or some path leaves; "" is the source of an
    # origin that a path leaves. The loader reads these as they are.
    priorities: Dict[str, Dict[str, float]]

    @property
    def min_free_flow_time_s(self) -> float:
        return min(l.free_flow_time_s for l in self.links.values())

    @cached_property
    def od_rows(self) -> Tuple[Tuple[ODPair, np.ndarray], ...]:
        """Each O-D pair, in `od_pairs` order, with the ascending rows of
        its paths in a |P|-row array ordered as `paths`. Built once per
        network; the rows do not depend on the order the pair lists them."""
        row = {pid: i for i, pid in enumerate(self.paths)}
        return tuple((od, np.array(sorted(row[p] for p in od.paths), dtype=np.intp))
                     for od in self.od_pairs)


SOURCE_KEY = ""  # priority-map key for the source of an origin that a path leaves


def _node_priorities(node: Node, incoming: Sequence[Link], source: bool) -> Dict[str, float]:
    """Per-node merge priorities. Where a path leaves the node (`source`),
    its source keeps the configured share, all of it when no link enters;
    the incoming links split the rest by capacity. At any other node,
    origins included, they split the whole share."""
    if source and not incoming:
        return {SOURCE_KEY: 1.0}
    pri = {SOURCE_KEY: node.source_priority} if source else {}
    rest = 1.0 - node.source_priority if source else 1.0
    cap_total = sum(l.capacity_vps for l in incoming)
    for l in incoming:
        pri[l.id] = rest * l.capacity_vps / cap_total
    return pri


def validate_network(
    nodes: Sequence[Node],
    links: Sequence[Link],
    paths: Sequence[Path],
    od_pairs: Sequence[ODPair],
) -> Network:
    """Cross-reference and validate raw records into an immutable bundle.

    Idempotent: validating the components of a validated network yields an
    identical bundle.
    """
    node_map: Dict[str, Node] = {}
    for n in nodes:
        if n.id in node_map:
            raise NetworkError(f"duplicate node id {n.id}")
        node_map[n.id] = n

    link_map: Dict[str, Link] = {}
    for l in links:
        if l.id in link_map:
            raise NetworkError(f"duplicate link id {l.id}")
        if l.tail not in node_map or l.head not in node_map:
            raise NetworkError(
                f"dangling link endpoint on link {l.id}: {l.tail} -> {l.head}"
            )
        if l.tail == l.head:
            raise NetworkError(f"link {l.id} is a self-loop")
        link_map[l.id] = l

    incoming: Dict[str, List[str]] = {n: [] for n in node_map}
    outgoing: Dict[str, List[str]] = {n: [] for n in node_map}
    for l in link_map.values():
        outgoing[l.tail].append(l.id)
        incoming[l.head].append(l.id)

    od_index: Dict[Tuple[str, str], ODPair] = {}
    for od in od_pairs:
        if od.origin not in node_map or od.destination not in node_map:
            raise NetworkError(
                f"O-D pair ({od.origin}, {od.destination}) references unknown node"
            )
        if not node_map[od.origin].origin:
            raise NetworkError(f"node {od.origin} is not flagged as an origin")
        if not node_map[od.destination].destination:
            raise NetworkError(f"node {od.destination} is not flagged as a destination")
        key = (od.origin, od.destination)
        if key in od_index:
            raise NetworkError(f"duplicate O-D pair {key}")
        od_index[key] = od

    path_map: Dict[str, Path] = {}
    od_paths: Dict[Tuple[str, str], List[str]] = {k: [] for k in od_index}
    for p in paths:
        if p.id in path_map:
            raise NetworkError(f"duplicate path id {p.id}")
        for lid in p.links:
            if lid not in link_map:
                raise NetworkError(f"path {p.id} references unknown link {lid}")
        for a, b in zip(p.links, p.links[1:]):
            if link_map[a].head != link_map[b].tail:
                raise NetworkError(
                    f"disconnected path {p.id}: link {a} (head "
                    f"{link_map[a].head}) does not feed link {b} "
                    f"(tail {link_map[b].tail})"
                )
        if p.od not in od_index:
            raise NetworkError(f"path {p.id} references unknown O-D pair {p.od}")
        if link_map[p.links[0]].tail != p.od[0]:
            raise NetworkError(
                f"path {p.id} does not start at origin {p.od[0]} "
                f"(starts at {link_map[p.links[0]].tail})"
            )
        if link_map[p.links[-1]].head != p.od[1]:
            raise NetworkError(
                f"path {p.id} does not end at destination {p.od[1]} "
                f"(ends at {link_map[p.links[-1]].head})"
            )
        path_map[p.id] = p
        od_paths[p.od].append(p.id)

    resolved_ods: List[ODPair] = []
    for key, od in od_index.items():
        pid_tuple = tuple(od_paths[key])
        if od.paths and tuple(od.paths) != pid_tuple:
            # caller pinned an explicit path set; it must match the path table
            if set(od.paths) != set(pid_tuple):
                raise NetworkError(
                    f"path/O-D mismatch for {key}: declared {od.paths}, "
                    f"found {pid_tuple}"
                )
            pid_tuple = tuple(od.paths)
        if od.demand_veh > 0 and not pid_tuple:
            raise NetworkError(f"O-D pair {key} has demand but no paths")
        resolved_ods.append(
            ODPair(od.origin, od.destination, od.demand_veh, od.target_arrival_s, pid_tuple)
        )

    sources = {p.od[0] for p in path_map.values()}
    priorities = {
        nid: _node_priorities(node_map[nid], [link_map[l] for l in incoming[nid]],
                              nid in sources)
        for nid in node_map
    }
    for nid, pri in priorities.items():
        if pri and abs(sum(pri.values()) - 1.0) > 1e-12:
            raise NetworkError(f"priorities at node {nid} do not sum to 1")

    return Network(
        nodes=node_map,
        links=link_map,
        paths=path_map,
        od_pairs=tuple(resolved_ods),
        incoming={k: tuple(v) for k, v in incoming.items()},
        outgoing={k: tuple(v) for k, v in outgoing.items()},
        priorities=priorities,
    )
