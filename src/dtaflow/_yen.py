"""Yen's k shortest loopless paths, as networkx 3.6 runs them.

fileio.enumerate_paths is the only caller. It imports this module on its
first call, so that commands that enumerate no paths do not load it, and
runs the search in forked shares of the O-D pairs, one per usable CPU.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Sequence, Tuple

Adjacency = Dict[str, List[Tuple[str, float, Tuple[str, str]]]]


def adjacency(node_ids: Sequence[str], cost: Dict[Tuple[str, str], float]
              ) -> Tuple[Adjacency, Adjacency]:
    """succ and pred: for each node, its (neighbour, time, (tail, head))
    entries in the order of cost's links, which sets the order of ties. The
    nodes are node_ids, then each link end not among them, as networkx's
    DiGraph.add_edge adds it."""
    succ: Adjacency = {v: [] for v in node_ids}
    pred: Adjacency = {v: [] for v in node_ids}
    for (t, hd), w in cost.items():
        for v in (t, hd):
            if v not in succ:
                succ[v], pred[v] = [], []
        succ[t].append((hd, w, (t, hd)))
        pred[hd].append((t, w, (t, hd)))
    return succ, pred


def shortest_simple_paths(succ: Adjacency, pred: Adjacency,
                          cost: Dict[Tuple[str, str], float], source: str, target: str):
    """The loopless paths from source to target, as node lists, shortest
    first; none when either node is not in the graph. Yen's method (Yen
    1971, Management Science 17(11)) step for step as
    networkx.shortest_simple_paths runs it, so that ties come out in the
    same order. A path found twice is queued once, and may be queued again
    after it is taken."""
    if source not in succ or target not in succ:
        return
    found: List[List[str]] = []  # Yen's list A
    queue: List[tuple] = []  # list B, a heap of (cost, counter, path)
    queued = set()
    counter = itertools.count()

    def push(length, path):
        if tuple(path) not in queued:
            heapq.heappush(queue, (length, next(counter), path))
            queued.add(tuple(path))

    prev_path = None
    while True:
        if not prev_path:
            first = _bidirectional_dijkstra(succ, pred, source, target, set(), set())
            if first is None:
                return
            push(*first)
        else:
            ignore_nodes: set = set()
            ignore_edges: set = set()
            root_length = 0
            for i in range(1, len(prev_path)):
                root = prev_path[:i]
                if i > 1:  # left to right, as sum() rounds before Python 3.12
                    root_length += cost[prev_path[i - 2], prev_path[i - 1]]
                for path in found:
                    if path[:i] == root:
                        ignore_edges.add((path[i - 1], path[i]))
                spur = _bidirectional_dijkstra(succ, pred, root[-1], target,
                                               ignore_nodes, ignore_edges)
                if spur is not None:
                    push(root_length + spur[0], root[:-1] + spur[1])
                ignore_nodes.add(root[-1])
        if not queue:
            return
        path = heapq.heappop(queue)[2]
        queued.remove(tuple(path))
        yield path
        found.append(path)
        prev_path = path


def _bidirectional_dijkstra(succ: Adjacency, pred: Adjacency, source: str, target: str,
                            ignore_nodes: set, ignore_edges: set):
    """(length, nodes) of a shortest path from source to target that avoids
    ignore_nodes and the (tail, head) pairs in ignore_edges, or None: the
    search of networkx's simple_paths._bidirectional_dijkstra, its heaps,
    direction changes and meeting test included. Each direction keeps a
    back-pointer per node in place of a path list; a node's pointer is set
    only while it is unsettled and points at a settled node, so the path
    read from the pointers is the list the search would have copied."""
    if source in ignore_nodes or target in ignore_nodes:
        return None
    if source == target:
        return 0, [source]
    dists: Tuple[dict, dict] = ({}, {})  # settled distances
    seen: Tuple[dict, dict] = ({source: 0}, {target: 0})
    back: Tuple[dict, dict] = ({source: None}, {target: None})
    fringe: Tuple[list, list] = ([], [])
    c = itertools.count()
    heapq.heappush(fringe[0], (0, next(c), source))
    heapq.heappush(fringe[1], (0, next(c), target))
    neighs = (succ, pred)
    finaldist = None
    finalpath: List[str] = []
    dir = 1
    while fringe[0] and fringe[1]:
        dir = 1 - dir
        dist, _, v = heapq.heappop(fringe[dir])
        if v in dists[dir]:
            continue
        dists[dir][v] = dist
        if v in dists[1 - dir]:
            return finaldist, finalpath
        settled, near, far = dists[dir], seen[dir], seen[1 - dir]
        for w, weight, edge in neighs[dir][v]:
            # times are not negative, so a settled node is never improved
            if w in settled or w in ignore_nodes or edge in ignore_edges:
                continue
            vw_length = dist + weight
            if w not in near or vw_length < near[w]:
                near[w] = vw_length
                heapq.heappush(fringe[dir], (vw_length, next(c), w))
                back[dir][w] = v
                if w in far:
                    total = seen[0][w] + seen[1][w]
                    if not finalpath or finaldist > total:
                        finaldist = total
                        finalpath = _walk(back[0], w)[::-1] + _walk(back[1], w)[1:]
    return None


def _walk(back: dict, v: str) -> List[str]:
    """v and the nodes its back-pointers lead to, up to the search's root."""
    out = [v]
    while back[v] is not None:
        v = back[v]
        out.append(v)
    return out
