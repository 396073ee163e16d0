"""Shared network builders for the test suite."""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from dtaflow import Link, Network, Node, ODPair, Path, TimeGrid, validate_network


def single_link_network(length=1200.0, v=12.0, cap=0.8, demand=100.0,
                        target=600.0) -> Network:
    nodes = [Node("a", origin=True), Node("b", destination=True)]
    links = [Link.create("1", "a", "b", length, v, cap)]
    paths = [Path("p1", ("a", "b"), ("1",))]
    ods = [ODPair("a", "b", demand, target)]
    return validate_network(nodes, links, paths, ods)


def serial_network(specs: Sequence[Tuple[float, float, float]], demand=100.0,
                   target=600.0) -> Network:
    """Chain of links; specs are (length_m, free_speed_mps, capacity_vps)."""
    n = len(specs)
    nodes = [Node("n0", origin=True)]
    nodes += [Node(f"n{i}") for i in range(1, n)]
    nodes += [Node(f"n{n}", destination=True)]
    links = [
        Link.create(str(i + 1), f"n{i}", f"n{i + 1}", L, v, c)
        for i, (L, v, c) in enumerate(specs)
    ]
    paths = [Path("p1", ("n0", f"n{n}"), tuple(str(i + 1) for i in range(n)))]
    ods = [ODPair("n0", f"n{n}", demand, target)]
    return validate_network(nodes, links, paths, ods)


def parallel_network(n_routes=2, length=1200.0, v=12.0, cap=0.8, demand=100.0,
                     target=600.0) -> Network:
    nodes = [Node("a", origin=True), Node("b", destination=True)]
    links = [Link.create(str(i + 1), "a", "b", length, v, cap)
             for i in range(n_routes)]
    paths = [Path(f"p{i + 1}", ("a", "b"), (str(i + 1),)) for i in range(n_routes)]
    ods = [ODPair("a", "b", demand, target)]
    return validate_network(nodes, links, paths, ods)


BRAESS_LINKS = {
    # id: (tail, head, length_m, v_mps, cap_vps)
    "1": ("1", "2", 1200.0, 12.0, 0.9),
    "2": ("1", "3", 2400.0, 12.0, 0.9),
    "3": ("2", "3", 1200.0, 12.0, 0.9),
    "4": ("2", "4", 2400.0, 12.0, 0.9),
    "5": ("3", "4", 1200.0, 12.0, 0.9),
}

BRAESS_PATHS = {
    "p1": (("1", "3"), ("1", "3")),
    "p2": (("1", "3"), ("2",)),
    "p3": (("2", "3"), ("3",)),
    "p4": (("1", "4"), ("1", "4")),
    "p5": (("1", "4"), ("1", "3", "5")),
    "p6": (("1", "4"), ("2", "5")),
    "p7": (("2", "4"), ("4",)),
    "p8": (("2", "4"), ("3", "5")),
}


def braess_components(demands: Optional[Dict[Tuple[str, str], float]] = None,
                      target=2400.0):
    nodes = [
        Node("1", coord=(0.0, 0.0), origin=True),
        Node("2", coord=(1.0, 1.0), origin=True, source_priority=0.4),
        Node("3", coord=(1.0, -1.0), destination=True),
        Node("4", coord=(2.0, 0.0), destination=True),
    ]
    links = [Link.create(i, *spec) for i, spec in BRAESS_LINKS.items()]
    paths = [Path(pid, od, seq) for pid, (od, seq) in BRAESS_PATHS.items()]
    if demands is None:
        demands = {("1", "3"): 250.0, ("2", "3"): 150.0,
                   ("1", "4"): 350.0, ("2", "4"): 250.0}
    ods = [ODPair(o, d, q, target) for (o, d), q in demands.items()]
    return nodes, links, paths, ods


def braess_network(**kwargs) -> Network:
    return validate_network(*braess_components(**kwargs))


def random_network(n_nodes=50, seed=7, k_paths=3, demand=40.0,
                   target=1800.0) -> Network:
    """Deterministic pseudo-random planar-ish network with a handful of
    O-D pairs, for conservation/FIFO sweeps."""
    from dtaflow.fileio import enumerate_paths

    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 10_000, size=(n_nodes, 2))
    n_od = 6
    origin_ids = list(range(n_od))
    links = []
    lid = 0
    # connect each node to its 3 nearest neighbours, both directions
    for i in range(n_nodes):
        d = np.hypot(*(coords - coords[i]).T)
        order = np.argsort(d)
        for j in order[1:4]:
            j = int(j)
            length = max(200.0, float(d[j]))
            v = float(rng.choice([10.0, 13.0, 16.0]))
            cap = float(rng.choice([0.4, 0.6, 0.8]))
            lid += 1
            links.append(Link.create(f"l{lid}", f"n{i}", f"n{j}", length, v, cap))
    # dedupe parallel links between the same node pair
    seen = {}
    for l in links:
        seen.setdefault((l.tail, l.head), l)
    links = list(seen.values())
    # pair each origin with its most distant reachable node, in link hops
    succ: Dict[str, list] = {}
    for l in links:
        succ.setdefault(l.tail, []).append(l.head)
    dest_of = {}
    for o in origin_ids:
        hops = {f"n{o}": 0}
        queue = deque(hops)  # breadth first
        while queue:
            v = queue.popleft()
            for w in succ.get(v, ()):
                if w not in hops:
                    hops[w] = hops[v] + 1
                    queue.append(w)
        dest_of[o] = max(hops, key=lambda n: (hops[n], n))
    nodes = [
        Node(f"n{i}", coord=tuple(coords[i]),
             origin=i in origin_ids,
             destination=f"n{i}" in dest_of.values())
        for i in range(n_nodes)
    ]
    ods = [ODPair(f"n{o}", d, demand, target) for o, d in dest_of.items()]
    paths = enumerate_paths(nodes, links, ods, k_paths)
    return validate_network(nodes, links, paths, ods)


def grid_network(rows=4, cols=6, spacing_m=600.0, v=12.0, cap=0.7,
                 k_paths=12, demand=4.0, target=2000.0) -> Network:
    """Bidirectional rows x cols street grid with all-pairs demand.

    The default 4x6 grid has 24 nodes, 76 directed links, 552 O-D pairs and
    roughly six thousand enumerated paths.
    """
    from dtaflow.fileio import enumerate_paths

    nodes, links, ods = grid_components(rows, cols, spacing_m, v, cap, demand, target)
    paths = enumerate_paths(nodes, links, ods, k_paths)
    return validate_network(nodes, links, paths, ods)


def grid_components(rows=4, cols=6, spacing_m=600.0, v=12.0, cap=0.7,
                    demand=4.0, target=2000.0
                    ) -> Tuple[List[Node], List[Link], List[ODPair]]:
    """The nodes, links and O-D pairs of grid_network."""
    def nid(r, c):
        return f"n{r}_{c}"

    nodes = [
        Node(nid(r, c), coord=(c * spacing_m, r * spacing_m),
             origin=True, destination=True)
        for r in range(rows) for c in range(cols)
    ]
    links = []
    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= rows or c2 >= cols:
                    continue
                a, b = nid(r, c), nid(r2, c2)
                links.append(Link.create(f"{a}>{b}", a, b, spacing_m, v, cap))
                links.append(Link.create(f"{b}>{a}", b, a, spacing_m, v, cap))
    ods = [
        ODPair(o.id, d.id, demand, target)
        for o in nodes for d in nodes if o.id != d.id
    ]
    return nodes, links, ods


def path_matrix(network: Network, grid: TimeGrid,
                rates: Dict[str, float], until_s: Optional[float] = None
                ) -> np.ndarray:
    """Constant departure rates per path, optionally cut off at `until_s`."""
    order = tuple(network.paths)
    h = np.zeros((len(order), grid.n_steps))
    times = grid.times()[: grid.n_steps]
    mask = np.ones_like(times, dtype=bool) if until_s is None else times < until_s
    for pid, r in rates.items():
        h[order.index(pid), mask] = r
    return h
