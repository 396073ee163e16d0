"""Workload inputs, built from a seed by the benchmark itself.

Seed 0 gives the criterion-10 Braess equilibrium problem exactly, and the
criterion-11 4x6 grid network and demands with 4 paths per O-D pair and a
20 s step (criterion 11 has 12 paths and 10 s; see README.md). Any
other seed scales every O-D demand by its own factor drawn uniformly from
[1 - spread, 1 + spread] with numpy's default generator; the network, the
path sets, the time grid and the departure windows stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from dtaflow import fileio, network, solver
from dtaflow.network import Link, Node, ODPair, Path, TimeGrid

# Demand spread per seed. The Braess solve stops on an iterate-movement
# test, so its iteration count (and run time) follows the demands closely:
# +-5% moved it between 52 and 70 iterations, +-1% between 59 and 62.
BRAESS_SPREAD = 0.01
GRID_SPREAD = 0.10


def demand_factors(seed: int, n: int, spread: float) -> np.ndarray:
    if seed == 0:
        return np.ones(n)
    return np.random.default_rng(seed).uniform(1 - spread, 1 + spread, size=n)


# -- braess-due ------------------------------------------------------------------

BRAESS_NODES = [("1", (0.0, 0.0), True, False, 0.5),
                ("2", (1.0, 1.0), True, False, 0.4),
                ("3", (1.0, -1.0), False, True, 0.5),
                ("4", (2.0, 0.0), False, True, 0.5)]
BRAESS_LINKS = {  # id: (tail, head, length_m, v_mps, cap_vps)
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
BRAESS_DEMANDS = {("1", "3"): 25.0, ("2", "3"): 15.0,
                  ("1", "4"): 35.0, ("2", "4"): 25.0}
BRAESS_TARGET_S = 1200.0


@dataclass
class BraessInputs:
    net: network.Network
    grid: TimeGrid
    config: solver.SolverConfig
    demands: Dict[Tuple[str, str], float]
    od_paths: Dict[Tuple[str, str], List[str]]
    path_ff_s: Dict[str, float]  # free-flow time per path, from the link table above
    target_s: float = BRAESS_TARGET_S


def braess_inputs(seed: int) -> BraessInputs:
    f = demand_factors(seed, len(BRAESS_DEMANDS), BRAESS_SPREAD)
    demands = {od: float(q * fi) for (od, q), fi in zip(BRAESS_DEMANDS.items(), f)}
    nodes = [Node(i, coord=c, origin=o, destination=d, source_priority=p)
             for i, c, o, d, p in BRAESS_NODES]
    links = [Link.create(i, *spec) for i, spec in BRAESS_LINKS.items()]
    paths = [Path(pid, od, seq) for pid, (od, seq) in BRAESS_PATHS.items()]
    ods = [ODPair(o, d, q, BRAESS_TARGET_S) for (o, d), q in demands.items()]
    net = network.validate_network(nodes, links, paths, ods)
    grid = TimeGrid(0.0, 2400.0, 5.0)
    config = solver.SolverConfig(alpha=5e-3, epsilon=1e-4, max_iters=200,
                                 initial_window_s=(0.0, 1200.0))
    od_paths = {od: [pid for pid, (pod, _) in BRAESS_PATHS.items() if pod == od]
                for od in demands}
    ff = {pid: sum(BRAESS_LINKS[l][2] / BRAESS_LINKS[l][3] for l in seq)
          for pid, (_, seq) in BRAESS_PATHS.items()}
    return BraessInputs(net, grid, config, demands, od_paths, ff)


# -- grid-replay ------------------------------------------------------------------

GRID_ROWS, GRID_COLS = 4, 6
GRID_SPACING_M, GRID_V_MPS, GRID_CAP_VPS = 600.0, 12.0, 0.7
GRID_K_PATHS = 4
GRID_DEMAND_VEH, GRID_TARGET_S = 4.0, 2000.0
GRID_WINDOW_S = (0.0, 2000.0)


@dataclass
class GridInputs:
    net: network.Network
    grid: TimeGrid
    h: np.ndarray  # |P| x N departure rates, rows in network.paths order
    paths: List[Path]
    ods: List[ODPair]
    nodes: List[Node]
    links: List[Link]


def grid_components(seed: int) -> Tuple[List[Node], List[Link], List[ODPair]]:
    def nid(r, c):
        return f"n{r}_{c}"

    nodes = [Node(nid(r, c), coord=(c * GRID_SPACING_M, r * GRID_SPACING_M),
                  origin=True, destination=True)
             for r in range(GRID_ROWS) for c in range(GRID_COLS)]
    links = []
    for r in range(GRID_ROWS):
        for c in range(GRID_COLS):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= GRID_ROWS or c2 >= GRID_COLS:
                    continue
                a, b = nid(r, c), nid(r2, c2)
                for t, hd in ((a, b), (b, a)):
                    links.append(Link.create(f"{t}>{hd}", t, hd, GRID_SPACING_M,
                                             GRID_V_MPS, GRID_CAP_VPS))
    pairs = [(o.id, d.id) for o in nodes for d in nodes if o.id != d.id]
    f = demand_factors(seed, len(pairs), GRID_SPREAD)
    ods = [ODPair(o, d, float(GRID_DEMAND_VEH * fi), GRID_TARGET_S)
           for (o, d), fi in zip(pairs, f)]
    return nodes, links, ods


def grid_inputs(seed: int) -> GridInputs:
    nodes, links, ods = grid_components(seed)
    paths = fileio.enumerate_paths(nodes, links, ods, GRID_K_PATHS)
    net = network.validate_network(nodes, links, paths, ods)
    grid = TimeGrid(0.0, 4000.0, 20.0)
    h = solver.init_departures(net, grid, window=GRID_WINDOW_S)
    return GridInputs(net, grid, h, paths, ods, nodes, links)


def write_network(nodes: List[Node], links: List[Link], out_path: str) -> None:
    """Network file in the sectioned-CSV format that fileio.load_network reads
    (the package has no writer for it). An empty backward speed means v/3."""
    with open(out_path, "w") as fh:
        fh.write("[nodes]\nid,x,y,origin,destination,source_priority\n")
        for n in nodes:
            x, y = n.coord
            fh.write(f"{n.id},{x!r},{y!r},{int(n.origin)},{int(n.destination)},"
                     f"{n.source_priority!r}\n")
        fh.write("[links]\n"
                 "id,tail,head,length_m,free_speed_mps,capacity_vps,"
                 "backward_speed_mps\n")
        for l in links:
            fh.write(f"{l.id},{l.tail},{l.head},{l.length_m!r},"
                     f"{l.free_speed_mps!r},{l.capacity_vps!r},\n")


def write_demand(ods: List[ODPair], out_path: str) -> None:
    with open(out_path, "w") as fh:
        fh.write("[demand]\norigin,destination,demand_veh,target_arrival_s\n")
        for od in ods:
            fh.write(f"{od.origin},{od.destination},{od.demand_veh!r},"
                     f"{od.target_arrival_s!r}\n")
