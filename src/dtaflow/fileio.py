"""Text-based data files and result export.

Formats (normative for this package; the bundled Braess fixture is the
reference example):

network file, sectioned CSV::

    [nodes]
    id,x,y,origin,destination,source_priority
    1,0.0,0.0,1,0,0.5
    [links]
    id,tail,head,length_m,free_speed_mps,capacity_vps,backward_speed_mps
    1,1,2,1200,12,0.8,

paths file::

    [paths]
    id,origin,destination,links
    p1,1,3,1|3

demand file::

    [demand]
    origin,destination,demand_veh,target_arrival_s

departures file: plain CSV, one row per path: path id followed by N rates.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import Link, NetworkError, Node, ODPair, Path


class ParseError(ValueError):
    """Raised for malformed data files, with file/line context."""


NODE_FIELDS = ["id", "x", "y", "origin", "destination", "source_priority"]
LINK_FIELDS = ["id", "tail", "head", "length_m", "free_speed_mps",
               "capacity_vps", "backward_speed_mps"]
PATH_FIELDS = ["id", "origin", "destination", "links"]
DEMAND_FIELDS = ["origin", "destination", "demand_veh", "target_arrival_s"]
OD_GAP_FIELDS = ["origin", "destination", "gap_s"]


def _read_sections(path: str) -> Dict[str, List[Tuple[int, List[str]]]]:
    sections: Dict[str, List[Tuple[int, List[str]]]] = {}
    current = None
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections[current] = []
                continue
            if current is None:
                raise ParseError(f"{path}:{lineno}: data before any [section]")
            row = next(csv.reader([line]))
            sections[current].append((lineno, [c.strip() for c in row]))
    return sections


def _parse_table(path: str, rows: List[Tuple[int, List[str]]],
                 fields: List[str]) -> List[Dict[str, str]]:
    if not rows:
        return []
    lineno, header = rows[0]
    if header != fields:
        unknown = [c for c in header if c not in fields]
        if unknown:
            raise ParseError(f"{path}:{lineno}: unknown field(s) {unknown}")
        raise ParseError(
            f"{path}:{lineno}: header {header} does not match expected {fields}"
        )
    out = []
    for lineno, row in rows[1:]:
        if len(row) != len(fields):
            raise ParseError(
                f"{path}:{lineno}: expected {len(fields)} columns, got {len(row)}"
            )
        out.append({f: v for f, v in zip(fields, row)})
    return out


def _to_float(path: str, name: str, value: str, allow_empty=False,
              default=None) -> Optional[float]:
    if value == "" and allow_empty:
        return default
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"{path}: field {name} is not numeric: {value!r}") from None
    if not math.isfinite(x):
        raise ParseError(f"{path}: field {name} is not finite: {value!r}")
    return x


def _to_bool(path: str, name: str, value: str) -> bool:
    if value in ("0", "1"):
        return value == "1"
    raise ParseError(f"{path}: field {name} must be 0 or 1, got {value!r}")


def load_network(path: str) -> Tuple[List[Node], List[Link]]:
    """Parse the nodes/links tables of a network file into raw records."""
    sections = _read_sections(path)
    if "nodes" not in sections or "links" not in sections:
        raise ParseError(f"{path}: network file needs [nodes] and [links] sections")
    extra = set(sections) - {"nodes", "links"}
    if extra:
        raise ParseError(f"{path}: unknown section(s) {sorted(extra)}")

    nodes: List[Node] = []
    seen = set()
    for rec in _parse_table(path, sections["nodes"], NODE_FIELDS):
        if rec["id"] in seen:
            raise ParseError(f"{path}: duplicate node id {rec['id']}")
        seen.add(rec["id"])
        x = _to_float(path, "x", rec["x"], allow_empty=True)
        y = _to_float(path, "y", rec["y"], allow_empty=True)
        coord = (x, y) if x is not None and y is not None else None
        nodes.append(Node(
            id=rec["id"],
            coord=coord,
            origin=_to_bool(path, "origin", rec["origin"]),
            destination=_to_bool(path, "destination", rec["destination"]),
            source_priority=_to_float(path, "source_priority",
                                      rec["source_priority"],
                                      allow_empty=True, default=0.5),
        ))

    links: List[Link] = []
    seen = set()
    for rec in _parse_table(path, sections["links"], LINK_FIELDS):
        if rec["id"] in seen:
            raise ParseError(f"{path}: duplicate link id {rec['id']}")
        seen.add(rec["id"])
        try:
            links.append(Link.create(
                id=rec["id"],
                tail=rec["tail"],
                head=rec["head"],
                length_m=_to_float(path, "length_m", rec["length_m"]),
                free_speed_mps=_to_float(path, "free_speed_mps",
                                         rec["free_speed_mps"]),
                capacity_vps=_to_float(path, "capacity_vps", rec["capacity_vps"]),
                backward_speed_mps=_to_float(path, "backward_speed_mps",
                                             rec["backward_speed_mps"],
                                             allow_empty=True),
            ))
        except NetworkError as e:
            raise ParseError(f"{path}: link {rec['id']}: {e}") from e
    if not links:
        raise ParseError(f"{path}: empty network (no links)")
    return nodes, links


def load_paths(path: str) -> List[Path]:
    sections = _read_sections(path)
    if "paths" not in sections:
        raise ParseError(f"{path}: missing [paths] section")
    out: List[Path] = []
    for rec in _parse_table(path, sections["paths"], PATH_FIELDS):
        links = tuple(p for p in rec["links"].split("|") if p)
        if not links:
            raise ParseError(f"{path}: path {rec['id']} has no links")
        out.append(Path(rec["id"], (rec["origin"], rec["destination"]), links))
    if not out:
        raise ParseError(f"{path}: empty path table")
    return out


def load_demand(path: str) -> List[ODPair]:
    sections = _read_sections(path)
    if "demand" not in sections:
        raise ParseError(f"{path}: missing [demand] section")
    out: List[ODPair] = []
    for rec in _parse_table(path, sections["demand"], DEMAND_FIELDS):
        q = _to_float(path, "demand_veh", rec["demand_veh"])
        if q < 0:
            raise ParseError(f"{path}: negative demand for "
                             f"({rec['origin']}, {rec['destination']})")
        out.append(ODPair(rec["origin"], rec["destination"], q,
                          _to_float(path, "target_arrival_s",
                                    rec["target_arrival_s"])))
    if not out:
        raise ParseError(f"{path}: empty demand table")
    return out


def load_departures(path: str, path_order: Sequence[str], n_steps: int) -> np.ndarray:
    """Read the |P| x N departure-rate matrix, checking dimensions, signs and
    that every rate is finite."""
    rows: Dict[str, np.ndarray] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].startswith("#"):
                continue
            pid, values = row[0].strip(), row[1:]
            if pid == "path_id":  # optional header row
                continue
            if pid in rows:
                raise ParseError(f"{path}:{lineno}: duplicate path id {pid}")
            if len(values) != n_steps:
                raise ParseError(
                    f"{path}:{lineno}: row for {pid} has {len(values)} columns, "
                    f"expected N = {n_steps}"
                )
            try:
                vals = np.array([float(v) for v in values])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric rate") from None
            bad = np.flatnonzero(~(np.isfinite(vals) & (vals >= 0)))
            if bad.size:
                j = int(bad[0])
                kind = "non-finite" if not np.isfinite(vals[j]) else "negative"
                raise ParseError(
                    f"{path}:{lineno}: {kind} rate at (path {pid}, step {j})"
                )
            rows[pid] = vals
    missing = [p for p in path_order if p not in rows]
    if missing:
        raise ParseError(f"{path}: missing rows for paths {missing[:5]}")
    known = set(path_order)
    unknown = [p for p in rows if p not in known]
    if unknown:
        raise ParseError(f"{path}: rows for unknown paths {unknown[:5]}")
    return np.array([rows[p] for p in path_order], dtype=float)


def enumerate_paths(nodes: Sequence[Node], links: Sequence[Link],
                    od_pairs: Sequence[ODPair], k: int) -> List[Path]:
    """Up to k loopless shortest paths per O-D under free-flow link times.

    Ties and parallel links are broken by lexicographic link ids so the
    result is deterministic.
    """
    import networkx as nx  # only path enumeration needs it; keeps CLI start-up light

    g = nx.DiGraph()
    for n in nodes:
        g.add_node(n.id)
    # keep the fastest link per node pair (then lowest id) for path mapping
    best: Dict[Tuple[str, str], Link] = {}
    for l in sorted(links, key=lambda l: (l.free_flow_time_s, l.id)):
        best.setdefault((l.tail, l.head), l)
    for (t, hd), l in best.items():
        g.add_edge(t, hd, weight=l.free_flow_time_s, link=l.id)

    out: List[Path] = []
    for od in od_pairs:
        if od.origin not in g or od.destination not in g or \
                not nx.has_path(g, od.origin, od.destination):
            raise NetworkError(
                f"destination {od.destination} unreachable from {od.origin}"
            )
        gen = nx.shortest_simple_paths(g, od.origin, od.destination, weight="weight")
        count = 0
        for node_seq in gen:
            link_seq = tuple(
                g.edges[a, b]["link"] for a, b in zip(node_seq, node_seq[1:])
            )
            count += 1
            out.append(Path(f"{od.origin}-{od.destination}-{count}",
                            (od.origin, od.destination), link_seq))
            if count >= k:
                break
    return out


# -- result export --------------------------------------------------------------


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _matrix_rows(ids, matrix):
    """One row per matrix row: its id, then every cell as _fmt writes it
    (the repr of a Python float), converted a row at a time."""
    for rid, row in zip(ids, np.asarray(matrix, dtype=float)):
        yield [rid, *map(repr, row.tolist())]


def _time_header(grid) -> List[str]:
    return ["path_id"] + [_fmt(t) for t in grid.times()[: grid.n_steps]]


def _write_summary(out_dir: str, summary: dict) -> None:
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_loading_tables(result, out_dir: str) -> None:
    """travel_times.csv, and link_timeseries.csv with one row per (link,
    step), links in id order."""
    grid = result.grid
    N = grid.n_steps
    _write_csv(os.path.join(out_dir, "travel_times.csv"), _time_header(grid),
               _matrix_rows(result.path_order, result.travel_time))

    ids = sorted(result.link_states)
    states = [result.link_states[lid] for lid in ids]
    inflow = np.array([st.inflow for st in states])
    outflow = np.array([st.outflow for st in states])
    dens = np.array([(st.n_up[:N] - st.n_dn[:N]) / st.link.length_m
                     for st in states])
    cap = np.array([[st.link.capacity_vps] for st in states])
    jam = np.array([[st.link.jam_density_vpm] for st in states])
    columns = (np.broadcast_to(grid.times()[:N], dens.shape), inflow, outflow,
               dens, dens / jam, inflow / cap, outflow / cap)
    _write_csv(
        os.path.join(out_dir, "link_timeseries.csv"),
        ["link_id", "time_s", "inflow_vps", "outflow_vps", "density_vpm",
         "relative_density", "relative_inflow", "relative_outflow"],
        _matrix_rows(np.repeat(ids, N), np.stack(columns, axis=-1).reshape(-1, 7)),
    )


def write_dnl_results(result, out_dir: str) -> None:
    """Tabular outputs of a loading run: travel times plus the four per-link
    display metrics (density, relative density, relative in/outflow),
    summary and plot script."""
    os.makedirs(out_dir, exist_ok=True)
    grid = result.grid
    _write_loading_tables(result, out_dir)
    _write_summary(out_dir, {
        "mode": "dnl",
        "n_paths": len(result.path_order),
        "n_steps": grid.n_steps,
        "dt_s": grid.dt_s,
        "t0_s": grid.t0_s,
        "tf_s": grid.tf_s,
        "truncated_cells": int(result.truncated_trips.sum()),
        "max_balance_residual": float(result.diagnostics.max()),
    })
    _write_plot_script(out_dir)


def write_due_results(report, out_dir: str) -> None:
    """SolveReport artifacts: final rates and delays, O-D gaps, convergence
    trace, the final loading's tables, summary and plot script."""
    os.makedirs(out_dir, exist_ok=True)
    grid = report.final_dnl.grid
    header = _time_header(grid)

    _write_csv(os.path.join(out_dir, "h_final.csv"), header,
               _matrix_rows(report.path_order, report.h_final))
    _write_csv(os.path.join(out_dir, "eff_delay.csv"), header,
               _matrix_rows(report.path_order, report.psi_final))
    _write_csv(os.path.join(out_dir, "od_gaps.csv"), OD_GAP_FIELDS,
               [[o, d, _fmt(gap)] for (o, d), gap in sorted(report.od_gaps.items())])
    _write_csv(os.path.join(out_dir, "convergence.csv"),
               ["iteration", "relative_gap"],
               [[i + 1, _fmt(g)] for i, g in enumerate(report.relative_gap_history)])
    _write_loading_tables(report.final_dnl, out_dir)
    _write_summary(out_dir, {
        "mode": "due",
        "converged": bool(report.converged),
        "status": "CONVERGED" if report.converged else "NOT-CONVERGED",
        "iterations_used": report.iterations_used,
        "final_relative_gap": report.relative_gap_history[-1],
        "dnl_time_s": report.dnl_time_s,
        "update_time_s": report.update_time_s,
        "n_paths": len(report.path_order),
        "n_steps": grid.n_steps,
        "dt_s": grid.dt_s,
        "max_od_gap_s": max(report.od_gaps.values()) if report.od_gaps else 0.0,
    })
    _write_plot_script(out_dir)


_PLOT_SCRIPT = '''\
"""Render convergence and selected path departure/delay curves.

Usage: python plot_results.py [path_id ...]
"""
import csv, sys, os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))


def read_matrix(name):
    with open(os.path.join(here, name)) as fh:
        rows = list(csv.reader(fh))
    times = [float(x) for x in rows[0][1:]]
    data = {r[0]: [float(x) for x in r[1:]] for r in rows[1:]}
    return times, data


if os.path.exists(os.path.join(here, "convergence.csv")):
    with open(os.path.join(here, "convergence.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    fig, ax = plt.subplots()
    ax.semilogy([int(r[0]) for r in rows], [float(r[1]) for r in rows])
    ax.set_xlabel("iteration")
    ax.set_ylabel("relative gap")
    fig.savefig(os.path.join(here, "convergence.png"), dpi=120)

name = "h_final.csv" if os.path.exists(os.path.join(here, "h_final.csv")) \\
    else "travel_times.csv"
times, data = read_matrix(name)
wanted = sys.argv[1:] or list(data)[:4]
fig, ax = plt.subplots()
for pid in wanted:
    ax.plot(times, data[pid], label=pid)
ax.set_xlabel("departure time (s)")
ax.set_ylabel(name.split(".")[0])
ax.legend()
fig.savefig(os.path.join(here, "paths.png"), dpi=120)
print("wrote plots to", here)
'''


def _write_plot_script(out_dir: str) -> None:
    with open(os.path.join(out_dir, "plot_results.py"), "w") as fh:
        fh.write(_PLOT_SCRIPT)


def write_paths(paths: Sequence[Path], out_path: str) -> None:
    with open(out_path, "w", newline="") as fh:
        fh.write("[paths]\n")
        w = csv.writer(fh)
        w.writerow(PATH_FIELDS)
        for p in paths:
            w.writerow([p.id, p.od[0], p.od[1], "|".join(p.links)])


def write_departures(path_order: Sequence[str], matrix: np.ndarray,
                     out_path: str) -> None:
    with open(out_path, "w", newline="") as fh:
        csv.writer(fh).writerows(_matrix_rows(path_order, matrix))
