"""Text-based data files and result export.

Formats, all UTF-8 text (normative for this package; the bundled Braess
fixture is the reference example):

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

departures file: plain CSV, one row per path: the path id, CSV-quoted
where it needs to be, followed by N rates. A rate is any string Python's
float() reads. Rows may come in any order; blank rows and rows whose first
cell starts with # are skipped, and the first row may be a path_id header.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
import operator
import os
import pickle
import shutil
import sys
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .network import DEFAULT_SOURCE_PRIORITY, Link, NetworkError, Node, ODPair, Path


class ParseError(ValueError):
    """Raised for malformed data files, with file/line context."""


NODE_FIELDS = ["id", "x", "y", "origin", "destination", "source_priority"]
LINK_FIELDS = ["id", "tail", "head", "length_m", "free_speed_mps",
               "capacity_vps", "backward_speed_mps"]
PATH_FIELDS = ["id", "origin", "destination", "links"]
DEMAND_FIELDS = ["origin", "destination", "demand_veh", "target_arrival_s"]
OD_GAP_FIELDS = ["origin", "destination", "gap_s"]


def _lines(path: str):
    """The lines of a UTF-8 text file, line endings kept; any other is refused."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None


def _read_sections(path: str, names: Sequence[str]
                   ) -> Dict[str, List[Tuple[int, List[str]]]]:
    """The rows of each [section] of a file that holds each of `names` once."""
    sections: Dict[str, List[Tuple[int, List[str]]]] = {}
    current = None
    for lineno, raw in enumerate(_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in names:
                raise ParseError(f"{path}:{lineno}: unknown section [{current}]")
            if current in sections:
                raise ParseError(f"{path}:{lineno}: repeated section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ParseError(f"{path}:{lineno}: data before any [section]")
        try:
            row = next(csv.reader([line]))
        except csv.Error as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        sections[current].append((lineno, [c.strip() for c in row]))
    for name in names:
        if name not in sections:
            raise ParseError(f"{path}: missing [{name}] section")
    return sections


def _csv_rows(path: str):
    """(line number, row) of each row csv.reader reads from the file; a line
    it cannot read (a field over csv's size limit) is refused at its number."""
    reader = csv.reader(_lines(path))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as e:
        raise ParseError(f"{path}:{reader.line_num}: {e}") from None


def _read_rows(path: str) -> List[Tuple[int, List[str]]]:
    """The non-blank rows of a plain CSV file, each with its line number;
    a file without one is refused."""
    rows = [(n, [c.strip() for c in row]) for n, row in _csv_rows(path) if row]
    if not rows:
        raise ParseError(f"{path}: empty file, expected a header row")
    return rows


def _records(path: str, rows: List[Tuple[int, List[str]]], fields: List[str],
             build: Callable, kind: str, key: Callable) -> list:
    """build(at, *cells) of each data row of a table headed by `fields`, in
    file order, at its location path:line. The header and every row's field
    count are checked first. Then a row is refused, at its location, when
    an earlier row had its key(cells) or when its constructor refuses it."""
    if not rows:
        return []
    lineno, header = rows[0]
    if header != fields:
        raise ParseError(
            f"{path}:{lineno}: header {header} does not match expected {fields}"
        )
    for lineno, row in rows[1:]:
        if len(row) != len(fields):
            raise ParseError(
                f"{path}:{lineno}: expected {len(fields)} fields, got {len(row)}"
            )
    out = []
    seen = set()
    for lineno, cells in rows[1:]:
        at = f"{path}:{lineno}"
        k = key(cells)
        if k in seen:
            raise ParseError(f"{at}: duplicate {kind} {k}")
        seen.add(k)
        try:
            out.append(build(at, *cells))
        except NetworkError as e:
            raise ParseError(f"{at}: {e}") from e
    return out


_ID = operator.itemgetter(0)
_OD = operator.itemgetter(0, 1)


def _to_float(at: str, name: str, value: str, allow_empty=False,
              default=None) -> Optional[float]:
    if value == "" and allow_empty:
        return default
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"{at}: field {name} is not numeric: {value!r}") from None
    if not math.isfinite(x):
        raise ParseError(f"{at}: field {name} is not finite: {value!r}")
    return x


def _to_bool(at: str, name: str, value: str) -> bool:
    if value in ("0", "1"):
        return value == "1"
    raise ParseError(f"{at}: field {name} must be 0 or 1, got {value!r}")


def load_network(path: str) -> Tuple[List[Node], List[Link]]:
    """Parse the nodes/links tables of a network file into raw records."""
    sections = _read_sections(path, ("nodes", "links"))

    def node(at, nid, x, y, origin, destination, priority):
        x = _to_float(at, "x", x, allow_empty=True)
        y = _to_float(at, "y", y, allow_empty=True)
        return Node(nid, (x, y) if x is not None and y is not None else None,
                    _to_bool(at, "origin", origin),
                    _to_bool(at, "destination", destination),
                    _to_float(at, "source_priority", priority, allow_empty=True,
                              default=DEFAULT_SOURCE_PRIORITY))

    def link(at, lid, tail, head, length, speed, capacity, backward):
        return Link(lid, tail, head, _to_float(at, "length_m", length),
                    _to_float(at, "free_speed_mps", speed),
                    _to_float(at, "capacity_vps", capacity),
                    _to_float(at, "backward_speed_mps", backward, allow_empty=True))

    nodes = _records(path, sections["nodes"], NODE_FIELDS, node, "node id", _ID)
    links = _records(path, sections["links"], LINK_FIELDS, link, "link id", _ID)
    if not links:
        raise ParseError(f"{path}: empty network (no links)")
    return nodes, links


def load_paths(path: str) -> List[Path]:
    out = _records(path, _read_sections(path, ("paths",))["paths"], PATH_FIELDS,
                   lambda at, pid, o, d, links: Path(
                       pid, (o, d), tuple(p for p in links.split("|") if p)),
                   "path id", _ID)
    if not out:
        raise ParseError(f"{path}: empty path table")
    return out


def load_demand(path: str) -> List[ODPair]:
    out = _records(path, _read_sections(path, ("demand",))["demand"], DEMAND_FIELDS,
                   lambda at, o, d, demand, target: ODPair(
                       o, d, _to_float(at, "demand_veh", demand),
                       _to_float(at, "target_arrival_s", target)),
                   "O-D pair", _OD)
    if not out:
        raise ParseError(f"{path}: empty demand table")
    return out


def load_od_gaps(path: str) -> List[float]:
    """The gap_s column of a due run's od_gaps.csv."""
    return _records(path, _read_rows(path), OD_GAP_FIELDS,
                    lambda at, o, d, gap: _to_float(at, "gap_s", gap), "O-D pair", _OD)


def load_curves(path: str) -> Tuple[List[str], Dict[str, List[str]]]:
    """The header of a due run's h_final.csv or eff_delay.csv, and its rows
    as text by path id."""
    rows = _read_rows(path)
    header = rows[0][1]
    return header, {row[0]: row for row in _records(
        path, rows, header, lambda at, *row: row, "path id", _ID)}


def load_departures(path: str, path_order: Sequence[str], n_steps: int) -> np.ndarray:
    """Read the |P| x N departure-rate matrix, checking dimensions, signs and
    that every rate is finite. The first row that is not a comment may be a
    header whose first cell is path_id; when a path has that id, only if a
    later row names path_id too.

    A file as dtaflow writes it, one row per path in path_order, is read in
    one bulk conversion by _bulk_departures; any other file is read, and
    judged, row by row by _read_departure_rows. Both give the same matrix
    for every file the bulk pass takes."""
    out = _bulk_departures(path, path_order, n_steps)
    return out if out is not None else _read_departure_rows(path, path_order, n_steps)


def _bulk_departures(path: str, path_order: Sequence[str],
                     n_steps: int) -> Optional[np.ndarray]:
    """One np.loadtxt call over the rates of a file as dtaflow writes it: an
    optional first row whose first cell is path_id (h_final.csv's header),
    then one row per path of path_order, in its order. None for any other
    file, and where the readers could differ: a quote (csv unquotes, and may
    join lines) or NUL, a field over csv's size limit, a rate float() reads
    and loadtxt does not (1_0, non-ASCII digits), a negative or non-finite
    rate, a row without rates, no rows, a repeated id, text not UTF-8."""
    expected = iter(path_order)
    limit = csv.field_size_limit()

    def rates(fh):
        """The rates of each row after the header, as text; ValueError for a
        row not of the next path, or that only csv.reader may split."""
        for n, line in enumerate(fh):
            if '"' in line or "\0" in line:  # csv before 3.11 refuses NUL
                raise ValueError
            if len(line) > limit and max(map(len, line.rstrip("\r\n").split(","))) > limit:
                raise ValueError  # csv.reader refuses the field
            pid, _, rest = line.partition(",")
            if not n and pid == "path_id":  # the header
                continue
            if pid != next(expected, None) or not rest or rest.isspace():
                raise ValueError  # loadtxt would skip a line without rates
            yield rest

    with open(path, newline="", encoding="utf-8") as fh:
        lines = rates(fh)
        try:
            head = next(lines, None)
            if head is None:  # loadtxt would warn that it read no data
                return None
            m = np.loadtxt(itertools.chain((head,), lines), delimiter=",",
                           comments=None, ndmin=2)
        except ValueError:  # a UnicodeDecodeError too
            return None
    ok = m.shape == (len(path_order), n_steps) and len(set(path_order)) == len(m)
    return m if ok and m.min() >= 0 and m.max() < np.inf else None


def _read_departure_rows(path: str, path_order: Sequence[str],
                         n_steps: int) -> np.ndarray:
    """load_departures row by row: csv.reader splits each row and float()
    reads each rate. Every refusal of a departures file is made here."""
    row_of = {p: i for i, p in enumerate(path_order)}
    out = np.empty((len(path_order), n_steps))
    seen = set()
    unknown: List[str] = []

    def take(lineno: int, pid: str, values: List[str]) -> None:
        if pid in seen:
            raise ParseError(f"{path}:{lineno}: duplicate path id {pid}")
        seen.add(pid)
        if len(values) != n_steps:
            raise ParseError(
                f"{path}:{lineno}: row for {pid} has {len(values)} rates, "
                f"expected N = {n_steps}"
            )
        try:
            # a list of str converts value by value through float(), so it
            # accepts exactly the strings float() accepts
            vals = np.array(values, dtype=float)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric rate") from None
        bad = np.flatnonzero(~(np.isfinite(vals) & (vals >= 0)))
        if bad.size:
            j = int(bad[0])
            kind = "non-finite" if not np.isfinite(vals[j]) else "negative"
            raise ParseError(
                f"{path}:{lineno}: {kind} rate at (path {pid}, step {j})"
            )
        if pid in row_of:
            out[row_of[pid]] = vals
        else:
            unknown.append(pid)

    first = True
    held = None  # a first row naming the path path_id: the header, or its rates
    for lineno, row in _csv_rows(path):
        if not row or row[0].startswith("#"):
            continue
        pid, values = row[0].strip(), row[1:]
        if first:
            first = False
            if pid == "path_id":
                if pid in row_of:
                    held = (lineno, pid, values)
                continue
        elif pid == "path_id":
            held = None
        take(lineno, pid, values)
    if held:
        take(*held)
    missing = [p for p in path_order if p not in seen]
    if missing:
        raise ParseError(f"{path}: missing rows for paths {missing[:5]}")
    if unknown:
        raise ParseError(f"{path}: rows for unknown paths {unknown[:5]}")
    return out


_WORKER_MIN_CELLS = 65_536  # the fewest table cells worth a forked worker
_WORKER_MIN_PAIRS = 64  # the fewest O-D pairs worth a forked search


def _workers(units: int, least: int) -> int:
    """How many processes share `units` units of work: one per usable CPU,
    each with at least `least` units. One where a fork is unsafe: off Linux,
    or while another thread runs (numpy's OpenBLAS pool stops before one)."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), units // least))


def _in_workers(P: int, work: Callable[[int], object], name: str) -> list:
    """[work(0), ..., work(P - 1)]: work(0) here, each other work(w) in a
    forked child that pickles its result, or its exception, back through a
    pipe. That exception is raised here, caused by OSError "<name>: worker
    <w> raised"; a child that sends nothing raises "<name>: worker <w> died
    of signal <s>" (or "failed"). Every child is reaped, also on a failure."""
    children = []  # (pid, the read end of its pipe)
    try:
        for w in range(1, P):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                try:
                    os.close(r)  # so that its write fails once the parent's closes
                    try:
                        out = (True, work(w))
                    except BaseException as e:
                        out = (False, e)
                    with open(wr, "wb") as fh:
                        pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)  # the result was not sent
            os.close(wr)
            children.append((pid, open(r, "rb")))
        results = [work(0)]
        sent = [fh.read() for _, fh in children]
    finally:
        for _, fh in children:  # first, so that no child waits to write
            fh.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in children]
    for w, (code, data) in enumerate(zip(codes, sent), start=1):
        if code:
            raise OSError(f"{name}: worker {w} " + (
                f"died of signal {-code}" if code < 0 else "failed"))
        ok, value = pickle.loads(data)
        if not ok:
            raise value from OSError(f"{name}: worker {w} raised")
        results.append(value)
    return results


def enumerate_paths(nodes: Sequence[Node], links: Sequence[Link],
                    od_pairs: Sequence[ODPair], k: int) -> List[Path]:
    """Up to k loopless shortest paths per O-D under free-flow link times,
    ids origin-destination-rank.

    Of parallel links only the fastest, then the lowest id, is used. The
    paths come from Yen's method as networkx.shortest_simple_paths (3.6)
    runs it, with a bidirectional Dijkstra search for each spur: equal-cost
    paths come in the order that search finds them, which follows the order
    of the links. The result is the same for any number of forked shares.
    """
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise ValueError(f"k {k!r} must be an integer >= 1")
    from . import _yen  # only path enumeration loads it

    best: Dict[Tuple[str, str], Link] = {}
    for l in sorted(links, key=lambda l: (l.free_flow_time_s, l.id)):
        best.setdefault((l.tail, l.head), l)
    cost = {pair: l.free_flow_time_s for pair, l in best.items()}
    succ, pred = _yen.adjacency([n.id for n in nodes], cost)

    def share(w: int) -> List[List[Tuple[str, ...]]]:  # the pairs i % P == w
        return [[tuple(best[a, b].id for a, b in zip(seq, seq[1:]))
                 for seq in itertools.islice(_yen.shortest_simple_paths(
                     succ, pred, cost, od.origin, od.destination), k)]
                for od in od_pairs[w::P]]

    P = _workers(len(od_pairs), _WORKER_MIN_PAIRS)
    shares = _in_workers(P, share, "k shortest paths")
    out: List[Path] = []
    for i, (o, d) in enumerate((od.origin, od.destination) for od in od_pairs):
        found = shares[i % P][i // P]
        if not found:
            raise NetworkError(f"destination {d} unreachable from {o}")
        out.extend(Path(f"{o}-{d}-{rank}", (o, d), ids)
                   for rank, ids in enumerate(found, start=1))
    return out


# -- result export --------------------------------------------------------------


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


_BLOCK_CELLS = 4096  # cells formatted at a time: bounds the strings held


def _write_matrix(fh, ids, matrix) -> None:
    """One line per matrix row, as csv.writer writes [id, *cells]: the id as
    csv quotes it, then every cell as _fmt writes it (the shortest repr of a
    Python float). A block of rows at a time, each distinct value of the
    block is formatted once; values are told apart by their bits, so -0.0
    and 0.0 keep their own text."""
    m = np.ascontiguousarray(matrix, dtype=float)
    buf = io.StringIO()
    quoter = csv.writer(buf)
    cells_after = ("",) if m.shape[1] else ()
    prefixes: Dict[object, str] = {}

    def prefix(rid) -> str:
        """The line up to the first cell: rid as csv.writer writes it as a
        first field, and the delimiter after it."""
        if rid not in prefixes:
            buf.seek(0)
            buf.truncate()
            quoter.writerow((rid, *cells_after))
            prefixes[rid] = buf.getvalue()[:-2]  # less the "\r\n"
        return prefixes[rid]

    rid_iter = iter(ids)
    step = max(1, _BLOCK_CELLS // max(1, m.shape[1]))
    for lo in range(0, len(m), step):
        block = m[lo:lo + step]
        # a 1-D input, so that the inverse is flat under numpy 1.x and 2.x
        bits, inv = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
        cells = text[inv].reshape(block.shape).tolist()
        # cells first: zip stops on them without taking an id of the next block
        fh.write("".join([prefix(rid) + ",".join(row) + "\r\n"
                          for row, rid in zip(cells, rid_iter)]))


def _write_tables(tables) -> None:
    """Numeric tables, each (path, header or None, ids, matrix): the header
    row, then _write_matrix's line per matrix row, ids[i] heading row i.

    With P = _workers(all cells, _WORKER_MIN_CELLS), each table's rows are
    cut into P contiguous ranges. Share w of _in_workers writes range w of
    every table to its part w next to the table, part 0 after the header.
    Parts 1..P-1 are then appended in order to part 0, which replaces the
    table. The bytes are the same for every P. A failed forked share raises
    OSError naming its table; a failed write leaves no new table, an
    existing table's old bytes, and no part file or child."""
    checked = []
    for path, header, ids, matrix in tables:
        m = np.ascontiguousarray(matrix, dtype=float)
        if m.ndim != 2 or len(ids) != len(m):
            raise ValueError(f"{path}: {len(ids)} row ids for a matrix of "
                             f"shape {m.shape}; expected one id per row")
        checked.append((path, header, ids, m))
    P = _workers(sum(m.size for *_, m in checked), _WORKER_MIN_CELLS)
    cuts = [[len(m) * w // P for w in range(P + 1)] for *_, m in checked]
    # part w of a table holds range w
    parts = [[f"{path}.{w}.part" for w in range(P)] for path, *_ in checked]

    def share(w: int) -> None:
        for (path, header, ids, m), cut, names in zip(checked, cuts, parts):
            lo, hi = cut[w], cut[w + 1]
            try:
                with open(names[w], "w", newline="", encoding="utf-8") as fh:
                    if header is not None and not w:
                        csv.writer(fh).writerow(header)
                    _write_matrix(fh, ids[lo:hi], m[lo:hi])
            except Exception:  # a forked share names its table and rows
                if not w:
                    raise
                raise OSError(f"{path}: the worker formatting rows "
                              f"{lo}-{hi} failed") from None

    try:
        _in_workers(P, share, ", ".join(t[0] for t in checked))
        for names in parts:
            with open(names[0], "ab") as out:
                for name in names[1:]:
                    with open(name, "rb") as src:
                        shutil.copyfileobj(src, out, 1 << 20)
        for (path, *_), names in zip(checked, parts):
            os.replace(names[0], path)
    finally:
        for names in parts:
            for name in names:
                try:
                    os.remove(name)
                except FileNotFoundError:
                    pass


def _time_header(grid) -> List[str]:
    return ["path_id"] + [_fmt(t) for t in grid.times()[: grid.n_steps]]


def _write_summary(out_dir: str, summary: dict) -> None:
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _loading_tables(result, out_dir: str) -> list:
    """The _write_tables entries of travel_times.csv, and of
    link_timeseries.csv with one row per (link, step), links in id order."""
    grid = result.grid
    N = grid.n_steps

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
    return [
        (os.path.join(out_dir, "travel_times.csv"), _time_header(grid),
         result.path_order, result.travel_time),
        (os.path.join(out_dir, "link_timeseries.csv"),
         ["link_id", "time_s", "inflow_vps", "outflow_vps", "density_vpm",
          "relative_density", "relative_inflow", "relative_outflow"],
         np.repeat(ids, N), np.stack(columns, axis=-1).reshape(-1, 7)),
    ]


def write_dnl_results(result, out_dir: str) -> None:
    """Tabular outputs of a loading run: travel times plus the four per-link
    display metrics (density, relative density, relative in/outflow),
    summary and plot script."""
    os.makedirs(out_dir, exist_ok=True)
    grid = result.grid
    _write_tables(_loading_tables(result, out_dir))
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

    _write_tables([
        (os.path.join(out_dir, "h_final.csv"), header, report.path_order, report.h_final),
        (os.path.join(out_dir, "eff_delay.csv"), header, report.path_order,
         report.psi_final),
        *_loading_tables(report.final_dnl, out_dir),
    ])
    _write_csv(os.path.join(out_dir, "od_gaps.csv"), OD_GAP_FIELDS,
               [[o, d, _fmt(gap)] for (o, d), gap in sorted(report.od_gaps.items())])
    _write_csv(os.path.join(out_dir, "convergence.csv"),
               ["iteration", "relative_gap"],
               [[i + 1, _fmt(g)] for i, g in enumerate(report.relative_gap_history)])
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
    with open(os.path.join(out_dir, "plot_results.py"), "w", encoding="utf-8") as fh:
        fh.write(_PLOT_SCRIPT)


def write_paths(paths: Sequence[Path], out_path: str) -> None:
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("[paths]\n")
        w = csv.writer(fh)
        w.writerow(PATH_FIELDS)
        for p in paths:
            w.writerow([p.id, p.od[0], p.od[1], "|".join(p.links)])


def write_departures(path_order: Sequence[str], matrix: np.ndarray,
                     out_path: str) -> None:
    """A departures file: one row per path, path_order[i] heading row i."""
    _write_tables([(out_path, None, path_order, matrix)])
