"""Output checks. Each returns a list of failure messages (empty when the
output passes). Every check is made against a quantity the benchmark
computes itself from its own inputs, or against a property the loading
and the equilibrium must have."""

from __future__ import annotations

import csv
import json
import os
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

BALANCE_TOL = 1e-6  # relative vehicle-balance residual
MASS_RTOL = 1e-6  # relative O-D mass tolerance
PSI_RTOL = 1e-9
GAP_LIMIT = 0.05
EARLY_WEIGHT, LATE_WEIGHT = 0.5, 2.0  # the default schedule penalty


def equilibrium_gap(blocks: Iterable[Tuple[np.ndarray, np.ndarray]]) -> float:
    """Flow-weighted gap sum h*(psi - min_od psi) / sum h*min_od psi over
    the (h, psi) blocks of the O-D pairs."""
    num = den = 0.0
    for hb, pb in blocks:
        m = pb.min()
        num += float((hb * (pb - m)).sum())
        den += float((hb * m).sum())
    return num / den


def schedule_cost(tt: np.ndarray, dep_times: np.ndarray, target: np.ndarray,
                  t0: float, tf: float) -> np.ndarray:
    """Travel time plus the 0.5/2.0 early/late penalty, with the horizon
    sentinel (tf - t) + max(weight) * (tf - t0) where the trip did not finish."""
    arr = dep_times[None, :] + tt
    tgt = target[:, None]
    psi = tt + EARLY_WEIGHT * np.maximum(0.0, tgt - arr) + \
        LATE_WEIGHT * np.maximum(0.0, arr - tgt)
    sentinel = (tf - dep_times) + max(EARLY_WEIGHT, LATE_WEIGHT) * (tf - t0)
    return np.where(np.isnan(tt), np.broadcast_to(sentinel, tt.shape), psi)


def free_flow_bound(tt: np.ndarray, path_ff: np.ndarray, dt: float) -> List[str]:
    fastest = np.fmin.reduce(tt, axis=1)  # skips cells not completed (NaN)
    bad = int((fastest < path_ff - dt - 1e-9).sum())
    if bad:
        return [f"{bad} paths with a completed travel time below their "
                "free-flow time minus dt"]
    return []


def check_braess(report, inp, gap_limit: float = GAP_LIMIT) -> Tuple[List[str], float]:
    """braess-due: feasibility, O-D mass, psi, free-flow bound and the gap.
    `inp` is the BraessInputs the solve ran on."""
    errs: List[str] = []
    order = list(report.path_order)
    h, psi = report.h_final, report.psi_final
    grid = inp.grid
    dt = grid.dt_s
    if not (h >= 0).all():
        errs.append("negative departure rate in h_final")
    od_rows = []
    for od, q in inp.demands.items():
        rows = np.array([order.index(p) for p in inp.od_paths[od]], dtype=int)
        od_rows.append(rows)
        mass = float(h[rows].sum() * dt)
        if abs(mass - q) > MASS_RTOL * q:
            errs.append(f"O-D {od} carries {mass!r} veh, demand {q!r}")
    tt = report.final_dnl.travel_time
    dep = grid.times()[:grid.n_steps]
    ref = schedule_cost(tt, dep, np.full(len(order), inp.target_s),
                        grid.t0_s, grid.tf_s)
    if not np.allclose(psi, ref, rtol=PSI_RTOL, atol=1e-9):
        errs.append("psi_final differs from travel time plus schedule penalty")
    errs += free_flow_bound(tt, np.array([inp.path_ff_s[p] for p in order]), dt)
    gap = equilibrium_gap((h[rows], psi[rows]) for rows in od_rows)
    if not gap <= gap_limit:
        errs.append(f"equilibrium gap {gap:.3e} above {gap_limit}")
    return errs, gap


def grid_gap(inp, tt: np.ndarray, path_order: Sequence[str]) -> float:
    """equilibrium_gap of the fixed grid departure pattern, from the
    benchmark's own schedule cost, one O-D block at a time so no full-size
    temporary is made."""
    grid = inp.grid
    dep = grid.times()[:grid.n_steps]
    pos = {p: i for i, p in enumerate(path_order)}
    rows_of: Dict[Tuple[str, str], List[int]] = {}
    for p in inp.paths:
        rows_of.setdefault(p.od, []).append(pos[p.id])

    def blocks():
        for od in inp.ods:
            rows = np.array(rows_of[(od.origin, od.destination)])
            psi = schedule_cost(tt[rows], dep, np.full(len(rows), od.target_arrival_s),
                                grid.t0_s, grid.tf_s)
            yield inp.h[rows], psi

    return equilibrium_gap(blocks())


# -- grid-replay: files -------------------------------------------------------------


def read_network_ff(network_file: str) -> Dict[str, float]:
    """Free-flow time per link, parsed from the network file independently."""
    ff: Dict[str, float] = {}
    section = None
    with open(network_file) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                section = line
                continue
            if section == "[links]" and not line.startswith("id,"):
                parts = line.split(",")
                ff[parts[0]] = float(parts[3]) / float(parts[4])
    return ff


def read_paths(paths_file: str) -> Dict[str, List[str]]:
    with open(paths_file, newline="") as fh:
        rows = list(csv.reader(fh))
    return {r[0]: r[3].split("|") for r in rows[2:]}


def read_matrix(path: str) -> Tuple[List[str], np.ndarray]:
    ids, data = [], []
    with open(path) as fh:
        next(fh)
        for line in fh:
            pid, rest = line.split(",", 1)
            ids.append(pid)
            data.append(np.array(rest.split(","), dtype=float))
    return ids, np.array(data)


def check_replay(out_dir: str, network_file: str, paths_file: str,
                 path_order: List[str], n_steps: int,
                 dt: float) -> Tuple[List[str], np.ndarray]:
    """grid-replay: shape and row order of travel_times.csv, the free-flow
    bound from the network file, relative density, balance residual."""
    errs: List[str] = []
    ids, tt = read_matrix(os.path.join(out_dir, "travel_times.csv"))
    if tt.shape != (len(path_order), n_steps):
        return [f"travel_times.csv is {tt.shape}, "
                f"expected {(len(path_order), n_steps)}"], tt
    if ids != path_order:
        return ["travel_times.csv rows are not in path-file order"], tt
    link_ff = read_network_ff(network_file)
    plinks = read_paths(paths_file)
    ff = np.array([sum(link_ff[l] for l in plinks[p]) for p in ids])
    errs += free_flow_bound(tt, ff, dt)
    with open(os.path.join(out_dir, "link_timeseries.csv"), newline="") as fh:
        reader = csv.reader(fh)
        col = next(reader).index("relative_density")
        rel = np.array([float(r[col]) for r in reader])
    if not ((rel >= 0.0) & (rel <= 1.0)).all():
        errs.append("relative_density outside [0, 1]")
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if not summary["max_balance_residual"] <= BALANCE_TOL:
        errs.append(f"balance residual {summary['max_balance_residual']}")
    return errs, tt
