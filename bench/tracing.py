"""Per-layer tracing from outside the package.

`Tracer.install()` replaces public dtaflow functions with wrappers, in
every module that looks them up by name. Coarse calls (a loading, a delay
evaluation, a projection, a file load or write, the CLI entry point) are
recorded as spans: name, start, end and parent span. Per-step calls
(boundary demand and supply, junction resolution, composition mixing, the
dual root search) are far too many to keep as spans, so only their call
count and busy time are kept. Each is checked to run inside its expected
parent span, and its busy time counts as that parent's child time.

Records are kept in memory, one per operation or set-up repetition, and
written out as JSON when the run ends.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

# (metric prefix, module that defines it, modules that call it by name)
SPANNED = [
    ("solver.solve_due", "solver", ["solver"]),
    ("dnl.run_dnl", "dnl", ["dnl", "solver", "cli"]),
    ("delays.effective_delay", "delays", ["delays", "solver"]),
    ("solver.fixed_point_update", "solver", ["solver"]),
    ("fileio.load_network", "fileio", ["fileio"]),
    ("fileio.load_paths", "fileio", ["fileio"]),
    ("fileio.load_demand", "fileio", ["fileio"]),
    ("fileio.load_departures", "fileio", ["fileio"]),
    ("fileio.write_dnl_results", "fileio", ["fileio"]),
    ("fileio.write_paths", "fileio", ["fileio"]),
    ("fileio.write_departures", "fileio", ["fileio"]),
    ("fileio.enumerate_paths", "fileio", ["fileio"]),
    ("network.validate_network", "network", ["network", "cli"]),
    ("cli.main", "cli", ["cli"]),
]
# (metric prefix, module, parent span)
COUNTED = [
    ("dnl.link_demand", "dnl", "dnl.run_dnl"),
    ("dnl.link_supply", "dnl", "dnl.run_dnl"),
    ("dnl.propagate_composition", "dnl", "dnl.run_dnl"),
    ("solver.solve_dual", "solver", "solver.fixed_point_update"),
]
JUNCTION = "junctions.resolve_junction"  # counted, parent dnl.run_dnl
COUNTED_PARENT = {name: parent for name, _, parent in COUNTED}
COUNTED_PARENT[JUNCTION] = "dnl.run_dnl"
LOADERS = {"fileio.load_network", "fileio.load_paths", "fileio.load_demand",
           "fileio.load_departures"}
WRITERS = {"fileio.write_paths", "fileio.write_departures"}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("dnl.run_dnl.calls", "count"), ("dnl.run_dnl.s", "s"),
    ("dnl.step_us", "us"), ("dnl.self_s", "s"),
    ("dnl.link_demand.calls", "count"), ("dnl.link_demand.s", "s"),
    ("dnl.link_supply.calls", "count"), ("dnl.link_supply.s", "s"),
    ("dnl.propagate_composition.calls", "count"),
    ("dnl.propagate_composition.s", "s"),
    ("dnl.composition_entries", "count"),
    ("junctions.resolve_junction.calls", "count"),
    ("junctions.resolve_junction.s", "s"),
    ("delays.effective_delay.calls", "count"), ("delays.effective_delay.s", "s"),
    ("solver.iterations", "count"),
    ("solver.fixed_point_update.calls", "count"),
    ("solver.fixed_point_update.s", "s"),
    ("solver.solve_dual.calls", "count"), ("solver.solve_dual.s", "s"),
    ("fileio.load_network.s", "s"), ("fileio.load_paths.s", "s"),
    ("fileio.load_demand.s", "s"), ("fileio.load_departures.s", "s"),
    ("fileio.write_dnl_results.s", "s"),
    ("fileio.bytes_read", "B"), ("fileio.bytes_written", "B"),
    ("fileio.enumerate_paths.s", "s"), ("network.validate_network.s", "s"),
    ("cli.main.s", "s"), ("cli.startup_s", "s"),
    ("traced.run_s", "s"),
]
# Taken from the set-up repetitions; every other metric from the operations.
SETUP_METRICS = {"fileio.enumerate_paths.s", "network.validate_network.s"}


class Record:
    def __init__(self, label: str):
        self.label = label
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.stack: List[int] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(int)
        self.misplaced = 0  # per-step calls made outside their parent span

    def self_times(self) -> Dict[str, float]:
        """Busy time of each spanned function minus its child spans and the
        per-step calls counted inside it."""
        out = {name: self.busy[name] for name, _, _, _ in self.spans}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        for name, parent in COUNTED_PARENT.items():
            if parent in out:
                out[parent] -= self.busy.get(name, 0.0)
        return out

    def to_json(self) -> dict:
        return {"label": self.label, "spans": self.spans, "calls": self.calls,
                "busy_s": self.busy, "self_s": self.self_times(),
                "values": self.values, "misplaced_calls": self.misplaced}

    @classmethod
    def from_json(cls, d: dict) -> "Record":
        r = cls(d["label"])
        r.spans = d["spans"]
        r.calls.update(d["calls"])
        r.busy.update(d["busy_s"])
        r.values.update(d["values"])
        r.misplaced = d["misplaced_calls"]
        return r


class Tracer:
    def __init__(self):
        self.records: List[Record] = []
        self.rec = Record("unattributed")

    def begin(self, label: str) -> Record:
        self.rec = Record(label)
        self.records.append(self.rec)
        return self.rec

    def _spanned(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.rec
            sid = len(rec.spans)
            span = [name, perf_counter(), None, rec.stack[-1] if rec.stack else -1]
            rec.spans.append(span)
            rec.stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec.stack.pop()
                rec.calls[name] += 1
                rec.busy[name] += span[2] - span[1]
            tracer._after(rec, name, args, out)
            return out

        return wrapper

    def _counted(self, name, fn, parent):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            rec = tracer.rec
            rec.busy[name] += perf_counter() - t0
            rec.calls[name] += 1
            if not rec.stack or rec.spans[rec.stack[-1]][0] != parent:
                rec.misplaced += 1
            return out

        return wrapper

    @staticmethod
    def _after(rec: Record, name: str, args, out) -> None:
        """Counts taken outside the span, so they do not inflate it."""
        if name == "dnl.run_dnl":
            rec.values["dnl.steps"] += out.grid.n_steps
            entries = sum(len(c[0]) for st in out.link_states.values()
                          for c in st.entry_composition if c is not None)
            rec.values["dnl.composition_entries"] = max(
                rec.values["dnl.composition_entries"], entries)
        elif name in LOADERS:
            rec.values["fileio.bytes_read"] += os.path.getsize(args[0])
        elif name in WRITERS:
            rec.values["fileio.bytes_written"] += os.path.getsize(args[-1])
        elif name == "fileio.write_dnl_results":
            out_dir = args[1]
            for f in ("travel_times.csv", "link_timeseries.csv", "summary.json",
                      "plot_results.py"):
                rec.values["fileio.bytes_written"] += os.path.getsize(
                    os.path.join(out_dir, f))

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"dtaflow.{m}")
                for m in ("dnl", "solver", "delays", "fileio", "network", "cli",
                          "junctions")}
        for name, home, users in SPANNED:
            attr = name.split(".")[1]
            wrapped = self._spanned(name, getattr(mods[home], attr))
            for m in users:
                setattr(mods[m], attr, wrapped)
        for name, home, parent in COUNTED:
            attr = name.split(".")[1]
            setattr(mods[home], attr,
                    self._counted(name, getattr(mods[home], attr), parent))
        junctions = mods["junctions"]
        junctions.register_junction_model(
            "fifo_priority",
            self._counted(JUNCTION, junctions.get_junction_model("fifo_priority"),
                          COUNTED_PARENT[JUNCTION]))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([r.to_json() for r in self.records], fh)


def record_metrics(rec: Record, per: int = 1) -> Dict[str, float]:
    """Per-layer values of one traced operation or set-up repetition; calls
    and busy times are divided by `per`, the set-ups in a batch."""
    m: Dict[str, float] = {}
    for name in [n for n, _, _ in SPANNED] + [n for n, _, _ in COUNTED] + [JUNCTION]:
        m[f"{name}.calls"] = rec.calls.get(name, 0) / per
        m[f"{name}.s"] = rec.busy.get(name, 0.0) / per
    steps = rec.values.get("dnl.steps", 0)
    m["dnl.step_us"] = 1e6 * m["dnl.run_dnl.s"] / steps if steps else 0.0
    m["dnl.self_s"] = rec.self_times().get("dnl.run_dnl", 0.0)
    for key in ("dnl.composition_entries", "fileio.bytes_read",
                "fileio.bytes_written", "solver.iterations", "cli.startup_s",
                "traced.run_s"):
        m[key] = rec.values.get(key, 0)
    return m
