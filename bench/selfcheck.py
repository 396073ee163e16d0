"""Self-check of the benchmark's own output checks.

    python3 bench/selfcheck.py

Runs one Braess solve and one grid loading on seed 0 (about half a minute),
confirms that their clean outputs pass the checks (the grid loading as the
files `dtaflow dnl` writes), then corrupts copies of them one fault at a
time (an O-D mass off by 1%, a negative rate, a travel time below free
flow, a relative density above 1, a missing row, ...) and confirms that
each is rejected with the expected message. It also checks the speed
normalisation on hand-made samples, and that the metric names in
BENCHMARK.json match what run.py prints. Exits 1 on any miss. It is a
plain script, outside the pytest suite.
"""

import copy
import json
import logging
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work", "selfcheck")

misses = []


def expect(label, errs, needle):
    """`needle` None: the output must pass; otherwise an error must name it."""
    if needle is None:
        ok = not errs
    else:
        ok = any(needle in e for e in errs)
    print(f"{'ok  ' if ok else 'MISS'} {label}: {errs or 'passes'}")
    if not ok:
        misses.append(label)


def braess_cases():
    inp = inputs.braess_inputs(0)
    report = solver.solve_due(inp.net, inp.grid, inp.config)
    expect("braess clean", checks.check_braess(report, inp)[0], None)

    def corrupted(edit):
        bad = copy.deepcopy(report)
        edit(bad)
        return checks.check_braess(bad, inp)[0]

    rows = [report.path_order.index(p) for p in inp.od_paths[("1", "3")]]
    expect("O-D mass +1%",
           corrupted(lambda r: r.h_final.__setitem__(rows, r.h_final[rows] * 1.01)),
           "carries")
    expect("negative rate",
           corrupted(lambda r: r.h_final.__setitem__((0, 0), -1e-3)), "negative")
    expect("psi off by 1 s",
           corrupted(lambda r: r.psi_final.__setitem__((3, 100), r.psi_final[3, 100] + 1)),
           "psi_final")
    expect("travel time below free flow",
           corrupted(lambda r: r.final_dnl.travel_time.__setitem__((0, 10), 1.0)),
           "free-flow")
    expect("gap above limit", checks.check_braess(report, inp, gap_limit=1e-4)[0],
           "equilibrium gap")


def grid_cases():
    inp = inputs.grid_inputs(0)
    return inp, dnl.run_dnl(inp.net, inp.h, inp.grid)


def replay_cases(inp, result):
    os.makedirs(WORK, exist_ok=True)
    net_file = os.path.join(WORK, "network.txt")
    paths_file = os.path.join(WORK, "paths.txt")
    out = os.path.join(WORK, "out")
    inputs.write_network(inp.nodes, inp.links, net_file)
    fileio.write_paths(inp.paths, paths_file)
    fileio.write_dnl_results(result, out)
    order = list(inp.net.paths)

    def check():
        return checks.check_replay(out, net_file, paths_file, order,
                                   inp.grid.n_steps, inp.grid.dt_s)[0]

    expect("replay clean", check(), None)

    def corrupted(name, edit):
        path = os.path.join(out, name)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
        try:
            return check()
        finally:
            with open(path, "w") as fh:
                fh.write(text)

    def density_above_one(text):
        lines = text.split("\n")
        cells = lines[1].split(",")
        cells[5] = "1.5"
        lines[1] = ",".join(cells)
        return "\n".join(lines)

    def fast_trip(text):
        lines = text.split("\n")
        cells = lines[1].split(",")
        cells[1] = "0.5"
        lines[1] = ",".join(cells)
        return "\n".join(lines)

    expect("relative density 1.5",
           corrupted("link_timeseries.csv", density_above_one), "relative_density")
    expect("replay travel time below free flow",
           corrupted("travel_times.csv", fast_trip), "free-flow")
    expect("missing travel-time row",
           corrupted("travel_times.csv", lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n"),
           "travel_times.csv is")
    expect("balance residual 1e-3",
           corrupted("summary.json", lambda t: json.dumps(
               dict(json.loads(t), max_balance_residual=1e-3))), "balance residual")


def speed_cases():
    """normalised() on hand-made samples: a stretch followed by a sample
    twice as slow as the reference counts half its wall time."""
    r = speed.REFERENCE_S
    samples = [(1.0, 1.0 + r), (2.0, 2.0 + 2 * r), (3.5, 3.5 + r)]
    wall, norm = speed.normalised(0.5, 3.0, samples)
    want_wall = 0.5 + (1.0 - r) + (1.0 - 2 * r)
    want_norm = 0.5 + (1.0 - r) / 2 + (1.0 - 2 * r)
    errs = []
    if abs(wall - want_wall) > 1e-12 or abs(norm - want_norm) > 1e-12:
        errs.append(f"normalised gave {(wall, norm)}, expected {(want_wall, want_norm)}")
    expect("speed normalisation", errs, None)


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    e2e = {m["name"] for m in spec["end_to_end"]}
    errs = []
    if layer != tracing.PER_LAYER:
        errs.append("per_layer names/units differ from tracing.PER_LAYER")
    if e2e != {"run_s", "setup_s", "peak_rss_mb", "equilibrium_gap"}:
        errs.append("end_to_end names differ from run.py")
    expect("BENCHMARK.json metric names", errs, None)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    logging.disable(logging.WARNING)
    from dtaflow import dnl, fileio, solver

    import checks
    import inputs
    import speed
    import tracing

    metric_names()
    speed_cases()
    braess_cases()
    replay_cases(*grid_cases())
    print(f"{len(misses)} misses" + (f": {misses}" if misses else ""))
    sys.exit(1 if misses else 0)
