"""dtaflow benchmark: one workload per run, closed loop, one operation at a
time in a single process (grid-replay starts one CLI process per operation).

    python3 bench/run.py --workload braess-due --seed 0 --seconds 50 --trace 0

The run builds its inputs from the seed (see inputs.py) several times and
reports the median set-up time, then repeats the workload's operation until
`--seconds` is used up, checking every output. The last line of standard
output is a JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
run with `--trace 1`. A traced run also writes its spans and counters to
.bench_work/trace-<workload>-seed<seed>.json.

Times are normalised to the reference machine's speed (speed.py): the run
samples the machine's speed every 0.2 s and scales each stretch of work by
the sample that follows it. `run_s` is the median normalised time of one
operation, `setup_s` the median normalised time of one set-up. On a shared
host the raw wall time of the same operation moves by a quarter or more
from minute to minute; the normalised time far less (see README.md). The
raw median is printed on the line before the result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # numpy's thread pools, set before numpy loads

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0  # keep repeating the set-up until this much time is spent
# A set-up faster than this is timed in batches, run back to back until the
# batch has lasted this long, and one more batch runs before each operation,
# so that the median spans the run rather than one instant of it.
SETUP_BATCH_S = 0.2


def import_package():
    """Put the checkout's own src/ first on the path and make sure that is
    the dtaflow that loaded."""
    if not os.path.isfile(os.path.join(SRC, "dtaflow", "__init__.py")):
        sys.exit(f"error: no dtaflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import dtaflow

    if not os.path.abspath(dtaflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: dtaflow was imported from {dtaflow.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class BraessDue:
    """Criterion-10 equilibrium solve on the Braess network."""

    def __init__(self, seed, tracer, meter):
        self.seed = seed
        self.inp = None

    def setup(self):
        self.inp = inputs.braess_inputs(self.seed)

    def op(self):
        inp = self.inp
        return solver.solve_due(inp.net, inp.grid, inp.config), []

    def check(self, report, rec):
        if rec is not None:
            rec.values["solver.iterations"] = report.iterations_used
        return checks.check_braess(report, self.inp)

    def peak_rss_mb(self):
        return peak_rss_mb()


class GridReplay:
    """A loading of the criterion-11 grid through `dtaflow dnl` in a child
    process, from input files written with the package's writers."""

    def __init__(self, seed, tracer, meter):
        self.seed = seed
        self.tracer = tracer
        self.meter = meter
        self.dir = os.path.join(WORK, "grid-replay")
        self.files = {k: os.path.join(self.dir, f"{k}.{ext}") for k, ext in
                      (("network", "txt"), ("paths", "txt"), ("demand", "txt"),
                       ("departures", "csv"))}
        self.out = os.path.join(self.dir, "out")
        self.trace_file = os.path.join(self.dir, "cli-trace.json")
        self.samples_file = os.path.join(self.dir, "cli-speed.json")
        self.inp = None
        self.rss = []

    def setup(self):
        self.inp = None
        inp = inputs.grid_inputs(self.seed)
        os.makedirs(self.dir, exist_ok=True)
        inputs.write_network(inp.nodes, inp.links, self.files["network"])
        inputs.write_demand(inp.ods, self.files["demand"])
        fileio.write_paths(inp.paths, self.files["paths"])
        fileio.write_departures(tuple(inp.net.paths), inp.h, self.files["departures"])
        self.inp = inp

    def op(self):
        shutil.rmtree(self.out, ignore_errors=True)
        g = self.inp.grid
        args = ["dnl", "--network", self.files["network"],
                "--paths", self.files["paths"], "--demand", self.files["demand"],
                "--departures", self.files["departures"], "--dt", repr(g.dt_s),
                "--horizon", repr(g.tf_s - g.t0_s), "--t0", repr(g.t0_s),
                "--out", self.out]
        if self.tracer is None:
            cmd = [sys.executable, os.path.join(BENCH, "cli_timed.py"),
                   self.samples_file] + args
        else:
            cmd = [sys.executable, os.path.join(BENCH, "cli_traced.py"),
                   self.trace_file] + args
        env = dict(os.environ, PYTHONPATH=SRC)
        if self.meter is not None:
            self.meter.stop()  # the child samples its own speed
        with open(os.path.join(self.dir, "cli.log"), "w") as log:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
        if self.meter is not None:
            self.meter.start()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss.append(usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            raise RuntimeError(f"dtaflow dnl exited with {proc.returncode}; "
                               f"see {os.path.join(self.dir, 'cli.log')}")
        if self.tracer is not None:
            with open(self.trace_file) as fh:
                rec = tracing.Record.from_json(json.load(fh)[0])
            rec.values["cli.startup_s"] = wall - rec.busy.get("cli.main", 0.0)
            self.tracer.records[-1] = self.tracer.rec = rec
            return wall, []
        with open(self.samples_file) as fh:
            return wall, [tuple(x) for x in json.load(fh)]

    def check(self, wall, rec):
        inp = self.inp
        errs, tt = checks.check_replay(self.out, self.files["network"],
                                       self.files["paths"], list(inp.net.paths),
                                       inp.grid.n_steps, inp.grid.dt_s)
        if errs:
            return errs, None
        return errs, checks.grid_gap(inp, tt, list(inp.net.paths))

    def peak_rss_mb(self):
        return statistics.median(self.rss)


WORKLOADS = {"braess-due": BraessDue, "grid-replay": GridReplay}


class SetupTimer:
    """Median time of one set-up. A set-up that takes less than
    SETUP_BATCH_S is run in batches that last that long, timed as the batch
    mean, with one more batch before each operation (`between_ops`)."""

    def __init__(self, wl, tracer, meter):
        self.wl, self.tracer, self.meter = wl, tracer, meter
        self.durations = []  # (wall, normalised) per set-up
        self.batched = False

    def rep(self):
        rec = None
        if self.tracer is not None:
            rec = self.tracer.begin(f"setup-{len(self.tracer.records)}")

        def batch():
            n, t0 = 0, perf_counter()
            while True:
                self.wl.setup()
                n += 1
                if not self.batched or perf_counter() - t0 >= SETUP_BATCH_S:
                    return n

        n, (wall, norm) = timed(self.meter, batch)
        if rec is not None:
            rec.values["setup.reps"] = n
        self.durations.append((wall / n, norm / n))

    def start(self):
        t0 = perf_counter()
        self.rep()
        if self.durations[0][0] < SETUP_BATCH_S:
            self.batched = True
            self.durations = []  # the probe was a single set-up, not a batch
        while len(self.durations) < SETUP_MIN_REPS or perf_counter() - t0 < SETUP_MIN_S:
            self.rep()

    def between_ops(self):
        if self.batched:
            self.rep()


def timed(meter, fn):
    """(fn's result, (wall, normalised) time of the call). Without a meter
    (a traced run) both times are the wall time."""
    if meter is not None:
        return meter.timed(fn)
    t0 = perf_counter()
    out = fn()
    wall = perf_counter() - t0
    return out, (wall, wall)


def measure(wl, seconds, tracer, meter, setup):
    """Closed loop: the next operation starts when the previous one is done
    and checked. Stops when another operation, at the median length so
    far, would end past `seconds`; the first always runs."""
    times, gaps, failed, correct = [], [], 0, True  # times: (wall, normalised)
    start = perf_counter()
    while True:
        if times:
            setup.between_ops()
        if tracer is not None:
            tracer.begin(f"op-{len(times)}")
        t0 = perf_counter()
        try:
            (out, child_samples), t1 = wl.op(), perf_counter()
        except Exception:  # a failed operation is counted; the loop goes on
            traceback.print_exc()
            out, t1 = None, perf_counter()
        if meter is None:
            times.append((t1 - t0, t1 - t0))
        else:
            meter.sample()
            times.append(speed.normalised(
                t0, t1, sorted(child_samples + meter.samples) if out is not None
                else meter.samples))
        if out is None:
            failed += 1
        else:
            rec = tracer.rec if tracer is not None else None  # grid-replay swaps it
            errs, gap = wl.check(out, rec)
            if rec is not None:
                rec.values["traced.run_s"] = t1 - t0
                if rec.misplaced:
                    errs.append(f"{rec.misplaced} per-step calls outside their parent span")
            if errs:
                failed += 1
                correct = False
                print(f"check failed on operation {len(times)}: " + "; ".join(errs),
                      file=sys.stderr)
            else:
                gaps.append(gap)
        out = None
        elapsed = perf_counter() - start
        if elapsed + statistics.median(t for t, _ in times) > seconds:
            return times, gaps, failed, correct


def layer_metrics(tracer):
    setup = [tracing.record_metrics(r, per=r.values["setup.reps"])
             for r in tracer.records if r.label.startswith("setup")]
    ops = [tracing.record_metrics(r) for r in tracer.records
           if not r.label.startswith("setup")]
    out = {}
    for name, unit in tracing.PER_LAYER:
        src = setup if name in tracing.SETUP_METRICS else ops
        out[name] = {"value": statistics.median(m[name] for m in src), "unit": unit}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="0 reproduces the acceptance-criterion inputs")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    meter = None
    if not args.trace:
        meter = speed.Meter()
        meter.start()
    wl = WORKLOADS[args.workload](args.seed, tracer, meter)
    setup = SetupTimer(wl, tracer, meter)
    setup.start()
    times, gaps, failed, correct = measure(wl, args.seconds, tracer, meter, setup)
    if meter is not None:
        meter.stop()

    wall = [t for t, _ in times]
    run_s = statistics.median(n for _, n in times)
    setup_s = statistics.median(n for _, n in setup.durations)
    print(f"{args.workload} seed {args.seed}: {len(times)} operations, "
          f"{failed} failed; run_s {run_s:.4g} (wall: median "
          f"{statistics.median(wall):.4g}, min {min(wall):.4g}, max "
          f"{max(wall):.4g}); setup_s {setup_s:.4g} (wall: median "
          f"{statistics.median(t for t, _ in setup.durations):.4g}; "
          f"{len(setup.durations)} repetitions)")
    if tracer is not None:
        trace_file = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_file)
        print(f"trace written to {os.path.relpath(trace_file, ROOT)}")
        metrics = layer_metrics(tracer)
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
            "equilibrium_gap": {"value": statistics.median(gaps) if gaps else None,
                                "unit": "1"},
        }
    print(json.dumps({"correct": correct, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    import_package()
    from dtaflow import fileio, solver  # noqa: E402

    import checks  # noqa: E402
    import inputs  # noqa: E402
    import speed  # noqa: E402
    import tracing  # noqa: E402

    sys.exit(main())
