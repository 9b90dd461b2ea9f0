"""fishercap benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload design --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  One
client sends the workload's requests one after another (a closed loop)
and passes over the request list until ``--seconds`` have elapsed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes in which every public function of each
fishercap layer is wrapped (see spans.py), and prints the per-layer
metrics, the tracing overhead among them.  Either way, each result is
checked (ops.py), and the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from ops import Checker, handle, prepare_inputs
from spans import Tracer, install, layer_metrics, uninstall, write_csv
from workloads import DEFAULT_SEED, generate

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))

def _percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _blas_threads(np):
    """Threads the OpenBLAS bundled with numpy reports, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np):
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "blas_threads_requested": BLAS_THREADS,
            "blas_threads": _blas_threads(np), "machine": platform.machine(),
            "platform": platform.platform()}


def measure_setup(workload, seed, root, env):
    """Medians over fresh processes of probe.py: set-up, import and interpreter start.

    The probe stamps CLOCK_MONOTONIC, which is one clock for every process
    on Linux, as its first statement; the stamp minus the moment this
    process spawned it is the bare interpreter's start-up.
    """
    probe = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    setup, imports, interps = [], [], []
    for _ in range(SETUP_REPEATS):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(probe, cwd=root, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"probe.py exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        out = json.loads(proc.stdout)
        interps.append(out["started"] - spawned)
        imports.append(out["import_s"])
        # the cli workload's set-up is the import alone: each command is a new process
        setup.append(out["import_s"] + (out["channels_s"] if workload != "cli" else 0.0))
    return {"setup_s": statistics.median(setup), "cli.import_s": statistics.median(imports),
            "cli.interp_s": statistics.median(interps)}


def src_lines(root):
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "fishercap", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


class Run:
    """Passes over one request list, with every result checked."""

    def __init__(self, fc, np, requests, inputs, checker, root):
        self.fc, self.np = fc, np
        self.requests = requests
        self.inputs = inputs
        self.checker = checker
        self.root = root
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = {}   # request id -> first failure messages
        self.known = {}

    def one_pass(self, in_process, tracer=None):
        """Runs every request once; returns the pass wall time and the results."""
        results = []
        start = time.perf_counter()
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                res = handle(self.fc, self.np, req, self.inputs, self.root, in_process)
            except Exception as e:  # a failed request is counted, not fatal
                res = e
            self.latencies.append(time.perf_counter() - t0)
            results.append(res)
        return time.perf_counter() - start, results

    def check(self, results):
        """Checks one pass's results, outside any tracing, and counts the failures."""
        for req, res in zip(self.requests, results):
            self.attempted += 1
            try:
                errs = self.checker.check(req, res, self.inputs.get(req["id"]))
            except Exception as e:  # a result the checks cannot read is a failed request
                errs = [f"check raised {type(e).__name__}: {e}"]
            if errs:
                self.failed += 1
                target = self.known if "known_defect" in req else self.unexpected
                target.setdefault(req["id"], errs)


def end_to_end(run, workload, seconds, setup):
    walls, passes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, results = run.one_pass(in_process=False)
        walls.append(wall)
        passes.append(results)
        if time.perf_counter() >= deadline:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    # checked after the timed window, so that every second of it is spent on requests
    for results in passes:
        run.check(results)
    lat = run.latencies
    values = {
        # The mean, not the median: on a shared host the speed switches
        # between levels for seconds at a time, and a mean moves smoothly
        # with the share of the run spent at each level where a median of
        # a few passes jumps from one level to the other.
        "wall_s": statistics.fmean(walls),
        "job_p50_s": _percentile(lat, 50),
        "job_p90_s": _percentile(lat, 90),
        "peak_rss_mb": peak_mb,
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "setup_s": setup["setup_s"],
    }
    notes = {
        "wall_s": f"mean of {len(walls)} passes of {len(run.requests)} requests, "
                  f"range {min(walls):.4g} to {max(walls):.4g} s",
        "job_p50_s": f"{len(lat)} request timings",
        "job_p90_s": f"{len(lat)} request timings, {sum(1 for x in lat if x > values['job_p90_s'])}"
                     " beyond",
        "peak_rss_mb": "max RSS of the command processes" if workload == "cli"
                       else "max RSS of this process",
        "ok_frac": f"fail_frac = {run.failed / run.attempted:.6g} ({run.failed} of "
                   f"{run.attempted} requests failed)",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes"
                   + (": import fishercap" if workload == "cli"
                      else ": import fishercap + build the workload's channels"),
    }
    return values, notes


def per_layer(run, workload, seconds, root, setup, units):
    untraced, traced, layers, passes = [], [], [], []
    first_spans = None
    deadline = time.perf_counter() + seconds
    while True:
        wall, results = run.one_pass(in_process=True)
        passes.append(results)
        untraced.append(wall)
        tracer = Tracer()
        undo = install(tracer)
        try:
            wall, results = run.one_pass(in_process=True, tracer=tracer)
        finally:
            uninstall(undo)
        passes.append(results)
        traced.append(wall)
        layers.append(layer_metrics(tracer.spans))
        if first_spans is None:
            first_spans = tracer.spans
        if time.perf_counter() >= deadline:
            break
    for results in passes:  # after the timed window, with no tracer installed
        run.check(results)
    # counters from the first traced pass, times as medians over all of them
    counters = [n for n in layers[0] if units[n] != "s"]
    values = {n: layers[0][n] if n in counters else statistics.median(m[n] for m in layers)
              for n in layers[0]}
    values["src.lines"] = src_lines(root)
    values["cli.import_s"] = setup["cli.import_s"]
    values["cli.interp_s"] = setup["cli.interp_s"]
    values["cli.cmd_s"] = statistics.median(untraced) if workload == "cli" else 0.0
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    for m in layers[1:]:
        changed = [n for n in counters if m[n] != layers[0][n]]
        if changed:
            run.unexpected.setdefault("trace-counters", [f"counters differ between traced "
                                                         f"passes: {', '.join(changed)}"])
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    write_csv(first_spans, os.path.join(root, OUT_DIR, f"spans-{workload}.csv"))
    notes = {"trace.overhead_s": f"median traced pass {statistics.median(traced):.6g} s minus "
                                 f"median untraced pass {statistics.median(untraced):.6g} s "
                                 f"({len(traced)} of each, in-process)",
             "cli.cmd_s": "median in-process pass of cli.main over the ten commands"
                          if workload == "cli" else "no CLI commands in this workload",
             "cli.import_s": f"median of {SETUP_REPEATS} fresh processes: import fishercap",
             "cli.interp_s": f"median of {SETUP_REPEATS} fresh processes: spawn to first statement",
             "src.lines": "lines in src/fishercap/*.py"}
    return values, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("design", "types", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fishercap", "__init__.py")):
        print("perfbench: src/fishercap not found under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=src)
    sys.path.insert(0, src)

    # set-up runs in fresh processes before this one imports the library
    setup = measure_setup(args.workload, args.seed, root, env)

    import numpy as np

    import fishercap as fc

    if not os.path.abspath(fc.__file__).startswith(src + os.sep):
        print(f"perfbench: imported fishercap from {fc.__file__}, not from {src}", file=sys.stderr)
        return 2
    info = environment(np)
    print("env " + json.dumps(info, sort_keys=True))

    requests = generate(args.workload, args.seed)
    reference = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    checker = Checker(fc, np, reference)
    run = Run(fc, np, requests, prepare_inputs(np, requests), checker, root)
    if info["blas_threads"] is not None and info["blas_threads"] > info["nproc"]:
        run.unexpected["environment"] = [f"BLAS uses {info['blas_threads']} threads "
                                         f"on {info['nproc']} processors"]

    # metric names and units come from BENCHMARK.json
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    if args.trace:
        values, notes = per_layer(run, args.workload, args.seconds, root, setup, units)
    else:
        values, notes = end_to_end(run, args.workload, args.seconds, setup)

    for rid, errs in sorted(run.known.items()):
        print(f"known defect {rid}: {'; '.join(errs)}")
    for rid, errs in sorted(run.unexpected.items()):
        print(f"FAILED {rid}: {'; '.join(errs)}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {values[name]!r} {units[name]}{note}")
    result = {"correct": not run.unexpected, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": info, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
