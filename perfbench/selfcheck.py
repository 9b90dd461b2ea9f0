"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root.  For each workload of BENCHMARK.json, with
the default seed and 5-second runs, it checks that:

* an untraced run prints every end-to-end metric of BENCHMARK.json, by
  name and with its unit, both on its own line and in the result;
* two traced runs of the same seed print every per-layer metric with its
  unit and give identical counters (every per-layer metric not in
  seconds);
* every run reports ``correct``.

It also checks that the command, run in a directory that holds only
BENCHMARK.json and the benchmark's files, exits non-zero without
printing a result.  Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SECONDS = 5


def _run(root, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def _check_metrics(workload, lines, result, specs, problems, what):
    got = result["metrics"]
    if set(got) != {m["name"] for m in specs}:
        problems.append(f"{workload} {what}: metrics {sorted(got)} differ from BENCHMARK.json")
    for m in specs:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"]:
            problems.append(f"{workload} {what}: {m['name']} missing or not in {m['unit']}")
        elif not any(line.startswith(f"{workload} {m['name']} ") and
                     line.split("  (")[0].endswith(f" {m['unit']}") for line in lines):
            problems.append(f"{workload} {what}: no printed line for {m['name']} in {m['unit']}")
    if not result["correct"]:
        problems.append(f"{workload} {what}: run reported correct=false")


def _check_refusal(root, bench, problems):
    """The command must refuse to run without the program's sources."""
    bare = os.path.join(root, OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*bench["command"], "--workload", bench["workloads"][0]["name"], "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python3", "python") else cmd[0]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    if proc.returncode == 0 or last.startswith("{"):
        problems.append("the command ran or printed a result outside a checkout")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] != "s"]
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        lines, result = _run(root, workload, 0)
        _check_metrics(workload, lines, result, bench["end_to_end"], problems, "end-to-end")
        traced = [_run(root, workload, 1) for _ in range(2)]
        for lines, result in traced:
            _check_metrics(workload, lines, result, bench["per_layer"], problems, "traced")
        first, second = (r["metrics"] for _, r in traced)
        differ = [n for n in counters if first[n]["value"] != second[n]["value"]]
        if differ:
            problems.append(f"{workload}: counters differ between two traced runs: {differ}")
        print(f"{workload}: {len(counters)} counters repeat" if not differ
              else f"{workload}: counters differ: {differ}", flush=True)
    _check_refusal(root, bench, problems)
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
