"""Record the default seed's results as the benchmark's reference values.

    python3 perfbench/record_reference.py

Run from the repository root, at a commit whose outputs are trusted.
Every request of every workload runs once in this process (cli requests
as the library calls the CLI makes); the results must pass the checks
that hold for any seed, and are then written to perfbench/reference.json.
Requests marked as known defects are left out: they are checked against
closed forms, never against recorded values.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy as np

    import fishercap as fc
    from ops import Checker, handle, prepare_inputs
    from workloads import DEFAULT_SEED, WORKLOADS, generate

    checker = Checker(fc, np)
    out = {"seed": DEFAULT_SEED}
    bad = []
    for workload in WORKLOADS:
        requests = generate(workload, DEFAULT_SEED)
        inputs = prepare_inputs(np, requests)
        recorded = {}
        for req in requests:
            if "known_defect" in req:
                continue
            res = handle(fc, np, req, inputs, os.getcwd(), in_process=True)
            errs = checker.check(req, res, inputs.get(req["id"]))
            if errs:
                bad.append(f"{req['id']}: {'; '.join(errs)}")
            recorded[req["id"]] = checker.comparable(req, res)
        out[workload] = recorded
    if bad:
        print("not recorded; failing checks:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
