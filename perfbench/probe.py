"""Set-up timing in a fresh process.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON line: the CLOCK_MONOTONIC reading at its first
statement (the caller subtracts the moment it spawned the process to get
the interpreter's start-up), the seconds ``import fishercap`` takes, and
the seconds to build every channel of the workload's request list.  The
import is timed before anything else is imported, so numpy and scipy
are charged to it as they are for a user.
"""

import sys
import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    import json

    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import fishercap
    t1 = time.perf_counter()
    from workloads import channel_records, generate

    records = channel_records(generate(workload, seed))
    t2 = time.perf_counter()
    for record in records:
        fishercap.channel_from_json(record)
    t3 = time.perf_counter()
    print(json.dumps({"started": STARTED, "import_s": t1 - t0, "channels_s": t3 - t2,
                      "channels": len(records)}))


if __name__ == "__main__":
    main()
