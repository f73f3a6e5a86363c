"""Record the golden answers for every pooled input of the given workloads.

    python3 perfbench/record_golden.py [graph] [heights] [cycles]

Run it from the repository root on the commit whose answers are taken as
correct; it writes ``perfbench/golden/<workload>.json``.  The benchmark
compares each answer it computes with these files.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import checks
import workloads as wl

sys.path.insert(0, os.path.join(os.path.dirname(wl.HERE), "src"))


def graph_golden(session):
    entries = list(wl.GRAPH_ANCHORS) + wl.graph_pool()
    return {wl.graph_key(c, k, n):
            checks.graph_summary(session.run(("graph", c, k, n)))
            for c, k, n in entries}


def heights_golden(session):
    return {checks.height_key(req): list(session.run(req))
            for req in wl.golden_height_requests()}


def cycles_golden(session):
    return {checks.cycles_key(c): checks.cycles_summary(session.run(("cycles", c, pts)))
            for c, pts in wl.cycles_pool()}


RECORDERS = {"graph": graph_golden, "heights": heights_golden,
             "cycles": cycles_golden}


def main(argv):
    for workload in argv or wl.WORKLOADS:
        t0 = perf_counter()
        session = wl.Session(workload)
        session.warm_up()
        golden = RECORDERS[workload](session)
        path = os.path.join(wl.HERE, "golden", f"{workload}.json")
        lines = [f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
                 for key in sorted(golden)]
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{workload}: {len(golden)} answers in {perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
