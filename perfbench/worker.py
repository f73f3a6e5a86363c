"""One fresh interpreter of the benchmark: set up, run a closed loop of
requests, check the answers, print one JSON line.

    python3 perfbench/worker.py MODE WORKLOAD SEED [--seconds S] [--groups N]

MODE is ``setup`` (import and warm-up only), ``run`` (untraced) or ``trace``
(spans at every layer boundary).  The loop has one client: it sends the next
request when the previous one returns.  It stops after ``--groups`` groups,
or at the first group boundary after ``--seconds`` seconds of requests.
Time spent checking answers is excluded from the wall time.  Run it through
``run.py``, which sets up the environment; it imports symprod from the
checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import checks
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_ERRORS_SHOWN = 20


def import_symprod():
    t0 = perf_counter()
    import symprod
    import symprod.cli  # noqa: F401  (the graph workload calls the CLI)
    elapsed = perf_counter() - t0
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(symprod.__file__), src]) != src:
        raise SystemExit(f"symprod was imported from {symprod.__file__}, "
                         f"not from {src}")
    return symprod, elapsed


def latency_summary(lat_s):
    lat = sorted(x * 1000.0 for x in lat_s)
    out = {"n": len(lat), "p50_ms": statistics.median(lat) if lat else None,
           "p90_ms": None}
    # p90 only with at least ten samples beyond it
    if len(lat) >= 100:
        out["p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(session, checker, groups, seconds, recorder, rss_groups):
    """Closed loop over the groups; peak RSS is read after the first
    rss_groups groups, so that it measures a fixed amount of work."""
    failures = Counter()
    latencies = []
    errors = []
    counts = {"attempted": 0, "ok": 0}
    rss = None

    def send(req):
        if recorder is not None:
            recorder.request = counts["attempted"]
        t0 = perf_counter()
        status, value = wl.outcome(session, req)
        dt = perf_counter() - t0
        counts["attempted"] += 1
        if status != "ok":
            failures[f"{status}:{value}"] += 1
            return False, None
        counts["ok"] += 1
        latencies.append(dt)
        return True, value

    done = 0
    check_s = 0.0
    start = perf_counter()
    for group in groups:
        if seconds is not None and perf_counter() - start - check_s >= seconds:
            break
        results = [send(req) for req in group]
        done += 1
        if done == rss_groups:
            rss = peak_rss_mb()
        t0 = perf_counter()
        if recorder is not None:
            recorder.paused = True
        if all(ok for ok, _value in results):
            errors.extend(checker.check_group(group, [value for _ok, value in results]))
        if recorder is not None:
            recorder.paused = False
        check_s += perf_counter() - t0
    wall = perf_counter() - start - check_s
    return {"groups": done, "attempted": counts["attempted"], "ok": counts["ok"],
            "failed": counts["attempted"] - counts["ok"], "failures": dict(failures),
            "wall_s": wall, "check_s": check_s,
            "peak_rss_mb": peak_rss_mb() if rss is None else rss,
            "latency": latency_summary(latencies),
            "error_count": len(errors), "errors": errors[:MAX_ERRORS_SHOWN],
            "bound_violations": checker.bound_violations[:MAX_ERRORS_SHOWN],
            "bound_violation_count": len(checker.bound_violations)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("workload", choices=wl.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--groups", type=int, default=None)
    args = ap.parse_args(argv)

    sp, import_s = import_symprod()
    session = wl.Session(args.workload)
    t0 = perf_counter()
    session.warm_up()
    warm_s = perf_counter() - t0
    out = {"mode": args.mode, "workload": args.workload, "seed": args.seed,
           "import_s": import_s, "warm_s": warm_s, "setup_s": import_s + warm_s}
    if args.mode != "setup":
        groups = wl.groups_for(args.workload, args.seed)
        if args.groups is not None:
            groups = groups[:args.groups]
        checker = checks.Checker(args.workload, sp)
        recorder = None
        if args.mode == "trace":
            import spans as tracing
            recorder = tracing.install(sp)
        out.update(run_loop(session, checker, groups, args.seconds, recorder,
                            wl.TRACE_GROUPS[args.workload]))
        if recorder is not None:
            out["layers"] = recorder.metrics()
            out["spans"] = len(recorder.spans)
            out["violations"] = recorder.violations(args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
