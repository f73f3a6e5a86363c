"""symprod benchmark: seeded request workloads against the public API.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  Workloads are ``graph``, ``heights`` and
``cycles`` (see README.md in this directory for why each exists, and why
``heights`` is not in BENCHMARK.json).  Every run
starts fresh interpreters (``worker.py``) with ``SYMPROD_THREADS`` unset and
symprod imported from ``src``, so process-global caches start empty.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
is the median over several fresh interpreters, the rest come from one closed
loop of requests lasting ``--seconds``.  ``--trace 1`` runs a fixed number of
request groups twice, untraced and then traced, and reports the per-layer
metrics of the traced pass and the tracing overhead.  ``--smoke`` runs a few
requests of every workload in BENCHMARK.json through both paths, with all
answer checks and the schema check, in well under a minute.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (provenance, failure types, sample counts).  A wrong answer
prints ``"correct": false`` and exits 1; a broken environment exits 2
without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 7          # fresh interpreters per set-up median
TIME_LIMIT_S = 170.0       # every run ends within this, checks included
SMOKE_GROUPS = {"graph": 8, "cycles": 1}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


def worker_env():
    env = dict(os.environ)
    env.pop("SYMPROD_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # symprod is compiled on every import, whatever the caller's setting, so
    # that set-up time means the same in every checkout and nothing is
    # written next to the sources
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(deadline, mode, workload, seed, seconds=None, groups=None):
    """Run one worker in a fresh interpreter; return its JSON summary."""
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    if groups is not None:
        argv += ["--groups", str(groups)]
    remaining = deadline - perf_counter()
    if remaining <= 1:
        raise BenchError("time limit reached before the run finished")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} worker for {workload} printed no result") from exc


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """Digest of the library sources, which identifies the code measured when
    there is no commit."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"commit": git_commit(), "src_digest": src_digest(),
            "python": platform.python_version(), "nproc": nproc,
            "cpu_model": cpu_model(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def failure_details(summary):
    attempted = summary["attempted"]
    return {"attempted": attempted, "failed": summary["failed"],
            "fail_frac": summary["failed"] / attempted if attempted else None,
            "failures": summary["failures"], "error_count": summary["error_count"],
            "errors": summary["errors"],
            "bound_violation_count": summary["bound_violation_count"],
            "bound_violations": summary["bound_violations"]}


def end_to_end_values(run, setups):
    return {"setup_s": statistics.median(setups),
            "throughput_rps": run["ok"] / run["wall_s"],
            "lat_p50_ms": run["latency"]["p50_ms"],
            "peak_rss_mb": run["peak_rss_mb"]}


def measure_end_to_end(args, deadline):
    setups = [spawn(deadline, "setup", args.workload, args.seed)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    run = spawn(deadline, "run", args.workload, args.seed, seconds=args.seconds)
    setups.append(run["setup_s"])
    lat = run["latency"]
    values = end_to_end_values(run, setups)
    details = {"setup_s_samples": setups, "groups": run["groups"],
               "wall_s": run["wall_s"], "check_s": run["check_s"],
               "latency_samples": lat["n"], "lat_p90_ms": lat["p90_ms"],
               **failure_details(run)}
    return run, values, details, run["error_count"] == 0


def measure_per_layer(args, deadline, groups=None):
    groups = groups or wl.TRACE_GROUPS[args.workload]
    plain = spawn(deadline, "run", args.workload, args.seed, groups=groups)
    traced = spawn(deadline, "trace", args.workload, args.seed, groups=groups)
    values = dict(traced["layers"])
    values["setup.import_s"] = traced["import_s"]
    values["setup.warm_s"] = traced["warm_s"]
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    details = {"groups": groups, "spans": traced["spans"],
               "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
               "violations": traced["violations"], **failure_details(traced)}
    correct = (plain["error_count"] == 0 and traced["error_count"] == 0
               and not traced["violations"])
    return traced, values, details, correct


def result_line(spec_metrics, correct, summary, values):
    """The result object, checked against the metric list of BENCHMARK.json."""
    metrics = {}
    for m in spec_metrics:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} has no finite value: {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(values) - set(metrics)
    if extra:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    if summary["attempted"] < 1:
        raise BenchError("no request was attempted")
    return {"correct": bool(correct), "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def measure(args):
    deadline = perf_counter() + TIME_LIMIT_S
    spec = load_spec()
    if args.trace:
        summary, values, details, correct = measure_per_layer(args, deadline)
        line = result_line(spec["per_layer"], correct, summary, values)
    else:
        summary, values, details, correct = measure_end_to_end(args, deadline)
        line = result_line(spec["end_to_end"], correct, summary, values)
    print(json.dumps({"provenance": provenance(args), **details}))
    print(json.dumps(line))
    if not correct:
        print("wrong answers or broken predictions; see the details line",
              file=sys.stderr)
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------


def static_problems(spec):
    """Schema and coverage checks that need no run."""
    problems = []
    names = [m["name"] for m in spec["per_layer"]]
    if names != spans.per_layer_names():
        problems.append("per_layer in BENCHMARK.json differs from spans.METRICS")
    for m in spec["per_layer"]:
        if (m["unit"], m["better"]) != spans.metric_spec(m["name"]):
            problems.append(f"unit or direction of {m['name']} differs from spans.py")
    listed = [w["name"] for w in spec["workloads"]]
    if not set(listed) <= set(wl.WORKLOADS):
        problems.append(f"BENCHMARK.json lists unknown workloads: {listed}")
    covered = set().union(*(spans.PREDICTED[w] for w in listed if w in spans.PREDICTED))
    if covered != set(spans.METRICS):
        problems.append(f"boundaries predicted on no listed workload: "
                        f"{sorted(set(spans.METRICS) - covered)}")
    golden = {w: checks.load_json(os.path.join("golden", f"{w}.json"))
              for w in wl.WORKLOADS}
    keys = {
        "graph": [wl.graph_key(*e) for e in list(wl.GRAPH_ANCHORS) + wl.graph_pool()],
        "heights": [checks.height_key(r) for r in wl.golden_height_requests()],
        "cycles": [checks.cycles_key(c) for c, _pts in wl.cycles_pool()],
    }
    for w, wanted in keys.items():
        missing = [k for k in wanted if k not in golden[w]]
        if missing:
            problems.append(f"golden/{w}.json lacks {len(missing)} pooled inputs, "
                            f"e.g. {missing[0]}")
    return problems


def smoke():
    deadline = perf_counter() + TIME_LIMIT_S
    spec = load_spec()
    problems = static_problems(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        args = argparse.Namespace(workload=workload, seed=1, trace=0, seconds=None)
        groups = SMOKE_GROUPS[workload]
        run = spawn(deadline, "run", workload, 1, groups=groups)
        try:
            result_line(spec["end_to_end"], True, run,
                        end_to_end_values(run, [run["setup_s"]]))
            traced, layer_values, details, correct = measure_per_layer(
                args, deadline, groups=groups)
            result_line(spec["per_layer"], correct, traced, layer_values)
        except BenchError as exc:
            problems.append(f"{workload}: {exc}")
            continue
        problems += [f"{workload}: {e}" for e in run["errors"] + details["errors"]]
        problems += [f"{workload}: {v}" for v in details["violations"]]
        if run["failed"] or traced["failed"]:
            problems.append(f"{workload}: failed requests {run['failures']}")
        print(f"smoke {workload}: {run['attempted']} requests, "
              f"{run['error_count']} wrong, {traced['spans']} spans, "
              f"overhead {layer_values['trace.overhead_frac']:+.2f}")
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    print("smoke " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few requests per workload, answer and schema checks")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symprod" / "__init__.py").is_file():
        print(f"no symprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        return measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
