"""Answer checks.  A wrong answer fails the run; it never counts as a slow
success.

Each workload has independent checks that recompute a property by another
route (plain Fraction arithmetic, a height identity, a published count), and
a comparison with the golden answers in ``golden/<workload>.json``, recorded
by ``record_golden.py``.  Published anchors live in ``expected.json``, which
is written by hand.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import workloads as wl

# Absolute slack for double rounding when summing heights of size <= 100.
FLOAT_SLACK = 1e-12
# In `cycles` a canonical height counts as 0 when it lies within its error
# bound or below ZERO_HEIGHT; the positive heights there are all above 0.4.
# At 53 bits the error bound is not an enclosure for points whose orbit stays
# in the Julia set (ROADMAP item 4(a)); every zero that needs ZERO_HEIGHT is
# reported as a bound violation.
ZERO_HEIGHT = 1e-4
_FRACTION_ORBIT_CAP = 64


def load_json(name):
    with open(os.path.join(wl.HERE, name)) as fh:
        return json.load(fh)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _frac_text(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def graph_summary(payload) -> dict:
    """Order-independent summary of a `preperiodic --json` answer."""
    nodes = payload["nodes"]
    coords = {node["id"]: node["coords"] for node in nodes}
    body = {
        "nodes": sorted([node["coords"], node["tail"], node["period"]]
                        for node in nodes),
        "edges": sorted([coords[e["src"]], coords[e["dst"]]]
                        for e in payload["edges"]),
        "recovered": payload["recovered"],
    }
    return {"nodes": len(nodes), "total": payload["recovered"]["total_galois_counted"],
            "digest": _digest(body)}


def _fraction_tail_period(c: Fraction, x):
    """Tail and period of x under x^2 + c by exact Fraction iteration."""
    if x is None:  # infinity is fixed
        return 0, 1
    seen = {}
    for i in range(_FRACTION_ORBIT_CAP):
        if x in seen:
            return seen[x], i - seen[x]
        seen[x] = i
        x = x * x + c
    return None


def check_graph(req, payload, expected, golden):
    _kind, c, k, n = req
    errors = []
    ids = {node["id"] for node in payload["nodes"]}
    sources = [e["src"] for e in payload["edges"]]
    if sorted(sources) != sorted(ids):
        errors.append("not exactly one edge leaves each node")
    for e in payload["edges"]:
        if e["dst"] not in ids:
            errors.append(f"edge {e['src']} -> {e['dst']} leaves the node set")
    # every recovered rational point: its diagonal node carries the tail and
    # period that plain Fraction iteration shows
    diag = {}
    for node in payload["nodes"]:
        comps = node["components"]
        if len(comps) == 1 and comps[0]["degree"] == 1 and comps[0]["multiplicity"] == k:
            diag[comps[0]["point"]] = (node["tail"], node["period"])
    for text in payload["recovered"]["rational"]:
        want = _fraction_tail_period(c, None if text == "oo" else Fraction(text))
        if want is None:
            errors.append(f"{text} does not repeat within {_FRACTION_ORBIT_CAP} steps")
        elif diag.get(text) != want:
            errors.append(f"{text}: graph says (tail, period) = {diag.get(text)}, "
                          f"Fraction iteration gives {want}")
    anchor = expected["graph"].get(wl.graph_key(c, k, n))
    if anchor is not None:
        rec = payload["recovered"]
        if sorted(rec["rational"]) != sorted(anchor["rational"]):
            errors.append(f"rational points {rec['rational']} != published {anchor['rational']}")
        deg = anchor["degree"]
        orbits = [o for o in rec["orbits"] if o["degree"] == deg]
        points = sum(deg if o["galois"] else 1 for o in orbits)
        if len(orbits) != anchor["orbits"] or points != anchor["points"]:
            errors.append(f"{len(orbits)} degree-{deg} orbits with {points} points, "
                          f"published {anchor['orbits']} with {anchor['points']}")
    want = golden.get(wl.graph_key(c, k, n))
    got = graph_summary(payload)
    if want is None:
        errors.append("no golden answer for this input")
    elif got != want:
        errors.append(f"answer {got} differs from golden {want}")
    return [f"graph c={c} k={k} n={n}: {msg}" for msg in errors]


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def height_key(req) -> str:
    kind, m, k_or_field, coords, tol = req
    return f"{kind}|{m}|{k_or_field}|{','.join(_frac_text(x) for x in coords)}|{tol!r}"


def golden_requests(group):
    """The requests of a group whose answers are pooled, hence golden: base
    heights of pooled rational points and their images, and pooled field
    elements and their images.  Anchors and zeros have exact expectations."""
    if group == wl.HEIGHT_ANCHOR_GROUP:
        return []
    if group[0][0] == "pt":
        return group[1:]
    return group if len(group) == 2 else []


def _close(a, ea, b, eb=0.0):
    return abs(a - b) <= ea + eb + FLOAT_SLACK


def _log_height(coords):
    return math.log(max(abs(x) for x in coords))


def check_heights_group(group, values, expected, golden):
    """values[i] = (value, error_bound) of group[i]."""
    errors = []
    head = group[0]
    for req, (v, e) in zip(group, values):
        if not (math.isfinite(v) and math.isfinite(e) and e >= 0 and v >= -e):
            errors.append(f"{height_key(req)}: implausible value {v} +- {e}")
    for req, (v, e) in zip(group, values):
        if req in golden_requests(group):
            want = golden.get(height_key(req))
            if want is None:
                errors.append(f"{height_key(req)}: no golden answer")
            elif not _close(v, e, want[0], want[1]):
                errors.append(f"{height_key(req)}: {v} +- {e} vs golden {want}")
    if group == wl.HEIGHT_ANCHOR_GROUP:
        anchors = expected["heights"]
        (h1, e1), (h4, e4), (hz, ez) = values
        closed = math.log((3 + math.sqrt(5)) / 2)
        if not _close(h1, e1, closed):
            errors.append(f"h(3) = {h1} +- {e1}, closed form {closed}")
        for got, name in ((h1, "x^2-2 at 3"), (h4, "F_4 at eta(3,3,3,3)"),
                          (hz, "x^2-2 at zeta5")):
            want = anchors[name]
            if abs(got - want["value"]) > want["abs_tol"]:
                errors.append(f"{name}: {got}, published {want['value']}")
        if not _close(h4, e4, 4 * h1, 4 * e1):
            errors.append(f"h_F4(eta(3,3,3,3)) = {h4} != 4 h(3) = {4 * h1}")
    elif head[0] == "pt":
        _kind, m, k, _coords, _tol = head
        (h0, e0) = values[0]
        base = values[1:1 + k]
        if not _close(h0, e0, sum(v for v, _e in base), sum(e for _v, e in base)):
            errors.append(f"transfer: h_F = {h0} != sum h_f = {sum(v for v, _ in base)}")
        (hi, ei), (h1, e1) = values[-1], values[1]
        if not _close(hi, ei, 2 * h1, 2 * e1):
            errors.append(f"functional equation: h(f(P)) = {hi} != 2 h(P) = {2 * h1}")
        if m == wl.ORACLE_MAP:
            naive = [_log_height(req[3]) for req in group[1:]]
            if not _close(h0, e0, sum(naive[:k])):
                errors.append(f"{height_key(head)}: {h0} != sum of naive heights on x^2")
            for req, (v, e), want in zip(group[1:], values[1:], naive):
                if not _close(v, e, want):
                    errors.append(f"{height_key(req)}: {v} != naive height on x^2")
    elif len(group) == 2:
        (h, e), (hi, ei) = values
        if not _close(hi, ei, 2 * h, 2 * e):
            errors.append(f"functional equation: h(f(a)) = {hi} != 2 h(a) = {2 * h}")
    else:
        (h, e), = values
        if not _close(h, e, 0.0):
            errors.append(f"{height_key(head)}: 2cos(2 pi j/m) has height {h} +- {e}, not 0")
    return [f"heights: {msg}" for msg in errors]


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def cycles_key(c) -> str:
    return str(c)


def _iterate_mod(c, start, m, steps):
    """f^steps(start) for f = x^2 + c in Q[x]/(m), by plain Fractions."""
    cur = tuple(start)
    for _ in range(steps):
        cur = wl.nf_apply(c, cur, m)
    return cur


def cycles_summary(result) -> dict:
    periodic = {str(k): sorted([list(p.coords), per] for p, per in pts)
                for k, pts in result["periodic"].items()}
    classes = []
    heights = []
    for kind, k, _pt, per, cls, hv in result["classified"]:
        classes.append([kind, k, per, cls.status, cls.tail, cls.period,
                        cls.escape_index])
        heights.append([hv.value, hv.error_bound])
    return {"counts": {k: len(v) for k, v in periodic.items()},
            "periodic": _digest(periodic), "classes": classes,
            "heights": heights}


def check_cycles(req, result, sp, golden, bound_violations):
    _kind, c, _points = req
    errors = []
    for kind, k, pt, per, cls, hv in result["classified"]:
        m = [Fraction(x) for x in pt.field.minpoly.coeffs]
        alpha = [Fraction(x) for x in pt.value.coords]
        where = f"{kind} degree-{k} point {pt.to_text()}"
        if cls.preperiodic:
            tail, period = cls.tail, cls.period
            mark = _iterate_mod(c, alpha, m, tail)
            if _iterate_mod(c, mark, m, period) != mark:
                errors.append(f"{where}: f^(tail+period) != f^tail")
            if any(_iterate_mod(c, mark, m, d) == mark
                   for d in range(1, period) if period % d == 0):
                errors.append(f"{where}: period {period} is not minimal")
            if abs(hv.value) > ZERO_HEIGHT:
                errors.append(f"{where}: preperiodic but height {hv.value}")
            elif not _close(hv.value, hv.error_bound, 0.0):
                bound_violations.append(f"cycles c={c}: {where}: height {hv.value} "
                                        f"outside its error bound {hv.error_bound}")
        elif cls.status == "wandering":
            if hv.value <= ZERO_HEIGHT:
                errors.append(f"{where}: wandering but height {hv.value}")
            cur = _iterate_mod(c, alpha, m, cls.escape_index)
            img = sp.AlgebraicPoint.of_element(pt.field.element(cur))
            deg = 1 if img.field is None else img.field.degree
            if not sp.naive_height(sp.eta_tilde(img, deg)) > cls.bound:
                errors.append(f"{where}: iterate {cls.escape_index} does not "
                              f"exceed the bound {cls.bound}")
        else:
            errors.append(f"{where}: unknown status {cls.status}")
        if kind == "cycle":
            if not (cls.preperiodic and cls.tail == 0):
                errors.append(f"{where}: periodic component classified {cls.status}")
            elif cls.period % per:
                errors.append(f"{where}: F-period {per} does not divide "
                              f"the base period {cls.period}")
    want = golden.get(cycles_key(c))
    got = json.loads(json.dumps(cycles_summary(result)))
    if want is None:
        errors.append("no golden answer for this input")
    else:
        if {key: got[key] for key in ("counts", "periodic", "classes")} != \
                {key: want[key] for key in ("counts", "periodic", "classes")}:
            errors.append(f"answer differs from golden: {got} vs {want}")
        elif any(not _close(v, e, gv, ge) for (v, e), (gv, ge)
                 in zip(got["heights"], want["heights"])):
            errors.append(f"heights {got['heights']} differ from golden {want['heights']}")
    return [f"cycles c={c}: {msg}" for msg in errors]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self, workload, sp):
        self.workload = workload
        self.sp = sp
        self.expected = load_json("expected.json")
        self.golden = load_json(os.path.join("golden", f"{workload}.json"))
        self.bound_violations = []

    def check_group(self, group, results):
        """results[i] is the ok result of group[i]; failed requests are
        accounted for elsewhere and not checked."""
        if self.workload == "graph":
            return check_graph(group[0], results[0], self.expected, self.golden)
        if self.workload == "heights":
            return check_heights_group(group, results, self.expected, self.golden)
        return check_cycles(group[0], results[0], self.sp, self.golden,
                            self.bound_violations)
