"""Seeded request lists for the three workloads, and the code that sends one
request to the public symprod API.

Every workload draws its inputs from a fixed, finite pool, so that the
golden answers recorded in ``golden/`` cover every input any seed can
produce; the seed chooses which pool entries a run uses, their order, and
how they are combined.  Request lists are built from plain data (integers,
fractions and text), and the library sees only the maps and points made
from them.

A request list is a list of *groups*.  A group is a list of requests that
are checked together (for example a canonical height on P^k and the k base
heights it must equal); the timed loop stops only between groups.  Each
request is one call of the library, timed on its own.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# Pools are drawn once from this fixed seed; the run seed never changes them.
POOL_SEED = 20160315

WORKLOADS = ("graph", "heights", "cycles")

# Groups run by the traced pass and its untraced twin.  The count is fixed per
# workload, so per-layer counts repeat exactly for a given seed.
TRACE_GROUPS = {"graph": 120, "heights": 500, "cycles": 4}


def map_text(c: Fraction) -> str:
    """The affine map x^2 + c as the parser reads it."""
    if c == 0:
        return "x^2"
    return f"x^2 + {c}" if c > 0 else f"x^2 - {-c}"


def _square_denominator_params(qmax: int, lo: Fraction, hi: Fraction):
    """Reduced fractions p/q^2 with q <= qmax in [lo, hi], c != 0: parameters
    of small height for which x^2 + c can have rational preperiodic points."""
    out = set()
    for q in range(1, qmax + 1):
        d = q * q
        for p in range(math.ceil(lo * d), math.floor(hi * d) + 1):
            if p and math.gcd(p, q) == 1:
                out.add(Fraction(p, d))
    return sorted(out)


def _height(entry) -> int:
    return max(abs(entry[0].numerator), entry[0].denominator)


def _stratified(rng, entries, bands, size_of):
    """Seeded order taking one entry from each of `bands` contiguous bands of
    size_of(entry) in turn, so that every run mixes small and large inputs
    and runs of different seeds do comparable work."""
    ordered = sorted(entries, key=lambda e: (size_of(e), e[0]))
    size = math.ceil(len(ordered) / bands)
    chunks = [ordered[i:i + size] for i in range(0, len(ordered), size)]
    for chunk in chunks:
        rng.shuffle(chunk)
    return [chunk[i] for i in range(size) for chunk in chunks if i < len(chunk)]


# ---------------------------------------------------------------------------
# graph: the `preperiodic` CLI command, many small factorizations
# ---------------------------------------------------------------------------

# (c, k, n_max) with published rich structure; x^2 - 29/16 at k = 3 is the
# 21-point example (acceptance criterion 4).
GRAPH_ANCHORS = ((Fraction(-29, 16), 3, 3), (Fraction(-21, 16), 3, 3),
                 (Fraction(-3, 4), 2, 4), (Fraction(-2), 3, 3),
                 (Fraction(-13, 9), 2, 3))
_GRAPH_SHAPES = ((2, 3), (2, 4), (3, 3), (3, 4))


def graph_pool():
    """Fixed (c, k, n_max) entries; the shape is a function of the entry so
    that one golden answer per entry suffices."""
    anchors = {c for c, _k, _n in GRAPH_ANCHORS}
    cs = [c for c in _square_denominator_params(9, Fraction(-4), Fraction(1))
          if c not in anchors]
    return [(c,) + _GRAPH_SHAPES[i % 4] for i, c in enumerate(cs)]


def graph_groups(seed: int):
    """Every pool entry once (so each request has a distinct c), shapes in
    equal shares by round-robin and, within each shape, stratified by the
    size of the graph recorded in golden/graph.json (cost follows it closely);
    anchors at seeded places near the front."""
    rng = random.Random(seed)
    with open(os.path.join(HERE, "golden", "graph.json")) as fh:
        golden = json.load(fh)

    def nodes(entry):
        return golden[graph_key(*entry)]["nodes"]

    by_shape = {shape: [] for shape in _GRAPH_SHAPES}
    for entry in graph_pool():
        by_shape[entry[1:]].append(entry)
    rows = itertools.zip_longest(*(_stratified(rng, entries, 20, nodes)
                                   for entries in by_shape.values()))
    order = [entry for row in rows for entry in row if entry is not None]
    for anchor in GRAPH_ANCHORS:
        order.insert(rng.randrange(0, 20), anchor)
    return [[("graph", c, k, n)] for c, k, n in order]


def graph_key(c, k, n) -> str:
    return f"{c}|{k}|{n}"


def graph_argv(c, k, n):
    return ["preperiodic", "--map", map_text(c), "--k", str(k),
            "--n-max", str(n), "--json"]


# ---------------------------------------------------------------------------
# heights: warm certificate cache, repeated height reads
# ---------------------------------------------------------------------------

HEIGHT_MAPS = (Fraction(-2), Fraction(-29, 16), Fraction(1), Fraction(-3, 4),
               Fraction(0))
ZERO_MAP = 0   # x^2 - 2, whose preperiodic points include every 2cos(2 pi j/m)
ORACLE_MAP = 4  # x^2, whose canonical height is the naive height

# Monic integer minimal polynomials, low degree first; `m` marks the field
# Q(2cos(2 pi/m)) generated by theta = 2cos(2 pi/m).
HEIGHT_FIELDS = (
    {"name": "zeta5", "minpoly": (1, 1, 1, 1, 1)},
    {"name": "sqrt2", "minpoly": (-2, 0, 1), "m": 8},
    {"name": "cbrt2", "minpoly": (-2, 0, 0, 1)},
    {"name": "i", "minpoly": (1, 0, 1)},
    {"name": "zeta3", "minpoly": (1, 1, 1)},
    {"name": "sqrt3", "minpoly": (-3, 0, 1), "m": 12},
    {"name": "2cos(2pi/5)", "minpoly": (-1, 1, 1), "m": 5},
    {"name": "2cos(2pi/7)", "minpoly": (-1, -2, 1, 1), "m": 7},
    {"name": "2cos(2pi/9)", "minpoly": (1, -3, 0, 1), "m": 9},
    {"name": "2cos(2pi/15)", "minpoly": (1, 4, -4, -1, 1), "m": 15},
    {"name": "2cos(2pi/16)", "minpoly": (2, 0, -4, 0, 1), "m": 16},
    {"name": "2cos(2pi/20)", "minpoly": (5, 0, -5, 0, 1), "m": 20},
    {"name": "2cos(2pi/24)", "minpoly": (1, 0, -4, 0, 1), "m": 24},
    {"name": "x^4 - 2", "minpoly": (-2, 0, 0, 0, 1)},
    {"name": "x^3 - x - 1", "minpoly": (-1, -1, 0, 1)},
)
HEIGHT_TOLS = (1e-6, 1e-10)
_NF_ELEMENTS_PER_FIELD = 8


def _nf_mul(a, b, minpoly):
    """Product of power-basis coordinate vectors modulo a monic minpoly."""
    e = len(minpoly) - 1
    prod = [Fraction(0)] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * e - 2, e - 1, -1):
        top = prod[i]
        if top:
            prod[i] = Fraction(0)
            for j in range(e):
                prod[i - e + j] -= top * minpoly[j]
    return tuple(prod[:e])


def nf_apply(c: Fraction, coords, minpoly):
    """Coordinates of alpha^2 + c, computed without the library."""
    sq = list(_nf_mul(coords, coords, minpoly))
    sq[0] += c
    return tuple(sq)


def dickson(j: int, minpoly):
    """Coordinates of 2cos(2 pi j/m) as a polynomial in theta = 2cos(2 pi/m):
    D_0 = 2, D_1 = theta, D_(i+1) = theta D_i - D_(i-1)."""
    e = len(minpoly) - 1
    theta = tuple(Fraction(int(i == 1)) for i in range(e))
    prev = tuple(Fraction(2 * int(i == 0)) for i in range(e))
    cur = theta
    if j == 0:
        return prev
    for _ in range(j - 1):
        nxt = _nf_mul(theta, cur, minpoly)
        prev, cur = cur, tuple(a - b for a, b in zip(nxt, prev))
    return cur


def height_point_pool():
    """Rational points a/b of small height for the base-map requests."""
    pts = {Fraction(a, b) for a in range(-9, 10) for b in range(1, 10)}
    return sorted(pts)


def height_element_pool():
    """Per field, fixed elements (coordinate tuples) of small height."""
    rng = random.Random(POOL_SEED)
    out = []
    for fld in HEIGHT_FIELDS:
        e = len(fld["minpoly"]) - 1
        elems = []
        while len(elems) < _NF_ELEMENTS_PER_FIELD:
            coords = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))
                           for _ in range(e))
            if any(coords[1:]) and coords not in elems:
                elems.append(coords)
        out.append(elems)
    return out


def eta_coords(points):
    """eta(P_1..P_k) for finite rational P_i = z_i/t_i: the coefficients of
    prod (z_i + t_i X), lowest degree first (acceptance criterion 2 gives
    eta(3,3,3,3) = (81, 108, 54, 12, 1))."""
    coeffs = [1]
    for p in points:
        z, t = p.numerator, p.denominator
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a * z
            nxt[i + 1] += a * t
        coeffs = nxt
    return tuple(coeffs)


def golden_height_requests():
    """Every pooled height request: base heights of pooled rational points
    and of their images, and heights of pooled field elements and of their
    images, under every map at every tolerance."""
    out = []
    for m, c in enumerate(HEIGHT_MAPS):
        for tol in HEIGHT_TOLS:
            for p in height_point_pool():
                for q in (p, p * p + c):
                    out.append(("pt", m, 1, (q.numerator, q.denominator), tol))
            for fi, elems in enumerate(height_element_pool()):
                minpoly = HEIGHT_FIELDS[fi]["minpoly"]
                for coords in elems:
                    out.append(("nf", m, fi, coords, tol))
                    out.append(("nf", m, fi, nf_apply(c, coords, minpoly), tol))
    return out


HEIGHT_ANCHOR_GROUP = [
    ("pt", ZERO_MAP, 1, (3, 1), 1e-7),
    ("pt", ZERO_MAP, 4, (81, 108, 54, 12, 1), 1e-6),
    ("nf", ZERO_MAP, 0, (0, 1, 0, 0), 1e-6),
]


def heights_groups(seed: int, count: int = 6000):
    """Round-robin over three group kinds, parameters from the seed:

    * transfer: h_F(eta(P_1..P_k)), each h_f(P_i), and h_f(f(P_1));
    * field: h(alpha) and h(f(alpha)) for a pooled element alpha;
    * zero: h(2cos(2 pi j/m)) under x^2 - 2.
    """
    rng = random.Random(seed)
    pts = height_point_pool()
    elems = height_element_pool()
    zero_fields = [i for i, fld in enumerate(HEIGHT_FIELDS) if "m" in fld]
    groups = [list(HEIGHT_ANCHOR_GROUP)]
    for g in range(count):
        kind = g % 3
        tol = HEIGHT_TOLS[(g // 3) % 2]
        if kind == 0:
            m = rng.randrange(len(HEIGHT_MAPS))
            k = 2 + (g // 6) % 3
            chosen = [rng.choice(pts) for _ in range(k)]
            c = HEIGHT_MAPS[m]
            image = chosen[0] ** 2 + c
            group = [("pt", m, k, eta_coords(chosen), tol)]
            group += [("pt", m, 1, (p.numerator, p.denominator), tol)
                      for p in chosen]
            group.append(("pt", m, 1, (image.numerator, image.denominator), tol))
        elif kind == 1:
            m = rng.randrange(len(HEIGHT_MAPS))
            fi = rng.randrange(len(HEIGHT_FIELDS))
            coords = rng.choice(elems[fi])
            image = nf_apply(HEIGHT_MAPS[m], coords, HEIGHT_FIELDS[fi]["minpoly"])
            group = [("nf", m, fi, coords, tol), ("nf", m, fi, image, tol)]
        else:
            fi = rng.choice(zero_fields)
            fld = HEIGHT_FIELDS[fi]
            j = rng.randrange(1, fld["m"])
            group = [("nf", ZERO_MAP, fi, dickson(j, fld["minpoly"]), tol)]
        groups.append(group)
    return groups


# ---------------------------------------------------------------------------
# cycles: cold per-map arithmetic at high k
# ---------------------------------------------------------------------------

# Acceptance criterion 5: verified 5-cycles over quintic fields.
CYCLE_ANCHORS = (Fraction(-2), Fraction(-16, 9), Fraction(-64, 9))
CYCLE_KS = (4, 5, 6, 7)
CYCLE_CLASSIFY_KS = (4, 5)
CYCLE_NMAX = 5


def _eisenstein(rng, k):
    """A monic degree-k polynomial, irreducible by Eisenstein's criterion at
    p in {2, 3}, with small coefficients (lowest degree first)."""
    p = rng.choice((2, 3))
    unit = rng.choice([u for u in (-2, -1, 1, 2) if u % p])
    return (p * unit,) + tuple(p * rng.randint(-1, 1) for _ in range(k - 1)) + (1,)


def cycles_pool():
    """Fixed entries (c, {k: (minpoly, element coords)}): a new map per
    group and one random point of each classified degree."""
    rng = random.Random(POOL_SEED)
    anchors = set(CYCLE_ANCHORS)
    cs = list(CYCLE_ANCHORS) + [
        c for c in _square_denominator_params(4, Fraction(-8), Fraction(1, 4))
        if c not in anchors]
    out = []
    for c in cs:
        pts = {}
        for k in CYCLE_CLASSIFY_KS:
            poly = _eisenstein(rng, k)
            coords = (rng.randint(-2, 2), 1) + (0,) * (k - 2)
            pts[k] = (poly, coords)
        out.append((c, pts))
    return out


def cycles_groups(seed: int):
    """Every pool entry once, heights stratified; the three anchors at
    seeded places among the first five maps."""
    rng = random.Random(seed)
    pool = cycles_pool()
    anchors, rest = pool[:len(CYCLE_ANCHORS)], pool[len(CYCLE_ANCHORS):]
    order = _stratified(rng, rest, 7, _height)
    for entry in anchors:
        order.insert(rng.randrange(0, 3), entry)
    return [[("cycles", c, pts)] for c, pts in order]


def groups_for(workload: str, seed: int):
    if workload == "graph":
        return graph_groups(seed)
    if workload == "heights":
        return heights_groups(seed)
    if workload == "cycles":
        return cycles_groups(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# executing requests
# ---------------------------------------------------------------------------


class CodedFailure(Exception):
    """A request that ended in a coded SymprodError (CLI exit status 1)."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


_CODE_RE = re.compile(r"error\[(E_[A-Z_]+)\]")


class Session:
    """Library objects for one worker process: the fixed maps and fields of
    the heights workload, built during warm-up, and the request runners."""

    def __init__(self, workload: str):
        import symprod
        import symprod.cli  # noqa: F401  (graph requests go through the CLI)

        self.sp = symprod
        self.workload = workload
        self.height_maps = []
        self.height_fields = []

    # -- warm-up -----------------------------------------------------------

    def warm_up(self):
        """Workload warm-up counted in set-up time.  graph and cycles measure
        cold caches on purpose and warm nothing."""
        if self.workload != "heights":
            return
        sp = self.sp
        for c in HEIGHT_MAPS:
            f = sp.parse_map(map_text(c)).map
            bad = sp.bad_primes(f)
            morphisms = [sp.morphism_of_map(f)] + [sp.symmetrize(f, k)
                                                   for k in range(2, 5)]
            for F in morphisms:
                sp.morphism_certificate(F, bad=bad)
            self.height_maps.append((f, bad, morphisms))
        for fld in HEIGHT_FIELDS:
            field = sp.NumberField.get(sp.UniPoly(fld["minpoly"]))
            field.is_galois()
            self.height_fields.append(field)

    # -- requests ----------------------------------------------------------

    def run(self, req):
        kind = req[0]
        if kind == "graph":
            return self._graph(*req[1:])
        if kind == "pt":
            return self._height_pt(*req[1:])
        if kind == "nf":
            return self._height_nf(*req[1:])
        if kind == "cycles":
            return self._cycles(*req[1:])
        raise ValueError(f"unknown request kind {kind!r}")

    def _graph(self, c, k, n):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.sp.cli.main(graph_argv(c, k, n))
        if rc != 0:
            found = _CODE_RE.search(err.getvalue())
            raise CodedFailure(found.group(1) if found else f"exit {rc}",
                               err.getvalue().strip())
        return json.loads(out.getvalue())

    def _height_pt(self, m, k, coords, tol):
        _f, bad, morphisms = self.height_maps[m]
        hv = self.sp.canonical_height(morphisms[k - 1], self.sp.PkPoint(coords),
                                      tol=tol, bad=bad)
        return (hv.value, hv.error_bound)

    def _height_nf(self, m, fi, coords, tol):
        f = self.height_maps[m][0]
        field = self.height_fields[fi]
        pt = self.sp.AlgebraicPoint(field, field.element(coords))
        hv = self.sp.canonical_height_nf(f, pt, tol=tol)
        return (hv.value, hv.error_bound)

    def _cycles(self, c, points):
        """One request per map: periodic points of F for k = 4..7, then for
        k <= 5 the orbit class and canonical height of every degree-k periodic
        component and of one pooled degree-k point."""
        sp = self.sp
        f = sp.parse_map(map_text(c)).map
        periodic = {k: sp.rational_periodic_points(f, k, CYCLE_NMAX) for k in CYCLE_KS}
        classified = []
        for k in CYCLE_CLASSIFY_KS:
            for p, per in periodic[k]:
                comps = sp.conjugate_points(p)
                if (len(comps) == 1 and comps[0][0] is not None
                        and comps[0][0].degree == k and comps[0][2] == 1):
                    pt = comps[0][1]
                    classified.append(("cycle", k, pt, per, sp.orbit_classify(f, pt),
                                       sp.canonical_height_nf(f, pt)))
            poly, coords = points[k]
            field = sp.NumberField.get(sp.UniPoly(poly))
            pt = sp.AlgebraicPoint(field, field.element(coords))
            classified.append(("random", k, pt, None, sp.orbit_classify(f, pt),
                               sp.canonical_height_nf(f, pt)))
        return {"periodic": periodic, "classified": classified}


def outcome(session: Session, req):
    """Run one request: ("ok", result), ("coded", code) or ("uncaught", type)."""
    try:
        return "ok", session.run(req)
    except CodedFailure as exc:
        return "coded", exc.code
    except session.sp.SymprodError as exc:
        return "coded", exc.code
    except Exception as exc:  # the benchmark records every failure by type
        return "uncaught", type(exc).__name__
