"""Iteration, orbit classification, periodic/preperiodic point search.

The search for rational periodic points of a symmetric product works on the
base map: the points of period dividing n are the roots of the fixed-point
form of f^n (degree d^n + 1); Galois-stable multisets of total degree k built
from its irreducible factors of degree <= k (often ruled out mod a few primes)
give candidate points of P^k(Q), each verified by exact iteration.  Preimages
are not searched for: each irreducible factor of a pullback form pushes
forward to a power of the form it was pulled back from, so its degree is a
multiple of that form's, the preimages of a point are exactly the solutions
of one small knapsack per factor of its form, with no evaluation of the
symmetric product, and a periodic pullback splits off its predecessor by
exact division.  The preperiodic graph decomposes each Galois orbit of f among
its nodes' factors once, and prints each orbit's texts once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, dropwhile, product, takewhile

from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError
from .gf import FiniteField, cycle_lengths, p1_points, reduce_map
from .heights import bad_primes_sym, morphism_certificate
from .intfactor import is_prime
from .polyfactor import _ddf, _monic_squarefree_mod
from .projective import (AlgebraicPoint, BinaryForm, MorphismPk, PkPoint,
                         RationalMap1, point_of_factors,
                         zero_form_to_point_form)
from .symmetric import (_check_k, _conjugate_sort_key, conjugate_points,
                        eta_tilde, symmetrize)
from .unipoly import _conv, _int_divide, _trim

_ORBIT_CAP = 100000


def apply(F: MorphismPk, p: PkPoint) -> PkPoint:
    """Exact evaluation of F at p followed by canonical normalization."""
    return F.apply(p)


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitClassification:
    status: str                      # "preperiodic" or "wandering"
    tail: int | None = None          # iterations before entering the cycle
    period: int | None = None        # minimal cycle length
    escape_index: int | None = None  # iterate whose height exceeded the bound
    bound: float | None = None       # the preperiodicity height bound used

    @property
    def preperiodic(self) -> bool:
        return self.status == "preperiodic"

    def to_json(self) -> dict:
        return {"status": self.status, "tail": self.tail, "period": self.period,
                "escape_index": self.escape_index, "bound": self.bound}


def _walk(start, step, shadow, push, cert) -> OrbitClassification:
    """Iterate step from start until a point repeats or the shadow of the
    current point, a point of P^k(Q), has a coordinate above the
    certificate's escape threshold (checked before each step).  shadow is
    that of start; push carries the shadow of a point to that of its image
    under step."""
    seen = {start: 0}
    cur = start
    for i in range(1, _ORBIT_CAP):
        if max(abs(c) for c in shadow.coords) > cert.escape_threshold:
            return OrbitClassification("wandering", escape_index=i - 1,
                                       bound=cert.bound)
        cur = step(cur)
        j = seen.get(cur)
        if j is not None:
            return OrbitClassification("preperiodic", tail=j, period=i - j)
        seen[cur] = i
        shadow = push(shadow)
    raise DomainError("orbit classification exceeded the iteration cap")


def _return_time(start, step, cap: int) -> int | None:
    """The least j <= cap with step^j(start) = start, or None."""
    cur = start
    for j in range(1, cap + 1):
        cur = step(cur)
        if cur == start:
            return j
    return None


def orbit_classify(f, point) -> OrbitClassification:
    """Exact repeat-or-escape dichotomy for a map f of P^1.

    Accepts a RationalMap1 with a PkPoint of P^1 or an AlgebraicPoint; a
    MorphismPk is refused.  Every point of P^1 is iterated under f itself;
    its height is measured over Q through its shadow eta~(., k_f) on the
    k_f-symmetric product F, k_f the degree of the point's field (1 for
    rational points and infinity, where eta~ is the point itself).  eta~ is
    taken once, of the starting point: f maps the k_f embeddings of the
    point to those of its image, so F o eta~ = eta~ o f, and each later
    shadow is the previous one pushed forward by F.
    """
    if not isinstance(f, RationalMap1):
        raise DomainError("expected a RationalMap1")
    if isinstance(point, PkPoint):
        point = AlgebraicPoint.from_p1(point)
    if not isinstance(point, AlgebraicPoint):
        raise DomainError("expected a point of P^1")
    kf = 1 if point.field is None else point.field.degree
    F = symmetrize(f, kf)
    cert = morphism_certificate(F, bad=bad_primes_sym(f, kf))
    return _walk(point, f.apply_algebraic, eta_tilde(point, kf), F.apply, cert)


# ---------------------------------------------------------------------------
# good-reduction period data
# ---------------------------------------------------------------------------


def periods_mod_p(f: RationalMap1, p: int, k: int) -> set[int]:
    """Cycle lengths of f on P^1(F_{p^j}) for j <= k, closed under lcm of
    subsets of size <= k (candidate period patterns of conjugate k-tuples);
    a prime of bad reduction is refused by reduce_map."""
    PeriodBoundInput(Np=p, k=k, p=p, vp=1)  # checks p and k
    base: set[int] = set()
    for j in range(1, k + 1):
        gf = FiniteField(p, j)
        step = reduce_map(f, gf)
        base |= cycle_lengths(step, p1_points(gf))
    out: set[int] = set()
    items = sorted(base)
    for size in range(1, k + 1):
        for combo in combinations(items, size):
            out.add(math.lcm(*combo))
    return out


@dataclass(frozen=True)
class PeriodBoundInput:
    Np: int   # norm of the prime above p
    k: int    # extension degree
    p: int    # rational prime
    vp: int   # ramification-type valuation v(p)

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be at least 1")
        _check_k(self.k)
        if self.vp < 1:
            raise DomainError("v(p) must be at least 1")
        if not is_prime(self.p):
            raise DomainError("p must be a prime")
        n = self.Np
        if n < self.p:
            raise DomainError("Np must be a power of p")
        while n % self.p == 0:
            n //= self.p
        if n != 1:
            raise DomainError("Np must be a power of p")


def exponent_bound(p: int, vp: int) -> int:
    """Certified floor of the wild-part exponent bound.

    For p != 2 this is floor(1 + log2 v(p)); for p = 2 it is
    floor(1 + log_phi((sqrt5 v + sqrt(5 v^2 + 4))/2)).  With
    phi^s = (L_s + F_s sqrt5)/2 and L_s^2 = 5 F_s^2 + 4 (-1)^s (Lucas and
    Fibonacci numbers), phi^s <= (sqrt5 v + sqrt(5 v^2 + 4))/2 exactly when
    F_s <= v, so the bound is 1 + the largest s with F_s <= v."""
    if vp < 1:
        raise DomainError("v(p) must be at least 1")
    if p != 2:
        return 1 + (vp.bit_length() - 1)
    s, fib, fib_next = 0, 0, 1  # s, F_s, F_(s+1)
    while fib_next <= vp:
        s, fib, fib_next = s + 1, fib_next, fib + fib_next
    return 1 + s


def period_bound(inp: PeriodBoundInput) -> int:
    """Upper bound on the minimal period of a periodic point defined over a
    Galois extension of degree k, from good reduction at the given prime."""
    e = exponent_bound(inp.p, inp.vp)
    s = sum(inp.Np ** i for i in range(inp.k + 1))
    return s * inp.k * inp.Np * inp.p ** e


# ---------------------------------------------------------------------------
# fixed-point forms and the periodic point search
# ---------------------------------------------------------------------------


def _form_at(coeffs, X, Y):
    """sum_j coeffs[j] X^(e-j) Y^j, e = len(coeffs) - 1, for integer
    coefficient lists X and Y of equal length (homogeneous Horner)."""
    out, ypow = [coeffs[0]], [1]
    for c in coeffs[1:]:
        out, ypow = _conv(out, X), _conv(ypow, Y)
        for i, m in enumerate(ypow):
            out[i] += c * m
    return out


def iterate_lift(f: RationalMap1, n: int):
    """Coefficient vectors of the exact n-th iterate lift (P_n, Q_n), with the
    joint content stripped at every step."""
    A, B = list(f.num), list(f.den)
    for _ in range(n - 1):
        newA, newB = _form_at(f.num, A, B), _form_at(f.den, A, B)
        g = math.gcd(*(newA + newB))
        A = [c // g for c in newA]
        B = [c // g for c in newB]
    return A, B


def fixed_point_form(f: RationalMap1, n: int) -> BinaryForm:
    """The degree d^n + 1 form (point-encoded) whose roots are exactly the
    points of period dividing n."""
    A, B = iterate_lift(f, n)
    D = len(A) - 1
    zero_form = [0] * (D + 2)
    for j in range(D + 1):
        zero_form[j] += B[j]       # z * Q_n
        zero_form[j + 1] -= A[j]   # - t * P_n
    return zero_form_to_point_form(BinaryForm(zero_form))


def _weighted_counts(forms, weights, total):
    """Every list of pairs (forms[i], c_i), c_i > 0, with sum c_i *
    weights[i] = total, in a fixed order: the factorizations of the points
    whose forms are products of forms, repetition allowed."""
    n = len(forms)

    def rec(i, remaining):
        if remaining == 0:
            yield []
        elif i < n:
            w = weights[i]
            for c in range(remaining // w + 1):
                for tail in rec(i + 1, remaining - c * w):
                    yield [(forms[i], c), *tail] if c else tail

    return rec(0, total)


def _divide_form(a, b):
    """a / b for binary form coefficient lists if it is integral, else None."""
    # divide as polynomials in Y, after taking equal powers of X off both
    a, b = list(a), list(b)
    while not b[-1] and not a[-1]:
        a.pop()
        b.pop()
    return _int_divide(a, b) if b[-1] else None


# a part's middle is split mod the first _PROOF_SPLITS of these that are usable
_PROOF_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROOF_SPLITS = 4


class _Part:
    """A dynatomic part phi and its distinct irreducible factors, once
    factored.  Before that, splits[p] = ([v, h, i], degrees) holds the state
    of _ddf on its middle u(T) = phi(T, 1) / T^j mod p and the degrees split
    off, or None if p | lead(u) or u is not squarefree mod p (not usable)."""

    def __init__(self, phi: BinaryForm):
        self.phi, self.factors, self.splits = phi, None, {}

    def small_factors(self, k: int):
        """The factors of degree <= k, in the order of BinaryForm.factor.

        A factor of u over Q is a product of factors of u mod p, so if no
        degree in [1, k] is a sum of degrees of u's factors mod p at each
        usable p tried (Musser, JACM 1978), only X and Y are small; else phi
        is factored, once.  A split goes on from where a smaller k left it."""
        cs = self.phi.coeffs
        u = _trim(list(dropwhile(lambda c: not c, cs[::-1])))
        sums, used = set(range(1, k + 1)), 0
        for p in _PROOF_PRIMES if self.factors is None and len(u) - 1 > k else ():
            if not sums or used == _PROOF_SPLITS:
                break
            if p not in self.splits:
                fp = _monic_squarefree_mod(u, p)
                self.splits[p] = fp and ([fp, [0, 1], 1], [])
            if self.splits[p]:
                state, degrees = self.splits[p]
                degrees += [d for d, g in _ddf(None, p, k, state)
                            for _ in range((len(g) - 1) // d)]
                reach = {0}
                for d in degrees:
                    reach |= {s + d for s in reach if s + d <= k}
                sums &= reach
                used += 1
        if self.factors is None and sums:
            self.factors = [g for g, _m in self.phi.factor()]
        if self.factors is not None:
            return [g for g in self.factors if g.degree <= k]
        return [BinaryForm(g) for g, c in (((1, 0), cs[-1]), ((0, 1), cs[0])) if not c]


def recorded(f: RationalMap1, key, compute=None):
    """The entry under key of f's one store (RationalMap1._orbits), computed
    once per map by compute(); with compute None, the entry or None.  Keys:
    n, the _Part of Phi*_n; ("pullbacks", g), the factors of g o f;
    ("preimages", g, e), the (h, c) lists pulling g^e back, never mutated;
    ("orbit", g), (field, point) of g's roots; spectra's ("image" | "cycle"
    | "minpoly", pt), ("power", pt, j), ("piece" | "factors", chi, l) and
    ("charpoly", pieces)."""
    got = f._orbits.get(key)
    if got is None and compute is not None:
        got = f._orbits[key] = compute()
    return got


def _dynatomic_part(f: RationalMap1, n: int) -> _Part:
    """Phi*_n with what is known of its factors, recorded on f.

    Phi*_n = prod_{m | n} W_m^mu(n/m) with W_m = fixed_point_form(f, m), so
    W_n = prod_{m | n} Phi*_m (Silverman, The Arithmetic of Dynamical
    Systems, 4.1): Phi*_n is W_n divided exactly by the parts of the proper
    divisors of n, and factoring it skips every factor of a W_m, m | n."""
    def compute():
        below = [1]
        for m in range(1, n):
            if n % m == 0:
                below = _conv(below, _dynatomic_part(f, m).phi.coeffs)
        q = _divide_form(fixed_point_form(f, n).coeffs, below)
        if q is None:
            raise DomainError("fixed-point form not divisible by its "
                              "dynatomic parts")  # unreachable
        return _Part(BinaryForm(q))
    return recorded(f, n, compute)


def rational_periodic_points(f: RationalMap1, k: int, n_max: int,
                             budget: int = DEFAULT_BUDGET):
    """All rational periodic points of the k-symmetric product built from
    f-periodic points of period <= n_max, each with its exact period.

    The candidates of period dividing n are the Galois-stable multisets of
    degree k built from the irreducible factors of degree <= k of the
    dynatomic parts Phi*_m, m | n, which together are the factors of the
    fixed-point form W_n; a part is factored, once per map, only when such
    factors are not ruled out (_Part.small_factors).  Every candidate is
    built and verified by exact iteration of F once, at the least n whose
    multisets hold it, and carries its factorization.

    Returns a sorted list of (PkPoint, period)."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if f.d ** n_max > budget:
        raise BudgetExceededError(
            f"fixed-point form degree {f.d ** n_max} exceeds the budget {budget}")
    F = symmetrize(f, k)
    found: dict[PkPoint, int] = {}
    built = set()  # the factor multisets of every candidate so far
    for n in range(1, n_max + 1):
        # parts share a factor when the multiplier of a point of period
        # m < n is a primitive (n/m)-th root of unity (a fixed point with
        # multiplier -1 is a root of Phi*_1 and Phi*_2); a repeated form gives
        # candidates twice, with its multiplicity split between the copies
        pool = list(dict.fromkeys(g for m in range(1, n + 1) if n % m == 0
                                  for g in _dynatomic_part(f, m).small_factors(k)))
        for counts in _weighted_counts(pool, [g.degree for g in pool], k):
            key = frozenset(counts)
            if key in built:
                continue  # its point is in found, from a smaller n
            built.add(key)
            p = point_of_factors(counts)
            per = _return_time(p, F.apply, n)
            if per is None:
                raise DomainError("candidate from the fixed-point form failed "
                                  "to be periodic")  # unreachable
            found[p] = per
    return sorted(found.items())


def default_n_max(f: RationalMap1, k: int, budget: int = DEFAULT_BUDGET) -> int:
    """Smaller of the good-reduction period bound at the two least good
    primes and the largest n whose fixed-point form fits the budget, and at
    least 1.  A prime is good when f mod p is still a morphism of degree d,
    which is when it does not divide Res(f); the resultant is not factored."""
    _check_k(k)
    if f.d < 2:
        raise DomainError("the period bound needs a map of degree at least 2")
    good = []
    p = 1
    while len(good) < 2:
        p += 1
        if is_prime(p) and f.res % p:
            good.append(p)
    bound = min(period_bound(PeriodBoundInput(Np=p, k=k, p=p, vp=1))
                for p in good)
    by_budget = 0
    while f.d ** (by_budget + 1) <= budget:
        by_budget += 1
    return min(bound, max(1, by_budget))


# ---------------------------------------------------------------------------
# preimages and the preperiodic graph
# ---------------------------------------------------------------------------


def _pullback_factors(f: RationalMap1, g: BinaryForm):
    """The distinct irreducible factors of the pullback g o f of the point
    form g, in the order of BinaryForm.factor, recorded on f.

    Each pushes forward to a power of g, so its degree is a multiple of deg
    g.  If g is a factor of a factored dynatomic part (of those recorded for
    n = 1, 2, ...), g o f is divisible by the factor g' of that part with
    f_*(g') = g (twice if its cycle holds a critical point), found by trial
    division; a cofactor of degree deg g is then irreducible, and only a
    larger one (never for d = 2) is factored."""
    def compute():
        # H(z, t) = g(Q(z,t), -P(z,t)) vanishes on the f-preimages of the
        # points that g encodes
        H = zero_form_to_point_form(
            BinaryForm(_form_at(g.coeffs, f.den, [-c for c in f.num]))).coeffs
        parts = takewhile(bool, (recorded(f, n) for n in count(1)))
        pred = next((h for part in parts if part.factors and g in part.factors
                     for h in part.factors if h.degree == g.degree
                     and _divide_form(H, h.coeffs) is not None), None)
        got = [] if pred is None else [pred]
        while pred and (q := _divide_form(H, pred.coeffs)) is not None:
            H = q
        if len(H) - 1 == g.degree:
            got.append(BinaryForm(H))
        elif len(H) > 1:
            got += [h for h, _m in BinaryForm(H).factor()]
        got.sort(key=lambda h: (h.coeffs != (1, 0), h.coeffs != (0, 1),
                                h.degree, h.coeffs[::-1]))
        return got
    return recorded(f, ("pullbacks", g), compute)


def rational_preimages(f: RationalMap1, F: MorphismPk, q: PkPoint):
    """The exact set of rational points p with F(p) = q, for F the symmetric
    product of f, sorted.

    F pushes a multiset forward factor by factor (Silverman, The Arithmetic
    of Dynamical Systems, 4.1): an irreducible h dividing the pullback g o f
    of an irreducible g has roots whose images are the roots of g, each
    deg h / deg g times, so h pushes forward to g^(deg h / deg g), and no
    other g receives it.  With q's form prod g_j^e_j, the preimages are
    exactly the products of prod h^c_h over the factors h of each g_j o f
    with sum c_h deg h / deg g_j = e_j for every j.  F is not applied: it
    fixes the dimension only, and the tests check F(p) = q on graphs."""
    if q.k != F.k:
        raise DomainError("dimension mismatch")
    def solutions(g, e):
        hs = _pullback_factors(f, g)
        return list(_weighted_counts(hs, [h.degree // g.degree for h in hs], e))
    per_factor = [recorded(f, ("preimages", g, e), lambda: solutions(g, e))
                  for g, e in q.factors()]
    return sorted(point_of_factors([hc for part in parts for hc in part])
                  for parts in product(*per_factor))


@dataclass(frozen=True)
class GraphNode:
    point: PkPoint
    tail: int
    period: int
    components: tuple  # (NumberField | None, AlgebraicPoint, multiplicity)


class PreperiodicGraph:
    """The functional graph of all rational preperiodic points of F found by
    backward closure from the periodic set, with conjugate decompositions.

    Each distinct irreducible form among the nodes' factors is one Galois
    orbit of f, decomposed once per map into (field, point) (recorded);
    orbits lists them, and a node's components are lookups into it."""

    def __init__(self, f, k, images, tails, periods):
        self.f = f
        self.k = k
        points = sorted(tails)
        index = {p: i for i, p in enumerate(points)}
        table = dict.fromkeys(g for p in points for g, _m in p.factors())
        for g in table:
            table[g] = recorded(f, ("orbit", g), lambda: conjugate_points(
                point_of_factors([(g, 1)]))[0][:2])
        # orbits in the order conjugate_points gives a node's components
        forms = sorted(table, key=lambda g: _conjugate_sort_key((*table[g], 1)))
        self.orbits = [table[g] for g in forms]
        rank = {g: r for r, g in enumerate(forms)}
        self.nodes = []
        for p in points:
            ranked = sorted([(rank[g], m) for g, m in p.factors()])
            comps = tuple([(*self.orbits[r], m) for r, m in ranked])
            self.nodes.append(GraphNode(point=p, tail=tails[p], period=periods[p],
                                        components=comps))
        self.edges = sorted((index[p], index[images[p]]) for p in points)
        fields = {fld.minpoly.coeffs: fld for fld, _pt in self.orbits
                  if fld is not None}
        self.fields = [fields[key] for key in sorted(fields)]

    def __len__(self):
        return len(self.nodes)

    def recovered_points(self):
        """Distinct base-map preperiodic data: rational points as a sorted
        list, and one (minpoly, field) per higher-degree conjugate orbit."""
        rat = sorted((pt for fld, pt in self.orbits if fld is None),
                     key=lambda p: (0, Fraction(0)) if p.infinity
                     else (1, p.value))
        return rat, [(fld.minpoly, fld) for fld in self.fields]

    def to_dot(self) -> str:
        base = {pt: "oo" if pt.infinity else
                f"(x - {pt.value})" if fld is None and pt.value >= 0 else
                f"(x + {-pt.value})" if fld is None else
                f"({fld.minpoly.to_text()})" for fld, pt in self.orbits}
        lines = ["digraph preperiodic {", "  node [shape=box];"]
        for i, node in enumerate(self.nodes):
            minpoly = "*".join(base[pt] if m == 1 else f"{base[pt]}^{m}"
                               for _fld, pt, m in node.components)
            coords = ", ".join(str(c) for c in node.point.coords)
            lines.append(f'  n{i} [label="minpoly={minpoly}; coords=({coords})"];')
        cycle = {i for i, n in enumerate(self.nodes) if n.tail == 0}
        for a, b in self.edges:
            style = " [style=bold]" if a in cycle else ""
            lines.append(f"  n{a} -> n{b}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        comp = {pt: {"degree": 1 if fld is None else fld.degree,
                     "minpoly": ("x" if pt.infinity else
                                 f"x - {pt.value}" if fld is None else
                                 fld.minpoly_int.to_text()),
                     "infinity": pt.infinity,
                     "point": pt.to_text("w")}
                for fld, pt in self.orbits}
        nodes = [{"id": i,
                  "coords": [str(c) for c in node.point.coords],
                  "tail": node.tail, "period": node.period,
                  "components": [{**comp[pt], "multiplicity": m}
                                 for _fld, pt, m in node.components]}
                 for i, node in enumerate(self.nodes)]
        return {
            "schema_version": "1",
            "nodes": nodes,
            "edges": [{"src": a, "dst": b} for a, b in self.edges],
            "fields": [{"minpoly": fld.minpoly_int.to_text(), "degree": fld.degree}
                       for fld in self.fields],
        }


def preperiodic_graph(f: RationalMap1, k: int, n_max: int | None = None,
                      budget: int = DEFAULT_BUDGET) -> PreperiodicGraph:
    """All rational preperiodic points of the k-symmetric product reachable
    from periodic points with base period <= n_max, as a closed graph."""
    if n_max is None:
        n_max = default_n_max(f, k, budget=budget)
    F = symmetrize(f, k)
    periodic = rational_periodic_points(f, k, n_max, budget=budget)
    periods = {p: per for p, per in periodic}
    tails = dict.fromkeys(periods, 0)
    # every node is a preimage of its image, itself a node, so each node's
    # image is recorded exactly once, when that image's preimages are found;
    # the search runs breadth first from the periodic set, so a node first
    # reached from q has q's tail plus one and q's period
    images = {}
    frontier = sorted(tails)
    while frontier:
        new = []
        for q in frontier:
            for p in rational_preimages(f, F, q):
                images[p] = q
                if p not in tails:
                    tails[p] = tails[q] + 1
                    periods[p] = periods[q]
                    new.append(p)
        frontier = sorted(new)
    if len(images) != len(tails):
        raise DomainError("graph closure violated")  # unreachable
    return PreperiodicGraph(f, k, images, tails, periods)
