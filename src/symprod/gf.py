"""Small finite fields F_{p^e} and reductions of maps modulo good primes.

Elements are coefficient tuples in F_p[x]/(modulus); fields of this size
(p <= ~100, e <= 5) only ever hold a few thousand elements, so everything is
done by direct enumeration.
"""

from __future__ import annotations

from itertools import product

from .errors import DomainError
from .polyfactor import _ddf, _pgcd, _pmod, _pmul, _trim
from .unipoly import _power


def find_irreducible(p: int, e: int):
    """Deterministic smallest monic irreducible of degree e over F_p: a
    monic g is irreducible exactly when its distinct-degree split is g alone
    (a repeated factor has degree <= e/2, so the split finds it)."""
    for tail in product(range(p), repeat=e):
        g = list(tail) + [1]
        if _ddf(g, p) == [(e, g)]:
            return g
    raise DomainError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """F_{p^e} with elements as coefficient tuples of length e."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.modulus = find_irreducible(p, e)
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)

    def order(self) -> int:
        return self.p ** self.e

    def elements(self):
        for tup in product(range(self.p), repeat=self.e):
            yield tup

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.e - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod_ = _pmul(list(a), list(b), self.p)
        red = _pmod(prod_, self.modulus, self.p)
        return tuple(red) + (0,) * (self.e - len(red))

    def pow(self, a, n: int):
        return _power(a, n, self.one, self.mul)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in finite field")
        return self.pow(a, self.order() - 2)

    def is_zero(self, a):
        return a == self.zero


def p1_points(gf: FiniteField):
    """Canonical representatives of P^1(F_q): (a, 1) for all a, then (1, 0)."""
    pts = [(a, gf.one) for a in gf.elements()]
    pts.append((gf.one, gf.zero))
    return pts


def _canon_p1(gf: FiniteField, x, y):
    if y != gf.zero:
        return (gf.mul(x, gf.inv(y)), gf.one)
    return (gf.one, gf.zero)


def degenerates_mod_p(f, p: int) -> bool:
    """True when the reduction of the P^1 map f mod p is not a morphism of
    degree d: a component vanishes, or the two share a root."""
    num = [c % p for c in f.num]
    den = [c % p for c in f.den]
    affn = _trim([num[len(num) - 1 - j] for j in range(len(num))])
    affd = _trim([den[len(den) - 1 - j] for j in range(len(den))])
    if not affn or not affd:
        # one component vanishes identically mod p (joint lift is primitive,
        # so not both); shared zeros certainly exist
        return True
    if num[0] % p == 0 and den[0] % p == 0:
        return True  # common root at infinity
    return len(_pgcd(affn, affd, p)) > 1


def reduce_map(f, gf: FiniteField):
    """The reduction of a P^1 map mod p as an evaluator on P^1(F_q) points.

    Raises when the reduction degenerates (bad prime)."""
    p = gf.p
    if degenerates_mod_p(f, p):
        raise DomainError(f"bad reduction at {p}")
    num = [c % p for c in f.num]
    den = [c % p for c in f.den]

    d = f.d
    numc = [gf.from_int(c) for c in num]
    denc = [gf.from_int(c) for c in den]

    def step(pt):
        x, y = pt
        xs = [gf.one]
        ys = [gf.one]
        for _ in range(d):
            xs.append(gf.mul(xs[-1], x))
            ys.append(gf.mul(ys[-1], y))
        nv = gf.zero
        dv = gf.zero
        for j in range(d + 1):
            mono = gf.mul(xs[d - j], ys[j])
            nv = gf.add(nv, gf.mul(numc[j], mono))
            dv = gf.add(dv, gf.mul(denc[j], mono))
        if nv == gf.zero and dv == gf.zero:
            raise DomainError(f"bad reduction at {p}")
        return _canon_p1(gf, nv, dv)

    return step


def cycle_lengths(step, points) -> set[int]:
    """Cycle lengths of the functional graph point -> step(point)."""
    state: dict = {}
    lengths = set()
    for start in points:
        if start in state:
            continue
        path = []
        pos = {}
        cur = start
        while cur not in state and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = step(cur)
        if cur in pos:
            lengths.add(len(path) - pos[cur])
        for node in path:
            state[node] = True
    return lengths


def morphism_degenerate_over(F, p: int, e: int) -> bool:
    """Brute-force search for a common projective zero of the reduced
    components of F over F_{p^e}.

    Field elements are tabulated (q <= a few hundred), so the scan over
    P^k(F_q) is plain table lookups."""
    gf = FiniteField(p, e)
    elems = list(gf.elements())
    index = {a: i for i, a in enumerate(elems)}
    q = len(elems)
    mul = [[index[gf.mul(a, b)] for b in elems] for a in elems]
    add = [[index[gf.add(a, b)] for b in elems] for a in elems]
    zero = index[gf.zero]
    one = index[gf.one]

    comps = []
    for comp in F.components:
        terms = []
        for exps, c in comp.terms.items():
            ci = index[gf.from_int(int(c) % p)]
            if ci != zero:
                terms.append((ci, exps))
        comps.append(terms)

    k = F.k
    nvars = k + 1

    def evaluate(comp_terms, powtabs):
        total = zero
        for ci, exps in comp_terms:
            term = ci
            for var in range(nvars):
                a = exps[var]
                if a:
                    term = mul[term][powtabs[var][a]]
            total = add[total][term]
        return total

    d = F.d
    for lead in range(nvars):
        frees = nvars - lead - 1
        for tail in product(range(q), repeat=frees):
            coords = (zero,) * lead + (one,) + tail
            powtabs = []
            for v in coords:
                row = [one, v]
                for _ in range(d - 1):
                    row.append(mul[row[-1]][v])
                powtabs.append(row)
            if all(evaluate(c, powtabs) == zero for c in comps):
                return True
    return False
