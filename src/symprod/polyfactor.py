"""Factorization of univariate polynomials over Q.

Everything runs on integer coefficient lists, low to high.  Pipeline: the
content/primitive split, Yun's squarefree decomposition over Z (every quotient
is exact by Gauss's lemma), then a squarefree quadratic splits in closed form
when its discriminant is a square, and every other squarefree part f of
degree n and lead lc, monic or not, takes one Zassenhaus round trip:

* prime: among odd primes p not dividing lc for which f/lc is squarefree mod
  p, take the first whose distinct-degree split shows at most six factors,
  else the one showing the fewest among the first four; only that one is
  split further (Cantor-Zassenhaus);
* lift: Hensel-lift the monic factors of f/lc mod p to p^t > 2B, with
  B = |lc| 2^n (||f||_2 + 1) bounding lc times the Landau-Mignotte bound;
* recombine: lc(g) times a subset product, in symmetric residues, is a
  multiple of a true factor g; its primitive part is confirmed by exact
  division over Z.

Everything is deterministic: the equal-degree splitting RNG is seeded from the
polynomial itself.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction
from itertools import combinations, zip_longest
from operator import mul
from sys import byteorder

from .errors import DomainError
from .intfactor import is_prime
from .unipoly import (UniPoly, _conv, _int_divide, _int_gcd, _power, _primitive,
                      _trim)

# ---------------------------------------------------------------------------
# Z/p[x] arithmetic on low-to-high int lists
# ---------------------------------------------------------------------------


def _pmul(a, b, p):
    return _trim([c % p for c in _conv(a, b)])


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _trim(out)


def _pdivmod(a, b, m):
    """Quotient and remainder mod m, for b whose lead is a unit mod m."""
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, m)
    r = [c % m for c in a]
    nb = len(b)
    q = [0] * max(0, len(a) - nb + 1)
    for i in range(len(r) - 1, nb - 2, -1):
        if r[i]:
            f = r[i] * inv % m
            s = i - nb + 1
            q[s] = f
            r[s:i + 1] = [(x - f * c) % m for x, c in zip(r[s:i + 1], b)]
    return _trim(q), _trim(r)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _pext_gcd(a, b, p):
    """(g, s, t) with s*a + t*b = g (g monic) in Z/p[x]."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], p - 2, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


def _ppowmod(a, e, mod, p):
    return _power(_pmod(a, mod, p), e, [1],
                  lambda x, y: _pmod(_pmul(x, y, p), mod, p))


# ---------------------------------------------------------------------------
# Factorization over F_p (p odd): DDF + Cantor-Zassenhaus EDF
# ---------------------------------------------------------------------------


class _PackedMod:
    """Multiplication modulo a monic v of degree n in Z/p[x] by Kronecker
    substitution (Harvey, JSC 2009, the plain variant).  A polynomial of
    degree < n with coefficients in [0, p) packs as sum c_i 2^(w i), w the
    bits of an array slot of typecode code; rows[j] packs x^(n + j) mod v."""

    def __init__(self, v, p, code):
        n = len(v) - 1
        self.n, self.p, self.code = n, p, code
        self.width = array(code).itemsize
        self.mask = (1 << (8 * self.width * n)) - 1
        row = [-c % p for c in v[:-1]]
        self.rows = []
        for _ in range(n - 1):
            self.rows.append(self._pack(row))
            top = row[-1]
            row = [(a - top * c) % p for a, c in zip([0] + row[:-1], v)]

    def _pack(self, coeffs):
        return int.from_bytes(array(self.code, coeffs), byteorder)

    def _slots(self, x, count):
        return array(self.code, x.to_bytes(count * self.width, byteorder))

    def _mulmod(self, a, b):
        """(packed a b mod v, its coefficient list) for packed reduced a, b."""
        n, prod = self.n, a * b
        high = self._slots(prod, 2 * n - 1)[n:]
        red = (prod & self.mask) + sum(map(mul, high, self.rows))
        coeffs = [c % self.p for c in self._slots(red, n)]
        return self._pack(coeffs), coeffs

    def powmod(self, h, e):
        """h^e mod v (e >= 1) for h reduced mod v, as a trimmed list."""
        base, result = (self._pack(h), h), None
        while True:
            if e & 1:
                result = base if result is None else self._mulmod(result[0], base[0])
            e >>= 1
            if not e:
                return _trim(list(result[1]))
            base = self._mulmod(base[0], base[0])


def _packed_mod(v, p):
    """A _PackedMod for v, or False when no 32- or 64-bit slot holds its
    sums: a product of two packed polynomials has slots of at most
    m = n (p - 1)^2, and its reduction, the low n slots plus
    sum_j (slot n + j) rows[j], slots of at most m (1 + (n - 1)(p - 1))."""
    n = len(v) - 1
    bound = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
    for code in "IQ":
        if bound >> (8 * array(code).itemsize) == 0:
            return _PackedMod(v, p, code)
    return False


def _ddf(f, p, cap=None, state=None):
    """Distinct-degree split of a monic squarefree f mod p: [(d, product)];
    with a cap, only d <= cap (and an irreducible rest).  A state [v, h, i],
    [f, [0, 1], 1] at first, is continued from and updated in place.  h^p
    mod v is taken on packed integers, with the rows of v built once per v:
    on a 2-core Xeon that is faster than lists from degree 2 on, the
    preperiodic graph's degree-4 to degree-12 splits included."""
    out = []
    v, h, i = state or (list(f), [0, 1], 1)
    packed = None
    while len(v) - 1 >= 2 * i and (cap is None or i <= cap):
        if packed is None:
            packed = _packed_mod(v, p)
        h = packed.powmod(h, p) if packed else _ppowmod(h, p, v, p)
        g = _pgcd(_psub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((i, g))
            v = _pdivmod(v, g, p)[0]
            h = _pmod(h, v, p)
            packed = None
        i += 1
    if 1 < len(v) <= 2 * i:  # every factor has degree >= i: v is irreducible
        out.append((len(v) - 1, v))
        v = [1]
    if state:
        state[:] = v, h, i
    return out


def _edf(f, d, p, rng):
    """Split monic f (product of degree-d irreducibles) into its factors."""
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p ** d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _trim(a)
        if len(a) <= 1:
            continue
        b = _psub(_ppowmod(a, exponent, f, p), [1], p)
        g = _pgcd(b, f, p)
        if 1 < len(g) < len(f):
            q = _pdivmod(f, g, p)[0]
            return _edf(g, d, p, rng) + _edf(q, d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, binary factor tree)
# ---------------------------------------------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f=gh, sg+th=1 (mod m) to the same mod m^2.

    h and g monic; returns (g*, h*, s*, t*).
    """
    mod = m * m
    e = _psub(f, _pmul(g, h, mod), mod)
    q, r = _pdivmod(_pmul(s, e, mod), h, mod)
    # g* = g + t*e + q*g
    te = _pmul(t, e, mod)
    qg = _pmul(q, g, mod)
    gstar = _addm(_addm(g, te, mod), qg, mod)
    hstar = _addm(h, r, mod)
    b = _psub(_addm(_pmul(s, gstar, mod), _pmul(t, hstar, mod), mod), [1], mod)
    c, d = _pdivmod(_pmul(s, b, mod), hstar, mod)
    sstar = _psub(s, d, mod)
    tstar = _psub(_psub(t, _pmul(t, b, mod), mod), _pmul(c, gstar, mod), mod)
    return gstar, hstar, sstar, tstar


def _addm(a, b, mod):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % mod
                  for i in range(n)])


def _hensel_tree(f, modular_factors, p, target):
    """Lift pairwise-coprime monic factors of f mod p to factors mod p^target.

    f is monic mod p^target (lead 1, coefficients in [0, p^target)) with
    f = prod(modular_factors) mod p.  Returns the list of lifted monic
    factors (coefficients reduced into [0, p^target)).
    """
    ptar = p ** target
    if len(modular_factors) == 1:
        return [[c % ptar for c in f]]
    half = len(modular_factors) // 2
    left, right = modular_factors[:half], modular_factors[half:]
    g = [1]
    for fac in left:
        g = _pmul(g, fac, p)
    h = [1]
    for fac in right:
        h = _pmul(h, fac, p)
    _, s, t = _pext_gcd(g, h, p)
    m = p
    fmod = [c % ptar for c in f]
    while m < ptar:
        g, h, s, t = _hensel_step(fmod, g, h, s, t, m)
        m = m * m
    g = [c % ptar for c in g]
    h = [c % ptar for c in h]
    return _hensel_tree(g, left, p, target) + _hensel_tree(h, right, p, target)


# ---------------------------------------------------------------------------
# Zassenhaus over Z
# ---------------------------------------------------------------------------

_PRIME_LIMIT = 10 ** 6
# Up to this many modular factors, recombination tries at most 41 subsets
# (sizes 1..3 of 6), each behind the constant-term test: cheaper than the
# distinct-degree split at another prime.
_CHEAP_RECOMBINATION = 6


def _symrep(c, mod):
    c %= mod
    return c - mod if c > mod // 2 else c


def _monic_squarefree_mod(f, p):
    """f/lc(f) mod the odd prime p, or None when p divides lc(f) or f is not
    squarefree mod p."""
    lc = f[-1]
    if lc % p == 0:
        return None
    inv = pow(lc, -1, p)
    fp = [c * inv % p for c in f]
    dfp = _trim([i * fp[i] % p for i in range(1, len(f))])
    return None if len(_pgcd(fp, dfp, p)) > 1 else fp


def _squarefree_splits(f):
    """(p, distinct-degree split of f/lc mod p) for each odd prime p below
    _PRIME_LIMIT at which f/lc is squarefree (p not dividing lc), ascending."""
    for p in range(3, _PRIME_LIMIT, 2):
        fp = _monic_squarefree_mod(f, p) if is_prime(p) else None
        if fp is not None:
            yield p, _ddf(fp, p)


def _choose_prime(f):
    """(count, p, distinct-degree split of f/lc mod p) for the first usable
    odd prime whose split shows at most _CHEAP_RECOMBINATION factors, else for
    the one showing the fewest among the first four usable primes."""
    best = None
    for tried, (p, ddf) in enumerate(_squarefree_splits(f), 1):
        count = sum((len(g) - 1) // d for d, g in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        if tried == 4 or count <= _CHEAP_RECOMBINATION:
            return best
    if best is None:
        raise DomainError(f"no usable prime below {_PRIME_LIMIT} for factorization")
    return best


def _factor_squarefree_primitive(f):
    """Factor a squarefree primitive integer polynomial (positive lead) into
    irreducible primitive integer polynomials with positive lead."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)] if n == 1 else []
    if n == 2:
        # a x^2 + b x + c = (2a x + b - r)(2a x + b + r) / 4a, r^2 = b^2 - 4ac
        c, b, a = f
        disc = b * b - 4 * a * c
        r = math.isqrt(disc) if disc > 0 else 0
        if r * r != disc:
            return [list(f)]
        return [_primitive([b - r, 2 * a]), _primitive([b + r, 2 * a])]
    count, p, ddf = _choose_prime(f)
    if count == 1:
        return [list(f)]
    rng = random.Random(hash(tuple(f)))
    modular = [g for d, prod in ddf for g in _edf(prod, d, p, rng)]

    lc = f[-1]
    bound = lc * (1 << n) * (math.isqrt(sum(c * c for c in f)) + 1)
    target = 1
    while p ** target <= 2 * bound:
        target += 1
    ptar = p ** target
    inv = pow(lc, -1, ptar)
    lifted = _hensel_tree([c * inv % ptar for c in f], modular, p, target)

    result = []
    current = list(f)
    idx = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(idx):
        lead = current[-1]
        for combo in combinations(idx, s):
            c0 = lead
            for i in combo:
                c0 = c0 * lifted[i][0] % ptar
            c0 = _symrep(c0, ptar)
            # for current = g*h this is lc(h)*g(0), a divisor of lead*current(0)
            if c0 == 0 or lead * current[0] % c0:
                continue
            g = [lead]
            for i in combo:
                g = _pmul(g, lifted[i], ptar)
            g = _primitive([_symrep(c, ptar) for c in g])
            q = _int_divide(current, g)
            if q is not None:
                result.append(g)
                current = q
                idx = [i for i in idx if i not in combo]
                break
        else:
            s += 1
    if len(current) > 1:
        result.append(current)
    return result


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def squarefree_decomposition(f: UniPoly):
    """Yun's algorithm on the primitive integer coefficients of f:
    pairwise-coprime monic squarefree g_i with f = c * prod g_i^i; returns
    [(g_i, i)].  Every quotient is exact over Z (Gauss's lemma).  An f
    squarefree mod one of 3, 5, 7, 11, 13 that does not divide lc(f) is
    squarefree."""
    if f.degree < 1:
        return []
    b = f.primitive_int_coeffs()
    if any(_monic_squarefree_mod(b, p) is not None for p in (3, 5, 7, 11, 13)):
        return [(f.monic(), 1)]
    db = _derivative(b)
    a = _int_gcd(b, db)
    b, c = _int_divide(b, a), _int_divide(db, a)
    out = []
    i = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        g = _int_gcd(b, d)
        if len(g) > 1:
            out.append((UniPoly.from_int_list(g).monic(), i))
        b, c = _int_divide(b, g), _int_divide(d, g)
        i += 1
    return out


def factor_unipoly(poly: UniPoly):
    """Full factorization over Q.

    Returns (content, factors) where factors is a list of
    (irreducible UniPoly with coprime integer coefficients and positive lead,
    multiplicity) and content * prod(factor^mult) == poly exactly.
    """
    if poly.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    prim = poly.primitive_int_coeffs()
    content = poly.lead / prim[-1]
    if len(prim) == 1:
        return content, []

    factors: dict[tuple, int] = {}
    # zero roots come off first so constant terms are nonzero downstream
    v = 0
    while prim[v] == 0:
        v += 1
    if v:
        factors[(0, 1)] = v  # the polynomial x

    for g, mult in squarefree_decomposition(UniPoly.from_int_list(prim[v:])):
        for irr in _factor_squarefree_primitive(g.primitive_int_coeffs()):
            key = tuple(irr)
            factors[key] = factors.get(key, 0) + mult

    check = [1]
    for key, mult in factors.items():
        for _ in range(mult):
            check = _conv(check, key)
    if check != prim:
        raise DomainError("factorization failed the multiply-back check")
    out = sorted(((UniPoly.from_int_list(k), m) for k, m in factors.items()),
                 key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return content, out


def is_irreducible(poly: UniPoly) -> bool:
    if poly.degree < 1:
        return False
    _, facs = factor_unipoly(poly)
    return len(facs) == 1 and facs[0][1] == 1


def rational_roots(poly: UniPoly):
    """All rational roots (as Fractions) with multiplicity, via factorization."""
    _, facs = factor_unipoly(poly)
    out = []
    for g, m in facs:
        if g.degree == 1:
            out.extend([Fraction(-g.coeff(0), g.coeff(1))] * m)
    return sorted(out)
