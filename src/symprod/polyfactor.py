"""Factorization of univariate polynomials over Q.

Pipeline: content/primitive split, Yun squarefree decomposition, then for each
squarefree part the classical Zassenhaus round trip: factor mod a small prime
(distinct-degree + Cantor-Zassenhaus equal-degree splitting), Hensel-lift the
modular factors to a modulus beyond the Landau-Mignotte coefficient bound, and
recombine subsets by exact trial division.  Non-monic inputs are handled by
the monicizing substitution x -> x/lc.

Everything is deterministic: the equal-degree splitting RNG is seeded from the
polynomial itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from .errors import DomainError
from .unipoly import UniPoly

# ---------------------------------------------------------------------------
# Z/p[x] arithmetic on low-to-high int lists
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
           for i in range(n)]
    return _trim(out)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], p - 2, p)
    r = [c % p for c in a]
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(r) - 1, len(b) - 2, -1):
        if r[i]:
            f = r[i] * inv % p
            q[i - len(b) + 1] = f
            for j, c in enumerate(b):
                r[i - len(b) + 1 + j] = (r[i - len(b) + 1 + j] - f * c) % p
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
    result = [1]
    base = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        e >>= 1
        if e:
            base = _pmod(_pmul(base, base, p), mod, p)
    return result


# ---------------------------------------------------------------------------
# Factorization over F_p (p odd): DDF + Cantor-Zassenhaus EDF
# ---------------------------------------------------------------------------


def _ddf(f, p):
    """Distinct-degree split of a monic squarefree f mod p: [(d, product)]."""
    out = []
    v = list(f)
    h = [0, 1]  # x
    i = 1
    while len(v) - 1 >= 2 * i:
        h = _ppowmod(h, p, v, p)
        g = _pgcd(_psub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((i, g))
            v = _pdivmod(v, g, p)[0]
            h = _pmod(h, v, p)
        i += 1
    if len(v) > 1:
        out.append((len(v) - 1, v))
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


def _factor_mod_p(f, p, rng):
    facs = []
    for d, prod in _ddf(f, p):
        facs.extend(_edf(prod, d, p, rng))
    return sorted(facs, key=lambda g: (len(g), g))


# ---------------------------------------------------------------------------
# Hensel lifting (monic, quadratic, binary factor tree)
# ---------------------------------------------------------------------------


def _mdivmod_monic(a, b, mod):
    r = [c % mod for c in a]
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(r) - 1, len(b) - 2, -1):
        if r[i]:
            f = r[i]
            q[i - len(b) + 1] = f
            for j, c in enumerate(b):
                r[i - len(b) + 1 + j] = (r[i - len(b) + 1 + j] - f * c) % mod
    return _trim(q), _trim(r)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f=gh, sg+th=1 (mod m) to the same mod m^2.

    h and g monic; returns (g*, h*, s*, t*).
    """
    mod = m * m
    e = _psub(f, _pmul(g, h, mod), mod)
    q, r = _mdivmod_monic(_pmul(s, e, mod), h, mod)
    # g* = g + t*e + q*g
    te = _pmul(t, e, mod)
    qg = _pmul(q, g, mod)
    gstar = _addm(_addm(g, te, mod), qg, mod)
    hstar = _addm(h, r, mod)
    b = _psub(_addm(_pmul(s, gstar, mod), _pmul(t, hstar, mod), mod), [1], mod)
    c, d = _mdivmod_monic(_pmul(s, b, mod), hstar, mod)
    sstar = _psub(s, d, mod)
    tstar = _psub(_psub(t, _pmul(t, b, mod), mod), _pmul(c, gstar, mod), mod)
    return gstar, hstar, sstar, tstar


def _addm(a, b, mod):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % mod
                  for i in range(n)])


def _hensel_tree(f, modular_factors, p, target):
    """Lift pairwise-coprime monic factors of f mod p to factors mod p^target.

    f is monic over Z with f = prod(modular_factors) mod p.  Returns the list
    of lifted monic factors (coefficients reduced into [0, p^target)).
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

_FACTOR_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


def _symrep(c, mod):
    c %= mod
    return c - mod if c > mod // 2 else c


def _int_divmod_monic(a, b):
    """Division of integer polynomials with b monic; exact, no fractions."""
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(r) - 1, len(b) - 2, -1):
        if r[i]:
            f = r[i]
            q[i - len(b) + 1] = f
            for j, c in enumerate(b):
                r[i - len(b) + 1 + j] -= f * c
    return _trim(q), _trim(r)


def _int_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _zassenhaus_monic(f):
    """Irreducible monic integer factors of a monic squarefree integer poly."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)]
    rng = random.Random(hash(tuple(f)))

    best = None
    tried = 0
    for p in _FACTOR_PRIMES:
        fp = _trim([c % p for c in f])
        if len(fp) - 1 != n:
            continue  # degree drop mod p
        dfp = _trim([(i * fp[i]) % p for i in range(1, len(fp))])
        if len(_pgcd(fp, dfp, p)) > 1:
            continue  # not squarefree mod p
        facs = _factor_mod_p(fp, p, rng)
        if best is None or len(facs) < len(best[1]):
            best = (p, facs)
        tried += 1
        if tried >= 4 or (best and len(best[1]) == 1):
            break
    if best is None:
        raise DomainError("no usable prime found for factorization")
    p, modular = best
    if len(modular) == 1:
        return [list(f)]

    # Landau-Mignotte bound on coefficients of any monic divisor.
    norm2 = math.isqrt(sum(c * c for c in f)) + 1
    bound = (1 << n) * norm2
    target = 1
    while p ** target <= 2 * bound:
        target += 1
    ptar = p ** target
    lifted = _hensel_tree(f, modular, p, target)

    result = []
    current = list(f)
    idx = list(range(len(lifted)))
    s = 1
    f0 = current[0]
    while 2 * s <= len(idx):
        found = False
        for combo in combinations(idx, s):
            c0 = 1
            for i in combo:
                c0 = c0 * lifted[i][0] % ptar
            c0 = _symrep(c0, ptar)
            if c0 == 0 or (current[0] and current[0] % c0 != 0):
                continue
            g = [1]
            for i in combo:
                g = _pmul(g, lifted[i], ptar)
            g = [_symrep(c, ptar) for c in g]
            q, r = _int_divmod_monic(current, g)
            if not r:
                result.append(g)
                current = q
                for i in combo:
                    idx.remove(i)
                found = True
                break
        if not found:
            s += 1
    if len(current) > 1:
        result.append(current)
    return sorted(result, key=lambda g: (len(g), g))


def _factor_squarefree_primitive(f):
    """Factor a squarefree primitive integer polynomial (positive lead) into
    irreducible primitive integer polynomials with positive lead."""
    n = len(f) - 1
    if n == 0:
        return []
    if n == 1:
        return [list(f)]
    lc = f[-1]
    if lc == 1:
        monic_factors = _zassenhaus_monic(f)
        return sorted(monic_factors, key=lambda g: (len(g), g))
    # monicize: fm(x) = lc^(n-1) * f(x/lc)
    fm = [f[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
    res = []
    for gm in _zassenhaus_monic(fm):
        e = len(gm) - 1
        graw = [gm[i] * lc ** i for i in range(e + 1)]
        g = math.gcd(*graw)
        if graw[-1] < 0:
            g = -g
        res.append([c // g for c in graw])
    # sanity: the primitive factors multiply back to f
    prod = [1]
    for g in res:
        prod = _int_mul(prod, g)
    if prod != list(f):
        raise DomainError("internal factorization inconsistency")
    return sorted(res, key=lambda g: (len(g), g))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def squarefree_decomposition(f: UniPoly):
    """Yun's algorithm: pairwise-coprime monic squarefree g_i with
    f = c * prod g_i^i; returns [(g_i, i)]."""
    if f.degree < 1:
        return []
    fp = f.derivative()
    a = f.gcd(fp)
    b = f // a
    c = fp // a
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        g = b.gcd(d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        d = c - b.derivative()
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
    content, prim = poly.content_primitive()
    if prim.degree == 0:
        return content, []

    factors: dict[tuple, int] = {}
    # zero roots come off first so constant terms are nonzero downstream
    v = 0
    cs = list(prim.coeffs)
    while cs[v] == 0:
        v += 1
    if v:
        factors[(0, 1)] = v  # the polynomial x
        prim = UniPoly(tuple(cs[v:]))

    for g, mult in squarefree_decomposition(prim):
        _, gint = g.content_primitive()
        for irr in _factor_squarefree_primitive([int(c) for c in gint.coeffs]):
            key = tuple(irr)
            factors[key] = factors.get(key, 0) + mult

    out = sorted(((UniPoly.from_int_list(list(k)), m) for k, m in factors.items()),
                 key=lambda fm: (fm[0].degree, fm[0].coeffs))
    check = UniPoly.constant(content)
    for g, m in out:
        check = check * g ** m
    if check != poly:
        raise DomainError("factorization failed the multiply-back check")
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
