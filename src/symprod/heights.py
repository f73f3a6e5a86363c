"""Heights: naive and canonical, local Green's functions, bad primes.

The canonical height of a rational point is the sum of local Green's
functions of a fixed primitive-integer lift: the archimedean one by
norm-renormalized floating iteration, the finite ones (bad primes only; good
primes contribute exactly zero for coprime coordinates) by exact valuation
bookkeeping modulo a prime power.  Both iterate F on its evaluation plan
(MorphismPk.plan).  The archimedean one runs on mpmath's raw libmp tuples,
with the operations, order and rounding of mpf arithmetic term by term
(the tests keep that loop as the reference): a component's terms are
summed in the insertion order of F's terms, and a float sum depends on
that order, so the plan keeps it pinned until the iteration carries a
certified ball enclosure instead.  canonical_height and green_local share
one per-place routine.  Precision is an argument, never a setting: every
mpmath operation is a libmp call at an explicit precision (53 bits, or
max(53, prec) in the archimedean loop), rounding to nearest, so no value
depends on mpmath's global context.  mpmath is imported by the functions
that use it, so that only a height loads it.

Every error bound is backed by a certificate: explicit integer polynomials
g_ij and nonzero integers r_i with sum_j g_ij F_j = r_i x_i^M.  These give a
two-sided comparison |h(F(p)) - d h(p)| <= C, the geometric tail bounds for
the Green iterations, and the per-step valuation caps at finite places.

The certificate of lowest degree is searched degree by degree on Macaulay
matrices, with one exception.  The symmetric product F of x^d + c, c != 0,
satisfies F_j[g] = lam T_j[g] c^((w(g) - d j)/d), where T is that of
x^d + 1 and w(g) = sum_i i g_i.  So every Macaulay matrix of F is T's times
diagonal matrices, with the same greedy pivot columns and the same minimal
degrees, and F's certificate is T's rescaled.  F is read as such a product
from the map symmetrize records on it, and a morphism built otherwise is
searched.  T's search and its rescaling plan are built once per (d, k), a
refusal kept as well, and every rescaled certificate is verified exactly
before it is used.  The rescale runs on integers, one lcm and one gcd per
coordinate.  Every certificate identity is checked by integer convolution
on monomials coded as single integers in base M + 1, so that the code of a
product is the sum of the codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations_with_replacement
from operator import add

from .errors import BudgetExceededError, CertificateError, DomainError
from .intfactor import is_prime, prime_divisors
from .linalg import IntSystem, solve_int_system
from .parser import _MAX_BITS
from .projective import MorphismPk, PkPoint, RationalMap1, morphism_of_map
from .symmetric import eta_tilde, symmetrize


# ---------------------------------------------------------------------------
# naive height and bad primes
# ---------------------------------------------------------------------------


def naive_height(p: PkPoint) -> float:
    """log of the maximal absolute coordinate (coordinates are coprime)."""
    m = max(abs(c) for c in p.coords)
    return _log_int(m)


def _log(x):
    """log of an int or a float, rounded to nearest at 53 bits, as a libmp
    value: what mpmath.log gives under mpmath's default context."""
    from mpmath.libmp import from_float, from_int, mpf_log
    return mpf_log(from_int(x) if isinstance(x, int) else from_float(x), 53, "n")


def _to_float(v) -> float:
    from mpmath.libmp import to_float
    return to_float(v, rnd="n")


def _log_int(n: int) -> float:
    return _to_float(_log(n)) if n > 1 else 0.0


class BadPrimeSet(tuple):
    """A sorted tuple of rational primes of bad reduction."""

    def __new__(cls, primes):
        return super().__new__(cls, tuple(sorted(set(primes))))


def bad_primes(f: RationalMap1) -> BadPrimeSet:
    """Primes of bad reduction: the prime divisors of f.res, the resultant of
    the primitive lift, which mod p is the resultant of the reduced pair."""
    return BadPrimeSet(prime_divisors(f.res))


def bad_primes_sym(f: RationalMap1, k: int) -> BadPrimeSet:
    """Bad primes of the k-symmetric product: identical to those of f (over Q
    the prime contraction is the identity)."""
    if k < 1:
        raise DomainError("k must be at least 1")
    return bad_primes(f)


# ---------------------------------------------------------------------------
# the height-comparison certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightCertificate:
    morphism_key: tuple
    exponents: tuple          # M_i per coordinate
    multipliers: tuple        # integers r_i
    g_norms: tuple            # sum_j of 1-norms of g_ij, per i
    coeff_norm: int           # U = max_i sum |coeffs of F_i|
    bad: tuple                # primes carrying Green's functions
    valuation_caps: dict      # q -> A_q = max_i v_q(r_i)
    c_upper: float
    c_lower: float
    constant: float           # C = max of the two, rounded up
    bound: float              # B = C/(d-1), rounded up
    escape_threshold: int     # coordinates above this certify naive height > B

    def green_constant(self) -> float:
        return max(self.c_upper, self.c_lower) + 1.0


_cert_cache: dict = {}
_CERT_DIM_CAP = 2000  # columns; beyond this the search is declined


def _monomials(nvars: int, deg: int):
    out = []
    for combo in combinations_with_replacement(range(nvars), deg):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def _search_certificate(F: MorphismPk):
    """Exponents M_i, multipliers r_i, g-norms and the integer g_ij of the
    lowest-degree certificate, searched degree by degree; the bad primes
    play no part."""
    k, d = F.k, F.d
    nvars = k + 1
    cap = (k + 1) * (d - 1) + 1
    fterms = _fterms(F)
    exps = [None] * nvars
    mults = [None] * nvars
    gnorms = [None] * nvars
    gs = [None] * nvars

    for M in range(d, cap + 1):
        missing = [i for i in range(nvars) if exps[i] is None]
        if not missing:
            break
        gmons = _monomials(nvars, M - d)
        rows_mons = _monomials(nvars, M)
        if len(gmons) * nvars > _CERT_DIM_CAP:
            raise CertificateError(
                f"certificate system too large at degree {M} (k={k}, d={d})")
        system = IntSystem(_macaulay_matrix(fterms, gmons, rows_mons))
        for i in missing:
            target = [0] * nvars
            target[i] = M
            target = tuple(target)
            rhs = [0] * len(rows_mons)
            rhs[rows_mons.index(target)] = 1
            sol = solve_int_system(system, rhs)
            if sol is None:
                continue
            polys = [dict() for _ in range(nvars)]
            for col, x in enumerate(sol):
                if x:
                    j, a = divmod(col, len(gmons))
                    polys[j][gmons[a]] = x
            exps[i] = M
            mults[i], gnorms[i], gs[i] = _integral_certificate(fterms, polys, target)
    if any(e is None for e in exps):
        raise CertificateError(
            f"no Nullstellensatz certificate up to degree {cap}")
    return tuple(exps), tuple(mults), tuple(gnorms), tuple(gs)


def _fterms(F: MorphismPk):
    return [[(e, int(c)) for e, c in comp.terms.items()] for comp in F.components]


def _integral_certificate(fterms, polys, target):
    """(r, g-norm, integer g_j) from rational g_j with sum_j g_j F_j =
    x^target: r is the lcm of the denominators, and r x^target = sum_j
    (r g_j) F_j is verified exactly."""
    den = math.lcm(*(x.denominator for g in polys for x in g.values()))
    ints = [{a: x.numerator * (den // x.denominator) for a, x in g.items()}
            for g in polys]
    if not _certificate_identity_holds(fterms, ints, target, den):
        raise CertificateError("certificate failed exact verification")
    return den, sum(abs(v) for g in ints for v in g.values()), ints


# (d, k) -> (T, T's search, _template_plan of it), T the symmetric product
# of x^d + 1, or the CertificateError that refused T's search; never changed.
_template_cache: dict = {}


def _weight(e) -> int:
    return sum(i * a for i, a in enumerate(e))


def _family_scaling(F: MorphismPk):
    """(template, lam, c) when F = symmetrize(x^d + c, k), c != 0, as read
    from F.base, else None: then F_j[g] = lam T_j[g] c^((w(g) - d j)/d),
    w(g) = sum_i i g_i, and lam is read from F's first term of weight d j.
    template is _template_cache[d, k], built here on first use; a kept
    refusal is raised again."""
    if F.base is None:
        return None
    (num, den), k = F.base
    d = F.d
    if any(num[1:d]) or any(den[:d]) or num[0] != den[d] or not num[d]:
        return None
    got = _template_cache.get((d, k))
    if got is None:
        T = symmetrize(RationalMap1([1] + [0] * (d - 1) + [1], [0] * d + [1]), k)
        try:
            search = _search_certificate(T)
            got = (T, search, _template_plan(T, search))
        except CertificateError as err:
            got = err
        _template_cache[d, k] = got
    if isinstance(got, CertificateError):
        raise CertificateError(str(got))
    T = got[0].components
    lam = next(coef / T[j].terms[e] for j, comp in enumerate(F.components)
               for e, coef in comp.terms.items() if _weight(e) == d * j)
    return got, lam, Fraction(num[d], den[d])


def _template_plan(T: MorphismPk, search):
    """T's certificate laid out for rescaling, per coordinate i: (r~_i, the
    distinct powers s of c, the rows ((a, code of a, g~_ij[a], index of
    its s), ...) per j in the order of g~_ij, the code of x_i^M_i and the
    code of each monomial of T).  An entry's power is s = (w(a) + d j - i M_i)/d;
    codes are in a base from _code_base."""
    exps, mults, _gnorms, gs = search
    d = T.d
    plan = []
    for i, (M, den, polys) in enumerate(zip(exps, mults, gs)):
        target = tuple(M if t == i else 0 for t in range(T.k + 1))
        base = _code_base(target, [a for g in polys for a in g], d)
        group = {}
        rows = tuple(tuple((a, _code(a, base), x, group.setdefault(
            (_weight(a) + d * j - i * M) // d, len(group)))
            for a, x in g.items()) for j, g in enumerate(polys))
        codes = {e: _code(e, base) for comp in T.components for e in comp.terms}
        plan.append((den, tuple(group), rows, _code(target, base), codes))
    return tuple(plan)


def _rescaled_search(F: MorphismPk):
    """The search result of F.  When F is T rescaled (see _family_scaling),
    every Macaulay block of F is T's times diagonal matrices, with the same
    greedy pivot columns and minimal degrees, so the solutions are T's
    rescaled: g_ij[a] = g~_ij[a] c^s / (lam r~_i), s = (w(a) + d j -
    i M_i)/d.  On integers: with N_s / D_s the reduced factor c^s /
    (lam r~_i) of each power s that occurs, L the lcm of the D_s and G the
    gcd of L and every L g_ij[a], the lcm of the reduced denominators of the
    g_ij[a] is r_i = L / G, and the integer g_ij[a] is g~_ij[a] N_s (L /
    D_s) / G.  Each rescaled certificate is verified exactly on coded
    monomials.  Other maps are searched."""
    got = _family_scaling(F)
    if got is None:
        return _search_certificate(F)
    (_T, search, plan), lam, c = got
    fterms = _fterms(F)
    mults, gnorms, gs = [], [], []
    for den, powers, rows, target, codes in plan:
        factors = [c ** s / (lam * den) for s in powers]
        L = math.lcm(*(q.denominator for q in factors))
        ms = [q.numerator * (L // q.denominator) for q in factors]
        scaled = [[x * ms[s] for _a, _ca, x, s in row] for row in rows]
        G = math.gcd(L, *(v for row in scaled for v in row))
        coded = [[(ca, v // G) for (_a, ca, _x, _s), v in zip(row, srow)]
                 for row, srow in zip(rows, scaled)]
        if not _coded_identity_holds(
                [[(codes[e], co) for e, co in fj] for fj in fterms], coded,
                target, L // G):
            raise CertificateError("certificate failed exact verification")
        mults.append(L // G)
        gnorms.append(sum(abs(v) for row in coded for _ca, v in row))
        gs.append([{a: v for (a, *_), (_ca, v) in zip(row, crow)}
                   for row, crow in zip(rows, coded)])
    return search[0], tuple(mults), tuple(gnorms), tuple(gs)


def _macaulay_matrix(fterms, gmons, rows_mons):
    """The integer matrix of (g_0, ..., g_k) -> sum_j g_j F_j on forms of
    the degree of rows_mons: column j * len(gmons) + a holds
    x^gmons[a] * F_j, row t the coefficient of x^rows_mons[t], as an array
    of Python integers."""
    import numpy as np
    row_of = {e: t for t, e in enumerate(rows_mons)}
    G = len(gmons)
    rows, cols, coeffs = [], [], []
    for j, terms in enumerate(fterms):
        for e, c in terms:
            rows += [row_of[tuple(map(add, g, e))] for g in gmons]
            cols += range(j * G, (j + 1) * G)
            coeffs += [c] * G
    A = np.zeros((len(rows_mons), len(fterms) * G), dtype=object)
    A[rows, cols] = coeffs  # a column's products are distinct monomials
    return A


def _code(e, base) -> int:
    """The exponent vector e as one integer, sum_t e_t base^t."""
    out = 0
    for a in reversed(e):
        out = out * base + a
    return out


def _code_base(target, gmons, d) -> int:
    """A base above every exponent of x^target and of every product x^a
    x^e, a in gmons and e of total degree at most d: in it _code is
    injective on those monomials, and the code of a product is the sum of
    the codes.  For a certificate, whose g_j are forms of degree M - d,
    it is M + 1."""
    return max(sum(target), max(map(sum, gmons), default=0) + d) + 1


def _coded_identity_holds(fterms, polys, target, den) -> bool:
    """sum_j g_j F_j == den * x^target for terms (code, coefficient) and
    the code of x^target, by integer convolution on the codes."""
    acc = {}
    get = acc.get
    for g, fj in zip(polys, fterms):
        for ca, a in g:
            for ce, c in fj:
                key = ca + ce
                acc[key] = get(key, 0) + a * c
    return {e: c for e, c in acc.items() if c} == {target: den}


def _certificate_identity_holds(fterms, polys, target, den) -> bool:
    """sum_j g_j F_j == den * x^target, by integer convolution of the terms
    of the g_j and of the components of F on coded monomials."""
    base = _code_base(target, [a for g in polys for a in g],
                      max(sum(e) for fj in fterms for e, _c in fj))
    return _coded_identity_holds(
        [[(_code(e, base), c) for e, c in fj] for fj in fterms],
        [[(_code(a, base), x) for a, x in g.items()] for g in polys],
        _code(target, base), den)


def _summarize_certificate(F: MorphismPk, search, bad) -> HeightCertificate:
    """The certificate's constants for one set of bad primes."""
    from mpmath.libmp import from_float, mpf_ceil, mpf_e, mpf_pow, to_int
    exps, mults, gnorms, _gs = search
    d = F.d
    U = max(sum(abs(int(c)) for c in comp.terms.values()) for comp in F.components)
    c_up = _ceil_log(U)
    # lower bound: ||F(x)|| >= min_i (|r_i| / gnorm_i) * ||x||^d, minus content loss
    worst = max(Fraction(g, abs(r)) for g, r in zip(gnorms, mults))
    caps = {}
    content_loss = 0.0
    for q in bad:
        a = max(_valuation(abs(r), q) for r in mults)
        caps[q] = a
        content_loss += a * _log_int(q)
    c_low = _ceil_log_fraction(worst) + content_loss
    constant = max(c_up, c_low) + 1e-9
    bound = constant / (d - 1) + 1e-9
    e_bound = mpf_pow(mpf_e(53, "n"), from_float(bound + 1e-9), 53, "n")
    threshold = int(to_int(mpf_ceil(e_bound, 53, "n"))) + 1
    return HeightCertificate(
        morphism_key=F.key(), exponents=exps, multipliers=mults,
        g_norms=gnorms, coeff_norm=U, bad=bad,
        valuation_caps=caps, c_upper=c_up, c_lower=c_low,
        constant=constant, bound=bound, escape_threshold=threshold)


def _ceil_log(n: int) -> float:
    return _log_int(n) + 1e-12 if n > 1 else 0.0


def _ceil_log_fraction(x: Fraction) -> float:
    from mpmath.libmp import mpf_sub
    if x <= 1:
        return 0.0
    return _to_float(mpf_sub(_log(x.numerator), _log(x.denominator), 53, "n")) + 1e-12


def _valuation(n: int, p: int) -> int:
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def morphism_certificate(F: MorphismPk, bad=None) -> HeightCertificate:
    if F.d < 2:  # the constants divide by d - 1
        raise DomainError("a height certificate needs a map of degree at least 2")
    key = (F.key(), tuple(sorted(bad)) if bad is not None else None)
    got = _cert_cache.get(key)
    if got is None:
        search = _rescaled_search(F)
        if bad is None:
            # safe superset: any prime not dividing some r_i has good reduction
            bad = {q for r in search[1] for q in prime_divisors(r)}
        got = _summarize_certificate(F, search, tuple(sorted(bad)))
        _cert_cache[key] = got
    return got


def height_comparison_constant(F: MorphismPk, bad=None) -> float:
    """Certified C with |h(F(p)) - d h(p)| <= C for all rational points p."""
    return morphism_certificate(F, bad).constant


def preperiodicity_bound(f: RationalMap1) -> float:
    """B = C/(d-1) for a map of P^1: any point with an iterate of naive
    height > B is certified non-preperiodic."""
    if not isinstance(f, RationalMap1):
        raise DomainError("expected a RationalMap1")
    return morphism_certificate(morphism_of_map(f), bad=bad_primes(f)).bound


# ---------------------------------------------------------------------------
# local Green's functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightValue:
    value: float
    error_bound: float
    places: tuple = ()
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "schema_version": "1",
            "value": self.value,
            "error_bound": self.error_bound,
            "places": [{"place": name, "contribution": c} for name, c in self.places],
            "notes": list(self.notes),
        }


def _checked_certificate(F: MorphismPk, p: PkPoint, tol, prec,
                         bad) -> HeightCertificate:
    """F's certificate, once the tolerance, the precision and p's dimension
    are checked.  A working precision above _MAX_BITS, the length of the
    longest numeral an input may type, is refused before any work."""
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be a positive finite number, not {tol}")
    if prec > _MAX_BITS:
        raise BudgetExceededError(
            f"working precision of {prec} bits is above {_MAX_BITS}")
    if p.k != F.k:
        raise DomainError(f"a point of P^{p.k} under a map of P^{F.k}")
    return morphism_certificate(F, bad)


def _place(place):
    """None for the archimedean place, else the prime the place names."""
    if place in ("arch", "inf", "infinity"):
        return None
    if type(place) is int or (isinstance(place, str) and place.isdecimal()):
        if is_prime(int(place)):
            return int(place)
    raise DomainError(f"place must be 'arch' or a prime, not {place!r}")


def green_local(F: MorphismPk, p: PkPoint, place, tol: float = 1e-6,
                prec: int = 53, bad=None):
    """Local Green's function of the primitive lift at one place.

    place is "arch" ("inf", "infinity") for the archimedean place, else a
    prime, as an int or a decimal string; anything else is refused.  Good
    primes return the local naive term (0 for coprime coordinates) exactly.
    Returns (value, error_bound).
    """
    q = _place(place)
    return _green(F, p, q, tol, prec, _checked_certificate(F, p, tol, prec, bad))


def _green(F: MorphismPk, p: PkPoint, q, tol, prec, cert):
    """(value, error_bound) of the Green function at the prime q, or at the
    archimedean place when q is None; (0.0, 0.0) at a good prime."""
    if q is None:
        return _green_arch(F, p, tol, prec, cert)
    return _green_finite(F, p, q, tol, cert)


def _steps(bound: float, tol: float, d: int) -> int:
    """max(1, ceil(log x / log d) + 1) for x = bound / (tol (d - 1)), in
    53-bit arithmetic: enough Green steps N that x * d^-N <= 1.  A tolerance
    so small that x is not a finite float is refused."""
    from mpmath.libmp import mpf_ceil, mpf_div, to_int
    x = bound / (tol * (d - 1)) if tol * (d - 1) else math.inf
    if not math.isfinite(x):
        raise DomainError(f"tolerance {tol} per place is too small to bound "
                          "the Green iteration")
    return max(1, int(to_int(mpf_ceil(mpf_div(_log(x), _log(d), 53, "n"), 53, "n"))) + 1)


def _green_arch(F: MorphismPk, p: PkPoint, tol, prec, cert):
    """The archimedean Green function by N steps of u -> F(u)/||F(u)||_inf
    on F's evaluation plan, in mpmath's raw libmp tuples at the working
    precision max(53, prec): each power u_i^a once per step, then each
    component's terms c * u^e multiplied left to right and summed in plan
    order, with the rounding of the same mpf operations."""
    from mpmath.libmp import (from_int, fzero, mpf_abs, mpf_add, mpf_cmp,
                              mpf_div, mpf_log, mpf_mul, mpf_pos, mpf_pow_int)
    d = F.d
    C = cert.green_constant()
    N = _steps(C, tol, d)
    powers, monomials, terms = F.plan
    by_value = cmp_to_key(mpf_cmp)
    wp, rnd = max(53, int(prec)), "n"
    comps = [[(mpf_pos(from_int(c), wp, rnd), monomials[m]) for c, m in comp]
             for comp in terms]
    u = [mpf_pos(from_int(c), wp, rnd) for c in p.coords]
    scale = max([mpf_abs(x, wp, rnd) for x in u], key=by_value)
    acc = mpf_log(scale, wp, rnd)
    u = [mpf_div(x, scale, wp, rnd) for x in u]
    dd = from_int(d)
    for n in range(N):
        pw = [mpf_pow_int(u[v], a, wp, rnd) for v, a in powers]
        w = []
        for comp in comps:
            total = fzero
            for t, mono in comp:
                for i in mono:
                    t = mpf_mul(t, pw[i], wp, rnd)
                total = mpf_add(total, t, wp, rnd)
            w.append(total)
        s = max([mpf_abs(x, wp, rnd) for x in w], key=by_value)
        step = mpf_div(mpf_log(s, wp, rnd), mpf_pow_int(dd, n + 1, wp, rnd), wp, rnd)
        acc = mpf_add(acc, step, wp, rnd)
        u = [mpf_div(x, s, wp, rnd) for x in w]
    tail = C * _to_float(mpf_pow_int(dd, -N, wp, rnd)) / (d - 1)
    slack = N * (C + 2) * 2.0 ** (10 - wp)
    return _to_float(acc), tail + slack


def _green_finite(F: MorphismPk, p: PkPoint, q: int, tol, cert):
    """The Green function at q by exact valuation bookkeeping, zero when the
    certificate puts no cap A on q (a good prime).  Each step's least
    valuation m is that of gcd(q^(A+1), y_0, ..., y_k), so m > A exactly
    when the gcd is q^(A+1)."""
    from mpmath.libmp import from_int, mpf_div, mpf_mul
    d = F.d
    A = cert.valuation_caps.get(q, 0)
    if A == 0:
        return 0.0, 0.0
    log_q_mpf = _log(q)
    logq = _to_float(log_q_mpf)
    N = _steps(A * logq, tol, d)
    mtotal = A * N + A + 4
    qpow = [q ** i for i in range(A + 2)]
    modulus = q ** mtotal
    x = [c % modulus for c in p.coords]
    mrem = mtotal
    total = Fraction(0)
    for n in range(1, N + 1):
        mod_n = q ** mrem
        y = [v % mod_n for v in F.eval_int(x)]
        m = qpow.index(math.gcd(qpow[-1], *y))
        if m > A:
            raise DomainError("valuation cap violated; certificate inconsistent")
        qm = qpow[m]
        mrem -= m
        mod_next = q ** mrem
        x = [(v // qm) % mod_next for v in y]
        total += Fraction(m, d ** n)
    val = -_to_float(mpf_mul(mpf_div(from_int(total.numerator, 53, "n"),
                                     from_int(total.denominator), 53, "n"),
                             log_q_mpf, 53, "n")) if total else 0.0
    tail = A * logq * d ** (-float(N)) / (d - 1)
    return val, tail + 1e-12


# ---------------------------------------------------------------------------
# canonical heights
# ---------------------------------------------------------------------------


def canonical_height(F: MorphismPk, p: PkPoint, tol: float = 1e-6,
                     prec: int = 53, bad=None) -> HeightValue:
    """Canonical height of a rational point as a certified sum of local
    Green's functions over the archimedean place and the bad primes."""
    cert = _checked_certificate(F, p, tol, prec, bad)
    places = (None,) + cert.bad
    share = tol / len(places)
    contributions = []
    total = 0.0
    err = 0.0
    for q in places:
        v, e = _green(F, p, q, share, prec, cert)
        contributions.append(("arch" if q is None else str(q), v))
        total += v
        err += e
    if total < 0 and total > -err:
        total = 0.0  # heights are nonnegative; clamp roundoff
    return HeightValue(value=total, error_bound=err, places=tuple(contributions))


def canonical_height_nf(f: RationalMap1, point, tol: float = 1e-6,
                        prec: int = 53) -> HeightValue:
    """Canonical height of an algebraic point of P^1, computed over Q through
    the symmetric-product transfer: h_f(P) = h_F(eta~(P)) / k."""
    from .projective import AlgebraicPoint

    if not isinstance(point, AlgebraicPoint):
        raise DomainError("expected an AlgebraicPoint")
    notes = []
    k = 1 if point.field is None else point.field.degree
    if point.field is not None and not point.field.is_galois():
        notes.append("transfer outside stated hypotheses: field is not Galois")
    F = symmetrize(f, k)
    q = eta_tilde(point, k)
    hv = canonical_height(F, q, tol * k, prec, bad=bad_primes_sym(f, k))
    return HeightValue(hv.value / k, hv.error_bound / k,
                       tuple((n, v / k) for n, v in hv.places), tuple(notes))
