"""The symmetric-product construction.

eta sends a k-tuple of P^1 points to the point of P^k whose coordinates are
the bihomogeneous elementary symmetric functions; symmetrize produces the
induced self-map F of P^k with F o eta = eta o (f, ..., f).  F is computed by
rewriting each symmetric component in the elementary symmetric polynomials
(the classical leading-term subtraction algorithm), which is exact and needs
no linear algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .mpoly import MPoly, elementary_symmetric
from .numberfield import NumberField
from .projective import (AlgebraicPoint, BinaryForm, MorphismPk, PkPoint,
                         RationalMap1, form_of_point, minpoly_of_factor)
from .unipoly import UniPoly


def eta_coords(pairs):
    """Coefficients of prod_l (a_l X + b_l Y), lowest Y-power first.

    Works over any commutative ring: pairs is a list of (a, b).  The j-th
    output is eta_{k,j} of the inputs.
    """
    if not pairs:
        raise DomainError("eta needs at least one point")
    cur = None
    for a, b in pairs:
        if cur is None:
            cur = [a, b]
        else:
            nxt = []
            for j in range(len(cur) + 1):
                term = None
                if j < len(cur):
                    term = a * cur[j]
                if j > 0:
                    t2 = b * cur[j - 1]
                    term = t2 if term is None else term + t2
                nxt.append(term)
            cur = nxt
    return cur


def eta(points) -> PkPoint:
    """eta_k of a list of k exact P^1 points; permutation invariant."""
    pairs = []
    for p in points:
        if isinstance(p, PkPoint):
            if p.k != 1:
                raise DomainError("eta takes points of P^1")
            pairs.append((Fraction(p.coords[0]), Fraction(p.coords[1])))
        else:
            a, b = p
            a, b = Fraction(a), Fraction(b)
            if a == 0 and b == 0:
                raise DomainError("degenerate (0 : 0) input")
            pairs.append((a, b))
    return PkPoint(eta_coords(pairs))


# ---------------------------------------------------------------------------
# symmetrize
# ---------------------------------------------------------------------------

_emono_cache: dict[tuple, MPoly] = {}


def _e_monomial(k: int, a: tuple) -> MPoly:
    """prod_i e_i(z_1..z_k)^(a_i) with a indexed from e_1."""
    key = (k, a)
    got = _emono_cache.get(key)
    if got is not None:
        return got
    if all(x == 0 for x in a):
        val = MPoly.constant(k, 1)
    else:
        i = max(j for j in range(k) if a[j])
        prev = list(a)
        prev[i] -= 1
        val = _e_monomial(k, tuple(prev)) * elementary_symmetric(k, i + 1)
    _emono_cache[key] = val
    return val


def decompose_symmetric(g: MPoly, k: int) -> dict:
    """Write a symmetric polynomial in k variables as a Q-combination of
    monomials in the elementary symmetric polynomials.

    Returns {(a_1..a_k): coefficient} meaning sum c * prod e_i^(a_i).
    """
    out: dict[tuple, Fraction] = {}
    work = g
    while work.terms:
        exp = max(work.terms)
        c = work.terms[exp]
        lam = sorted(exp, reverse=True)
        if list(exp) != lam:
            raise DomainError("polynomial is not symmetric")
        a = tuple(lam[i] - (lam[i + 1] if i + 1 < k else 0) for i in range(k))
        out[a] = c
        work = work - _e_monomial(k, a) * c
    return out


_symmetrize_cache: dict[tuple, MorphismPk] = {}


def symmetrize(f: RationalMap1, k: int) -> MorphismPk:
    """The k-symmetric product F of f: the unique self-map of P^k with
    F o eta_k = eta_k o (f, ..., f), primitive-integer normalized."""
    if k < 1:
        raise DomainError("k must be at least 1")
    key = (f.key(), k)
    got = _symmetrize_cache.get(key)
    if got is not None:
        return got
    d = f.d
    pnum = f.affine_num()
    pden = f.affine_den()

    def embed(u: UniPoly, var: int) -> MPoly:
        terms = {}
        for i, c in enumerate(u.coeffs):
            if c:
                e = [0] * k
                e[var] = i
                terms[tuple(e)] = c
        return MPoly(k, terms)

    # DP for the coefficients of prod_l (P(z_l) X + Q(z_l) Y)
    cur = None
    for var in range(k):
        pv = embed(pnum, var)
        qv = embed(pden, var)
        if cur is None:
            cur = [pv, qv]
        else:
            nxt = []
            for j in range(len(cur) + 1):
                term = MPoly.zero(k)
                if j < len(cur):
                    term = term + pv * cur[j]
                if j > 0:
                    term = term + qv * cur[j - 1]
                nxt.append(term)
            cur = nxt

    components = []
    for j in range(k + 1):
        decomp = decompose_symmetric(cur[j], k)
        terms = {}
        for a, c in decomp.items():
            total = sum(a)
            if total > d:
                raise DomainError("internal symmetrize degree overflow")
            exp = [0] * (k + 1)
            for i, ai in enumerate(a):      # e_(i+1) is coordinate k-(i+1)
                exp[k - (i + 1)] = ai
            exp[k] += d - total             # homogenize with eta_{k,k}
            terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + c
        components.append(MPoly(k + 1, {e: c for e, c in terms.items() if c}))
    F = MorphismPk(components, expected_degree=d)
    _symmetrize_cache[key] = F
    return F


def verify_commutation(f: RationalMap1, k: int) -> bool:
    """Exact symbolic check of the defining identity F o eta = eta o (f,..,f).

    Both sides are expanded as polynomials in the 2k homogeneous coordinates
    of (P^1)^k and compared up to a scalar by cross-multiplication."""
    F = symmetrize(f, k)
    nv = 2 * k
    d = f.d
    pairs = [(MPoly.variable(nv, 2 * l), MPoly.variable(nv, 2 * l + 1))
             for l in range(k)]
    fpairs = []
    for z, t in pairs:
        num = MPoly.zero(nv)
        den = MPoly.zero(nv)
        for j in range(d + 1):
            mono = z ** (d - j) * t ** j
            if f.num[j]:
                num = num + mono * f.num[j]
            if f.den[j]:
                den = den + mono * f.den[j]
        fpairs.append((num, den))
    etas = eta_coords(pairs)
    lhs = [comp.substitute(etas) for comp in F.components]
    rhs = eta_coords(fpairs)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if lhs[i] * rhs[j] != lhs[j] * rhs[i]:
                return False
    return any(c.terms for c in lhs)


# ---------------------------------------------------------------------------
# Galois variant and conjugate recovery
# ---------------------------------------------------------------------------


def eta_tilde(point: AlgebraicPoint, k: int) -> PkPoint:
    """eta applied to the full conjugate multiset of a point, computed from the
    minimal polynomial alone (no splitting field).

    A point of degree e contributes each embedding k/e times, so e must
    divide k; rational points give the diagonal, infinity gives (1,0,...,0).
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    if point.infinity:
        return PkPoint((1,) + (0,) * k)
    m = point.minimal_polynomial()
    e = m.degree
    if k % e:
        raise DomainError(f"point degree {e} does not divide k={k}")
    mm = m ** (k // e)
    coords = [(-1) ** (k - j) * mm.coeff(j) for j in range(k + 1)]
    return PkPoint(coords)


def decompose_form(form: BinaryForm):
    """Factor a point-encoded binary form into the algebraic points it
    encodes: a list of (NumberField | None, AlgebraicPoint, multiplicity)."""
    out = []
    for g, mult in form.factor():
        if g.degree == 1:
            pt = AlgebraicPoint.from_p1(PkPoint(g.coeffs))
            out.append((None, pt, mult))
        else:
            m = minpoly_of_factor(g)
            field = NumberField.get(m)
            out.append((field, AlgebraicPoint(field, field.gen()), mult))
    out.sort(key=_conjugate_sort_key)
    return out


def conjugate_points(p: PkPoint):
    """Decompose a rational point of P^k into the Galois-stable multiset it
    encodes: a list of (NumberField | None, AlgebraicPoint, multiplicity)
    whose total degree (with multiplicity) is k."""
    return decompose_form(form_of_point(p))


def _conjugate_sort_key(entry):
    field, pt, mult = entry
    if pt.infinity:
        return (0, (), ())
    if field is None:
        v = pt.value
        return (1, (v.numerator, v.denominator), ())
    return (field.degree, field.minpoly.coeffs, pt.value.coords)
