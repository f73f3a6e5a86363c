"""The symmetric-product construction.

eta sends a k-tuple of P^1 points to the point of P^k whose coordinates are
the bihomogeneous elementary symmetric functions; symmetrize produces the
induced self-map F of P^k with F o eta = eta o (f, ..., f).  The form with
roots f(z_1), ..., f(z_k) is a resultant of the form g with roots z_1..z_k
and h = X P + Y Q (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3), that
is, a norm from Q[V]/(h) (Cohen, A Course in Computational Algebraic Number
Theory, 3.6).  With Y a large power of 2, F is one d x d determinant over
Z[x_0..x_k] (numberfield._norm_det), whose digits are F's components: its
cost is polynomial in k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb
from operator import itemgetter

from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError
from .mpoly import MPoly
from .numberfield import NumberField, _norm_det, _times_a
from .projective import (AlgebraicPoint, BinaryForm, MorphismPk, PkPoint,
                         RationalMap1, minpoly_of_factor, point_of_form)
from .unipoly import _conv


def eta_coords(pairs):
    """Coefficients of prod_l (a_l X + b_l Y), lowest Y-power first.

    Works over any commutative ring: pairs is a list of (a, b), folded into
    the product one factor [a, b] at a time by _conv.  The j-th output is
    eta_{k,j} of the inputs; one that no nonzero product reaches is int 0,
    == to a Fraction or mpf zero (not to a zero MPoly).
    """
    if not pairs:
        raise DomainError("eta needs at least one point")
    return reduce(lambda cur, ab: _conv(ab, cur), pairs[1:], list(pairs[0]))


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

_symmetrize_cache: dict[tuple, MorphismPk] = {}

# F of a quadratic map at the largest k the degree budget allows has up to
# (k+1) C(k+2, 2) terms; no map is symmetrized into more.
_MAX_TERMS = (DEFAULT_BUDGET + 1) * comb(DEFAULT_BUDGET + 2, 2)


def _check_k(k: int):
    """Points of P^k are binary forms of degree k, so the one degree budget
    caps k; checked before anything is built."""
    if k > DEFAULT_BUDGET:
        raise BudgetExceededError(f"k = {k} exceeds the budget {DEFAULT_BUDGET}")


def symmetrize(f: RationalMap1, k: int) -> MorphismPk:
    """The k-symmetric product F of f: the unique self-map of P^k with
    F o eta_k = eta_k o (f, ..., f), primitive-integer normalized, with
    F.base its cache key (f.key(), k)."""
    if k < 1:
        raise DomainError("k must be at least 1")
    _check_k(k)
    d = f.d
    size = (k + 1) * comb(k + d, d)  # k+1 forms of degree d in k+1 variables
    if size > _MAX_TERMS:
        raise BudgetExceededError(
            f"the {k}-symmetric product of a degree-{d} map has up to {size} "
            f"terms, above the budget {_MAX_TERMS}")
    key = (f.key(), k)
    got = _symmetrize_cache.get(key)
    if got is not None:
        return got
    # Res_V(h, g) = c sum_j F_j(x) Y^j (c a constant) for g = sum_j x_j V^j
    # and h = P(-V, 1) + Y Q(-V, 1).  Its coefficients are at most the
    # product of the Sylvester rows' coefficient sums, ||f||_1^k (k+1)^d, so
    # at Y = 2^B the F_j are its signed base-2^B digits.
    B = (sum(map(abs, f.num + f.den)) ** k * (k + 1) ** d).bit_length() + 1
    y = 1 << B
    h = [(-1) ** i * (f.num[d - i] + y * f.den[d - i]) for i in range(d + 1)]
    lead = h[d]
    # theta' = lead theta is a root of the monic lead^(d-1) h(V / lead), so
    # Res_V(h, g) = lead^k prod_theta g(theta), the norm of
    # sum_j x_j lead^(k-j) theta'^j divided by lead^(k(d-1)).
    power = [-c * lead ** (d - 1 - i) for i, c in enumerate(h[:d])]
    vecs, v = [], [1] + [0] * (d - 1)
    for j in range(k + 1):
        vecs.append([c * lead ** (k - j) for c in v])
        v = _times_a(v, power)
    one = (0,) * (k + 1)
    det, _ = _norm_det(vecs, power,
                       [one[:j] + (1,) + one[j + 1:] for j in range(k + 1)])
    scale = lead ** (k * (d - 1))
    mask, half = y - 1, y >> 1  # a digit lies in [-half, half)
    parts = [{} for _ in range(k + 1)]
    # Insert terms by ascending reversed exponent: the Green iteration sums
    # F's terms in this order in floating point, so it fixes its rounding.
    for e in sorted(det, key=itemgetter(*range(k, -1, -1))):
        c = det[e] // scale
        for part in parts:
            digit = ((c + half) & mask) - half
            if digit:
                part[e] = digit
            c = (c - digit) >> B
    F = MorphismPk([MPoly(k + 1, t) for t in parts], expected_degree=d)
    object.__setattr__(F, "base", key)
    _symmetrize_cache[key] = F
    return F


def verify_commutation(f: RationalMap1, k: int) -> bool:
    """Exact symbolic check of the defining identity F o eta = eta o (f,..,f).

    Both sides are expanded as polynomials in the 2k homogeneous coordinates
    of (P^1)^k and compared up to a scalar by cross-multiplication."""
    F = symmetrize(f, k)
    nv = 2 * k
    pairs = [(MPoly.variable(nv, 2 * l), MPoly.variable(nv, 2 * l + 1))
             for l in range(k)]
    etas = eta_coords(pairs)
    lhs = [comp.substitute(etas) for comp in F.components]
    rhs = eta_coords([f.eval_pair(z, t) for z, t in pairs])
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
    return conjugate_points(point_of_form(form))


def conjugate_points(p: PkPoint):
    """Decompose a rational point of P^k into the Galois-stable multiset it
    encodes: a list of (NumberField | None, AlgebraicPoint, multiplicity)
    whose total degree (with multiplicity) is k.  Reads the factorization
    the point carries, if it carries one."""
    out = []
    for g, mult in p.factors():
        if g.degree == 1:
            pt = AlgebraicPoint.from_p1(PkPoint(g.coeffs))
            out.append((None, pt, mult))
        else:
            m = minpoly_of_factor(g)
            field = NumberField.get(m)
            out.append((field, AlgebraicPoint(field, field.gen()), mult))
    out.sort(key=_conjugate_sort_key)
    return out


def _conjugate_sort_key(entry):
    field, pt, mult = entry
    if pt.infinity:
        return (0, (), ())
    if field is None:
        v = pt.value
        return (1, (v.numerator, v.denominator), ())
    return (field.degree, field.minpoly.coeffs, pt.value.coords)
