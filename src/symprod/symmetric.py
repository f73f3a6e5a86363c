"""The symmetric-product construction.

eta sends a k-tuple of P^1 points to the point of P^k whose coordinates are
the bihomogeneous elementary symmetric functions; symmetrize produces the
induced self-map F of P^k with F o eta = eta o (f, ..., f).  The form with
roots f(z_1), ..., f(z_k) is a resultant of the form with roots z_1..z_k and
X P + Y Q (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3), so F is one
exact Bareiss determinant (linalg.det_poly) of the (k+d)-square Sylvester
matrix (unipoly.sylvester_matrix) over Z[x_0..x_k, Y]: its cost is
polynomial in k.  The entries are f's coefficients and the variables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb
from operator import itemgetter

from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError
from .linalg import det_poly
from .mpoly import MPoly
from .numberfield import NumberField
from .projective import (AlgebraicPoint, BinaryForm, MorphismPk, PkPoint,
                         RationalMap1, minpoly_of_factor, point_of_form)
from .unipoly import _conv, sylvester_matrix


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
    F o eta_k = eta_k o (f, ..., f), primitive-integer normalized."""
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
    # Variables x_0..x_k, then Y.  g = sum_j x_j U^(k-j) V^j =
    # prod_l (z_l U + t_l V) and h = P(-V, U) + Y Q(-V, U), with h's rows
    # first and both laid out from the top power of V down: then the first
    # k pivots are constants whenever f is a polynomial.
    one = (0,) * (k + 2)
    g = [{one[:j] + (1,) + one[j + 1:]: 1} for j in range(k + 1)]
    y = one[:-1] + (1,)
    h = [{y: (-1) ** i * f.den[d - i], one: (-1) ** i * f.num[d - i]}
         for i in range(d + 1)]
    # Res_V(h, g) = c * sum_j F_j(x) Y^j with a constant c != 0.
    res = det_poly(sylvester_matrix(h, g, d, k), k + 2)
    parts = [{} for _ in range(k + 1)]
    # Insert terms by ascending reversed exponent: the Green iteration sums
    # F's terms in this order in floating point, so it fixes its rounding.
    for e in sorted(res, key=itemgetter(*range(k + 1, -1, -1))):
        parts[e[k + 1]][e[:k + 1]] = res[e]
    F = MorphismPk([MPoly(k + 1, t) for t in parts], expected_degree=d)
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
