"""The symmetric-product construction.

eta sends a k-tuple of P^1 points to the point of P^k whose coordinates are
the bihomogeneous elementary symmetric functions; symmetrize produces the
induced self-map F of P^k with F o eta = eta o (f, ..., f).  The form with
roots f(z_1), ..., f(z_k) is a resultant of the form with roots z_1..z_k and
X P + Y Q (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3), so F is one
exact Bareiss determinant of a (k+d)-square Sylvester matrix over
Z[x_0..x_k, Y]: its cost is polynomial in k.  The matrix has integer
entries, f's coefficients and the variables, so the determinant runs on
_Packed, integer polynomials whose exponent vectors are packed into one
int each: a monomial product is one integer addition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb

from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError
from .linalg import det_bareiss
from .mpoly import MPoly
from .numberfield import NumberField
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


class _Packed:
    """An integer polynomial: a dict from packed exponent vectors to nonzero
    int coefficients, with the operations det_bareiss uses.

    Variable i takes bits [i w, (i+1) w) of the packed exponent.  Exponents
    stay below 2^(w-1), so the top bit of every slot (the guard mask) is
    clear: adding packed exponents multiplies monomials without carries,
    and the integer order of packed exponents is a monomial order, the lex
    order with the last variable most significant."""

    __slots__ = ("terms", "guard")

    def __init__(self, terms, guard):
        self.terms, self.guard = terms, guard

    def __bool__(self):
        return bool(self.terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return _Packed({e: c * other for e, c in self.terms.items()}, self.guard)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            [(e1, c1)] = a.items()
            return _Packed({e1 + e: c1 * c for e, c in b.items()}, self.guard)
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _Packed({e: c for e, c in out.items() if c}, self.guard)

    __rmul__ = __mul__

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _Packed(out, self.guard)

    def __floordiv__(self, other):
        """The exact quotient, by long division from the largest term down;
        raises DomainError when the division leaves a remainder.  Setting
        the guard bits before subtracting a divisor exponent keeps borrows
        inside each slot: a slot whose guard bit is then clear went
        negative, so the monomial does not divide."""
        div = other.terms
        if not div:
            raise DomainError("division by the zero polynomial")
        guard = self.guard
        lead = max(div)
        lc = div[lead]
        if len(div) == 1:
            out = {}
            for e, c in self.terms.items():
                q = (e | guard) - lead
                cq, r = divmod(c, lc)
                if q & guard != guard or r:
                    raise DomainError("polynomial division is not exact")
                out[q ^ guard] = cq
            return _Packed(out, guard)
        import heapq  # here, so that import symprod loads no new module
        tail = [(e, c) for e, c in div.items() if e != lead]
        rest = dict(self.terms)
        heap = [-e for e in rest]
        heapq.heapify(heap)
        out = {}
        while heap:
            e = -heapq.heappop(heap)
            c = rest.pop(e, 0)
            if not c:
                continue  # cancelled; keys are taken in decreasing order
            q = (e | guard) - lead
            cq, r = divmod(c, lc)
            if q & guard != guard or r:
                raise DomainError("polynomial division is not exact")
            q ^= guard
            out[q] = cq
            for e2, c2 in tail:
                t = q + e2
                s = rest.get(t, 0) - cq * c2
                if t not in rest:
                    heapq.heappush(heap, -t)
                rest[t] = s
        return _Packed(out, guard)


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
    # Variables x_0..x_k, then Y, in slots of w bits.  A Bareiss entry is a
    # minor, of degree <= k in Y and <= d in x, so the exponents of a product
    # of two entries, and of the terms met while dividing it exactly, are at
    # most 2(k+d): below the 2^(w-1) > 4(k+d) a slot holds.
    w = (4 * (k + d)).bit_length() + 1
    guard = sum(1 << (w * i + w - 1) for i in range(k + 2))

    def poly(terms):
        return _Packed({e: c for e, c in terms if c}, guard)

    zero = poly(())
    y = 1 << (w * (k + 1))
    # g = sum_j x_j U^(k-j) V^j = prod_l (z_l U + t_l V) and
    # h = P(-V, U) + Y Q(-V, U), both listed from the top power of V down:
    # then the first k pivots are constants whenever f is a polynomial.
    g = [poly([(1 << (w * j), 1)]) for j in range(k, -1, -1)]
    h = [poly([(y, (-1) ** i * f.den[d - i]), (0, (-1) ** i * f.num[d - i])])
         for i in range(d, -1, -1)]
    rows = ([[zero] * r + h + [zero] * (k - 1 - r) for r in range(k)]
            + [[zero] * r + g + [zero] * (d - 1 - r) for r in range(d)])
    # Res_V(g, h) = c * sum_j F_j(x) Y^j with a constant c != 0.
    res = det_bareiss(rows)
    parts = [{} for _ in range(k + 1)]
    mask = (1 << w) - 1
    # Insert terms by ascending reversed exponent, which is ascending packed
    # exponent: the Green iteration sums F's terms in this order in floating
    # point, so it fixes its rounding.
    for e, c in sorted(res.terms.items()):
        exps = [(e >> (w * i)) & mask for i in range(k + 2)]
        parts[exps[k + 1]][tuple(exps[:k + 1])] = c
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
