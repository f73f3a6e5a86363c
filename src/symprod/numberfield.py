"""Number fields Q[x]/(m) and exact arithmetic in their power basis.

Irreducibility of the defining polynomial is verified at construction and
never trusted from the caller.  Elements are immutable coordinate vectors;
inversion is by the extended Euclidean algorithm against the minimal
polynomial.  A norm is one determinant over Z[x_0..] (_norm_det:
multiplication on the power basis, cleared of denominators).  The norm of a
polynomial with coefficients in the field drives root finding inside a
field; an element e's minimal polynomial is the squarefree part of the norm
of x - e; symmetric.symmetrize takes the norm of a linear form.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, FieldMismatchError
from .linalg import det_poly
from .polyfactor import (_squarefree_splits, factor_unipoly,
                         squarefree_decomposition)
from .unipoly import UniPoly, _conv, _field_gcd, _power

_field_cache: dict[tuple, "NumberField"] = {}


class NumberField:
    """Q[x]/(minpoly) with minpoly monic irreducible over Q."""

    __slots__ = ("minpoly", "minpoly_int", "degree", "_galois", "_mulcache")

    def __init__(self, minpoly: UniPoly):
        if minpoly.degree < 1:
            raise DomainError("a number field needs a defining polynomial of degree >= 1")
        content, facs = factor_unipoly(minpoly)
        if len(facs) != 1 or facs[0][1] != 1:
            raise DomainError(
                f"defining polynomial {minpoly.to_text()} is not irreducible over Q")
        prim = facs[0][0]
        object.__setattr__(self, "minpoly_int", prim)
        object.__setattr__(self, "minpoly", prim.monic())
        object.__setattr__(self, "degree", prim.degree)
        object.__setattr__(self, "_galois", None)  # automorphism count, on demand
        object.__setattr__(self, "_mulcache", None)

    def __setattr__(self, *a):
        raise AttributeError("NumberField is immutable")

    @staticmethod
    def get(minpoly: UniPoly) -> "NumberField":
        """Cached constructor; fields with the same primitive minpoly are shared."""
        key = tuple(minpoly.primitive_int_coeffs())
        field = _field_cache.get(key)
        if field is None:
            field = NumberField(minpoly)
            _field_cache[key] = field
        return field

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly_int.to_text()})"

    # reduction matrix rows: x^(deg), ..., x^(2 deg - 2) modulo minpoly
    def _reduction_rows(self):
        if self._mulcache is None:
            rows = [tuple(-c for c in self.minpoly.coeffs[:-1])]  # x^k mod m
            for _ in range(self.degree - 2):
                rows.append(tuple(_times_a(rows[-1], rows[0])))
            object.__setattr__(self, "_mulcache", tuple(rows))
        return self._mulcache

    def zero(self) -> "NFElem":
        return NFElem(self, (Fraction(0),) * self.degree)

    def one(self) -> "NFElem":
        return NFElem(self, (Fraction(1),) + (Fraction(0),) * (self.degree - 1))

    def gen(self) -> "NFElem":
        if self.degree == 1:
            return NFElem(self, (Fraction(-self.minpoly.coeff(0)),))
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return NFElem(self, tuple(coords))

    def from_rational(self, q) -> "NFElem":
        coords = [Fraction(0)] * self.degree
        coords[0] = Fraction(q)
        return NFElem(self, tuple(coords))

    def element(self, coords) -> "NFElem":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.degree:
            raise DomainError("coordinate vector length must equal the field degree")
        return NFElem(self, coords)

    def automorphism_count(self) -> int:
        """|Aut(K/Q)|: the number of roots of the defining polynomial in the
        field.  A field of degree <= 2 holds all of them, with no norm; a
        field whose Frobenius bound leaves only the identity has 1, with no
        norm either."""
        if self._galois is None:
            n = self.degree
            if n > 2:
                n = 1 if _frobenius_bound(self.minpoly_int, n) == 1 else len(
                    roots_in_number_field(self.minpoly, self))
            object.__setattr__(self, "_galois", n)
        return self._galois

    def is_galois(self) -> bool:
        """True when the defining polynomial splits completely in the field."""
        return self.automorphism_count() == self.degree


class NFElem:
    """An element of a NumberField in the power basis 1, a, ..., a^(k-1)."""

    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field: NumberField, coords):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))
        if len(self.coords) != field.degree:
            raise DomainError("coordinate vector length must equal the field degree")

    def __setattr__(self, *a):
        raise AttributeError("NFElem is immutable")

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.field != self.field:
                raise FieldMismatchError("elements belong to different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return (isinstance(other, NFElem) and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash", hash((self.field.minpoly.coeffs,
                                                    self.coords)))
        return self._hash

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NFElem(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return NFElem(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElem(self.field, tuple(a * other for a in self.coords))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = self.field.degree
        prod = _conv(self.coords, o.coords)
        if k == 1:
            return NFElem(self.field, (prod[0],))
        rows = self.field._reduction_rows()
        out = prod[:k]
        for i in range(k, 2 * k - 1):
            c = prod[i]
            if c:
                row = rows[i - k]
                for j in range(k):
                    out[j] += c * row[j]
        return NFElem(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in number field")
        # extended Euclid: u * elem + v * minpoly = 1 in Q[x]
        a = self.field.minpoly
        b = UniPoly(self.coords)
        r0, r1 = a, b
        t0, t1 = UniPoly.zero(), UniPoly.one()
        while r1.degree > 0:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        if r1.is_zero():
            raise DomainError("defining polynomial is not irreducible")  # unreachable
        inv = t1 * (1 / r1.coeff(0))
        coords = list(inv.coeffs) + [Fraction(0)] * (self.field.degree - len(inv.coeffs))
        return NFElem(self.field, tuple(coords[: self.field.degree]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() if other == 1 else self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.field.one())

    def to_text(self, var: str = "a") -> str:
        return UniPoly(self.coords).to_text(var) if not self.is_zero() else "0"

    def __repr__(self):
        return f"NFElem({self.to_text()})"


_FROBENIUS_PRIMES = 8


def _frobenius_bound(m: UniPoly, n: int) -> int:
    """The largest divisor of n that bounds |Aut(K/Q)|, K = Q[x]/(m) of
    degree n, at the first _FROBENIUS_PRIMES odd primes p not dividing
    lc(m) disc(m).

    Reduction mod a prime of K above p of residue degree d maps the roots
    of m in K injectively to roots of m mod p in F_(p^d) (Dedekind), and
    the degree-d primes above p match the degree-d factors of m mod p: so
    |Aut(K/Q)| <= sum_(d_j | d) d_j over the factor degrees d_j, for every
    factor degree d.  The count also divides n."""
    bound = n
    splits = _squarefree_splits(m.primitive_int_coeffs())
    for tried, (_, ddf) in enumerate(splits, 1):
        degrees = {d: (len(g) - 1) // d for d, g in ddf}
        for d in degrees:
            bound = min(bound, sum(e * c for e, c in degrees.items() if d % e == 0))
        while n % bound:
            bound -= 1
        if tried == _FROBENIUS_PRIMES or bound == 1:
            break
    return bound


def nf_arith(field: NumberField, a: NFElem, b: NFElem, op: str) -> NFElem:
    """Field arithmetic dispatcher: op in {add, sub, mul, div}."""
    if a.field != field or b.field != field:
        raise FieldMismatchError("operands do not belong to the given field")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b.is_zero():
            raise ZeroDivisionError("division by zero in number field")
        return a / b
    raise DomainError(f"unknown field operation {op!r}")


def _times_a(v, power):
    """v times a on the power basis 1, a, ..., a^(n-1) of Q[a], where a^n
    has coordinates power: every coordinate moves up one place, the top one
    comes back through a^n."""
    top = v[-1]
    if not top:
        return [0, *v[:-1]]
    return [s + top * t for s, t in zip((0, *v[:-1]), power)]


def _norm_det(vecs, power, monomials):
    """The norm from Q[a] (a^n = power) to Q[x_0..] of sum_t m_t v_t, for
    coordinate vectors v_t and monomials m_t (exponent tuples), as (det,
    scale): det is det_poly's {exponent tuple: int} dict and equals scale
    times the norm.  The norm is the determinant of multiplication by the
    element on the power basis; scaled by the lcm D of its entries'
    denominators that matrix has entries in Z[x_0..], and scale is D^n."""
    n = len(power)
    rows = []
    for _ in range(n):
        rows.append([[v[r] for v in vecs] for r in range(n)])
        vecs = [_times_a(v, power) for v in vecs]
    den = math.lcm(*(q.denominator for row in rows for entry in row for q in entry))
    det = det_poly([[{m: q.numerator * (den // q.denominator)
                      for m, q in zip(monomials, entry) if q} for entry in row]
                    for row in rows], len(monomials[0]))
    return det, den ** n


def _norm(coeffs) -> UniPoly:
    """N_{K/Q} of the polynomial sum_i coeffs[i] x^i with NFElem
    coefficients, by _norm_det."""
    det, scale = _norm_det([c.coords for c in coeffs],
                           coeffs[0].field._reduction_rows()[0],  # a^n
                           [(i,) for i in range(len(coeffs))])
    out = [0] * (max(det)[0] + 1)  # a nonzero polynomial has a nonzero norm
    for (i,), c in det.items():
        out[i] = Fraction(c, scale)
    return UniPoly(out)


def minimal_polynomial(e: NFElem | Fraction | int) -> UniPoly:
    """Monic minimal polynomial over Q; its degree divides the field degree.

    The norm of x - e is the characteristic polynomial of multiplication by
    e (Cohen, A Course in Computational Algebraic Number Theory, 3.6), a
    power of the minimal polynomial, so it is the one part of the norm's
    squarefree decomposition: the norm itself unless e lies in a proper
    subfield."""
    if isinstance(e, (int, Fraction)):
        return UniPoly((-Fraction(e), Fraction(1)))
    [(m, _mult)] = squarefree_decomposition(_norm([-e, e.field.one()]))
    return m


# ---------------------------------------------------------------------------
# Root finding inside a field (Trager-style norm computation)
# ---------------------------------------------------------------------------


def roots_in_number_field(poly: UniPoly, field: NumberField) -> list[NFElem]:
    """All roots of a Q-polynomial that lie in the given number field.

    Uses Trager's norm trick.  The norm N(poly(x - s*a)), one determinant
    over Z[x], is squarefree for some shift s; each rational factor h of it
    pulls back to the factor gcd(poly(x), h(x + s*a)) over the field, of
    degree deg(h)/n, so only the factors of degree n can give roots.  The
    norm's roots are b_j + s*a_i (poly(b_j) = 0, a_i the conjugates of a),
    so for poly the field's own minimal polynomial s = 1 counts each
    a_i + a_j twice and s = -1 gives the factor x^n: the shifts +-1 are
    tried last.  A norm is squarefree only if poly is, so poly is first
    replaced by its squarefree part, the product of the monic parts of its
    squarefree decomposition, which has the same roots.
    """
    if poly.degree < 1:
        return []
    alpha = field.gen()
    poly = math.prod((g for g, _i in squarefree_decomposition(poly)),
                     start=UniPoly.one())
    pk = [field.from_rational(c) for c in poly.coeffs]
    for s in (2, -2, 3, -3, 4, -4, 5, -5, 1, -1):
        norm = _norm(_shift_into_field(poly, -s, alpha))
        if any(i > 1 for _g, i in squarefree_decomposition(norm)):
            continue
        _, facs = factor_unipoly(norm)
        roots = []
        for h, _mult in facs:
            if h.degree == field.degree:
                g = _field_gcd(pk, _shift_into_field(h, s, alpha))
                if len(g) == 2:  # monic linear factor x + g0
                    roots.append(-g[0])
        roots.sort(key=lambda r: r.coords)
        return roots
    raise DomainError("no squarefree norm found while searching roots in field")


def _shift_into_field(h: UniPoly, s: int, alpha: NFElem):
    """h(x + s*alpha) as a list of NFElem coefficients, by Horner: a step
    multiplies by x + s*alpha, so entry i becomes out[i-1] + s*alpha*out[i]."""
    sa = s * alpha
    out = [alpha.field.from_rational(h.lead)]
    for c in reversed(h.coeffs[:-1]):
        out = [sa * out[0] + c] + [a + sa * b for a, b in zip(out, out[1:])] + [out[-1]]
    return out


def same_field(a: NumberField, b: NumberField) -> bool:
    """Isomorphism test: equal degree and b's defining polynomial has a root in a."""
    if a.degree != b.degree:
        return False
    if a.minpoly == b.minpoly:
        return True
    return bool(roots_in_number_field(b.minpoly, a))
