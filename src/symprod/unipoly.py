"""Univariate polynomials over Q with exact arithmetic.

Coefficients are `fractions.Fraction` throughout; a polynomial is an immutable
coefficient tuple indexed by degree.  The zero polynomial has degree -1.

Gcds and resultants work on integer coefficient lists (low to high):
`_int_divide` divides exactly over Z, and one subresultant sequence gives
every gcd (`_int_gcd`) and resultant (`resultant`, `RationalMap1.res`).  By
Gauss's lemma a primitive divisor of an integer polynomial leaves an integer
quotient, so the factoring code in `polyfactor` never needs fractions.

Four kernels here serve every coefficient ring of the package:
* `_conv`, the coefficient-list product: `UniPoly.__mul__`, `NFElem.__mul__`,
  `symmetric.eta_coords`, the Z/p[x] and Z[x] products of `polyfactor`, and
  the form products of `projective` and `dynamics`;
* `_power`, binary powering: `UniPoly`, `NFElem` and `MPoly` powers,
  `gf.FiniteField.pow`, `polyfactor._ppowmod` and its multiply-back check;
* `_field_divmod`, the long division over a field (Q or a number field):
  `UniPoly.divmod` and `_field_gcd`;
* `_field_gcd`, the monic Euclid over a field:
  `numberfield.roots_in_number_field`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DomainError

Rat = Fraction


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class UniPoly:
    """A univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly((c,))

    @staticmethod
    def from_int_list(cs) -> "UniPoly":
        return UniPoly(tuple(Fraction(c) for c in cs))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash", hash(self.coeffs))
        return self._hash

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = _as_rat(other)
            return UniPoly(tuple(c * a for a in self.coeffs))
        return UniPoly(_conv(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        return _power(self, n, UniPoly.one())

    def divmod(self, other: "UniPoly"):
        """Exact polynomial division with remainder over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _field_divmod(self.coeffs, other.coeffs)
        return UniPoly(q), UniPoly(r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    # -- calculus & evaluation ---------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, float, mpf, NFElem, UniPoly."""
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, float)) else 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose(self, other: "UniPoly") -> "UniPoly":
        """self(other), by Horner; a constant self gives a constant UniPoly."""
        return UniPoly.zero() + self(other)

    # -- normalization ------------------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise DomainError("cannot make the zero polynomial monic")
        l = self.lead
        return UniPoly(tuple(c / l for c in self.coeffs))

    def content_primitive(self):
        """Return (content, primitive) with primitive an integer-coefficient
        polynomial whose coefficients are coprime and whose lead is positive."""
        if self.is_zero():
            return Fraction(0), UniPoly.zero()
        ints = self.primitive_int_coeffs()
        return self.lead / ints[-1], UniPoly.from_int_list(ints)

    def primitive_int_coeffs(self):
        """Integer coefficient list of the primitive positive-lead associate."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return _primitive([c.numerator * (den // c.denominator)
                           for c in self.coeffs])

    # -- gcd / resultant ----------------------------------------------------

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over Q, from the subresultant sequence over Z."""
        g = _int_gcd(self.primitive_int_coeffs(), other.primitive_int_coeffs())
        return UniPoly.from_int_list(g).monic() if g else UniPoly.zero()

    def resultant(self, other: "UniPoly") -> Fraction:
        """Res(self, other) for the true degrees: c^deg(other) e^deg(self)
        Res(A, B) for self = c A and other = e B, A and B primitive over Z."""
        if self.is_zero() or other.is_zero():
            return Fraction(0)
        a, b = self.primitive_int_coeffs(), other.primitive_int_coeffs()
        return ((self.lead / a[-1]) ** other.degree
                * (other.lead / b[-1]) ** self.degree * _subresultants(a, b)[0])

    # -- printing -----------------------------------------------------------

    def to_text(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                xp = var if i == 1 else f"{var}^{i}"
                term = xp if mag == 1 else f"{mag}*{xp}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"UniPoly({self.to_text()})"


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _conv(a, b):
    """Product of two coefficient lists (length len(a) + len(b) - 1) over Z,
    or over any ring whose elements add to int 0, such as a number field."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _power(x, n, one, mul=operator.mul):
    """x^n for n >= 0 by binary powering (Knuth, TAOCP vol. 2, 4.6.3): the
    bits of n from the lowest, result = mul(result, x) at a set bit and
    x = mul(x, x) between bits.  mul defaults to the `*` of x's ring."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def _int_divide(a, b):
    """The quotient a / b of trimmed integer lists if it lies in Z[x], else None."""
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + len(b) - 1], b[-1])
        if rem:
            return None
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    return None if any(r[:len(b) - 1]) else q


def _field_divmod(a, b):
    """Quotient and remainder, trimmed, of coefficient lists over a field
    (Fraction or NFElem entries; b trimmed and nonzero).  The lead of b is
    inverted once; quotient terms that vanish stay int 0."""
    inv = 1 / b[-1]
    shift = len(b) - 1
    q = [0] * max(0, len(a) - shift)
    r = list(a)
    for i in range(len(r) - 1, shift - 1, -1):
        if r[i] != 0:
            f = q[i - shift] = r[i] * inv
            for j, c in enumerate(b):
                r[i - shift + j] -= f * c
    return _trim(q), _trim(r)


def _field_gcd(a, b):
    """Monic gcd of two coefficient lists over a field ([] if both are 0)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _field_divmod(a, b)[1]
    if not a:
        return a
    inv = 1 / a[-1]
    return [c * inv for c in a]


def _primitive(a):
    """a divided by its content, with a positive lead ([] stays [])."""
    if not a:
        return []
    g = math.gcd(*a)
    return [c // (g if a[-1] > 0 else -g) for c in a]


def _prem(a, b):
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) a mod b of trimmed
    integer lists, deg a >= deg b >= 1, trimmed."""
    r, lb, nb = list(a), b[-1], len(b) - 1
    for top in range(len(a) - 1, nb - 1, -1):
        # r <- lb r - r_top x^(top - nb) b, whose top term cancels
        c = r.pop()
        r = [x * lb for x in r]
        for j in range(nb):
            r[top - nb + j] -= c * b[j]
    return _trim(r)


def _subresultants(a, b):
    """(Res(a, b), primitive gcd with positive lead) of trimmed primitive
    integer lists, from one subresultant remainder sequence (Cohen, A Course
    in Computational Algebraic Number Theory, Algorithms 3.3.1 and 3.3.7):
    each pseudo-remainder is divided exactly by g h^delta."""
    # Res(b, a) = (-1)^(deg a deg b) Res(a, b)
    s = -1 if len(a) < len(b) and len(a) % 2 == len(b) % 2 == 0 else 1
    if len(a) < len(b):
        a, b = b, a
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == len(b) % 2 == 0:  # both degrees odd
            s = -s
        r = _prem(a, b)
        if not r:
            return 0, _primitive(b)
        q = g * h ** delta
        a, b = b, [c // q for c in r]
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
    # h is 1 while deg a is 0
    return s * b[-1] ** (len(a) - 1) // h ** max(len(a) - 2, 0), [1]


def _int_gcd(a, b):
    """Primitive gcd, with positive lead, of two trimmed integer lists."""
    a, b = _primitive(a), _primitive(b)
    if not a or not b:
        return a or b
    return _subresultants(a, b)[1]


def resultant(a, b, m, n):
    """Res(a, b) of integer coefficient lists, low to high, in the Sylvester
    convention for formal degrees m >= deg a and n >= deg b, both >= 1: the
    resultant of two binary forms, whose leading coefficients may vanish."""
    a, b = _trim(list(a)), _trim(list(b))
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0 or (da < m and db < n):
        return 0
    # expand the Sylvester matrix along the columns where one lead is left
    if da < m:
        scale = (-1) ** (n * (m - da)) * b[-1] ** (m - da)
    else:
        scale = a[-1] ** (n - db)
    pa, pb = _primitive(a), _primitive(b)
    ca, cb = a[-1] // pa[-1], b[-1] // pb[-1]
    return scale * ca ** db * cb ** da * _subresultants(pa, pb)[0]
