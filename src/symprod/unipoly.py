"""Univariate polynomials over Q with exact arithmetic.

Coefficients are `fractions.Fraction` throughout; a polynomial is an immutable
coefficient tuple indexed by degree.  The zero polynomial has degree -1.

The gcd works on integer coefficient lists (low to high): `_int_divide`
divides exactly over Z, and `_int_gcd` is the primitive polynomial remainder
sequence.  By Gauss's lemma a primitive divisor of an integer polynomial
leaves an integer quotient, so the factoring code in `polyfactor` never
needs fractions.

Four kernels here serve every coefficient ring of the package:
* `_conv`, the coefficient-list product: `UniPoly.__mul__`, `NFElem.__mul__`,
  `symmetric.eta_coords`, the Z/p[x] and Z[x] products of `polyfactor`, and
  the form products of `projective` and `dynamics`;
* `_power`, binary powering: `UniPoly`, `NFElem` and `MPoly` powers,
  `gf.FiniteField.pow` and `polyfactor._ppowmod`;
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
        """Monic gcd over Q, computed by a primitive PRS over Z."""
        g = _int_gcd(self.primitive_int_coeffs(), other.primitive_int_coeffs())
        return UniPoly.from_int_list(g).monic() if g else UniPoly.zero()

    def squarefree_part(self) -> "UniPoly":
        if self.degree <= 0:
            return UniPoly.one()
        g = self.gcd(self.derivative())
        return (self // g).monic()

    def is_squarefree(self) -> bool:
        return self.degree <= 0 or self.gcd(self.derivative()).degree == 0

    def resultant(self, other: "UniPoly"):
        """Res(self, other) with the true (degree-based) Sylvester convention."""
        return sylvester_resultant(list(self.coeffs), list(other.coeffs))

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


def _int_gcd(a, b):
    """Primitive gcd, with positive lead, of two trimmed integer lists."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, lb = list(a), b[-1]
        while len(r) >= len(b):
            # r <- (lb/g) r - (r_lead/g) x^shift b: a pseudo-remainder step
            g = math.gcd(lb, r[-1])
            u, v, shift = lb // g, r[-1] // g, len(r) - len(b)
            r = [c * u for c in r]
            for j, bj in enumerate(b):
                r[shift + j] -= v * bj
            _trim(r)
        a, b = b, _primitive(r)
    return a


def sylvester_resultant(a, b, m=None, n=None):
    """Resultant via fraction-free (Bareiss) elimination of the Sylvester
    matrix of coefficient lists a and b, low-to-high.  Explicit formal
    degrees m, n serve binary forms whose leading coefficients vanish."""
    from .linalg import det_bareiss

    if m is None:
        m = len(a) - 1
    if n is None:
        n = len(b) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    a = list(a) + [0] * (m + 1 - len(a))
    b = list(b) + [0] * (n + 1 - len(b))
    # n rows of a, then m rows of b, each from its top coefficient down
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    den = 1
    for r in rows:
        den = math.lcm(den, *(Fraction(c).denominator for c in r))
    int_rows = [[int(Fraction(c) * den) for c in r] for r in rows]
    d = det_bareiss(int_rows)
    return Fraction(d, den ** (m + n))
