"""Sparse multivariate polynomials over Q.

Terms are stored as a map from exponent tuples to nonzero rational
coefficients.  The text form used by the CLI and golden files is a sum of
terms ``c*x0^a0*...*xk^ak`` with exact rational ``c``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .unipoly import _power

_rat = Fraction


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(exp) != nvars:
                        raise DomainError("exponent vector length mismatch")
                    clean[tuple(exp)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "MPoly":
        return MPoly(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, i: int) -> "MPoly":
        exp = [0] * nvars
        exp[i] = 1
        return MPoly(nvars, {tuple(exp): Fraction(1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms in the canonical order: exponent tuples lexicographically
        descending (so x0-heavy monomials print first)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise DomainError("variable count mismatch")
            return other
        return MPoly.constant(self.nvars, other)

    def __add__(self, other):
        o = self._coerce(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, _rat(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MPoly.zero(self.nvars)
            return MPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, _rat(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative power of a polynomial")
        return _power(self, n, MPoly.constant(self.nvars, 1))

    # -- substitution --------------------------------------------------------

    def substitute(self, polys) -> "MPoly":
        """Plug polynomials (all over a common variable set) into the variables."""
        if len(polys) != self.nvars:
            raise DomainError("wrong number of substitution polynomials")
        nv = polys[0].nvars
        out = MPoly.zero(nv)
        for e, c in self.terms.items():
            term = MPoly.constant(nv, c)
            for p, a in zip(polys, e):
                if a:
                    term = term * p ** a
            out = out + term
        return out

    # -- normalization ---------------------------------------------------------

    def content_den(self):
        """(gcd of numerators, lcm of denominators) over all coefficients."""
        if not self.terms:
            return 0, 1
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        num = math.gcd(*(abs(c.numerator) for c in self.terms.values()))
        return num, den

    # -- text -------------------------------------------------------------------

    def to_text(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, a in zip(names, e):
                if a == 1:
                    factors.append(name)
                elif a > 1:
                    factors.append(f"{name}^{a}")
            mag = abs(c)
            if factors:
                body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MPoly({self.to_text()})"


def joint_primitive(polys):
    """Scale a list of MPoly by one common rational so that all coefficients
    become coprime integers; the sign is fixed by making the canonically last
    coefficient of the last nonzero polynomial positive.

    Returns the scaled list.
    """
    nums = []
    dens = []
    for p in polys:
        n, d = p.content_den()
        if n:
            nums.append(n)
            dens.append(d)
    if not nums:
        return list(polys)
    scale = Fraction(math.lcm(*dens), math.gcd(*nums))
    scaled = list(polys) if scale == 1 else [p * scale for p in polys]
    for p in reversed(scaled):
        if p.terms:
            if min(p.sorted_terms(), key=lambda t: t[0])[1] < 0:
                scaled = [-q for q in scaled]
            break
    return scaled


def elementary_symmetric(nvars: int, i: int) -> MPoly:
    """e_i(z_1..z_n) as an MPoly."""
    from itertools import combinations

    if i == 0:
        return MPoly.constant(nvars, 1)
    terms = {}
    for combo in combinations(range(nvars), i):
        e = [0] * nvars
        for j in combo:
            e[j] = 1
        terms[tuple(e)] = Fraction(1)
    return MPoly(nvars, terms)
