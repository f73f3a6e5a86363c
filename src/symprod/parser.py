"""Parsing of map and point expressions.

Grammar: rational constants, + - * / ^, parentheses, and variables.  An
affine map is a polynomial in one variable (``x^2 - 29/16``); a homogeneous
map is a bracketed pair of forms in z and t (``[16*z^2-29*t^2, 16*t^2]``).
Division is only allowed by nonzero constants, which is exactly what rational
coefficients need.  Exponents and degrees above DEFAULT_BUDGET are refused
before anything is expanded.  No coefficient of any subexpression may be
longer than a typed numeral: a power whose coefficients could be is refused
before it is expanded, and a sum, product or quotient that is, right after
it is formed.  Errors carry the offending position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_BUDGET, BudgetExceededError, DomainError, ParseError
from .mpoly import MPoly
from .projective import PkPoint, RationalMap1
from .unipoly import UniPoly


@dataclass(frozen=True)
class Token:
    kind: str   # num, name, op, end
    value: str
    pos: int


def _tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^(),[]":
            toks.append(Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(Token("end", "", n))
    return toks


class _Parser:
    """Recursive descent over + - * / ^ with unary minus."""

    def __init__(self, text: str, names: list[str]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.names = list(names)
        self.nvars = len(names)

    def peek(self) -> Token:
        return self.toks[self.i]

    def take(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str) -> Token:
        t = self.take()
        if t.value != value:
            raise ParseError(f"expected {value!r}, found {t.value!r}", t.pos)
        return t

    def parse_expr(self) -> MPoly:
        t = self.peek()
        if t.kind == "op" and t.value in "+-":
            self.take()
            term = self.parse_term()
            acc = term if t.value == "+" else -term
        else:
            acc = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.value in "+-":
                self.take()
                term = self.parse_term()
                acc = _sized(acc + term if t.value == "+" else acc - term, t.pos)
            else:
                return acc

    def parse_term(self) -> MPoly:
        acc = self.parse_power()
        while True:
            t = self.peek()
            if t.kind == "op" and t.value == "*":
                self.take()
                rhs = self.parse_power()
                _check_budget("degree", acc.total_degree() + rhs.total_degree(),
                              t.pos)
                acc = _sized(acc * rhs, t.pos)
            elif t.kind == "op" and t.value == "/":
                self.take()
                divisor = self.parse_power()
                const = divisor.terms.get((0,) * self.nvars)
                if len(divisor.terms) != 1 or const is None or const == 0:
                    raise ParseError("division is only allowed by a nonzero constant",
                                     t.pos)
                acc = _sized(acc * (1 / const), t.pos)
            else:
                return acc

    def parse_power(self) -> MPoly:
        base = self.parse_atom()
        t = self.peek()
        if t.kind == "op" and t.value == "^":
            self.take()
            e = self.take()
            if e.kind != "num":
                raise ParseError("exponent must be a nonnegative integer", e.pos)
            n = _numeral(e)
            _check_budget("exponent", n, e.pos)
            _check_budget("degree", base.total_degree() * n, e.pos)
            _check_power_size(base, n, e.pos)
            return base ** n
        return base

    def parse_atom(self) -> MPoly:
        t = self.take()
        if t.kind == "num":
            return MPoly.constant(self.nvars, _numeral(t))
        if t.kind == "name":
            if t.value not in self.names:
                raise ParseError(f"unknown variable {t.value!r}", t.pos)
            return MPoly.variable(self.nvars, self.names.index(t.value))
        if t.kind == "op" and t.value == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if t.kind == "op" and t.value == "-":
            return -self.parse_atom()
        raise ParseError(f"unexpected token {t.value!r}", t.pos)

    def at_end(self) -> bool:
        return self.peek().kind == "end"


# CPython's default int/str conversion limit.  The CLI lifts that limit so
# that it can print long results; inputs keep it.
_MAX_DIGITS = 4300
_MAX_BITS = math.ceil(_MAX_DIGITS * math.log2(10))


def _numeral(t: Token) -> int:
    if len(t.value) > _MAX_DIGITS:
        raise ParseError(f"numeral of {len(t.value)} digits is longer than "
                         f"{_MAX_DIGITS}", t.pos)
    return int(t.value)


def _sized(poly: MPoly, pos: int) -> MPoly:
    """poly, unless a numerator or denominator is longer than a typed numeral
    may be (more than _MAX_BITS bits, as 10^_MAX_DIGITS <= 2^_MAX_BITS)."""
    for c in poly.terms.values():
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > _MAX_BITS:
            raise BudgetExceededError(
                f"coefficient has more than {_MAX_DIGITS} digits "
                f"(at position {pos})")
    return poly


def _check_power_size(base: MPoly, n: int, pos: int):
    """Refuse base^n, before expanding it, unless its coefficients surely fit
    _sized.  Write base = N/D with D the lcm of its denominators: every
    coefficient of base^n has a numerator at most |N|_1^n and a denominator
    dividing D^n.  For a single term c = a/b the bound is |a|^n or b^n
    itself, so exactly the powers too long for _sized are refused."""
    den = math.lcm(*(c.denominator for c in base.terms.values()))
    norm = sum(abs(c.numerator) * (den // c.denominator)
               for c in base.terms.values())
    if n * math.log2(max(norm, den)) >= _MAX_BITS:
        raise BudgetExceededError(
            f"power may have more than {_MAX_DIGITS} digits (at position {pos})")


def _check_budget(what: str, value: int, pos: int):
    if value > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"{what} {value} exceeds the budget {DEFAULT_BUDGET} "
            f"(at position {pos})")


def parse_mpoly(text: str, names) -> MPoly:
    p = _Parser(text, list(names))
    out = p.parse_expr()
    if not p.at_end():
        t = p.peek()
        raise ParseError(f"trailing input {t.value!r}", t.pos)
    return out


def _used_names(text: str):
    return [t.value for t in _tokenize(text) if t.kind == "name"]


@dataclass(frozen=True)
class MapExpression:
    source: str
    kind: str            # "affine" or "homogeneous"
    map: RationalMap1
    variable: str        # the affine variable, or "z" for pairs

    def to_text(self) -> str:
        if self.kind == "affine":
            d = self.map.d
            poly = UniPoly(tuple(Fraction(self.map.num[d - i], self.map.den[d])
                                 for i in range(d + 1)))
            return poly.to_text(self.variable)
        return self.map.to_text()


def parse_map(text: str) -> MapExpression:
    """Parse an affine polynomial or homogeneous pair into a rational map.

    Degree < 2 inputs are refused (not a dynamical system of interest), as are
    pairs with vanishing resultant."""
    s = text.strip()
    if s.startswith("["):
        body = s[1:]
        if not body.rstrip().endswith("]"):
            raise ParseError("unterminated '['", len(text) - 1)
        body = body.rstrip()[:-1]
        depth = 0
        split = None
        for i, c in enumerate(body):
            if c in "([":
                depth += 1
            elif c in ")]":
                depth -= 1
            elif c == "," and depth == 0:
                split = i
                break
        if split is None:
            raise ParseError("homogeneous map needs two comma-separated forms", 1)
        num = parse_mpoly(body[:split], ["z", "t"])
        den = parse_mpoly(body[split + 1:], ["z", "t"])
        for poly, label in ((num, "numerator"), (den, "denominator")):
            if poly.is_zero() or not poly.is_homogeneous():
                raise DomainError(f"{label} must be a nonzero homogeneous form")
        d = num.total_degree()
        if den.total_degree() != d:
            raise DomainError("the two forms must have equal degree")
        if d < 2:
            raise DomainError(f"degree {d} map refused: degree must be at least 2")
        ncs = [num.terms.get((d - j, j), Fraction(0)) for j in range(d + 1)]
        dcs = [den.terms.get((d - j, j), Fraction(0)) for j in range(d + 1)]
        return MapExpression(source=text, kind="homogeneous",
                             map=RationalMap1(ncs, dcs), variable="z")
    names = sorted(set(_used_names(s)))
    if len(names) > 1:
        raise ParseError(f"affine map must use one variable, found {names}", 0)
    var = names[0] if names else "x"
    poly_m = parse_mpoly(s, [var])
    coeffs = [Fraction(0)] * (poly_m.total_degree() + 1)
    for e, c in poly_m.terms.items():
        coeffs[e[0]] = c
    poly = UniPoly(tuple(coeffs))
    if poly.degree < 2:
        raise DomainError(
            f"degree {max(poly.degree, 0)} map refused: degree must be at least 2")
    return MapExpression(source=text, kind="affine",
                         map=RationalMap1.from_affine_polynomial(poly),
                         variable=var)


def parse_point(text: str) -> PkPoint:
    """Parse a point: a rational (affine on P^1), 'oo', or a coordinate tuple
    in brackets or parentheses."""
    s = text.strip()
    if s in ("oo", "inf", "infinity"):
        return PkPoint((1, 0))
    if s.startswith("[") or s.startswith("("):
        close = "]" if s.startswith("[") else ")"
        if not s.endswith(close):
            raise ParseError(f"unterminated {s[0]!r}", 0)
        parts = s[1:-1].split(",")
        vals = []
        for part in parts:
            poly = parse_mpoly(part, [])
            vals.append(poly.terms.get((), Fraction(0)))
        if len(vals) < 2:
            raise ParseError("a point needs at least two coordinates", 0)
        return PkPoint(vals)
    poly = parse_mpoly(s, [])
    q = poly.terms.get((), Fraction(0))
    return PkPoint((q.numerator, q.denominator))
