"""Projective points, binary forms, and the two kinds of self-maps.

Conventions (all sign bookkeeping lives here):
  * PkPoint: coprime integer coordinates, first nonzero coordinate positive.
  * BinaryForm of degree k: coefficients c_j of X^(k-j) Y^j, coprime integers,
    first nonzero coefficient positive.
  * The form attached to a point multiset {[z_l : t_l]} is prod(z_l X + t_l Y),
    so its coefficient vector literally equals the eta coordinates of the
    multiset; a linear factor (a X + b Y) encodes the point (a : b).
  * A form whose *zeros* are the points of interest (fixed-point forms,
    Wronskians, pullbacks) is converted by zero_form_to_point_form, which is
    the substitution (z, t) -> (-Y, X).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateMapError, DomainError
from .mpoly import MPoly, joint_primitive
from .numberfield import NFElem, NumberField, minimal_polynomial
from .polyfactor import _factor_primitive
from .unipoly import UniPoly, _conv, resultant


def _normalize_int_vector(vals):
    """Clear denominators, strip the gcd, make the first nonzero entry positive."""
    ints = list(vals)
    if not all(type(v) is int for v in ints):
        fr = [Fraction(v) for v in ints]
        den = math.lcm(*(v.denominator for v in fr))
        ints = [v.numerator * (den // v.denominator) for v in fr]
    g = math.gcd(*ints)
    if g == 0:
        raise DomainError("all coordinates are zero")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


class PkPoint:
    """A point of P^k(Q) in canonical coprime-integer coordinates.

    The irreducible factorization of the point's form is kept in a slot
    once known (see factors); it takes no part in equality or hashing."""

    __slots__ = ("coords", "_factors")

    def __init__(self, coords):
        object.__setattr__(self, "coords", _normalize_int_vector(coords))

    def __setattr__(self, *a):
        raise AttributeError("PkPoint is immutable")

    @property
    def k(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other):
        return isinstance(other, PkPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"({', '.join(str(c) for c in self.coords)})"

    def __lt__(self, other):
        return self.coords < other.coords

    def factors(self):
        """The (irreducible BinaryForm, multiplicity) pairs of
        form_of_point(self).factor(), in no fixed order: carried when the
        point was built from known factors (point_of_factors), else
        computed on first use and kept."""
        try:
            return self._factors
        except AttributeError:
            facs = tuple(form_of_point(self).factor())
            object.__setattr__(self, "_factors", facs)
            return facs


def p1_point(a, b=None) -> PkPoint:
    """P^1 point from an affine rational (b omitted) or a coordinate pair."""
    if b is None:
        a = Fraction(a)
        return PkPoint((a.numerator, a.denominator))
    return PkPoint((a, b))


P1_INFINITY = p1_point(1, 0)


class BinaryForm:
    """A nonzero homogeneous two-variable polynomial over Q, canonically scaled."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _normalize_int_vector(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("BinaryForm is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, BinaryForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("binform", self.coeffs))

    def to_text(self, x="X", y="Y") -> str:
        n = self.degree
        poly = MPoly(2, {(n - j, j): Fraction(c)
                         for j, c in enumerate(self.coeffs) if c})
        return poly.to_text([x, y])

    def __repr__(self):
        return f"BinaryForm({self.to_text()})"

    def factor(self):
        """Irreducible factorization over Q: list of (BinaryForm, multiplicity).

        Factors of X and Y come from vanishing end coefficients; the middle is
        the factorization of the dehomogenization.
        """
        cs = self.coeffs
        k = self.degree
        a = 0
        while cs[a] == 0:
            a += 1
        b = 0
        while cs[k - b] == 0:
            b += 1
        out = []
        if b:
            out.append((BinaryForm((1, 0)), b))   # X^b
        if a:
            out.append((BinaryForm((0, 1)), a))   # Y^a
        mid = cs[a: k - b + 1]  # primitive, first entry positive
        e = len(mid) - 1
        if e >= 1:
            # u(T) = h(T, 1), low to high, factored on integers
            for w, m in _factor_primitive(list(reversed(mid))):
                out.append((BinaryForm(w[::-1]), m))
        elif e == 0 and not out:
            raise DomainError("constant form has no factorization")
        return out


def form_of_point(p: PkPoint) -> BinaryForm:
    """The degree-k form whose coefficient vector is the point's coordinates."""
    return BinaryForm(p.coords)


def point_of_form(g: BinaryForm) -> PkPoint:
    return PkPoint(g.coeffs)


def point_of_factors(factors) -> PkPoint:
    """The point whose form is prod g^m over distinct irreducible (g, m),
    carrying that factorization."""
    prod = [1]
    for g, m in factors:
        for _ in range(m):
            prod = _conv(prod, g.coeffs)
    p = PkPoint(prod)
    object.__setattr__(p, "_factors", tuple(factors))
    return p


def zero_form_to_point_form(g: BinaryForm) -> BinaryForm:
    """Convert a form vanishing at points (z0 : t0) into the form that encodes
    those points as roots under the (a X + b Y) <-> (a : b) convention."""
    n = g.degree
    v = g.coeffs
    return BinaryForm(tuple((-1) ** i * v[n - i] for i in range(n + 1)))


def minpoly_of_factor(g: BinaryForm) -> UniPoly:
    """Monic minimal polynomial of the points encoded by an irreducible factor
    of degree >= 2 (all encoded points are then finite conjugates)."""
    e = g.degree
    cs = g.coeffs
    if cs[e] == 0:
        raise DomainError("factor encodes the point at infinity")
    return UniPoly(tuple(Fraction((-1) ** (e - i) * cs[i], cs[e])
                         for i in range(e + 1)))


class AlgebraicPoint:
    """A point of P^1 with coordinates in Q or in a number field."""

    __slots__ = ("field", "value", "infinity", "_hash", "_minpoly")

    def __init__(self, field: NumberField | None, value, infinity: bool = False):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "infinity", bool(infinity))
        if infinity:
            object.__setattr__(self, "value", None)
        elif field is None:
            object.__setattr__(self, "value", Fraction(value))
        else:
            if not isinstance(value, NFElem) or value.field != field:
                raise DomainError("value must be an element of the given field")
            object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraicPoint is immutable")

    @staticmethod
    def at_infinity() -> "AlgebraicPoint":
        return AlgebraicPoint(None, None, infinity=True)

    @staticmethod
    def rational(q) -> "AlgebraicPoint":
        return AlgebraicPoint(None, Fraction(q))

    @staticmethod
    def of_element(e: NFElem) -> "AlgebraicPoint":
        if e.is_rational():
            return AlgebraicPoint.rational(e.as_rational())
        return AlgebraicPoint(e.field, e)

    @staticmethod
    def from_p1(p: PkPoint) -> "AlgebraicPoint":
        if p.coords[1] == 0:
            return AlgebraicPoint.at_infinity()
        return AlgebraicPoint.rational(Fraction(p.coords[0], p.coords[1]))

    def minimal_polynomial(self) -> UniPoly:
        """The monic minimal polynomial of the value over Q, computed on
        first use and kept (it takes no part in equality or hashing)."""
        if self.infinity:
            raise DomainError("the point at infinity has no affine minimal polynomial")
        try:
            return self._minpoly
        except AttributeError:
            m = minimal_polynomial(self.value)
            object.__setattr__(self, "_minpoly", m)
            return m

    def __eq__(self, other):
        if not isinstance(other, AlgebraicPoint):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity == other.infinity
        if (self.field is None) != (other.field is None):
            return False
        return self.value == other.value

    def __hash__(self):
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash", hash("oo" if self.infinity
                                                   else self.value))
        return self._hash

    def to_text(self, var: str = "a") -> str:
        if self.infinity:
            return "oo"
        if self.field is None:
            return str(self.value)
        return self.value.to_text(var)

    def __repr__(self):
        return f"AlgebraicPoint({self.to_text()})"


class RationalMap1:
    """A self-map of P^1 given by a coprime pair of degree-d binary forms.

    _orbits is the map's one store of what dynamics and spectra derive from
    it (dynatomic parts, pullbacks, orbit decompositions, multipliers), so
    that each is computed once per map and freed with it; it is read and
    written only through dynamics.recorded, whose docstring lists its keys."""

    __slots__ = ("num", "den", "d", "res", "_orbits")

    def __init__(self, num_coeffs, den_coeffs):
        num, den = list(num_coeffs), list(den_coeffs)
        if len(num) != len(den):
            raise DomainError("numerator and denominator must have equal formal degree")
        d = len(num) - 1
        if d < 1:
            raise DomainError("map degree must be at least 1")
        try:
            ints = _normalize_int_vector(num + den)
        except DomainError:
            raise DegenerateMapError("zero map") from None
        object.__setattr__(self, "num", tuple(ints[: d + 1]))
        object.__setattr__(self, "den", tuple(ints[d + 1:]))
        object.__setattr__(self, "d", d)
        if any(self.den[:-1]):
            res = resultant(self.num, self.den, d, d)
        else:
            # Res(P, c t^d) = (-1)^d c^d P(1, 0)^d, the Sylvester sign included
            res = (-self.den[-1] * self.num[0]) ** d
        if res == 0:
            raise DegenerateMapError(
                "resultant vanishes: the pair does not define a morphism")
        object.__setattr__(self, "res", res)
        object.__setattr__(self, "_orbits", {})

    def __setattr__(self, *a):
        raise AttributeError("RationalMap1 is immutable")

    @staticmethod
    def from_affine_polynomial(poly: UniPoly) -> "RationalMap1":
        """Homogenize an affine polynomial x -> p(x) of degree d to [P : t^d]."""
        d = poly.degree
        if d < 1:
            raise DomainError("affine polynomial must have degree >= 1")
        num = [poly.coeff(d - j) for j in range(d + 1)]  # coeff of z^(d-j) t^j
        den = [Fraction(0)] * d + [Fraction(1)]
        return RationalMap1(num, den)

    def __eq__(self, other):
        return (isinstance(other, RationalMap1) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def key(self):
        return (self.num, self.den)

    # affine views: P(x, 1) and Q(x, 1)
    def affine_num(self) -> UniPoly:
        return UniPoly(tuple(reversed(self.num)))

    def affine_den(self) -> UniPoly:
        return UniPoly(tuple(reversed(self.den)))

    def eval_pair(self, z, t):
        """Exact evaluation of the lift at a coordinate pair (any ring), by
        Horner in z: about 2d products in z's ring when t is 1."""
        num, den, tp = self.num[0], self.den[0], 1
        for a, b in zip(self.num[1:], self.den[1:]):
            tp = tp * t
            num = num * z + a * tp
            den = den * z + b * tp
        return num, den

    def apply_point(self, p: PkPoint) -> PkPoint:
        if p.k != 1:
            raise DomainError("expected a point of P^1")
        n, d = self.eval_pair(p.coords[0], p.coords[1])
        return PkPoint((n, d))

    def apply_algebraic(self, pt: AlgebraicPoint) -> AlgebraicPoint:
        if pt.infinity:
            n, d = self.num[0], self.den[0]  # values of the lift at (1, 0)
            if d == 0:
                return AlgebraicPoint.at_infinity()
            return AlgebraicPoint.rational(Fraction(n, d))
        z = pt.value
        n, d = self.eval_pair(z, 1)
        if pt.field is None:
            if d == 0:
                return AlgebraicPoint.at_infinity()
            return AlgebraicPoint.rational(Fraction(n, d))
        if d.is_zero():
            return AlgebraicPoint.at_infinity()
        return AlgebraicPoint.of_element(n / d)

    def wronskian(self) -> BinaryForm:
        """The critical form dP/dz * dQ/dt - dP/dt * dQ/dz, of degree 2d - 2."""
        d = self.d
        pz = [self.num[j] * (d - j) for j in range(d)]
        pt = [self.num[j + 1] * (j + 1) for j in range(d)]
        qz = [self.den[j] * (d - j) for j in range(d)]
        qt = [self.den[j + 1] * (j + 1) for j in range(d)]
        w = [x - y for x, y in zip(_conv(pz, qt), _conv(pt, qz))]
        if all(c == 0 for c in w):
            raise DegenerateMapError("identically vanishing Wronskian")
        return BinaryForm(w)

    def to_text(self) -> str:
        n = MPoly(2, {(self.d - j, j): Fraction(c)
                      for j, c in enumerate(self.num) if c})
        dd = MPoly(2, {(self.d - j, j): Fraction(c)
                       for j, c in enumerate(self.den) if c})
        return f"[{n.to_text(['z', 't'])}, {dd.to_text(['z', 't'])}]"

    def __repr__(self):
        return f"RationalMap1({self.to_text()})"


def _eval_plan(comps):
    """How every evaluation of a MorphismPk runs, built once per map:
    (powers, monomials, terms).  powers are the distinct (variable,
    exponent) pairs of its monomials; monomials the distinct monomials of
    all components, each as indices into powers in ascending variable
    order; terms, per component, its (integer coefficient, monomial index)
    pairs in the insertion order of components[j].terms.
    heights._green_arch sums a component's rounded terms in that order, so
    the order is part of every height's value."""
    powers, monomials = {}, {}
    terms = []
    for comp in comps:
        row = []
        for e, c in comp.terms.items():
            m = monomials.get(e)
            if m is None:
                m = monomials[e] = len(monomials)
            row.append((c.numerator, m))
        terms.append(tuple(row))
    mono = tuple(tuple(powers.setdefault((v, a), len(powers))
                       for v, a in enumerate(e) if a) for e in monomials)
    return tuple(powers), mono, tuple(terms)


class MorphismPk:
    """A self-map of P^k as k+1 integer-coefficient forms of common degree d,
    with the evaluation plan that apply, eval_int and the Green iterations
    share.  base is (f.key(), k) when the map is symmetrize(f, k), else
    None: f's coefficients, not f, so that symmetrize's cache keeps no
    map's orbit store alive.  It takes no part in equality or hashing."""

    __slots__ = ("k", "d", "components", "plan", "base")

    def __init__(self, components, expected_degree=None):
        comps = list(components)
        k = len(comps) - 1
        if k < 1:
            raise DomainError("need at least two components")
        degs = set()
        for c in comps:
            if c.nvars != k + 1:
                raise DomainError("component variable count must be k+1")
            if not c.is_homogeneous():
                raise DomainError("components must be homogeneous")
            if c.terms:
                degs.add(c.total_degree())
        if len(degs) != 1:
            raise DomainError("components must share one degree")
        d = degs.pop()
        if expected_degree is not None and d != expected_degree:
            raise DomainError("unexpected algebraic degree")
        comps = joint_primitive(comps)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "components", tuple(comps))
        object.__setattr__(self, "plan", _eval_plan(comps))
        object.__setattr__(self, "base", None)

    def __setattr__(self, *a):
        raise AttributeError("MorphismPk is immutable")

    def __eq__(self, other):
        return isinstance(other, MorphismPk) and self.components == other.components

    def __hash__(self):
        return hash(self.key())

    def key(self):
        return tuple(tuple(sorted(c.terms.items())) for c in self.components)

    def eval_int(self, coords) -> list[int]:
        """F at integer coordinates: each power and monomial once, then
        each component as one sum."""
        powers, monomials, terms = self.plan
        pw = [coords[v] ** a for v, a in powers]
        mono = [math.prod([pw[i] for i in m]) for m in monomials]
        return [sum([c * mono[m] for c, m in comp]) for comp in terms]

    def apply(self, p: PkPoint) -> PkPoint:
        if p.k != self.k:
            raise DomainError("dimension mismatch")
        vals = self.eval_int(p.coords)
        if all(v == 0 for v in vals):
            raise DomainError("all components vanish: morphism invariant violated")
        return PkPoint(vals)

    def to_text(self) -> str:
        return "[" + ", ".join(c.to_text() for c in self.components) + "]"

    def __repr__(self):
        return f"MorphismPk(k={self.k}, d={self.d}, {self.to_text()})"


def morphism_of_map(f: RationalMap1) -> MorphismPk:
    """View a P^1 map as a MorphismPk with k = 1 (shared height machinery):
    the 1-symmetric product of f, which is [P, Q] itself."""
    from .symmetric import symmetrize

    return symmetrize(f, 1)
