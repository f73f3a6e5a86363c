"""Multiplier spectra and postcritical-finiteness certificates.

Multipliers of cycles are computed by the chain rule in affine charts (with
the coordinate flip when a cycle passes through infinity).  The spectrum of
a symmetric-product cycle is derived from the multipliers of the base
points it is made of, never from F itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import DomainError
from .numberfield import minimal_polynomial
from .polyfactor import factor_unipoly
from .projective import (AlgebraicPoint, BinaryForm, PkPoint, RationalMap1,
                         point_of_factors, zero_form_to_point_form)
from .symmetric import conjugate_points, decompose_form, eta_tilde
from .unipoly import UniPoly
from .dynamics import orbit_classify


def _chart(pt: AlgebraicPoint) -> int:
    return 1 if pt.infinity else 0


def _chart_coord(pt: AlgebraicPoint):
    if pt.infinity:
        return Fraction(0)  # w = t/z at infinity
    return pt.value


def _local_derivative(f: RationalMap1, src: AlgebraicPoint, dst: AlgebraicPoint):
    """Derivative of f written from the canonical chart at src to the one at
    dst, evaluated at src; exact in the field of src."""
    cin, cout = _chart(src), _chart(dst)
    if cin == 0:
        num, den = f.affine_num(), f.affine_den()
    else:
        num, den = f.flip_num(), f.flip_den()
    if cout == 1:
        num, den = den, num
    u = _chart_coord(src)
    nv, dv = num(u), den(u)
    npv, dpv = num.derivative()(u), den.derivative()(u)
    if (dv == 0) if not hasattr(dv, "is_zero") else dv.is_zero():
        raise DomainError("image leaves the chart; chart bookkeeping broken")
    return (npv * dv - nv * dpv) / (dv * dv)


def multiplier_f(f: RationalMap1, point, n: int):
    """Multiplier (f^n)'(P) of a point of exact-or-dividing period n, computed
    along the cycle; exact in the point's field of definition."""
    if isinstance(point, PkPoint):
        point = AlgebraicPoint.from_p1(point)
    if not isinstance(point, AlgebraicPoint):
        point = AlgebraicPoint.rational(point)
    if n < 1:
        raise DomainError("period must be at least 1")
    orbit = [point]
    for _ in range(n):
        orbit.append(f.apply_algebraic(orbit[-1]))
    if orbit[n] != point:
        raise DomainError(f"point is not periodic of period {n}")
    return prod(_local_derivative(f, a, b) for a, b in zip(orbit, orbit[1:]))


@dataclass(frozen=True)
class MultiplierReport:
    point: PkPoint
    period: int
    base_multipliers: tuple   # (AlgebraicPoint, base period, multiplier)
    charpoly: UniPoly

    def charpoly_factored(self) -> str:
        content, facs = factor_unipoly(self.charpoly)
        parts = []
        if content != 1:
            parts.append(str(content))
        for g, m in facs:
            body = f"({g.to_text()})"
            parts.append(body if m == 1 else f"{body}^{m}")
        return " * ".join(parts) if parts else "1"

    def to_json(self) -> dict:
        return {
            "schema_version": "2",
            "point": [str(c) for c in self.point.coords],
            "period": self.period,
            "base_multipliers": [
                {"point": pt.to_text("w"), "period": per,
                 "multiplier": lam.to_text("w") if hasattr(lam, "to_text") else str(lam)}
                for pt, per, lam in self.base_multipliers],
            "charpoly": self.charpoly.to_text(),
            "charpoly_factored": self.charpoly_factored(),
        }


def _exact_root(a: UniPoly, l: int) -> UniPoly:
    """The monic B with B^l == a, or DomainError if a has no such root.

    On reversed coefficients a monic a is a power series with constant term
    1, and b = a^(1/l) satisfies n b_n = sum_(j=1..n) ((1/l + 1) j - n)
    a_j b_(n-j) (Knuth, TAOCP vol. 2, 4.7); B is b cut at degree deg(a)/l,
    reversed, and checked."""
    rev = a.coeffs[::-1]
    b = [Fraction(1)]
    for n in range(1, a.degree // l + 1):
        s = sum(((l + 1) * j - l * n) * rev[j] * b[n - j]
                for j in range(1, n + 1))
        b.append(s / (l * n))
    root = UniPoly(b[::-1])
    if root ** l != a:
        raise DomainError(f"polynomial is not an exact {l}-th power")
    return root


def multiplier_F(f: RationalMap1, k: int, p: PkPoint, n: int) -> MultiplierReport:
    """Multiplier data of a point P of the k-symmetric product with
    F^n(P) = P: the characteristic polynomial of DF^n at P, and the
    multipliers of the base points in the conjugate decomposition.

    All of it comes from f.  A base point of P with period r and multiplier
    lam lies on an f^n-cycle of length l = r / gcd(r, n) with multiplier
    mu = lam^(n / gcd(r, n)); held e times in P (Sym^e in local
    coordinates), that cycle gives DF^n the factor prod_(j<=e) (x^l - mu^j).
    Over a Galois orbit of D points, prod_s (x^l - s(mu^j)) is chi(x^l) with
    chi = minpoly(mu^j)^(D / deg).  The product over all points counts each
    f^n-cycle once for each of its l points: grouped by l, it is an exact
    l-th power."""
    if n < 1:
        raise DomainError("period must be at least 1")
    if p.k != k:
        raise DomainError(f"expected a point of P^{k}, got one of P^{p.k}")
    entries = conjugate_points(p)
    orbits, image = [], []
    for field, pt, mult in entries:
        orbit = [pt]
        for _ in range(n):
            orbit.append(f.apply_algebraic(orbit[-1]))
        orbits.append(orbit)
        # f^n of pt's conjugates (a power of an irreducible form if f^n
        # lowers the degree: only the comparison below reads it)
        deg = field.degree if field else 1
        image.append((BinaryForm(eta_tilde(orbit[n], deg * mult).coords), 1))
    if point_of_factors(image) != p:
        raise DomainError(f"point is not periodic of period {n}")
    # f^n permutes the points of P, so each is periodic under f
    base = []
    groups = {}  # l -> product over the points whose f^n-cycles have length l
    for (field, pt, mult), orbit in zip(entries, orbits):
        while pt not in orbit[1:]:
            orbit.append(f.apply_algebraic(orbit[-1]))
        per = orbit.index(pt, 1)
        lam = prod(_local_derivative(f, a, b)
                   for a, b in zip(orbit[:per], orbit[1:per + 1]))
        g = gcd(per, n)
        l, mu = per // g, lam ** (n // g)
        acc = groups.get(l, UniPoly.one())
        for j in range(1, mult + 1):
            chi = minimal_polynomial(mu ** j)
            chi **= (field.degree if field else 1) // chi.degree
            acc = acc * chi.compose(UniPoly((0,) * l + (1,)))
        groups[l] = acc
        base.extend([(pt, per, lam)] * mult)
    cp = UniPoly.one()
    for l, acc in groups.items():
        cp = cp * _exact_root(acc, l)
    return MultiplierReport(point=p, period=n, base_multipliers=tuple(base),
                            charpoly=cp)


# ---------------------------------------------------------------------------
# critical points and postcritical finiteness
# ---------------------------------------------------------------------------


def critical_points(f: RationalMap1):
    """Critical points of f as (field | None, point, multiplicity); the total
    multiplicity is 2d - 2 (roots of the Wronskian form)."""
    W = f.wronskian()
    return decompose_form(zero_form_to_point_form(W))


@dataclass(frozen=True)
class PCFCertificate:
    verdict: str          # "PCF" or "not-PCF"
    entries: tuple        # (field | None, point, multiplicity, OrbitClassification)
    notes: tuple = ()

    @property
    def pcf(self) -> bool:
        return self.verdict == "PCF"

    def to_json(self) -> dict:
        return {
            "schema_version": "1",
            "verdict": self.verdict,
            "critical_orbits": [
                {"point": pt.to_text("w"),
                 "field": None if fld is None else fld.minpoly_int.to_text(),
                 "multiplicity": mult,
                 "classification": cls.to_json()}
                for fld, pt, mult, cls in self.entries],
            "notes": list(self.notes),
        }


def is_pcf(f: RationalMap1) -> PCFCertificate:
    """Classify every critical orbit; PCF iff all are preperiodic.  Each
    entry carries a machine-checkable certificate (exact repeat indices or a
    height-escape index)."""
    entries = []
    all_pre = True
    for field, pt, mult in critical_points(f):
        cls = orbit_classify(f, pt)
        entries.append((field, pt, mult, cls))
        all_pre = all_pre and cls.preperiodic
    return PCFCertificate(verdict="PCF" if all_pre else "not-PCF",
                          entries=tuple(entries))


def is_strongly_pcf_symmetric(f: RationalMap1, k: int) -> PCFCertificate:
    """Strong postcritical finiteness of the k-symmetric product.

    For symmetric products this is equivalent to postcritical finiteness of
    the base map, so the verdict is decided by is_pcf(f); the note records
    that the decision went through the base map."""
    if k < 1:
        raise DomainError("k must be at least 1")
    base = is_pcf(f)
    note = (f"strong postcritical finiteness of the {k}-symmetric product "
            "is decided through the base map")
    return PCFCertificate(verdict=base.verdict, entries=base.entries,
                          notes=(note,))
