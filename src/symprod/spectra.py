"""Multiplier spectra and postcritical-finiteness certificates.

Multipliers of cycles are computed by the chain rule in affine charts (with
the coordinate flip when a cycle passes through infinity).  The spectrum of
a symmetric-product cycle comes from its base points, never from F: Galois
conjugation commutes with f and fixes the point, so the charpoly is a
product of pieces chi(x^l)^m counted per f^n-cycle (see multiplier_F), and
each base orbit's data is computed once, in f's store (dynamics.recorded).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import DomainError
from .numberfield import minimal_polynomial
from .polyfactor import factor_unipoly
from .projective import (AlgebraicPoint, PkPoint, RationalMap1,
                         zero_form_to_point_form)
from .symmetric import conjugate_points, decompose_form
from .unipoly import UniPoly
from .dynamics import orbit_classify, recorded


def _local_derivative(f: RationalMap1, src: AlgebraicPoint, dst: AlgebraicPoint):
    """Derivative of f written from the canonical chart at src to the one at
    dst (w = t/z at infinity), evaluated at src; exact in the field of src."""
    if src.infinity:
        num, den, u = UniPoly(f.num), UniPoly(f.den), Fraction(0)
    else:
        num, den, u = f.affine_num(), f.affine_den(), src.value
    if dst.infinity:
        num, den = den, num
    nv, dv = num(u), den(u)
    npv, dpv = num.derivative()(u), den.derivative()(u)
    if dv == 0:
        raise DomainError("image leaves the chart; chart bookkeeping broken")
    return (npv * dv - nv * dpv) / (dv * dv)


def _image(f: RationalMap1, pt: AlgebraicPoint, n: int = 1) -> AlgebraicPoint:
    for _ in range(n):
        pt = recorded(f, ("image", pt), lambda: f.apply_algebraic(pt))
    return pt


def _cycle(f: RationalMap1, pt: AlgebraicPoint):
    """(exact period, multiplier) of a periodic point; the walk to the
    period ends only if pt is periodic, so callers check that first."""
    def walk():
        orbit = [pt]
        while (nxt := _image(f, orbit[-1])) != pt:
            orbit.append(nxt)
        return len(orbit), prod(_local_derivative(f, a, _image(f, a))
                                for a in orbit)
    return recorded(f, ("cycle", pt), walk)


def _galois_orbit(f: RationalMap1, pt: AlgebraicPoint):
    """pt's Galois orbit as a key: pt if rational, else its minimal
    polynomial."""
    if pt.field is None:
        return pt
    return recorded(f, ("minpoly", pt), pt.minimal_polynomial)


def multiplier_f(f: RationalMap1, point, n: int):
    """Multiplier (f^n)'(P) of a point of exact-or-dividing period n, computed
    along the cycle; exact in the point's field of definition."""
    if isinstance(point, PkPoint):
        point = AlgebraicPoint.from_p1(point)
    if not isinstance(point, AlgebraicPoint):
        point = AlgebraicPoint.rational(point)
    if n < 1:
        raise DomainError("period must be at least 1")
    if _image(f, point, n) != point:
        raise DomainError(f"point is not periodic of period {n}")
    per, lam = _cycle(f, point)
    return lam ** (n // per)


def _piece(f: RationalMap1, chi: UniPoly, l: int) -> UniPoly:
    """chi(x^l), recorded on f."""
    return recorded(f, ("piece", chi, l),
                     lambda: chi.compose(UniPoly((0,) * l + (1,))))


@dataclass(frozen=True)
class MultiplierReport:
    point: PkPoint
    period: int
    base_multipliers: tuple   # (AlgebraicPoint, base period, multiplier)
    charpoly: UniPoly
    pieces: tuple             # (chi, l, m): charpoly = prod chi(x^l)^m
    f: RationalMap1

    def charpoly_factored(self) -> str:
        """The factorization of the charpoly, merged from those of its
        pieces (each factored once per map)."""
        content, facs = Fraction(1), {}
        for chi, l, m in self.pieces:
            c, gs = recorded(self.f, ("factors", chi, l),
                              lambda: factor_unipoly(_piece(self.f, chi, l)))
            content *= c ** m
            for g, a in gs:
                facs[g] = facs.get(g, 0) + a * m
        parts = [] if content == 1 else [str(content)]
        for g in sorted(facs, key=lambda g: (g.degree, g.coeffs)):
            body = f"({g.to_text()})"
            parts.append(body if facs[g] == 1 else f"{body}^{facs[g]}")
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


def multiplier_F(f: RationalMap1, k: int, p: PkPoint, n: int) -> MultiplierReport:
    """Multiplier data of a point P of the k-symmetric product with
    F^n(P) = P: the characteristic polynomial of DF^n at P, and the
    multipliers of the base points in the conjugate decomposition.

    All of it comes from f, once per base orbit (recorded on f).  A base
    point of P with period r and multiplier lam lies on an f^n-cycle of
    length l = r / gcd(r, n) with multiplier mu = lam^(n / gcd(r, n)); held
    e times in P (Sym^e in local coordinates), that cycle gives DF^n the
    factor prod_(j<=e) (x^l - mu^j).  Galois conjugation commutes with f and
    fixes P, so it permutes these cycles and maps mu to its conjugates: a
    Galois orbit of D points adds D / deg chi to the count c of the pair
    (l, chi = minpoly(mu^j)), each cycle is counted once per point, so l
    divides c, and the charpoly is prod chi(x^l)^(c / l)."""
    if n < 1:
        raise DomainError("period must be at least 1")
    if p.k != k:
        raise DomainError(f"expected a point of P^{k}, got one of P^{p.k}")
    entries = conjugate_points(p)
    # F^n fixes P iff f^n permutes its Galois orbits and keeps their
    # multiplicities; n record steps per entry
    have = {_galois_orbit(f, pt): mult for _field, pt, mult in entries}
    if {_galois_orbit(f, _image(f, pt, n)): mult
            for _field, pt, mult in entries} != have:
        raise DomainError(f"point is not periodic of period {n}")
    base, counts = [], {}
    for field, pt, mult in entries:
        per, lam = _cycle(f, pt)
        g = gcd(per, n)
        l, step = per // g, n // g
        size = field.degree if field else 1
        for power in range(step, step * mult + 1, step):
            chi = recorded(f, ("power", pt, power),
                            lambda: minimal_polynomial(lam ** power))
            counts[l, chi] = counts.get((l, chi), 0) + size // chi.degree
        base.extend([(pt, per, lam)] * mult)
    pieces = tuple(sorted(((chi, l, c // l) for (l, chi), c in counts.items()),
                          key=lambda q: (q[1], q[0].degree, q[0].coeffs)))
    cp = recorded(f, ("charpoly", pieces), lambda: prod(
        (_piece(f, chi, l) ** m for chi, l, m in pieces), start=UniPoly.one()))
    return MultiplierReport(point=p, period=n, base_multipliers=tuple(base),
                            charpoly=cp, pieces=pieces, f=f)


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
