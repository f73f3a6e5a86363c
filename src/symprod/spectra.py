"""Multiplier spectra and postcritical-finiteness certificates.

Multipliers of cycles are computed by the chain rule in affine charts (with
the coordinate flip when a cycle passes through infinity); the multiplier
matrix of a symmetric-product cycle is the product of exact per-step
Jacobians of the dehomogenized map, never a symbolic expansion of F^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .linalg import charpoly, mat_mul
from .polyfactor import factor_unipoly
from .projective import (AlgebraicPoint, MorphismPk, PkPoint, RationalMap1,
                         zero_form_to_point_form)
from .symmetric import conjugate_points, decompose_form, symmetrize
from .unipoly import UniPoly
from .dynamics import _return_time, orbit_classify


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
    lam = None
    for i in range(n):
        d = _local_derivative(f, orbit[i], orbit[i + 1])
        lam = d if lam is None else lam * d
    return lam


@dataclass(frozen=True)
class MultiplierReport:
    point: PkPoint
    period: int
    base_multipliers: tuple   # (AlgebraicPoint, base period, multiplier)
    matrix: tuple             # k x k of Fraction
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
            "schema_version": "1",
            "point": [str(c) for c in self.point.coords],
            "period": self.period,
            "base_multipliers": [
                {"point": pt.to_text("w"), "period": per,
                 "multiplier": lam.to_text("w") if hasattr(lam, "to_text") else str(lam)}
                for pt, per, lam in self.base_multipliers],
            "matrix": [[str(c) for c in row] for row in self.matrix],
            "charpoly": self.charpoly.to_text(),
            "charpoly_factored": self.charpoly_factored(),
        }


def _pk_chart(p: PkPoint) -> int:
    """Canonical chart: the last nonvanishing coordinate."""
    coords = p.coords
    for i in range(len(coords) - 1, -1, -1):
        if coords[i]:
            return i
    raise DomainError("zero point")


def _jacobian_step(F: MorphismPk, p: PkPoint, q: PkPoint):
    """Exact Jacobian of the dehomogenized map at p, rows indexed by the
    chart at q, columns by the chart at p."""
    k = F.k
    m = _pk_chart(p)
    mp = _pk_chart(q)
    x = [Fraction(c, p.coords[m]) for c in p.coords]
    fvals = [comp.eval(x) for comp in F.components]
    dvals = [[comp.derivative(j).eval(x) for j in range(k + 1)]
             for comp in F.components]
    denom = fvals[mp]
    if denom == 0:
        raise DomainError("chart denominator vanished")
    rows = []
    for i in range(k + 1):
        if i == mp:
            continue
        row = []
        for j in range(k + 1):
            if j == m:
                continue
            row.append((dvals[i][j] * denom - fvals[i] * dvals[mp][j])
                       / (denom * denom))
        rows.append(row)
    return rows


def multiplier_matrix(F: MorphismPk, p: PkPoint, n: int):
    """Product of per-step Jacobians along the length-n cycle of p."""
    orbit = [p]
    for _ in range(n):
        orbit.append(F.apply(orbit[-1]))
    if orbit[n] != p:
        raise DomainError(f"point is not periodic of period {n}")
    total = None
    for i in range(n):
        J = _jacobian_step(F, orbit[i], orbit[i + 1])
        total = J if total is None else mat_mul(J, total)
    return total


def multiplier_F(f: RationalMap1, k: int, p: PkPoint, n: int) -> MultiplierReport:
    """Multiplier data of a periodic point of the k-symmetric product:
    the exact k x k matrix, its characteristic polynomial, and the multipliers
    of the base points in the conjugate decomposition."""
    F = symmetrize(f, k)
    M = multiplier_matrix(F, p, n)
    cp = charpoly(M)
    base = []
    cap = max(64, n * k * 8)
    for field, pt, mult in conjugate_points(p):
        per = _return_time(pt, f.apply_algebraic, cap)
        if per is None:
            raise DomainError("component point is not periodic")
        lam = multiplier_f(f, pt, per)
        for _ in range(mult):
            base.append((pt, per, lam))
    return MultiplierReport(point=p, period=n, base_multipliers=tuple(base),
                            matrix=tuple(tuple(row) for row in M), charpoly=cp)


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
