import functools
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import (AlgebraicPoint, DegenerateMapError, DomainError, MorphismPk,
                     MPoly, NumberField, PkPoint, RationalMap1, UniPoly,
                     conjugate_points, eta, eta_coords, eta_tilde,
                     form_of_point, morphism_of_map, p1_point, parse_map,
                     point_of_form, symmetrize, verify_commutation)
from symprod import symmetric
from symprod.parser import parse_mpoly
from symprod.projective import BinaryForm, minpoly_of_factor

from mpoly_helpers import eval_int_termwise

F = Fraction


def _map(text):
    return parse_map(text).map


def test_eta_values():
    assert eta([p1_point(3)] * 4).coords == (81, 108, 54, 12, 1)
    assert eta([p1_point(F(-2, 7))]).coords == (2, -7)  # first coordinate positive
    with pytest.raises(DomainError):
        eta([])
    with pytest.raises(DomainError):
        eta([(0, 0)])


def test_eta_infinity_handling():
    # two affine points and one at infinity
    p = eta([p1_point(2), p1_point(3), PkPoint((1, 0))])
    # prod(2X+Y)(3X+Y)(X) = 6X^3 + 5X^2 Y + X Y^2
    assert p.coords == (6, 5, 1, 0)


rational_points = st.fractions(min_value=-8, max_value=8, max_denominator=8)


@given(st.lists(rational_points, min_size=2, max_size=4), st.randoms())
@settings(max_examples=50, deadline=None)
def test_eta_permutation_invariance(vals, rng):
    pts = [p1_point(v) for v in vals]
    shuffled = list(pts)
    rng.shuffle(shuffled)
    assert eta(pts) == eta(shuffled)


def test_symmetrize_k1_is_f():
    f = _map("x^2 - 29/16")
    F1 = symmetrize(f, 1)
    assert F1.components[0].terms == {(2, 0): F(16), (0, 2): F(-29)}
    assert F1.components[1].terms == {(0, 2): F(16)}


def test_symmetrize_displayed_k4():
    Fm = symmetrize(_map("x^2 - 2"), 4)
    names = ["v0", "v1", "v2", "v3", "v4"]
    expected = [
        "v0^2 - 2*v1^2 + 4*v0*v2 + 4*v2^2 - 8*v1*v3 - 8*v3^2 + 8*v0*v4 "
        "+ 16*v2*v4 + 16*v4^2",
        "v1^2 - 2*v0*v2 - 4*v2^2 + 8*v1*v3 + 12*v3^2 - 8*v0*v4 - 24*v2*v4 "
        "- 32*v4^2",
        "v2^2 - 2*v1*v3 - 6*v3^2 + 2*v0*v4 + 12*v2*v4 + 24*v4^2",
        "v3^2 - 2*v2*v4 - 8*v4^2",
        "v4^2",
    ]
    for comp, text in zip(Fm.components, expected):
        assert comp == parse_mpoly(text, names)


def test_symmetrize_polynomial_preservation_and_degree():
    rng = random.Random(5)
    for _ in range(8):
        d = rng.choice([2, 3])
        coeffs = [F(rng.randrange(-9, 10)) for _ in range(d)] + [F(1)]
        f = RationalMap1.from_affine_polynomial(UniPoly(coeffs))
        for k in (2, 3):
            Fk = symmetrize(f, k)
            assert Fk.d == d
            last = Fk.components[k]
            assert list(last.terms) == [(0,) * k + (d,)]
            assert last.terms[(0,) * k + (d,)] > 0


def test_commutation_random_points():
    rng = random.Random(11)
    checks = 0
    while checks < 60:
        d = rng.choice([2, 3])
        k = rng.choice(range(2, 8))
        num = [rng.randrange(-9, 10) for _ in range(d + 1)]
        den = [rng.randrange(-9, 10) for _ in range(d + 1)]
        try:
            f = RationalMap1(num, den)
        except (DegenerateMapError, DomainError):
            continue
        Fk = symmetrize(f, k)
        # The Green iteration sums F's terms in dict order in 53-bit floats,
        # so the order is part of the output: ascending reversed exponents.
        for comp in Fk.components:
            assert list(comp.terms) == sorted(comp.terms, key=lambda e: e[::-1])
        for _ in range(5):
            pts = []
            for _i in range(k):
                if rng.random() < 0.1:
                    pts.append(PkPoint((1, 0)))
                else:
                    pts.append(p1_point(F(rng.randrange(-12, 13),
                                          rng.randrange(1, 9))))
            lhs = eta([f.apply_point(p) for p in pts])
            rhs = Fk.apply(eta(pts))
            assert lhs == rhs, (f, pts)
            checks += 1


def _direct_morphism(f):
    """[P, Q] as a MorphismPk built term by term from f's coefficients."""
    d = f.d
    num = MPoly(2, {(d - j, j): Fraction(c) for j, c in enumerate(f.num) if c})
    den = MPoly(2, {(d - j, j): Fraction(c) for j, c in enumerate(f.den) if c})
    return MorphismPk([num, den])


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4), st.booleans())
@settings(max_examples=80, deadline=None)
def test_first_symmetric_product_is_the_map(num, den, polynomial):
    """symmetrize(f, 1) is [P, Q] itself, term for term and in insertion
    order (the Green iteration sums terms in that order), so
    morphism_of_map(f) can return it."""
    d = len(num) - 1
    den = [0] * d + [den[0] or 1] if polynomial else den[:d + 1]
    try:
        f = RationalMap1(num, den)
    except (DegenerateMapError, DomainError):
        return
    F1 = symmetrize(f, 1)
    assert ([list(c.terms.items()) for c in F1.components]
            == [list(c.terms.items()) for c in _direct_morphism(f).components])
    assert morphism_of_map(f) is F1


def test_commutation_symbolic():
    assert verify_commutation(_map("x^2 - 29/16"), 3)
    assert verify_commutation(_map("[z^2 + 4*z*t, t^2 + 4*z*t]"), 2)
    assert verify_commutation(_map("x^3 - 2"), 4)
    # den[0] != 0: the determinant's first pivots are not constants
    assert verify_commutation(_map("[z^2 - 3*t^2 + z*t, 5*z^2 + t^2]"), 4)


def test_symmetrize_is_polynomial_in_k():
    f = _map("x^2 - 29/16")
    symmetric._symmetrize_cache.pop((f.key(), 8), None)
    start = time.perf_counter()
    F8 = symmetrize(f, 8)
    assert time.perf_counter() - start < 0.25
    assert F8.k == 8 and F8.d == 2


def test_form_point_round_trip():
    p = PkPoint((81, 108, 54, 12, 1))
    assert point_of_form(form_of_point(p)) == p
    inf = PkPoint((1, 0, 0, 0, 0))
    g = form_of_point(inf)
    assert g.coeffs == (1, 0, 0, 0, 0)      # X^4: infinity with multiplicity 4
    decomp = conjugate_points(inf)
    assert decomp == [(None, AlgebraicPoint.at_infinity(), 4)] or \
        (decomp[0][1].infinity and decomp[0][2] == 4)


@given(st.lists(rational_points, min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_round_trip_random(vals):
    p = eta([p1_point(v) for v in vals])
    assert point_of_form(form_of_point(p)) == p


def test_conjugate_points_examples():
    d1 = conjugate_points(PkPoint((81, 108, 54, 12, 1)))
    assert len(d1) == 1
    fld, pt, mult = d1[0]
    assert fld is None and pt.value == 3 and mult == 4

    d2 = conjugate_points(PkPoint((1, -1, 1, -1, 1)))
    assert len(d2) == 1
    fld, pt, mult = d2[0]
    assert fld.degree == 4 and mult == 1
    assert fld.minpoly == UniPoly((1, 1, 1, 1, 1))


@given(st.lists(rational_points, min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_conjugate_total_multiplicity(vals):
    p = eta([p1_point(v) for v in vals])
    decomp = conjugate_points(p)
    total = sum((fld.degree if fld else 1) * m for fld, _pt, m in decomp)
    assert total == len(vals)


def test_eta_tilde_values():
    assert eta_tilde(AlgebraicPoint.rational(3), 1).coords == (3, 1)
    Z5 = NumberField.get(UniPoly((1, 1, 1, 1, 1)))
    assert eta_tilde(AlgebraicPoint(Z5, Z5.gen()), 4).coords == (1, -1, 1, -1, 1)
    assert eta_tilde(AlgebraicPoint.at_infinity(), 3).coords == (1, 0, 0, 0)
    with pytest.raises(DomainError):
        eta_tilde(AlgebraicPoint(Z5, Z5.gen()), 3)   # degree 4 does not divide 3


def test_eta_tilde_subfield_element():
    # 2cos(2pi/5) in the quartic field has degree 2; embeddings come twice
    Z5 = NumberField.get(UniPoly((1, 1, 1, 1, 1)))
    z = Z5.gen()
    e = z + z ** 4
    got = eta_tilde(AlgebraicPoint(Z5, e), 4)
    m = UniPoly((-1, 1, 1)) ** 2                 # (minimal polynomial)^2
    want = PkPoint([(-1) ** (4 - j) * m.coeff(j) for j in range(5)])
    assert got == want


def test_eta_tilde_numeric_split_oracle():
    """eta~ from minimal-polynomial coefficients agrees with eta evaluated at
    the numerically split conjugates."""
    ref = NumberField.get(UniPoly((23, -164, 16, 64)))
    pt = AlgebraicPoint(ref, ref.gen())
    exact = eta_tilde(pt, 3)
    want = [F(c, exact.coords[-1]) for c in exact.coords]
    with mpmath.workprec(120):
        roots = mpmath.polyroots([64, 16, -164, 23], maxsteps=200)
        coords = eta_coords([(r, mpmath.mpf(1)) for r in roots])
        scale = coords[-1]
        approx = [c / scale for c in coords]
        for a, w in zip(approx, want):
            assert abs(a - mpmath.mpf(w.numerator) / w.denominator) \
                < mpmath.mpf(2) ** -60


def test_minpoly_of_factor_sign_convention():
    g = BinaryForm((1, -1, 1, -1, 1))
    assert minpoly_of_factor(g) == UniPoly((1, 1, 1, 1, 1))


def _det_laplace(rows, one):
    """The determinant by Laplace expansion along the rows, each minor on
    the remaining columns computed once: no division of MPoly entries."""
    n = len(rows)

    @functools.cache
    def minor(cols):  # rows n - len(cols) .. n - 1 on the columns cols
        if not cols:
            return one
        row = rows[n - len(cols)]
        total = MPoly.zero(one.nvars)
        for pos, j in enumerate(cols):
            if row[j]:
                term = row[j] * minor(cols[:pos] + cols[pos + 1:])
                total = total - term if pos % 2 else total + term
        return total
    return minor(tuple(range(n)))


def _sylvester_components(f, k):
    """F's components from the Sylvester determinant with MPoly entries over
    Q[x_0..x_k, Y], terms inserted by ascending reversed exponent: the
    oracle for symmetrize, which computes this resultant as a norm."""
    d = f.d
    nv = k + 2
    zero = MPoly.zero(nv)
    y = MPoly.variable(nv, k + 1)
    g = [MPoly.variable(nv, j) for j in range(k, -1, -1)]
    h = [(-1) ** i * (y * f.den[d - i] + f.num[d - i]) for i in range(d, -1, -1)]
    rows = ([[zero] * r + h + [zero] * (k - 1 - r) for r in range(k)]
            + [[zero] * r + g + [zero] * (d - 1 - r) for r in range(d)])
    res = _det_laplace(rows, MPoly.constant(nv, 1))
    parts = [{} for _ in range(k + 1)]
    for e, c in sorted(res.terms.items(), key=lambda ec: ec[0][::-1]):
        parts[e[k + 1]][e[:k + 1]] = c
    return MorphismPk([MPoly(k + 1, t) for t in parts], expected_degree=d).components


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
           st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1),
           st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1))),
       st.booleans(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_packed_determinant_matches_the_mpoly_determinant(coeffs, polynomial, k):
    """Equal components with equal term insertion order: the Green
    iteration sums F's terms in that order."""
    num, den = coeffs
    d = len(num) - 1
    if polynomial:
        den = [0] * d + [den[-1] or 1]
    try:
        f = RationalMap1(num, den)
    except (DegenerateMapError, DomainError):
        return
    symmetric._symmetrize_cache.clear()
    got = symmetrize(f, k).components
    want = _sylvester_components(f, k)
    assert [list(c.terms.items()) for c in got] == \
        [list(c.terms.items()) for c in want]


def test_eval_plan_equals_termwise_evaluation():
    rng = random.Random(28)
    for text in ("x^2 - 29/16", "x^3 - 2*x", "x^2 + x - 3",
                 "[z^3 - z^2*t + 2*t^3, z^2*t + 3*t^3]"):
        f = _map(text)
        for k in range(1, 8):
            Fk = symmetrize(f, k)
            n = k + 1
            points = [[0] * n, [0] * k + [1], [1] + [0] * k,
                      [-1] * n, [(-1) ** i * (i + 1) for i in range(n)]]
            points += [[rng.randint(-9, 9) for _ in range(n)] for _ in range(4)]
            points += [[rng.choice((0, 1, -1)) * rng.randrange(10 ** 59, 10 ** 60)
                        for _ in range(n)] for _ in range(4)]
            for coords in points:
                assert Fk.eval_int(coords) == eval_int_termwise(Fk, coords)
