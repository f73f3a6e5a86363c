from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import DegenerateMapError, RationalMap1, UniPoly
from symprod.unipoly import resultant
from test_kernels import sylvester_resultant

F = Fraction

rats = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys = st.lists(rats, min_size=0, max_size=6).map(lambda cs: UniPoly(tuple(cs)))


def test_basic_arithmetic():
    p = UniPoly((1, 2, 3))          # 3x^2 + 2x + 1
    q = UniPoly((-1, 1))            # x - 1
    assert (p + q).coeffs == (0, 3, 3)
    assert (p * q).coeffs == (-1, -1, -1, 3)
    assert (p - p).is_zero()
    assert p.degree == 2 and q.degree == 1
    assert UniPoly.zero().degree == -1


def test_divmod_exact():
    p = UniPoly((2, 0, 0, 1))       # x^3 + 2
    q = UniPoly((1, 1))             # x + 1
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.degree < q.degree
    with pytest.raises(ZeroDivisionError):
        p.divmod(UniPoly.zero())


def test_eval_and_compose():
    p = UniPoly((F(-29, 16), 0, 1))
    assert p(F(5, 4)) == F(-1, 4)
    assert p(F(-1, 4)) == F(-7, 4)
    assert p.compose(p)(F(5, 4)) == F(-7, 4)
    assert p.compose(p) == p * p - F(29, 16)
    assert UniPoly((3,)).compose(p) == UniPoly((3,))
    assert UniPoly.zero().compose(p) == UniPoly.zero()
    assert p.derivative().coeffs == (0, 2)


def test_content_primitive():
    p = UniPoly((F(6, 5), F(-9, 10), F(3, 20)))
    c, prim = p.content_primitive()
    assert prim.coeffs == (8, -6, 1)
    assert UniPoly.constant(c) * prim == p
    # sign convention: positive lead
    c2, prim2 = UniPoly((1, 0, -2)).content_primitive()
    assert prim2.lead > 0 and c2 == -1


def test_gcd():
    a = UniPoly((-1, 0, 1))          # (x-1)(x+1)
    b = UniPoly((1, 2, 1))           # (x+1)^2
    assert a.gcd(b) == UniPoly((1, 1))
    assert a.gcd(UniPoly.zero()) == a.monic()
    assert UniPoly((2,)).gcd(a).degree == 0


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_gcd_property(a, b, c):
    ac, bc = a * c, b * c
    if ac.is_zero() and bc.is_zero():
        assert ac.gcd(bc).is_zero()
        return
    g = ac.gcd(bc)
    assert g.lead == 1
    assert (ac % g).is_zero() and (bc % g).is_zero()
    assert (g % c.monic()).is_zero()


def test_resultant_morphism_examples():
    # Res(16z^2 - 29t^2, 16t^2) with the formal-degree convention
    r = resultant([-29, 0, 16], [16, 0, 0], 2, 2)
    assert r == 65536
    # x^2 - 2 is everywhere good: the lift has unit resultant
    assert resultant([-2, 0, 1], [1, 0, 0], 2, 2) == 1
    # a common root makes it vanish (both divisible by z - t)
    assert resultant([0, -1, 1], [0, -2, 2], 2, 2) == 0


@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=9),
                min_size=2, max_size=9),
       st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
@settings(max_examples=80, deadline=None)
def test_polynomial_map_resultant_matches_sylvester(num, c):
    # [P : c t^d] takes its resultant in closed form, not from the determinant
    d = len(num) - 1
    den = [0] * d + [c]
    if num[0] == 0:  # P and t^d share the root [1 : 0]
        assert sylvester_resultant(num, den, d, d) == 0
        with pytest.raises(DegenerateMapError):
            RationalMap1(num, den)
        return
    f = RationalMap1(num, den)
    assert f.res == sylvester_resultant(list(f.num), list(f.den), d, d)


def test_resultant_multiplicative_oracle():
    # Res(fg, h) = Res(f, h) Res(g, h) on true degrees
    f = UniPoly((1, 2))
    g = UniPoly((3, 0, 1))
    h = UniPoly((-1, 1, 1))
    lhs = (f * g).resultant(h)
    assert lhs == f.resultant(h) * g.resultant(h)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_mul_commutes_and_degree(p, q):
    assert p * q == q * p
    if p and q:
        assert (p * q).degree == p.degree + q.degree


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divmod_roundtrip(p, q):
    if q.is_zero():
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


def test_to_text():
    assert UniPoly((23, -164, 16, 64)).to_text() == "64*x^3 + 16*x^2 - 164*x + 23"
    assert UniPoly((F(-29, 16), 0, 1)).to_text() == "x^2 - 29/16"
    assert UniPoly.zero().to_text() == "0"
