import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symprod import (DomainError, FieldMismatchError, NumberField, UniPoly,
                     minimal_polynomial, nf_arith, roots_in_number_field,
                     same_field)
from symprod import numberfield
from symprod.polyfactor import is_irreducible
from symprod.unipoly import (_conv, _field_divmod, _field_gcd, _trim,
                             sylvester_resultant)

F = Fraction

SQRT5 = NumberField.get(UniPoly((-5, 0, 1)))
CUBIC = NumberField.get(UniPoly((23, -164, 16, 64)))
ZETA5 = NumberField.get(UniPoly((1, 1, 1, 1, 1)))
QUINTIC = NumberField.get(UniPoly((1, 3, -3, -4, 1, 1)))   # real subfield of Q(zeta_11)


def test_construction_verifies_irreducibility():
    with pytest.raises(DomainError):
        NumberField(UniPoly((-1, 0, 1)))      # (x-1)(x+1)
    with pytest.raises(DomainError):
        NumberField(UniPoly((1, 2, 1)))       # (x+1)^2
    with pytest.raises(DomainError):
        NumberField(UniPoly((3,)))


def test_minpoly_normalization():
    assert CUBIC.minpoly.lead == 1
    assert CUBIC.minpoly == UniPoly((F(23, 64), F(-41, 16), F(1, 4), 1))
    assert CUBIC.minpoly_int.coeffs == (23, -164, 16, 64)
    assert CUBIC.degree == 3


def test_norm_example():
    a = SQRT5.gen()
    assert ((1 + a) * (1 - a)).as_rational() == -4
    assert (a * a).as_rational() == 5


def test_power_basis_reduction():
    w = CUBIC.gen()
    hi = w ** 3
    # reduction modulo the minimal polynomial: w^3 = -w^2/4 + 41w/16 - 23/64
    assert hi.coords == (F(-23, 64), F(41, 16), F(-1, 4))
    assert CUBIC.minpoly(w).is_zero()


def test_inverse_and_division():
    w = CUBIC.gen()
    e = w * w - F(29, 16)
    assert (e * e.inverse()) == 1
    assert nf_arith(CUBIC, w, e, "div") * e == w
    with pytest.raises(ZeroDivisionError):
        nf_arith(CUBIC, w, CUBIC.zero(), "div")


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        nf_arith(SQRT5, SQRT5.gen(), CUBIC.gen(), "add")
    with pytest.raises(FieldMismatchError):
        SQRT5.gen() + CUBIC.gen()


coords3 = st.tuples(*([st.fractions(min_value=-4, max_value=4,
                                    max_denominator=8)] * 3))


@given(coords3, coords3, coords3)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    x, y, z = CUBIC.element(a), CUBIC.element(b), CUBIC.element(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x


def test_minimal_polynomial_degree_one():
    assert minimal_polynomial(F(7, 4)) == UniPoly((F(-7, 4), 1))
    e = CUBIC.from_rational(F(7, 4))
    assert minimal_polynomial(e) == UniPoly((F(-7, 4), 1))


def test_minimal_polynomial_generator():
    assert minimal_polynomial(CUBIC.gen()) == CUBIC.minpoly
    assert minimal_polynomial(ZETA5.gen()) == ZETA5.minpoly


def test_minimal_polynomial_resultant_oracle():
    # independent oracle: for e = g(w) of full degree, the minimal polynomial
    # is the characteristic polynomial Res_y(m(y), x - g(y)); evaluate both
    # at x = c.  Here g(w) = w^2 - 29/16.
    w = CUBIC.gen()
    e = w * w - F(29, 16)
    me = minimal_polynomial(e)
    assert me.degree == 3
    assert me(e).is_zero()
    g = UniPoly((F(-29, 16), 0, 1))
    m = CUBIC.minpoly
    for c in range(7):
        val = sylvester_resultant(
            list(m.coeffs), list((UniPoly.constant(c) - g).coeffs), 3, 2)
        assert val == me(F(c))


def test_minimal_polynomial_subfield_element():
    # an element of a quartic field of degree 2 over Q
    z = ZETA5.gen()
    e = z + z ** 4        # 2 cos(2 pi / 5), a quadratic element
    me = minimal_polynomial(e)
    assert me == UniPoly((-1, 1, 1))
    assert me.degree == 2


def test_roots_in_number_field():
    roots = roots_in_number_field(CUBIC.minpoly, CUBIC)
    assert len(roots) == 3          # the 21-point cubic field is Galois
    for r in roots:
        assert CUBIC.minpoly(r).is_zero()
    assert CUBIC.is_galois()
    assert roots_in_number_field(UniPoly((-2, 0, 1)), ZETA5) == []
    rr = roots_in_number_field(UniPoly((-4, 0, 1)), SQRT5)
    assert sorted(r.as_rational() for r in rr) == [-2, 2]


def test_same_field():
    w = CUBIC.gen()
    e = w * w - F(21, 16)
    other = NumberField.get(minimal_polynomial(e))
    assert same_field(CUBIC, other) and same_field(other, CUBIC)
    assert not same_field(CUBIC, SQRT5)
    assert not same_field(ZETA5, CUBIC)


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_quadratic_fields_are_galois(b, c, a):
    f = UniPoly((c, b, a))
    if is_irreducible(f):
        K = NumberField(f)
        assert K.is_galois() and K.automorphism_count() == 2
        # the degree <= 2 shortcut answers without a norm; the norm route
        # must agree
        assert len(roots_in_number_field(f, K)) == 2


def _cubic_disc_is_square(f):
    # disc = -Res(f, f') / lead for a cubic; Galois iff disc is a rational square
    disc = -f.resultant(f.derivative()) / f.lead
    return (disc > 0 and math.isqrt(disc.numerator) ** 2 == disc.numerator
            and math.isqrt(disc.denominator) ** 2 == disc.denominator)


def test_cubic_galois_matches_square_discriminant():
    for cs, galois in (((1, -3, 0, 1), True), ((-2, 0, 0, 1), False),
                       ((23, -164, 16, 64), True)):
        f = UniPoly(cs)
        assert _cubic_disc_is_square(f) is galois
        assert NumberField(f).is_galois() is galois
        assert NumberField(f).automorphism_count() == (3 if galois else 1)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_cubic_galois_matches_square_discriminant_random(c0, c1, c2, c3):
    f = UniPoly((c0, c1, c2, c3))
    if is_irreducible(f):
        assert NumberField(f).is_galois() is _cubic_disc_is_square(f)


# (defining polynomial low to high, |Aut(K/Q)|)
_AUTOMORPHISM_CORPUS = [
    ((-1, 0, -2, 0, 1), 2),           # x^4 - 2x^2 - 1: Q(sqrt(1 + sqrt2))
    ((1, 3, -3, -4, 1, 1), 5),        # 2 cos(2 pi / 11), cyclic quintic
    ((1, 1, 1, 1, 1), 4),             # zeta_5
    ((1, 0, 0, 0, 1), 4),             # zeta_8
    ((-2, 0, 0, 0, 1), 2),            # 2^(1/4)
    ((-2, 0, 0, 1), 1), ((1, -3, 0, 1), 3), ((23, -164, 16, 64), 3),
    ((-1, -1, 0, 0, 1), 1),           # S4 quartic
    ((-1, -1, 0, 0, 0, 1), 1),        # S5 quintic
    ((-2, 0, 0, 0, 0, 1), 1), ((2, 0, -3, 0, 1, 0, 1), 2),
]


def _random_fields(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 5)
        cs = tuple(rng.randint(-6, 6) for _ in range(n)) + (rng.choice([1, 2, 3]),)
        if cs[0] and is_irreducible(UniPoly(cs)):
            out.append(cs)
    return out


def test_automorphism_count_corpus():
    # the Frobenius bound may only skip the norm when it proves the count
    # is 1; every count agrees with the roots the norm finds
    for cs, want in _AUTOMORPHISM_CORPUS:
        K = NumberField(UniPoly(cs))
        assert K.automorphism_count() == want, cs
        assert len(roots_in_number_field(K.minpoly, K)) == want, cs
    for cs in _random_fields(40, 3):
        K = NumberField(UniPoly(cs))
        assert K.automorphism_count() == len(roots_in_number_field(K.minpoly, K)), cs


def test_automorphism_count_skips_the_norm_when_frobenius_decides(monkeypatch):
    def no_norm(*a):
        raise AssertionError("norm taken")

    monkeypatch.setattr(numberfield, "roots_in_number_field", no_norm)
    for cs in ((-2, 0, 0, 1), (-1, -1, 0, 0, 1), (-1, -1, 0, 0, 0, 1)):
        assert NumberField(UniPoly(cs)).automorphism_count() == 1
    with pytest.raises(AssertionError):
        NumberField(UniPoly((1, -3, 0, 1))).automorphism_count()


coords4 = st.tuples(*([st.fractions(min_value=-3, max_value=3,
                                    max_denominator=3)] * 4))
coords5 = st.tuples(*([st.fractions(min_value=-3, max_value=3,
                                    max_denominator=3)] * 5))


@given(st.one_of(coords4.map(ZETA5.element), coords5.map(QUINTIC.element)))
@settings(max_examples=30, deadline=None)
def test_minimal_polynomial_vanishes_is_irreducible_and_divides_degree(e):
    me = minimal_polynomial(e)
    assert me.lead == 1
    assert me(e).is_zero()
    assert is_irreducible(me)
    assert e.field.degree % me.degree == 0


# ---------------------------------------------------------------------------
# the shared Euclid over Q and over number fields
# ---------------------------------------------------------------------------


def _coefficient_lists(field):
    """Coefficient lists of length <= 4 over Q (field None) or the field."""
    rat = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    entry = rat if field is None else st.tuples(
        *([rat] * field.degree)).map(field.element)
    return st.lists(entry, max_size=4)


def _list_add(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


@given(st.sampled_from([None, CUBIC, ZETA5]).flatmap(
    lambda K: st.tuples(*([_coefficient_lists(K)] * 3))))
@settings(max_examples=60, deadline=None)
def test_field_divmod_and_gcd(lists):
    a0, b0, c = (_trim(list(x)) for x in lists)
    a = _conv(a0, c) if a0 and c else []  # c divides a and b
    b = _conv(b0, c) if b0 and c else []
    if b:
        q, r = _field_divmod(a, b)
        assert len(r) < len(b)
        assert _trim(_list_add(_conv(q, b) if q else [], r)) == a
    g = _field_gcd(a, b)
    if not (a or b):
        assert g == []
        return
    assert g[-1] == 1
    assert _field_divmod(a, g)[1] == [] and _field_divmod(b, g)[1] == []
    if c:
        assert _field_divmod(g, c)[1] == []


@given(st.one_of(coords4.map(ZETA5.element), coords3.map(CUBIC.element)))
@settings(max_examples=40, deadline=None)
def test_inverse_property(e):
    if not e.is_zero():
        assert e * e.inverse() == 1
        assert 1 / e == e.inverse() and 2 / e == e.inverse() * 2


def _shift_by_conv(h, s, alpha):
    """h(x + s*alpha) by Horner through _conv with the linear factor
    [s*alpha, 1]: the reference for numberfield._shift_into_field."""
    lin = [s * alpha, 1]
    out = [alpha.field.from_rational(h.lead)]
    for c in reversed(h.coeffs[:-1]):
        out = _conv(out, lin)
        out[0] += c
    return out


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=1, max_size=6).filter(lambda cs: cs[-1] != 0),
       st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_shift_into_field_matches_horner_through_conv(m, h, s):
    m = UniPoly(tuple(m) + (1,))
    assume(is_irreducible(m))
    alpha = NumberField(m).gen()
    h = UniPoly(h)
    assert numberfield._shift_into_field(h, s, alpha) == _shift_by_conv(h, s, alpha)


def test_kept_hashes_equal_the_hashes_of_the_values():
    # UniPoly, NFElem and AlgebraicPoint keep their hash once computed; the
    # values are those of the plain tuples they hash
    from symprod import AlgebraicPoint

    u = UniPoly((F(1, 2), -3, 1))
    e = CUBIC.element((1, F(-2, 3), 5))
    for _ in range(2):
        assert hash(u) == hash(u.coeffs) == hash(UniPoly(u.coeffs))
        assert hash(e) == hash((CUBIC.minpoly.coeffs, e.coords))
        assert hash(AlgebraicPoint(CUBIC, e)) == hash(e)
        assert hash(AlgebraicPoint.rational(F(3, 7))) == hash(F(3, 7))
        assert hash(AlgebraicPoint.at_infinity()) == hash("oo")
