from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import DomainError, MPoly, elementary_symmetric
from symprod.mpoly import joint_primitive
from symprod.parser import parse_mpoly

from mpoly_helpers import mpoly_derivative, mpoly_eval

F = Fraction


def test_arithmetic():
    x = MPoly.variable(3, 0)
    y = MPoly.variable(3, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    with pytest.raises(DomainError):
        x + MPoly.variable(2, 0)


def test_degree_and_homogeneity():
    x0, x1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    f = x0 ** 2 * x1 + x0 * x1 ** 2
    assert f.total_degree() == 3 and f.is_homogeneous()
    assert not (f + x0).is_homogeneous()


def test_eval_and_substitute():
    x0, x1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    f = x0 ** 2 - 2 * x1 ** 2
    assert mpoly_eval(f, [F(3), F(1)]) == 7
    g = f.substitute([x0 + x1, x1])
    assert mpoly_eval(g, [F(2), F(1)]) == mpoly_eval(f, [F(3), F(1)])


def test_derivative():
    x0, x1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    f = x0 ** 2 * x1 + 3 * x1
    assert mpoly_derivative(f, 0) == 2 * x0 * x1
    assert mpoly_derivative(f, 1) == x0 ** 2 + MPoly.constant(2, 3)


def test_text_round_trip():
    names = ["x0", "x1", "x2"]
    f = MPoly(3, {(2, 0, 0): F(1), (0, 1, 1): F(-29, 16), (0, 0, 0): F(5)})
    text = f.to_text(names)
    assert parse_mpoly(text, names) == f
    assert MPoly.zero(3).to_text(names) == "0"


exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
terms = st.dictionaries(exps, st.fractions(min_value=-9, max_value=9,
                                           max_denominator=8), max_size=5)


@given(terms, terms)
@settings(max_examples=50, deadline=None)
def test_ring_laws(t1, t2):
    p = MPoly(2, t1)
    q = MPoly(2, t2)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + q) == 2 * (p * q)


@given(terms)
@settings(max_examples=50, deadline=None)
def test_text_idempotent(t):
    p = MPoly(2, t)
    names = ["x0", "x1"]
    assert parse_mpoly(p.to_text(names), names) == p


def test_joint_primitive():
    x0, x1 = MPoly.variable(2, 0), MPoly.variable(2, 1)
    a = x0 * F(4, 3)
    b = x1 * F(-2, 3)
    out = joint_primitive([a, b])
    assert out[0].terms == {(1, 0): F(-2)} or out[0].terms == {(1, 0): F(2)}
    # common scalar only: the ratio of coefficients is preserved
    ra = next(iter(out[0].terms.values()))
    rb = next(iter(out[1].terms.values()))
    assert ra / rb == a.terms[(1, 0)] / b.terms[(0, 1)]


def test_elementary_symmetric():
    e2 = elementary_symmetric(3, 2)
    assert mpoly_eval(e2, [F(1), F(2), F(3)]) == 11
    assert elementary_symmetric(3, 0) == MPoly.constant(3, 1)
