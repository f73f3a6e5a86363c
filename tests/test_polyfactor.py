import math
import random
import time
from fractions import Fraction
from itertools import product, zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symprod import (BinaryForm, DomainError, UniPoly, factor_unipoly, is_irreducible,
                     rational_roots, squarefree_decomposition)
from symprod import polyfactor

F = Fraction


def reconstruct(content, factors):
    out = UniPoly.constant(content)
    for g, m in factors:
        out = out * g ** m
    return out


# ---------------------------------------------------------------------------
# independent irreducibility oracles (never call factor_unipoly)
# ---------------------------------------------------------------------------


def _divisors(n):
    n = abs(n)
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out + [-d for d in out]


def oracle_no_rational_root(coeffs):
    """Exhaustive rational root theorem on primitive integer coefficients."""
    f = UniPoly.from_int_list(coeffs)
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            if q > 0 and math.gcd(abs(p), q) == 1 and f(F(p, q)) == 0:
                return False
    return True


def oracle_no_small_factor(coeffs, deg):
    """Complete search for a degree-`deg` integer factor: outer coefficients
    run over divisors, inner ones over the Landau-Mignotte box, with value
    divisibility prefilters at 1 and -1."""
    f = UniPoly.from_int_list(coeffs)
    n = f.degree
    bound = (1 << n) * (math.isqrt(sum(c * c for c in coeffs)) + 1)
    f1, fm1 = int(f(1)), int(f(-1))
    assert f1 != 0 and fm1 != 0  # linear factors already excluded
    inner = range(-bound, bound + 1)
    for lead in _divisors(coeffs[-1]):
        if lead < 0:
            continue  # factor sign is free; fix positive lead
        for const in _divisors(coeffs[0]):
            mids = product(inner, repeat=deg - 1)
            for mid in mids:
                g = UniPoly.from_int_list([const, *mid, lead])
                if int(g(1)) == 0 or f1 % int(g(1)) or int(g(-1)) == 0 \
                        or fm1 % int(g(-1)):
                    continue
                if (f % g).is_zero():
                    return False
    return True


def oracle_irreducible_mod2(coeffs):
    """Trial division by every monic polynomial of degree <= deg/2 over F_2."""
    f = [c % 2 for c in coeffs]
    assert f[-1] == 1
    n = len(f) - 1

    def mod2_rem(a, b):
        a = list(a)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] ^= c
        return any(a)

    for d in range(1, n // 2 + 1):
        for tail in product((0, 1), repeat=d):
            g = list(tail) + [1]
            if not mod2_rem(f, g):
                return False
    return True


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def test_difference_of_squares():
    content, facs = factor_unipoly(UniPoly((-1, 0, 1)))
    assert content == 1
    assert [(g.coeffs, m) for g, m in facs] == [((-1, 1), 1), ((1, 1), 1)]


def test_cubic_irreducible():
    p = UniPoly((23, -164, 16, 64))
    content, facs = factor_unipoly(p)
    assert content == 1 and len(facs) == 1 and facs[0][1] == 1
    # oracle: a cubic is irreducible over Q iff it has no rational root
    assert oracle_no_rational_root([23, -164, 16, 64])


def test_quintic_cyclotomic_companion():
    p = UniPoly((1, 1, 1, 1, 1))
    assert is_irreducible(p)
    # independent oracle: irreducible already modulo 2
    assert oracle_irreducible_mod2([1, 1, 1, 1, 1])


def test_zero_rejected():
    with pytest.raises(DomainError):
        factor_unipoly(UniPoly.zero())


def test_content_and_conventions():
    p = UniPoly.constant(F(6, 5)) * UniPoly((-1, 1)) ** 2 * UniPoly((2, 1)) ** 3
    content, facs = factor_unipoly(p)
    assert content == F(6, 5)
    assert [(g.coeffs, m) for g, m in facs] == [((-1, 1), 2), ((2, 1), 3)]
    for g, _m in facs:
        ints = [c for c in g.coeffs]
        assert all(c.denominator == 1 for c in ints)
        assert math.gcd(*(int(c) for c in ints)) == 1
        assert g.lead > 0
    assert reconstruct(content, facs) == p


def test_nonmonic_and_zero_roots():
    p = UniPoly((0, 0, 5, 2, 3)) * UniPoly((1, -4, 0, 7))
    content, facs = factor_unipoly(p)
    assert reconstruct(content, facs) == p
    assert any(g.coeffs == (0, 1) and m == 2 for g, m in facs)


def test_huge_coefficients():
    # coefficients past Python's int-to-str digit limit (4300 digits)
    a = 10 ** 4400 + 1
    content, facs = factor_unipoly(UniPoly((-a, 1)) * UniPoly((-3, 1)))
    assert content == 1
    assert sorted((g.coeffs, m) for g, m in facs) == [((-a, 1), 1),
                                                      ((-3, 1), 1)]


def test_no_usable_prime_below_113():
    # every prime up to 113 divides lc * disc = 8 L^2, so the prime search
    # has to go past a fixed table of small primes
    L = math.prod(p for p in range(3, 114, 2)
                  if all(p % q for q in range(3, p, 2)))
    p = UniPoly((-2, 0, L))
    content, facs = factor_unipoly(p)
    assert content == 1 and [(g, m) for g, m in facs] == [(p, 1)]


def _primes_split(monkeypatch):
    """Record (p, modular factor count) for every distinct-degree split."""
    seen = []
    ddf = polyfactor._ddf

    def recording(f, p):
        out = ddf(f, p)
        seen.append((p, sum((len(g) - 1) // d for d, g in out)))
        return out
    monkeypatch.setattr(polyfactor, "_ddf", recording)
    return seen


def test_prime_search_stops_when_recombination_is_cheap(monkeypatch):
    # 3 and 5 divide the discriminant; mod 7 there are five factors
    f = (UniPoly((-2, 0, 1)) * UniPoly((-3, 0, 1)) * UniPoly((-5, 0, 0, 1))
         * UniPoly((1, 1, 1, 0, 1)))
    seen = _primes_split(monkeypatch)
    count, p, _ddf = polyfactor._choose_prime(f.primitive_int_coeffs())
    assert seen == [(p, count)] and 1 < count <= 6


# Swinnerton-Dyer: the minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7
# splits into factors of degree <= 2, so into >= 8 factors, mod every prime
SWINNERTON_DYER_16 = (46225, 0, -5596840, 0, 13950764, 0, -7453176, 0,
                      1513334, 0, -141912, 0, 6476, 0, -136, 0, 1)


def test_prime_search_keeps_the_fewest_of_four_above_six(monkeypatch):
    sd = UniPoly(SWINNERTON_DYER_16)
    seen = _primes_split(monkeypatch)
    count, p, _ddf = polyfactor._choose_prime(list(SWINNERTON_DYER_16))
    assert len(seen) == 4 and all(c >= 8 for _q, c in seen)
    assert count == min(c for _q, c in seen) and (p, count) in seen
    assert factor_unipoly(sd) == (1, [(sd, 1)])
    cubic, quadratic = UniPoly((-2, 0, 0, 1)), UniPoly((1, 1, 3))
    assert factor_unipoly(sd * cubic * quadratic) == (
        1, [(quadratic, 1), (cubic, 1), (sd, 1)])


def test_rational_roots():
    p = UniPoly((-1, 0, 1)) * UniPoly((F(3, 7), 1)) * UniPoly((5, 0, 1))
    assert rational_roots(p) == [F(-1), F(-3, 7), F(1)]


def test_squarefree_decomposition():
    f = UniPoly((-1, 1)) ** 3 * UniPoly((1, 1)) * UniPoly((2, 0, 1)) ** 2
    parts = squarefree_decomposition(f)
    got = {m: g for g, m in parts}
    assert got[3] == UniPoly((-1, 1))
    assert got[1] == UniPoly((1, 1))
    assert got[2] == UniPoly((2, 0, 1))


def test_small_degree_irreducibility_oracle():
    """Every irreducibility claim in degree <= 6 survives the exhaustive
    rational-root plus boxed quadratic/cubic factor search."""
    candidates = [
        [23, -164, 16, 64],
        [1, 1, 1, 1, 1],
        [7, 0, 0, -2, 0, 1],       # degree 5
        [1, 0, 0, 1, 0, 0, 1],     # x^6 + x^3 + 1
    ]
    for coeffs in candidates:
        content, facs = factor_unipoly(UniPoly.from_int_list(coeffs))
        if len(facs) == 1 and facs[0][1] == 1:
            assert oracle_no_rational_root(coeffs)
            if len(coeffs) - 1 >= 4:
                assert oracle_no_small_factor(coeffs, 2)
            if len(coeffs) - 1 >= 6:
                assert oracle_no_small_factor(coeffs, 3)


small_polys = st.lists(st.integers(min_value=-6, max_value=6),
                       min_size=2, max_size=4).map(
    lambda cs: UniPoly.from_int_list(cs if any(cs[1:]) else cs + [1]))
big_leads = st.one_of(st.just(1), st.integers(min_value=2, max_value=2 ** 80))


@given(st.lists(st.tuples(small_polys, big_leads), min_size=1, max_size=3),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
@settings(max_examples=50, deadline=None)
def test_multiply_back(parts, scale):
    p = UniPoly.constant(scale if scale else 1)
    for q, lead in parts:
        if q.is_zero():
            q = UniPoly.one()
        p = p * UniPoly(q.coeffs[:-1] + (q.lead * lead,))
    if p.is_zero() or p.degree < 1:
        return
    content, facs = factor_unipoly(p)
    assert reconstruct(content, facs) == p
    for g, _m in facs:
        assert g.lead > 0 and all(c.denominator == 1 for c in g.coeffs)


def test_fixed_point_polynomial_degree_32():
    # the period-5 fixed points of x^2 - 2 split into fields of degree
    # 1, 1, 5, 10, 15 (plus infinity, handled at the form level); for
    # x^2 - 29/16 the primitive form has a 65-bit lead (16^31) and splits
    # as 2 + 30
    for c, degrees in ((2, [1, 1, 5, 10, 15]), (F(29, 16), [2, 30])):
        fn = UniPoly((0, 1))
        for _ in range(5):
            fn = fn * fn - c
        start = time.perf_counter()
        content, facs = factor_unipoly(fn - UniPoly((0, 1)))
        assert time.perf_counter() - start < 0.2
        assert sorted(g.degree for g, _m in facs) == degrees
        assert reconstruct(content, facs) == fn - UniPoly((0, 1))


def _linear(ab):
    """a*x + b with gcd(a, b) = 1, low to high."""
    g = math.gcd(*ab)
    return (ab[1] // g, ab[0] // g)


def _quadratic(ac):
    """a*x^2 + c with a, c > 0 coprime: no real root, so irreducible over Q."""
    g = math.gcd(*ac)
    return (ac[1] // g, 0, ac[0] // g)


big = st.integers(min_value=1, max_value=2 ** 80)
known_irreducibles = st.one_of(
    st.tuples(big, st.integers(min_value=-2 ** 80, max_value=2 ** 80)).map(_linear),
    st.tuples(big, big).map(_quadratic))


@given(st.lists(st.tuples(known_irreducibles, st.integers(1, 3)),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_known_irreducibles_with_large_leads(parts):
    expected = {}
    p = UniPoly.one()
    for coeffs, m in parts:
        expected[coeffs] = expected.get(coeffs, 0) + m
        p = p * UniPoly.from_int_list(coeffs) ** m
    content, facs = factor_unipoly(p)
    assert content == 1
    assert {tuple(int(c) for c in g.coeffs): m for g, m in facs} == expected


@given(st.tuples(big, st.integers(min_value=-2 ** 80, max_value=2 ** 80)).map(_linear),
       st.tuples(big, st.integers(min_value=-2 ** 80, max_value=2 ** 80)).map(_linear),
       st.integers(min_value=1, max_value=2 ** 20))
@settings(max_examples=60, deadline=None)
def test_quadratic_closed_form_splits_products_of_linears(a, b, scale):
    assume(a != b)
    p = UniPoly.from_int_list(a) * UniPoly.from_int_list(b) * scale
    content, facs = factor_unipoly(p)
    assert content == scale
    assert sorted((tuple(int(c) for c in g.coeffs), m) for g, m in facs) \
        == sorted([(a, 1), (b, 1)])


@given(st.integers(1, 40), st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=80, deadline=None)
def test_quadratic_closed_form_matches_rational_root_oracle(a, b, c):
    assume(c != 0 and math.gcd(a, b, c) == 1 and b * b != 4 * a * c)
    content, facs = factor_unipoly(UniPoly((c, b, a)))
    irreducible = oracle_no_rational_root([c, b, a])
    assert (len(facs) == 1) is irreducible
    assert [g.degree for g, m in facs] == ([2] if irreducible else [1, 1])
    assert reconstruct(content, facs) == UniPoly((c, b, a))


# ---------------------------------------------------------------------------
# distinct-degree split on packed integers against the list path
# ---------------------------------------------------------------------------


def _ddf_reference(f, p, cap=None, state=None):
    """_ddf with every Frobenius power taken by _ppowmod on lists, as it
    was before the packed products."""
    out = []
    v, h, i = state or (list(f), [0, 1], 1)
    while len(v) - 1 >= 2 * i and (cap is None or i <= cap):
        h = polyfactor._ppowmod(h, p, v, p)
        g = polyfactor._pgcd(polyfactor._psub(h, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((i, g))
            v = polyfactor._pdivmod(v, g, p)[0]
            h = polyfactor._pmod(h, v, p)
        i += 1
    if 1 < len(v) <= 2 * i:
        out.append((len(v) - 1, v))
        v = [1]
    if state:
        state[:] = v, h, i
    return out


_DDF_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _monic_squarefree(rng, n, p):
    """A seeded monic squarefree polynomial of degree n mod p, most of them
    with factors of several small degrees."""
    while True:
        f = [1]
        while len(f) - 1 < n:
            d = min(n - len(f) + 1, rng.choice((1, 1, 2, 3, 4, n)))
            f = polyfactor._pmul(f, [rng.randrange(p) for _ in range(d)] + [1], p)
        df = polyfactor._trim([i * f[i] % p for i in range(1, len(f))])
        if len(polyfactor._pgcd(f, df, p)) == 1:
            return f


def test_packed_ddf_equals_list_path_at_every_cap():
    rng = random.Random(28)
    for p in _DDF_PRIMES:
        for n in (2, rng.randrange(3, 10), rng.randrange(10, 25), rng.randrange(25, 41)):
            f = _monic_squarefree(rng, n, p)
            want = _ddf_reference(f, p)
            assert polyfactor._ddf(f, p) == want
            assert sorted(d * ((len(g) - 1) // d) for d, g in want) \
                == sorted(len(g) - 1 for d, g in want)
            for cap in range(1, n // 2 + 1):  # the loop stops by i > n / 2
                assert polyfactor._ddf(f, p, cap) == _ddf_reference(f, p, cap)


def test_packed_ddf_continues_its_state_across_caps():
    rng = random.Random(2028)
    for p in _DDF_PRIMES:
        for n in (12, 20, 30, 40):
            f = _monic_squarefree(rng, n, p)
            state, ref_state = [f, [0, 1], 1], [f, [0, 1], 1]
            for cap in (1, 3, 7):
                got = polyfactor._ddf(None, p, cap, state)
                assert got == _ddf_reference(None, p, cap, ref_state)
                assert state == ref_state


def test_packed_ddf_slot_widths_and_list_fallback():
    """32-bit slots for small p, 64-bit ones for p = 1009 at degree 20,
    and the list path when 64 bits cannot hold a slot's sums."""
    rng = random.Random(3)
    for p, code in ((41, "I"), (1009, "Q"), (1000003, None)):
        f = _monic_squarefree(rng, 20, p)
        packed = polyfactor._packed_mod(f, p)
        assert (packed.code if packed else None) == code
        for cap in (2, 4, None):
            assert polyfactor._ddf(f, p, cap) == _ddf_reference(f, p, cap)


# ---------------------------------------------------------------------------
# even quartics in closed form against Zassenhaus and the factor oracles
# ---------------------------------------------------------------------------


def _squarefree_even_quartic(coeffs):
    """The primitive, positive-lead form of a x^4 + b x^2 + e given low to
    high, or None unless it is a squarefree even quartic with e != 0."""
    f = polyfactor._primitive(polyfactor._trim(list(coeffs)))
    if len(f) != 5 or f[1] or f[3] or not f[0]:
        return None
    return f if len(polyfactor._int_gcd(f, polyfactor._derivative(f))) == 1 else None


def _sq(c):
    return c * c


def _even_quartics(size):
    """a x^4 + b x^2 + e (low to high) in the shapes the closed form tells
    apart, coefficients of up to `size` bits before squaring: any (a, b, e),
    a e of either sign; (p x^2 + q)(r x^2 + s); h(x) h(-x) for
    h = p x^2 + q x + s of either sign of s, so of t = ps; and a e a square
    with any b, where the test on a (2t - b) decides."""
    lead = st.integers(1, 2 ** size)
    coeff = st.integers(-2 ** size, 2 ** size)
    return st.one_of(
        st.tuples(lead, coeff, coeff).map(lambda t: [t[2], 0, t[1], 0, t[0]]),
        st.tuples(lead, coeff, lead, coeff).map(
            lambda t: [t[1] * t[3], 0, t[0] * t[3] + t[1] * t[2], 0, t[0] * t[2]]),
        st.tuples(lead, coeff, coeff).map(
            lambda t: [_sq(t[2]), 0, 2 * t[0] * t[2] - _sq(t[1]), 0, _sq(t[0])]),
        st.tuples(lead, coeff, coeff, st.sampled_from((1, -1))).map(
            lambda t: [t[3] * _sq(t[2]), 0, t[1], 0, _sq(t[0])]),
        st.tuples(lead, coeff, coeff, st.sampled_from((1, -1))).map(
            lambda t: [t[3] * t[0] * _sq(t[2]), 0, t[1], 0, t[0]]))


@given(_even_quartics(80))
@settings(max_examples=300, deadline=None)
def test_biquadratic_closed_form_matches_zassenhaus(coeffs):
    f = _squarefree_even_quartic(coeffs)
    assume(f is not None)
    got = polyfactor._factor_biquadratic(list(f))
    assert sorted(got) == sorted(polyfactor._zassenhaus(list(f)))
    assert polyfactor._factor_squarefree_primitive(list(f)) == got


@given(_even_quartics(1))
@settings(max_examples=60, deadline=None)
def test_biquadratic_closed_form_matches_factor_oracles(coeffs):
    f = _squarefree_even_quartic(coeffs)
    assume(f is not None)
    got = polyfactor._factor_biquadratic(list(f))
    back = [1]
    for g in got:
        back = polyfactor._conv(back, g)
        assert g[-1] > 0 and math.gcd(*g) == 1
        assert len(g) == 2 or oracle_no_rational_root(g)
    assert back == f
    if got == [f]:
        assert oracle_no_rational_root(f) and oracle_no_small_factor(f, 2)


def test_biquadratic_closed_form_examples():
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2): t = +m
    assert polyfactor._factor_biquadratic([4, 0, 0, 0, 1]) == [[2, 2, 1], [2, -2, 1]]
    # x^4 - 3x^2 + 1 = (x^2 + x - 1)(x^2 - x - 1): t = -m
    assert polyfactor._factor_biquadratic([1, 0, -3, 0, 1]) == [[-1, 1, 1], [-1, -1, 1]]
    # 4x^4 + 1 = (2x^2 + 2x + 1)(2x^2 - 2x + 1): a > 1, a f = (4x^2 + 4x + 2)(...)
    assert polyfactor._factor_biquadratic([1, 0, 0, 0, 4]) == [[1, 2, 2], [1, -2, 2]]
    # x^4 - 5x^2 + 4 = (x - 1)(x + 1)(x - 2)(x + 2): the square discriminant
    assert sorted(polyfactor._factor_biquadratic([4, 0, -5, 0, 1])) == [
        [-2, 1], [-1, 1], [1, 1], [2, 1]]
    # x^4 + 2x^2 - 3 = (x^2 + 3)(x - 1)(x + 1); a e < 0
    assert sorted(polyfactor._factor_biquadratic([-3, 0, 2, 0, 1])) == [
        [-1, 1], [1, 1], [3, 0, 1]]
    # a e = 4 is a square but a (2t - b) is -6 or -14: irreducible
    assert polyfactor._factor_biquadratic([4, 0, 10, 0, 1]) == [[4, 0, 10, 0, 1]]
    # a e = 6 is not a square: irreducible
    assert polyfactor._factor_biquadratic([2, 0, 1, 0, 3]) == [[2, 0, 1, 0, 3]]


# ---------------------------------------------------------------------------
# the integer core: BinaryForm.factor and squarefree_decomposition
# ---------------------------------------------------------------------------


def _squarefree_reference(f):
    """Yun's algorithm on UniPoly parts, as squarefree_decomposition was
    before the integer core: monic parts built from each integer gcd."""
    if f.degree < 1:
        return []
    b = f.primitive_int_coeffs()
    if any(polyfactor._monic_squarefree_mod(b, p) is not None
           for p in (3, 5, 7, 11, 13)):
        return [(f.monic(), 1)]
    db = polyfactor._derivative(b)
    a = polyfactor._int_gcd(b, db)
    b, c = polyfactor._int_divide(b, a), polyfactor._int_divide(db, a)
    out, i = [], 1
    while len(b) > 1:
        d = polyfactor._trim([x - y for x, y in zip_longest(
            c, polyfactor._derivative(b), fillvalue=0)])
        g = polyfactor._int_gcd(b, d)
        if len(g) > 1:
            out.append((UniPoly.from_int_list(g).monic(), i))
        b, c = polyfactor._int_divide(b, g), polyfactor._int_divide(d, g)
        i += 1
    return out


def _factor_through_unipoly(form):
    """BinaryForm.factor as it was: X^b and Y^a from the vanishing end
    coefficients, then factor_unipoly of the dehomogenization of the rest."""
    cs, k = form.coeffs, form.degree
    a = next(i for i, c in enumerate(cs) if c)
    b = next(i for i, c in enumerate(reversed(cs)) if c)
    out = [(BinaryForm((1, 0)), b)] if b else []
    out += [(BinaryForm((0, 1)), a)] if a else []
    mid = cs[a: k - b + 1]
    if len(mid) > 1:
        _c, facs = factor_unipoly(UniPoly(tuple(reversed(mid))))
        out += [(BinaryForm(tuple(reversed(g.coeffs))), m) for g, m in facs]
    return out


def _seeded_form(rng):
    """A binary form as a product of X^i Y^j and powers of random linear,
    quadratic and quartic forms (even quartics among them), times a content
    of either sign: repeated factors, end factors and negative leads."""
    coeffs = [rng.randint(-3, 3) or 1]
    for _ in range(rng.randint(0, 2)):
        coeffs = polyfactor._conv(coeffs, [1, 0])   # X
    for _ in range(rng.randint(0, 2)):
        coeffs = polyfactor._conv(coeffs, [0, 1])   # Y
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice((2, 3, 5, "even"))
        if kind == "even":
            part = [rng.randint(1, 9), 0, rng.randint(-20, 20), 0,
                    rng.choice((-1, 1)) * rng.randint(1, 9)]
        else:
            part = [rng.randint(-30, 30) for _ in range(kind)]
        if any(part):
            coeffs = polyfactor._conv(coeffs, polyfactor._power(
                part, rng.choice((1, 1, 1, 2, 3)), [1], polyfactor._conv))
    return coeffs


def test_binary_form_factor_equals_factor_unipoly_of_dehomogenization():
    rng = random.Random(39)
    for _ in range(400):
        coeffs = _seeded_form(rng)
        if len(coeffs) < 2:
            continue
        form = BinaryForm(coeffs)
        assert form.factor() == _factor_through_unipoly(form)


def test_squarefree_decomposition_equals_unipoly_yun():
    rng = random.Random(3939)
    for _ in range(400):
        coeffs = _seeded_form(rng)
        v = next(i for i, c in enumerate(coeffs) if c)
        for f in (UniPoly.from_int_list(coeffs),
                  UniPoly.from_int_list(coeffs[v:]) * F(rng.randint(-9, 9) or 1, 7)):
            assert squarefree_decomposition(f) == _squarefree_reference(f)
