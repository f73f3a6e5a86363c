"""The shared exact kernels against the loops they replaced.

unipoly._power is the binary powering of UniPoly, NFElem, MPoly, F_q and
polyfactor._ppowmod; unipoly._conv the product of UniPoly, NFElem and
symmetric.eta_coords; polyfactor._squarefree_splits the prime scan of
_choose_prime and numberfield._frobenius_bound.  The loops below are those
routines as they were written before, kept as references: every result
must be equal, MPoly term insertion order and mpf bits included."""

import random
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import MPoly, NumberField, UniPoly, eta_coords
from symprod import numberfield, polyfactor
from symprod.gf import FiniteField
from symprod.intfactor import is_prime
from symprod.polyfactor import (_ddf, _monic_squarefree_mod, _pmod, _pmul,
                                _ppowmod, is_irreducible)

FIELDS = [NumberField.get(UniPoly(m)) for m in
          ((-2, 0, 0, 1), (23, -164, 16, 64), (1, 1, 1, 1, 1))]
GF = {(p, e): FiniteField(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3)}

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------


def _square_and_multiply(result, base, n, mul):
    """The loop of NFElem.__pow__, MPoly.__pow__, FiniteField.pow and
    _ppowmod."""
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def _unipoly_pow(x, n):
    result, base = UniPoly.one(), x
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _nfelem_pow(x, n):
    if n < 0:
        x, n = x.inverse(), -n
    return _square_and_multiply(x.field.one(), x, n, lambda a, b: a * b)


def _ppowmod_loop(a, e, mod, p):
    return _square_and_multiply([1], _pmod(a, mod, p), e,
                                lambda x, y: _pmod(_pmul(x, y, p), mod, p))


def _unipoly_mul(a, b):
    if not a.coeffs or not b.coeffs:
        return UniPoly.zero()
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
    return UniPoly(tuple(out))


def _nfelem_mul(x, y):
    k = x.field.degree
    prod = [Fraction(0)] * (2 * k - 1)
    for i, a in enumerate(x.coords):
        if a:
            for j, b in enumerate(y.coords):
                if b:
                    prod[i + j] += a * b
    if k == 1:
        return prod[:1]
    rows = x.field._reduction_rows()
    out = prod[:k]
    for i in range(k, 2 * k - 1):
        if prod[i]:
            for j in range(k):
                out[j] += prod[i] * rows[i - k][j]
    return out


def _eta_coords(pairs):
    cur = None
    for a, b in pairs:
        if cur is None:
            cur = [a, b]
        else:
            nxt = []
            for j in range(len(cur) + 1):
                term = None
                if j < len(cur):
                    term = a * cur[j]
                if j > 0:
                    t2 = b * cur[j - 1]
                    term = t2 if term is None else term + t2
                nxt.append(term)
            cur = nxt
    return cur


def _choose_prime(f):
    best, tried = None, 0
    for p in range(3, polyfactor._PRIME_LIMIT, 2):
        fp = _monic_squarefree_mod(f, p) if is_prime(p) else None
        if fp is None:
            continue
        ddf = _ddf(fp, p)
        count = sum((len(g) - 1) // d for d, g in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        tried += 1
        if tried == 4 or count <= polyfactor._CHEAP_RECOMBINATION:
            return best
    return best


def _frobenius_degrees(f, p):
    fp = _monic_squarefree_mod(f, p)
    if fp is None:
        return None
    return {d: (len(g) - 1) // d for d, g in _ddf(fp, p)}


def _frobenius_bound(m, n):
    coeffs = m.primitive_int_coeffs()
    bound, tried, p = n, 0, 1
    while tried < numberfield._FROBENIUS_PRIMES and bound > 1:
        p += 2
        degrees = _frobenius_degrees(coeffs, p) if is_prime(p) else None
        if degrees is None:
            continue
        tried += 1
        for d in degrees:
            bound = min(bound, sum(e * c for e, c in degrees.items() if d % e == 0))
        while n % bound:
            bound -= 1
    return bound


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _mpolys(nvars, min_size=0):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(exps, fractions.filter(bool), min_size=min_size,
                           max_size=4).map(lambda t: MPoly(nvars, t))


def _nfelems(field):
    return st.lists(fractions, min_size=field.degree,
                    max_size=field.degree).map(field.element)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def _check_mpoly_power(m, n):
    want = _square_and_multiply(MPoly.constant(m.nvars, 1), m, n,
                                lambda a, b: a * b)
    assert list((m ** n).terms.items()) == list(want.terms.items())


def test_mpoly_power_keeps_the_term_order_of_result_times_base():
    # base * result would insert x^3 before x^5 here
    _check_mpoly_power(MPoly(1, {(1,): 2, (0,): 1, (2,): -1}), 3)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_binary_powering_matches_each_replaced_loop(data):
    draw = data.draw
    x = UniPoly(draw(st.lists(fractions, max_size=4)))
    n = draw(st.integers(0, 9))
    assert (x ** n).coeffs == _unipoly_pow(x, n).coeffs

    field = draw(st.sampled_from(FIELDS))
    e = draw(_nfelems(field))
    n = draw(st.integers(0 if e.is_zero() else -5, 20))
    assert (e ** n).coords == _nfelem_pow(e, n).coords

    m = draw(_mpolys(draw(st.integers(1, 3))))
    _check_mpoly_power(m, draw(st.integers(0, 7)))

    gf = GF[draw(st.sampled_from(sorted(GF)))]
    a = tuple(draw(st.lists(st.integers(0, gf.p - 1), min_size=gf.e,
                            max_size=gf.e)))
    n = draw(st.integers(0, gf.order() ** 2))
    assert gf.pow(a, n) == _square_and_multiply(gf.one, a, n, gf.mul)

    p = draw(st.sampled_from([2, 3, 5, 7, 11, 101]))
    mod = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)) + [1]
    a = draw(st.lists(st.integers(0, p - 1), max_size=9))
    n = draw(st.integers(0, 10 ** 4))
    assert _ppowmod(a, n, mod, p) == _ppowmod_loop(a, n, mod, p)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coefficient_products_match_each_replaced_loop(data):
    draw = data.draw
    a, b = (UniPoly(draw(st.lists(fractions, max_size=5))) for _ in "ab")
    assert (a * b).coeffs == _unipoly_mul(a, b).coeffs

    field = draw(st.sampled_from(FIELDS))
    x, y = draw(_nfelems(field)), draw(_nfelems(field))
    assert list((x * y).coords) == _nfelem_mul(x, y)

    k = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(fractions, fractions), min_size=k,
                          max_size=k))
    assert eta_coords(pairs) == _eta_coords(pairs)
    mp = [tuple(mpmath.mpf(c.numerator) / c.denominator for c in ab)
          for ab in pairs]
    assert eta_coords(mp) == _eta_coords(mp)
    # MPoly zero is not == int 0, so the MPoly factors are nonzero
    nv = draw(st.integers(1, 3))
    polys = draw(st.lists(st.tuples(_mpolys(nv, 1), _mpolys(nv, 1)),
                          min_size=k, max_size=k))
    assert ([list(c.terms.items()) for c in eta_coords(polys)]
            == [list(c.terms.items()) for c in _eta_coords(polys)])


@given(st.integers(2, 8), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_prime_scans_match_the_replaced_loops(n, seed):
    rng = random.Random(seed)
    while True:
        m = UniPoly([rng.randint(-20, 20) for _ in range(n)]
                    + [rng.randint(1, 6)])
        if is_irreducible(m):
            break
    f = m.primitive_int_coeffs()
    assert polyfactor._choose_prime(f) == _choose_prime(f)
    assert numberfield._frobenius_bound(m, n) == _frobenius_bound(m, n)
