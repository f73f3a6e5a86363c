"""The shared exact kernels against the loops they replaced.

unipoly._power is the binary powering of UniPoly, NFElem, MPoly, F_q and
polyfactor._ppowmod; unipoly._conv the product of UniPoly, NFElem and
symmetric.eta_coords; polyfactor._squarefree_splits the prime scan of
_choose_prime and numberfield._frobenius_bound; linalg.det_poly the
determinant behind numberfield._norm and minimal_polynomial, which replaced
a Bareiss determinant over Q[x] and a Hessenberg charpoly over Q;
numberfield._norm_det the norm that symmetric.symmetrize takes, which
replaced the (k+d)-square Sylvester determinant over Z[x_0..x_k, Y];
unipoly._subresultants the one remainder sequence behind every integer gcd
and resultant, which replaced the primitive PRS gcd and the Sylvester
resultant, with the squarefree certificate of
polyfactor.squarefree_decomposition in front of Yun's loop; and f.res mod p
the test of bad reduction, which replaced a gcd of the reduced pair.  The
loops below are those routines as they were written before, kept as
references: every result must be equal, MPoly term insertion order and mpf
bits included."""

import math
import random
from fractions import Fraction
from itertools import permutations, zip_longest
from operator import itemgetter

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import (MorphismPk, MPoly, NumberField, RationalMap1, UniPoly,
                     eta_coords, symmetrize)
from symprod import numberfield, polyfactor, symmetric
from symprod.errors import DegenerateMapError
from symprod.gf import FiniteField
from symprod.intfactor import is_prime
from symprod.linalg import det_bareiss, det_poly
from symprod.polyfactor import (_ddf, _monic_squarefree_mod, _pgcd, _pmod,
                                _pmul, _ppowmod, is_irreducible,
                                squarefree_decomposition)
from symprod.unipoly import _conv, _int_divide, _int_gcd, _primitive, _trim

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


def hessenberg_charpoly(matrix) -> UniPoly:
    """Characteristic polynomial det(xI - M) over Q in O(n^3) field
    operations (Cohen, A Course in Computational Algebraic Number Theory,
    2.2.4).

    Similarity transforms (a row swap with the matching column swap, then
    row_i -= u row_m with column_m += u column_i) bring M to upper
    Hessenberg form H without changing det(xI - M).  A column with no
    nonzero entry below the subdiagonal is already reduced.  Expanding
    det(xI - H_m) of the leading m x m block along its last column gives
    p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1),
    so a zero subdiagonal entry cuts the sum short."""
    H = [[Fraction(c) for c in row] for row in matrix]
    n = len(H)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        t = H[m][m - 1]
        for i in range(m + 1, n):
            u = H[i][m - 1] / t
            if u:
                Hi, Hm = H[i], H[m]
                for j in range(n):
                    Hi[j] -= u * Hm[j]
                for row in H:
                    row[m] += u * row[i]
    # polys[m]: p_m as a coefficient list from degree 0 (H is 0-indexed)
    polys = [[Fraction(1)]]
    for m in range(n):
        prev = polys[m]
        p = [Fraction(0)] + prev  # x p_m, becoming p_(m+1)
        for j, c in enumerate(prev):
            p[j] -= H[m][m] * c
        t = Fraction(1)
        for i in range(m - 1, -1, -1):
            t *= H[i + 1][i]
            if not t:
                break
            f = H[i][m] * t
            if f:
                for j, c in enumerate(polys[i]):
                    p[j] -= f * c
        polys.append(p)
    return UniPoly(polys[n])


def _det_over_qx(rows):
    """The Bareiss determinant with UniPoly entries."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            for j in range(k + 1, n):
                v = pk * row_i[j] - aik * row_k[j]
                row_i[j] = v // prev if k else v
        prev = pk
    return sign * a[n - 1][n - 1]


def _norm(coeffs):
    field = coeffs[0].field
    alpha = field.gen()
    rows = []
    for _ in range(field.degree):
        rows.append([UniPoly(tuple(c.coords[r] for c in coeffs))
                     for r in range(field.degree)])
        coeffs = [c * alpha for c in coeffs]
    return _det_over_qx(rows)


def _minimal_polynomial(e):
    alpha = e.field.gen()
    rows = [e.coords]
    for _ in range(e.field.degree - 1):
        e = e * alpha
        rows.append(e.coords)
    charpoly = hessenberg_charpoly(rows)
    return (charpoly // charpoly.gcd(charpoly.derivative())).monic()


def _sylvester_matrix(a, b, m, n):
    """Sylvester matrix of coefficient lists a (degree m) and b (degree n),
    low-to-high, laid out from the top coefficient down."""
    rows = []
    for i in range(n):
        row = [0] * (m + n)
        for j, c in enumerate(a):
            row[i + (m - j)] = c
        rows.append(row)
    for i in range(m):
        row = [0] * (m + n)
        for j, c in enumerate(b):
            row[i + (n - j)] = c
        rows.append(row)
    return rows


def _sylvester_resultant(f, k):
    """Res_V(h, g) = c sum_j F_j(x) Y^j over Z[x_0..x_k, Y], for
    g = sum_j x_j V^j and h = P(-V, 1) + Y Q(-V, 1): the (k+d)-square
    Sylvester determinant, unnormalised, as an {exponent tuple: int} dict."""
    d = f.d
    one = (0,) * (k + 2)
    g = [{one[:j] + (1,) + one[j + 1:]: 1} for j in range(k + 1)]
    y = one[:-1] + (1,)
    h = [{y: (-1) ** i * f.den[d - i], one: (-1) ** i * f.num[d - i]}
         for i in range(d + 1)]
    return det_poly(_sylvester_matrix(h, g, d, k), k + 2)


def sylvester_resultant(a, b, m=None, n=None):
    """Resultant via fraction-free (Bareiss) elimination of the Sylvester
    matrix of coefficient lists a and b, low-to-high.  Explicit formal
    degrees m, n serve binary forms whose leading coefficients vanish."""
    if m is None:
        m = len(a) - 1
    if n is None:
        n = len(b) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0 and n == 0:
        return Fraction(1)
    a = list(a) + [0] * (m + 1 - len(a))
    b = list(b) + [0] * (n + 1 - len(b))
    # n rows of a, then m rows of b, each from its top coefficient down
    rows = [[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)]
    den = 1
    for r in rows:
        den = math.lcm(den, *(Fraction(c).denominator for c in r))
    int_rows = [[int(Fraction(c) * den) for c in r] for r in rows]
    d = det_bareiss(int_rows)
    return Fraction(d, den ** (m + n))


def _primitive_prs_gcd(a, b):
    """unipoly._int_gcd as the primitive polynomial remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, lb = list(a), b[-1]
        while len(r) >= len(b):
            # r <- (lb/g) r - (r_lead/g) x^shift b: a pseudo-remainder step
            g = math.gcd(lb, r[-1])
            u, v, shift = lb // g, r[-1] // g, len(r) - len(b)
            r = [c * u for c in r]
            for j, bj in enumerate(b):
                r[shift + j] -= v * bj
            _trim(r)
        a, b = b, _primitive(r)
    return a


def _derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _yun(f):
    """squarefree_decomposition as Yun's loop alone, on the primitive PRS."""
    if f.degree < 1:
        return []
    b = f.primitive_int_coeffs()
    db = _derivative(b)
    a = _primitive_prs_gcd(b, db)
    b, c = _int_divide(b, a), _int_divide(db, a)
    out = []
    i = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip_longest(c, _derivative(b), fillvalue=0)])
        g = _primitive_prs_gcd(b, d)
        if len(g) > 1:
            out.append((UniPoly.from_int_list(g).monic(), i))
        b, c = _int_divide(b, g), _int_divide(d, g)
        i += 1
    return out


def degenerates_mod_p(f, p: int) -> bool:
    """True when the reduction of the P^1 map f mod p is not a morphism of
    degree d: a component vanishes, or the two share a root."""
    num = [c % p for c in f.num]
    den = [c % p for c in f.den]
    affn = _trim([num[len(num) - 1 - j] for j in range(len(num))])
    affd = _trim([den[len(den) - 1 - j] for j in range(len(den))])
    if not affn or not affd:
        # one component vanishes identically mod p (joint lift is primitive,
        # so not both); shared zeros certainly exist
        return True
    if num[0] % p == 0 and den[0] % p == 0:
        return True  # common root at infinity
    return len(_pgcd(affn, affd, p)) > 1


def _sylvester_symmetrize(res, k, d):
    """F from that resultant, terms inserted by ascending reversed exponent."""
    parts = [{} for _ in range(k + 1)]
    for e in sorted(res, key=itemgetter(*range(k + 1, -1, -1))):
        parts[e[k + 1]][e[:k + 1]] = res[e]
    return MorphismPk([MPoly(k + 1, t) for t in parts], expected_degree=d)


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


@st.composite
def _fields_with_subfields(draw):
    """(Q(a) with a root a of m(x) = p(x^j), j): a^j generates a subfield of
    degree n / j, proper when j > 1.  m is seeded, irreducible, of degree
    1-8, and mostly not monic."""
    n = draw(st.integers(1, 8))
    j = draw(st.sampled_from([i for i in (1, 2, 3, 4) if n % i == 0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        p = [rng.randint(-9, 9) for _ in range(n // j)] + [rng.randint(1, 6)]
        m = [0] * (n + 1)
        m[::j] = p
        if is_irreducible(UniPoly(m)):
            return NumberField.get(UniPoly(m)), j


def _elements(draw, field, j):
    """A field element: general, rational, or in the subfield Q(a^j); its
    coordinates are often 0."""
    kind = draw(st.sampled_from(["general", "rational", "subfield"]))
    coeff = st.one_of(st.just(Fraction(0)), fractions)
    coords = [draw(coeff) if kind == "general" or i == 0
              or (kind == "subfield" and i % j == 0) else Fraction(0)
              for i in range(field.degree)]
    return field.element(coords)


rational = st.fractions(min_value=-6, max_value=6, max_denominator=5)


def _leibniz_det(M):
    n = len(M)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


@st.composite
def _maps(draw):
    """(f, k): a polynomial or rational map of degree 2-5 with coefficients
    up to 2^64 in size, and k <= 10, 8, 6 for d = 2, 3, >= 4."""
    d = draw(st.integers(2, 5))
    coeff = st.integers(-2 ** 64, 2 ** 64)
    num = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
    if draw(st.booleans()):
        den = [0] * d + [draw(coeff.filter(bool))]
    else:
        den = draw(st.lists(coeff, min_size=d + 1, max_size=d + 1))
    try:
        f = RationalMap1(num, den)
    except DegenerateMapError:
        f = RationalMap1([1] + [0] * d, [0] * d + [1])
    return f, draw(st.integers(1, {2: 10, 3: 8}.get(d, 6)))


@st.composite
def sparse_rational_matrices(draw):
    """n x n rational matrices, n <= 6, with many zeros, and some columns
    zero below the subdiagonal, where the Hessenberg reduction finds no
    pivot."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), rational)
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    for c in draw(st.sets(st.integers(0, n - 1))):
        for i in range(c + 1, n):
            M[i][c] = Fraction(0)
    return M


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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(rational, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_against_cayley_hamilton_trace_and_det(M):
    n = len(M)
    cp = hessenberg_charpoly(M)
    assert cp.degree == n and cp.lead == 1
    assert cp.coeff(n - 1) == -sum(M[i][i] for i in range(n))
    assert cp.coeff(0) == (-1) ** n * _leibniz_det(M)
    # Cayley-Hamilton by Horner: cp(M) is the zero matrix
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(cp.coeffs):
        acc = _mat_mul(acc, M)
        acc = [[acc[i][j] + c * eye[i][j] for j in range(n)] for i in range(n)]
    assert all(v == 0 for row in acc for v in row)


@settings(max_examples=150, deadline=None)
@given(sparse_rational_matrices())
def test_hessenberg_charpoly_matches_the_determinant_over_q_x(M):
    assert hessenberg_charpoly(M) == _det_over_qx(
        [[UniPoly((-c, 1) if i == j else (-c,)) for j, c in enumerate(row)]
         for i, row in enumerate(M)])


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_norms_and_minimal_polynomials_match_the_replaced_determinants(data):
    """numberfield._norm and minimal_polynomial, one determinant over Z[x],
    against the Bareiss determinant over Q[x] and the Hessenberg charpoly:
    on polynomials with field coefficients, some 0, and on the shifted
    polynomials poly(x - s a) of roots_in_number_field."""
    draw = data.draw
    field, j = draw(st.one_of(st.sampled_from([(K, 1) for K in FIELDS]),
                              _fields_with_subfields()))
    e = _elements(draw, field, j)
    assert (numberfield.minimal_polynomial(e).coeffs
            == _minimal_polynomial(e).coeffs)
    coeffs = [_elements(draw, field, j) for _ in range(draw(st.integers(1, 4)))]
    if all(c.is_zero() for c in coeffs):
        coeffs[-1] = field.one()
    assert numberfield._norm(coeffs).coeffs == _norm(coeffs).coeffs
    s = draw(st.sampled_from([2, -2, 3, -3, 4, -4, 5, -5, 1, -1]))
    poly = draw(st.sampled_from([field.minpoly, UniPoly(
        draw(st.lists(fractions, min_size=1, max_size=3)) + [1])]))
    shifted = numberfield._shift_into_field(poly, -s, field.gen())
    assert numberfield._norm(shifted).coeffs == _norm(shifted).coeffs


def _check_symmetrize(f, k):
    """symmetrize against the Sylvester determinant: equal components, term
    insertion order and evaluation plan; and every coefficient of the
    unnormalised resultant within the bound that sets symmetrize's digit
    width, ||f||_1^k (k+1)^d.  Returns that resultant."""
    symmetric._symmetrize_cache.clear()
    res = _sylvester_resultant(f, k)
    got, want = symmetrize(f, k), _sylvester_symmetrize(res, k, f.d)
    assert ([list(c.terms.items()) for c in got.components]
            == [list(c.terms.items()) for c in want.components])
    assert got.plan == want.plan
    bound = sum(map(abs, f.num + f.den)) ** k * (k + 1) ** f.d
    assert max(map(abs, res.values())) <= bound
    return res


@given(_maps())
@settings(max_examples=60, deadline=None)
def test_symmetrize_matches_the_sylvester_determinant(fk):
    _check_symmetrize(*fk)


def test_symmetrize_reads_a_digit_near_its_width():
    """x^2 - 1048577 at k = 8: the resultant's largest coefficient has 161
    bits, and symmetrize's digits have 168 (||f||_1^8 9^2 has 167 bits)."""
    f = RationalMap1([1, 0, -1048577], [0, 0, 1])
    res = _check_symmetrize(f, 8)
    assert max(map(abs, res.values())).bit_length() == 161
    assert (1048579 ** 8 * 81).bit_length() == 167


@st.composite
def _pairs(draw):
    """(num, den): the coefficient lists of a pair of degree-d forms,
    d = 1-8, with ints up to 2^64 in size or Fractions; num[d], den[d] or
    both are often 0, den is sometimes c t^d, and the two sometimes share a
    linear factor."""
    d = draw(st.integers(1, 8))
    coeff = st.one_of(st.integers(-2 ** 64, 2 ** 64), st.integers(-3, 3),
                      st.fractions(min_value=-2 ** 64, max_value=2 ** 64,
                                   max_denominator=2 ** 16))
    shared = d > 1 and draw(st.integers(0, 4)) == 0
    size = d if shared else d + 1
    num, den = (draw(st.lists(coeff, min_size=size, max_size=size))
                for _ in "nd")
    if shared:
        u, v = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        num, den = _conv(num, [u, v]), _conv(den, [u, v])
    if draw(st.integers(0, 4)) == 0:
        den = [0] * d + [draw(coeff)]
    lead = draw(st.sampled_from(["num", "den", "both", None]))
    if lead in ("num", "both"):
        num[d] = 0
    if lead in ("den", "both"):
        den[d] = 0
    return num, den


@given(_pairs())
@settings(max_examples=300, deadline=None)
def test_resultants_match_the_sylvester_determinant(pair):
    """RationalMap1.res (formal degrees d, d, on the primitive lift) and
    UniPoly.resultant (true degrees, Fraction coefficients) against the
    Sylvester determinant."""
    num, den = pair
    d = len(num) - 1
    try:
        f = RationalMap1(num, den)
    except DegenerateMapError:
        assert sylvester_resultant(num, den, d, d) == 0
    else:
        assert type(f.res) is int
        assert f.res == sylvester_resultant(list(f.num), list(f.den), d, d) != 0
    a, b = UniPoly(num), UniPoly(den)
    assert a.resultant(b) == sylvester_resultant(list(a.coeffs), list(b.coeffs))


def _int_poly(rng, n):
    """A seeded integer list of degree n: small or 30-bit coefficients, a
    nonzero lead, often 3, 6 or 9."""
    size = rng.choice([3, 9, 2 ** 30])
    return ([rng.randint(-size, size) for _ in range(n)]
            + [rng.choice([-9, -3, -1, 1, 2, 3, 6, 7, 9])])


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_gcds_and_squarefree_decompositions_match_the_primitive_prs(seed):
    """100 seeded pairs a c, b c of degree up to 14 per example, 5000 in
    all, against the primitive PRS; and Yun's loop, with the squarefree
    certificate in front, on products of repeated factors."""
    rng = random.Random(seed)
    for _ in range(100):
        c = _int_poly(rng, rng.randint(0, 6))
        a, b = (_conv(_int_poly(rng, rng.randint(0, 8)), c) for _ in "ab")
        assert _int_gcd(a, b) == _primitive_prs_gcd(a, b)
    for _ in range(5):
        f = [rng.choice([-2, 1, 3])]
        for _ in range(rng.randint(1, 4)):
            g = _int_poly(rng, rng.randint(1, 4))
            for _ in range(rng.randint(1, 3)):
                f = _conv(f, g)
        assert squarefree_decomposition(UniPoly(f)) == _yun(UniPoly(f))


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_squarefree_verdicts_match_the_gcd_with_the_derivative(seed):
    """The verdict minimal_polynomial and roots_in_number_field read from
    squarefree_decomposition, no part of multiplicity above 1, is gcd(f,
    f') = 1 over Z (the primitive PRS), on 20 seeded polynomials per
    example: squarefree or times a square, some with a lead that 3, 5, 7,
    11 and 13 all divide, so that no prime of the certificate is usable."""
    rng = random.Random(seed)
    for _ in range(20):
        f = _int_poly(rng, rng.randint(1, 10))
        if rng.random() < 0.3:
            f[-1] *= 3 * 5 * 7 * 11 * 13
        if rng.random() < 0.4:
            g = _int_poly(rng, rng.randint(1, 3))
            f = _conv(f, _conv(g, g))
        verdict = not any(i > 1 for _g, i in squarefree_decomposition(UniPoly(f)))
        assert verdict == (len(_primitive_prs_gcd(f, _derivative(f))) == 1), f


def test_the_squarefree_certificate_refuses_a_prime_dividing_the_lead():
    # (3x + 1)^2 (x^2 + 1) is x^2 + 1 mod 3, squarefree there
    f = UniPoly((1, 3)) ** 2 * UniPoly((1, 0, 1))
    assert squarefree_decomposition(f) == _yun(f) == [
        (UniPoly((1, 0, 1)), 1), (UniPoly((Fraction(1, 3), 1)), 2)]


@st.composite
def _small_maps(draw):
    """Maps of degree 1-5 with coefficients in [-20, 20], so that small
    primes divide the resultant often."""
    d = draw(st.integers(1, 5))
    coeffs = st.lists(st.integers(-20, 20), min_size=d + 1, max_size=d + 1)
    try:
        return RationalMap1(draw(coeffs), draw(coeffs))
    except DegenerateMapError:
        return RationalMap1([1] + [0] * d, [0] * d + [1])


@given(_small_maps())
@settings(max_examples=200, deadline=None)
def test_bad_reduction_is_read_from_the_resultant(f):
    for p in filter(is_prime, range(60)):
        assert (f.res % p == 0) == degenerates_mod_p(f, p)
