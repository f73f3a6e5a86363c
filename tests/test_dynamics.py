import math
import random
import signal
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symprod import (DEFAULT_BUDGET, P1_INFINITY, AlgebraicPoint, BinaryForm,
                     BudgetExceededError, DegenerateMapError, DomainError,
                     NumberField, OrbitClassification, PeriodBoundInput, PkPoint,
                     RationalMap1, UniPoly, apply, bad_primes, bad_primes_sym,
                     canonical_height, canonical_height_nf, default_n_max, eta,
                     eta_tilde, exponent_bound, fixed_point_form, form_of_point,
                     green_local, morphism_certificate, morphism_of_map,
                     multiplier_F, orbit_classify, p1_point, parse_map,
                     period_bound, periods_mod_p, point_of_form,
                     preperiodic_graph, preperiodicity_bound,
                     rational_periodic_points, rational_preimages, symmetrize,
                     zero_form_to_point_form)
from symprod import dynamics
from symprod.dynamics import _dynatomic_part, _form_at, _Part, _pullback_factors
from symprod.unipoly import _conv

from test_heights import _CYCLES_POOL_CS

F = Fraction


def _map(text):
    return parse_map(text).map


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_transfer_values():
    f = _map("x^2 - 2")
    F4 = symmetrize(f, 4)
    assert apply(F4, PkPoint((81, 108, 54, 12, 1))) == eta([p1_point(7)] * 4)
    assert apply(F4, PkPoint((1, -1, 1, -1, 1))).coords == (31, -49, 31, -9, 1)


def test_apply_polynomial_invariant_hyperplane():
    f = _map("x^2 - 29/16")
    F3 = symmetrize(f, 3)
    rng = random.Random(3)
    for _ in range(10):
        pts = [p1_point(F(rng.randrange(-9, 10), rng.randrange(1, 8)))
               for _ in range(3)]
        p = eta(pts)
        q = apply(F3, p)
        # last coordinate of the raw evaluation is (last coordinate)^2 times
        # the lift scalar; projectively the hyperplane at infinity is invariant
        assert (q.coords[-1] == 0) == (p.coords[-1] == 0)


# ---------------------------------------------------------------------------
# orbit classification
# ---------------------------------------------------------------------------


def test_orbit_classify_rational():
    assert orbit_classify(_map("x^2 - 2"), p1_point(2)) == \
        OrbitClassification("preperiodic", tail=0, period=1)
    cls = orbit_classify(_map("x^2 - 29/16"), p1_point(F(5, 4)))
    assert cls == OrbitClassification("preperiodic", tail=0, period=3)
    w = orbit_classify(_map("x^2 + 1"), p1_point(0))
    assert w.status == "wandering"
    assert w.escape_index is not None and w.bound is not None


def test_orbit_classify_refuses_a_morphism_of_pk():
    with pytest.raises(DomainError):
        orbit_classify(symmetrize(_map("x^2 - 2"), 2), PkPoint((1, 0, -2)))


def test_orbit_classify_tail():
    # 3/4 -> -5/4 -> -1/4 enters the 3-cycle of x^2 - 29/16
    cls = orbit_classify(_map("x^2 - 29/16"), p1_point(F(3, 4)))
    assert cls.preperiodic and cls.period == 3 and cls.tail == 2


def test_orbit_classify_algebraic():
    f = _map("x^2 - 29/16")
    K = NumberField.get(UniPoly((23, -164, 16, 64)))
    cls = orbit_classify(f, AlgebraicPoint(K, K.gen()))
    assert cls.preperiodic
    # sqrt(2) wanders under x^2 - 29/16
    S = NumberField.get(UniPoly((-2, 0, 1)))
    cls2 = orbit_classify(f, AlgebraicPoint(S, S.gen()))
    assert cls2.status == "wandering"


def test_orbit_classify_infinity():
    cls = orbit_classify(_map("x^2 + 1"), AlgebraicPoint.at_infinity())
    assert cls.preperiodic and cls.tail == 0 and cls.period == 1


def _walk_recomputing(start, step, shadow, cert):
    """The reference walk: eta~ of every point of the orbit, taken anew
    before each step."""
    seen = {start: 0}
    cur = start
    for i in range(1, 100000):
        if max(abs(c) for c in shadow(cur).coords) > cert.escape_threshold:
            return OrbitClassification("wandering", escape_index=i - 1,
                                       bound=cert.bound)
        cur = step(cur)
        j = seen.get(cur)
        if j is not None:
            return OrbitClassification("preperiodic", tail=j, period=i - j)
        seen[cur] = i
    raise AssertionError("no repeat or escape")


def _check_pushed_walk(f, point):
    """orbit_classify's walk pushes the shadow forward by F: each pushed
    shadow is eta~ of the orbit's point, and the answer is the reference
    walk's.  Returns the orbit's points after the start."""
    kf = 1 if point.field is None else point.field.degree
    Fk = symmetrize(f, kf)
    cert = morphism_certificate(Fk, bad=bad_primes_sym(f, kf))
    points, pushed = [], []

    def step(q):
        points.append(f.apply_algebraic(q))
        return points[-1]

    def push(sh):
        pushed.append(Fk.apply(sh))
        return pushed[-1]

    got = dynamics._walk(point, step, eta_tilde(point, kf), push, cert)
    assert pushed == [eta_tilde(q, kf) for q in points[:len(pushed)]]
    assert got == orbit_classify(f, point) == _walk_recomputing(
        point, f.apply_algebraic, lambda q: eta_tilde(q, kf), cert)
    return points


def test_pushed_shadows_through_a_subfield_and_a_pole():
    # sqrt(3) -> 3 - 29/16 drops to Q; i -> 0 -> oo under (z^2 + t^2)/(z t)
    S = NumberField.get(UniPoly((-3, 0, 1)))
    points = _check_pushed_walk(_map("x^2 - 29/16"), AlgebraicPoint(S, S.gen()))
    assert points[0] == AlgebraicPoint.rational(F(19, 16))
    I = NumberField.get(UniPoly((1, 0, 1)))
    points = _check_pushed_walk(_map("[z^2 + t^2, z*t]"), AlgebraicPoint(I, I.gen()))
    assert points[:2] == [AlgebraicPoint.rational(0), AlgebraicPoint.at_infinity()]


def test_a_point_keeps_its_minimal_polynomial(monkeypatch):
    """orbit_classify takes eta~ once, of the start, and canonical_height_nf
    of the same point reuses its minimal polynomial."""
    from symprod import projective

    calls = []
    compute = projective.minimal_polynomial
    monkeypatch.setattr(projective, "minimal_polynomial",
                        lambda e: calls.append(e) or compute(e))
    f = _map("x^2 - 29/16")
    for poly in ((23, -164, 16, 64), (-2, 0, 1)):  # a 3-cycle, a wanderer
        K = NumberField.get(UniPoly(poly))
        pt = AlgebraicPoint(K, K.gen())
        calls.clear()
        orbit_classify(f, pt)
        canonical_height_nf(f, pt)
        assert calls == [pt.value]


def _is_square(q):
    return q >= 0 and all(math.isqrt(n) ** 2 == n
                          for n in (q.numerator, q.denominator))


@given(st.sampled_from(_CYCLES_POOL_CS), st.integers(2, 5),
       st.sampled_from(["eisenstein", "sqrt", "cycle"]), st.data())
@settings(max_examples=60, deadline=None)
def test_pushed_shadows_equal_eta_tilde_along_pool_walks(c, k, kind, data):
    """Walks of x^2 + c from an element of a field of degree k, Eisenstein
    at 2 or 3; from a square root, whose image is rational; or from +-beta,
    beta a quadratic fixed point or a point of a 2-cycle, so that the walk
    ends in a repeat."""
    draw = data.draw
    coords = [draw(st.integers(-2, 2)), 1] + [0] * (k - 2)
    if kind == "eisenstein":
        p = draw(st.sampled_from([2, 3]))
        poly = ([p * draw(st.sampled_from([u for u in (-2, -1, 1, 2) if u % p]))]
                + [p * draw(st.integers(-1, 1)) for _ in range(k - 1)] + [1])
        if draw(st.booleans()):
            coords = [draw(st.integers(-2, 2)) for _ in range(k)]
    elif kind == "sqrt":
        poly, coords = [-draw(st.sampled_from([2, 3, 5, 6, 7, -1, -2])), 0, 1], [0, 1]
    else:
        poly = draw(st.sampled_from([[c, -1, 1], [c + 1, 1, 1]]))
        assume(not _is_square(poly[1] ** 2 - 4 * poly[0]))
        coords = [0, draw(st.sampled_from([1, -1]))]
    assume(any(coords[1:]))
    K = NumberField.get(UniPoly(poly))
    _check_pushed_walk(RationalMap1((1, 0, c), (0, 0, 1)),
                       AlgebraicPoint(K, K.element(coords)))


def _size(x):
    """Largest coprime coordinate of a rational number, or of infinity (None)."""
    return 1 if x is None else max(abs(x.numerator), x.denominator)


# Each map as its affine formula on Fractions, infinity as None.
_ORBIT_MAPS = {
    "[t^2, z^2]": lambda x: (None if x == 0 else F(0) if x is None
                             else 1 / (x * x)),
    "[z^2 - 3*t^2 + z*t, 5*z^2 + t^2]": lambda x: (
        F(1, 5) if x is None else (x * x + x - 3) / (5 * x * x + 1)),
}


@given(st.sampled_from(["x^2 + c"] + sorted(_ORBIT_MAPS)),
       st.fractions(min_value=-3, max_value=1, max_denominator=6),
       st.one_of(st.none(), st.fractions(min_value=-4, max_value=4,
                                         max_denominator=8)))
@settings(max_examples=120, deadline=None)
def test_orbit_classify_matches_fraction_iteration(name, c, x):
    """On rational points and infinity, orbit_classify agrees with plain
    Fraction iteration: a preperiodic answer has the least tail and least
    period, and a wandering one names the first iterate above the escape
    threshold, whose naive height exceeds the bound."""
    if name == "x^2 + c":
        f = _map(f"x^2 + ({c.numerator})/{c.denominator}")
        step = lambda y: None if y is None else y * y + c  # noqa: E731
    else:
        f, step = _map(name), _ORBIT_MAPS[name]
    point = AlgebraicPoint.at_infinity() if x is None else AlgebraicPoint.rational(x)
    cls = orbit_classify(f, point)
    orbit = [x]
    last = cls.escape_index if cls.tail is None else cls.tail + cls.period
    for _ in range(last):
        orbit.append(step(orbit[-1]))
    if cls.preperiodic:
        assert orbit[-1] == orbit[cls.tail]
        assert len(set(orbit[:-1])) == len(orbit) - 1
    else:
        assert cls.status == "wandering"
        threshold = morphism_certificate(symmetrize(f, 1),
                                         bad=bad_primes(f)).escape_threshold
        assert [_size(y) > threshold for y in orbit] == [False] * last + [True]
        assert math.log(_size(orbit[-1])) > cls.bound
        assert len(set(orbit)) == len(orbit)


# ---------------------------------------------------------------------------
# good-reduction data and bounds
# ---------------------------------------------------------------------------


def test_periods_mod_p_power_map():
    # enumeration of P^1(F_3) under z^2: 0, 1, oo fixed; -1 is a tail into 1.
    fsq = _map("[z^2, t^2]")
    assert periods_mod_p(fsq, 3, 1) == {1}


def test_periods_mod_p_contains_global_period():
    f = _map("x^2 - 29/16")
    s = periods_mod_p(f, 5, 3)
    assert 3 in s
    # reduction preserves periodicity at good primes: every global period of
    # a rational periodic point appears (k = 1 data, global periods 1 and 3)
    s1 = periods_mod_p(f, 5, 1)
    assert any(m in (1, 3) and 3 % m == 0 for m in s1)


# q is a product of two 20-digit primes, so factoring the resultant of
# x^2 + 1/q^2 is over budget: good primes are told by reduction alone
Q_MAP = "x^2 + 1/100000000000000001380000000000000004437^2"


def test_periods_mod_p_rejects_bad_prime():
    with pytest.raises(DomainError):
        periods_mod_p(_map("x^2 - 29/16"), 2, 1)
    assert periods_mod_p(_map(Q_MAP), 3, 1) == {1}


def test_periods_mod_p_refuses_non_primes_and_k_below_1():
    # Z/9 and Z/15 are not fields, and 1 is no prime of bad reduction
    f = _map("x^2 - 29/16")
    for p, k, message in ((9, 1, "prime"), (15, 2, "prime"), (1, 1, "prime"),
                          (0, 1, "prime"), (-5, 1, "prime"), (5, 0, "k")):
        with pytest.raises(DomainError, match=message):
            periods_mod_p(f, p, k)


def test_exponent_bound():
    assert exponent_bound(3, 1) == 1
    assert exponent_bound(3, 2) == 2
    assert exponent_bound(5, 8) == 4
    assert exponent_bound(2, 1) == 3     # (sqrt5 + 3)/2 is phi^2
    assert exponent_bound(2, 2) == 4
    assert exponent_bound(2, 3) == 5     # (3 sqrt5 + 7)/2 is phi^4 exactly
    # v = 8 is a Fibonacci boundary where floating point rounds to 6.9999...;
    # the exact comparison certifies the floor 7
    assert exponent_bound(2, 8) == 7
    with pytest.raises(DomainError):
        exponent_bound(3, 0)


def _sign_plus_sqrt5(a: int, b: int) -> int:
    """Sign of a + b*sqrt(5), exactly."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    s = a * a - 5 * b * b
    if a > 0:
        return 1 if s > 0 else -1
    return -1 if s > 0 else 1


def _exponent_bound_2_oracle(v: int) -> int:
    """floor(1 + log_phi(x_v)), x_v = (sqrt5 v + sqrt(5 v^2 + 4))/2, by
    testing phi^(s+1) <= x_v as signs in Z[sqrt5], with
    phi^s = (L_s + F_s sqrt5)/2 (Lucas and Fibonacci numbers)."""
    target = 5 * v * v + 4  # R^2 with R = sqrt(5 v^2 + 4)
    s = 0
    L, Fib = 2, 0  # Lucas and Fibonacci at index 0
    Ln, Fn = 1, 1  # index 1
    while True:
        # phi^(s+1) <= x_v  <=>  Ln + (Fn - v) sqrt5 <= R
        D = Fn - v
        if _sign_plus_sqrt5(Ln, D) > 0 and _sign_plus_sqrt5(
                Ln * Ln + 5 * D * D - target, 2 * Ln * D) > 0:
            return 1 + s
        s += 1
        L, Ln = Ln, L + Ln
        Fib, Fn = Fn, Fib + Fn


def test_exponent_bound_2_matches_the_sqrt5_oracle():
    for v in range(1, 10 ** 4 + 1):
        assert exponent_bound(2, v) == _exponent_bound_2_oracle(v), v


@given(st.integers(1, 10 ** 60 - 1))
@settings(max_examples=200, deadline=None)
def test_exponent_bound_2_matches_the_sqrt5_oracle_large(v):
    assert exponent_bound(2, v) == _exponent_bound_2_oracle(v)


def test_period_bound_example():
    assert period_bound(PeriodBoundInput(Np=3, k=2, p=3, vp=1)) == 234
    with pytest.raises(DomainError):
        PeriodBoundInput(Np=3, k=0, p=3, vp=1)
    with pytest.raises(DomainError):
        PeriodBoundInput(Np=6, k=2, p=3, vp=1)


# ---------------------------------------------------------------------------
# periodic points
# ---------------------------------------------------------------------------


def test_fixed_point_form_structure():
    f = _map("x^2 - 2")
    W = fixed_point_form(f, 1)
    # fixed points of x^2-2: 2, -1, infinity
    factors = {(g.coeffs, m) for g, m in W.factor()}
    assert ((1, 0), 1) in factors          # X encodes infinity
    assert ((2, 1), 1) in factors or ((2, 1), 1) in factors
    assert ((1, -1), 1) in factors or ((1, -1), 1) in factors


def test_rational_periodic_points_x21():
    f = _map("x^2 - 21/16")
    pts = dict(rational_periodic_points(f, 2, 2))
    collapsed = eta([p1_point(F(-5, 4)), p1_point(F(1, 4))])
    assert pts[collapsed] == 1
    pair = eta([p1_point(F(7, 4)), p1_point(F(-3, 4))])
    assert pts[pair] == 1


def test_rational_periodic_points_x29_three_cycle():
    f = _map("x^2 - 29/16")
    pts = dict(rational_periodic_points(f, 3, 3))
    cyc = eta([p1_point(F(5, 4)), p1_point(F(-1, 4)), p1_point(F(-7, 4))])
    assert pts[cyc] == 1      # the 3-cycle collapses to a fixed point


def test_period_verification_property():
    f = _map("x^2 - 29/16")
    F3 = symmetrize(f, 3)
    for p, n in rational_periodic_points(f, 3, 3):
        cur = p
        for j in range(1, n):
            cur = apply(F3, cur)
            assert cur != p, (p, n, j)
        assert apply(F3, cur) == p


def test_budget_error():
    with pytest.raises(BudgetExceededError):
        rational_periodic_points(_map("x^2 - 2"), 2, 13, budget=4096)
    # points of P^k are degree-k forms: k itself is capped by the budget
    for build in (symmetrize, default_n_max):
        with pytest.raises(BudgetExceededError):
            build(_map("x^2 - 2"), DEFAULT_BUDGET + 1)


def test_default_n_max():
    f = _map("x^2 - 2")
    assert default_n_max(f, 2, budget=64) == 6
    assert default_n_max(f, 2) == default_n_max(f, 2, budget=64)
    assert default_n_max(_map(Q_MAP), 2) == 6


def test_a_map_of_degree_1_is_refused_by_every_bound():
    """Every height constant divides by d - 1, and the budget loop of
    default_n_max never ended at d = 1; an alarm stops a call that walks
    on instead of refusing."""
    f = RationalMap1([1, 1], [0, 1])
    M = morphism_of_map(f)
    calls = [lambda: preperiodicity_bound(f),
             lambda: orbit_classify(f, AlgebraicPoint.rational(3)),
             lambda: green_local(M, p1_point(3), "arch"),
             lambda: canonical_height(M, p1_point(3)),
             lambda: canonical_height_nf(f, AlgebraicPoint.rational(3)),
             lambda: morphism_certificate(M),
             lambda: default_n_max(f, 2),
             lambda: preperiodic_graph(f, 2)]

    def stop(*_):
        raise TimeoutError("the call walks on instead of refusing")
    old = signal.signal(signal.SIGALRM, stop)
    try:
        for call in calls:
            signal.alarm(5)
            with pytest.raises(DomainError, match="degree at least 2"):
                call()
            signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# preimages
# ---------------------------------------------------------------------------


def test_preimage_examples():
    f2 = _map("x^2 - 2")
    F1 = symmetrize(f2, 1)
    got = rational_preimages(f2, F1, p1_point(2))
    assert {p.coords for p in got} == {(2, 1), (2, -1)}

    F2 = symmetrize(f2, 2)
    q = eta([p1_point(2), p1_point(2)])
    got2 = set(rational_preimages(f2, F2, q))
    want = {eta([p1_point(2), p1_point(2)]),
            eta([p1_point(2), p1_point(-2)]),
            eta([p1_point(-2), p1_point(-2)])}
    assert got2 == want

    fp = _map("x^2 + 1")
    assert rational_preimages(fp, symmetrize(fp, 1), p1_point(-2)) == []


def test_preimage_completeness_box_oracle():
    """Brute force over P^2(Q) with coordinates bounded by 50: every solution
    of F(p) = q in the box is produced by rational_preimages."""
    f = _map("x^2 - 2")
    F2 = symmetrize(f, 2)
    a, b, c = np.meshgrid(np.arange(-50, 51), np.arange(-50, 51),
                          np.arange(-50, 51), indexing="ij", sparse=True)
    comps = []
    for comp in F2.components:
        acc = np.zeros((101, 101, 101), dtype=np.int64)
        for (e0, e1, e2), coef in comp.terms.items():
            acc += int(coef) * (a ** e0) * (b ** e1) * (c ** e2)
        comps.append(acc)
    for target in (eta([p1_point(2), p1_point(2)]),
                   eta([p1_point(1), p1_point(-1)]),
                   eta([p1_point(0), p1_point(2)])):
        t0, t1, t2 = target.coords
        mask = ((comps[0] * t1 == comps[1] * t0)
                & (comps[0] * t2 == comps[2] * t0)
                & (comps[1] * t2 == comps[2] * t1)
                & ~((comps[0] == 0) & (comps[1] == 0) & (comps[2] == 0)))
        idx = np.argwhere(mask)
        brute = set()
        for i, j, k in idx:
            coords = (int(i) - 50, int(j) - 50, int(k) - 50)
            if any(coords):
                brute.add(PkPoint(coords))
        got = set(rational_preimages(f, F2, target))
        in_box = {p for p in got if max(abs(x) for x in p.coords) <= 50}
        assert brute == in_box, target


# ---------------------------------------------------------------------------
# preperiodic graphs
# ---------------------------------------------------------------------------


def test_power_map_graph():
    g = preperiodic_graph(_map("[z^2, t^2]"), 1, 1)
    pts = {n.point.coords: (n.tail, n.period) for n in g.nodes}
    assert pts == {(0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (0, 1),
                   (1, -1): (1, 1)}


def test_graph_closure_without_F_decomposes_each_orbit_once(monkeypatch):
    # the closure matches preimages by pushforward alone, so F is applied
    # only by the periodic search; and each Galois orbit of f among the
    # nodes' factors is decomposed once, however many nodes hold it
    from symprod import dynamics
    from symprod.projective import MorphismPk

    applied, decomposed = [], []
    real_apply, real_conjugate = MorphismPk.apply, dynamics.conjugate_points
    monkeypatch.setattr(MorphismPk, "apply",
                        lambda F, p: applied.append(p) or real_apply(F, p))
    monkeypatch.setattr(dynamics, "conjugate_points",
                        lambda p: decomposed.append(p) or real_conjugate(p))
    for text, k, n_max in (("x^2 - 29/16", 3, 3), ("[z^2 - t^2, z*t]", 2, 3)):
        applied.clear()
        rational_periodic_points(_map(text), k, n_max)
        periodic_calls = len(applied)
        applied.clear()
        decomposed.clear()
        g = preperiodic_graph(_map(text), k, n_max)
        assert len(applied) == periodic_calls
        orbits = {h for n in g.nodes for h, _m in n.point.factors()}
        assert len(decomposed) == len(orbits) == len(g.orbits)
        assert {p.coords for p in decomposed} == {h.coeffs for h in orbits}
        # a second graph of the same map object, at k + 1, decomposes only
        # the orbits the first did not hold (6 of 27, and 0 of 8)
        decomposed.clear()
        g2 = preperiodic_graph(g.f, k + 1, n_max)
        orbits2 = {h for n in g2.nodes for h, _m in n.point.factors()}
        new = orbits2 - orbits
        assert orbits <= orbits2 and len(decomposed) == len(new)
        assert {p.coords for p in decomposed} == {h.coeffs for h in new}


def _check_graph_by_F(f, g):
    """F maps every node to a node, along the node's edge, one step down its
    tail or around its cycle (the check the closure does not make)."""
    F = symmetrize(f, g.k)
    index = {n.point: i for i, n in enumerate(g.nodes)}
    dst = dict(g.edges)
    assert len(dst) == len(g.edges) == len(g.nodes)
    for i, n in enumerate(g.nodes):
        img = apply(F, n.point)
        assert img in index, n.point
        assert dst[i] == index[img]
        target = g.nodes[index[img]]
        assert (target.tail, target.period) == (max(n.tail - 1, 0), n.period)


_SQUARE_DENOMINATOR_CS = sorted({F(a, b * b) for b in range(1, 10)
                                 for a in range(-4 * b * b, b * b + 1)
                                 if math.gcd(a, b) == 1})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SQUARE_DENOMINATOR_CS), st.integers(1, 4),
       st.integers(1, 3))
@example(F(-29, 16), 6, 3)
def test_graph_edges_agree_with_F(c, k, n_max):
    f = RationalMap1((1, 0, c), (0, 0, 1))
    _check_graph_by_F(f, preperiodic_graph(f, k, n_max))


def test_graph_closure_and_recovery_soundness():
    f = _map("x^2 - 21/16")
    g = preperiodic_graph(f, 2, 2)
    _check_graph_by_F(f, g)
    for n in g.nodes:
        periods = []
        for fld, pt, _m in n.components:
            cls = orbit_classify(f, pt)
            assert cls.preperiodic
            periods.append(cls.period)
        # the node period divides the lcm of the recovered point periods
        assert math.lcm(*periods) % n.period == 0


def test_graph_periods_divisible_compatible_with_mod_p():
    f = _map("x^2 - 21/16")
    g = preperiodic_graph(f, 2, 2)
    for p in (3, 5):
        s = periods_mod_p(f, p, 2)
        for node in g.nodes:
            if node.tail == 0:
                assert any(node.period % m == 0 for m in s), (p, node.period)


def test_graph_k5_contains_quintic_cycle_block():
    # the 5-symmetric product of x^2 - 16/9 has a fixed point encoding a
    # rational 5-cycle over a degree-5 field, and the graph picks up its
    # quintic tail orbit
    f = _map("x^2 - 16/9")
    g = preperiodic_graph(f, 5, 5)
    quintic_nodes = [n for n in g.nodes
                     if any(fld is not None and fld.degree == 5
                            for fld, _p, _m in n.components)]
    assert quintic_nodes


def test_graph_export_shapes():
    g = preperiodic_graph(_map("[z^2, t^2]"), 1, 1)
    dot = g.to_dot()
    assert dot.startswith("digraph preperiodic {") and "minpoly=" in dot
    data = g.to_json()
    assert data["schema_version"] == "1"
    assert {e["src"] for e in data["edges"]} <= set(range(len(g.nodes)))
    assert all({"id", "coords", "tail", "period", "components"} <= set(n)
               for n in data["nodes"])


# ---------------------------------------------------------------------------
# each new piece factored once: dynatomic parts, pullbacks, carried factors
# ---------------------------------------------------------------------------


@st.composite
def _small_maps(draw):
    """A map of degree 2 or 3 with small coefficients: a polynomial, or a
    pair whose denominator does not vanish at 0."""
    d = draw(st.integers(2, 3))
    coef = st.integers(-3, 3)
    if draw(st.booleans()):
        num = [draw(st.integers(1, 2))] + [draw(coef) for _ in range(d)]
        den = [0] * d + [draw(st.integers(1, 4))]
    else:
        num = [draw(coef) for _ in range(d + 1)]
        den = [draw(coef) for _ in range(d)] + [draw(st.integers(1, 3))]
    try:
        return RationalMap1(num, den)
    except DegenerateMapError:
        assume(False)


# 0 and infinity periodic (or preperiodic) in several ways
_EDGE_MAPS = ("[t^2, z^2]", "x^2 - x", "x^2 - 1", "x^3", "[z^2 - t^2, z*t]",
              "[z^2 + z*t, t^2 - z*t]", "x^2 - 29/16")


def _mobius(n):
    out, m, p = 1, n, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return out


def _form_product(forms):
    prod = [1]
    for g in forms:
        prod = _conv(prod, g.coeffs)
    return BinaryForm(prod)


def _check_dynatomic_parts(f, n_max):
    for n in range(1, n_max + 1):
        W = fixed_point_form(f, n)
        parts = [_dynatomic_part(f, m).phi for m in range(1, n + 1) if n % m == 0]
        assert _form_product(parts) == W, (f, n)
        # Phi*_n = prod W_m^mu(n/m), cross-multiplied
        plus = [fixed_point_form(f, m) for m in range(1, n + 1)
                if n % m == 0 and _mobius(n // m) == 1]
        minus = [fixed_point_form(f, m) for m in range(1, n + 1)
                 if n % m == 0 and _mobius(n // m) == -1]
        assert _form_product([parts[-1]] + minus) == _form_product(plus), (f, n)


@pytest.mark.parametrize("text", _EDGE_MAPS)
def test_dynatomic_parts_multiply_to_fixed_point_forms(text):
    _check_dynatomic_parts(_map(text), 5)


@given(_small_maps())
@settings(max_examples=25, deadline=None)
def test_dynatomic_parts_multiply_to_fixed_point_forms_random(f):
    _check_dynatomic_parts(f, 5)


def _multiset_points(forms, k):
    """Points of P^k whose forms are products of forms from the list."""
    pool = [g for g in forms if g.degree <= k]
    for r in range(1, k + 1):
        for combo in combinations_with_replacement(pool, r):
            if sum(g.degree for g in combo) == k:
                yield point_of_form(_form_product(combo))


def _periodic_by_fixed_point_forms(f, k, n_max):
    """Oracle: candidates from the full factorization of each W_n."""
    F = symmetrize(f, k)
    found = {}
    for n in range(1, n_max + 1):
        forms = [g for g, _m in fixed_point_form(f, n).factor()]
        for p in _multiset_points(forms, k):
            if p not in found:
                cur, j = apply(F, p), 1
                while cur != p:
                    cur, j = apply(F, cur), j + 1
                    assert j <= n
                found[p] = j
    return sorted(found.items())


def _preimages_by_full_pullback(f, F, q):
    """Oracle: candidates from the full factorization of the pullback of
    q's form."""
    H = _form_at(form_of_point(q).coeffs, f.den, [-c for c in f.num])
    forms = [g for g, _m in zero_form_to_point_form(BinaryForm(H)).factor()]
    return sorted({p for p in _multiset_points(forms, F.k) if apply(F, p) == q})


def _check_carried(points):
    for p in points:
        assert Counter(p.factors()) == Counter(form_of_point(p).factor()), p
        assert p == PkPoint(p.coords) and hash(p) == hash(PkPoint(p.coords))


def _check_searches(f, k, n_max, extra):
    F = symmetrize(f, k)
    periodic = rational_periodic_points(f, k, n_max)
    assert periodic == _periodic_by_fixed_point_forms(f, k, n_max)
    _check_carried(p for p, _n in periodic)
    targets = [p for p, _n in periodic] + [apply(F, eta(pts)) for pts in extra]
    for q in targets:
        got = rational_preimages(f, F, q)
        assert got == _preimages_by_full_pullback(f, F, q), (f, q)
        _check_carried(got)


@pytest.mark.parametrize("text,k,n_max", [
    ("x^2 - 29/16", 3, 3), ("x^2 - 21/16", 3, 2), ("x^2 - 3/4", 3, 4),
    ("[t^2, z^2]", 3, 2), ("[z^2 - t^2, z*t]", 2, 3), ("x^3 - x", 2, 2),
    ("x^2 - 29/16", 4, 2), ("[z^3 - 3*z*t^2, 3*z^2*t - t^3]", 3, 2)])
def test_searches_match_full_factorization(text, k, n_max):
    extra = [[p1_point(a) for a in pts] for pts in ([0] * k, [1] + [-1] * (k - 1))]
    _check_searches(_map(text), k, n_max, extra)


@pytest.mark.parametrize("text,k,n_max", [
    ("x^2 - 29/16", 3, 4), ("x^2 - 3/4", 3, 4), ("[z^2 - t^2, z*t]", 2, 4),
    ("x^2 - 2", 4, 3)])
def test_each_candidate_multiset_is_built_once(monkeypatch, text, k, n_max):
    built = []
    build = dynamics.point_of_factors

    def recording(counts):
        built.append(frozenset(counts))
        return build(counts)

    monkeypatch.setattr(dynamics, "point_of_factors", recording)
    f = _map(text)
    got = rational_periodic_points(f, k, n_max)
    assert len(built) == len(set(built)) == len(got) > 0
    assert got == _periodic_by_fixed_point_forms(f, k, n_max)


@given(_small_maps(), st.integers(1, 3),
       st.lists(st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), None]),
                min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_searches_match_full_factorization_random(f, k, xs):
    pts = [P1_INFINITY if x is None else p1_point(x) for x in xs[:k]]
    _check_searches(f, k, 3 if f.d == 2 else 2, [pts])


def test_pullbacks_are_kept_per_map():
    # the same target pulled back under two maps: 0 has preimages +-1 under
    # x^2 - 1 and 0, -1 under x^2 + x
    q = p1_point(0)
    for text, want in (("x^2 - 1", {1, -1}), ("x^2 + x", {0, -1}),
                       ("x^2 - 1", {1, -1})):
        f = _map(text)
        F1 = symmetrize(f, 1)
        got = rational_preimages(f, F1, q)
        assert got == _preimages_by_full_pullback(f, F1, q)
        assert {F(*p.coords) for p in got} == want


@st.composite
def _forms_with_repeats(draw):
    """A product of binary forms: X^a Y^b times irreducible Eisenstein
    factors of degree 1..9 with non-monic leads and random forms, some
    repeated."""
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    forms = [BinaryForm((1, 0))] * a + [BinaryForm((0, 1))] * b
    for _ in range(draw(st.integers(1, 3))):
        e, p = draw(st.integers(1, 9)), draw(st.sampled_from([2, 3]))
        lead = draw(st.sampled_from([1, 2, 5, 7]).filter(lambda c: c % p))
        # coefficient j multiplies X^(e - j) Y^j: lead X^e + ... + p Y^e
        g = BinaryForm([lead] + [p * draw(st.integers(-2, 2))
                                 for _ in range(e - 1)] + [p])
        forms += [g] * draw(st.integers(1, 2))
    if draw(st.booleans()):
        forms.append(BinaryForm([draw(st.integers(1, 4))] +
                                [draw(st.integers(-5, 5)) for _ in range(4)]))
    return _form_product(forms)


@given(_forms_with_repeats(), st.permutations(range(1, 9)))
@settings(max_examples=60, deadline=None)
def test_small_factors_match_full_factorization(phi, ks):
    # one record asked in a random order of k, as a map's parts are
    full = [g for g, _m in phi.factor()]
    part = _Part(phi)
    for k in ks:
        assert part.small_factors(k) == [g for g in full if g.degree <= k], k


def test_small_factors_are_ruled_out_without_factoring():
    # x (x^7 - x - 1)(x^5 - x - 1): the degrees mod 3 are 2, 5, 5 and mod 5
    # 1, 5, 6, so no factor but x has degree <= 4; with a square the middle
    # is squarefree at no prime, and the bounded prime loop gives up
    u = BinaryForm([1, 0, 0, 0, -1, -1])
    phi = _form_product([BinaryForm([1, 0, 0, 0, 0, 0, -1, -1]), u,
                         BinaryForm((1, 0))])
    part = _Part(phi)
    assert part.small_factors(4) == [BinaryForm((1, 0))]
    assert part.factors is None
    assert part.small_factors(5) == [BinaryForm((1, 0)), u]
    assert part.factors is not None
    part = _Part(_form_product([phi, u]))
    assert part.small_factors(4) == [BinaryForm((1, 0))]
    assert part.factors is not None


@pytest.mark.parametrize("text,n_max", [
    ("x^2 - 29/16", 4), ("x^2 - 1", 4), ("x^3 - x", 3), ("[z^2 - t^2, z*t]", 4)])
def test_periodic_pullbacks_by_division_match_full_factoring(text, n_max,
                                                              monkeypatch):
    # x^2 - 1 has the critical point 0 on a 2-cycle, so 0 divides the
    # pullback of -1 twice; for x^3 - x the cofactor is factored
    f = _map(text)
    periodic = [g for n in range(1, n_max + 1)
                for g in _dynatomic_part(f, n).small_factors(f.d ** n + 1)]
    factored = []
    factor = BinaryForm.factor
    monkeypatch.setattr(BinaryForm, "factor",
                        lambda self: factored.append(self) or factor(self))
    got = {g: _pullback_factors(f, g) for g in periodic}
    monkeypatch.undo()
    assert not factored if f.d == 2 else factored
    for g, hs in got.items():
        H = _form_at(g.coeffs, f.den, [-c for c in f.num])
        assert hs == [h for h, _m in zero_form_to_point_form(BinaryForm(H)).factor()]


@pytest.mark.parametrize("text", ["x^2 - 29/16", "x^2 - 2", "x^2 - 64/9"])
def test_dynatomic_record_cannot_go_stale(text):
    # dynamics and spectra keep their entries in one store per map: on one
    # map object, asked in any order, every answer is a fresh map's
    f = _map(text)
    for k in (5, 3, 7, 4):
        got = rational_periodic_points(f, k, 5)
        assert got == rational_periodic_points(_map(text), k, 5), k
        _check_carried(p for p, _n in got)
    ks = [2, 3, 4]
    random.Random(text).shuffle(ks)
    for k in ks:
        got, want = preperiodic_graph(f, k, 3), preperiodic_graph(_map(text), k, 3)
        assert (got.nodes, got.edges, got.to_json()) == \
            (want.nodes, want.edges, want.to_json()), k
        for p, per in rational_periodic_points(f, k, 3):
            got, want = multiplier_F(f, k, p, per), multiplier_F(_map(text), k, p, per)
            assert (got, got.to_json()) == (want, want.to_json()), (k, p)
