import random
import signal
from fractions import Fraction

import pytest

from symprod import (AlgebraicPoint, DegenerateMapError, DomainError,
                     NumberField, PkPoint, RationalMap1, UniPoly,
                     conjugate_points, critical_points, eta, eta_tilde,
                     is_pcf, is_strongly_pcf_symmetric, multiplier_F,
                     multiplier_f, p1_point, parse_map,
                     rational_periodic_points, symmetrize)
from symprod.polyfactor import factor_unipoly

from mpoly_helpers import mpoly_derivative, mpoly_eval
from test_kernels import hessenberg_charpoly as charpoly

F = Fraction


def _map(text):
    return parse_map(text).map


def _poly_map(coeffs):
    return RationalMap1.from_affine_polynomial(UniPoly(coeffs))


# ---------------------------------------------------------------------------
# base multipliers
# ---------------------------------------------------------------------------


def test_multiplier_fixed_points():
    f = _map("x^2 - 21/16")
    assert multiplier_f(f, F(7, 4), 1) == F(7, 2)
    assert multiplier_f(f, F(-3, 4), 1) == F(-3, 2)


def test_multiplier_two_cycle():
    f = _map("x^2 - 21/16")
    assert multiplier_f(f, F(-5, 4), 2) == F(-5, 4)
    assert multiplier_f(f, F(1, 4), 2) == F(-5, 4)


def test_multiplier_at_infinity():
    fsq = _map("[z^2, t^2]")
    assert multiplier_f(fsq, AlgebraicPoint.at_infinity(), 1) == 0
    # a cycle through infinity: [t^2, z^2] swaps 0 and infinity
    fswap = _map("[t^2, z^2]")
    lam = multiplier_f(fswap, p1_point(0), 2)
    assert lam == 0


def test_multiplier_rejects_nonperiodic():
    with pytest.raises(DomainError):
        multiplier_f(_map("x^2 - 2"), p1_point(3), 1)


def _refused_within(seconds, fn, *args):
    """fn(*args) raises DomainError before an alarm after seconds would
    stop a walk that never ends."""
    def stop(*_):
        raise TimeoutError("the call walks on instead of refusing")
    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        with pytest.raises(DomainError, match="not periodic of period"):
            fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_preperiodic_base_point_is_refused_at_once():
    # under x^2 - 2, 0 -> -2 -> 2 -> 2: a walk from 0 back to 0 never ends
    f = _map("x^2 - 2")
    p = eta([p1_point(0), p1_point(2)])
    # the roots of x^2 - x - 1 map onto the 2-cycle of roots of x^2 + x - 1
    K = NumberField.get(UniPoly((-1, -1, 1)))
    phi = AlgebraicPoint(K, K.gen())
    for n in (1, 2, 3):
        _refused_within(5, multiplier_f, f, p1_point(0), n)
        _refused_within(5, multiplier_F, f, 2, p, n)
        _refused_within(5, multiplier_f, f, phi, n)
        _refused_within(5, multiplier_F, f, 2, eta_tilde(phi, 2), n)


def test_multiplier_algebraic_cycle():
    # the golden-ratio fixed points of x^2 - 1... use x^2 - 29/16's quadratic
    # fixed points: multiplier is 2x, an element of Q(sqrt33)
    f = _map("x^2 - 29/16")
    K = NumberField.get(UniPoly((F(-29, 16), -1, 1)))  # x^2 - x - 29/16
    w = K.gen()
    lam = multiplier_f(f, AlgebraicPoint(K, w), 1)
    assert lam == 2 * w


# ---------------------------------------------------------------------------
# the Jacobian route: an independent oracle for the symmetric-product charpoly
# ---------------------------------------------------------------------------


def _pk_chart(p: PkPoint) -> int:
    """Canonical chart: the last nonvanishing coordinate."""
    coords = p.coords
    for i in range(len(coords) - 1, -1, -1):
        if coords[i]:
            return i
    raise DomainError("zero point")


def _jacobian_step(Fk, p: PkPoint, q: PkPoint):
    """Exact Jacobian of the dehomogenized map at p, rows indexed by the
    chart at q, columns by the chart at p."""
    k = Fk.k
    m = _pk_chart(p)
    mp = _pk_chart(q)
    x = [Fraction(c, p.coords[m]) for c in p.coords]
    fvals = [mpoly_eval(comp, x) for comp in Fk.components]
    dvals = [[mpoly_eval(mpoly_derivative(comp, j), x) for j in range(k + 1)]
             for comp in Fk.components]
    denom = fvals[mp]
    assert denom != 0
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


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _oracle_matrix(f, k, p, n):
    """DF^n at p: the product of the exact per-step Jacobians of F along the
    length-n orbit of p."""
    Fk = symmetrize(f, k)
    orbit = [p]
    for _ in range(n):
        orbit.append(Fk.apply(orbit[-1]))
    assert orbit[n] == p
    total = None
    for i in range(n):
        J = _jacobian_step(Fk, orbit[i], orbit[i + 1])
        total = J if total is None else _mat_mul(J, total)
    return total


_ORACLE_MAPS = ["x^2 - 29/16", "x^2 - 3/4", "x^2 - 21/16", "x^3 - x",
                "[z^2 - t^2, z*t]", "[z^2 + 2*t^2, z^2 - z*t]",
                # maps of the benchmark's cycles pool
                "x^2 - 2", "x^2 - 16/9", "x^2 - 64/9", "x^2 - 7"]


def test_charpoly_matches_jacobian_oracle():
    """The charpoly derived from the base multipliers is det(xI - DF^n) for
    every rational periodic point with k <= 4 and n_max = 3, at its exact
    period n and at 2n; the corpus holds points with a component at
    infinity and points whose f^n-cycles have length l > 1."""
    cases = at_infinity = collapsed = 0
    for text in _ORACLE_MAPS:
        f = _map(text)
        for k in (2, 3, 4):
            for p, per in rational_periodic_points(f, k, 3):
                for n in (per, 2 * per):
                    rep = multiplier_F(f, k, p, n)
                    want = charpoly(_oracle_matrix(f, k, p, n))
                    assert rep.charpoly == want, (text, k, p, n)
                    cases += 1
                    collapsed += any(bper % n for _pt, bper, _lam
                                     in rep.base_multipliers)
                at_infinity += any(pt.infinity for _fl, pt, _m
                                   in conjugate_points(p))
    assert cases > 500 and at_infinity > 0 and collapsed > 0


def _factored_text(poly):
    """The factored form of poly from one factorization of the whole."""
    content, facs = factor_unipoly(poly)
    parts = [] if content == 1 else [str(content)]
    parts += [f"({g.to_text()})" + ("" if m == 1 else f"^{m}")
              for g, m in facs]
    return " * ".join(parts)


def test_charpoly_factored_matches_full_factorization():
    """charpoly_factored merges the factorizations of the pieces: contents
    multiplied, multiplicities summed, factors in factor_unipoly's order."""
    contents = set()
    for text, ks in (("x^2 - 21/16", (2, 3, 4, 6)), ("x^2 - 29/16", (4, 5)),
                     ("x^3 - x", (3,)), ("[z^2 + 2*t^2, z^2 - z*t]", (3,)),
                     # the fixed point oo and the 2-cycle {0, -1} both give x
                     ("x^2 - 1", (3, 4))):
        f = _map(text)
        for k in ks:
            for p, per in rational_periodic_points(f, k, 3):
                for n in (per, 2 * per):
                    rep = multiplier_F(f, k, p, n)
                    want = _factored_text(rep.charpoly)
                    assert rep.charpoly_factored() == want, (text, k, p, n)
                    contents.add(want.split(" * ")[0])
    assert "1/4" in contents


def test_charpoly_matches_oracle_through_infinity():
    # [t^2, z^2] swaps 0 and infinity: a collapsed 2-cycle through infinity
    f = _map("[t^2, z^2]")
    for pts, n in (([p1_point(0), PkPoint((1, 0))], 1),
                   ([p1_point(0), PkPoint((1, 0)), p1_point(1)], 1),
                   ([p1_point(0), PkPoint((1, 0)), p1_point(1)], 2),
                   ([PkPoint((1, 0))] * 2 + [p1_point(0)] * 2, 1)):
        p = eta(pts)
        want = charpoly(_oracle_matrix(f, len(pts), p, n))
        assert multiplier_F(f, len(pts), p, n).charpoly == want, (pts, n)


def test_charpoly_requires_a_periodic_point():
    f = _map("x^2 - 29/16")
    p = eta([p1_point(F(5, 4)), p1_point(F(-1, 4))])
    for n in (1, 2):
        with pytest.raises(DomainError, match="not periodic of period"):
            multiplier_F(f, 2, p, n)
    for n in (3, 6):
        want = charpoly(_oracle_matrix(f, 2, p, n))
        assert multiplier_F(f, 2, p, n).charpoly == want
    with pytest.raises(DomainError, match="not periodic of period"):
        multiplier_F(f, 2, eta([p1_point(1), p1_point(2)]), 1)
    with pytest.raises(DomainError):
        multiplier_F(f, 3, p, 3)


# ---------------------------------------------------------------------------
# symmetric-product multiplier spectra
# ---------------------------------------------------------------------------


def test_orbit_record_cannot_go_stale():
    """multiplier_F reads f's orbit record: on one map object, the reports do
    not depend on which points, periods or k were asked about before."""
    rng = random.Random(22)
    for text in ("x^2 - 29/16", "[z^2 - t^2, z*t]", "x^3 - x"):
        g = _map(text)
        cases = [(k, p, m * per) for k in (2, 3, 4)
                 for p, per in rational_periodic_points(g, k, 3)
                 for m in (1, 2)]

        def fresh(k, p, n):
            return multiplier_F(RationalMap1(g.num, g.den), k, p, n)

        want = [(rep, rep.to_json()) for rep in (fresh(*c) for c in cases)]
        shuffled = list(range(len(cases)))
        rng.shuffle(shuffled)
        for order in (range(len(cases) - 1, -1, -1), shuffled):
            f = RationalMap1(g.num, g.den)
            for p, per in rational_periodic_points(f, 5, 3)[:5]:
                multiplier_F(f, 5, p, per).charpoly_factored()
            for i in order:
                rep = multiplier_F(f, *cases[i])
                assert (rep, rep.to_json()) == want[i], (text, cases[i])


def test_collapsed_two_cycle_charpoly():
    f = _map("x^2 - 21/16")
    p = eta([p1_point(F(-3, 4)), p1_point(F(1, 4)), p1_point(F(-5, 4))])
    rep = multiplier_F(f, 3, p, 1)
    assert rep.charpoly == UniPoly((F(3, 2), 1)) * UniPoly((F(5, 4), 0, 1))
    lams = sorted(str(l) for _pt, _per, l in rep.base_multipliers)
    assert len(rep.base_multipliers) == 3


def test_three_cycle_collapse_charpoly():
    f = _map("x^2 - 29/16")
    p = eta([p1_point(F(5, 4)), p1_point(F(-1, 4)), p1_point(F(-7, 4))])
    rep = multiplier_F(f, 3, p, 1)
    assert rep.charpoly == UniPoly((F(-35, 8), 0, 0, 1))   # x^3 - 35/8
    assert multiplier_f(f, F(5, 4), 3) == F(35, 8)


def test_repeated_fixed_point_charpoly():
    f = _map("x^2 - 21/16")
    lam = F(7, 2)
    p = eta([p1_point(F(7, 4))] * 3)
    rep = multiplier_F(f, 3, p, 1)
    want = UniPoly.one()
    for i in (1, 2, 3):
        want = want * UniPoly((-lam ** i, 1))
    assert rep.charpoly == want


def test_chart_independence():
    f = _map("x^2 - 21/16")
    p = eta([p1_point(F(-3, 4)), p1_point(F(1, 4)), p1_point(F(-5, 4))])
    rep = multiplier_F(f, 3, p, 1)
    # the charpoly is invariant under relabeling the orbit start of a cycle
    f29 = _map("x^2 - 29/16")
    cyc = [F(5, 4), F(-1, 4), F(-7, 4)]
    reps = []
    for rot in range(3):
        pts = cyc[rot:] + cyc[:rot]
        p0 = eta([p1_point(v) for v in pts])
        reps.append(multiplier_F(f29, 3, p0, 1).charpoly)
    assert reps[0] == reps[1] == reps[2]


def test_chart_independence_infinity_chart():
    # a point with vanishing last coordinate forces a different chart
    f = _map("x^2 - 21/16")
    p = eta([PkPoint((1, 0)), p1_point(F(7, 4))])
    rep = multiplier_F(f, 2, p, 1)
    # multiset {oo, 7/4}: eigenvalues 0 (superattracting) and 7/2
    assert rep.charpoly == UniPoly((0, 1)) * UniPoly((F(-7, 2), 1))


def _random_interpolation_map(rng, d, fixed):
    """Polynomial map of degree d fixing the given rational points:
    f(x) = x + c * prod (x - a_i)."""
    c = F(rng.randrange(1, 7), rng.choice([1, 2, 4]))
    poly = UniPoly((0, 1))
    prod = UniPoly.one()
    for a in fixed:
        prod = prod * UniPoly((-a, 1))
    return _poly_map((poly + prod * c).coeffs), c, prod


def test_multiplier_structure_repeated_points_randomized():
    """m-fold repeated fixed points contribute prod (x - lam^i)."""
    rng = random.Random(99)
    for _ in range(25):
        d = rng.choice([2, 3])
        fixed = []
        while len(fixed) < d:
            a = F(rng.randrange(-6, 7), rng.choice([1, 2]))
            if a not in fixed:
                fixed.append(a)
        f, c, prod = _random_interpolation_map(rng, d, fixed)
        deriv = (UniPoly((0, 1)) + prod * c).derivative()
        k = rng.choice([2, 3])
        m = rng.randrange(2, k + 1)
        target = fixed[0]
        rest = fixed[1:]
        multiset = [target] * m + rest[: k - m]
        if len(multiset) != k:
            continue
        p = eta([p1_point(v) for v in multiset])
        rep = multiplier_F(f, k, p, 1)
        lam = deriv(target)
        want = UniPoly.one()
        for i in range(1, m + 1):
            want = want * UniPoly((-lam ** i, 1))
        assert (rep.charpoly % want).is_zero(), (f, multiset)


def test_multiplier_structure_collapsed_cycles_randomized():
    """A collapsed m-cycle with multiplier lam contributes x^m - lam."""
    rng = random.Random(7)
    count = 0
    while count < 25:
        s = F(rng.randrange(1, 9), rng.choice([1, 2, 3]))
        if s in (0, 1, -1):
            continue
        b = s - 1 / s
        if b == 0:
            continue
        # f(0) = b, f(b) = 0
        f = _poly_map((b, -(b + 1), 1))
        lam = 1 - b * b
        p2 = eta([p1_point(0), p1_point(b)])
        rep2 = multiplier_F(f, 2, p2, 1)
        assert rep2.charpoly == UniPoly((-lam, 0, 1)), (s, b)
        # k = 3: complete with a rational fixed point ((b+2) +- (s+1/s))/2
        fx = (b + 2 + s + 1 / s) / 2
        assert f.apply_point(p1_point(fx)) == p1_point(fx)
        p3 = eta([p1_point(0), p1_point(b), p1_point(fx)])
        rep3 = multiplier_F(f, 3, p3, 1)
        assert (rep3.charpoly % UniPoly((-lam, 0, 1))).is_zero(), (s, b)
        count += 1


def test_trace_consistency_distinct_fixed_points():
    rng = random.Random(13)
    for _ in range(10):
        fixed = []
        while len(fixed) < 2:
            a = F(rng.randrange(-5, 6), rng.choice([1, 2]))
            if a not in fixed:
                fixed.append(a)
        f, c, prod = _random_interpolation_map(rng, 2, fixed)
        deriv = (UniPoly((0, 1)) + prod * c).derivative()
        p = eta([p1_point(v) for v in fixed])
        M = _oracle_matrix(f, 2, p, 1)
        trace = M[0][0] + M[1][1]
        assert trace == deriv(fixed[0]) + deriv(fixed[1])


# ---------------------------------------------------------------------------
# critical points and PCF
# ---------------------------------------------------------------------------


def test_critical_points_quadratic_polynomial():
    got = {(pt.to_text(), m) for _f, pt, m in critical_points(_map("x^2 + 1"))}
    assert got == {("oo", 1), ("0", 1)}


def test_critical_points_restricted_family():
    # [-a^2 z^2, (z+t)^2] at a = 2: critical points 0 and -1 (the Wronskian
    # is -4 a^2 z (z + t); the flip point is (1 : -1))
    fa = _map("[-4*z^2, (z + t)^2]")
    got = {(pt.to_text(), m) for _f, pt, m in critical_points(fa)}
    assert got == {("0", 1), ("-1", 1)}


def test_critical_points_cubic_power():
    got = {(pt.to_text(), m) for _f, pt, m in critical_points(_map("[z^3, t^3]"))}
    assert got == {("oo", 2), ("0", 2)}
    with pytest.raises(DegenerateMapError):
        RationalMap1((0, 1, 0), (0, 2, 0))


def test_critical_points_total_multiplicity():
    rng = random.Random(3)
    for _ in range(10):
        d = rng.choice([2, 3])
        while True:
            try:
                f = RationalMap1([rng.randrange(-9, 10) for _ in range(d + 1)],
                                 [rng.randrange(-9, 10) for _ in range(d + 1)])
                break
            except (DegenerateMapError, DomainError):
                continue
        try:
            crit = critical_points(f)
        except DegenerateMapError:
            continue
        total = sum((fld.degree if fld else 1) * m for fld, _pt, m in crit)
        assert total == 2 * d - 2


def test_pcf_suite():
    assert is_pcf(_map("x^2 - 1")).verdict == "PCF"
    assert is_pcf(_map("x^2 - 2")).verdict == "PCF"
    assert is_pcf(_map("x^2 + 1")).verdict == "not-PCF"
    # conjugated restriction family z^2 - 1/a^2: PCF at a=1, not at a=2
    assert is_pcf(_map("x^2 - 1")).verdict == "PCF"
    cert = is_pcf(_map("x^2 - 1/4"))
    assert cert.verdict == "not-PCF"
    wandering = [cls for _f, _pt, _m, cls in cert.entries
                 if cls.status == "wandering"]
    assert wandering and wandering[0].escape_index is not None
    assert wandering[0].bound is not None


def test_pcf_never_unknown():
    rng = random.Random(77)
    for _ in range(8):
        c = F(rng.randrange(-12, 13), rng.choice([1, 2, 4, 8]))
        cert = is_pcf(_poly_map((c, 0, 1)))
        assert cert.verdict in ("PCF", "not-PCF")
        for _f, _pt, _m, cls in cert.entries:
            assert cls.status in ("preperiodic", "wandering")


def test_strongly_pcf_mirrors_base():
    for text in ("x^2 - 1", "x^2 - 2", "x^2 + 1", "x^2 - 1/4", "[z^2, t^2]"):
        base = is_pcf(_map(text))
        for k in (2, 3):
            strong = is_strongly_pcf_symmetric(_map(text), k)
            assert strong.verdict == base.verdict
            assert strong.notes


def test_pcf_quadratic_critical_points():
    # a map with irrational critical points: [z^2 - t^2, z*t] has Wronskian
    # z^2 + t^2 -> critical points +-i (a quadratic pair)
    f = _map("[z^2 - t^2, z*t]")
    crit = critical_points(f)
    assert any(fld is not None and fld.degree == 2 for fld, _pt, _m in crit)
    cert = is_pcf(f)
    assert cert.verdict in ("PCF", "not-PCF")


def test_multiplier_report_json():
    f = _map("x^2 - 29/16")
    p = eta([p1_point(F(5, 4)), p1_point(F(-1, 4)), p1_point(F(-7, 4))])
    rep = multiplier_F(f, 3, p, 1)
    data = rep.to_json()
    assert data["schema_version"] == "2"
    assert data["charpoly"] == "x^3 - 35/8"
    assert "matrix" not in data
    assert is_pcf(f).to_json()["verdict"] in ("PCF", "not-PCF")
