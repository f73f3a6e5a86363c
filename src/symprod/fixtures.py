"""Regression fixture corpus.

Every expected value carries a provenance tag:
  PAPER:   quoted from published worked material reproduced by this library;
  DERIVED: recomputed here by an independent route (stated in the fixture);
  TRIVIAL: immediate from definitions.

Fixtures call the library strictly through the package namespace so the test
suite can assert that running the corpus exercises every public operation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import symprod as api
from .parser import parse_mpoly

F = Fraction


@dataclass(frozen=True)
class Fixture:
    name: str
    provenance: str
    summary: str
    run: callable


@dataclass(frozen=True)
class FixtureResult:
    name: str
    provenance: str
    passed: bool
    detail: str
    seconds: float


FIXTURES: list[Fixture] = []


def fixture(name, provenance, summary):
    def deco(fn):
        FIXTURES.append(Fixture(name, provenance, summary, fn))
        return fn
    return deco


def _map(text):
    return api.parse_map(text).map


VNAMES = ["v0", "v1", "v2", "v3", "v4"]

# the displayed 4-symmetric product of x^2 - 2           [PAPER]
CHEB4_EXPECTED = [
    "v0^2 - 2*v1^2 + 4*v0*v2 + 4*v2^2 - 8*v1*v3 - 8*v3^2 + 8*v0*v4 + 16*v2*v4 + 16*v4^2",
    "v1^2 - 2*v0*v2 - 4*v2^2 + 8*v1*v3 + 12*v3^2 - 8*v0*v4 - 24*v2*v4 - 32*v4^2",
    "v2^2 - 2*v1*v3 - 6*v3^2 + 2*v0*v4 + 12*v2*v4 + 24*v4^2",
    "v3^2 - 2*v2*v4 - 8*v4^2",
    "v4^2",
]

# the displayed 3-symmetric product of x^2 - 29/16, in its own coordinate
# order (e1, e2, e3, homogenizer); compared up to the documented reversal
X29_EXPECTED = [
    "4096*x0^2 - 8192*x1*x3 - 22272*x3^2",
    "-14848*x0^2 + 4096*x1^2 - 8192*x0*x2 + 29696*x1*x3 + 40368*x3^2",
    "13456*x0^2 - 7424*x1^2 + 14848*x0*x2 + 4096*x2^2 - 26912*x1*x3 - 24389*x3^2",
    "4096*x3^2",
]
X29_PERM = {0: 2, 1: 1, 2: 0, 3: 3}  # displayed index -> eta index


@fixture("eta-diagonal", "PAPER",
         "eta of four copies of (3:1) is (81, 108, 54, 12, 1)")
def _fx_eta():
    p = api.eta([api.p1_point(3)] * 4)
    assert p.coords == (81, 108, 54, 12, 1), p
    q = api.eta([api.p1_point(F(1, 2))])
    assert q.coords == (1, 2)
    return "eta values exact"


@fixture("eta-tilde-zeta5", "PAPER",
         "eta~ of a primitive fifth root of unity is (1, -1, 1, -1, 1)")
def _fx_eta_tilde():
    K = api.NumberField.get(api.UniPoly((1, 1, 1, 1, 1)))
    pt = api.AlgebraicPoint(K, K.gen())
    assert api.eta_tilde(pt, 4).coords == (1, -1, 1, -1, 1)
    assert api.eta_tilde(api.AlgebraicPoint.rational(3), 1).coords == (3, 1)
    return "conjugate multisets match"


@fixture("symmetrize-cheb-k4", "PAPER",
         "the 4-symmetric product of x^2 - 2 equals the displayed quadrics")
def _fx_sym4():
    Fm = api.symmetrize(_map("x^2 - 2"), 4)
    for comp, text in zip(Fm.components, CHEB4_EXPECTED):
        assert comp == parse_mpoly(text, VNAMES), text
    return "coefficients bit-exact"


@fixture("symmetrize-x29-k3", "PAPER",
         "the 3-symmetric product of x^2 - 29/16 matches the displayed map "
         "up to the documented coordinate reversal")
def _fx_sym3():
    Fm = api.symmetrize(_map("x^2 - 29/16"), 3)
    for disp_idx, text in enumerate(X29_EXPECTED):
        want = parse_mpoly(text, ["x0", "x1", "x2", "x3"])
        moved = {}
        for e, c in want.terms.items():
            ne = [0, 0, 0, 0]
            for i, a in enumerate(e):
                ne[X29_PERM[i]] += a
            moved[tuple(ne)] = c
        want_perm = api.MPoly(4, moved)
        assert Fm.components[X29_PERM[disp_idx]] == want_perm, disp_idx
    return "coefficients bit-exact after reversal"


@fixture("symmetrize-identity-k1", "TRIVIAL",
         "the 1-symmetric product is the map itself")
def _fx_sym1():
    f = _map("x^2 - 2")
    F1 = api.symmetrize(f, 1)
    assert F1.components[0].terms == {(2, 0): F(1), (0, 2): F(-2)}
    assert F1.components[1].terms == {(0, 2): F(1)}
    return "k=1 is the identity construction"


@fixture("apply-transfer", "DERIVED",
         "images under the 4-symmetric product of x^2 - 2, recomputed from "
         "eta of the image multisets")
def _fx_apply():
    Fm = api.symmetrize(_map("x^2 - 2"), 4)
    img = api.apply(Fm, api.PkPoint((81, 108, 54, 12, 1)))
    assert img == api.eta([api.p1_point(7)] * 4)          # f(3) = 7, diagonal
    img2 = api.apply(Fm, api.PkPoint((1, -1, 1, -1, 1)))
    # minimal polynomial of z^2 - 2 at a fifth root of unity: x^4+9x^3+31x^2+49x+31
    assert img2.coords == (31, -49, 31, -9, 1)
    assert img.coords[-1] == img.coords[-1] and img.coords[4] == 1
    return "images exact"


@fixture("forms-points", "PAPER",
         "form/point round trips and conjugate recovery")
def _fx_forms():
    p = api.PkPoint((81, 108, 54, 12, 1))
    g = api.form_of_point(p)
    assert api.point_of_form(g) == p
    decomp = api.conjugate_points(p)
    assert len(decomp) == 1
    fld, pt, mult = decomp[0]
    assert fld is None and pt.value == 3 and mult == 4
    inf = api.PkPoint((1, 0, 0, 0))
    d2 = api.conjugate_points(inf)
    assert d2[0][1].infinity and d2[0][2] == 3
    z5 = api.conjugate_points(api.PkPoint((1, -1, 1, -1, 1)))
    assert len(z5) == 1 and z5[0][0].degree == 4
    assert z5[0][0].minpoly == api.UniPoly((1, 1, 1, 1, 1))
    return "round trips exact; fifth-root field recovered"


@fixture("eta-tilde-cubic", "DERIVED",
         "eta~ of the cubic generator recovers its own minimal polynomial "
         "through the conjugate decomposition")
def _fx_eta_cubic():
    ref = api.NumberField.get(api.UniPoly((23, -164, 16, 64)))
    pt = api.AlgebraicPoint(ref, ref.gen())
    q = api.eta_tilde(pt, 3)
    decomp = api.conjugate_points(q)
    assert len(decomp) == 1
    fld, rec, mult = decomp[0]
    assert mult == 1 and fld.minpoly == ref.minpoly
    assert api.eta_tilde(rec, 3) == q
    return "minimal polynomial round trip exact"


@fixture("canonical-height-cheb", "PAPER",
         "canonical heights for x^2 - 2: 0.9624 at 3; transferred values "
         "3.84969 and 4x agree; closed-form oracle log((3+sqrt5)/2)")
def _fx_heights():
    import mpmath

    f = _map("x^2 - 2")
    M = api.morphism_of_map(f)
    hv = api.canonical_height(M, api.p1_point(3), tol=1e-8, bad=api.bad_primes(f))
    assert abs(hv.value - 0.9624) < 1e-3
    closed = float(mpmath.log((3 + mpmath.sqrt(5)) / 2))   # Chebyshev semiconjugacy
    assert abs(hv.value - closed) < 1e-6
    F4 = api.symmetrize(f, 4)
    hv4 = api.canonical_height(F4, api.PkPoint((81, 108, 54, 12, 1)),
                               tol=1e-6, bad=api.bad_primes_sym(f, 4))
    assert abs(hv4.value - 3.84969) < 1e-3
    assert abs(hv4.value - 4 * hv.value) < 2e-6
    return f"h(3) = {hv.value:.6f}, transferred {hv4.value:.5f}"


@fixture("canonical-height-zeta5", "PAPER",
         "h_F(1,-1,1,-1,1) is 1.5536 and the fifth-root point has height 0.3884")
def _fx_height_zeta():
    f = _map("x^2 - 2")
    F4 = api.symmetrize(f, 4)
    hv = api.canonical_height(F4, api.PkPoint((1, -1, 1, -1, 1)),
                              tol=1e-6, bad=api.bad_primes_sym(f, 4))
    assert abs(hv.value - 1.5536) < 1e-3
    K = api.NumberField.get(api.UniPoly((1, 1, 1, 1, 1)))
    hnf = api.canonical_height_nf(f, api.AlgebraicPoint(K, K.gen()), tol=1e-6)
    assert abs(hnf.value - 0.3884) < 1e-3
    assert not hnf.notes
    return f"h = {hnf.value:.5f}"


@fixture("preperiodic-21", "PAPER",
         "x^2 - 29/16 at k = 3 yields 9 rational preperiodic points and 12 "
         "over the cubic field of 64x^3 + 16x^2 - 164x + 23")
def _fx_21():
    f = _map("x^2 - 29/16")
    g = api.preperiodic_graph(f, 3, 3)
    rat, orbits = g.recovered_points()
    vals = {pt.to_text() for pt in rat}
    assert vals == {"oo", "7/4", "-7/4", "5/4", "-5/4", "1/4", "-1/4",
                    "3/4", "-3/4"}
    ref = api.NumberField.get(api.UniPoly((23, -164, 16, 64)))
    cubic_points = 0
    for minpoly, fld in orbits:
        if minpoly.degree == 3:
            assert api.same_field(ref, fld)
            cubic_points += len(api.roots_in_number_field(minpoly, ref))
    assert cubic_points == 12, cubic_points
    return f"{len(rat)} rational + {cubic_points} cubic = 21"


@fixture("five-cycles", "PAPER",
         "c in {-2, -16/9, -64/9}: the period-5 search finds a verified "
         "rational 5-cycle over a degree-5 field")
def _fx_5cycles():
    found = []
    for c in (F(-2), F(-16, 9), F(-64, 9)):
        f = api.RationalMap1.from_affine_polynomial(api.UniPoly((c, 0, 1)))
        pts = api.rational_periodic_points(f, 5, 5)
        hit = None
        for p, per in pts:
            comps = api.conjugate_points(p)
            if (len(comps) == 1 and comps[0][0] is not None
                    and comps[0][0].degree == 5 and comps[0][2] == 1):
                cls = api.orbit_classify(f, comps[0][1])
                if cls.preperiodic and cls.tail == 0 and cls.period == 5:
                    hit = comps[0][0]
                    break
        assert hit is not None, f"no verified 5-cycle for c={c}"
        found.append(hit.minpoly_int.to_text())
    return "; ".join(found)


@fixture("milnor-lattes-commutation", "PAPER",
         "the degree-2 isolated family [z^2+a^2*z*t, t^2+a^2*z*t] satisfies "
         "the defining identity symbolically at 12 rational a, for k = 2, 3")
def _fx_milnor():
    # a^4 = 1 degenerates the pair, so skip +-1
    values = [F(n) for n in (2, 3, 4, -2, -3, 5)] + [F(1, 2), F(3, 2), F(2, 3),
                                                     F(5, 2), F(-1, 3), F(7, 3)]
    assert len(values) >= 12
    for a in values:
        a2 = a * a
        f = api.RationalMap1((1, a2, 0), (0, a2, 1))
        for k in (2, 3):
            assert api.verify_commutation(f, k), (a, k)
    return f"{len(values)} parameter values, k in {{2, 3}}"


@fixture("flexible-lattes-commutation", "PAPER",
         "the degree-4 flexible family [(z^2-L*t^2)^2, 4*z*t*(z-t)*(z-L*t)] "
         "satisfies the defining identity symbolically at 12 rational L, k = 2")
def _fx_flexible():
    values = [F(2), F(3), F(-1), F(-2), F(5), F(1, 2), F(3, 2), F(-1, 2),
              F(2, 3), F(5, 3), F(-3), F(7, 2)]
    for lam in values:
        expr = (f"[(z^2 - {lam.numerator}/{lam.denominator}*t^2)^2, "
                f"4*z*t*(z - t)*(z - {lam.numerator}/{lam.denominator}*t)]")
        f = api.parse_map(expr).map
        assert f.d == 4
        assert api.verify_commutation(f, 2), lam
    return f"{len(values)} parameter values, degree 4 preserved"


@fixture("multiplier-x21", "DERIVED",
         "multipliers for x^2 - 21/16: fixed 7/4 has 7/2, the 2-cycle has "
         "-5/4; at k = 3 the collapsed 2-cycle charpoly is (x+3/2)(x^2+5/4)")
def _fx_mult21():
    f = _map("x^2 - 21/16")
    assert api.multiplier_f(f, F(7, 4), 1) == F(7, 2)
    assert api.multiplier_f(f, F(-5, 4), 2) == F(-5, 4)
    p = api.eta([api.p1_point(F(-3, 4)), api.p1_point(F(1, 4)),
                 api.p1_point(F(-5, 4))])
    rep = api.multiplier_F(f, 3, p, 1)
    want = api.UniPoly((F(3, 2), 1)) * api.UniPoly((F(5, 4), 0, 1))
    assert rep.charpoly == want
    triple = api.multiplier_F(f, 3, api.eta([api.p1_point(F(7, 4))] * 3), 1)
    lam = F(7, 2)
    prod = api.UniPoly.one()
    for i in (1, 2, 3):
        prod = prod * api.UniPoly((-lam ** i, 1))
    assert triple.charpoly == prod
    return "charpoly structure exact"


@fixture("multiplier-x29", "DERIVED",
         "the collapsed rational 3-cycle of x^2 - 29/16 has charpoly "
         "x^3 - 35/8 (the cycle multiplier is 8*(5/4)(-1/4)(-7/4) = 35/8)")
def _fx_mult29():
    f = _map("x^2 - 29/16")
    assert api.multiplier_f(f, F(5, 4), 3) == F(35, 8)
    p = api.eta([api.p1_point(F(5, 4)), api.p1_point(F(-1, 4)),
                 api.p1_point(F(-7, 4))])
    rep = api.multiplier_F(f, 3, p, 1)
    assert rep.charpoly == api.UniPoly((F(-35, 8), 0, 0, 1))
    assert rep.period == 1
    return "x^3 - 35/8 exact"


@fixture("bad-primes", "DERIVED",
         "bad primes by resultant + reduction check: {2} for x^2 - 29/16 "
         "(Res = 2^16); empty for x^2 - 2 (Res = 1) and the power map")
def _fx_bad():
    f29 = _map("x^2 - 29/16")
    assert tuple(api.bad_primes(f29)) == (2,)
    assert api.factor_integer(int(f29.res)) == {2: 16}
    f2 = _map("x^2 - 2")
    assert tuple(api.bad_primes(f2)) == () and f2.res == 1
    fsq = api.parse_map("[z^2, t^2]").map
    assert tuple(api.bad_primes(fsq)) == ()
    for k in (2, 3):
        assert api.bad_primes_sym(f29, k) == api.bad_primes(f29)
        assert api.bad_primes_sym(f2, k) == api.bad_primes(f2)
    return "resultants and reductions agree"


@fixture("period-bound", "DERIVED",
         "good-reduction period bound: (1+3+9)*2*3*3 = 234; the p = 2 "
         "exponent bound at v = 1 is 3 since (sqrt5+3)/2 is phi^2")
def _fx_bound():
    got = api.period_bound(api.PeriodBoundInput(Np=3, k=2, p=3, vp=1))
    assert got == 234, got
    assert api.exponent_bound(2, 1) == 3
    assert api.exponent_bound(3, 1) == 1
    assert api.exponent_bound(3, 4) == 3
    try:
        api.PeriodBoundInput(Np=3, k=0, p=3, vp=1)
        raise AssertionError("k = 0 accepted")
    except api.DomainError:
        pass
    return "bound = 234; exponent bounds certified"


@fixture("orbit-classify", "DERIVED",
         "orbits: 2 fixed under x^2 - 2; 5/4 -> -1/4 -> -7/4 -> 5/4 has "
         "period 3; 0 escapes under x^2 + 1")
def _fx_orbits():
    assert api.orbit_classify(_map("x^2 - 2"), api.p1_point(2)) == \
        api.OrbitClassification("preperiodic", tail=0, period=1)
    cls = api.orbit_classify(_map("x^2 - 29/16"), api.p1_point(F(5, 4)))
    assert (cls.tail, cls.period) == (0, 3)
    w = api.orbit_classify(_map("x^2 + 1"), api.p1_point(0))
    assert w.status == "wandering" and w.escape_index is not None
    return "orbit structure exact"


@fixture("periods-mod-p", "DERIVED",
         "cycle lengths by enumeration: x^2 on P^1(F_3) gives {1}; "
         "x^2 - 29/16 mod 5 at k = 3 contains the global period 3")
def _fx_modp():
    fsq = api.parse_map("[z^2, t^2]").map
    assert api.periods_mod_p(fsq, 3, 1) == {1}
    s = api.periods_mod_p(_map("x^2 - 29/16"), 5, 3)
    assert 3 in s
    try:
        api.periods_mod_p(_map("x^2 - 29/16"), 2, 1)
        raise AssertionError("bad prime accepted")
    except api.DomainError:
        pass
    return "enumerated cycle data matches"


@fixture("periodic-points-x21", "DERIVED",
         "x^2 - 21/16 at k = 2: the 2-cycle {-5/4, 1/4} collapses to a fixed "
         "point and the fixed pair (7/4, -3/4) appears")
def _fx_periodic21():
    f = _map("x^2 - 21/16")
    pts = dict(api.rational_periodic_points(f, 2, 2))
    collapsed = api.eta([api.p1_point(F(-5, 4)), api.p1_point(F(1, 4))])
    pair = api.eta([api.p1_point(F(7, 4)), api.p1_point(F(-3, 4))])
    assert pts[collapsed] == 1
    assert pts[pair] == 1
    diag = api.eta([api.p1_point(F(-5, 4)), api.p1_point(F(-5, 4))])
    assert pts[diag] == 2
    return f"{len(pts)} periodic points with exact periods"


@fixture("preimages", "DERIVED",
         "preimage sets: full, Galois-paired, and empty cases")
def _fx_preimages():
    f2 = _map("x^2 - 2")
    F1 = api.symmetrize(f2, 1)
    got = api.rational_preimages(f2, F1, api.p1_point(2))
    assert {p.coords for p in got} == {(2, 1), (2, -1)}
    F2 = api.symmetrize(f2, 2)
    q = api.eta([api.p1_point(2)] * 2)
    got2 = api.rational_preimages(f2, F2, q)
    want = {api.eta([api.p1_point(2), api.p1_point(2)]),
            api.eta([api.p1_point(2), api.p1_point(-2)]),
            api.eta([api.p1_point(-2), api.p1_point(-2)])}
    assert set(got2) == want
    fp = _map("x^2 + 1")
    got3 = api.rational_preimages(fp, api.symmetrize(fp, 1), api.p1_point(-2))
    assert got3 == []
    return "preimage sets exact"


@fixture("pcf-suite", "DERIVED",
         "postcritical finiteness: x^2-1 and x^2-2 are PCF, x^2+1 is not; "
         "the conjugated family z^2 - 1/a^2 is PCF at a=1, not at a=2")
def _fx_pcf():
    crit = api.critical_points(_map("x^2 + 1"))
    assert {(pt.to_text(), m) for _f, pt, m in crit} == {("oo", 1), ("0", 1)}
    fa = api.parse_map("[-4*z^2, (z + t)^2]").map   # a = 2
    crit_fa = {(pt.to_text(), m) for _f, pt, m in api.critical_points(fa)}
    assert crit_fa == {("0", 1), ("-1", 1)}
    verdicts = {}
    for label, text in [("x^2-1", "x^2 - 1"), ("x^2-2", "x^2 - 2"),
                        ("x^2+1", "x^2 + 1"), ("p_1", "x^2 - 1"),
                        ("p_2", "x^2 - 1/4")]:
        verdicts[label] = api.is_pcf(_map(text)).verdict
    assert verdicts == {"x^2-1": "PCF", "x^2-2": "PCF", "x^2+1": "not-PCF",
                        "p_1": "PCF", "p_2": "not-PCF"}
    for label, text in [("x^2-1", "x^2 - 1"), ("x^2-1/4", "x^2 - 1/4")]:
        strong = api.is_strongly_pcf_symmetric(_map(text), 2)
        assert strong.verdict == api.is_pcf(_map(text)).verdict
    sq = api.is_strongly_pcf_symmetric(api.parse_map("[z^2, t^2]").map, 3)
    assert sq.verdict == "PCF"
    return "verdicts with certificates"


@fixture("exact-arithmetic", "PAPER",
         "kernel checks: factorizations, field arithmetic, minimal polynomials")
def _fx_exact():
    assert api.factor_integer(4096) == {2: 12}
    assert api.factor_integer(1) == {}
    content, facs = api.factor_unipoly(api.UniPoly((-1, 0, 1)))
    assert content == 1 and [(g.to_text(), m) for g, m in facs] == \
        [("x - 1", 1), ("x + 1", 1)]
    _c, facs29 = api.factor_unipoly(api.UniPoly((23, -164, 16, 64)))
    assert len(facs29) == 1 and facs29[0][1] == 1
    assert api.is_irreducible(api.UniPoly((1, 1, 1, 1, 1)))
    K = api.NumberField.get(api.UniPoly((-5, 0, 1)))
    a = K.gen()
    assert api.nf_arith(K, K.one() + a, K.one() - a, "mul") == -4
    assert api.minimal_polynomial(F(7, 4)) == api.UniPoly((F(-7, 4), 1))
    L = api.NumberField.get(api.UniPoly((23, -164, 16, 64)))
    w = L.gen()
    assert api.minimal_polynomial(w) == L.minpoly
    e = api.nf_arith(L, w * w, L.from_rational(F(29, 16)), "sub")
    me = api.minimal_polynomial(e)
    assert me.degree == 3
    # the cubic field is cyclic: f permutes the conjugates of w
    assert me == L.minpoly
    return "kernels exact"


@fixture("naive-height", "TRIVIAL", "log of the largest coordinate")
def _fx_naive():
    import math

    assert abs(api.naive_height(api.p1_point(3)) - math.log(3)) < 1e-12
    assert abs(api.naive_height(api.PkPoint((81, 108, 54, 12, 1)))
               - math.log(108)) < 1e-12
    assert api.naive_height(api.PkPoint((1, -1, 1, -1, 1))) == 0.0
    return "naive heights exact"


@fixture("green-local", "DERIVED",
         "good primes contribute zero; the power map has Green value log 2 "
         "at (2:1); comparison constants dominate sampled height jumps")
def _fx_green():
    import math

    f2 = _map("x^2 - 2")
    M = api.morphism_of_map(f2)
    assert api.green_local(M, api.p1_point(3), 7, bad=()) == (0.0, 0.0)
    sq = api.morphism_of_map(api.parse_map("[z^2, t^2]").map)
    v, err = api.green_local(sq, api.p1_point(2), "arch", tol=1e-9, bad=())
    assert abs(v - math.log(2)) <= err + 1e-12
    C = api.height_comparison_constant(M, bad=api.bad_primes(f2))
    # sampled lower bounds the certificate must dominate
    for pt in (api.p1_point(1), api.p1_point(3), api.p1_point(F(7, 5))):
        img = f2.apply_point(pt)
        jump = abs(api.naive_height(img) - 2 * api.naive_height(pt))
        assert jump <= C + 1e-9
    B = api.preperiodicity_bound(f2)
    assert B >= 0
    return f"C = {C:.3f}, B = {B:.3f}"


@fixture("parser", "PAPER",
         "map expressions parse to the exact primitive lifts; degree < 2 and "
         "degenerate pairs are refused")
def _fx_parser():
    m = api.parse_map("x^2 - 29/16")
    assert m.map.num == (16, 0, -29) and m.map.den == (0, 0, 16)
    assert api.parse_map(m.to_text()).map == m.map
    milnor = api.parse_map("[z^2 + 4*z*t, t^2 + 4*z*t]")
    assert milnor.map.d == 2
    try:
        api.parse_map("x")
        raise AssertionError("degree-1 map accepted")
    except api.DomainError:
        pass
    try:
        api.parse_map("[z^2, z^2]")
        raise AssertionError("degenerate pair accepted")
    except api.DegenerateMapError:
        pass
    pt = api.parse_point("(81, 108, 54, 12, 1)")
    assert pt.coords == (81, 108, 54, 12, 1)
    return "grammar round trips"


def run_fixtures() -> list[FixtureResult]:
    """Run the corpus and report in declaration order."""

    def run_one(fx: Fixture) -> FixtureResult:
        t0 = time.time()
        try:
            detail = fx.run() or ""
            return FixtureResult(fx.name, fx.provenance, True, detail,
                                 time.time() - t0)
        except AssertionError as exc:
            return FixtureResult(fx.name, fx.provenance, False,
                                 f"assertion failed: {exc}", time.time() - t0)
        except Exception as exc:  # report, never raise
            return FixtureResult(fx.name, fx.provenance, False,
                                 f"{type(exc).__name__}: {exc}", time.time() - t0)

    return [run_one(fx) for fx in FIXTURES]
