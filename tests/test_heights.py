import math
import random
from fractions import Fraction

import mpmath
import pytest

from symprod import (AlgebraicPoint, NumberField, PkPoint, RationalMap1,
                     UniPoly, apply, bad_primes, bad_primes_sym,
                     canonical_height, canonical_height_nf, eta, eta_tilde,
                     green_local, height_comparison_constant, morphism_of_map,
                     naive_height, p1_point, parse_map, preperiodicity_bound,
                     symmetrize)
from symprod.gf import morphism_degenerate_over
from symprod.heights import morphism_certificate

F = Fraction


def _map(text):
    return parse_map(text).map


def test_naive_height_examples():
    assert abs(naive_height(p1_point(3)) - math.log(3)) < 1e-12
    assert abs(naive_height(PkPoint((81, 108, 54, 12, 1))) - math.log(108)) < 1e-12
    assert naive_height(PkPoint((1, -1, 1, -1, 1))) == 0.0


def test_bad_primes():
    assert tuple(bad_primes(_map("[z^2, t^2]"))) == ()
    f29 = _map("x^2 - 29/16")
    assert tuple(bad_primes(f29)) == (2,)
    # x^2 - 2 has everywhere good reduction: the primitive lift has unit
    # resultant (Sylvester determinant = 1) and no common root mod any p
    f2 = _map("x^2 - 2")
    assert f2.res == 1
    assert tuple(bad_primes(f2)) == ()
    f15 = _map("[z^2 - t^2, 15*z*t]")
    assert tuple(bad_primes(f15)) == (3, 5)


def test_bad_primes_sym_agreement():
    for text in ("x^2 - 29/16", "x^2 - 2", "x^2 - 21/16", "[z^2 - t^2, 15*z*t]"):
        f = _map(text)
        for k in (2, 3, 4):
            assert bad_primes_sym(f, k) == bad_primes(f)


def test_degeneracy_audit_brute_force():
    """k = 2 audit: reduction degenerates over F_{p^e}, e <= 3, exactly at the
    listed primes (p <= 7)."""
    for text in ("x^2 - 29/16", "x^2 - 2"):
        f = _map(text)
        F2 = symmetrize(f, 2)
        bad = set(bad_primes_sym(f, 2))
        for p in (2, 3, 5, 7):
            found = any(morphism_degenerate_over(F2, p, e) for e in (1, 2, 3))
            assert found == (p in bad), (text, p)


def test_comparison_constant_power_map():
    sq = morphism_of_map(_map("[z^2, t^2]"))
    C = height_comparison_constant(sq, bad=())
    assert 0 <= C < 1.2e-9 + 1e-6   # C = 0 admissible up to rounding slack
    B = C / (2 - 1)
    assert B < 1e-6


def test_comparison_constant_dominates_samples():
    f = _map("x^2 - 2")
    M = morphism_of_map(f)
    C = height_comparison_constant(M, bad=bad_primes(f))
    for pt in (p1_point(1), p1_point(3), p1_point(F(7, 5)), p1_point(0)):
        img = f.apply_point(pt)
        jump = abs(naive_height(img) - 2 * naive_height(pt))
        assert jump <= C + 1e-9


def test_comparison_constant_randomized_audit():
    rng = random.Random(17)
    f = _map("x^2 - 29/16")
    M = morphism_of_map(f)
    C = height_comparison_constant(M, bad=bad_primes(f))
    for _ in range(500):
        pt = p1_point(F(rng.randrange(-10 ** 4, 10 ** 4),
                        rng.randrange(1, 10 ** 4)))
        jump = abs(naive_height(f.apply_point(pt)) - 2 * naive_height(pt))
        assert jump <= C + 1e-9


def test_preperiodicity_bound_certifies_orbits():
    f = _map("x^2 - 2")
    B = preperiodicity_bound(f)
    # the orbit of 3 exceeds B quickly: 3 -> 7 -> 47 -> ...
    pt = p1_point(3)
    for _ in range(4):
        pt = f.apply_point(pt)
    assert naive_height(pt) > B
    # all 21 recovered preperiodic points of x^2 - 29/16 stay below its bound
    f29 = _map("x^2 - 29/16")
    B29 = preperiodicity_bound(f29)
    for v in (F(7, 4), F(5, 4), F(1, 4), F(-3, 4)):
        pt = p1_point(v)
        for _ in range(8):
            assert naive_height(pt) <= B29
            pt = f29.apply_point(pt)


def test_green_good_prime_is_zero():
    f = _map("x^2 - 29/16")
    M = morphism_of_map(f)
    assert green_local(M, p1_point(3), 7, bad=bad_primes(f)) == (0.0, 0.0)


def test_green_power_map_archimedean():
    sq = morphism_of_map(_map("[z^2, t^2]"))
    v, err = green_local(sq, p1_point(2), "arch", tol=1e-10, bad=())
    assert abs(v - math.log(2)) <= err + 1e-12


def test_green_bad_place_cancels_for_preperiodic():
    f = _map("x^2 - 29/16")
    M = morphism_of_map(f)
    varch, e1 = green_local(M, p1_point(F(5, 4)), "arch", tol=1e-9,
                            bad=bad_primes(f))
    v2, e2 = green_local(M, p1_point(F(5, 4)), 2, tol=1e-9, bad=bad_primes(f))
    assert abs(varch + v2) <= e1 + e2 + 1e-12
    assert v2 < 0  # the dyadic Green term is a genuine negative contribution


def test_canonical_height_chebyshev():
    f = _map("x^2 - 2")
    M = morphism_of_map(f)
    hv = canonical_height(M, p1_point(3), tol=1e-8, bad=bad_primes(f))
    closed = float(mpmath.log((3 + mpmath.sqrt(5)) / 2))
    assert abs(hv.value - closed) <= hv.error_bound + 1e-12
    assert abs(hv.value - 0.9624) < 1e-3
    assert hv.error_bound <= 1e-8 * 1.01


def test_canonical_height_transfer_values():
    f = _map("x^2 - 2")
    F4 = symmetrize(f, 4)
    bad = bad_primes_sym(f, 4)
    h1 = canonical_height(morphism_of_map(f), p1_point(3), tol=1e-8,
                          bad=bad_primes(f))
    h4 = canonical_height(F4, PkPoint((81, 108, 54, 12, 1)), tol=1e-6, bad=bad)
    assert abs(h4.value - 3.84969) < 1e-3
    assert abs(h4.value - 4 * h1.value) < 2e-6
    hz = canonical_height(F4, PkPoint((1, -1, 1, -1, 1)), tol=1e-6, bad=bad)
    assert abs(hz.value - 1.5536) < 1e-3


def test_canonical_height_nf():
    f = _map("x^2 - 2")
    Z5 = NumberField.get(UniPoly((1, 1, 1, 1, 1)))
    hv = canonical_height_nf(f, AlgebraicPoint(Z5, Z5.gen()), tol=1e-6)
    assert abs(hv.value - 0.3884) < 1e-3
    assert hv.notes == ()
    # rational case degenerates to the direct computation
    hr = canonical_height_nf(f, AlgebraicPoint.rational(3), tol=1e-8)
    closed = float(mpmath.log((3 + mpmath.sqrt(5)) / 2))
    assert abs(hr.value - closed) <= hr.error_bound + 1e-12
    # preperiodic cubic point has height zero
    f29 = _map("x^2 - 29/16")
    K = NumberField.get(UniPoly((23, -164, 16, 64)))
    h0 = canonical_height_nf(f29, AlgebraicPoint(K, K.gen()), tol=1e-6)
    assert abs(h0.value) <= h0.error_bound


def test_canonical_height_nf_non_galois_note():
    f = _map("x^2 - 2")
    K = NumberField.get(UniPoly((-2, 0, 0, 1)))   # cube root of 2: not Galois
    hv = canonical_height_nf(f, AlgebraicPoint(K, K.gen()), tol=1e-4)
    assert any("outside stated hypotheses" in n for n in hv.notes)


def test_functional_equation():
    rng = random.Random(23)
    f = _map("x^2 - 29/16")
    cases = []
    M1 = morphism_of_map(f)
    F2 = symmetrize(f, 2)
    bad = bad_primes(f)
    for _ in range(60):
        cases.append((M1, p1_point(F(rng.randrange(-30, 31),
                                     rng.randrange(1, 20)))))
    for _ in range(40):
        pts = [p1_point(F(rng.randrange(-20, 21), rng.randrange(1, 12)))
               for _ in range(2)]
        cases.append((F2, eta(pts)))
    tol = 1e-7
    for M, p in cases:
        h1 = canonical_height(M, p, tol=tol, bad=bad)
        h2 = canonical_height(M, apply(M, p), tol=tol, bad=bad)
        assert abs(h2.value - 2 * h1.value) <= 2 * tol + 2 * h1.error_bound \
            + h2.error_bound


def _direct_height_estimate(f, point, iterations=12, prec=300):
    """Independent oracle: h(f^N P) / d^N, conjugate-averaged.

    The archimedean part iterates every complex embedding of the point
    numerically; the non-archimedean part is the leading coefficient of the
    exact minimal polynomial of the exact iterate."""
    k = point.field.degree
    cur = point
    for _ in range(iterations):
        cur = f.apply_algebraic(cur)
    assert not cur.infinity
    m = (cur.minimal_polynomial() if cur.field is not None
         else UniPoly((-cur.value, 1)))
    _c, prim = m.content_primitive()
    lead = abs(int(prim.lead))
    repeat = k // m.degree
    old = mpmath.mp.prec
    mpmath.mp.prec = prec
    try:
        m0 = point.minimal_polynomial()
        coeffs0 = [int(c) for c in m0.primitive_int_coeffs()]
        roots = mpmath.polyroots(list(reversed(coeffs0)), maxsteps=300,
                                 extraprec=100)
        num, den = f.affine_num(), f.affine_den()
        arch = mpmath.mpf(0)
        for r in roots:
            z = mpmath.mpc(r)
            for _ in range(iterations):
                z = num(z) / den(z)
            arch += mpmath.log(max(1, abs(z)))
        h = float(repeat * mpmath.log(lead) + arch) / k
    finally:
        mpmath.mp.prec = old
    return h / f.d ** iterations


def test_transfer_scaling_against_direct_estimate():
    f = _map("x^2 - 2")
    Z5 = NumberField.get(UniPoly((1, 1, 1, 1, 1)))
    pt = AlgebraicPoint(Z5, Z5.gen())
    direct = _direct_height_estimate(f, pt)
    hv = canonical_height(symmetrize(f, 4), eta_tilde(pt, 4), tol=1e-6,
                          bad=bad_primes_sym(f, 4))
    assert abs(hv.value - 4 * direct) < 1e-3

    rng = random.Random(31)
    count = 0
    while count < 10:
        d = rng.choice([2, 3, 5, 7, 10])
        m = UniPoly((-d, 0, 1))
        K = NumberField.get(m)
        a = F(rng.randrange(-4, 5))
        b = F(rng.randrange(1, 4))
        e = K.element((a, b))    # a + b sqrt(d)
        pt = AlgebraicPoint(K, e)
        direct = _direct_height_estimate(f, pt)
        hv = canonical_height(symmetrize(f, 2), eta_tilde(pt, 2), tol=1e-6,
                              bad=bad_primes_sym(f, 2))
        assert abs(hv.value - 2 * direct) < 1e-3, (d, a, b)
        count += 1


def test_height_inequalities_of_root_coefficient_lemma():
    """2^-k prod H(a_i) <= H(eta(...)) <= 2^(k-1) prod H(a_i), exactly, for
    200 random rational conjugate multisets (multiplicative heights)."""
    rng = random.Random(41)
    for _ in range(200):
        k = rng.randrange(2, 5)
        pts = []
        for _i in range(k):
            if rng.random() < 0.08:
                pts.append(PkPoint((1, 0)))
            else:
                pts.append(p1_point(F(rng.randrange(-40, 41),
                                      rng.randrange(1, 30))))
        p = eta(pts)
        Hprod = 1
        for q in pts:
            Hprod *= max(abs(q.coords[0]), abs(q.coords[1]))
        Heta = max(abs(c) for c in p.coords)
        assert Hprod <= 2 ** k * Heta            # lower bound, cleared
        assert Heta * 2 <= 2 ** k * Hprod        # upper bound, cleared
        assert 2 ** (k - 1) * Hprod >= Heta      # the stated upper bound


def test_green_decomposition():
    """canonical height = naive height + sum of (Green - local naive term)."""
    f = _map("x^2 - 29/16")
    M = morphism_of_map(f)
    bad = bad_primes(f)
    for v in (F(5, 4), F(3, 1), F(7, 5)):
        p = p1_point(v)
        hv = canonical_height(M, p, tol=1e-8, bad=bad)
        garch, e1 = green_local(M, p, "arch", tol=1e-9, bad=bad)
        g2, e2 = green_local(M, p, 2, tol=1e-9, bad=bad)
        lhs = hv.value
        rhs = naive_height(p) + (garch - naive_height(p)) + (g2 - 0.0)
        assert abs(lhs - rhs) <= hv.error_bound + e1 + e2 + 1e-10


def test_certificate_escape_threshold_is_sound():
    f = _map("x^2 - 29/16")
    cert = morphism_certificate(morphism_of_map(f), bad=bad_primes(f))
    assert math.log(cert.escape_threshold - 1) >= cert.bound


@pytest.mark.parametrize("text,k,bad,exps,mults,bad_out,constant", [
    ("x^2 - 2", 4, (), (2, 4, 6, 4, 2), (1, 1, 8, 4, 1), (), 9.672343332045605),
    ("x^2 - 2", 4, None, (2, 4, 6, 4, 2), (1, 1, 8, 4, 1), (2,),
     11.751784873725441),
    ("x^2 - 29/16", 3, "bad_primes", (2, 4, 4, 2),
     (16777216, 60817408, 399589376, 4096), (2,), 16.635532334438686),
    # two blocks (x -> -x); at odd M the targets fall in both
    ("x^2 - 16/9", 5, "bad_primes", (2, 4, 6, 6, 4, 2),
     (3486784401, 55788550416, 228509902503936, 11555266180939776,
      35664401793024, 59049), (3,), 22.998849132916373),
    # three blocks
    ("x^3 - 2", 3, "bad_primes", (3, 7, 7, 3), (1, 2, 8, 1), (),
     8.019612795401267),
])
def test_certificate_values_are_pinned(monkeypatch, text, k, bad, exps, mults,
                                       bad_out, constant):
    f = _map(text)
    if bad == "bad_primes":
        bad = bad_primes(f)
    monkeypatch.setattr("symprod.heights._cert_cache", {})
    cert = morphism_certificate(symmetrize(f, k), bad=bad)
    assert cert.exponents == exps
    assert cert.multipliers == mults
    assert cert.bad == bad_out
    assert cert.constant == constant


def test_certificate_without_bad_primes_searches_once(monkeypatch):
    from symprod import heights

    calls = []
    solve = heights.solve_int_system

    def counting(system, rhs):
        calls.append(1)
        return solve(system, rhs)

    monkeypatch.setattr(heights, "solve_int_system", counting)
    F = symmetrize(_map("x^2 - 2"), 3)
    counts = []
    for bad in ((), None):
        monkeypatch.setattr(heights, "_cert_cache", {})
        calls.clear()
        morphism_certificate(F, bad=bad)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
