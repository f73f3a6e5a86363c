import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from symprod import (AlgebraicPoint, MorphismPk, NumberField, PkPoint,
                     RationalMap1, UniPoly, apply, bad_primes, bad_primes_sym,
                     canonical_height, canonical_height_nf, eta, eta_tilde,
                     green_local, height_comparison_constant, morphism_of_map,
                     naive_height, p1_point, parse_map, preperiodicity_bound,
                     symmetrize)
from symprod import heights
from symprod.errors import BudgetExceededError, CertificateError, DomainError
from symprod.gf import morphism_degenerate_over
from symprod.heights import morphism_certificate
from symprod.mpoly import MPoly

from mpoly_helpers import eval_mp_termwise

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


def test_green_local_takes_only_the_archimedean_place_or_a_prime():
    f = _map("x^2 - 16/9")
    M, bad, p = morphism_of_map(f), bad_primes(f), p1_point(F(5, 3))
    assert bad == (3,)
    term = green_local(M, p, 3, bad=bad)
    assert term[0] < 0 and green_local(M, p, "3", bad=bad) == term
    assert green_local(M, p, 2, bad=bad) == (0.0, 0.0)  # a good prime
    for place in (4, 6, -3, 0, 1, "abc"):
        with pytest.raises(DomainError, match=repr(place)) as err:
            green_local(M, p, place, bad=bad)
        assert err.value.code == "E_DOMAIN"


def test_points_of_another_dimension_are_refused():
    F2 = symmetrize(_map("x^2 - 2"), 2)
    for p in (PkPoint((1, 2, 3, 4)), PkPoint((3, 1))):
        with pytest.raises(DomainError):
            canonical_height(F2, p)
        with pytest.raises(DomainError):
            green_local(F2, p, "arch")


def test_precision_above_the_numeral_cap_is_refused_before_any_work(monkeypatch):
    from symprod.parser import _MAX_BITS

    def search(*_):
        raise AssertionError("certificate searched")

    monkeypatch.setattr(heights, "morphism_certificate", search)
    f = _map("x^2 - 2")
    M, p = morphism_of_map(f), p1_point(3)
    for run in (lambda prec: canonical_height(M, p, prec=prec),
                lambda prec: green_local(M, p, "arch", prec=prec),
                lambda prec: canonical_height_nf(f, AlgebraicPoint.rational(3),
                                                 prec=prec)):
        for prec in (_MAX_BITS + 1, 10 ** 7):
            with pytest.raises(BudgetExceededError) as err:
                run(prec)
            assert err.value.code == "E_BUDGET"


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


def test_preperiodicity_bound_refuses_a_morphism_of_pk():
    with pytest.raises(DomainError):
        preperiodicity_bound(symmetrize(_map("x^2 - 2"), 2))


def test_certificate_escape_threshold_is_sound():
    f = _map("x^2 - 29/16")
    cert = morphism_certificate(morphism_of_map(f), bad=bad_primes(f))
    assert math.log(cert.escape_threshold - 1) >= cert.bound


# g_norms per (map, k): the search does not depend on the bad primes
PINNED_G_NORMS = {
    ("x^2 - 2", 4): (31, 953, 126980, 606, 1),
    ("x^2 - 29/16", 3): (49365, 3273369, 8194403, 1),
    ("x^2 - 16/9", 5): (2320825, 1526788276, 637900876282580,
                        26376027737045476, 220332323900, 1),
    ("x^3 - 2", 3): (15, 6080, 4622, 1),
    ("x^2 + x - 3", 4): (2556, 68489519, 2110421030, 7250, 1),
    ("x^2 - 1000003/1000", 3): (1001010007030009027, 1002517026085578153067581,
                                3003048041244123432081243, 1),
}


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
    # one block at every degree
    ("x^2 + x - 3", 4, "bad_primes", (6, 6, 6, 4, 2), (1, 27, 2187, 81, 1), (),
     14.746354419223044),
    # row |A|-sums above 2^40: Dixon steps on Python integers
    ("x^2 - 1000003/1000", 3, "bad_primes", (2, 4, 4, 2),
     (1000000000000000000, 125000375000000000000000,
      250002250006750006750000000000, 1000000000), (2, 5), 43.528484080259034),
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
    assert cert.g_norms == PINNED_G_NORMS[text, k]
    assert cert.bad == bad_out
    assert cert.constant == constant


def _macaulay_rows_reference(fterms, nvars, d, M):
    """The certificate matrix at degree M, one term at a time into dense
    rows: column j * len(gmons) + a holds x^gmons[a] * F_j."""
    gmons = heights._monomials(nvars, M - d)
    row_index = {m: i for i, m in enumerate(heights._monomials(nvars, M))}
    rows = [[0] * (nvars * len(gmons)) for _ in row_index]
    for j, terms in enumerate(fterms):
        for a, alpha in enumerate(gmons):
            for e, c in terms:
                tot = tuple(x + y for x, y in zip(alpha, e))
                rows[row_index[tot]][j * len(gmons) + a] += c
    return rows


@pytest.mark.parametrize("text,k,dtype", [
    ("x^2 + x - 3", 3, np.int64), ("x^3 - 2", 2, np.int64),
    ("[z^2 - 3*t^2 + z*t, 5*z^2 + t^2]", 3, np.int64),
    ("x^2 + 3^50", 2, object),
])
def test_macaulay_matrix_matches_termwise_build(text, k, dtype):
    F = symmetrize(_map(text), k)
    nvars = k + 1
    fterms = [[(e, int(c)) for e, c in comp.terms.items()] for comp in F.components]
    # dtype: whether F's coefficients fit in int64 (object: some are past 2^63)
    fits = max(abs(c) for ts in fterms for _e, c in ts) < 2 ** 63
    assert fits == (dtype is np.int64)
    for M in range(F.d, F.d + 3):
        A = heights._macaulay_matrix(fterms, heights._monomials(nvars, M - F.d),
                                     heights._monomials(nvars, M))
        assert A.tolist() == _macaulay_rows_reference(fterms, nvars, F.d, M)


def test_macaulay_matrix_encodes_many_variables_on_python_integers():
    # 41 variables: no base-3 code of an exponent vector fits in int64
    # (2 * 3^40 > 2^63), so rows are found by the monomials themselves
    nvars, d, M = 41, 1, 2
    rng = random.Random(11)
    fterms = []
    for j in range(nvars):
        terms = {}
        for _ in range(3):
            e = [0] * nvars
            e[rng.randrange(nvars)] = 1
            terms[tuple(e)] = rng.choice([-7, -1, 2, 5])
        fterms.append(list(terms.items()))
    A = heights._macaulay_matrix(fterms, heights._monomials(nvars, M - d),
                                 heights._monomials(nvars, M))
    assert A.tolist() == _macaulay_rows_reference(fterms, nvars, d, M)


def test_certificate_identity_check_against_mpoly():
    # x^2 - 2 at k = 1: F = [X^2 - 2Y^2, Y^2], so X^2 = F_0 + 2 F_1
    F = symmetrize(_map("x^2 - 2"), 1)
    fterms = [[(e, int(c)) for e, c in comp.terms.items()] for comp in F.components]
    rng = random.Random(5)
    cases = [([{(0, 0): 1}, {(0, 0): 2}], (2, 0), 1, True),
             ([{(0, 0): 3}, {(0, 0): 6}], (2, 0), 3, True),
             ([{(0, 0): 1}, {(0, 0): 2}], (2, 0), 2, False),
             ([{(0, 0): 1}, {(0, 0): 1}], (2, 0), 1, False),
             ([{}, {(0, 0): 1}], (0, 2), 1, True)]
    for _ in range(40):
        M = rng.randint(2, 4)
        polys = [{(a, M - 2 - a): rng.randint(-2, 2) for a in range(M - 1)
                  if rng.random() < 0.5} for _ in range(2)]
        target = rng.choice([(M, 0), (0, M)])
        den = rng.randint(1, 3)
        acc = MPoly.zero(2)
        for g, comp in zip(polys, F.components):
            acc = acc + MPoly(2, g) * comp
        cases.append((polys, target, den, acc == MPoly(2, {target: den})))
    # inputs of any degree: monomials are coded in a base above every
    # exponent, so x^2 = F_0 + 2 F_1 is not taken for the x_1 of equal code
    # in base 2
    cases.append(([{(0, 0): 1}, {(0, 0): 2}], (0, 1), 1, False))
    for _ in range(40):
        polys = [{(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-2, 2)
                  for _ in range(rng.randint(0, 3))} for _ in range(2)]
        target = (rng.randint(0, 5), rng.randint(0, 5))
        acc = MPoly.zero(2)
        for g, comp in zip(polys, F.components):
            acc = acc + MPoly(2, g) * comp
        cases.append((polys, target, 1, acc == MPoly(2, {target: 1})))
    for polys, target, den, want in cases:
        assert heights._certificate_identity_holds(fterms, polys, target, den) == want


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
        monkeypatch.setattr(heights, "_template_cache", {})
        calls.clear()
        morphism_certificate(F, bad=bad)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _family_maps(d, count, seed):
    rng = random.Random(seed)
    cs = [F(rng.randrange(-300, 60), rng.randrange(1, 12) ** 2) for _ in range(count)]
    return [f"x^{d} + ({c})" for c in cs if c]


@pytest.mark.parametrize("d,ks,texts", [
    (2, (1, 2, 3, 4, 5), _family_maps(2, 6, 3) + ["x^2 - 64/9", "x^2 + 7",
                                                  "x^2 - 1000003/1000"]),
    (3, (1, 2, 3), _family_maps(3, 4, 5) + ["x^3 - 2", "x^3 + 5/8"]),
])
def test_rescaled_certificate_equals_search(monkeypatch, d, ks, texts):
    monkeypatch.setattr(heights, "_template_cache", {})
    for text in texts:
        for k in ks:
            Fk = symmetrize(_map(text), k)
            assert heights._family_scaling(Fk) is not None, (text, k)
            assert heights._rescaled_search(Fk) == heights._search_certificate(Fk)
    assert set(heights._template_cache) == {(d, k) for k in ks}


def _identity_on_tuples(fterms, polys, target, den):
    """sum_j g_j F_j == den * x^target on tuple-keyed monomials (the check
    before monomials were coded)."""
    acc = {}
    for g, fj in zip(polys, fterms):
        for alpha, a in g.items():
            for e, c in fj:
                key = tuple(x + y for x, y in zip(alpha, e))
                acc[key] = acc.get(key, 0) + a * c
    return {e: c for e, c in acc.items() if c} == {target: den}


def _fraction_rescale(Fk, search):
    """The reference rescale of T's search result to F: every g_ij[a] =
    g~_ij[a] c^s / (lam r~_i) a Fraction, r_i the lcm of their reduced
    denominators, verified on tuple-keyed monomials."""
    _entry, lam, c = heights._family_scaling(Fk)
    exps, mults, _gnorms, gs = search
    d, nvars = Fk.d, Fk.k + 1
    fterms = heights._fterms(Fk)
    out = []
    for i, (M, den, polys) in enumerate(zip(exps, mults, gs)):
        scaled = [{a: x * c ** ((heights._weight(a) + d * j - i * M) // d)
                   / lam / den for a, x in g.items()} for j, g in enumerate(polys)]
        r = math.lcm(*(x.denominator for g in scaled for x in g.values()))
        ints = [{a: x.numerator * (r // x.denominator) for a, x in g.items()}
                for g in scaled]
        target = tuple(M if t == i else 0 for t in range(nvars))
        assert _identity_on_tuples(fterms, ints, target, r)
        out.append((r, sum(abs(v) for g in ints for v in g.values()), ints))
    mults, gnorms, gs = zip(*out)
    return exps, mults, gnorms, gs


# the x^2 + c of the benchmark's cycles pool: c = p/q^2 in [-8, 1/4], q <= 4
_CYCLES_POOL_CS = sorted({F(p, q * q) for q in range(1, 5)
                          for p in range(-8 * q * q, q * q // 4 + 1)
                          if p and math.gcd(p, q) == 1})


def test_integer_rescale_equals_the_fraction_rescale(monkeypatch):
    """The integer rescale gives the Fraction rescale's exponents,
    multipliers, g-norms and g_ij, keys in the same order, on the cycles
    pool at k = 4, 5, and on x^3 + c and x^2 + c with c negative,
    non-integral and above 2^64."""
    monkeypatch.setattr(heights, "_template_cache", {})
    assert len(_CYCLES_POOL_CS) == 141
    big = 2 ** 64 + 13
    cases = [(2, c, (4, 5)) for c in _CYCLES_POOL_CS] + [
        (3, c, (1, 2, 3)) for c in (F(-2), F(5, 8), F(-7, 27), F(big),
                                    F(-big, 3))] + [
        (2, c, (1, 2, 3, 4, 5)) for c in (F(big), F(-big), F(big, 49),
                                          F(-1, big), F(-3, 2))]
    for d, c, ks in cases:
        f = RationalMap1([1] + [0] * (d - 1) + [c], [0] * d + [1])
        for k in ks:
            Fk = symmetrize(f, k)
            got = heights._rescaled_search(Fk)
            want = _fraction_rescale(Fk, heights._template_cache[d, k][1])
            assert repr(got) == repr(want), (d, c, k)


def test_maps_outside_the_family_are_searched(monkeypatch):
    searched = []
    search = heights._search_certificate

    def recording(Fk):
        searched.append(Fk)
        return search(Fk)

    monkeypatch.setattr(heights, "_search_certificate", recording)
    monkeypatch.setattr(heights, "_cert_cache", {})
    monkeypatch.setattr(heights, "_template_cache", {})
    for text in ("x^2 + x - 3", "[z^3 - z^2*t + 2*t^3, z^2*t + 3*t^3]", "x^2",
                 "x^3 - 2*x"):
        for k in (1, 2, 3):
            Fk = symmetrize(_map(text), k)
            assert heights._family_scaling(Fk) is None
            searched.clear()
            morphism_certificate(Fk, bad=())
            assert searched == [Fk]
    assert heights._template_cache == {}


def _term_based_scaling(Fk):
    """(lam, c) worked out from F's terms alone, as the certificate layer did
    before F kept its map: every weight w(g) - d j is a multiple m d with
    m >= 0, F's term set is T's, lam and c are read from the first terms
    with m = 0 and m = 1, and every term is checked against
    lam T_j[g] c^m; None when any of that fails or no term has m = 1."""
    d, k = Fk.d, Fk.k
    terms = []
    for j, comp in enumerate(Fk.components):
        for e, coef in comp.terms.items():
            m, r = divmod(heights._weight(e) - d * j, d)
            if r or m < 0:
                return None
            terms.append((j, e, m, coef))
    if all(m != 1 for _j, _e, m, _c in terms):
        return None
    T = symmetrize(RationalMap1([1] + [0] * (d - 1) + [1], [0] * d + [1]),
                   k).components
    if any(len(a.terms) != len(b.terms) for a, b in zip(Fk.components, T)) \
            or any(e not in T[j].terms for j, e, _m, _c in terms):
        return None
    lam = next(coef / T[j].terms[e] for j, e, m, coef in terms if m == 0)
    c = next(coef / (lam * T[j].terms[e]) for j, e, m, coef in terms if m == 1)
    if any(coef != lam * T[j].terms[e] * c ** m for j, e, m, coef in terms):
        return None
    return lam, c


def test_family_read_from_f_equals_the_term_based_recovery(monkeypatch):
    """lam and c read from f equal those worked out from F's terms, on the
    cycles pool at k = 1..5 and on x^3 + c; maps outside the family are
    outside it both ways."""
    monkeypatch.setattr(heights, "_template_cache", {})
    cases = [(2, c, (1, 2, 3, 4, 5)) for c in _CYCLES_POOL_CS] + [
        (3, c, (1, 2, 3)) for c in (F(-2), F(5, 8), F(-7, 27), F(2 ** 64 + 13),
                                    F(-1, 3))]
    for d, c, ks in cases:
        f = RationalMap1([1] + [0] * (d - 1) + [c], [0] * d + [1])
        for k in ks:
            Fk = symmetrize(f, k)
            _template, lam, got = heights._family_scaling(Fk)
            assert got == c and (lam, got) == _term_based_scaling(Fk), (d, c, k)
    for text in ("x^2 + x - 3", "[z^3 - z^2*t + 2*t^3, z^2*t + 3*t^3]", "x^2",
                 "x^3 - 2*x", "3*x^2 - 1", "-x^2 + 3"):
        for k in (1, 2, 3):
            Fk = symmetrize(_map(text), k)
            assert heights._family_scaling(Fk) is None
            assert _term_based_scaling(Fk) is None


def test_a_directly_built_family_morphism_is_searched(monkeypatch):
    """A morphism equal to the symmetric product of x^2 + c but not built by
    symmetrize does not know its map: it is searched, and the search gives
    the rescaled certificate."""
    searched = []
    search = heights._search_certificate

    def recording(Fk):
        searched.append(Fk)
        return search(Fk)

    monkeypatch.setattr(heights, "_search_certificate", recording)
    monkeypatch.setattr(heights, "_template_cache", {})
    for text in ("x^2 - 29/16", "x^2 + 7"):
        for k in (1, 2, 3, 4):
            Fk = symmetrize(_map(text), k)
            direct = MorphismPk(Fk.components)
            assert direct.base is None and heights._family_scaling(direct) is None
            rescaled = heights._rescaled_search(Fk)
            searched.clear()
            assert heights._rescaled_search(direct) == rescaled
            assert len(searched) == 1 and searched[0] is direct


def test_corrupted_template_never_yields_a_certificate(monkeypatch):
    monkeypatch.setattr(heights, "_cert_cache", {})
    monkeypatch.setattr(heights, "_template_cache", {})
    morphism_certificate(symmetrize(_map("x^2 - 2"), 3), bad=())
    T, search, plan = heights._template_cache[2, 3]
    for i, (den, powers, rows, target, codes) in enumerate(plan):
        for j, row in enumerate(rows):
            if not row:
                continue
            # one coefficient per g~_ij: the first row entry the rescale reads
            a, ca, x, s = row[0]
            bad_rows = rows[:j] + (((a, ca, x + 1, s),) + row[1:],) + rows[j + 1:]
            bad_plan = plan[:i] + ((den, powers, bad_rows, target, codes),) \
                + plan[i + 1:]
            heights._template_cache[2, 3] = (T, search, bad_plan)
            monkeypatch.setattr(heights, "_cert_cache", {})
            with pytest.raises(CertificateError, match="exact verification"):
                morphism_certificate(symmetrize(_map("x^2 - 29/16"), 3))


def test_refused_template_refuses_the_family_at_once(monkeypatch):
    monkeypatch.setattr(heights, "_cert_cache", {})
    monkeypatch.setattr(heights, "_template_cache", {})
    monkeypatch.setattr(heights, "_CERT_DIM_CAP", 40)
    with pytest.raises(CertificateError) as first:
        morphism_certificate(symmetrize(_map("x^2 - 2"), 4))
    assert isinstance(heights._template_cache[2, 4], CertificateError)

    def no_search(Fk):
        raise AssertionError("searched again")

    monkeypatch.setattr(heights, "_search_certificate", no_search)
    with pytest.raises(CertificateError) as second:
        morphism_certificate(symmetrize(_map("x^2 - 29/16"), 4))
    assert second.value.code == first.value.code == "E_CERTIFICATE"
    assert str(second.value) == str(first.value)


# ---------------------------------------------------------------------------
# the Green iteration on F's evaluation plan against mpf objects
# ---------------------------------------------------------------------------


def _green_arch_termwise(Fk, p, tol, prec, cert):
    """heights._green_arch with each component evaluated term by term on
    mpf objects: the loop the plan iteration must match bit for bit."""
    d = Fk.d
    C = cert.green_constant()
    N = max(1, int(mpmath.ceil(mpmath.log(C / (tol * (d - 1))) / mpmath.log(d))) + 1)
    with mpmath.workprec(max(53, prec)):
        u = [mpmath.mpf(c) for c in p.coords]
        scale = max(abs(x) for x in u)
        acc = mpmath.log(scale)
        u = [x / scale for x in u]
        for n in range(N):
            w = [eval_mp_termwise(comp, u) for comp in Fk.components]
            s = max(abs(x) for x in w)
            acc += mpmath.log(s) / mpmath.mpf(d) ** (n + 1)
            u = [x / s for x in w]
        tail = C * float(mpmath.mpf(d) ** (-N)) / (d - 1)
        slack = N * (C + 2) * 2.0 ** (10 - mpmath.mp.prec)
        return float(acc), tail + slack


class _Constant:
    """A stand-in certificate: only its Green constant enters the iteration."""

    def __init__(self, c):
        self.c = c

    def green_constant(self):
        return self.c


# the degree-5 cycle of x^2 - 64/9, as eta~ of one of its points on P^5
CYCLE_64_9 = (34099, 8985, -11655, -3375, 810, 243)


def test_green_arch_plan_is_bit_identical_to_termwise():
    rng = random.Random(28)
    cases = []
    for text, k in (("x^2 - 64/9", 5), ("x^2 - 16/9", 4), ("x^2 - 16/9", 5)):
        f = _map(text)
        Fk = symmetrize(f, k)
        cases.append((Fk, morphism_certificate(Fk, bad=bad_primes(f))))
    for text, k in (("x^3 - 2*x", 4), ("x^2 + x - 3", 5),
                    ("[z^3 - z^2*t + 2*t^3, z^2*t + 3*t^3]", 4)):
        cases.append((symmetrize(_map(text), k), _Constant(9.5)))
    for Fk, cert in cases:
        n = Fk.k + 1
        points = [[1] + [0] * (n - 1), [(-1) ** i * (i + 2) for i in range(n)],
                  [rng.randint(-50, 50) for _ in range(n)],
                  [rng.choice((0, 1, -1)) * rng.randrange(10 ** 59, 10 ** 60)
                   for _ in range(n)]]
        if Fk.k == 5:
            points.append(list(CYCLE_64_9))
        for coords in points:
            p = PkPoint(coords)
            for prec, tol in ((53, 1e-6), (53, 1e-10), (120, 1e-6)):
                assert heights._green_arch(Fk, p, tol, prec, cert) \
                    == _green_arch_termwise(Fk, p, tol, prec, cert)


def test_cycle_height_is_pinned():
    """The height that moved when F's terms were summed in another order
    (3.07e-6 against 2.30e-6): the plan keeps the insertion order."""
    f = _map("x^2 - 64/9")
    hv = canonical_height(symmetrize(f, 5), PkPoint(CYCLE_64_9), 1e-6 * 5,
                          bad=bad_primes_sym(f, 5))
    assert (hv.value / 5, hv.error_bound / 5) == (3.0734385568109703e-06,
                                                  3.050520552390177e-07)


# ---------------------------------------------------------------------------
# heights ignore mpmath's global context
# ---------------------------------------------------------------------------


def _heights_and_constants(f, monkeypatch):
    """Seeded canonical heights under the symmetric products of f at k <= 3,
    and every constant of their certificates, searched afresh."""
    monkeypatch.setattr(heights, "_cert_cache", {})
    rng = random.Random(29)
    bad = bad_primes(f)
    out = []
    for k in (1, 2, 3):
        Fk = symmetrize(f, k)
        c = morphism_certificate(Fk, bad=bad)
        out.append((c.c_upper, c.c_lower, c.constant, c.bound, c.escape_threshold))
        for _ in range(10):
            p = PkPoint([rng.randint(-10 ** 6, 10 ** 6) for _ in range(k + 1)])
            out.append(canonical_height(Fk, p, bad=bad))
    return out


def test_heights_do_not_depend_on_the_callers_mpmath_context(monkeypatch):
    f = _map("x^2 - 16/9")
    default = _heights_and_constants(f, monkeypatch)
    old = mpmath.mp.prec
    try:
        mpmath.mp.prec = 200
        assert _heights_and_constants(f, monkeypatch) == default
        assert mpmath.mp.prec == 200
    finally:
        mpmath.mp.prec = old
