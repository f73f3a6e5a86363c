"""Evaluation and differentiation of MPoly, which only the tests need, and
the term-by-term evaluations of a MorphismPk that its evaluation plan
replaced, kept as references."""

from fractions import Fraction

import mpmath

from symprod.mpoly import MPoly


def mpoly_eval(p: MPoly, values):
    """p at a point; works over any ring the coefficients embed in."""
    assert len(values) == p.nvars
    total = None
    for e, c in p.sorted_terms():
        term = c
        for v, a in zip(values, e):
            if a:
                term = term * v ** a
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def mpoly_derivative(p: MPoly, var: int) -> MPoly:
    out = {}
    for e, c in p.terms.items():
        if e[var]:
            ne = list(e)
            ne[var] -= 1
            out[tuple(ne)] = c * e[var]
    return MPoly(p.nvars, out)


def eval_int_termwise(F, coords) -> list[int]:
    """F at integer coordinates, every term's powers taken anew."""
    out = []
    for comp in F.components:
        total = 0
        for e, c in comp.sorted_terms():
            term = c.numerator
            for v, a in zip(coords, e):
                if a:
                    term *= v ** a
            total += term
        out.append(total)
    return out


def eval_mp_termwise(comp: MPoly, vals):
    """One component at mpf values, on mpf objects at mpmath's working
    precision, its terms summed in insertion order."""
    total = mpmath.mpf(0)
    for e, c in comp.terms.items():
        term = mpmath.mpf(c.numerator)
        for v, a in zip(vals, e):
            if a:
                term *= v ** a
        total += term
    return total
