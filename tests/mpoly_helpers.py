"""Evaluation and differentiation of MPoly, which only the tests need."""

from fractions import Fraction

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
