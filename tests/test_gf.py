from itertools import product

import pytest

from symprod import factor_integer
from symprod.gf import find_irreducible
from symprod.polyfactor import _ddf, _pgcd, _ppowmod, _psub, _trim


def _rabin_irreducible(g, p):
    """Rabin's test for monic g of degree n >= 2 over F_p: g divides
    x^(p^n) - x, and x^(p^(n/q)) - x is prime to g for each prime q | n."""
    n = len(g) - 1
    x = [0, 1]
    if _trim(_psub(_ppowmod(x, p ** n, g, p), x, p)):
        return False
    return all(len(_pgcd(_psub(_ppowmod(x, p ** (n // q), g, p), x, p), g, p)) == 1
               for q in factor_integer(n))


def _necklaces(p, e):
    """The number of monic irreducibles of degree e over F_p (Gauss)."""
    mobius = {1: 1}
    for d in range(2, e + 1):
        mobius[d] = -sum(mobius[t] for t in range(1, d) if d % t == 0)
    return sum(mobius[d] * p ** (e // d) for d in range(1, e + 1) if e % d == 0) // e


@pytest.mark.parametrize("p, emax", [(2, 5), (3, 5), (5, 3), (7, 3)])
def test_find_irreducible_agrees_with_rabin(p, emax):
    """The distinct-degree split that find_irreducible uses and Rabin's test
    agree on every monic polynomial of degree 2..emax, and find_irreducible
    returns the first one they accept; x is irreducible."""
    assert find_irreducible(p, 1) == [0, 1]
    for e in range(2, emax + 1):
        monic = [list(tail) + [1] for tail in product(range(p), repeat=e)]
        rabin = [g for g in monic if _rabin_irreducible(g, p)]
        assert [g for g in monic if _ddf(g, p) == [(e, g)]] == rabin
        assert len(rabin) == _necklaces(p, e)
        assert find_irreducible(p, e) == rabin[0]
