import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import (BudgetExceededError, DomainError, cli, factor_integer,
                     is_prime, prime_divisors)
from symprod.intfactor import _perfect_power
from symprod.unipoly import sylvester_resultant


def test_examples():
    assert factor_integer(4096) == {2: 12}
    assert factor_integer(1) == {}
    assert factor_integer(-1) == {}
    assert factor_integer(2 * 3 * 3 * 97) == {2: 1, 3: 2, 97: 1}
    with pytest.raises(DomainError):
        factor_integer(0)


def test_resultant_bad_prime_extraction():
    # the resultant of (16z^2 - 29t^2, 16t^2) factors as a power of two
    res = sylvester_resultant([-29, 0, 16], [16, 0, 0], 2, 2)
    assert factor_integer(int(res)) == {2: 16}
    assert prime_divisors(int(res)) == [2]


def test_larger_composites():
    n = (10 ** 9 + 7) * (10 ** 9 + 9)       # product of two large primes
    f = factor_integer(n)
    assert f == {10 ** 9 + 7: 1, 10 ** 9 + 9: 1}
    m = 2 ** 5 * 3 ** 4 * 1000003 ** 2
    assert factor_integer(m) == {2: 5, 3: 4, 1000003: 2}


def test_is_prime():
    assert is_prime(2) and is_prime(97) and is_prime(10 ** 9 + 7)
    assert not is_prime(1) and not is_prime(561) and not is_prime(10 ** 9 + 8)


@given(st.integers(min_value=1, max_value=10 ** 12))
@settings(max_examples=80, deadline=None)
def test_reconstruction(n):
    f = factor_integer(n)
    assert math.prod(p ** e for p, e in f.items()) == n
    assert all(is_prime(p) for p in f)


def test_reconstruction_with_sign():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(-10 ** 9, 10 ** 9) or 5
        f = factor_integer(n)
        assert math.prod(p ** e for p, e in f.items()) == abs(n)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases(capsys):
    # psi_12, the least strong pseudoprime to every prime base up to 37
    n = 318665857834031151167461
    assert not is_prime(n)
    assert factor_integer(n) == {399165290221: 1, 798330580441: 1}
    assert is_prime(37) and is_prime(41) and not is_prime(41 * 43)
    rc = cli.main(["period-bound", "--Np", str(n), "--p", str(n),
                   "--v", "1", "--k", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[E_DOMAIN]")


def test_perfect_powers_are_taken_apart_before_rho(capsys):
    # the resultant of x^2 + 1/N is N^4: its root N is what rho splits, so
    # the budget is that of a 67-bit N, not of the 266-bit N^4
    p, q = 9999999943, 9999999967
    assert factor_integer((p * q) ** 4) == {p: 4, q: 4}
    assert factor_integer(-(p ** 3) * q ** 6 * 2 ** 5) == {2: 5, p: 3, q: 6}
    assert factor_integer(1000003 ** 7) == {1000003: 7}
    assert cli.main(["bad-primes", "--map", f"x^2 + 1/({p}*{q})"]) == 0
    assert capsys.readouterr().out.split() == [str(p), str(q)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1000003, 1000033, 1000037, 99999989,
                                 2147483647]), min_size=1, max_size=6),
       st.integers(1, 4))
def test_factor_products_of_large_primes(primes, e):
    n = math.prod(primes) ** e
    want = {}
    for p in primes:
        want[p] = want.get(p, 0) + e
    assert factor_integer(n) == dict(sorted(want.items()))


def test_perfect_powers_of_every_exponent():
    # the residue test in front of each k-th root lets every true power by
    p, q = 1000003, 1000033
    for n, want in ((p ** 6, (p, 6)), ((p * q) ** 35, (p * q, 35)),
                    (p ** 97, (p, 97)), (p ** 2 * q, (p ** 2 * q, 1)),
                    ((p * q ** 2) ** 15, (p * q ** 2, 15))):
        assert _perfect_power(n) == want


def test_is_prime_work_budget():
    # 427! + 1 (940 digits) and 1477! + 1 (4042 digits) are factorial primes:
    # the first is tested within the budget, the second is refused before
    # any squaring
    assert is_prime(math.factorial(427) + 1)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        is_prime(math.factorial(1477) + 1)
    assert time.perf_counter() - start < 0.1
    assert not is_prime(math.factorial(1477) + 3)   # divisible by 3
