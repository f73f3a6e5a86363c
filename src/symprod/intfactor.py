"""Integer factorization: trial division to 10^6, then Pollard rho (Brent).

Resultants and discriminants at the scale this library works at have small
prime factors, so this classical combination is enough; rho is seeded
deterministically so factorizations are reproducible.
"""

from __future__ import annotations

import math

from .errors import DomainError

_TRIAL_LIMIT = 10 ** 6
_primes = [2, 3, 5, 7]  # every prime below _sieved_to, grown by _trial_primes
_sieved_to = 11

# Deterministic Miller-Rabin witness set for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _trial_primes():
    """The primes up to _TRIAL_LIMIT in order.  The cached list is extended
    by sieving the next segment [lo, 2 lo) only when a caller iterates past
    its end, so trial division of a small cofactor sieves little."""
    global _sieved_to
    i = 0
    while True:
        while i < len(_primes):
            yield _primes[i]
            i += 1
        if _sieved_to > _TRIAL_LIMIT:
            return
        # primes below lo reach every composite below lo^2 >= hi
        lo, hi = _sieved_to, min(2 * _sieved_to, _TRIAL_LIMIT + 1)
        seg = bytearray([1]) * (hi - lo)
        for p in _primes:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p) - lo
            seg[start::p] = bytes(len(range(start, hi - lo, p)))
        _primes.extend(lo + j for j, keep in enumerate(seg) if keep)
        _sieved_to = hi


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, by Brent's cycle variant."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = (seed * 2862933555777941757 + 3037000493) % n or 1, seed % n or 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1  # rare: retry with a different iteration constant


def _factor_into(n: int, out: dict):
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a nonzero integer; the sign is dropped.

    sign(n) * prod(p**e) reconstructs n exactly.
    """
    if n == 0:
        raise DomainError("0 has no prime factorization")
    n = abs(n)
    out: dict[int, int] = {}
    if n == 1:
        return out
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            _factor_into(n, out)
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> list[int]:
    return sorted(factor_integer(n)) if n not in (1, -1) else []
