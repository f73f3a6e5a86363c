"""Integer factorization: trial division to 10^6, then perfect powers are
taken apart and Pollard rho (Brent) splits what is left; rho and the
Miller-Rabin test each run within a work budget.

Resultants and discriminants at the scale this library works at have small
prime factors, so this classical combination is enough; rho is seeded
deterministically so factorizations are reproducible.
"""

from __future__ import annotations

import math
import threading

from .errors import BudgetExceededError, DomainError

_TRIAL_LIMIT = 10 ** 6
_TRIAL_BLOCK = 64
_primes = [2, 3, 5, 7]  # every prime below _sieved_to, grown by _next_block
_sieved_to = 11
_blocks = []  # (primes, their product): runs of _TRIAL_BLOCK of _primes
_blocks_lock = threading.Lock()

# The first 13 primes: a Miller-Rabin witness set that is deterministic for
# n < psi_13 = 3317044064679887385961981 (Sorenson-Webster 2015).  The first
# 12 alone are deterministic only below psi_12 = 318665857834031151167461,
# which they pass although it is 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Work allowed to Brent's rho on one composite n that is not a perfect power:
# steps (squarings of the iterate) times max(bits(n), 128)^2.  A step costs
# about 1.2 us up to 128 bits, where interpreter overhead dominates, and
# grows no faster than bits^2 above (5.8 us at 512 bits, 83 us at 3300 bits;
# 2-core Xeon, Python 3.11).  Rho finds a prime factor q in about sqrt(q)
# steps.  Up to 128 bits Brent's doubling rounds may take 524286 steps, which
# split every one of 100 random products of two 10-digit primes (at most
# 0.23 s) and give up on two 64-bit primes after 0.5 s; a 196-bit n is given
# up after 131070 steps (0.2 s), a 400-bit n after 32766 (0.1 s).
_RHO_WORK = 2 ** 33

# Work allowed to one Miller-Rabin test, in the same units: each base takes
# at most bits(n) squarings mod n.  The 13 bases on a 1000-digit n need
# 13 * 3322^3 < 2^39 (about 1.7 s); a 4300-digit n, the most the parser
# reads, would need about 70 times more and is refused before any squaring.
_MR_WORK = 2 ** 39


def _prime_blocks():
    """The primes up to _TRIAL_LIMIT in order, in runs of _TRIAL_BLOCK (the
    last may be shorter), each with its product."""
    j = 0
    while j < len(_blocks) or _next_block():
        yield _blocks[j]
        j += 1


def _next_block() -> bool:
    """Append the next run of primes to _blocks; False when none is left.
    The primes are sieved a segment [lo, 2 lo) at a time, only when a run
    reaches past them, so trial division of a small number sieves little.
    Under the lock, so that concurrent callers never skip or repeat a run."""
    global _sieved_to
    with _blocks_lock:
        start = len(_blocks) * _TRIAL_BLOCK
        while len(_primes) < start + _TRIAL_BLOCK and _sieved_to <= _TRIAL_LIMIT:
            # primes below lo reach every composite below lo^2 >= hi
            lo, hi = _sieved_to, min(2 * _sieved_to, _TRIAL_LIMIT + 1)
            seg = bytearray([1]) * (hi - lo)
            for p in _primes:
                if p * p >= hi:
                    break
                first = max(p * p, -(-lo // p) * p) - lo
                seg[first::p] = bytes(len(range(first, hi - lo, p)))
            _primes.extend(lo + i for i, keep in enumerate(seg) if keep)
            _sieved_to = hi
        block = _primes[start:start + _TRIAL_BLOCK]
        if block:
            _blocks.append((block, math.prod(block)))
        return bool(block)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES: a proof of primality below
    3.3 * 10^24; above it, n is only shown to be a strong probable prime.
    BudgetExceededError when the test could take more than _MR_WORK."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    bits = n.bit_length()
    if len(_MR_BASES) * bits * max(bits, 128) ** 2 > _MR_WORK:
        raise BudgetExceededError(
            f"a primality test of a {bits}-bit integer exceeds the work budget")
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


def _trial_divide(n: int, out: dict) -> int:
    """Add the primes below _TRIAL_LIMIT that divide n to out and return the
    cofactor.  Each block of primes is tested against n modulo the block's
    product, so a large n costs one long division per block rather than one
    per prime.  The search stops at the first block whose least prime p has
    p^2 > n: a larger prime of a searched block divides n only if it is n."""
    for block, prod in _prime_blocks():
        if block[0] ** 2 > n:
            break
        r = n % prod
        for p in [p for p in block if r % p == 0]:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    return n


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, by Brent's cycle variant;
    BudgetExceededError past _RHO_WORK."""
    if n % 2 == 0:
        return 2
    seed = 1
    steps, size = 0, max(n.bit_length(), 128) ** 2
    while True:
        y, c, m = (seed * 2862933555777941757 + 3037000493) % n or 1, seed % n or 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r  # at most r steps for x, then r more for y
            if steps * size > _RHO_WORK:
                raise BudgetExceededError(
                    f"factoring a {n.bit_length()}-bit integer needs more "
                    f"than {steps - 2 * r} rho steps")
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


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _may_be_power(n: int, k: int) -> bool:
    """False when n is not a k-th power residue modulo one of the first six
    sieved primes q = 1 (mod 2k), for a prime k; then n is not a k-th power.
    A k-th root of thousands of bits costs milliseconds, this test
    microseconds."""
    left = 6
    for q in _primes:
        if q % (2 * k) == 1:
            a = n % q
            if a and pow(a, (q - 1) // k, q) != 1:
                return False
            left -= 1
            if not left:
                break
    return True


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, e) with r^e = n and e largest, for n > 1 whose prime factors all
    exceed _TRIAL_LIMIT, so that r^k = n needs k <= bits(n) / 19."""
    e = 1
    for block, _prod in _prime_blocks():
        for k in block:
            if 19 * k > n.bit_length():
                return n, e
            if not _may_be_power(n, k):
                continue
            r = _iroot(n, k)
            while r ** k == n:
                n, e = r, e * k
                r = _iroot(n, k)
    return n, e


def _factor_into(n: int, out: dict, e: int = 1):
    """Add the prime factorization of n^e to out; every prime factor of n
    exceeds _TRIAL_LIMIT."""
    if n == 1:
        return
    n, k = _perfect_power(n)
    e *= k
    if is_prime(n):
        out[n] = out.get(n, 0) + e
        return
    d = _brent_rho(n)
    _factor_into(d, out, e)
    _factor_into(n // d, out, e)


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
    n = _trial_divide(n, out)
    if n > 1:
        if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
            out[n] = out.get(n, 0) + 1
        else:
            _factor_into(n, out)
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> list[int]:
    return sorted(factor_integer(n)) if n not in (1, -1) else []
