"""Exact linear algebra over Q.

Small systems go through plain fraction Gaussian elimination.  The large
sparse integer systems that arise in certificate searches are solved by a
p-adic (Dixon) lift with numpy doing the modular arithmetic; every candidate
solution is verified exactly before it is returned, so the numerics are only
a search accelerator.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .unipoly import UniPoly

_DIXON_PRIME = 2 ** 20 + 7  # products of two reduced entries stay well inside int64


def det_bareiss(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def solve_fraction(rows, rhs):
    """Solve A x = b over Q by Gaussian elimination.

    Accepts over- or under-determined consistent systems; returns one solution
    (free variables set to 0) or None when the system is inconsistent.
    """
    m = len(rows)
    a = [[Fraction(c) for c in r] + [Fraction(rhs[i])] for i, r in enumerate(rows)]
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pr = a[r]
        inv = 1 / pr[c]
        for j in range(c, n + 1):
            pr[j] *= inv
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                ai = a[i]
                for j in range(c, n + 1):
                    ai[j] -= f * pr[j]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


def first_dependency(vectors):
    """Index j and coefficients c_0..c_j (c_j = 1) of the first linear relation
    sum c_i * vectors[i] = 0; returns (j, coeffs) or None if independent."""
    basis = []  # rows of a reduced matrix, with bookkeeping of combinations
    combos = []
    n = None
    for j, v in enumerate(vectors):
        n = len(v)
        row = [Fraction(c) for c in v]
        combo = [Fraction(0)] * (j + 1)
        combo[j] = Fraction(1)
        for brow, bcombo in zip(basis, combos):
            p = next(i for i, c in enumerate(brow) if c)
            if row[p]:
                f = row[p] / brow[p]
                for i in range(n):
                    row[i] -= f * brow[i]
                for i in range(len(bcombo)):
                    combo[i] -= f * bcombo[i]
        if all(c == 0 for c in row):
            lead = combo[j]
            return j, [c / lead for c in combo]
        basis.append(row)
        combos.append(combo + [Fraction(0)] * 0)
    return None


def charpoly(matrix) -> UniPoly:
    """Characteristic polynomial det(xI - M) by the Faddeev-LeVerrier scheme."""
    n = len(matrix)
    M = [[Fraction(c) for c in row] for row in matrix]
    cs = [Fraction(1)] + [Fraction(0)] * n  # cs[i] = coefficient of x^(n-i)
    A = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # A <- M (A + c_{k-1} I)
        for i in range(n):
            A[i][i] += cs[k - 1]
        A = [[sum(M[i][t] * A[t][j] for t in range(n)) for j in range(n)]
             for i in range(n)]
        tr = sum(A[i][i] for i in range(n))
        cs[k] = -tr / k
    return UniPoly(tuple(reversed(cs)))


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(m)) for j in range(p)]
            for i in range(n)]


# ---------------------------------------------------------------------------
# Large sparse integer systems: modular pivot detection + Dixon lifting
# ---------------------------------------------------------------------------


def _mod_rref_pivots(A, p):
    """Row echelon mod p; returns (pivot_rows, pivot_cols)."""
    M = np.mod(A, p).astype(np.int64)
    m, n = M.shape
    piv_rows, piv_cols = [], []
    row_order = list(range(m))
    r = 0
    for c in range(n):
        block = M[r:, c]
        nz = np.nonzero(block)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
            row_order[r], row_order[i] = row_order[i], row_order[r]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        rows = np.nonzero(M[r + 1:, c])[0]
        if rows.size:
            idx = rows + r + 1
            M[idx] = (M[idx] - np.outer(M[idx, c], M[r])) % p
        piv_rows.append(row_order[r])
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return piv_rows, piv_cols


def _mod_inverse_matrix(A, p):
    n = A.shape[0]
    M = np.concatenate([np.mod(A, p).astype(np.int64), np.eye(n, dtype=np.int64)], axis=1)
    for c in range(n):
        nz = np.nonzero(M[c:, c])[0]
        if nz.size == 0:
            return None
        i = c + int(nz[0])
        if i != c:
            M[[c, i]] = M[[i, c]]
        inv = pow(int(M[c, c]), p - 2, p)
        M[c] = (M[c] * inv) % p
        others = [r for r in range(n) if r != c and M[r, c]]
        if others:
            idx = np.array(others)
            M[idx] = (M[idx] - np.outer(M[idx, c], M[c])) % p
    return M[:, n:]


def _rational_reconstruct(a, m):
    """Rational number n/d with a*d = n (mod m), |n|,|d| <= sqrt(m/2), or None."""
    bound = math.isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 > bound or s1 == 0 or abs(s1) > bound or math.gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def solve_int_system(rows, rhs, max_digits=20000):
    """One exact rational solution of A x = b for an integer matrix.

    Strategy: find a nonsingular square subsystem mod p, Dixon-lift its
    solution p-adically, reconstruct rationals, then verify A x = b exactly
    over the full system.  Returns a Fraction list or None (inconsistent).
    """
    m = len(rows)
    n = len(rows[0])
    p = _DIXON_PRIME
    A = np.array(rows, dtype=object)
    Amod = np.array([[c % p for c in r] for r in rows], dtype=np.int64)
    bvec = list(rhs)

    aug = np.concatenate([Amod, np.array([[c % p for c in bvec]], dtype=np.int64).T], axis=1)
    piv_rows, piv_cols = _mod_rref_pivots(aug, p)
    if n in piv_cols:
        return None  # rhs column is a pivot: inconsistent mod p, hence over Q
    if not piv_cols:
        return [Fraction(0)] * n if all(c == 0 for c in bvec) else None

    sub_rows = piv_rows
    sub_cols = piv_cols
    r = len(sub_rows)
    Asub = [[rows[i][j] for j in sub_cols] for i in sub_rows]
    Asub_np = np.array([[c % p for c in row] for row in Asub], dtype=np.int64)
    inv = _mod_inverse_matrix(Asub_np, p)
    if inv is None:
        return None

    # Dixon lifting: digits of the p-adic expansion of the subsystem solution.
    max_steps = max(8, (max_digits * 4) // 6)
    residual = np.array([bvec[i] for i in sub_rows], dtype=object)
    Asub_obj = np.array(Asub, dtype=object)
    digits = []
    step = 0
    solution = None
    check_at = 16
    while step < max_steps:
        x_i = (inv @ np.mod(residual.astype(object), p).astype(np.int64)) % p
        digits.append(x_i)
        residual = (residual - Asub_obj @ x_i.astype(object)) // p
        step += 1
        if step == check_at or step == max_steps:
            check_at *= 2
            mod = p ** step
            xs = []
            ok = True
            for j in range(r):
                val = 0
                for d in reversed(digits):
                    val = val * p + int(d[j])
                fr = _rational_reconstruct(val % mod, mod)
                if fr is None:
                    ok = False
                    break
                xs.append(fr)
            if not ok:
                continue
            cand = [Fraction(0)] * n
            for j, c in enumerate(sub_cols):
                cand[c] = xs[j]
            if _verify_solution(rows, bvec, cand):
                solution = cand
                break
            # reconstruction succeeded but was spurious; keep lifting
    if solution is None:
        # fall back to exact elimination; slow, but only tiny systems get here
        fr = solve_fraction(rows, bvec)
        if fr is not None and _verify_solution(rows, bvec, fr):
            return fr
        return None
    return solution


def _verify_solution(rows, rhs, x):
    for row, b in zip(rows, rhs):
        acc = Fraction(0)
        for a, xi in zip(row, x):
            if a and xi:
                acc += a * xi
        if acc != b:
            return False
    return True
