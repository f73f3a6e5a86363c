"""Exact linear algebra over Q.

Determinants are fraction-free (Bareiss) eliminations over Z[x_0..x_n]
(det_poly, on _Packed entries), for the number-field norms and minimal
polynomials of numberfield and the symmetric product; unipoly takes pair
resultants.  Small systems go through plain fraction Gaussian elimination.
The large sparse integer systems that arise in certificate searches are
solved by a p-adic (Dixon) lift.  All k+1 right-hand sides of one
certificate degree share a matrix.  An IntSystem splits it once into the
connected blocks of its nonzero pattern (for x^2 + c the symmetry
x -> -x splits every certificate matrix in two) and eliminates a block
mod p = 2^20 + 7, in one Gauss-Jordan pass that gives its pivots, left
null space and pivot-block inverse (see _Block), only when a right-hand
side first reaches it; later right-hand sides reuse that work.  A, b, the
Dixon residuals and the lifted digits are Python integers; only the
elimination and the products mod p run in int64.

A solve touches only the blocks holding the right-hand side's nonzero rows,
and its answer is the one a single elimination of the whole matrix gives
(see solve_int_system).  Every candidate solution is verified exactly
before it is returned, so the numerics are only a search accelerator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property

from .errors import DomainError

_DIXON_PRIME = 2 ** 20 + 7  # products of two reduced entries stay well inside int64
_DIXON_MAX_STEPS = 13333  # p-adic digits lifted before the exact fallback


def det_bareiss(rows):
    """Determinant by fraction-free (Bareiss) elimination over an exact
    domain: _Packed entries (det_poly) or integers.  Entries need *, -,
    truth testing and an exact //; every division is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = None  # step 0 has no earlier pivot to divide by
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            for j in range(k + 1, n):
                v = pk * row_i[j] - aik * row_k[j]
                row_i[j] = v // prev if k else v
        prev = pk
    return sign * a[n - 1][n - 1]


class _Packed:
    """An integer polynomial: a dict from packed exponent vectors to nonzero
    int coefficients, with the operations det_bareiss uses.

    Variable i takes bits [i w, (i+1) w) of the packed exponent.  Exponents
    stay below 2^(w-1), so the top bit of every slot (the guard mask) is
    clear: adding packed exponents multiplies monomials without carries,
    and the integer order of packed exponents is a monomial order, the lex
    order with the last variable most significant."""

    __slots__ = ("terms", "guard")

    def __init__(self, terms, guard):
        self.terms, self.guard = terms, guard

    def __bool__(self):
        return bool(self.terms)

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return _Packed(terms, self.guard)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            [(e1, c1)] = a.items()
            return _Packed({e1 + e: c1 * c for e, c in b.items()}, self.guard)
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return _Packed({e: c for e, c in out.items() if c}, self.guard)

    __rmul__ = __mul__

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _Packed(out, self.guard)

    def __floordiv__(self, other):
        """The exact quotient, by long division from the largest term down;
        raises DomainError when the division leaves a remainder.  Setting
        the guard bits before subtracting a divisor exponent keeps borrows
        inside each slot: a slot whose guard bit is then clear went
        negative, so the monomial does not divide."""
        div = other.terms
        if not div:
            raise DomainError("division by the zero polynomial")
        guard = self.guard
        lead = max(div)
        lc = div[lead]
        if len(div) == 1:
            out = {}
            for e, c in self.terms.items():
                q = (e | guard) - lead
                cq, r = divmod(c, lc)
                if q & guard != guard or r:
                    raise DomainError("polynomial division is not exact")
                out[q ^ guard] = cq
            return _Packed(out, guard)
        import heapq  # here, so that import symprod loads no new module
        tail = [(e, c) for e, c in div.items() if e != lead]
        rest = dict(self.terms)
        heap = [-e for e in rest]
        heapq.heapify(heap)
        out = {}
        while heap:
            e = -heapq.heappop(heap)
            c = rest.pop(e, 0)
            if not c:
                continue  # cancelled; keys are taken in decreasing order
            q = (e | guard) - lead
            cq, r = divmod(c, lc)
            if q & guard != guard or r:
                raise DomainError("polynomial division is not exact")
            q ^= guard
            out[q] = cq
            for e2, c2 in tail:
                t = q + e2
                s = rest.get(t, 0) - cq * c2
                if t not in rest:
                    heapq.heappush(heap, -t)
                rest[t] = s
        return _Packed(out, guard)


def det_poly(rows, nvars):
    """The determinant of a square matrix over Z[x_0..x_(nvars-1)], as an
    {exponent tuple: int} dict of nonzero coefficients in no fixed order
    ({} for a singular matrix).  Entries are ints or such dicts.

    One det_bareiss on _Packed entries.  A Bareiss entry is a minor, so its
    degree in each variable is at most D, the sum over the rows of the
    largest exponent in the row's dicts; a product of two entries, and every term
    met while dividing it exactly (a quotient term times a divisor term),
    has degree at most 2D in each variable.  Slots of w bits with
    2^(w-1) > 2D hold every exponent below the guard bit."""
    bound = sum(max((max(map(max, c)) for c in row if isinstance(c, dict) and c),
                    default=0) for row in rows)
    w = (2 * bound).bit_length() + 1
    shifts = range(0, w * nvars, w)
    guard = sum(1 << (s + w - 1) for s in shifts)
    zero = _Packed({}, guard)  # entries are never changed in place

    def pack(c):
        if isinstance(c, int):
            return _Packed({0: c}, guard) if c else zero
        return _Packed({sum(map(operator.lshift, e, shifts)): v
                        for e, v in c.items() if v}, guard)

    det = det_bareiss([[pack(c) for c in row] for row in rows])
    if isinstance(det, int):  # the empty or a singular matrix
        return {(0,) * nvars: det} if det else {}
    mask = (1 << w) - 1
    return {tuple([(e >> s) & mask for s in shifts]): c
            for e, c in det.terms.items()}


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


# ---------------------------------------------------------------------------
# Large sparse integer systems: connected blocks, one modular elimination
# per block, Dixon lifting.  numpy is imported inside the functions that use
# it, so that only a certificate search loads it.
# ---------------------------------------------------------------------------


class IntSystem:
    """An integer matrix A prepared once for many right-hand sides.

    A is split once into the connected blocks of its nonzero pattern: two
    rows are in one block when they share a nonzero column.  After a
    permutation A is block diagonal, plus all-zero rows and columns, so
    A x = b splits into one independent system per block and a solve only
    touches the blocks that hold b's nonzero rows.  Each block is prepared
    lazily, on the first right-hand side that reaches it (see _Block).
    The split stays for memory: as one block, the x^2 + 1 template searches
    at k = 4, 5 take as long (0.09-0.16 s), but the cycles benchmark peaks
    at 52.8-54.6 MB of RSS after 4 groups, not 44.8-45.2 MB (seeds 1-3, on
    a 2-core Xeon).
    """

    def __init__(self, rows):
        """rows: the rows of A, or A as an integer array."""
        self.rows = rows
        self._blocks = {}

    @cached_property
    def _split(self):
        """A as an array of Python integers and the block label of every row
        and column (-1 for an all-zero row or column)."""
        import numpy as np
        A = np.asarray(self.rows, dtype=object)
        m, n = A.shape
        rr, cc = np.nonzero(A)
        row_label = np.full(m, -1)
        row_label[rr] = _row_components(m, n, rr, cc)[rr]
        col_label = np.full(n, -1)
        col_label[cc] = row_label[rr]
        return A, row_label, col_label

    def _block(self, label):
        blk = self._blocks.get(label)
        if blk is None:
            import numpy as np
            A, row_label, col_label = self._split
            rows = np.flatnonzero(row_label == label)
            cols = np.flatnonzero(col_label == label)
            blk = self._blocks[label] = _Block(rows, cols, A[np.ix_(rows, cols)])
        return blk


def _row_components(m, n, rr, cc):
    """A label per row, equal for rows joined by a chain of shared columns
    of the nonzero entries (rr[t], cc[t]): min-label propagation through
    the columns with pointer jumping, so no zero entry is ever visited."""
    import numpy as np
    label = np.arange(m)
    while True:
        col_min = np.full(n, m)
        np.minimum.at(col_min, cc, label[rr])
        new = label.copy()
        np.minimum.at(new, rr, col_min[cc])
        new = new[new]  # labels never exceed their row and stay in its block
        if np.array_equal(new, label):
            return label
        label = new


class _Block:
    """One connected block of an IntSystem: the rows and columns of A it
    holds and its submatrix, eliminated mod p on the first solve.

    One Gauss-Jordan pass over [A | I] mod p pivots in column order and
    clears each pivot column in every other row; rows are never swapped.
    A column's pivot row is, among the rows not yet pivoted on that are
    nonzero mod p there, the one with the fewest nonzeros left in A, the
    lowest on ties: a fill-reducing choice (Markowitz, The elimination
    form of the inverse, 1957) that keeps rows sparse.  An update touches
    only the nonzero entries of the pivot row, so sparse rows keep it
    short: on the largest cycles-workload block (236 x 396) the entry
    updates fall from 7.0 M to 0.58 M against taking the first nonzero row.

    The pivot rows and columns of A select a square block that is
    nonsingular mod p.  Every row only ever receives multiples of pivot
    rows, so the identity part of the rows never pivoted on spans the left
    null space of A mod p (b is consistent mod p exactly when those rows
    annihilate it), and that of the pivot rows, read at the pivot rows'
    indices, maps the pivot block to I: it is the block's inverse mod p,
    which is unique.

    A solve's answer does not depend on the row rule.  The pivot columns
    are the greedy column basis whichever rows are chosen; consistent_mod_p
    accepts any basis of the left null space; and the solution supported
    on the pivot columns is unique, so lift reconstructs the same x from
    any nonsingular pivot block (and verifies it against all of A).
    """

    def __init__(self, rows, cols, A):
        self.rows, self.cols, self.A = rows, cols, A

    @cached_property
    def _echelon(self):
        """(pivot rows, pivot columns, left null space, pivot-block inverse)

        [A | I] is kept reduced mod p: each pivot reduces the entries it
        updates, so the row rule counts the nonzeros of A mod p."""
        import numpy as np
        p = _DIXON_PRIME
        A = self.A
        m, n = A.shape
        M = np.concatenate([np.mod(A, p).astype(np.int64),
                            np.eye(m, dtype=np.int64)], axis=1)
        free = np.ones(m, dtype=bool)  # rows not pivoted on yet
        piv_rows, piv_cols = [], []
        for c in range(n):
            hit = M[:, c].nonzero()[0]
            cand = hit[free[hit]]
            if not cand.size:
                continue
            # free rows are zero left of column c
            r = int(cand[0] if cand.size == 1 else
                    cand[(M[cand, c:n] != 0).sum(axis=1).argmin()])
            prow = M[r]
            js = prow.nonzero()[0]
            vals = prow[js] * pow(int(prow[c]), p - 2, p) % p
            prow[js] = vals
            others = hit[hit != r]
            if others.size:
                at = (others[:, None], js)
                M[at] = (M[at] - M[others, c][:, None] * vals) % p
            free[r] = False
            piv_rows.append(r)
            piv_cols.append(c)
            if len(piv_rows) == m:
                break
        return (piv_rows, piv_cols, M[free, n:],
                M[np.ix_(piv_rows, n + np.array(piv_rows, dtype=int))])

    @cached_property
    def _pivot_block(self):
        import numpy as np
        piv_rows, piv_cols, _null, _inv = self._echelon
        return self.A[np.ix_(piv_rows, piv_cols)]

    def consistent_mod_p(self, b):
        import numpy as np
        p = _DIXON_PRIME
        bmod = np.array([c % p for c in b], dtype=np.int64)
        return not np.any((self._echelon[2] @ bmod) % p)

    def lift(self, b):
        """The solution of A x = b supported on the pivot columns, found by
        Dixon-lifting the pivot block p-adically, reconstructing rationals
        and verifying A x = b exactly; None when only exact elimination can
        decide.  A reconstruction that solves the pivot block exactly but
        not A x = b is that block's unique solution, so lifting further
        cannot help.

        A step is x = inv * residual mod p, residual <- (residual - A x) / p:
        the digit x is found in int64, the residual kept in Python integers."""
        import numpy as np
        sub_rows, sub_cols, _null, inv = self._echelon
        if not sub_cols:
            return None  # every entry is a multiple of p
        p = _DIXON_PRIME
        Asub = self._pivot_block
        r = len(sub_rows)
        # A x as row sums over the pivot block's nonzeros, which are sparse
        # and found row by row; every row of the nonsingular block has one
        nz_rows, nz_cols = Asub.nonzero()
        nz_vals = Asub[nz_rows, nz_cols]
        starts = np.flatnonzero(np.diff(nz_rows, prepend=-1))
        b_sub = [b[i] for i in sub_rows]
        residual = np.array(b_sub, dtype=object)
        acc = np.zeros(r, dtype=object)  # the p-adic digits so far, summed
        weight = 1
        step = 0
        check_at = 16
        while step < _DIXON_MAX_STEPS:
            x_i = (inv @ (residual % p).astype(np.int64)) % p
            acc += x_i.astype(object) * weight
            weight *= p
            residual = (residual - np.add.reduceat(nz_vals * x_i[nz_cols], starts)) // p
            step += 1
            if step == check_at or step == _DIXON_MAX_STEPS:
                check_at *= 2
                xs = []
                for val in acc:
                    fr = _rational_reconstruct(int(val), weight)
                    if fr is None:
                        break
                    xs.append(fr)
                if len(xs) < r:
                    continue
                cand = [Fraction(0)] * self.A.shape[1]
                for j, c in enumerate(sub_cols):
                    cand[c] = xs[j]
                if _verify_solution(self.A, b, cand):
                    return cand
                if _verify_solution(Asub, b_sub, xs):
                    break
                # reconstruction succeeded but was spurious; keep lifting
        return None

    def solve_exact(self, b):
        """Exact elimination over Q; slow, but only tiny systems get here."""
        fr = solve_fraction(self.A.tolist(), b)
        if fr is not None and _verify_solution(self.A, b, fr):
            return fr
        return None


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


def solve_int_system(system, rhs):
    """One exact rational solution of A x = b for an integer matrix.

    system is an IntSystem, shared across right-hand sides, or the rows of A.
    Only the blocks holding b's nonzero rows are solved; the other columns
    stay 0, and a nonzero entry of b on an all-zero row of A makes the
    system inconsistent.  Each touched block is tested against its left
    null space mod p, then Dixon-lifted (_Block.lift).  When some block
    needs exact elimination, every touched block is eliminated exactly.
    Returns a Fraction list, or None when the system is inconsistent mod
    p = _DIXON_PRIME = 2^20 + 7.  That implies inconsistency over Q only
    when p divides no minor of the block: a consistent system whose every
    solution has p in a denominator, such as [[p]] x = [1], also gives None.

    The answer is the one a single elimination of all of A gives.  Column
    order pivoting keeps the greedy column basis, mod p and over Q; the
    column space of A is the direct sum of the blocks' column spaces, so
    the greedy basis of a block is the global one restricted to the block,
    and the solution supported on that basis is unique.  The left null
    space mod p splits the same way.
    """
    if not isinstance(system, IntSystem):
        system = IntSystem(system)
    A, row_label, _col_label = system._split
    bvec = list(rhs)
    touched = sorted({int(row_label[i]) for i, c in enumerate(bvec) if c})
    if touched and touched[0] < 0:
        return None  # b is nonzero on an all-zero row of A
    blocks = [system._block(label) for label in touched]
    parts = [[bvec[i] for i in blk.rows] for blk in blocks]
    if not all(blk.consistent_mod_p(b) for blk, b in zip(blocks, parts)):
        return None  # inconsistent mod p; over Q too unless p divides a minor
    sols = [blk.lift(b) for blk, b in zip(blocks, parts)]
    if None in sols:
        # the rational greedy basis may differ from the one mod p, so no
        # block keeps a lifted solution
        sols = [blk.solve_exact(b) for blk, b in zip(blocks, parts)]
        if None in sols:
            return None
    x = [Fraction(0)] * A.shape[1]
    for blk, sol in zip(blocks, sols):
        for c, v in zip(blk.cols, sol):
            x[c] = v
    return x


def _verify_solution(A, rhs, x):
    """A x = b exactly, for an array A of Python integers: with x scaled by
    the lcm of its denominators, only the nonzero columns take part."""
    import numpy as np
    cols = [j for j, xj in enumerate(x) if xj]
    if not cols:
        return all(b == 0 for b in rhs)
    den = math.lcm(*(x[j].denominator for j in cols))
    nums = np.array([x[j].numerator * (den // x[j].denominator) for j in cols],
                    dtype=object)
    return all(v == den * b
               for v, b in zip(A[:, cols].dot(nums), rhs))
