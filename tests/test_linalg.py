import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprod import linalg
from symprod.errors import DomainError
from symprod.linalg import (IntSystem, _Packed, det_bareiss, det_poly,
                            solve_fraction, solve_int_system)

P = linalg._DIXON_PRIME

# rank 2 (row 2 = row 0 + row 1, row 3 = 2 * row 0): b is in the column span
# exactly when b2 = b0 + b1 and b3 = 2 * b0
RANK_DEFICIENT = [
    [1, 2, 0, 3, 5],
    [0, 1, 1, 1, -2],
    [1, 3, 1, 4, 3],
    [2, 4, 0, 6, 10],
]


def _residual_is_zero(rows, rhs, x):
    return all(sum(a * xi for a, xi in zip(row, x)) == b
               for row, b in zip(rows, rhs))


def test_shared_system_matches_fraction_elimination():
    system = IntSystem(RANK_DEFICIENT)
    in_span = [[1, 0, 1, 2], [7, -3, 4, 14], [0, 0, 0, 0], [3, 5, 8, 6]]
    for rhs in in_span:
        x = solve_int_system(system, rhs)
        assert x is not None
        assert _residual_is_zero(RANK_DEFICIENT, rhs, x)
        assert x == solve_fraction(RANK_DEFICIENT, rhs)
    for rhs in ([1, 0, 0, 0], [0, 0, 1, 0], [1, 1, 2, 3]):
        assert solve_int_system(system, rhs) is None
        assert solve_fraction(RANK_DEFICIENT, rhs) is None
    # plain rows give the same answers as the shared system
    assert solve_int_system(RANK_DEFICIENT, in_span[3]) == \
        solve_int_system(system, in_span[3])


def test_rational_solution():
    rows = [[2, 0], [0, 3], [2, 3]]
    x = solve_int_system(rows, [1, 1, 2])
    assert x == [Fraction(1, 2), Fraction(1, 3)]


def test_zero_matrix():
    system = IntSystem([[0, 0, 0], [0, 0, 0]])
    assert solve_int_system(system, [0, 0]) == [0, 0, 0]
    assert solve_int_system(system, [0, 1]) is None
    # a multiple of the modulus is still nonzero over Q
    assert solve_int_system(system, [2 ** 20 + 7, 0]) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                 min_size=m, max_size=m),
        st.lists(st.integers(-5, 5), min_size=m, max_size=m)))))
def test_agrees_with_fraction_elimination(case):
    # entries of size <= 5 keep every minor below the modulus 2^20 + 7, so
    # ranks mod p and over Q agree and both solvers pick the same pivots
    rows, rhs = case
    assert solve_int_system(rows, rhs) == solve_fraction(rows, rhs)


small = st.integers(-5, 5)
nonzero = st.integers(1, 5)


@st.composite
def block_systems(draw):
    """Two or three random blocks on a diagonal, an all-zero row and column,
    rows and columns shuffled, and two right-hand sides with whether each is
    consistent.  The last row of a block is the sum of its other rows, so
    adding to its entry of b leaves the column span."""
    blocks = []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                             min_size=1, max_size=3))
        blocks.append(rows + [[sum(col) for col in zip(*rows)]])
    m = sum(len(b) for b in blocks) + 1
    n = sum(len(b[0]) for b in blocks) + 1
    A = [[0] * n for _ in range(m)]
    spans = []  # (last row, columns) of each block
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            A[r0 + i][c0:c0 + len(row)] = row
        spans.append((r0 + len(b) - 1, range(c0, c0 + len(b[0]))))
        r0 += len(b)
        c0 += len(b[0])

    def rhs():
        touched = draw(st.sets(st.integers(0, len(blocks) - 1),
                               min_size=1, max_size=2))
        x = [0] * n
        for t in touched:
            for j in spans[t][1]:
                x[j] = draw(small)
        b = [sum(a * xj for a, xj in zip(row, x)) for row in A]
        leave = draw(st.sampled_from(["none", "block", "zero row"]))
        if leave == "block":
            b[spans[draw(st.sampled_from(sorted(touched)))][0]] += draw(nonzero)
        elif leave == "zero row":
            b[m - 1] = draw(nonzero)
        return b, leave == "none"

    rhss = [rhs(), rhs()]
    row_perm = draw(st.permutations(range(m)))
    col_perm = draw(st.permutations(range(n)))
    rows = [[A[i][j] for j in col_perm] for i in row_perm]
    return rows, [([b[i] for i in row_perm], ok) for b, ok in rhss]


@settings(max_examples=80, deadline=None)
@given(block_systems())
def test_block_systems_agree_with_fraction_elimination(case):
    # every block minor stays below the modulus, as above
    rows, rhss = case
    system = IntSystem(rows)
    for rhs, consistent in rhss:
        x = solve_int_system(system, rhs)
        assert x == solve_fraction(rows, rhs)
        assert (x is not None) == consistent


def test_block_of_multiples_of_the_modulus_is_solved_exactly():
    # the first block vanishes mod p, so it has no pivot to lift from
    p = 2 ** 20 + 7
    rows = [[p, 0], [0, 1]]
    assert solve_int_system(rows, [p, 1]) == [1, 1]
    assert solve_int_system([[p]], [p]) == [1]


def test_block_solution_that_fails_the_full_system_stops_lifting():
    # consistent mod p (the last row is e0 mod p) but not over Q: the pivot
    # block is the identity, whose exact solution (all ones) violates the
    # last row, so lifting further cannot find a solution
    p = 2 ** 20 + 7
    n = 60
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows.append([1 + p] + [0] * (n - 1))
    rhs = [1] * (n + 1)
    start = time.perf_counter()
    x = solve_int_system(rows, rhs)
    assert time.perf_counter() - start < 0.5
    assert x is None and solve_fraction(rows, rhs) is None


def _echelon_reference(A):
    """Gauss-Jordan over [A | I] mod p, reducing every entry after every
    pivot, with _Block's row rule: among the rows not pivoted on yet that
    are nonzero in the pivot column, the one with the fewest nonzeros in A,
    the lowest on ties.  Returns (pivot rows, pivot columns, left null
    space, pivot-block inverse), as _Block._echelon promises."""
    m, n = A.shape
    M = np.concatenate([np.mod(A, P).astype(np.int64),
                        np.eye(m, dtype=np.int64)], axis=1)
    free = list(range(m))
    piv_rows, piv_cols = [], []
    for c in range(n):
        cands = [i for i in free if M[i, c]]
        if not cands:
            continue
        r = min(cands, key=lambda i: np.count_nonzero(M[i, :n]))
        M[r] = (M[r] * pow(int(M[r, c]), P - 2, P)) % P
        for i in range(m):
            if i != r and M[i, c]:
                M[i] = (M[i] - M[i, c] * M[r]) % P
        free.remove(r)
        piv_rows.append(r)
        piv_cols.append(c)
        if not free:
            break
    return (piv_rows, piv_cols, M[free, n:],
            M[np.ix_(piv_rows, n + np.array(piv_rows, dtype=int))])


def _rank_mod_p(B):
    """Rank of an integer matrix mod p, by plain elimination."""
    B = [[int(v) % P for v in row] for row in B]
    rank = 0
    for c in range(len(B[0]) if B else 0):
        piv = next((i for i in range(rank, len(B)) if B[i][c]), None)
        if piv is None:
            continue
        B[rank], B[piv] = B[piv], B[rank]
        inv = pow(B[rank][c], P - 2, P)
        for i in range(rank + 1, len(B)):
            if B[i][c]:
                f = B[i][c] * inv % P
                B[i] = [(a - f * b) % P for a, b in zip(B[i], B[rank])]
        rank += 1
    return rank


def _greedy_column_basis(A):
    """Columns taken left to right when they raise the rank mod p."""
    basis = []
    for c in range(A.shape[1]):
        if _rank_mod_p(A[:, basis + [c]].tolist()) > len(basis):
            basis.append(c)
    return basis


# mostly zero; nonzero entries include negatives, multiples of p and
# entries at or above p
sparse_entry = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-5, 5),
    st.integers(-3 * P, 3 * P), st.sampled_from([P, -P, 2 * P, P + 1, P - 1, -P - 2]))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9).flatmap(lambda m: st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
                       min_size=m, max_size=m))),
       st.sampled_from([object, np.int64]))
def test_delayed_reduction_echelon_matches_stepwise_reference(rows, dtype):
    A = np.array(rows, dtype=dtype)
    got = linalg._Block(None, None, A)._echelon
    want = _echelon_reference(A)
    assert got[0] == want[0] and got[1] == want[1]
    assert np.array_equal(got[2], want[2])
    assert np.array_equal(got[3], want[3])
    # what solve_int_system relies on, whatever the row rule
    piv_rows, piv_cols, null, inv = got
    m, r = A.shape[0], len(piv_rows)
    assert piv_cols == _greedy_column_basis(A)
    Aint = A.astype(object)
    assert not np.any(null.astype(object).dot(Aint) % P)
    assert _rank_mod_p(null.tolist()) == m - r == null.shape[0]
    if r:
        block = Aint[np.ix_(piv_rows, piv_cols)]
        assert np.array_equal(inv.astype(object).dot(block) % P,
                              np.eye(r, dtype=int))


def _only_block(system):
    [blk] = system._blocks.values()
    return blk


@pytest.mark.parametrize("rows,rhs,dtype", [
    # A may arrive as an int64 array ...
    ([[3, -1, 4], [1, 5, -9], [2, 6, 5]], [7, -2, 11], np.int64),
    ([[2 ** 39, 1], [-1, 2 ** 39 - 5]], [2 ** 39, -3], np.int64),
    # ... or as an object array, with entries and b past 2^40
    ([[2 ** 40, 3], [-7, 2 ** 41 + 5]], [1, 2 ** 45 + 1], object),
    ([[2 ** 39, 2 ** 39, 1], [1, -1, 0], [5, 0, 7]], [1, 2, 3], object),
    ([[3, 1], [2 ** 70, 1]], [2, 5], object),
])
def test_both_lift_paths_agree_with_fraction_elimination(rows, rhs, dtype):
    system = IntSystem(np.array(rows, dtype=dtype))
    x = solve_int_system(system, rhs)
    assert x is not None and x == solve_fraction(rows, rhs)


def test_int64_matrix_with_overflowing_row_sums_is_held_exactly():
    # every entry fits in int64, but a row |A|-sum does not
    rows = [[2 ** 62, 2 ** 62, 1], [1, -1, 0], [5, 0, 7]]
    system = IntSystem(np.array(rows, dtype=np.int64))
    x = solve_int_system(system, [1, 2, 3])
    assert x is not None and x == solve_fraction(rows, [1, 2, 3])


def test_large_right_hand_side_lifts_on_python_integers():
    # small A, but |b| past 2^40 and 2^63
    rows = [[2, 1], [1, 3]]
    for rhs in ([2 ** 40, 1], [-2 ** 62, 2 ** 80 + 1]):
        assert solve_int_system(rows, rhs) == solve_fraction(rows, rhs)


@settings(max_examples=60, deadline=None)
@given(block_systems())
def test_lift_paths_give_the_same_answers(case):
    # the same solutions, and the same right-hand sides without one, whether
    # A arrives as rows, an int64 array or an object array
    rows, rhss = case
    systems = [IntSystem(rows), IntSystem(np.array(rows, dtype=np.int64)),
               IntSystem(np.array(rows, dtype=object))]
    answers = [[solve_int_system(system, rhs) for rhs, _ok in rhss]
               for system in systems]
    assert answers[0] == answers[1] == answers[2]
    assert answers[0] == [solve_fraction(rows, rhs) for rhs, _ok in rhss]


def test_fixed_cases_solve_the_same_on_both_lift_paths():
    cases = [(RANK_DEFICIENT, rhs) for rhs in (
        [1, 0, 1, 2], [7, -3, 4, 14], [0, 0, 0, 0], [3, 5, 8, 6],
        [1, 0, 0, 0], [0, 0, 1, 0], [1, 1, 2, 3])]
    cases += [([[2, 0], [0, 3], [2, 3]], [1, 1, 2]),
              ([[0, 0, 0], [0, 0, 0]], [0, 1]),
              ([[P, 0], [0, 1]], [P, 1])]
    answers = [solve_int_system(rows, rhs) for rows, rhs in cases]
    assert answers == [solve_fraction(rows, rhs) for rows, rhs in cases]
    assert [x is None for x in answers] == [solve_fraction(rows, rhs) is None
                                            for rows, rhs in cases]


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _leibniz_poly_det(M, nvars):
    """The determinant over Z[x_0..x_(nvars-1)] as the signed sum over
    permutations of the products of entries."""
    zero = (0,) * nvars
    n = len(M)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = {zero: (-1) ** inversions}
        for i, j in enumerate(perm):
            c = M[i][j]
            term = _poly_mul(term, c if isinstance(c, dict) else {zero: c})
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


@st.composite
def poly_matrices(draw):
    """(n x n matrix, n <= 4, of ints and {exponent tuple: int} dicts in
    1-3 variables, nvars); about one in four is singular, with a zero row
    or a repeated one."""
    nvars = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    entry = st.one_of(st.integers(-4, 4), st.dictionaries(
        exps, st.integers(-5, 5).filter(bool), max_size=3))
    M = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    singular = draw(st.sampled_from(["no", "no", "no", "zero row", "repeat"]))
    if singular == "zero row":
        M[-1] = [0] * n
    elif singular == "repeat" and n > 1:
        M[-1] = list(M[0])
    return M, nvars


@settings(max_examples=150, deadline=None)
@given(poly_matrices())
def test_poly_determinant_matches_the_leibniz_expansion(case):
    M, nvars = case
    assert det_poly(M, nvars) == _leibniz_poly_det(M, nvars)


def test_poly_determinant_slots_hold_twice_the_degree_bound():
    """Each row's largest degree is 1, so the bound is 3; the last Bareiss
    step multiplies two entries of degree 2, so a slot must hold degree 4."""
    x = {(1,): 1}
    M = [[x, 1, 1], [1, x, 1], [1, 1, x]]
    assert det_poly(M, 1) == {(3,): 1, (1,): -3, (0,): 2}
    assert det_poly([[x, 1], [2, 2]], 1) == {(1,): 2, (0,): -2}
    assert det_poly([[x, x], [x, x]], 1) == {}
    assert det_poly([], 2) == {(0, 0): 1}


def test_packed_product_by_zero_is_zero():
    guard = 0b100100  # two 3-bit slots, value bits 2
    p = _Packed({0b000001: 3, 0: 1}, guard)
    assert not p * 0 and not 0 * p
    assert (p * 0).terms == {} and (p * -2).terms == {0b000001: -6, 0: -2}
    # a pivot that an int 0 made must read as zero, so Bareiss swaps rows
    x, one = _Packed({0b000001: 1}, guard), _Packed({0: 1}, guard)
    assert det_bareiss([[x * 0, x], [x, one]]).terms == {0b000010: -1}


def test_packed_division_refuses_a_remainder():
    guard = 0b100100  # two 3-bit slots, value bits 2
    x = _Packed({0b000001: 1}, guard)
    one = _Packed({0: 1}, guard)
    xy = _Packed({0b001001: 3}, guard)
    assert (xy // x).terms == {0b001000: 3}
    with pytest.raises(DomainError):
        x // xy  # a negative exponent
    with pytest.raises(DomainError):
        (xy - one) // x
    with pytest.raises(DomainError):
        xy // _Packed({0: 2}, guard)  # 3 / 2
    x2_plus_1 = _Packed({0b000010: 1, 0: 1}, guard)
    x_minus_1 = x - one
    assert ((x2_plus_1 * x_minus_1) // x_minus_1).terms == x2_plus_1.terms
    with pytest.raises(DomainError):
        x2_plus_1 // x_minus_1  # x^2 + 1 = (x + 1)(x - 1) + 2
