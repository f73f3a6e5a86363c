import time
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from symprod.linalg import (IntSystem, charpoly, mat_mul, solve_fraction,
                            solve_int_system)

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


def _leibniz_det(M):
    n = len(M)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= M[i][j]
        total += term
    return total


rational = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(rational, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_against_cayley_hamilton_trace_and_det(M):
    n = len(M)
    cp = charpoly(M)
    assert cp.degree == n and cp.lead == 1
    assert cp.coeff(n - 1) == -sum(M[i][i] for i in range(n))
    assert cp.coeff(0) == (-1) ** n * _leibniz_det(M)
    # Cayley-Hamilton by Horner: cp(M) is the zero matrix
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(cp.coeffs):
        acc = mat_mul(acc, M)
        acc = [[acc[i][j] + c * eye[i][j] for j in range(n)] for i in range(n)]
    assert all(v == 0 for row in acc for v in row)
