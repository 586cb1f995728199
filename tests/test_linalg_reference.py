"""The one-elimination subspace predicates, the sparse elimination and the
matrix product against the algorithms they replaced: a greedy rank per
ambient column for `extend_basis`, two ranks for `contains_space` and
`spaces_equal`, the dense Bareiss echelon form for rank, pivots, kernel and
solve, and Fraction accumulation for `RationalMatrix.__mul__`.  The fan
determinants of `toric._det` are checked against a hand-written Bareiss loop
and the dense Bareiss echelon form."""

import doctest
import random
from fractions import Fraction
from math import lcm

import pytest

import loghodgelab.linalg as linalg
from loghodgelab.linalg import (
    MatrixError,
    RationalMatrix,
    contains_space,
    extend_basis,
    kernel_basis,
    pivot_columns,
    rank,
    smith_normal_form,
    solve_rational,
    spaces_equal,
)
from loghodgelab.toric import _det


def reference_extend_basis(sub, ambient):
    current = sub
    current_rank = rank(sub)
    chosen = []
    for j in range(ambient.cols):
        candidate = current.hstack(ambient.submatrix_columns([j]))
        r = rank(candidate)
        if r > current_rank:
            chosen.append(j)
            current = candidate
            current_rank = r
    return chosen


def reference_contains_space(a, b):
    if b.cols == 0:
        return True
    return rank(a.hstack(b)) == rank(a)


def reference_spaces_equal(a, b):
    ra, rb = rank(a), rank(b)
    return ra == rb and rank(a.hstack(b)) == ra


def reference_det(matrix):
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def reference_product(a, b):
    """Sparse row x sparse column accumulation in Fractions."""
    by_row = {}
    for (i, k), v in a.entries.items():
        by_row.setdefault(i, []).append((k, v))
    by_col = {}
    for (k, j), v in b.entries.items():
        by_col.setdefault(k, {})[j] = v
    entries = {}
    for i, terms in by_row.items():
        acc = {}
        for k, v in terms:
            for j, w in by_col.get(k, {}).items():
                acc[j] = acc.get(j, Fraction(0)) + v * w
        for j, total in acc.items():
            if total != 0:
                entries[(i, j)] = total
    return RationalMatrix(a.rows, b.cols, entries)


# The dense fraction-free elimination that served rank, kernel, solve,
# pivot columns and determinant before the sparse `linalg._echelon`.

def _integer_rows(m: RationalMatrix) -> list[list[int]]:
    # Row scaling by the lcm of denominators preserves rank, kernel, and the
    # column independence pattern.
    scale = [1] * m.rows
    for (i, _), v in m.entries.items():
        scale[i] = lcm(scale[i], v.denominator)
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v.numerator * (scale[i] // v.denominator)
    return out


def _bareiss_echelon(m: list[list[int]]) -> tuple[list[list[int]], list[int], bool]:
    """Fraction-free row echelon form of the integer rows ``m``, reduced in
    place.  Returns (echelon rows, pivot column list, odd number of row swaps).

    Pivot choice is deterministic: columns scanned left to right, the first
    not-yet-used row with a nonzero entry is the pivot (lowest row, then
    column index).  Every division is exact, and the k-th pivot is a k x k
    minor of the row-permuted matrix; for a square nonsingular matrix the
    last pivot is therefore the determinant up to the sign of the swaps.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    odd = False
    done = 0
    prev = 1
    for col in range(nc):
        for pivot_row in range(done, nr):
            if m[pivot_row][col] != 0:
                break
        else:
            continue
        if pivot_row != done:
            m[done], m[pivot_row] = m[pivot_row], m[done]
            odd = not odd
        mp = m[done]
        p = mp[col]
        for i in range(done + 1, nr):
            t = m[i][col]
            mi = m[i]
            for j in range(col, nc):
                mi[j] = (p * mi[j] - t * mp[j]) // prev  # exact by Bareiss
        prev = p
        pivots.append(col)
        done += 1
        if done == nr:
            break
    return m[:done], pivots, odd


def _back_substitute(ech: list[list[int]], pivots: list[int],
                     v: list[Fraction]) -> tuple[Fraction, ...]:
    """The vector of ker(ech) that agrees with ``v`` off the pivot columns;
    the pivot coordinates of ``v`` are overwritten, bottom row first."""
    n = len(v)
    for k in range(len(pivots) - 1, -1, -1):
        pc = pivots[k]
        row = ech[k]
        s = Fraction(0)
        for j in range(pc + 1, n):
            if row[j] != 0 and v[j] != 0:
                s += row[j] * v[j]
        v[pc] = -s / row[pc]
    return tuple(v)


def reference_rank(m):
    _, pivots, _ = _bareiss_echelon(_integer_rows(m))
    return len(pivots)


def reference_pivot_columns(m):
    _, pivots, _ = _bareiss_echelon(_integer_rows(m))
    return pivots


def reference_kernel_basis(m):
    ech, pivots, _ = _bareiss_echelon(_integer_rows(m))
    pivot_set = set(pivots)
    zero = [Fraction(0)] * m.cols
    return [_back_substitute(ech, pivots, zero[:f] + [Fraction(1)] + zero[f + 1:])
            for f in range(m.cols) if f not in pivot_set]


def reference_solve_rational(m, b):
    b = [Fraction(v) for v in b]
    aug = RationalMatrix(m.rows, m.cols + 1,
                         {**m.entries, **{(i, m.cols): v for i, v in enumerate(b) if v != 0}})
    ech, pivots, _ = _bareiss_echelon(_integer_rows(aug))
    if pivots and pivots[-1] == m.cols:
        return None  # a pivot in the augmented column: inconsistent
    # (x, -1) lies in the kernel of [m | b]
    return _back_substitute(ech, pivots, [Fraction(0)] * m.cols + [Fraction(-1)])[:m.cols]


def reference_determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    ech, pivots, odd = _bareiss_echelon([list(row) for row in rows])
    if len(pivots) < n:
        return 0
    return -ech[-1][-1] if odd else ech[-1][-1]


def random_basis(rng, rows, cols):
    """Sparse rational columns, some of them repeats or multiples of others."""
    columns = []
    for _ in range(cols):
        if columns and rng.random() < 0.3:
            c = rng.choice(columns)
            columns.append(tuple(rng.choice((1, -2, Fraction(1, 3))) * x for x in c))
        else:
            columns.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                 if rng.random() < 0.5 else 0 for _ in range(rows)))
    return RationalMatrix.from_columns(columns, rows)


def subspace_pairs():
    rng = random.Random(611)
    for _ in range(150):
        n = rng.randint(1, 6)
        yield random_basis(rng, n, rng.randint(0, 4)), random_basis(rng, n, rng.randint(0, 5))
    # a spans b, b spans a, and both empty
    a = random_basis(rng, 4, 3)
    yield a, a.submatrix_columns([2, 0, 2, 1])
    yield a.submatrix_columns([1]), a
    yield RationalMatrix.zeros(3, 0), RationalMatrix.zeros(3, 0)


def test_extend_basis_matches_greedy_rank_per_column():
    for sub, ambient in subspace_pairs():
        assert extend_basis(sub, ambient) == reference_extend_basis(sub, ambient)


def test_contains_and_equal_match_two_rank_tests():
    for a, b in subspace_pairs():
        assert contains_space(a, b) == reference_contains_space(a, b)
        assert contains_space(b, a) == reference_contains_space(b, a)
        assert spaces_equal(a, b) == reference_spaces_equal(a, b)


def random_sparse(rng, rows, cols, integral):
    density = rng.choice((0.2, 0.5, 0.9))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                big = rng.random() < 0.2
                num = rng.randint(-10**12, 10**12) if big else rng.randint(-9, 9)
                den = 1 if integral else rng.choice((1, 2, 3, 7, 12, 10**9 + 7 if big else 5))
                entries[(i, j)] = Fraction(num, den)
    return RationalMatrix(rows, cols, entries)


def product_pairs():
    rng = random.Random(613)
    for t in range(300):
        integral = t % 3 == 0
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        a = random_sparse(rng, n, k, integral)
        b = random_sparse(rng, k, m, integral)
        yield a, b
        if t % 5 == 0:
            # a left null vector of b as an extra row of a: that row of a*b cancels to 0
            ker = linalg.kernel_basis(b.transpose())
            if ker.cols:
                yield a.transpose().hstack(ker.submatrix_columns([0])).transpose(), b
    for n, k, m in ((0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 0), (1, 1, 1)):
        yield random_sparse(rng, n, k, False), random_sparse(rng, k, m, False)
    half = Fraction(1, 2)
    yield RationalMatrix.from_rows([[half, -half]]), RationalMatrix.from_rows([[1], [1]])
    yield RationalMatrix.from_rows([[Fraction(-3, 7)]]), RationalMatrix.from_rows([[Fraction(7, 3)]])


def test_product_matches_fraction_accumulation():
    cancelled = empty = 0
    for a, b in product_pairs():
        got = a * b
        assert got == reference_product(a, b)
        assert all(isinstance(v, Fraction) and v != 0 for v in got.entries.values())
        # some entry has nonzero terms a_ik * b_kj that sum to zero
        cancelled += any((i, j) not in got.entries
                         for (i, k) in a.entries for (k2, j) in b.entries if k == k2)
        empty += 0 in (a.rows, a.cols, b.cols)
    assert cancelled > 10 and empty == 4


def test_determinant_matches_reference_loop():
    # `toric._det` on the sizes a fan of rank <= 3 takes
    rng = random.Random(612)
    for _ in range(200):
        n = rng.randint(0, 3)
        rows = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.3 and n > 1:
            # singular: one row a multiple of another
            i, k = rng.sample(range(n), 2)
            rows[i] = [3 * x for x in rows[k]]
        assert _det(rows) == reference_det(rows) == reference_determinant(rows)
    assert _det([]) == reference_det([]) == 1
    assert _det([[0, 0], [0, 0]]) == 0


def elimination_inputs():
    """Seeded sparse integral and fractional matrices, dense true fractions,
    0xk, kx0 and zero matrices, duplicated rows and singular squares."""
    rng = random.Random(614)
    for t in range(400):
        n, k = rng.randint(1, 8), rng.randint(1, 8)
        yield random_sparse(rng, n, k, t % 2 == 0)
    for _ in range(100):
        n, k = rng.randint(1, 7), rng.randint(1, 7)
        yield RationalMatrix.from_rows([[Fraction(rng.randint(-50, 50), rng.randint(1, 60))
                                         for _ in range(k)] for _ in range(n)])
    for n, k in ((0, 3), (3, 0), (0, 0), (1, 1), (4, 4), (2, 6)):
        yield RationalMatrix.zeros(n, k)
    for _ in range(100):
        m = random_sparse(rng, rng.randint(1, 5), rng.randint(1, 7), rng.random() < 0.5)
        rows = m.to_dense()
        rows += [[rng.choice((1, -2, Fraction(1, 3))) * x for x in rng.choice(rows)]
                 for _ in range(rng.randint(1, 4))]
        rng.shuffle(rows)
        yield RationalMatrix.from_rows(rows)
    for _ in range(100):
        n = rng.randint(2, 7)
        rows = random_sparse(rng, n, n, True).to_dense()
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        rows[i] = [rng.randint(-3, 3) * a + rng.randint(-3, 3) * b
                   for a, b in zip(rows[j], rows[k])]
        yield RationalMatrix.from_rows(rows)


def test_elimination_matches_dense_bareiss():
    solvable = inconsistent = 0
    for m in elimination_inputs():
        assert rank(m) == reference_rank(m)
        assert pivot_columns(m) == reference_pivot_columns(m)
        ker = kernel_basis(m)
        assert [ker.column(j) for j in range(ker.cols)] == reference_kernel_basis(m)
        x = [random.Random(m.rows * 31 + m.cols).randint(-2, 2) for _ in range(m.cols)]
        b_in = m.apply(x)
        b_out = [v + (i == 0) for i, v in enumerate(b_in)]
        for b in (b_in, b_out):
            got = solve_rational(m, b)
            assert got == reference_solve_rational(m, b)
            solvable += got is not None
            inconsistent += got is None
    assert solvable > 700 and inconsistent > 300


def test_leading_columns_are_the_pivots_in_row_order():
    # row i vanishes iff it lies in the span of the rows above it
    for m in elimination_inputs():
        leads = linalg.leading_columns(m)
        assert sorted(c for c in leads if c is not None) == reference_pivot_columns(m)
        ranks = [reference_rank(RationalMatrix(i, m.cols, {(r, j): v for (r, j), v in
                                                           m.entries.items() if r < i}))
                 for i in range(m.rows + 1)]
        assert [c is None for c in leads] == [a == b for a, b in zip(ranks, ranks[1:])]


def reference_inverse(b):
    n = b.rows
    return RationalMatrix.from_columns(
        [reference_solve_rational(b, [int(i == j) for i in range(n)]) for j in range(n)], n)


def full_rank_inputs():
    """Seeded square, tall and wide matrices of full rank with true fractions,
    permutations, and the 0 x 0 and 1 x 1 cases (`elimination_inputs` has the
    empty and zero ones)."""
    rng = random.Random(615)
    made = 0
    while made < 150:
        n = rng.randint(1, 7)
        rows, cols = rng.choice(((n, n), (n, n), (n + rng.randint(1, 3), n),
                                 (n, n + rng.randint(1, 3))))
        m = RationalMatrix.from_rows([[Fraction(rng.randint(-20, 20), rng.randint(1, 30))
                                       if rng.random() < 0.7 else 0 for _ in range(cols)]
                                      for _ in range(rows)])
        if rank(m) == min(rows, cols):
            made += 1
            yield m
    for n in range(1, 6):
        order = list(range(n))
        rng.shuffle(order)
        yield RationalMatrix.from_rows([[int(j == order[i]) for j in range(n)] for i in range(n)])
    yield RationalMatrix.zeros(0, 0)
    yield RationalMatrix.from_rows([[Fraction(-7, 3)]])


def test_full_rank_kernels_solutions_and_inverses_match_references():
    # the inverse as the adapted differentials of a filtered complex form
    # B^-1 Y: the top rows of the kernel basis of [B | -Y], here with Y = I
    squares = 0
    for m in full_rank_inputs():
        ker = kernel_basis(m)
        assert (ker.rows, ker.cols) == (m.cols, m.cols - min(m.rows, m.cols))
        assert [ker.column(j) for j in range(ker.cols)] == reference_kernel_basis(m)
        b = m.apply([Fraction(j - 2, j + 1) for j in range(m.cols)])
        assert solve_rational(m, b) == reference_solve_rational(m, b)
        if m.rows == m.cols:
            inverse = kernel_basis(m.hstack(-RationalMatrix.identity(m.rows))) \
                .submatrix_rows(range(m.rows))
            assert inverse == reference_inverse(m)
            assert inverse * m == m * inverse == RationalMatrix.identity(m.rows)
            squares += 1
    assert squares > 60


def test_zeros_checks_its_shape_and_equals_the_checked_empty_matrix():
    for rows, cols in [(-1, 2), (2, -1)]:
        with pytest.raises(MatrixError):
            RationalMatrix.zeros(rows, cols)
    for rows, cols in [(0, 0), (3, 0), (2, 5)]:
        z = RationalMatrix.zeros(rows, cols)
        assert z == RationalMatrix(rows, cols, {}) and z.is_zero()
        assert (z.rows, z.cols) == (rows, cols)


def test_smith_normal_form_rejects_non_integral_entry():
    with pytest.raises(MatrixError):
        smith_normal_form(RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]]))


def test_linalg_doctests_run_and_pass():
    finder = doctest.DocTestFinder()
    examples = {t.name.rsplit(".", 1)[-1]: len(t.examples) for t in finder.find(linalg)}
    assert examples.get("smith_normal_form", 0) >= 2
    failed, attempted = doctest.testmod(linalg)
    assert failed == 0 and attempted == sum(examples.values())
