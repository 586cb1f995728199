"""The one-elimination subspace predicates, `determinant` and the matrix
product against the algorithms they replaced: a greedy rank per ambient
column for `extend_basis`, two ranks for `contains_space` and
`spaces_equal`, a hand-written Bareiss loop for determinants, and Fraction
accumulation for `RationalMatrix.__mul__`."""

import doctest
import random
from fractions import Fraction

import pytest

import loghodgelab.linalg as linalg
from loghodgelab.linalg import (
    MatrixError,
    RationalMatrix,
    contains_space,
    determinant,
    extend_basis,
    rank,
    smith_normal_form,
    spaces_equal,
)


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
            if ker:
                yield a.transpose().hstack(RationalMatrix.from_columns(ker[:1], k)).transpose(), b
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
    rng = random.Random(612)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.3 and n > 1:
            # singular: one row a multiple of another
            i, k = rng.sample(range(n), 2)
            rows[i] = [3 * x for x in rows[k]]
        assert determinant(rows) == reference_det(rows)
    assert determinant([]) == reference_det([]) == 1
    assert determinant([[0, 0], [0, 0]]) == 0


def test_determinant_rejects_non_square():
    with pytest.raises(MatrixError):
        determinant([[1, 2]])


def test_smith_normal_form_rejects_non_integral_entry():
    with pytest.raises(MatrixError):
        smith_normal_form(RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 1]]))


def test_linalg_doctests_run_and_pass():
    finder = doctest.DocTestFinder()
    examples = {t.name.rsplit(".", 1)[-1]: len(t.examples) for t in finder.find(linalg)}
    assert examples.get("smith_normal_form", 0) >= 2
    assert examples.get("determinant", 0) >= 1
    failed, attempted = doctest.testmod(linalg)
    assert failed == 0 and attempted == sum(examples.values())
