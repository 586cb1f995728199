"""The one-elimination subspace predicates and `determinant` against the
algorithms they replaced: a greedy rank per ambient column for
`extend_basis`, two ranks for `contains_space` and `spaces_equal`, and a
hand-written Bareiss loop for determinants."""

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
