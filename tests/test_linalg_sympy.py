"""`linalg` against sympy on seeded random sparse rational matrices up to
12 x 12, a third of them rank-deficient by construction, and `toric._det` on
integer matrices up to 3 x 3.  sympy is a test-only dependency; the module is
skipped without it."""

import random
from fractions import Fraction
from math import lcm

import pytest

from loghodgelab.linalg import (
    RationalMatrix,
    kernel_basis,
    pivot_columns,
    rank,
    smith_normal_form,
    solve_rational,
)
from loghodgelab.toric import _det

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402


def sparse_entry(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_rational(rng, rows, cols):
    density = rng.choice((0.2, 0.4, 0.7))
    if rng.random() < 1 / 3 and min(rows, cols) > 1:
        # rank at most k < min(rows, cols): a product of thin factors
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[sparse_entry(rng, density) for _ in range(k)] for _ in range(rows)]
        right = [[sparse_entry(rng, density) for _ in range(cols)] for _ in range(k)]
        return [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                 for j in range(cols)] for i in range(rows)]
    return [[sparse_entry(rng, density) for _ in range(cols)] for _ in range(rows)]


def matrices(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        dense = random_rational(rng, rng.randint(1, 12), rng.randint(1, 12))
        yield rng, dense


def to_sympy(dense):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in dense])


def to_fraction(x):
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def test_rank_and_pivot_columns_match_rref():
    for _, dense in matrices(701):
        m = RationalMatrix.from_rows(dense)
        _, pivots = to_sympy(dense).rref()
        assert pivot_columns(m) == list(pivots)
        assert rank(m) == len(pivots)


def test_kernel_basis_equals_nullspace():
    for _, dense in matrices(702):
        expected = [tuple(to_fraction(x) for x in v) for v in to_sympy(dense).nullspace()]
        ker = kernel_basis(RationalMatrix.from_rows(dense))
        assert [ker.column(j) for j in range(ker.cols)] == expected


def test_solve_rational_against_sympy_consistency():
    for rng, dense in matrices(703):
        m = RationalMatrix.from_rows(dense)
        if rng.random() < 0.5:
            b = list(m.apply([sparse_entry(rng, 0.6) for _ in range(m.cols)]))
        else:
            b = [sparse_entry(rng, 0.6) for _ in range(m.rows)]
        try:
            to_sympy(dense).gauss_jordan_solve(to_sympy([[v] for v in b]))
            consistent = True
        except ValueError:
            consistent = False
        x = solve_rational(m, b)
        assert (x is not None) == consistent
        if x is not None:
            assert list(m.apply(x)) == b


def test_determinant_matches_det():
    # `toric._det` on the sizes a fan of rank <= 3 takes
    rng = random.Random(704)
    for _ in range(60):
        n = rng.randint(0, 3)
        dense = random_rational(rng, n, n)
        # integer rows: scale each row by the lcm of its denominators
        rows = []
        for row in dense:
            scale = lcm(*(v.denominator for v in row))
            rows.append([int(v * scale) for v in row])
        assert _det(rows) == sympy.Matrix(rows).det()


def test_smith_normal_form_diagonal_matches_sympy():
    rng = random.Random(705)
    # entries up to 1000 give long chains of ever smaller remainders at a pivot
    for bound in (6, 1000):
        for _ in range(60):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            dense = [[rng.randint(-bound, bound) if rng.random() < 0.5 else 0
                      for _ in range(cols)] for _ in range(rows)]
            _, d, _ = smith_normal_form(RationalMatrix.from_rows(dense))
            ours = [x for x in d.diagonal() if x != 0]
            theirs = sympy_snf(sympy.Matrix(dense), domain=ZZ)
            expected = [abs(int(theirs[i, i])) for i in range(min(rows, cols))
                        if theirs[i, i] != 0]
            assert ours == expected
