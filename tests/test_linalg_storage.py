"""The stored form of `RationalMatrix`: integer rows over one positive
denominator per row, in lowest terms, for every result of the matrix
operations (seeded hypothesis examples)."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from loghodgelab.linalg import RationalMatrix

from test_linalg_reference import random_sparse, reference_product

bounded = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def assert_canonical(m: RationalMatrix):
    assert m == RationalMatrix(m.rows, m.cols, dict(m.entries))
    assert hash(m) == hash(RationalMatrix(m.rows, m.cols, dict(m.entries)))
    assert set(m._den) <= set(m._num)
    for i, row in m._num.items():
        assert 0 <= i < m.rows and row and all(row.values())
        assert all(0 <= j < m.cols for j in row)
        d = m._den.get(i, 1)
        assert d >= 1 and (i not in m._den or d > 1)
        assert gcd(d, *row.values()) == 1


@bounded
@given(st.randoms(use_true_random=False))
def test_every_result_is_canonical(rng):
    n, k, m = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
    integral = rng.random() < 0.3
    a, b = random_sparse(rng, n, k, integral), random_sparse(rng, k, m, integral)
    c, e = random_sparse(rng, n, m, integral), random_sparse(rng, rng.randint(0, 5), k, integral)
    results = [a * b, a.hstack(c), a.vstack(e), -a, a.transpose(),
               a.submatrix_columns(rng.sample(range(k), rng.randint(0, k))),
               RationalMatrix.from_rows(a.to_dense()),
               RationalMatrix.from_columns([a.column(j) for j in range(k)], n),
               (a * b) + c, (a * b) - c]
    for r in results:
        assert_canonical(r)
    assert a * b == reference_product(a, b)
    assert (a * b) + c == RationalMatrix(n, m, {key: (a * b).at(*key) + c.at(*key)
                                                for key in {*(a * b).entries, *c.entries}})
    assert a.transpose().transpose() == a
