"""`monodromy` against sympy on seeded P J P^-1 with rational P, dimensions
1 to 7: the Jordan type against the blocks of sympy's `jordan_form`, and
the level and graded dimensions of the weight filtration against their
closed form from the partition and the center.  sympy is a test-only
dependency; the module is skipped without it."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from loghodgelab.linalg import RationalMatrix
from loghodgelab.monodromy import NilpotentOperator, jordan_type, weight_filtration

sympy = pytest.importorskip("sympy")


def random_partition(rng, n):
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def conjugated_operator(rng, partition):
    """P J P^-1 for the nilpotent Jordan matrix J of ``partition`` and a
    random invertible P with rational entries, as a sympy matrix."""
    dim = sum(partition)
    j = sympy.zeros(dim, dim)
    start = 0
    for size in partition:
        for k in range(start, start + size - 1):
            j[k, k + 1] = 1
        start += size
    while True:
        p = sympy.Matrix(dim, dim, lambda *_: sympy.Rational(rng.randint(-4, 4), rng.randint(1, 5)))
        if p.rank() == dim:
            return p * j * p.inv()


def to_rational_matrix(m) -> RationalMatrix:
    return RationalMatrix.from_rows([[Fraction(int(x.p), int(x.q)) for x in m.row(i)]
                                     for i in range(m.rows)])


def sympy_block_sizes(m) -> tuple[int, ...]:
    j = m.jordan_form(calc_transform=False)
    sizes, size = [], 1
    for i in range(j.rows - 1):
        if j[i, i + 1] == 1:
            size += 1
        else:
            sizes.append(size)
            size = 1
    sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def cases():
    rng = random.Random(701)
    for dim in range(1, 8):
        for _ in range(4):
            partition = random_partition(rng, dim)
            yield partition, conjugated_operator(rng, partition), rng.randint(-3, 3)


def test_jordan_type_matches_sympy_jordan_form():
    seen = set()
    for partition, m, _ in cases():
        n = NilpotentOperator(to_rational_matrix(m))
        assert jordan_type(n) == sympy_block_sizes(m) == partition
        seen.add(partition)
    assert len(seen) >= 15


def test_filtration_dimensions_match_closed_form():
    for partition, m, center in cases():
        n = NilpotentOperator(to_rational_matrix(m))
        dim = n.dimension
        # a block of size s has one vector in each weight center + s - 1 - 2i
        graded = Counter(center + s - 1 - 2 * i for s in partition for i in range(s))
        levels = {l: sum(d for wt, d in graded.items() if wt <= l)
                  for l in range(center - dim, center + dim + 1)}
        w = weight_filtration(n, center)
        assert w.graded_dims() == graded
        assert w.level_dims() == levels
