import random
from fractions import Fraction

from loghodgelab.linalg import (
    RationalMatrix,
    column_space_basis,
    contains_space,
    extend_basis,
    kernel_basis,
    rank,
    smith_normal_form,
    solve_rational,
    spaces_equal,
)
from loghodgelab.localmodel import HOLOMORPHIC, LocalModel, assemble_stalk, koszul_local_cohomology

from helpers import counting_fractions, sum_spaces
from ss_oracle import intersect_spaces, preimage_space


# --- independent oracles ----------------------------------------------------


def oracle_rank(dense):
    """Classical dense Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in dense]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    r = 0
    for col in range(nc):
        piv = None
        for i in range(r, nr):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def oracle_det(dense):
    m = [[Fraction(v) for v in row] for row in dense]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def random_int_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# --- rank -------------------------------------------------------------------


def test_rank_proportional_rows():
    assert rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_zero_matrix():
    assert rank(RationalMatrix.zeros(3, 3)) == 0


def test_rank_random_against_dense_oracle():
    rng = random.Random(101)
    for _ in range(30):
        dense = random_int_matrix(rng, 6, 6)
        m = RationalMatrix.from_rows(dense)
        assert rank(m) == oracle_rank(dense)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(102)
    for _ in range(25):
        dense = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        m = RationalMatrix.from_rows(dense)
        assert rank(m) == rank(m.transpose())


def test_rank_rational_entries():
    m = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                  [Fraction(3, 2), 1]])
    assert rank(m) == oracle_rank([[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(3, 2), 1]])


# --- kernel -----------------------------------------------------------------


def columns(m):
    return [m.column(j) for j in range(m.cols)]


def test_kernel_single_row():
    (v,) = columns(kernel_basis(RationalMatrix.from_rows([[1, 1]])))
    assert v[0] * 1 + v[1] * 1 == 0
    assert v != (0, 0)


def test_kernel_identity_empty():
    assert columns(kernel_basis(RationalMatrix.identity(2))) == []


def test_kernel_one_by_three():
    m = RationalMatrix.from_rows([[1, 2, 3]])
    basis = columns(kernel_basis(m))
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_with_fractional_entries():
    m = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3), 1],
                                  [Fraction(3, 2), 1, 3]])
    basis = columns(kernel_basis(m))
    assert len(basis) + rank(m) == 3
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_count_plus_rank_is_cols():
    rng = random.Random(103)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = RationalMatrix.from_rows(random_int_matrix(rng, rows, cols))
        ker = columns(kernel_basis(m))
        assert len(ker) + rank(m) == cols
        for v in ker:
            assert all(x == 0 for x in m.apply(v))
        # returned vectors are linearly independent
        if ker:
            km = RationalMatrix.from_columns(ker, cols)
            assert rank(km) == len(ker)


# --- solve ------------------------------------------------------------------


def test_solve_scalar():
    assert solve_rational(RationalMatrix.from_rows([[2]]), [3]) == (Fraction(3, 2),)


def test_solve_inconsistent():
    m = RationalMatrix.from_rows([[1], [1]])
    assert solve_rational(m, [1, 2]) is None


def test_solve_random_consistent():
    rng = random.Random(104)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = RationalMatrix.from_rows(random_int_matrix(rng, rows, cols))
        x0 = [rng.randint(-4, 4) for _ in range(cols)]
        b = m.apply(x0)
        x = solve_rational(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_solve_minimal_support_free_vars_zero():
    # x + y = 2 with pivot on column 0: y is free, set to 0
    m = RationalMatrix.from_rows([[1, 1]])
    assert solve_rational(m, [2]) == (Fraction(2), Fraction(0))


# --- Smith normal form -------------------------------------------------------


def snf_check(dense):
    m = RationalMatrix.from_rows(dense)
    u, d, v = smith_normal_form(m)
    assert u * m * v == d
    # diagonal with divisibility chain
    for (i, j), val in d.entries.items():
        assert i == j and val != 0
    diag = [x for x in d.diagonal() if x != 0]
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert abs(oracle_det(u.to_dense())) == 1
    assert abs(oracle_det(v.to_dense())) == 1
    return diag


def test_snf_basic_example():
    diag = snf_check([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_identity():
    _, d, _ = smith_normal_form(RationalMatrix.identity(3))
    assert d == RationalMatrix.identity(3)


def test_snf_shapes_with_an_empty_side():
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        m = RationalMatrix.zeros(rows, cols)
        u, d, v = smith_normal_form(m)
        assert [(x.rows, x.cols) for x in (u, d, v)] == [(rows, rows), (rows, cols), (cols, cols)]
        assert u * m * v == d


def test_snf_diag_normalization():
    diag = snf_check([[6, 0], [0, 4]])
    assert diag == [2, 12]


def test_snf_random():
    rng = random.Random(105)
    for _ in range(20):
        snf_check(random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))


def test_snf_invariant_factors_permutation_stable():
    rng = random.Random(106)
    base = random_int_matrix(rng, 4, 5, -6, 6)
    reference = snf_check(base)
    for _ in range(50):
        rows = base[:]
        rng.shuffle(rows)
        perm = list(range(5))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in rows]
        assert snf_check(shuffled) == reference


# --- subspace helpers ---------------------------------------------------------


def test_column_space_basis_and_contains():
    m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = column_space_basis(m)
    assert basis.cols == rank(m) == 2
    assert contains_space(basis, m)
    assert contains_space(m, basis)


def test_sum_and_intersection_dimension_formula():
    rng = random.Random(107)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = RationalMatrix.from_rows(random_int_matrix(rng, n, rng.randint(1, 3)))
        b = RationalMatrix.from_rows(random_int_matrix(rng, n, rng.randint(1, 3)))
        s = sum_spaces(a, b)
        i = intersect_spaces(a, b)
        assert rank(s) + rank(i) == rank(a) + rank(b)
        assert contains_space(a, i) and contains_space(b, i)
        assert contains_space(s, a) and contains_space(s, b)


def test_preimage_space():
    f = RationalMatrix.from_rows([[1, 0], [0, 1]])
    w = RationalMatrix.from_columns([(1, 0)], 2)
    pre = preimage_space(f, w)
    assert spaces_equal(pre, RationalMatrix.from_columns([(1, 0)], 2))
    # preimage of the zero space is the kernel
    fm = RationalMatrix.from_rows([[1, 1]])
    pre0 = preimage_space(fm, RationalMatrix.zeros(1, 0))
    assert rank(pre0) == 1
    assert all(x == 0 for x in fm.apply(pre0.column(0)))


def test_extend_basis():
    sub = RationalMatrix.from_columns([(1, 0, 0)], 3)
    ambient = RationalMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    chosen = extend_basis(sub, ambient)
    ext = sub.hstack(ambient.submatrix_columns(chosen))
    assert rank(ext) == rank(sum_spaces(sub, ambient))
    assert chosen == sorted(chosen)


def test_docstring_examples():
    import doctest

    import loghodgelab.linalg as linalg

    failures, _ = doctest.testmod(linalg)
    assert failures == 0


# --- stored form ------------------------------------------------------------


def test_entry_count_builds_no_fraction():
    m = RationalMatrix.from_rows([[Fraction(1, 2), 0, 3], [0, 0, 0], [Fraction(-2, 3), 5, 0]])
    with counting_fractions() as made:
        assert len(m.entries) == 4
    assert not made
    assert dict(m.entries) == {(0, 0): Fraction(1, 2), (0, 2): 3,
                               (2, 0): Fraction(-2, 3), (2, 1): 5}


def test_local_models_make_no_fraction():
    """Every entry of a local model is an integer, so building and reducing
    its blocks makes no Fraction (7,560 and 18 with Fraction storage)."""
    with counting_fractions() as made:
        assemble_stalk(LocalModel(3, 3, 1), HOLOMORPHIC)
    assert len(made) == 0
    with counting_fractions() as made:
        koszul_local_cohomology(LocalModel(3, 2, 3), (1, 2), 1)
    assert len(made) == 0
