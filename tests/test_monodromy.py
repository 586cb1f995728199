import random
import re
from fractions import Fraction
import pytest

from helpers import counting_fractions, reference_weight_axioms

import loghodgelab.linalg as linalg
from loghodgelab.linalg import (
    RationalMatrix,
    column_space_basis,
    contains_space,
    kernel_basis,
    rank,
    spaces_equal,
    sum_spaces,
)
from loghodgelab.monodromy import (
    MonodromyError,
    NilpotentOperator,
    WeightFiltration,
    _certified_levels,
    jordan_chains,
    jordan_type,
    stratum_weight,
    verify_weight_axioms,
    weight_filtration,
)


def jordan_block_matrix(sizes) -> RationalMatrix:
    dim = sum(sizes)
    entries = {}
    offset = 0
    for s in sizes:
        for i in range(s - 1):
            entries[(offset + i, offset + i + 1)] = Fraction(1)
        offset += s
    return RationalMatrix(dim, dim, entries)


def random_nilpotent(rng, dim) -> NilpotentOperator:
    # strictly upper triangular in a random basis would need conjugation;
    # plain strictly upper triangular is already general enough for axioms
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = rng.randint(-3, 3)
            if v:
                entries[(i, j)] = Fraction(v)
    return NilpotentOperator(RationalMatrix(dim, dim, entries))


def random_invertible(rng, dim) -> RationalMatrix:
    while True:
        m = RationalMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
        if rank(m) == dim:
            return m


def invert(m: RationalMatrix) -> RationalMatrix:
    from loghodgelab.linalg import solve_rational
    n = m.rows
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        cols.append(solve_rational(m, e))
    return RationalMatrix.from_columns(cols, n)


# --- construction and Jordan type ---------------------------------------------------


def test_non_nilpotent_rejected():
    with pytest.raises(MonodromyError):
        NilpotentOperator(RationalMatrix.identity(2))


def test_jordan_type_zero_operator():
    n = NilpotentOperator(RationalMatrix.zeros(3, 3))
    assert jordan_type(n) == (1, 1, 1)


def test_jordan_type_single_two_block():
    n = NilpotentOperator(RationalMatrix.from_rows([[0, 1], [0, 0]]))
    assert jordan_type(n) == (2,)


def test_jordan_type_three_plus_one():
    n = NilpotentOperator(jordan_block_matrix([3, 1]))
    assert jordan_type(n) == (3, 1)
    assert [rank(n.power(j)) for j in (1, 2, 3)] == [2, 1, 0]


def test_jordan_type_conjugation_invariant():
    rng = random.Random(501)
    base = NilpotentOperator(jordan_block_matrix([3, 2, 1]))
    for _ in range(10):
        p = random_invertible(rng, 6)
        conj = NilpotentOperator(p * base.matrix * invert(p))
        assert jordan_type(conj) == (3, 2, 1)


def test_jordan_chains_form_a_basis():
    rng = random.Random(502)
    for _ in range(20):
        n = random_nilpotent(rng, rng.randint(1, 6))
        m, chains = jordan_chains(n)
        assert rank(m) == n.dimension
        assert sorted((len(c) for c in chains), reverse=True) == list(jordan_type(n))


# --- weight filtration ------------------------------------------------------------


def test_weight_filtration_zero_operator():
    n = NilpotentOperator(RationalMatrix.zeros(2, 2))
    w = weight_filtration(n, 0)
    assert rank(w.level(-1)) == 0
    assert rank(w.level(0)) == 2


def test_weight_filtration_two_block():
    n = NilpotentOperator(RationalMatrix.from_rows([[0, 1], [0, 0]]))
    w = weight_filtration(n, 0)
    assert [rank(w.level(l)) for l in (-1, 0, 1)] == [1, 1, 2]
    assert w.graded_dims() == {-1: 1, 1: 1}


def test_weight_filtration_three_plus_one():
    n = NilpotentOperator(jordan_block_matrix([3, 1]))
    w = weight_filtration(n, 0)
    assert w.graded_dims() == {-2: 1, 0: 2, 2: 1}


def test_weight_filtration_axioms_random():
    rng = random.Random(503)
    for _ in range(30):
        n = random_nilpotent(rng, rng.randint(1, 8))
        w = weight_filtration(n, center=rng.randint(-2, 2))
        verify_weight_axioms(n, w)   # raises on failure


def test_zero_filtration_rejected():
    n = NilpotentOperator(jordan_block_matrix([3]))
    zero = WeightFiltration(0, 3, {l: RationalMatrix.zeros(3, 0) for l in range(-3, 4)})
    with pytest.raises(MonodromyError, match="not exhaustive"):
        verify_weight_axioms(n, zero)


def test_non_increasing_filtrations_rejected():
    e1, e2 = RationalMatrix.from_rows([[1], [0]]), RationalMatrix.from_rows([[0], [1]])
    zero, full = RationalMatrix.zeros(2, 0), RationalMatrix.identity(2)
    # N = 0: W_0 = <e1>, W_1 = <e2>, W_2 = <e1> meets both weight axioms but
    # never reaches the whole space
    n = NilpotentOperator(RationalMatrix.zeros(2, 2))
    w = WeightFiltration(0, 2, {-2: zero, -1: zero, 0: e1, 1: e2, 2: e1})
    with pytest.raises(MonodromyError, match="not exhaustive"):
        verify_weight_axioms(n, w)
    # N e2 = e1: the true filtration with W_0 = <e1> replaced by <e2>
    n = NilpotentOperator(RationalMatrix.from_rows([[0, 1], [0, 0]]))
    w = WeightFiltration(0, 2, {-2: zero, -1: e1, 0: e2, 1: full, 2: full})
    with pytest.raises(MonodromyError, match="W_-1 not inside W_0"):
        verify_weight_axioms(n, w)


def test_bad_filtration_failing_only_at_a_level_equal_to_the_one_below():
    # N e2 = e1 on Q^3; every check passes but dim Gr_2 = 0 != dim Gr_-2 = 1,
    # and W_2 = W_1.  W_-2 = <e1 + e3> has a zero column, so it has as many
    # columns as W_-1 = <e1, e3>
    low, mid, full = (RationalMatrix.from_rows([[1, 0], [0, 0], [1, 0]]),
                      RationalMatrix.from_rows([[1, 1], [0, 0], [1, 0]]),
                      RationalMatrix.identity(3))
    n = NilpotentOperator(jordan_block_matrix([2, 1]))
    w = WeightFiltration(0, 3, {-3: RationalMatrix.zeros(3, 0), -2: low, -1: mid,
                                0: mid, 1: full, 2: full, 3: full})
    with pytest.raises(MonodromyError, match="Gr_2 and Gr_-2 have different dims"):
        verify_weight_axioms(n, w)


def test_bad_filtration_failing_only_at_a_level_that_differs_from_the_one_below():
    # N e2 = e1 on Q^3; every check passes but N W_1 = <e1> is not inside
    # W_-1 = <e1 + e3>, and W_1 != W_0.  W_0 has a zero column, so it has as
    # many columns as W_1
    zero, full = RationalMatrix.zeros(3, 0), RationalMatrix.identity(3)
    n = NilpotentOperator(jordan_block_matrix([2, 1]))
    w = WeightFiltration(0, 3, {
        -3: zero, -2: zero, -1: RationalMatrix.from_rows([[1], [0], [1]]),
        0: RationalMatrix.from_rows([[1, 1, 0], [0, 0, 0], [1, 0, 0]]),
        1: full, 2: full, 3: full})
    with pytest.raises(MonodromyError, match="N W_1 not inside W_-1"):
        verify_weight_axioms(n, w)


def verdict(check, n, w):
    """None if ``check`` accepts W for N, else its message."""
    try:
        check(n, w)
    except MonodromyError as exc:
        return str(exc)
    return None


def conjugated_nilpotent(rng, dim) -> NilpotentOperator:
    """A random Jordan type of dimension ``dim`` in a random rational basis."""
    sizes = []
    while sum(sizes) < dim:
        sizes.append(rng.randint(1, dim - sum(sizes)))
    p = RationalMatrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(dim)] for _ in range(dim)])
    while rank(p) < dim:
        p = random_invertible(rng, dim)
    return NilpotentOperator(p * jordan_block_matrix(sizes) * invert(p))


def mutated_filtration(rng, n, w):
    """The true filtration W of N with one to three of these changes: a level
    replaced by a neighbour, a column dropped or added, two levels swapped,
    or W replaced by the filtration of another operator."""
    dim, levels = n.dimension, dict(w.subspaces)
    keys = sorted(levels)
    for _ in range(rng.randint(1, 3)):
        l = rng.choice(keys)
        kind = rng.randrange(5)
        if kind == 0:
            levels[l] = w.level(l + rng.choice((-1, 1)))
        elif kind == 1 and levels[l].cols:
            drop = rng.randrange(levels[l].cols)
            levels[l] = levels[l].submatrix_columns([j for j in range(levels[l].cols) if j != drop])
        elif kind == 2:
            column = [rng.randint(-2, 2) for _ in range(dim)]
            levels[l] = levels[l].hstack(RationalMatrix.from_columns([column], dim))
        elif kind == 3:
            m = rng.choice(keys)
            levels[l], levels[m] = levels[m], levels[l]
        else:
            other = conjugated_nilpotent(rng, dim)
            levels = dict(weight_filtration(other, w.center).subspaces)
    return WeightFiltration(w.center, dim, levels)


def test_verify_agrees_with_one_elimination_per_check():
    """On true and mutated filtrations of random operators of dimension
    <= 6, `verify_weight_axioms` gives the verdict and the message of the
    reference that makes one elimination per check, and the level ranks it
    finds are those of the levels."""
    rng = random.Random(508)
    seen = set()
    for _ in range(300):
        dim = rng.randint(1, 6)
        n = (conjugated_nilpotent if rng.random() < 0.5 else random_nilpotent)(rng, dim)
        w = weight_filtration(n, rng.randint(-2, 2))
        assert w.level_dims() == {l: rank(m) for l, m in w.subspaces.items()}
        for candidate in (w, mutated_filtration(rng, n, w), mutated_filtration(rng, n, w)):
            expected = verdict(reference_weight_axioms, n, candidate)
            assert verdict(verify_weight_axioms, n, candidate) == expected
            seen.add(expected and re.sub(r"-?[0-9]+", "#", expected))
    assert seen == {None, "filtration not exhaustive: dim W_# < #",
                    "filtration not increasing: W_# not inside W_#",
                    "axiom failure: N W_# not inside W_#",
                    "axiom failure: Gr_# and Gr_# have different dims",
                    "axiom failure: N^# is not an isomorphism Gr_# -> Gr_#"}


def nine_by_nine() -> NilpotentOperator:
    """Jordan type (4, 3, 2) conjugated by a fixed matrix of true fractions."""
    rng = random.Random(507)
    p = RationalMatrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                   for _ in range(9)] for _ in range(9)])
    return NilpotentOperator(p * jordan_block_matrix([4, 3, 2]) * invert(p))


def test_each_rank_computed_once(monkeypatch):
    """NilpotentOperator, weight_filtration, jordan_type and stratum_weight
    on a fixed 9 x 9 operator: each power of N strictly between N^0 = I and
    N^index = 0 is eliminated exactly once, for its kernel, and the basis is
    eliminated once, for its rank, however often the report reads the ranks.
    A level where no chain has exactly that length is not eliminated.
    Each power and each chain vector is one product, and N B one more."""
    matrix = nine_by_nine().matrix
    eliminations, products = [], []
    echelon, multiply = linalg._echelon, RationalMatrix.__mul__

    def counted_echelon(rows):
        eliminations.append([dict(r) for r in rows])
        return echelon(rows)

    def counted_multiply(a, b):
        products.append((a.rows, a.cols, b.cols))
        return multiply(a, b)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(RationalMatrix, "__mul__", counted_multiply)
    n = NilpotentOperator(matrix)
    w = weight_filtration(n, 0)
    assert jordan_type(n) == (4, 3, 2) and stratum_weight(n) == 4
    # 3 kernels, 3 chain extensions (levels 4, 3, 2; no chain of length 1)
    # and the rank of the Jordan basis
    assert len(eliminations) == 7
    powers = [linalg._integer_rows(n.power(j)) for j in range(n.index + 1)]
    assert [eliminations.count(p) for p in powers] == [0, 1, 1, 1, 0]
    # N^2, N^3, N^4; 3 + 2 + 1 chain vectors below the tops; N B
    assert len(products) == 10
    for _ in range(3):
        w.to_json_dict()
        jordan_type(n)
    assert (len(eliminations), len(products)) == (7, 10)


def test_weight_filtration_makes_no_fraction():
    n = nine_by_nine()
    with counting_fractions() as made:
        w = weight_filtration(n, 0)
    assert not made
    assert w.graded_dims() == {-3: 1, -2: 1, -1: 2, 0: 1, 1: 2, 2: 1, 3: 1}


def test_powers_and_kernels_of_the_smallest_operators():
    empty = NilpotentOperator(RationalMatrix.zeros(0, 0))
    assert (empty.index, empty.ranks, jordan_type(empty)) == (0, (0,), ())
    assert empty.kernels == (RationalMatrix.zeros(0, 0),)
    zero = NilpotentOperator(RationalMatrix.zeros(3, 3))
    assert (zero.index, zero.ranks) == (1, (3, 0))
    assert zero.kernels == (RationalMatrix.zeros(3, 0), RationalMatrix.identity(3))
    with pytest.raises(MonodromyError, match="not nilpotent"):
        NilpotentOperator(RationalMatrix.from_rows([[1]]))
    assert weight_filtration(empty, 2).to_json_dict() == {
        "center": 2, "dimension": 0, "level_dims": {"2": 0}, "graded_dims": {}}


def test_known_kernels_are_those_an_elimination_finds():
    rng = random.Random(509)
    for _ in range(40):
        n = conjugated_nilpotent(rng, rng.randint(1, 6))
        assert n.kernels == tuple(kernel_basis(n.power(j)) for j in range(n.index + 1))
        assert n.power(n.index) == RationalMatrix.zeros(n.dimension, n.dimension)


# --- the certificate of the Jordan basis ------------------------------------------------


def chain_weights(chains, center):
    return {j: center + len(chain) - 1 - 2 * i for chain in chains for i, j in enumerate(chain)}


def certify(n, basis, chains, center=0, weights=None):
    if weights is None:
        weights = chain_weights(chains, center)
    return _certified_levels(n, basis, chains, weights, center)


def test_certificate_accepts_every_built_basis_and_agrees_with_the_axioms():
    """On 300 seeded operators of dimension 1-9, conjugated by true
    fractions or strictly upper triangular, `verify_weight_axioms` accepts
    every certified filtration and finds the same level ranks."""
    rng = random.Random(510)
    types = set()
    for _ in range(300):
        dim = rng.randint(1, 9)
        n = (conjugated_nilpotent if rng.random() < 0.5 else random_nilpotent)(rng, dim)
        w = weight_filtration(n, rng.randint(-3, 3))
        assert verify_weight_axioms(n, w) == w.ranks
        types.add(jordan_type(n))
    assert len(types) > 40


def corrupted_bases(n):
    """(name, basis, chains, weights) of the Jordan basis of nine_by_nine(),
    chains [[0, 1, 2, 3], [4, 5, 6], [7, 8]], each corrupted in one way;
    weights None are the chains' own labels."""
    basis, chains = jordan_chains(n)
    assert chains == [[0, 1, 2, 3], [4, 5, 6], [7, 8]]
    col = [basis.submatrix_columns([j]) for j in range(9)]

    def of(columns):
        return columns[0].hstack(*columns[1:])

    def chain_from(top, length):
        out = [top]
        for _ in range(length - 1):
            out.append(n.matrix * out[-1])
        return out

    own = chain_weights(chains, 0)
    return [
        # independent columns, centered labels, symmetric Gr: only N (Nv) =
        # N^2 v != 0 at the new chain end shows the cut
        ("chain too short", basis, [[0, 1, 2, 3], [4, 5], [6], [7, 8]], None),
        ("chain too long", of(col[:7] + [n.matrix * col[6], col[8]]),
         [[0, 1, 2, 3], [4, 5, 6, 7], [8]], None),
        ("one label off by one", basis, chains, {**own, 5: own[5] + 1}),
        ("a chain's labels off by one", basis, chains,
         {j: w + (4 <= j <= 6) for j, w in own.items()}),
        ("every label off by one", basis, chains, {j: w + 1 for j, w in own.items()}),
        ("top from a larger kernel",
         of(col[:4] + chain_from(col[4] + col[0], 3) + col[7:]), chains, None),
        ("top from a smaller kernel",
         of(col[:4] + chain_from(col[5], 3) + col[7:]), chains, None),
        ("two chains merged", basis, [[0, 1, 2, 3], [4, 5, 6, 7, 8]], None),
        ("column dropped", of(col[:8]), [[0, 1, 2, 3], [4, 5, 6], [7]], None),
        ("chains overlap", basis, [[0, 1, 2, 3], [4, 5, 6], [6, 8]], None),
    ]


def test_certificate_rejects_corrupted_bases():
    n = nine_by_nine()
    basis, chains = jordan_chains(n)
    assert certify(n, basis, chains) == weight_filtration(n, 0).ranks
    for name, bad_basis, bad_chains, weights in corrupted_bases(n):
        with pytest.raises(MonodromyError):
            certify(n, bad_basis, bad_chains, weights=weights)
            pytest.fail(f"certificate accepts a basis with its {name}")


def test_weight_filtration_center_shift():
    n = NilpotentOperator(jordan_block_matrix([2]))
    w0 = weight_filtration(n, 0)
    w3 = weight_filtration(n, 3)
    assert w3.graded_dims() == {l + 3: d for l, d in w0.graded_dims().items()}


def test_conjugation_equivariance():
    rng = random.Random(504)
    for _ in range(10):
        dim = rng.randint(2, 5)
        n = random_nilpotent(rng, dim)
        p = random_invertible(rng, dim)
        conj = NilpotentOperator(p * n.matrix * invert(p))
        w = weight_filtration(n, 0)
        wc = weight_filtration(conj, 0)
        for l in range(-dim, dim + 1):
            transported_cols = [p.apply(w.level(l).column(j))
                                for j in range(w.level(l).cols)]
            transported = RationalMatrix.from_columns(transported_cols, dim)
            assert spaces_equal(wc.level(l), transported), l
        assert stratum_weight(n) == stratum_weight(conj)


def enumerate_filtration_lattice(n: NilpotentOperator):
    """All sums of subspaces ker(N^a) ∩ im(N^b), deduplicated by rank tests."""
    from ss_oracle import intersect_spaces

    dim = n.dimension
    atoms = []
    for a in range(dim + 1):
        ker_m = kernel_basis(n.power(a))
        for b in range(dim + 1):
            img = column_space_basis(n.power(b))
            atoms.append(intersect_spaces(ker_m, img))
    # close under sums (the lattice is small for dim <= 4)
    spaces = []

    def push(candidate):
        for existing in spaces:
            if spaces_equal(existing, candidate):
                return
        spaces.append(candidate)

    for atom in atoms:
        push(atom)
    changed = True
    while changed:
        changed = False
        current = list(spaces)
        for x in current:
            for y in current:
                s = sum_spaces(x, y)
                before = len(spaces)
                push(s)
                if len(spaces) != before:
                    changed = True
    return spaces


def test_uniqueness_by_exhaustion_small_dims():
    """Exactly one increasing filtration from the ker/im lattice satisfies
    both weight axioms, for every Jordan type of dimension <= 4."""
    partitions = {
        1: [(1,)],
        2: [(1, 1), (2,)],
        3: [(1, 1, 1), (2, 1), (3,)],
        4: [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)],
    }
    rng = random.Random(505)
    for dim, parts in partitions.items():
        for sizes in parts:
            n = NilpotentOperator(jordan_block_matrix(list(sizes)))
            lattice = enumerate_filtration_lattice(n)
            levels = list(range(-dim, dim + 1))
            found = []

            def search(level_idx, chosen):
                if level_idx == len(levels):
                    filtration = WeightFiltrationStub(dim, dict(zip(levels, chosen)))
                    if satisfies_axioms(n, filtration, dim):
                        found.append(list(chosen))
                    return
                prev_rank = rank(chosen[-1]) if chosen else 0
                for candidate in lattice:
                    if chosen and not contains_space(candidate, chosen[-1]):
                        continue
                    if level_idx == 0 and rank(candidate) != 0:
                        continue
                    if level_idx == len(levels) - 1 and rank(candidate) != dim:
                        continue
                    # incremental check of N W_l <= W_{l-2}
                    if len(chosen) >= 2:
                        wl = candidate
                        images = [n.matrix.apply(wl.column(j)) for j in range(wl.cols)]
                        img = RationalMatrix.from_columns(images, dim)
                        if not contains_space(chosen[-2], img):
                            continue
                    elif len(chosen) < 2:
                        images = [n.matrix.apply(candidate.column(j))
                                  for j in range(candidate.cols)]
                        if any(any(x != 0 for x in v) for v in images):
                            continue
                    search(level_idx + 1, chosen + [candidate])

            search(0, [])
            assert len(found) == 1, f"Jordan type {sizes}: {len(found)} filtrations"
            # and it is the constructed one
            w = weight_filtration(n, 0)
            for l, m in zip(levels, found[0]):
                assert spaces_equal(w.level(l), m)


class WeightFiltrationStub:
    def __init__(self, dim, levels):
        self.dim = dim
        self.levels = levels

    def level(self, l):
        if l < -self.dim:
            return RationalMatrix.zeros(self.dim, 0)
        if l > self.dim:
            return RationalMatrix.identity(self.dim)
        return self.levels[l]


def satisfies_axioms(n: NilpotentOperator, f: WeightFiltrationStub, dim: int) -> bool:
    for l in range(-dim, dim + 1):
        wl = f.level(l)
        images = [n.matrix.apply(wl.column(j)) for j in range(wl.cols)]
        img = RationalMatrix.from_columns(images, dim)
        if not contains_space(f.level(l - 2), img):
            return False
    for l in range(1, dim + 1):
        up = rank(f.level(l)) - rank(f.level(l - 1))
        down = rank(f.level(-l)) - rank(f.level(-l - 1))
        if up != down:
            return False
        if up == 0:
            continue
        wl = f.level(l)
        images = [n.power(l).apply(wl.column(j)) for j in range(wl.cols)]
        img = RationalMatrix.from_columns(images, dim)
        below = f.level(-l - 1)
        if rank(sum_spaces(img, below)) - rank(below) != up:
            return False
        if not contains_space(f.level(-l), img):
            return False
    return True


# --- stratum weight -------------------------------------------------------------------


def test_stratum_weight_zero_operator():
    n = NilpotentOperator(RationalMatrix.zeros(3, 3))
    assert stratum_weight(n) == Fraction(1)


def test_stratum_weight_two_block():
    n = NilpotentOperator(RationalMatrix.from_rows([[0, 1], [0, 0]]))
    assert stratum_weight(n) == Fraction(2)


def test_stratum_weight_three_plus_one():
    n = NilpotentOperator(jordan_block_matrix([3, 1]))
    assert stratum_weight(n) == Fraction(3)


def test_stratum_weight_is_nilpotency_index():
    rng = random.Random(506)
    for _ in range(15):
        n = random_nilpotent(rng, rng.randint(1, 6))
        assert stratum_weight(n) == Fraction(n.index if n.dimension else 1)
        # largest l with Gr_{k+l} != 0 equals weight - 1
        w = weight_filtration(n, 0)
        graded = w.graded_dims()
        top = max(graded) if graded else 0
        assert stratum_weight(n) - 1 == top
