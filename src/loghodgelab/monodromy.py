"""Nilpotent operators: Jordan type, the centered weight filtration, and the
stratum weight read off from the Jordan block sizes.

The filtration W centered at k is the unique increasing, exhaustive
filtration with its two defining axioms:

    N . W_l  is contained in  W_{l-2},        and
    N^l : Gr_{k+l} -> Gr_{k-l}  is an isomorphism for every l >= 0,

which the test suite confirms by exhaustion in small dimension.  It is built
from an explicit Jordan basis B (a chain v, Nv, ..., N^{s-1}v of length s
contributes the weights k+s-1, k+s-3, ..., k-s+1): W_l is the slice of B's
columns of weight <= l, certified by B itself (`_certified_levels`: one
elimination and one product) rather than by `verify_weight_axioms`, which
checks the axioms of any filtration.  The filtration keeps B, its columns'
order by weight and dim W_l for each l; a level is sliced out of B the first
time it is read, and the report, which reads only the dimensions, slices
none.  Each power N^j and each chain vector N^i v is one product; each N^j
with 0 < j < index is eliminated once for its kernel, and the ranks of the
powers are read off the kernels.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .linalg import RationalMatrix, contains_space, extend_basis, kernel_basis, rank


class MonodromyError(ValueError):
    pass


class NilpotentOperator:
    """Square rational matrix with N^dim = 0, verified at construction."""

    def __init__(self, matrix: RationalMatrix):
        if matrix.rows != matrix.cols:
            raise MonodromyError("nilpotent operator must be square")
        self.matrix = matrix
        self.dimension = matrix.rows
        # N^0 = I, then N itself unless dim = 0, where I = 0 already
        self._powers = [RationalMatrix.identity(self.dimension), matrix][:self.dimension + 1]
        while not self._powers[-1].is_zero() and len(self._powers) <= self.dimension:
            self._powers.append(matrix * self._powers[-1])
        if not self._powers[-1].is_zero():
            raise MonodromyError("matrix is not nilpotent")
        self.index = len(self._powers) - 1   # smallest m with N^m = 0

    def power(self, j: int) -> RationalMatrix:
        if j >= len(self._powers):
            return RationalMatrix.zeros(self.dimension, self.dimension)
        return self._powers[j]

    @cached_property
    def kernels(self) -> tuple[RationalMatrix, ...]:
        """A basis of ker(N^j) for j = 0 .. index: no columns at j = 0, the
        identity at j = index, and one elimination for each j between."""
        known = {0: RationalMatrix.zeros(self.dimension, 0),
                 self.index: RationalMatrix.identity(self.dimension)}
        return tuple(known[j] if j in known else kernel_basis(p)
                     for j, p in enumerate(self._powers))

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """rank(N^j) for j = 0 .. index, read off the kernels."""
        return tuple(self.dimension - k.cols for k in self.kernels)


def jordan_type(n: NilpotentOperator) -> tuple[int, ...]:
    """Multiset of Jordan block sizes, descending; sums to the dimension.

    The number of blocks of size >= s is rank(N^{s-1}) - rank(N^s).
    """
    ranks = n.ranks + (0,)
    blocks = []
    for s in range(1, n.index + 1):
        exactly_s = (ranks[s - 1] - ranks[s]) - (ranks[s] - ranks[s + 1])
        blocks.extend([s] * exactly_s)
    if n.dimension == 0:
        return ()
    partition = tuple(sorted(blocks, reverse=True))
    if sum(partition) != n.dimension:
        raise MonodromyError("internal: Jordan type does not sum to the dimension")
    return partition


def jordan_chains(n: NilpotentOperator) -> tuple[RationalMatrix, list[list[int]]]:
    """Jordan basis, built deterministically from kernel bases of the
    powers: one matrix, and the columns [v, Nv, ..., N^{s-1}v] of each chain."""
    kernels, ranks = n.kernels, n.ranks + (0,)
    groups: list[list[RationalMatrix]] = []   # [V, NV, ..., N^{s-1}V] for new tops V
    for s in range(n.index, 0, -1):
        if ranks[s - 1] - 2 * ranks[s] + ranks[s + 1] == 0:
            continue   # no chain has length exactly s (`jordan_type`)
        # the chains of length t > s contribute N^{t-s} v inside ker(N^s)
        base = kernels[s - 1].hstack(*(g[len(g) - s] for g in groups))
        new_top_cols = extend_basis(base, kernels[s])
        if new_top_cols:
            groups.append([kernels[s].submatrix_columns(new_top_cols)])
            for _ in range(s - 1):
                groups[-1].append(n.matrix * groups[-1][-1])
    blocks, chains = [], []
    for g in groups:
        start, width = sum(b.cols for b in blocks), g[0].cols
        blocks += g
        chains += [[start + i * width + j for i in range(len(g))] for j in range(width)]
    return RationalMatrix.zeros(n.dimension, 0).hstack(*blocks), chains


class _Slices(Mapping):
    """{l: W_l}, W_l spanned by the first ``ranks[l]`` columns of ``basis`` in
    the column ``order``; each slice is made on its first read, once per
    distinct rank."""

    __slots__ = ("_basis", "_order", "_ranks", "_made")

    def __init__(self, basis: RationalMatrix, order: list[int], ranks: dict[int, int]):
        self._basis, self._order, self._ranks, self._made = basis, order, ranks, {}

    def __getitem__(self, l: int) -> RationalMatrix:
        c = self._ranks[l]
        m = self._made.get(c)
        if m is None:
            m = self._made[c] = self._basis.submatrix_columns(self._order[:c])
        return m

    def __iter__(self):
        return iter(self._ranks)

    def __len__(self) -> int:
        return len(self._ranks)


@dataclass
class WeightFiltration:
    """Increasing filtration W centered at ``center``; ``subspaces[l]`` spans W_l.

    ``ranks[l]`` is dim W_l for each stored l, as `weight_filtration` reads
    it off its certificate and `verify_weight_axioms` finds it.
    `weight_filtration` gives ``subspaces`` as slices of its Jordan basis,
    each made when it is first read."""

    center: int
    dimension: int
    subspaces: Mapping[int, RationalMatrix]
    ranks: dict[int, int] = field(default_factory=dict)

    def level(self, l: int) -> RationalMatrix:
        lo = self.center - self.dimension
        hi = self.center + self.dimension
        if l < lo:
            return RationalMatrix.zeros(self.dimension, 0)
        if l > hi:
            return RationalMatrix.identity(self.dimension)
        return self.subspaces[l]

    def level_dims(self) -> dict[int, int]:
        return dict(self.ranks)

    def graded_dims(self) -> dict[int, int]:
        return _graded_dims(self.ranks)

    def to_json_dict(self) -> dict:
        return {
            "center": self.center,
            "dimension": self.dimension,
            "level_dims": {str(l): d for l, d in self.level_dims().items()},
            "graded_dims": {str(l): d for l, d in self.graded_dims().items()},
        }


def _graded_dims(ranks: dict[int, int]) -> dict[int, int]:
    """dim Gr_l = dim W_l - dim W_{l-1}, where nonzero, from the level ranks."""
    dims = {l: r - ranks.get(l - 1, 0) for l, r in ranks.items()}
    return {l: d for l, d in dims.items() if d}


def verify_weight_axioms(n: NilpotentOperator, w: WeightFiltration) -> dict[int, int]:
    """Raise unless W is increasing and exhaustive, N W_l ⊆ W_{l-2}, and
    N^l : Gr_{k+l} -> Gr_{k-l} is an isomorphism for every l >= 1; return
    rank W_l for the stored levels l = k - dim .. k + dim.

    Each check is one elimination, a `contains_space` per containment and a
    `rank` per level, and the first failure is raised: not exhaustive, not
    increasing, N W_l ⊄ W_{l-2} (each at the smallest l), then for l = 1,
    2, ... the Gr dimensions and the isomorphism.  Where W_l = W_{l-1}
    (``==`` is exact on the canonical stored form), W_l takes the rank of
    W_{l-1} and both its containments are left out, for then N W_l =
    N W_{l-1} ⊆ W_{l-3} ⊆ W_{l-2}.  N^l W_{k+l} ⊆ W_{k-l} follows from the
    N W_j ⊆ W_{j-2}, so the isomorphism is a rank modulo W_{k-l-1}."""
    k, dim = w.center, n.dimension
    lo, hi = k - dim, k + dim
    levels = {l: w.level(l) for l in range(lo - 2, hi + 1)}
    changed = [l for l in range(lo, hi + 1) if levels[l] != levels[l - 1]]
    ranks = {lo - 1: 0}
    for l in range(lo, hi + 1):
        ranks[l] = rank(levels[l]) if l in changed else ranks[l - 1]
    if ranks[hi] != dim:
        raise MonodromyError(f"filtration not exhaustive: dim W_{hi} < {dim}")
    for l in changed:
        if not contains_space(levels[l], levels[l - 1]):
            raise MonodromyError(f"filtration not increasing: W_{l - 1} not inside W_{l}")
    for l in changed:
        if not contains_space(levels[l - 2], n.matrix * levels[l]):
            raise MonodromyError(f"axiom failure: N W_{l} not inside W_{l - 2}")
    for l in range(1, dim + 1):
        up = ranks[k + l] - ranks[k + l - 1]
        if up != ranks[k - l] - ranks[k - l - 1]:
            raise MonodromyError(
                f"axiom failure: Gr_{k + l} and Gr_{k - l} have different dims")
        span = up and rank(levels[k - l - 1].hstack(n.power(l) * levels[k + l]))
        if up and span != ranks[k - l - 1] + up:   # N^l induces rank span - rank W_{k-l-1}
            raise MonodromyError(
                f"axiom failure: N^{l} is not an isomorphism Gr_{k + l} -> Gr_{k - l}")
    return {l: ranks[l] for l in range(lo, hi + 1)}


def _certified_levels(n: NilpotentOperator, basis: RationalMatrix, chains: list[list[int]],
                      weights: dict[int, int], center: int) -> dict[int, int]:
    """dim W_l for each stored l, W_l spanned by the columns of B = ``basis``
    of weight <= l, once B certifies the axioms: its ``chains`` partition
    its columns, it has rank dim, N B is B with each column replaced by the
    next one in its chain or by 0 at a chain's end, the ``weights`` drop by 2
    along each chain and its ends sum to 2 center, and dim Gr_{center+l} =
    dim Gr_{center-l}.  Then N W_l ⊆ W_{l-2}, and N^l maps the columns of
    weight center + l one to one onto those of weight center - l."""
    dim = n.dimension
    if basis.cols != dim or sorted(j for c in chains for j in c) != list(range(dim)):
        raise MonodromyError("internal: the Jordan chains do not partition the basis")
    if rank(basis) != dim:
        raise MonodromyError(f"filtration not exhaustive: dim W_{center + dim} < {dim}")
    following = {a: b for c in chains for a, b in zip(c, c[1:])}
    shifted = [following.get(j, dim) for j in range(dim)]   # a chain's end: the 0 of [B | 0]
    if n.matrix * basis != basis.hstack(RationalMatrix.zeros(dim, 1)).submatrix_columns(shifted):
        raise MonodromyError("internal: N does not shift the Jordan chains")
    if any(weights[c[0]] + weights[c[-1]] != 2 * center
           or any(weights[a] - weights[b] != 2 for a, b in zip(c, c[1:])) for c in chains):
        raise MonodromyError("internal: the weights are not centered Jordan chain weights")
    ordered = sorted(weights.values())
    counts = {l: bisect_right(ordered, l) for l in range(center - dim, center + dim + 1)}
    graded = _graded_dims(counts)
    if any(graded.get(center + l, 0) != graded.get(center - l, 0) for l in range(1, dim + 1)):
        raise MonodromyError("internal: the graded dimensions are not symmetric")
    return counts


def weight_filtration(n: NilpotentOperator, center: int = 0) -> WeightFiltration:
    """The unique filtration with the two weight axioms, centered at ``center``.

    A Jordan chain of size s places N^i v in weight center + (s-1) - 2i.
    With the Jordan basis sorted by weight, W_l is the slice of its columns
    of weight <= l, made when W_l is first read.  The basis certifies the
    axioms before the result is returned.
    """
    dim = n.dimension
    basis, chains = jordan_chains(n)
    weights = {j: center + (len(chain) - 1) - 2 * i
               for chain in chains for i, j in enumerate(chain)}
    counts = _certified_levels(n, basis, chains, weights, center)
    order = sorted(range(dim), key=weights.__getitem__)
    return WeightFiltration(center, dim, _Slices(basis, order, counts), counts)


def stratum_weight(n: NilpotentOperator) -> Fraction:
    """Largest Jordan block size, as a rational; conjugation invariant."""
    if n.dimension == 0:
        return Fraction(1)
    return Fraction(max(jordan_type(n)))
