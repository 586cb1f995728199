"""Nilpotent operators: Jordan type, the centered weight filtration, and the
stratum weight read off from the Jordan block sizes.

The filtration is built from an explicit Jordan basis (a chain v, Nv, ...,
N^{s-1}v of length s contributes the weights k+s-1, k+s-3, ..., k-s+1) and
then re-verified: W must be an increasing, exhaustive filtration
(W_{l-1} ⊆ W_l, and W_{k+dim} is the whole space, which also catches
dependent Jordan chains) satisfying its two defining axioms:

    N . W_l  is contained in  W_{l-2},        and
    N^l : Gr_{k+l} -> Gr_{k-l}  is an isomorphism for every l >= 0.

The axioms determine the filtration uniquely, which the test suite confirms
by exhaustion in small dimension.  The Jordan basis is one integer-row
matrix built by matrix products, each W_l is a slice of its columns, and each
image N^l W_j is one product.  The ranks of the powers of N are computed
once, and so is the rank of each level, shared by equal consecutive levels;
a check that an earlier one implies is not made again.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import (
    RationalMatrix,
    contains_space,
    extend_basis,
    kernel_basis,
    rank,
)


class MonodromyError(ValueError):
    pass


class NilpotentOperator:
    """Square rational matrix with N^dim = 0, verified at construction."""

    def __init__(self, matrix: RationalMatrix):
        if matrix.rows != matrix.cols:
            raise MonodromyError("nilpotent operator must be square")
        self.matrix = matrix
        self.dimension = matrix.rows
        power = RationalMatrix.identity(self.dimension)
        self._powers = [power]
        for _ in range(self.dimension):
            power = matrix * power
            self._powers.append(power)
            if power.is_zero():
                break
        if not self._powers[-1].is_zero() and self.dimension > 0:
            raise MonodromyError("matrix is not nilpotent")
        self.index = len(self._powers) - 1   # smallest m with N^m = 0

    def power(self, j: int) -> RationalMatrix:
        if j >= len(self._powers):
            return RationalMatrix.zeros(self.dimension, self.dimension)
        return self._powers[j]

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """rank(N^j) for j = 0 .. index."""
        return tuple(rank(p) for p in self._powers)

    def __repr__(self):
        return f"NilpotentOperator(dim {self.dimension}, index {self.index})"


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
    kernels = [kernel_basis(n.power(j)) for j in range(n.index + 1)]
    tops: list[tuple[RationalMatrix, int]] = []   # (top vectors of the chains, size)
    for s in range(n.index, 0, -1):
        # tops of longer chains contribute N^{t-s} v inside ker(N^s)
        base = kernels[s - 1]
        for top, t in tops:
            base = base.hstack(n.power(t - s) * top)
        new_top_cols = extend_basis(base, kernels[s])
        if new_top_cols:
            tops.append((kernels[s].submatrix_columns(new_top_cols), s))
    basis, chains = RationalMatrix.zeros(n.dimension, 0), []
    for top, s in tops:
        start = basis.cols
        for i in range(s):
            basis = basis.hstack(n.power(i) * top)
        chains += [[start + i * top.cols + j for i in range(s)] for j in range(top.cols)]
    if basis.cols != n.dimension:
        raise MonodromyError("internal: Jordan basis has wrong cardinality")
    return basis, chains


@dataclass
class WeightFiltration:
    """Increasing filtration W centered at ``center``; ``subspaces[l]`` spans W_l."""

    center: int
    dimension: int
    subspaces: dict[int, RationalMatrix]

    def level(self, l: int) -> RationalMatrix:
        lo = self.center - self.dimension
        hi = self.center + self.dimension
        if l < lo:
            return RationalMatrix.zeros(self.dimension, 0)
        if l > hi:
            return RationalMatrix.identity(self.dimension)
        return self.subspaces[l]

    @cached_property
    def _ranks(self) -> dict[int, int]:
        """rank(W_l) for every stored l; equal consecutive levels share one."""
        ranks, below = {}, None
        for l, m in sorted(self.subspaces.items()):
            ranks[l] = ranks[l - 1] if m == below else rank(m)
            below = m
        return ranks

    def level_rank(self, l: int) -> int:
        """dim W_l."""
        if l < self.center - self.dimension:
            return 0
        if l > self.center + self.dimension:
            return self.dimension
        return self._ranks[l]

    def level_dims(self) -> dict[int, int]:
        return dict(self._ranks)

    def graded_dims(self) -> dict[int, int]:
        dims = {}
        for l in self._ranks:
            d = self.level_rank(l) - self.level_rank(l - 1)
            if d:
                dims[l] = d
        return dims

    def to_json_dict(self) -> dict:
        return {
            "center": self.center,
            "dimension": self.dimension,
            "level_dims": {str(l): d for l, d in self.level_dims().items()},
            "graded_dims": {str(l): d for l, d in self.graded_dims().items()},
        }


def verify_weight_axioms(n: NilpotentOperator, w: WeightFiltration) -> None:
    """Raise unless W is increasing and exhaustive, N W_l ⊆ W_{l-2}, and
    N^l : Gr_{k+l} -> Gr_{k-l} is an isomorphism for every l >= 1.

    A check that one already made implies is skipped: W_{l-1} ⊆ W_l when
    the two level matrices are equal, and N W_l ⊆ W_{l-2} when W_l = W_{l-1},
    for then N W_l = N W_{l-1} ⊆ W_{l-3} ⊆ W_{l-2}.  The stored form is
    canonical, so ``==`` on level matrices is exact.  N^l W_{k+l} ⊆ W_{k-l}
    follows from N W_j ⊆ W_{j-2} for every j."""
    k = w.center
    dim = n.dimension
    if w.level_rank(k + dim) != dim:
        raise MonodromyError(f"filtration not exhaustive: dim W_{k + dim} < {dim}")
    levels = {l: w.level(l) for l in range(k - dim - 1, k + dim + 1)}
    for l in range(k - dim + 1, k + dim + 1):
        if levels[l] != levels[l - 1] and not contains_space(levels[l], levels[l - 1]):
            raise MonodromyError(f"filtration not increasing: W_{l - 1} not inside W_{l}")
    for l in range(k - dim, k + dim + 1):
        if levels[l] != levels[l - 1] and not contains_space(w.level(l - 2),
                                                              n.matrix * levels[l]):
            raise MonodromyError(f"axiom failure: N W_{l} not inside W_{l - 2}")
    graded = w.graded_dims()
    for l in range(1, dim + 1):
        up = graded.get(k + l, 0)
        down = graded.get(k - l, 0)
        if up != down:
            raise MonodromyError(
                f"axiom failure: Gr_{k + l} and Gr_{k - l} have different dims")
        if up == 0:
            continue
        # N^l must map W_{k+l} onto W_{k-l} modulo W_{k-l-1} with full rank
        img = n.power(l) * w.level(k + l)
        induced_rank = rank(img.hstack(w.level(k - l - 1))) - w.level_rank(k - l - 1)
        if induced_rank != up:
            raise MonodromyError(
                f"axiom failure: N^{l} is not an isomorphism Gr_{k + l} -> Gr_{k - l}")


def weight_filtration(n: NilpotentOperator, center: int = 0) -> WeightFiltration:
    """The unique filtration with the two weight axioms, centered at ``center``.

    A Jordan chain of size s places N^i v in weight center + (s-1) - 2i.
    With the Jordan basis sorted by weight, W_l is the slice of its columns
    of weight <= l.  The result is checked against the axioms before being
    returned.
    """
    dim = n.dimension
    basis, chains = jordan_chains(n)
    weights = [0] * dim
    for chain in chains:
        for i, j in enumerate(chain):
            weights[j] = center + (len(chain) - 1) - 2 * i
    order = sorted(range(dim), key=weights.__getitem__)
    basis = basis.submatrix_columns(order)
    weights.sort()
    # a Jordan basis is independent, so these columns are a basis of W_l;
    # the exhaustive check fails if they are not
    counts = {l: bisect_right(weights, l) for l in range(center - dim, center + dim + 1)}
    slices = {c: basis.submatrix_columns(range(c)) for c in set(counts.values())}
    filtration = WeightFiltration(center, dim, {l: slices[c] for l, c in counts.items()})
    verify_weight_axioms(n, filtration)
    return filtration


def stratum_weight(n: NilpotentOperator) -> Fraction:
    """Largest Jordan block size, as a rational; conjugation invariant."""
    if n.dimension == 0:
        return Fraction(1)
    return Fraction(max(jordan_type(n)))
