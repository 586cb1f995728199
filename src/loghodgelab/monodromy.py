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
by exhaustion in small dimension.  Each image N^l W_j is one matrix product,
and the ranks of the powers of N and of the levels of W are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import (
    RationalMatrix,
    contains_space,
    extend_basis,
    kernel_basis,
    rank,
    sum_spaces,
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


def jordan_chains(n: NilpotentOperator) -> list[list[tuple[Fraction, ...]]]:
    """Jordan basis organized as chains [v, Nv, ..., N^{s-1}v], built
    deterministically from kernel bases of the powers."""
    dim = n.dimension
    kernels = []
    for j in range(n.index + 1):
        ker = kernel_basis(n.power(j))
        kernels.append(RationalMatrix.from_columns(ker, dim) if ker
                       else RationalMatrix.zeros(dim, 0))
    chains: list[tuple[tuple[Fraction, ...], int]] = []   # (top vector, size)
    for s in range(n.index, 0, -1):
        # tops of longer chains contribute N^{t-s} v inside ker(N^s)
        carried = [n.power(t - s).apply(v) for v, t in chains if t > s]
        base = kernels[s - 1]
        if carried:
            base = sum_spaces(base, RationalMatrix.from_columns(carried, dim))
        new_top_cols = extend_basis(base, kernels[s])
        for j in new_top_cols:
            chains.append((kernels[s].column(j), s))
    out = []
    for v, s in chains:
        out.append([n.power(i).apply(v) for i in range(s)])
    total = sum(len(c) for c in out)
    if total != dim:
        raise MonodromyError("internal: Jordan basis has wrong cardinality")
    return out


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
        return {l: rank(m) for l, m in sorted(self.subspaces.items())}

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
    N^l : Gr_{k+l} -> Gr_{k-l} is an isomorphism for every l >= 1."""
    k = w.center
    dim = n.dimension
    if w.level_rank(k + dim) != dim:
        raise MonodromyError(f"filtration not exhaustive: dim W_{k + dim} < {dim}")
    for l in range(k - dim + 1, k + dim + 1):
        if not contains_space(w.level(l), w.level(l - 1)):
            raise MonodromyError(f"filtration not increasing: W_{l - 1} not inside W_{l}")
    for l in range(k - dim, k + dim + 1):
        if not contains_space(w.level(l - 2), n.matrix * w.level(l)):
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
        if not contains_space(w.level(k - l), img):
            raise MonodromyError(
                f"axiom failure: N^{l} W_{k + l} not inside W_{k - l}")


def weight_filtration(n: NilpotentOperator, center: int = 0) -> WeightFiltration:
    """The unique filtration with the two weight axioms, centered at ``center``.

    A Jordan chain of size s places N^i v in weight center + (s-1) - 2i.
    The result is checked against the axioms before being returned.
    """
    dim = n.dimension
    weighted: list[tuple[int, tuple[Fraction, ...]]] = []
    for chain in jordan_chains(n):
        s = len(chain)
        for i, vec in enumerate(chain):
            weighted.append((center + (s - 1) - 2 * i, vec))
    subspaces = {}
    for l in range(center - dim, center + dim + 1):
        # a Jordan basis is independent, so these columns are a basis of W_l;
        # the exhaustive check below fails if they are not
        vectors = [vec for wt, vec in weighted if wt <= l]
        subspaces[l] = RationalMatrix.from_columns(vectors, dim)
    filtration = WeightFiltration(center, dim, subspaces)
    verify_weight_axioms(n, filtration)
    return filtration


def stratum_weight(n: NilpotentOperator) -> Fraction:
    """Largest Jordan block size, as a rational; conjugation invariant."""
    if n.dimension == 0:
        return Fraction(1)
    return Fraction(max(jordan_type(n)))
