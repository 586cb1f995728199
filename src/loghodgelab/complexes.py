"""Cochain complexes over Q: mapping cones, long exact sequences, filtered
complexes and their spectral sequences.

Complexes are bounded, with an explicit contiguous degree range.  The long
exact sequence of a cone is verified by ranks alone: a chain map g induces
on H^k a map of rank rank[B | g Z] - rank B, for Z the cocycles of its
source and B the coboundaries of its target (Weibel 1994, 1.5).

Filtrations are stored as explicit subspace bases per degree (not index
markers), because the weighted filtrations built elsewhere are not
coordinate-aligned; F^0 = C by definition.  Pages come from one persistence
reduction (Edelsbrunner-Letscher-Zomorodian 2002; Basu-Parida 2017) in a
basis B_k of each C^k adapted to the filtration, where each vector has a
level, the largest p with the vector in F^p.  One ``pivot_columns`` of
[F^{p+1} | F^p] for each p from P - 2 down to 0 (F^0 = C^k) both builds B_k
and checks the filtration: its first-block pivots are the stored basis of
F^{p+1}, which opens B_k at level P - 1 when p = P - 2; F^{p+1} ⊆ F^p iff
all its pivots number rank F^p, the first-block pivots of the next pass;
and the second-block pivots enter B_k at level p.  With no levels (P = 1)
B_k is the identity and no pass is made.  Every F^p is a subcomplex iff
X_k = B_{k+1}^-1 d_k B_k has no entry below the level diagonal.  A column
reduction of X_k pairs elements of C^k with elements of C^{k+1}; the gap of a
pair is the level of its target minus the level of its source.  Over a field
a filtered complex splits into one- and two-element interval pieces, so the
gaps do not depend on the basis.  E_r^{p,q} counts the elements at (p, q)
that are unpaired or in a pair of gap >= r, and d_r is nonzero exactly where
a pair of gap r starts.  The pairs are made once, with the filtered complex,
and so are the E_infinity totals and the first nonzero differential that
they decide; ``spectral_sequence`` only renders pages from them.

Every complex on a keyed basis (the cone complex, its weighted tropical
twist and the local models) comes from one builder, ``_total_complex``:
keys by degree and a rule listing the signed arrows out of a key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

from .linalg import (
    RationalMatrix,
    kernel_basis,
    leading_columns,
    pivot_columns,
    rank,
)


class ComplexError(ValueError):
    pass


class ChainMapError(ValueError):
    pass


class FiltrationError(ValueError):
    pass


class CochainComplex:
    """Bounded complex of finite-dimensional Q-vector spaces.

    ``dims`` maps every degree of a contiguous range to a dimension (zero
    allowed); ``differentials[k]`` is the matrix of d_k : C^k -> C^{k+1},
    of shape dims[k+1] x dims[k].  d o d = 0 is enforced at construction;
    ``ranks`` are computed on first use and kept.
    """

    def __init__(self, dims: dict[int, int], differentials: dict[int, RationalMatrix]):
        if not dims:
            raise ComplexError("complex needs at least one degree")
        lo, hi = min(dims), max(dims)
        for k in range(lo, hi + 1):
            if k not in dims:
                raise ComplexError(f"degree range not contiguous: missing degree {k}")
            if dims[k] < 0:
                raise ComplexError(f"negative dimension in degree {k}")
        self.min_degree = lo
        self.max_degree = hi
        self.dims = {k: dims[k] for k in range(lo, hi + 1)}
        self._differentials: dict[int, RationalMatrix] = {}
        for k, m in differentials.items():
            expected = (self.dim(k + 1), self.dim(k))
            if (m.rows, m.cols) != expected:
                raise ComplexError(
                    f"differential at degree {k} has shape {(m.rows, m.cols)}, expected {expected}")
            if not m.is_zero():
                self._differentials[k] = m
        for k in sorted(self._differentials):
            after = self._differentials.get(k + 1)
            if after is not None and not (after * self._differentials[k]).is_zero():
                raise ComplexError(f"d o d != 0 at degree {k}")
        self._ranks: Optional[dict[int, int]] = None

    @property
    def ranks(self) -> dict[int, int]:
        """rank(d_k) for each stored differential, computed on first use; a
        degree with none has rank 0 and costs no elimination."""
        if self._ranks is None:
            self._ranks = {k: rank(d) for k, d in self._differentials.items()}
        return self._ranks

    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def differential(self, k: int) -> RationalMatrix:
        d = self._differentials.get(k)
        if d is None:
            return RationalMatrix.zeros(self.dim(k + 1), self.dim(k))
        return d

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in self.dims.items())

    def __repr__(self) -> str:
        return (f"CochainComplex(degrees {self.min_degree}..{self.max_degree}, "
                f"dims {list(self.dims.values())})")


def _total_complex(basis_by_degree: dict[int, list[Hashable]],
                   arrows: Callable[[Hashable], Iterable[tuple]]) -> CochainComplex:
    """Complex on the keys of ``basis_by_degree`` (degree -> keys).

    Keys are sorted within each degree and the degrees are filled to a
    contiguous range.  The column of a key has ``coeff`` at ``target`` for
    each ``(target, coeff)`` in ``arrows(key)``; targets outside the basis of
    the next degree are dropped.
    """
    if not basis_by_degree:
        return CochainComplex({0: 0}, {})
    lo, hi = min(basis_by_degree), max(basis_by_degree)
    basis = {k: sorted(basis_by_degree.get(k, ())) for k in range(lo, hi + 1)}
    diffs = {}
    for k in range(lo, hi):
        index = {key: i for i, key in enumerate(basis[k + 1])}
        entries: dict[tuple[int, int], int] = {}
        for col, key in enumerate(basis[k]):
            for target, coeff in arrows(key):
                row = index.get(target)
                if row is not None:
                    entries[(row, col)] = entries.get((row, col), 0) + coeff
        diffs[k] = RationalMatrix(len(basis[k + 1]), len(basis[k]), entries)
    return CochainComplex({k: len(keys) for k, keys in basis.items()}, diffs)


@dataclass(frozen=True)
class ChainMap:
    """Degreewise linear map commuting with the differentials."""

    source: CochainComplex
    target: CochainComplex
    components: dict[int, RationalMatrix]

    def __post_init__(self):
        for k, m in self.components.items():
            expected = (self.target.dim(k), self.source.dim(k))
            if (m.rows, m.cols) != expected:
                raise ChainMapError(
                    f"component at degree {k} has shape {(m.rows, m.cols)}, expected {expected}")
        lo = min(self.source.min_degree, self.target.min_degree)
        hi = max(self.source.max_degree, self.target.max_degree)
        # at k = hi both sides have no rows, so the top square cannot fail
        for k in range(lo, hi):
            # both sides are dim target_{k+1} x dim source_k in canonical form
            if (self.target.differential(k) * self.component(k)
                    != self.component(k + 1) * self.source.differential(k)):
                raise ChainMapError(f"map does not commute with differentials at degree {k}")

    def component(self, k: int) -> RationalMatrix:
        m = self.components.get(k)
        if m is None:
            return RationalMatrix.zeros(self.target.dim(k), self.source.dim(k))
        return m


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def cohomology_dims(c: CochainComplex) -> dict[int, int]:
    """dim ker(d_k) - rank(d_{k-1}) per degree, from ``c.ranks``."""
    ranks = c.ranks
    return {k: c.dim(k) - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in c.degrees()}


# ---------------------------------------------------------------------------
# mapping cone and long exact sequence
# ---------------------------------------------------------------------------


def mapping_cone(f: ChainMap) -> CochainComplex:
    """Cone of f with degree-k space target_k (+) source_{k+1} and

        d(t, s) = (d_target t + f(s), -d_source s).
    """
    src, tgt = f.source, f.target
    lo = min(tgt.min_degree, src.min_degree - 1)
    hi = max(tgt.max_degree, src.max_degree - 1)
    dims = {k: tgt.dim(k) + src.dim(k + 1) for k in range(lo, hi + 1)}
    diffs = {}
    for k in range(lo, hi):
        top = tgt.differential(k).hstack(f.component(k + 1))
        bottom = RationalMatrix.zeros(src.dim(k + 2), tgt.dim(k)).hstack(-src.differential(k + 1))
        diffs[k] = top.vstack(bottom)
    return CochainComplex(dims, diffs)


@dataclass
class ExactnessNode:
    degree: int
    term: str                       # "source", "target" or "cone"
    dim: int
    rank_in: int
    rank_out: int
    exact: bool


@dataclass
class LongExactSequenceReport:
    source_cohomology: dict[int, int]
    target_cohomology: dict[int, int]
    cone_cohomology: dict[int, int]
    nodes: list[ExactnessNode]
    exact: bool

    def to_json_dict(self) -> dict:
        return {
            "source_cohomology": {str(k): v for k, v in sorted(self.source_cohomology.items())},
            "target_cohomology": {str(k): v for k, v in sorted(self.target_cohomology.items())},
            "cone_cohomology": {str(k): v for k, v in sorted(self.cone_cohomology.items())},
            "nodes": [
                {"degree": n.degree, "term": n.term, "dim": n.dim,
                 "rank_in": n.rank_in, "rank_out": n.rank_out, "exact": n.exact}
                for n in self.nodes
            ],
            "exact": self.exact,
        }


def long_exact_sequence(f: ChainMap) -> LongExactSequenceReport:
    """Cohomology of source, target and cone, and exactness (image = kernel)
    at every node of

        ... -> H^k(src) -f*-> H^k(tgt) -i*-> H^k(cone) -delta-> H^{k+1}(src) -> ...

    by ranks alone, with i(t) = (t, 0) and delta(t, s) = s.  Each map and
    each composite of two consecutive maps is induced by a chain map g, whose
    rank on H^k is rank[B | g Z] - rank B for Z a kernel basis of the
    source's d_k and B the image of the target's d_{k-1}; the composite
    delta i is zero on cochains.  A node is exact iff the composite through
    it has rank 0 and rank_in + rank_out = dim.
    """
    src, tgt = f.source, f.target
    cone = mapping_cone(f)
    lo = min(src.min_degree, cone.min_degree)
    hi = max(src.max_degree, cone.max_degree)
    degrees = range(lo - 1, hi + 1)
    # cocycles Z^k, rank d_k = dim C^k - dim Z^k and H^k = dim Z^k - rank d_{k-1}
    z = {c: {k: kernel_basis(c.differential(k)) for k in degrees} for c in (src, tgt, cone)}
    rank_d = {c: {k: c.dim(k) - z[c][k].cols for k in degrees} for c in z}
    h = {c: {k: z[c][k].cols - rank_d[c][k - 1] for k in range(lo, hi + 1)} for c in z}

    def induced(image: RationalMatrix, c: CochainComplex, k: int) -> int:
        """Rank of the map into H^k(c) induced by a g with g Z = ``image``."""
        if image.is_zero():
            return 0
        return rank(c.differential(k - 1).hstack(image)) - rank_d[c][k - 1]

    def into_cone(m: RationalMatrix, k: int) -> RationalMatrix:  # i(t) = (t, 0)
        return m.vstack(RationalMatrix.zeros(src.dim(k + 1), m.cols))

    # delta Z_cone^k, the s part of each cone cocycle, in C^{k+1}(src)
    delta_z = {k: z[cone][k].submatrix_rows(range(tgt.dim(k), cone.dim(k))) for k in degrees}
    delta = {k: induced(delta_z[k], src, k + 1) for k in degrees}
    nodes = []
    for k in range(lo, hi + 1):
        fk = f.component(k)
        f_z = fk * z[src][k]
        f_star = induced(f_z, tgt, k)
        i_star = induced(into_cone(z[tgt][k], k), cone, k)
        for term, dim, rank_in, rank_out, composite in (
                ("source", h[src][k], delta[k - 1], f_star, induced(fk * delta_z[k - 1], tgt, k)),
                ("target", h[tgt][k], f_star, i_star, induced(into_cone(f_z, k), cone, k)),
                ("cone", h[cone][k], i_star, delta[k], 0)):
            nodes.append(ExactnessNode(k, term, dim, rank_in, rank_out,
                                       composite == 0 and rank_in + rank_out == dim))

    return LongExactSequenceReport(
        source_cohomology={k: h[src][k] for k in src.degrees()},
        target_cohomology={k: h[tgt][k] for k in tgt.degrees()},
        cone_cohomology={k: h[cone][k] for k in cone.degrees()},
        nodes=nodes,
        exact=all(n.exact for n in nodes),
    )


# ---------------------------------------------------------------------------
# filtered complexes and spectral sequences
# ---------------------------------------------------------------------------


class FilteredComplex:
    """Decreasing filtration C = F^0 ⊇ F^1 ⊇ ... ⊇ F^{P-1} ⊇ F^P = 0 by
    explicit subspace bases.

    ``levels[p - 1][k]`` is a matrix whose columns span F^p C^k, for
    1 <= p < P; F^0 = C by definition, and ``depth`` = P counts it.  Every
    level must be a subcomplex and the levels must be nested, as checked
    while building the adapted bases B_k (module docstring).  ``levels``
    keeps the basis of each given F^p that the check picked,
    ``basis_levels[k]`` is the level of each column of B_k,
    ``adapted_differentials[k]`` is X_k for each nonzero d_k, ``pairs`` lists
    (k, j, i, gap) for each persistence pair of j in C^k with i in C^{k+1},
    and ``gaps[k][j]`` is the gap of the pair of j, None if unpaired.  The
    unpaired elements give ``e_infinity_totals``, checked against
    ``cohomology_dims``; ``first_nonzero_differential`` is the least positive
    gap, None when the sequence degenerates at E_1.
    """

    def __init__(self, underlying: CochainComplex, levels: list[dict[int, RationalMatrix]]):
        self.underlying = c = underlying
        for p, given in enumerate(levels, 1):
            for k in c.degrees():
                if k in given and given[k].rows != c.dim(k):
                    raise FiltrationError(
                        f"level {p} basis at degree {k} has ambient dimension "
                        f"{given[k].rows}, expected {c.dim(k)}")
        self.depth = depth = len(levels) + 1
        self.levels: list[dict[int, RationalMatrix]] = [{} for _ in levels]
        self.basis_levels: dict[int, list[int]] = {}
        adapted, not_nested = {}, []
        for k in c.degrees():
            empty = RationalMatrix.zeros(c.dim(k), 0)
            given = [RationalMatrix.identity(c.dim(k))] + [f.get(k, empty) for f in levels]
            # F^{p+1}, rank(F^{p+2} + F^{p+1}) and B_k, whose first part is F^{P-1}
            deeper, span, parts = given[-1], None, [given[-1]]
            for p in range(depth - 2, -1, -1):
                pivots = pivot_columns(deeper.hstack(given[p]))
                inner = [j for j in pivots if j < deeper.cols]
                new = [j - deeper.cols for j in pivots[len(inner):]]
                self.levels[p][k] = deeper.submatrix_columns(inner)
                if span is None:
                    parts[0] = self.levels[p][k]
                elif span != len(inner):
                    not_nested.append((p + 2, k))
                parts.append(given[p].submatrix_columns(new))
                deeper, span = given[p], len(pivots)
            adapted[k] = parts[0].hstack(*parts[1:])
            self.basis_levels[k] = [p for p, part in zip(range(depth - 1, -1, -1), parts)
                                    for _ in range(part.cols)]
        if not_nested:
            p, k = min(not_nested)
            raise FiltrationError(f"levels not nested at level {p}, degree {k}")
        # B_{k+1} is invertible, so the kernel basis of [B_{k+1} | -d_k B_k]
        # is (X_k; I), one column per free column dim C^{k+1} + j
        self.adapted_differentials = {
            k: kernel_basis(adapted[k + 1].hstack(-(d * adapted[k])))
            .submatrix_rows(range(c.dim(k + 1)))
            for k, d in sorted(c._differentials.items())}
        level = self.basis_levels
        not_closed = [(level[k + 1][i] + 1, k) for k, x in self.adapted_differentials.items()
                      for i, j in x.entries if level[k + 1][i] < level[k][j]]
        if not_closed:
            p, k = min(not_closed)
            raise FiltrationError(
                f"level {p} is not a subcomplex: d(F^{p} C^{k}) is not "
                f"contained in F^{p} C^{k + 1}")
        self.gaps: dict[int, list[Optional[int]]] = {k: [None] * c.dim(k) for k in c.degrees()}
        self.pairs: list[tuple[int, int, int, int]] = []
        for k, x in self.adapted_differentials.items():
            for j, i in _persistence_pairs(x, level[k], level[k + 1]):
                g = level[k + 1][i] - level[k][j]
                self.gaps[k][j] = self.gaps[k + 1][i] = g
                self.pairs.append((k, j, i, g))
        self.e_infinity_totals = {k: v for k in c.degrees() if (v := self.gaps[k].count(None))}
        if self.e_infinity_totals != {k: v for k, v in cohomology_dims(c).items() if v}:
            raise ComplexError("internal: E_infinity totals differ from the cohomology")
        self.first_nonzero_differential = min((g for *_, g in self.pairs if g), default=None)


@dataclass
class SpectralSequencePage:
    """Page E_r: ``entries[(p, q)]`` is dim E_r^{p,q} (nonzero entries only),
    and ``differentials[(p, q)]`` is d_r : E_r^{p,q} -> E_r^{p+r,q-r+1} for
    every nonzero entry, in the basis of surviving pair elements (a 0/1
    matrix with one 1 per pair of gap r; zero rows off the grid)."""

    r: int
    entries: dict[tuple[int, int], int]
    differentials: dict[tuple[int, int], RationalMatrix]

    def entry(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def differential(self, p: int, q: int) -> Optional[RationalMatrix]:
        return self.differentials.get((p, q))

    def total_dims(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for (p, q), n in self.entries.items():
            totals[p + q] = totals.get(p + q, 0) + n
        return {k: v for k, v in sorted(totals.items()) if v}

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "entries": {f"{p},{q}": n for (p, q), n in sorted(self.entries.items()) if n},
            "nonzero_differentials": sorted(
                f"{p},{q}" for (p, q), m in self.differentials.items() if not m.is_zero()),
        }


def _persistence_pairs(x: RationalMatrix, col_level: list[int],
                       row_level: list[int]) -> list[tuple[int, int]]:
    """Pairs (j, i) of a column reduction of X in filtration order: columns
    in the order (-level, index), the low of a column being its last nonzero
    row in the same order on the rows.  That is the row reduction of X^T with
    its columns in reverse row order, where the low is the leading column."""
    cols = sorted(range(x.cols), key=lambda j: (-col_level[j], j))
    rows = sorted(range(x.rows), key=lambda i: (-row_level[i], i), reverse=True)
    xt = x.submatrix_columns(cols).transpose().submatrix_columns(rows)
    return [(j, rows[low]) for j, low in zip(cols, leading_columns(xt)) if low is not None]


def spectral_sequence(fc: FilteredComplex, r_max: Optional[int] = None) -> list[SpectralSequencePage]:
    """Pages E_0 .. E_{r_max} of the filtration spectral sequence, rendered
    from the persistence pairs of ``fc`` (module docstring).

    d_r^{p,q} is the 0/1 matrix, in the surviving elements of (p, q) and of
    (p + r, q - r + 1) ordered by index, with one 1 per pair of gap r.
    Default r_max is depth + 1, past which all pages are stable: at most
    pages 0..depth+1 are computed, and each later page is a copy of page
    depth + 1 (whose differentials all land outside the grid) relabelled r.
    """
    c = fc.underlying
    depth = fc.depth
    if r_max is None:
        r_max = depth + 1
    r_max = max(r_max, 0)
    level = fc.basis_levels
    pages: list[SpectralSequencePage] = []
    for r in range(0, min(r_max, depth + 1) + 1):
        survivors: dict[tuple[int, int], list[int]] = {}  # (level, degree) -> indices
        for k in c.degrees():
            for x, g in enumerate(fc.gaps[k]):
                if g is None or g >= r:
                    survivors.setdefault((level[k][x], k), []).append(x)
        entries = {(p, k - p): len(survivors[(p, k)])
                   for k in c.degrees() for p in range(depth) if (p, k) in survivors}
        ones: dict[tuple[int, int], dict[tuple[int, int], int]] = {pq: {} for pq in entries}
        for k, j, i, g in fc.pairs:
            if g == r:
                p = level[k][j]
                ones[(p, k - p)][(survivors[(p + r, k + 1)].index(i),
                                  survivors[(p, k)].index(j))] = 1
        diffs = {(p, q): RationalMatrix(entries.get((p + r, q - r + 1), 0), n, ones[(p, q)])
                 for (p, q), n in entries.items()}
        pages.append(SpectralSequencePage(r, entries, diffs))
    stable = pages[-1]
    pages += [SpectralSequencePage(r, dict(stable.entries), dict(stable.differentials))
              for r in range(depth + 2, r_max + 1)]
    return pages
