"""Sheaf cohomology of divisors on smooth complete toric varieties, and the
logarithmic Hodge tables built from it.

h^q(X, O(D)) is a sum over lattice characters m: the graded piece at m is the
reduced cohomology, one degree down, of the simplicial complex spanned inside
each maximal cone by the rays whose inequality <m, v> >= -a_v fails
(Cox-Little-Schenck, Toric Varieties, Thm 9.1.3).  That piece depends only
on the set V of violating rays, its sign chamber, so it is computed once per
chamber met (at most 2^#rays) and reused within the call.

The fan is simplicial and complete, so its rays and cones triangulate the
unit sphere S^{n-1}, and the complex of V is the subcomplex of that sphere
spanned by V.  Its reduced cohomology needs no complex: with c(W) the number
of connected components of the sphere's 1-skeleton (rays joined when they
share a maximal cone, the ``edges`` of the ``Fan``) restricted to W,

    V empty:              H~^{-1} = 1 (the empty complex);
    V every ray:          H~^{n-1} = 1 (the whole sphere);
    otherwise:            H~^0 = c(V) - 1, and for n = 3 also
                          H~^1 = c(V^c) - 1,

and every other degree is 0.  H~^1 is Alexander duality: the sphere minus
a spanned subcomplex retracts onto the subcomplex spanned by the
complement, so H~^i(V) = H~_{n-2-i}(V^c) (Miller-Sturmfels, Combinatorial
Commutative Algebra, ch. 5).  For n = 3 that gives H~^1 = c(V^c) - 1 and
H~^2 = 0, since V^c is not empty; for n <= 2 a proper spanned subcomplex of
a circle or of two points is a disjoint union of arcs or points.

Characters with a nonzero contribution lie in bounded chambers whose vertices
solve n x n subsystems with right hand sides -a_v or -a_v - 1, so the
bounding box of those solutions (padded by one) is exhaustive.  The box is
walked row by row along its last coordinate.  Within a row each ray's
inequality flips at most once, at its cut, so a row is one event walk: the
chamber, a bitmask of the violated rays, starts as the rays violated at the
row's first character, the cuts inside the row are sorted and each toggles
its ray's bit, and every nonempty segment between them adds its length to
its chamber's character count.  Only after the walk is each distinct
chamber turned into a ray set, once, and its count multiplied into its
cohomology.

For the full toric boundary the sheaf of logarithmic p-forms is free of rank
C(n, p), so every row of the log Hodge table is a binomial multiple of the
divisor cohomology of the twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product
from math import comb, floor, gcd, prod
from typing import Optional, Sequence


class FanError(ValueError):
    pass


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix of size 0..3 (a fan has rank
    at most 3), by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


class Fan:
    """Smooth complete simplicial fan of rank <= 3.  ``edges`` are the pairs
    of rays that share a maximal cone: the 1-skeleton of the fan's sphere."""

    def __init__(self, rays: Sequence[Sequence[int]], maximal_cones: Sequence[Sequence[int]],
                 ray_names: Optional[Sequence[str]] = None):
        self.rays = [tuple(int(x) for x in ray) for ray in rays]
        if not self.rays:
            raise FanError("fan needs at least one ray")
        self.rank = len(self.rays[0])
        if self.rank < 1 or self.rank > 3:
            raise FanError(f"fan rank {self.rank} not supported (rank must be 1..3)")
        if any(len(r) != self.rank for r in self.rays):
            raise FanError("rays have mixed lengths")
        if len(set(self.rays)) != len(self.rays):
            raise FanError("duplicate rays")
        for ray in self.rays:
            if gcd(*ray) != 1:
                raise FanError(f"ray {ray} is not primitive")
        self.maximal_cones = [tuple(sorted(int(i) for i in cone)) for cone in maximal_cones]
        for cone in self.maximal_cones:
            if len(set(cone)) != len(cone):
                raise FanError(f"repeated ray in cone {cone}")
            if any(i < 0 or i >= len(self.rays) for i in cone):
                raise FanError(f"cone {cone} references a missing ray")
        if ray_names is None:
            ray_names = [f"r{i}" for i in range(len(self.rays))]
        if len(ray_names) != len(self.rays) or len(set(ray_names)) != len(ray_names):
            raise FanError("ray names must be distinct, one per ray")
        self.ray_names = list(ray_names)
        self._validate_smooth()
        self._validate_complete()
        unused = set(range(len(self.rays))).difference(*self.maximal_cones)
        if unused:
            raise FanError(f"ray {min(unused)} lies in no maximal cone")
        self.edges = {pair for cone in self.maximal_cones for pair in combinations(cone, 2)}

    def _validate_smooth(self):
        n = self.rank
        for cone in self.maximal_cones:
            if len(cone) != n:
                raise FanError(
                    f"maximal cone {cone} is not simplicial of full rank {n}")
            if abs(_det([self.rays[i] for i in cone])) != 1:
                raise FanError(f"cone {cone} is not unimodular: fan is not smooth")

    def _validate_complete(self):
        """Exact test that the maximal cones cover R^n once.  If every facet
        lies in exactly two cones, on opposite sides of it, then the number
        of cones over a point off every facet hyperplane is the same for all
        such points; one such point must lie in exactly one cone."""
        n = self.rank
        # facet -> rays opposite it; side[(facet, v)] = det(facet rays, v)
        # is nonzero (the cones are unimodular) and its sign says on which
        # side of the facet hyperplane v lies
        opposite: dict[tuple[int, ...], list[int]] = {}
        cone_facets = [[(tuple(i for i in cone if i != v), v) for v in cone]
                       for cone in self.maximal_cones]
        for facets in cone_facets:
            for facet, v in facets:
                opposite.setdefault(facet, []).append(v)
        side = {}
        for facet, rays in sorted(opposite.items()):
            if len(rays) != 2:
                raise FanError(
                    f"facet {facet} lies in {len(rays)} maximal cones (needs 2): fan "
                    f"is not complete")
            for v in rays:
                side[facet, v] = _det([self.rays[i] for i in facet] + [self.rays[v]])
            if (side[facet, rays[0]] > 0) == (side[facet, rays[1]] > 0):
                raise FanError(
                    f"the two maximal cones at facet {facet} lie on the same side of "
                    f"it: maximal cones overlap")
        # a point on the moment curve (1, t, t^2, ...): each facet hyperplane
        # meets the curve at most n - 1 times, so some small t is off them all
        for t in count(1):
            point = tuple(t ** j for j in range(n))
            at_point = {facet: _det([self.rays[i] for i in facet] + [point])
                        for facet in opposite}
            if all(at_point.values()):
                break
        inside = sum(all((at_point[facet] > 0) == (side[facet, v] > 0) for facet, v in facets)
                     for facets in cone_facets)
        if inside != 1:
            reason = "fan is not complete" if inside == 0 else "maximal cones overlap"
            raise FanError(
                f"generic point {point} lies in {inside} maximal cones (needs 1): {reason}")

    def __repr__(self):
        return f"Fan(rank {self.rank}, {len(self.rays)} rays, {len(self.maximal_cones)} cones)"


@dataclass
class QDivisor:
    """Rational coefficients on every ray of a fan."""

    coefficients: dict[int, Fraction]

    def __post_init__(self):
        self.coefficients = {int(i): Fraction(v) for i, v in self.coefficients.items()}

    @classmethod
    def zero(cls, fan: Fan) -> "QDivisor":
        return cls({i: Fraction(0) for i in range(len(fan.rays))})

    def floor(self) -> dict[int, int]:
        return {i: floor(v) for i, v in sorted(self.coefficients.items())}

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coefficients.values())


def _components(rays: frozenset[int], edges: set[tuple[int, int]]) -> int:
    """Connected components of the 1-skeleton restricted to ``rays``, by
    union-find over the edges with both ends among them."""
    parent = {v: v for v in rays}

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    components = len(rays)
    for a, b in edges:
        if a in parent and b in parent:
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[ra] = rb
                components -= 1
    return components


def _chamber_cohomology(fan: Fan, violating: frozenset[int]) -> dict[int, int]:
    """Nonzero reduced cohomology of the subcomplex of the fan's sphere
    spanned by the rays in ``violating``, by degree (-1 holds the empty
    complex), from component counts as in the module docstring."""
    if not violating:
        return {-1: 1}
    if len(violating) == len(fan.rays):
        return {fan.rank - 1: 1}
    out = {0: _components(violating, fan.edges) - 1}
    if fan.rank == 3:
        out[1] = _components(frozenset(range(len(fan.rays))) - violating, fan.edges) - 1
    return {q: dim for q, dim in out.items() if dim}


def character_box(fan: Fan, divisor: dict[int, int]) -> list[tuple[int, int]]:
    """Bounding box containing every character with a nonzero contribution:
    the chamber vertices solve n x n ray subsystems with rhs -a_k + s_k,
    s_k in {0, -1}.  By Cramer's rule vertex coordinate j is
    sum_k rhs_k C_kj / det, with C the cofactors of the subsystem; only its
    floor and ceiling enter, and both are monotone in the numerator, so the
    extremes over the 2^n sign vectors come from the numerator's extremes
    base + sum_k min(0, -C_kj) and base + sum_k max(0, -C_kj), with
    base = -sum_k a_k C_kj (their roles swap when det < 0)."""
    n = fan.rank
    lo = [0] * n
    hi = [0] * n
    for subset in combinations(range(len(fan.rays)), n):
        rows = [fan.rays[i] for i in subset]
        cof = [[(-1) ** (k + j)
                * _det([r[:j] + r[j + 1:] for i, r in enumerate(rows) if i != k])
                for j in range(n)] for k in range(n)]
        det = sum(a * c for a, c in zip(rows[0], cof[0]))
        if det == 0:
            continue
        for j in range(n):
            column = [cof[k][j] for k in range(n)]
            base = -sum(divisor[i] * c for i, c in zip(subset, column))
            least = base + sum(-c for c in column if c > 0)
            most = base + sum(-c for c in column if c < 0)
            if det < 0:
                least, most = most, least
            lo[j] = min(lo[j], least // det)
            hi[j] = max(hi[j], -(-most // det))
    return [(lo[j] - 1, hi[j] + 1) for j in range(n)]


def sweep_rows(box: list[tuple[int, int]]) -> int:
    """Rows swept by ``divisor_cohomology`` over a character box: the product
    of its first n - 1 side lengths."""
    return prod(hi - lo + 1 for lo, hi in box[:-1])


def divisor_cohomology(fan: Fan, divisor: dict[int, int],
                       box: Optional[list[tuple[int, int]]] = None) -> dict[int, int]:
    """h^q(X_Sigma, O(D)) for an integral divisor D = sum a_i D_i, by the
    event walk of the module docstring over ``box``
    (``character_box(fan, divisor)`` unless the caller has it already).
    With m_1..m_{n-1} fixed, <m, v> < -a_v reads m_n v_n < c: it holds for
    m_n below the cut ceil(c / v_n) when v_n > 0, from the cut
    floor(c / v_n) + 1 on when v_n < 0, and for all m_n or none when
    v_n = 0.  Chambers are bitmasks of violated rays (bit i for ray i)."""
    if set(divisor) != set(range(len(fan.rays))):
        raise FanError("divisor must be defined on every ray")
    if box is None:
        box = character_box(fan, divisor)
    first, stop = box[-1][0], box[-1][1] + 1
    rays = [(1 << i, ray[:-1], ray[-1], -divisor[i]) for i, ray in enumerate(fan.rays)]
    characters: dict[int, int] = {}   # chamber -> characters in it
    for prefix in product(*[range(lo, hi + 1) for lo, hi in box[:-1]]):
        chamber = 0   # the rays violated at m_n = first
        events = []   # (cut, bit): ray bit flips at m_n = cut inside the row
        for bit, head, vn, c in rays:
            for x, v in zip(prefix, head):
                c -= x * v
            if vn > 0:
                cut = -(-c // vn)
                if cut > first:
                    chamber |= bit
                    if cut < stop:
                        events.append((cut, bit))
            elif vn < 0:
                cut = c // vn + 1
                if cut <= first:
                    chamber |= bit
                elif cut < stop:
                    events.append((cut, bit))
            elif c > 0:
                chamber |= bit
        at = first
        for cut, bit in sorted(events):
            if cut > at:
                characters[chamber] = characters.get(chamber, 0) + cut - at
                at = cut
            chamber ^= bit
        characters[chamber] = characters.get(chamber, 0) + stop - at
    out = {q: 0 for q in range(fan.rank + 1)}
    for chamber, length in characters.items():
        violating = frozenset(i for i in range(len(rays)) if chamber >> i & 1)
        for q_tilde, dim in _chamber_cohomology(fan, violating).items():
            out[q_tilde + 1] += length * dim
    return out


@dataclass
class LogHodgeTable:
    """Dimensions h^q of the twisted logarithmic p-forms, indexed by (p, q)."""

    rank: int
    entries: dict[tuple[int, int], int]
    weight_tag: str

    def __post_init__(self):
        for (p, q), v in self.entries.items():
            if v < 0 or p > self.rank or q > self.rank:
                raise FanError(f"invalid log Hodge entry at {(p, q)}: {v}")

    def entry(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "variety": "fan",
            "weight": self.weight_tag,
            "entries": {f"{p},{q}": v for (p, q), v in sorted(self.entries.items()) if v},
        }


def log_hodge_numbers(fan: Fan, twist: QDivisor) -> LogHodgeTable:
    """Entry (p, q) = C(n, p) * h^q(O(floor(twist))); twist zero gives the
    first-page table of the full-boundary toric triple."""
    return log_hodge_table(fan.rank, twist, divisor_cohomology(fan, twist.floor()))


def log_hodge_table(n: int, twist: QDivisor, h: dict[int, int]) -> LogHodgeTable:
    """The table of ``log_hodge_numbers`` from h = h^q(O(floor(twist)))."""
    entries = {}
    for p in range(n + 1):
        for q in range(n + 1):
            value = comb(n, p) * h.get(q, 0)
            if value:
                entries[(p, q)] = value
    weight_tag = "zero" if twist.is_zero() else \
        "+".join(f"{v}*D{i}" for i, v in sorted(twist.coefficients.items()) if v != 0)
    return LogHodgeTable(n, entries, weight_tag)


@dataclass
class E1SumCheck:
    per_degree: dict[int, tuple[int, int, bool]]   # k -> (sum, expected, ok)
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "per_degree": {str(k): {"sum": s, "expected": e, "pass": ok}
                           for k, (s, e, ok) in sorted(self.per_degree.items())},
            "pass": self.passed,
        }


def e1_sum_check(table: LogHodgeTable) -> E1SumCheck:
    """Degeneration bookkeeping: for the untwisted full boundary the totals
    along anti-diagonals must equal the torus Betti numbers C(n, k)."""
    n = table.rank
    per_degree = {}
    ok_all = True
    for k in range(n + 1):
        total = sum(table.entry(p, k - p) for p in range(k + 1))
        expected = comb(n, k)
        ok = total == expected
        ok_all = ok_all and ok
        per_degree[k] = (total, expected, ok)
    return E1SumCheck(per_degree, ok_all)


# standard test fans


def projective_line() -> Fan:
    return Fan([(1,), (-1,)], [(0,), (1,)])


def projective_plane() -> Fan:
    return Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def hirzebruch(a: int) -> Fan:
    return Fan([(1, 0), (0, 1), (-1, a), (0, -1)],
               [(0, 1), (1, 2), (2, 3), (3, 0)])
