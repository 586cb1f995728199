"""Truncated multigraded models of forms on (C^n, {z_1 ... z_r = 0}).

All three flavors (holomorphic, logarithmic, Laurent) are realized in one
common frame: generators are pairs (S, a) standing for z^a times the wedge
of dz_i/z_i for i in S with i <= r and dz_j for j in S with j > r.  In this
frame the differential

    d(z^a frame_S) = sum over j not in S of
        sign(S, j) * a_j * z^(a - e_j if j > r else a) frame_{S u {j}}

preserves the multidegree mu with mu_i = a_i for i <= r and
mu_j = a_j + [j in S] for j > r, so every computation splits into finite
blocks indexed by mu.  Truncation keeps exactly the multidegrees whose block
is complete inside the exponent window; the differential never leaves such a
block, which is what makes the truncated cohomology trustworthy.

The obstruction of a flavor is the cone of its inclusion into the Laurent
model (the localization at z_1 ... z_r).  The same group is recomputed by
assembling, over the nerve of the boundary components, the local cohomology
supported on each partial intersection (a Cech / Mayer-Vietoris total
complex); agreement of the two routes is recorded in the report.

The form complexes and every complex of the assembly come from
``complexes._total_complex``, the builder of every complex on a keyed basis:
basis keys by degree plus a direction rule listing the signed arrows out of a
key.  The form rule sends S to S u {j} with sign * a_j, the Cech rule sends a
localization T <= I to T u {j}; total complexes compose them with the usual
signs.  The direct cone shares none of this: it is ``complexes.mapping_cone``
of ``block_inclusion``.

Blocks are computed once per sign class.  At a reliable multidegree mu the
form arrow from S to S u {j} carries sign(S, j) * mu_j (the exponent a_j is
mu_j whenever j is not in S) and exists only when mu_j != 0.  In the basis
f_S = (product of mu_i over i in S with mu_i != 0) * e_S it carries
sign(S, j) alone.  Basis membership depends only on the signs of the mu_i:
the lower bounds compare a_i with 0 or 1, and a_i = mu_i - [i in S] for
i > r, while |a_i| <= window holds throughout a reliable block.  The Cech,
nerve and inclusion arrows keep S, so the rescaling leaves them unchanged.
Every block at mu (form, cone, Cech, Mayer-Vietoris) is therefore
diagonally conjugate to the block at sign(mu), whose entries lie in
{-1, 0, 1}; sign(mu) is itself a reliable Laurent multidegree for every
window >= 1.  ``obstruction_cone`` and ``assemble_stalk`` build one block
per sign class and read the dimensions at each mu off it, so their work is a
cheap enumeration of the multidegrees plus at most 3^r * 2^(n-r) blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .complexes import ChainMap, CochainComplex, _total_complex, cohomology_dims, mapping_cone
from .linalg import RationalMatrix

HOLOMORPHIC = "holomorphic"
LOGARITHMIC = "logarithmic"
LAURENT = "laurent"
FLAVORS = (HOLOMORPHIC, LOGARITHMIC, LAURENT)


class LocalModelError(ValueError):
    pass


@dataclass(frozen=True)
class LocalModel:
    """(C^n, {z_1...z_r = 0}) with exponents truncated to |a_i| <= window."""

    n: int
    r: int
    window: int

    def __post_init__(self):
        if not (0 <= self.r <= self.n):
            raise LocalModelError(f"need 0 <= r <= n, got r={self.r}, n={self.n}")
        if self.n < 1:
            raise LocalModelError("ambient dimension must be at least 1")
        if self.window < 1:
            raise LocalModelError("window must be at least 1")


Mu = tuple[int, ...]
Subset = tuple[int, ...]   # sorted coordinate indices, 1-based
Column = list[tuple[Subset, Subset]]   # Cech positions (T, S) of one support subset I


def _exponent(model: LocalModel, s: Subset, mu: Mu) -> tuple[int, ...]:
    return tuple(mu[i - 1] if i <= model.r else mu[i - 1] - (1 if i in s else 0)
                 for i in range(1, model.n + 1))


def _flavor_allows(model: LocalModel, flavor: str, s: Subset,
                   a: tuple[int, ...], localized: frozenset[int] = frozenset()) -> bool:
    """Exponent constraints in the common frame; ``localized`` coordinates
    (from a Cech localization) carry no lower bound."""
    for i in range(1, model.n + 1):
        ai = a[i - 1]
        if abs(ai) > model.window:
            return False
        if i in localized and i <= model.r:
            continue
        if i <= model.r:
            if flavor == LAURENT:
                continue
            if flavor == LOGARITHMIC and ai < 0:
                return False
            if flavor == HOLOMORPHIC:
                if ai < (1 if i in s else 0):
                    return False
        else:
            if ai < 0:
                return False
    return True


def reliable_multidegrees(model: LocalModel, flavor: str) -> Iterator[Mu]:
    """Multidegrees whose block lies entirely inside the window."""
    lo = -model.window if flavor == LAURENT else 0
    return product(*(range(lo if i <= model.r else 0, model.window + 1)
                     for i in range(1, model.n + 1)))


V = TypeVar("V")


def _by_sign_class(model: LocalModel, compute: Callable[[Mu], V]) -> Iterator[tuple[Mu, V]]:
    """(mu, compute(sign(mu))) for every reliable Laurent multidegree mu, in
    order; ``compute`` runs once per sign class (module docstring)."""
    by_class: dict[Mu, V] = {}
    for mu in reliable_multidegrees(model, LAURENT):
        cls = tuple((m > 0) - (m < 0) for m in mu)
        if cls not in by_class:
            by_class[cls] = compute(cls)
        yield mu, by_class[cls]


def _sign_insert(s: Subset, j: int) -> int:
    return (-1) ** sum(1 for i in s if i < j)


def block_basis(model: LocalModel, flavor: str, mu: Mu, p: int,
                localized: frozenset[int] = frozenset()) -> list[Subset]:
    return [s for s in combinations(range(1, model.n + 1), p)
            if _flavor_allows(model, flavor, s, _exponent(model, s, mu), localized)]


def _form_arrows(model: LocalModel, mu: Mu, s: Subset) -> Iterator[tuple[Subset, int]]:
    """The form differential out of z^a frame_S at multidegree mu."""
    a = _exponent(model, s, mu)
    for j in range(1, model.n + 1):
        if j not in s and a[j - 1] != 0:
            yield tuple(sorted(s + (j,))), _sign_insert(s, j) * a[j - 1]


def _cech_arrows(i_set: Subset, t: Subset) -> Iterator[tuple[Subset, int]]:
    """The Cech differential out of the localization at T <= I."""
    for j in i_set:
        if j not in t:
            yield tuple(sorted(t + (j,))), _sign_insert(t, j)


def block_complex(model: LocalModel, flavor: str, mu: Mu) -> CochainComplex:
    """The multidegree-mu block of the flavor's form complex, degrees 0..n."""
    return _total_complex({p: block_basis(model, flavor, mu, p) for p in range(model.n + 1)},
                          lambda s: _form_arrows(model, mu, s))


def block_inclusion(model: LocalModel, source_flavor: str, mu: Mu) -> ChainMap:
    """Inclusion of a flavor block into the Laurent block at the same mu."""
    if source_flavor not in (HOLOMORPHIC, LOGARITHMIC):
        raise LocalModelError(f"source flavor must be holomorphic or logarithmic, "
                              f"got {source_flavor!r}")
    src = block_complex(model, source_flavor, mu)
    tgt = block_complex(model, LAURENT, mu)
    components = {}
    for p in range(model.n + 1):
        tindex = {s: i for i, s in enumerate(block_basis(model, LAURENT, mu, p))}
        entries = {(tindex[s], col): 1
                   for col, s in enumerate(block_basis(model, source_flavor, mu, p))}
        components[p] = RationalMatrix(tgt.dim(p), src.dim(p), entries)
    return ChainMap(src, tgt, components)


# ---------------------------------------------------------------------------
# obstruction stalk: direct cone and Mayer-Vietoris assembly
# ---------------------------------------------------------------------------


@dataclass
class ObstructionStalkReport:
    model: LocalModel
    source_flavor: str
    direct: dict[int, int]
    direct_by_multidegree: dict[int, dict[Mu, int]]
    per_subset: Optional[dict[Subset, dict[int, int]]] = None
    assembled: Optional[dict[int, int]] = None
    assembled_by_multidegree: Optional[dict[int, dict[Mu, int]]] = None
    matches: Optional[bool] = None

    def to_json_dict(self) -> dict:
        def mu_map(by_mu):
            return {str(p): {",".join(map(str, mu)): d for mu, d in sorted(m.items())}
                    for p, m in sorted(by_mu.items())}

        out = {
            "model": {"n": self.model.n, "r": self.model.r, "window": self.model.window},
            "source_flavor": self.source_flavor,
            "direct": {str(p): d for p, d in sorted(self.direct.items())},
            "direct_by_multidegree": mu_map(self.direct_by_multidegree),
        }
        if self.assembled is not None:
            out["assembled"] = {str(p): d for p, d in sorted(self.assembled.items())}
            out["assembled_by_multidegree"] = mu_map(self.assembled_by_multidegree or {})
            out["per_subset"] = {
                ",".join(map(str, i_set)): {str(p): d for p, d in sorted(m.items())}
                for i_set, m in sorted((self.per_subset or {}).items())}
            out["matches"] = self.matches
        return out


def obstruction_cone(model: LocalModel, source_flavor: str) -> ObstructionStalkReport:
    """Cone of (flavor -> Laurent) blockwise, one cone per sign class; H dims
    per degree and multidegree."""
    direct: dict[int, int] = {p: 0 for p in range(model.n + 1)}
    by_mu: dict[int, dict[Mu, int]] = {}
    cones = _by_sign_class(model, lambda cls: cohomology_dims(
        mapping_cone(block_inclusion(model, source_flavor, cls))))
    for mu, dims in cones:
        for p, dim in dims.items():
            if dim == 0:
                continue
            direct[p] = direct.get(p, 0) + dim
            by_mu.setdefault(p, {})[mu] = dim
    return ObstructionStalkReport(model, source_flavor, direct, by_mu)


# Cech positions: localizations of the module at subsets T of some I <= {1..r}


def _cech_column(model: LocalModel, flavor: str, i_set: Subset, mu: Mu) -> Column:
    """Basis (T, S) of the Cech complex of the localized form complex at mu."""
    return [(t, s) for size in range(len(i_set) + 1) for t in combinations(i_set, size)
            for p in range(model.n + 1)
            for s in block_basis(model, flavor, mu, p, frozenset(t))]


def _cech_form_arrows(model: LocalModel, mu: Mu, i_set: Subset, t: Subset,
                      s: Subset) -> Iterator[tuple[tuple[Subset, Subset], int]]:
    """Arrows out of (T, S) in the totalized Cech complex of I:
    d_form + (-1)^{|S|} cech."""
    for s2, c in _form_arrows(model, mu, s):
        yield (t, s2), c
    sign = (-1) ** len(s)
    for t2, c in _cech_arrows(i_set, t):
        yield (t2, s), sign * c


def koszul_local_cohomology(model: LocalModel, i_set: Sequence[int], p: int) -> dict[Mu, int]:
    """Graded dims of H^{|I|} with support (z_i : i in I) of the logarithmic
    p-forms, inside the window.

    The p-forms are free over the coordinate ring, so the grading here is by
    the coefficient exponent a (the frames contribute C(n, p) copies per
    exponent and do not shift the grading).  Computed two ways: the Cech
    cochain complex on {z_i != 0, i in I}, and the closed-form stable-Koszul
    count (one class per frame at every a with a_i <= -1 exactly on I and
    a_j >= 0 off I); the two must agree, and the Cech cohomology must be
    concentrated in degree |I|.  The Cech complex at a depends only on the
    set of i with a_i < 0, so it is built once per such set (at most 2^|I|).
    """
    i_set = tuple(sorted(set(int(i) for i in i_set)))
    if not i_set:
        raise LocalModelError("subset I must be nonempty")
    if any(i < 1 or i > model.r for i in i_set):
        raise LocalModelError(f"subset {i_set} is not contained in 1..r={model.r}")
    if not (0 <= p <= model.n):
        raise LocalModelError(f"form degree {p} out of range 0..{model.n}")
    s_card = len(i_set)
    frames = list(combinations(range(1, model.n + 1), p))
    out: dict[Mu, int] = {}
    by_negative: dict[Subset, int] = {}
    ranges = [range(-model.window if i in i_set else 0, model.window + 1)
              for i in range(1, model.n + 1)]
    for a in product(*ranges):
        # Cech route: positions (T, frame) with T <= I; the monomial z^a is
        # present at T iff T frees every coordinate with a_i < 0
        negative = tuple(i for i in range(1, model.n + 1) if a[i - 1] < 0)
        if negative not in by_negative:
            basis: dict[int, list[tuple[Subset, Subset]]] = {d: [] for d in range(s_card + 1)}
            for size in range(s_card + 1):
                for t in combinations(i_set, size):
                    if set(negative) <= set(t):
                        basis[size].extend((t, s) for s in frames)
            coh = cohomology_dims(_total_complex(
                basis, lambda key: (((t2, key[1]), c) for t2, c in _cech_arrows(i_set, key[0]))))
            for d, v in coh.items():
                if d != s_card and v:
                    raise LocalModelError(
                        "internal: local cohomology not concentrated in degree |I|")
            by_negative[negative] = coh.get(s_card, 0)
        cech_dim = by_negative[negative]
        # stable-Koszul closed form
        valid = all(a[i - 1] <= -1 for i in i_set) and \
            all(a[j - 1] >= 0 for j in range(1, model.n + 1) if j not in i_set)
        count = len(frames) if valid else 0
        if cech_dim != count:
            raise LocalModelError(
                f"Cech and Koszul-dual counts disagree at exponent {a}: "
                f"{cech_dim} vs {count}")
        if cech_dim:
            out[a] = cech_dim
    return dict(sorted(out.items()))


def _cech_columns(model: LocalModel, flavor: str, mu: Mu) -> dict[Subset, Column]:
    """``_cech_column`` for every nonempty I <= {1..r}."""
    return {i_set: _cech_column(model, flavor, i_set, mu)
            for size in range(1, model.r + 1)
            for i_set in combinations(range(1, model.r + 1), size)}


def _mv_total_block(model: LocalModel, mu: Mu, columns: dict[Subset, Column]) -> CochainComplex:
    """Total complex over the nerve of the boundary components, on the Cech
    ``columns`` of every I:

        position (I, T, S), total degree |S| + |T| - |I| + 1,
        D = d_form + (-1)^{|S|} cech + (-1)^{|S|+|T|} nerve-restriction.
    """
    basis: dict[int, list[tuple[Subset, Subset, Subset]]] = {}
    for i_set, column in columns.items():
        for t, s in column:
            basis.setdefault(len(s) + len(t) - len(i_set) + 1, []).append((i_set, t, s))

    def arrows(key):
        i_set, t, s = key
        for (t2, s2), c in _cech_form_arrows(model, mu, i_set, t, s):
            yield (i_set, t2, s2), c
        # nerve direction (restriction to smaller I)
        sign = (-1) ** (len(s) + len(t))
        for j in i_set:
            if j not in t and len(i_set) > 1:
                i2 = tuple(x for x in i_set if x != j)
                yield (i2, t, s), sign * _sign_insert(i2, j)

    return _total_complex(basis, arrows)


def _subset_total_block(model: LocalModel, i_set: Subset, mu: Mu,
                        column: Column) -> CochainComplex:
    """Totalized Cech complex of one support subset I on its Cech ``column``
    (degrees |S| + |T|)."""
    basis: dict[int, list[tuple[Subset, Subset]]] = {}
    for t, s in column:
        basis.setdefault(len(s) + len(t), []).append((t, s))
    return _total_complex(basis, lambda key: _cech_form_arrows(model, mu, i_set, *key))


def assemble_stalk(model: LocalModel, source_flavor: str) -> ObstructionStalkReport:
    """Mayer-Vietoris assembly of the obstruction stalk, with the direct cone
    computed alongside and compared degree by degree and multidegree by
    multidegree.  The total block and the per-subset blocks are built once
    per sign class, on one set of Cech columns."""
    report = obstruction_cone(model, source_flavor)
    if model.r == 0:
        # no boundary: the nerve is empty and so is the obstruction
        report.per_subset = {}
        report.assembled = {p: 0 for p in range(model.n + 1)}
        report.assembled_by_multidegree = {}
        report.matches = report.assembled == report.direct
        return report

    def blocks(cls: Mu) -> tuple[dict[int, int], dict[Subset, dict[int, int]]]:
        columns = _cech_columns(model, source_flavor, cls)
        return (cohomology_dims(_mv_total_block(model, cls, columns)),
                {i_set: cohomology_dims(_subset_total_block(model, i_set, cls, column))
                 for i_set, column in columns.items()})

    assembled: dict[int, int] = {p: 0 for p in range(model.n + 1)}
    assembled_by_mu: dict[int, dict[Mu, int]] = {}
    per_subset: dict[Subset, dict[int, int]] = {}
    for mu, (total, subsets) in _by_sign_class(model, blocks):
        for k, dim in total.items():
            if dim == 0:
                continue
            p = k - 1   # cone degree p corresponds to assembled degree p + 1
            assembled[p] = assembled.get(p, 0) + dim
            assembled_by_mu.setdefault(p, {})[mu] = dim
        for i_set, dims in subsets.items():
            for k, dim in dims.items():
                if dim == 0:
                    continue
                p = k - len(i_set)   # contribution H^{p + |I|} at degree p
                slot = per_subset.setdefault(i_set, {})
                slot[p] = slot.get(p, 0) + dim
    report.per_subset = dict(sorted(per_subset.items()))
    report.assembled = assembled
    report.assembled_by_multidegree = assembled_by_mu
    same_totals = all(assembled.get(p, 0) == report.direct.get(p, 0)
                      for p in set(assembled) | set(report.direct))
    same_graded = report.assembled_by_multidegree == report.direct_by_multidegree
    report.matches = same_totals and same_graded
    return report
