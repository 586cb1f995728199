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

The form blocks, their quotients and the Mayer-Vietoris complexes come from
``complexes._total_complex``, the builder of every complex on a keyed basis:
basis keys by degree plus a direction rule listing the signed arrows out of a
key.  The form rule sends S to S u {j} with sign * a_j, the Cech rule sends a
localization T <= I to T u {j}; total complexes compose them with the usual
signs.

Blocks are computed once per sign class.  At a reliable multidegree mu the
form arrow from S to S u {j} carries sign(S, j) * mu_j (the exponent a_j is
mu_j whenever j is not in S) and exists only when mu_j != 0.  In the basis
f_S = (product of mu_i over i in S with mu_i != 0) * e_S it carries
sign(S, j) alone.  Basis membership depends only on the signs of the mu_i:
the lower bounds compare a_i with 0 or 1, and a_i = mu_i - [i in S] for
i > r, while |a_i| <= window holds throughout a reliable block.  The Cech,
nerve and inclusion arrows keep S, so the rescaling leaves them unchanged.
Every block at mu (form, quotient, Cech, Mayer-Vietoris) is therefore
diagonally conjugate to the block at sign(mu), whose entries lie in
{-1, 0, 1}; sign(mu) is itself a reliable Laurent multidegree for every
window >= 1.  ``obstruction_cone`` and ``assemble_stalk`` enumerate the
3^r * 2^(n-r) sign classes with their sizes (window to the number of nonzero
signs), so totals are size times the class's dimensions, and they list the
multidegrees of a class only where its cohomology is nonzero; their work
does not grow with the window.

Within a class each complex is built once, from its own keys.  The flavor's
keys are a subset of the Laurent keys and span a subcomplex, so the cone of
the inclusion is quasi-isomorphic to the quotient (Weibel, An Introduction
to Homological Algebra, 1.5): the form differential on the Laurent keys
outside the flavor, whose arrows into the flavor the builder drops.  That
the flavor keys span a subcomplex is checked on the keys (no form arrow
leaves them for another Laurent key), since the quotient alone would not
notice a flavor rule that d does not preserve.  The Mayer-Vietoris keys are
built on Cech bases computed once per (T, p) and shared by every I
containing T.  The nerve arrows are the only ones that change I, and they
only shrink it, so I's own Cech total complex is the I-to-I diagonal block
of the Mayer-Vietoris differentials, shifted in degree by |I| - 1, and its
d o d is the I-to-I block of D o D, which the total complex already checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .complexes import CochainComplex, _total_complex, cohomology_dims
from .linalg import rank

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
MVKey = tuple[Subset, Subset, Subset]   # Mayer-Vietoris position (I, T, S)


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


def _sign_classes(model: LocalModel) -> Iterator[tuple[Mu, int]]:
    """(sign class, size) for every sign class of the reliable Laurent
    multidegrees: the class is a multidegree with entries in {-1, 0, 1}, and
    its size, the number of multidegrees in it, is window to the number of
    nonzero signs."""
    signs = [(-1, 0, 1) if i <= model.r else (0, 1) for i in range(1, model.n + 1)]
    for cls in product(*signs):
        yield cls, model.window ** sum(1 for c in cls if c)


def _class_multidegrees(model: LocalModel, cls: Mu) -> Iterator[Mu]:
    """The reliable Laurent multidegrees of sign class ``cls``."""
    w = model.window
    return product(*(range(1, w + 1) if c > 0 else range(-w, 0) if c < 0 else (0,)
                     for c in cls))


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


def _subsets(coords: Sequence[int], smallest: int = 0) -> Iterator[Subset]:
    """The subsets of ``coords`` with at least ``smallest`` elements, by size."""
    return (t for size in range(smallest, len(coords) + 1) for t in combinations(coords, size))


def _quotient_block(model: LocalModel, source_flavor: str, mu: Mu) -> CochainComplex:
    """The Laurent block at mu modulo the flavor block: the form differential
    on the Laurent keys outside the flavor, once the flavor keys are checked
    to span a subcomplex."""
    laurent = [s for p in range(model.n + 1) for s in block_basis(model, LAURENT, mu, p)]
    inside = {s for s in laurent
              if _flavor_allows(model, source_flavor, s, _exponent(model, s, mu))}
    outside = set(laurent) - inside
    if any(t in outside for s in inside for t, _ in _form_arrows(model, mu, s)):
        raise LocalModelError(f"the {source_flavor} block at {mu} is not a subcomplex "
                              f"of the Laurent block")
    return _total_complex({p: [s for s in outside if len(s) == p] for p in range(model.n + 1)},
                          lambda s: _form_arrows(model, mu, s))


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


def _tally(model: LocalModel, cls: Mu, size: int, dims: dict[int, int], shift: int,
           totals: dict[int, int], by_mu: dict[int, dict[Mu, int]]) -> None:
    """Add the cohomology ``dims`` of the block of class ``cls`` at degree
    k - ``shift``: size times each dimension to ``totals``, and each
    multidegree of the class to ``by_mu``."""
    for k, dim in dims.items():
        if dim:
            p = k - shift
            totals[p] = totals.get(p, 0) + size * dim
            by_mu.setdefault(p, {}).update(dict.fromkeys(_class_multidegrees(model, cls), dim))


def obstruction_cone(model: LocalModel, source_flavor: str) -> ObstructionStalkReport:
    """Cone of (flavor -> Laurent) blockwise, as the quotient block of each
    sign class; H dims per degree and multidegree."""
    if source_flavor not in (HOLOMORPHIC, LOGARITHMIC):
        raise LocalModelError(
            f"source flavor must be holomorphic or logarithmic, got {source_flavor!r}")
    direct: dict[int, int] = {p: 0 for p in range(model.n + 1)}
    by_mu: dict[int, dict[Mu, int]] = {}
    for cls, size in _sign_classes(model):
        dims = cohomology_dims(_quotient_block(model, source_flavor, cls))
        _tally(model, cls, size, dims, 0, direct, by_mu)
    return ObstructionStalkReport(model, source_flavor, direct, by_mu)


def koszul_local_cohomology(model: LocalModel, i_set: Sequence[int], p: int) -> dict[Mu, int]:
    """Graded dims of H^{|I|} with support (z_i : i in I) of the logarithmic
    p-forms, inside the window.

    The p-forms are free over the coordinate ring, so the grading here is by
    the coefficient exponent a (the frames contribute C(n, p) copies per
    exponent and do not shift the grading).  Computed two ways: the Cech
    cochain complex on {z_i != 0, i in I}, and the closed-form stable-Koszul
    count (one class per frame at every a with a_i <= -1 exactly on I and
    a_j >= 0 off I); the two must agree, and the Cech cohomology must be
    concentrated in degree |I|.  Both depend on a only through its negative
    set {i : a_i < 0}, a subset of I inside the window, and the frames are
    C(n, p) identical copies, so they are compared once per subset of I for
    one frame; the closed form is 1 where the negative set is I and 0
    elsewhere.  The exponents negative exactly on I are then written out
    directly.
    """
    i_set = tuple(sorted(set(int(i) for i in i_set)))
    if not i_set:
        raise LocalModelError("subset I must be nonempty")
    if any(i < 1 or i > model.r for i in i_set):
        raise LocalModelError(f"subset {i_set} is not contained in 1..r={model.r}")
    if not (0 <= p <= model.n):
        raise LocalModelError(f"form degree {p} out of range 0..{model.n}")
    s_card = len(i_set)
    for negative in _subsets(i_set):
        # Cech route for one frame: positions T <= I; a monomial with this
        # negative set is present at T iff T frees every negative coordinate
        basis = {size: [t for t in combinations(i_set, size) if set(negative) <= set(t)]
                 for size in range(s_card + 1)}
        coh = cohomology_dims(_total_complex(basis, partial(_cech_arrows, i_set)))
        for d, v in coh.items():
            if d != s_card and v:
                raise LocalModelError(
                    "internal: local cohomology not concentrated in degree |I|")
        # stable-Koszul closed form
        count = 1 if negative == i_set else 0
        if coh.get(s_card, 0) != count:
            raise LocalModelError(
                f"Cech and Koszul-dual counts disagree at the exponents negative exactly "
                f"on {negative}: {coh.get(s_card, 0)} vs {count}")
    w = model.window
    exponents = product(*(range(-w, 0) if i in i_set else range(w + 1)
                          for i in range(1, model.n + 1)))
    return dict.fromkeys(exponents, comb(model.n, p))


def _mv_total_block(model: LocalModel, flavor: str, mu: Mu) -> tuple[
        dict[int, list[MVKey]], Callable[[MVKey], Iterator[tuple[MVKey, int]]]]:
    """(keys by degree, direction rule) of the total complex over the nerve of
    the boundary components, on the Cech positions of every nonempty
    I <= {1..r}:

        position (I, T, S) with T <= I and S a frame of the flavor localized
        at T, total degree |S| + |T| - |I| + 1,
        D = d_form + (-1)^{|S|} cech + (-1)^{|S|+|T|} nerve-restriction.

    The frames are computed once per (T, p), the form arrows once per frame
    and the Cech and nerve moves once per (I, T)."""
    coords = tuple(range(1, model.r + 1))
    frames = {t: [s for p in range(model.n + 1)
                  for s in block_basis(model, flavor, mu, p, frozenset(t))]
              for t in _subsets(coords)}
    forms = {s: list(_form_arrows(model, mu, s)) for t in frames for s in frames[t]}
    moves: dict[tuple[Subset, Subset], tuple[list, list]] = {}
    basis: dict[int, list[MVKey]] = {}
    for i_set in _subsets(coords, 1):
        for t in _subsets(i_set):
            smaller = [(tuple(x for x in i_set if x != j), j) for j in i_set
                       if j not in t and len(i_set) > 1]
            moves[i_set, t] = (list(_cech_arrows(i_set, t)),
                               [(i2, _sign_insert(i2, j)) for i2, j in smaller])
            for s in frames[t]:
                basis.setdefault(len(s) + len(t) - len(i_set) + 1, []).append((i_set, t, s))

    def arrows(key):
        i_set, t, s = key
        for s2, c in forms[s]:
            yield (i_set, t, s2), c
        cech, nerve = moves[i_set, t]
        sign = (-1) ** len(s)
        for t2, c in cech:
            yield (i_set, t2, s), sign * c
        # nerve direction (restriction to smaller I)
        sign *= (-1) ** len(t)
        for i2, c in nerve:
            yield (i2, t, s), sign * c

    return basis, arrows


def assemble_stalk(model: LocalModel, source_flavor: str) -> ObstructionStalkReport:
    """Mayer-Vietoris assembly of the obstruction stalk, with the direct cone
    computed alongside and compared degree by degree and multidegree by
    multidegree.  Per sign class, one total complex; each subset I's
    cohomology is read off its I-to-I diagonal blocks, one rank per degree."""
    report = obstruction_cone(model, source_flavor)
    assembled: dict[int, int] = {p: 0 for p in range(model.n + 1)}
    assembled_by_mu: dict[int, dict[Mu, int]] = {}
    per_subset: dict[Subset, dict[int, int]] = {}
    for cls, size in _sign_classes(model):
        basis, arrows = _mv_total_block(model, source_flavor, cls)
        for keys in basis.values():
            keys.sort()   # the builder's order, so positions below are its rows
        total = _total_complex(basis, arrows)
        # cone degree p corresponds to assembled degree p + 1
        _tally(model, cls, size, cohomology_dims(total), 1, assembled, assembled_by_mu)
        # positions of I's keys in each total degree k
        positions: dict[Subset, dict[int, list[int]]] = {}
        for k, keys in basis.items():
            for pos, key in enumerate(keys):
                positions.setdefault(key[0], {}).setdefault(k, []).append(pos)
        for i_set, by_degree in positions.items():
            ranks = {}
            for k, cols in by_degree.items():
                block = total.differential(k).submatrix_rows(
                    by_degree.get(k + 1, [])).submatrix_columns(cols)
                ranks[k] = 0 if block.is_zero() else rank(block)
            for k, cols in by_degree.items():
                dim = len(cols) - ranks[k] - ranks.get(k - 1, 0)
                if dim:
                    # I's own degree is k + |I| - 1, which holds H^{p + |I|} at p = k - 1
                    slot = per_subset.setdefault(i_set, {})
                    slot[k - 1] = slot.get(k - 1, 0) + size * dim
    report.per_subset = dict(sorted(per_subset.items()))
    report.assembled = assembled
    report.assembled_by_multidegree = assembled_by_mu
    # each total is the sum of its degree's multidegree entries
    report.matches = assembled_by_mu == report.direct_by_multidegree
    return report
