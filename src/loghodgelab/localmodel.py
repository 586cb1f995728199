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

Blocks are computed once per orbit of sign classes.  At a reliable
multidegree mu the form arrow from S to S u {j} carries sign(S, j) * mu_j (the
exponent a_j is mu_j whenever j is not in S) and exists only when mu_j != 0.
In the basis f_S = (product of mu_i over i in S with mu_i != 0) * e_S it
carries sign(S, j) alone.  Basis membership depends only on the signs of the
mu_i: the lower bounds compare a_i with 0 or 1, and a_i = mu_i - [i in S] for
i > r.  The Cech, nerve and inclusion arrows keep S, so the rescaling leaves
them unchanged.  Every block at mu (form, quotient, Cech, Mayer-Vietoris) is
therefore diagonally conjugate to the block at sign(mu), whose entries lie in
{-1, 0, 1}; sign(mu) is itself a reliable Laurent multidegree for every
window >= 1.  A class's size, the number of multidegrees in it, is window to
the number of nonzero signs.

A permutation sigma of z_1..z_r among themselves and of z_{r+1}..z_n among
themselves leaves the pair and both flavors unchanged, and relabelling the
coordinates by sigma carries every block at a class c, with the frames S,
localizations T and subsets I in it, onto the block at sigma(c), up to the
signs of the relabelled wedges.  So the 3^r * 2^(n-r) classes fall into
C(r+2, 2) * (n-r+1) orbits (10 against 27 at n = r = 3), each with a
representative sorted within each coordinate block.  ``obstruction_cone``
and ``assemble_stalk`` compute both routes at the representative alone and
tally every class of its orbit: totals are size times the class's
dimensions, multidegrees are listed only where the cohomology is nonzero,
and subset I's entries at the representative are subset sigma(I)'s at
sigma(c).  Their work does not grow with the window.

At a representative each complex is built once, from its own keys.  The
flavor's keys are a subset of the Laurent keys and span a subcomplex, so the
cone of the inclusion is quasi-isomorphic to the quotient (Weibel, An
Introduction to Homological Algebra, 1.5): the form differential on the
Laurent keys outside the flavor, whose arrows into the flavor the builder
drops.  That
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

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import comb

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
Orbit = list[tuple[Mu, tuple[int, ...]]]   # (sign class, permutation) pairs


def _exponent(model: LocalModel, s: Subset, mu: Mu) -> tuple[int, ...]:
    return tuple(mu[i - 1] if i <= model.r else mu[i - 1] - (1 if i in s else 0)
                 for i in range(1, model.n + 1))


def _flavor_allows(model: LocalModel, flavor: str, s: Subset,
                   a: tuple[int, ...], localized: frozenset[int] = frozenset()) -> bool:
    """Exponent constraints in the common frame; ``localized`` coordinates
    (from a Cech localization) carry no lower bound.  There is no upper bound
    |a_i| <= window: every caller passes a reliable multidegree mu (in this
    module a sign class, entries in {-1, 0, 1}), where a_i is mu_i or
    mu_i - 1 >= -1 with mu_i >= 0, so |a_i| <= max(|mu_i|, 1) <= window."""
    for i in range(1, model.n + 1):
        ai = a[i - 1]
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


def _block_orbits(signs: Mu, first: int, count: int) -> list[tuple[Mu, Orbit]]:
    """Every sorted block of ``count`` signs on the coordinates first,
    first + 1, ..., with its distinct rearrangements, each with the
    permutation sigma that carries the block onto it: sigma[i] is the image
    of coordinate first + i.  A rearrangement's stable argsort sorts it, so
    sigma is that argsort moved to the coordinates; the sorted block comes
    first in ``product`` order, with the identity."""
    orbits: dict[Mu, Orbit] = {}
    for cls in product(signs, repeat=count):
        order = sorted(range(count), key=cls.__getitem__)
        orbits.setdefault(tuple(cls[i] for i in order), []).append(
            (cls, tuple(first + i for i in order)))
    return list(orbits.items())


def _sign_classes(model: LocalModel) -> Iterator[tuple[Mu, int, Orbit]]:
    """(representative, size, orbit) for every orbit of the sign classes of
    the reliable Laurent multidegrees under the permutations of z_1..z_r and
    of z_{r+1}..z_n.  A class is a multidegree with entries in {-1, 0, 1}; its
    size, the number of multidegrees in it, is window to the number of
    nonzero signs, the same across an orbit.  The representative is sorted
    within each coordinate block, and the orbit lists each of its classes once
    with a permutation sigma, class[sigma[i - 1] - 1] = representative[i - 1]."""
    r = model.r
    highs = _block_orbits((0, 1), r + 1, model.n - r)
    for low, lows in _block_orbits((-1, 0, 1), 1, r):
        for high, rearranged in highs:
            yield (low + high, model.window ** (r - low.count(0) + high.count(1)),
                   [(low_cls + high_cls, low_sigma + high_sigma)
                    for low_cls, low_sigma in lows for high_cls, high_sigma in rearranged])


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
    per_subset: dict[Subset, dict[int, int]] | None = None
    assembled: dict[int, int] | None = None
    assembled_by_multidegree: dict[int, dict[Mu, int]] | None = None
    matches: bool | None = None

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


def _tally(model: LocalModel, orbit: Orbit, size: int,
           dims: dict[int, int], shift: int, totals: dict[int, int],
           by_mu: dict[int, dict[Mu, int]]) -> None:
    """Add the cohomology ``dims`` of an orbit's representative at degree
    k - ``shift`` to every class of the orbit: size times each dimension per
    class to ``totals``, and each multidegree of each class to ``by_mu``."""
    for k, dim in dims.items():
        if dim:
            p = k - shift
            totals[p] = totals.get(p, 0) + len(orbit) * size * dim
            entries = by_mu.setdefault(p, {})
            for cls, _ in orbit:
                entries.update(dict.fromkeys(_class_multidegrees(model, cls), dim))


def obstruction_cone(model: LocalModel, source_flavor: str,
                     orbits: list[tuple[Mu, int, Orbit]] | None = None
                     ) -> ObstructionStalkReport:
    """Cone of (flavor -> Laurent) blockwise, as the quotient block of each
    orbit's representative sign class; H dims per degree and multidegree.
    ``orbits``, when given, is ``list(_sign_classes(model))``."""
    if source_flavor not in (HOLOMORPHIC, LOGARITHMIC):
        raise LocalModelError(
            f"source flavor must be holomorphic or logarithmic, got {source_flavor!r}")
    direct: dict[int, int] = {p: 0 for p in range(model.n + 1)}
    by_mu: dict[int, dict[Mu, int]] = {}
    for rep, size, orbit in orbits or _sign_classes(model):
        dims = cohomology_dims(_quotient_block(model, source_flavor, rep))
        _tally(model, orbit, size, dims, 0, direct, by_mu)
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
    and the Cech and nerve moves once per (I, T).  Every T <= {1..r} lies in
    I = {1..r} when r > 0; when r = 0 there is no I, so no frame is needed."""
    coords = tuple(range(1, model.r + 1))
    frames = {t: [s for p in range(model.n + 1)
                  for s in block_basis(model, flavor, mu, p, frozenset(t))]
              for t in (_subsets(coords) if coords else ())}
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
    multidegree.  Per orbit, one total complex at the representative; each
    subset I's cohomology is read off its I-to-I diagonal blocks, one rank per
    degree, and is subset sigma(I)'s at each class of the orbit."""
    orbits = list(_sign_classes(model))
    report = obstruction_cone(model, source_flavor, orbits)
    assembled: dict[int, int] = {p: 0 for p in range(model.n + 1)}
    assembled_by_mu: dict[int, dict[Mu, int]] = {}
    per_subset: dict[Subset, dict[int, int]] = {}
    for rep, size, orbit in orbits:
        basis, arrows = _mv_total_block(model, source_flavor, rep)
        for keys in basis.values():
            keys.sort()   # the builder's order, so positions below are its rows
        total = _total_complex(basis, arrows)
        # cone degree p corresponds to assembled degree p + 1
        _tally(model, orbit, size, cohomology_dims(total), 1, assembled, assembled_by_mu)
        # positions of I's keys in each total degree k
        positions: dict[Subset, dict[int, list[int]]] = {}
        for k, keys in basis.items():
            for pos, key in enumerate(keys):
                positions.setdefault(key[0], {}).setdefault(k, []).append(pos)
        at_rep: dict[Subset, dict[int, int]] = {}
        for i_set, by_degree in positions.items():
            ranks = {}
            for k, cols in by_degree.items():
                rows = by_degree.get(k + 1, [])
                if len(cols) == total.dim(k) and len(rows) == total.dim(k + 1):
                    # I holds every key on both sides (always at r = 1): the
                    # block is d_k itself
                    ranks[k] = total.ranks.get(k, 0)
                    continue
                block = total.differential(k).submatrix_rows(rows).submatrix_columns(cols)
                ranks[k] = 0 if block.is_zero() else rank(block)
            for k, cols in by_degree.items():
                dim = len(cols) - ranks[k] - ranks.get(k - 1, 0)
                if dim:
                    # I's own degree is k + |I| - 1, which holds H^{p + |I|} at p = k - 1
                    at_rep.setdefault(i_set, {})[k - 1] = size * dim
        for _, sigma in orbit:
            for i_set, dims in at_rep.items():
                if len(orbit) > 1:   # a one-class orbit's sigma is the identity
                    i_set = tuple(sorted(sigma[i - 1] for i in i_set))
                slot = per_subset.setdefault(i_set, {})
                for p, dim in dims.items():
                    slot[p] = slot.get(p, 0) + dim
    report.per_subset = dict(sorted(per_subset.items()))
    report.assembled = assembled
    report.assembled_by_multidegree = assembled_by_mu
    # each total is the sum of its degree's multidegree entries
    report.matches = assembled_by_mu == report.direct_by_multidegree
    return report
