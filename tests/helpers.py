"""Shared generators for randomized structural tests (seeded, deterministic),
and constructions that only the tests use."""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from loghodgelab.complexes import (ChainMap, CochainComplex, FilteredComplex, FiltrationError,
                                   SpectralSequencePage, _total_complex, cohomology_dims)
from loghodgelab.conecx import ConeComplex, IntersectionData
from loghodgelab.linalg import (MatrixError, RationalMatrix, column_space_basis, contains_space,
                                kernel_basis, pivot_columns, rank)
from loghodgelab.localmodel import (FLAVORS, LAURENT, LocalModel, LocalModelError,
                                    ObstructionStalkReport, _cech_arrows, _form_arrows,
                                    _mv_total_block, _quotient_block, _tally, block_basis)
from loghodgelab.monodromy import MonodromyError
from loghodgelab.toric import Fan, FanError, QDivisor, _chamber_cohomology, _det
from loghodgelab.trop import TropError
from loghodgelab.weights import WeightFunction


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    if rows == 0 or cols == 0:
        return RationalMatrix.zeros(rows, cols)
    return RationalMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_complex(rng: random.Random, max_total_dim: int = 8) -> CochainComplex:
    """Random bounded complex with d built row-by-row inside ker(d_prev^T)."""
    n_degrees = rng.randint(1, 4)
    lo = rng.randint(-2, 2)
    dims = {}
    remaining = max_total_dim
    for k in range(lo, lo + n_degrees):
        d = rng.randint(0, min(3, remaining))
        dims[k] = d
        remaining -= d
    if all(v == 0 for v in dims.values()):
        dims[lo] = 1
    diffs = {}
    prev = None
    for k in range(lo, lo + n_degrees - 1):
        rows, cols = dims[k + 1], dims[k]
        if prev is None or prev.is_zero():
            m = random_matrix(rng, rows, cols)
        else:
            # rows of the new differential must annihilate the image of prev
            ker = kernel_basis(prev.transpose())
            if not ker.cols:
                m = RationalMatrix.zeros(rows, cols)
            else:
                m = random_matrix(rng, rows, ker.cols) * ker.transpose()
        diffs[k] = m
        prev = m
    return CochainComplex(dims, diffs)


def random_chain_map(rng: random.Random, source: CochainComplex,
                     target: CochainComplex) -> ChainMap:
    """Null-homotopic map f = d h + h d; always a chain map for random h."""
    h = {}
    lo = min(source.min_degree, target.min_degree)
    hi = max(source.max_degree, target.max_degree) + 1
    for k in range(lo, hi + 1):
        h[k] = random_matrix(rng, target.dim(k - 1), source.dim(k))
    components = {}
    for k in range(lo, hi):
        fk = target.differential(k - 1) * h[k] + h[k + 1] * source.differential(k)
        if not fk.is_zero():
            components[k] = fk
    return ChainMap(source, target, components)


def plus_identity_map(rng: random.Random, c: CochainComplex) -> ChainMap:
    """id + (d h + h d): the identity on cohomology, so not null-homotopic
    unless c is acyclic."""
    h, one = random_chain_map(rng, c, c), identity_chain_map(c)
    return ChainMap(c, c, {k: h.component(k) + one.component(k) for k in c.degrees()})


def random_filtration(rng: random.Random, c: CochainComplex, depth: int) -> FilteredComplex:
    return FilteredComplex(c, random_filtration_levels(rng, c, depth))


def random_filtration_levels(rng: random.Random, c: CochainComplex,
                             depth: int) -> list[dict[int, RationalMatrix]]:
    """Level bases F^1, ..., F^{depth-1} of a nested subcomplex filtration
    C = F^0 ⊇ F^1 ⊇ ... that is not coordinate-aligned: each random vector v
    enters at some level and dv at the same or a deeper one, so d_r can be
    nonzero for any r < depth."""
    spans = [{k: [] for k in c.degrees()} for _ in range(depth)]
    for _ in range(rng.randint(1, 3)):
        k = rng.choice(list(c.degrees()))
        if not c.dim(k):
            continue
        v = [rng.randint(-2, 2) for _ in range(c.dim(k))]
        dv = c.differential(k).apply(v)
        p_v = rng.randrange(depth)
        p_dv = rng.randint(p_v, depth - 1)
        for p in range(1, p_v + 1):
            spans[p][k].append(v)
        if any(dv):
            for p in range(1, p_dv + 1):
                spans[p][k + 1].append(dv)
    return [{k: RationalMatrix.from_columns(cols, c.dim(k)) for k, cols in spans[p].items()}
            for p in range(1, depth)]


def reference_filtration_levels(c: CochainComplex,
                                levels: list[dict[int, RationalMatrix]]) -> list[dict]:
    """The checks `FilteredComplex` made with one elimination per check, on
    the levels F^1, F^2, ... (F^0 = C): a `column_space_basis` per level and
    degree, a `contains_space` per level and degree for nesting, and a
    product and a `contains_space` per level and degree for the subcomplex
    condition, each raising at its first failure.  Returns the level bases."""
    norm = []
    for p, level in enumerate(levels, 1):
        fixed = {}
        for k in c.degrees():
            basis = level.get(k, RationalMatrix.zeros(c.dim(k), 0))
            if basis.rows != c.dim(k):
                raise FiltrationError(
                    f"level {p} basis at degree {k} has ambient dimension "
                    f"{basis.rows}, expected {c.dim(k)}")
            fixed[k] = column_space_basis(basis)
        norm.append(fixed)
    for p in range(len(norm) - 1):
        for k in c.degrees():
            if not contains_space(norm[p][k], norm[p + 1][k]):
                raise FiltrationError(f"levels not nested at level {p + 2}, degree {k}")
    for p, level in enumerate(norm, 1):
        for k in c.degrees():
            img = c.differential(k) * level[k]
            tgt = level.get(k + 1, RationalMatrix.zeros(c.dim(k + 1), 0))
            if not contains_space(tgt, img):
                raise FiltrationError(
                    f"level {p} is not a subcomplex: d(F^{p} C^{k}) is not "
                    f"contained in F^{p} C^{k + 1}")
    return norm


def pivot_pass_filtration(c: CochainComplex,
                          levels: list[dict[int, RationalMatrix]]) -> FilteredComplex:
    """`FilteredComplex(c, levels)` by the route it replaced, the reference
    for its integer columns: per degree one `pivot_columns` of the
    `RationalMatrix` [F^{p+1} | F^p] for each p from P - 2 down to 0 (F^0 = C
    the identity), B_k joined by `hstack` from the picked columns, and X_k
    solved, even with no levels, as the top block of the kernel basis of
    [B_{k+1} | -d_k B_k].  The same checks raise the same `FiltrationError`
    messages, and the level bases are kept as the passes pick them."""
    fc = object.__new__(FilteredComplex)
    fc.underlying, fc._given, fc._picked = c, None, None
    for p, given in enumerate(levels, 1):
        for k in c.degrees():
            if k in given and given[k].rows != c.dim(k):
                raise FiltrationError(
                    f"level {p} basis at degree {k} has ambient dimension "
                    f"{given[k].rows}, expected {c.dim(k)}")
    fc.depth = depth = len(levels) + 1
    fc._levels = [{} for _ in levels]
    basis_levels, adapted, not_nested = {}, {}, []
    for k in c.degrees():
        empty = RationalMatrix.zeros(c.dim(k), 0)
        given = [RationalMatrix.identity(c.dim(k))] + [f.get(k, empty) for f in levels]
        # F^{p+1}, rank(F^{p+2} + F^{p+1}) and B_k, whose first part is F^{P-1}
        deeper, span, parts = given[-1], None, [given[-1]]
        for p in range(depth - 2, -1, -1):
            pivots = pivot_columns(deeper.hstack(given[p]))
            inner = [j for j in pivots if j < deeper.cols]
            new = [j - deeper.cols for j in pivots[len(inner):]]
            fc._levels[p][k] = deeper.submatrix_columns(inner)
            if span is None:
                parts[0] = fc._levels[p][k]
            elif span != len(inner):
                not_nested.append((p + 2, k))
            parts.append(given[p].submatrix_columns(new))
            deeper, span = given[p], len(pivots)
        adapted[k] = parts[0].hstack(*parts[1:])
        basis_levels[k] = [p for p, part in zip(range(depth - 1, -1, -1), parts)
                           for _ in range(part.cols)]
    if not_nested:
        p, k = min(not_nested)
        raise FiltrationError(f"levels not nested at level {p}, degree {k}")
    fc._pair(basis_levels, {
        k: kernel_basis(adapted[k + 1].hstack(-(d * adapted[k])))
        .submatrix_rows(range(c.dim(k + 1)))
        for k, d in sorted(c._differentials.items())})
    return fc


def mutated_filtration_levels(rng: random.Random, c: CochainComplex,
                              levels: list[dict[int, RationalMatrix]]) -> list[dict]:
    """``levels`` (F^1, F^2, ...) after one seeded mutation: two levels
    swapped, a column dropped or copied in from another level, a random
    vector added, a level of the wrong ambient size, a degree omitted, or a
    "shallow" vector v that enters two or more levels deeper than dv.  A
    filtration with no level or with a level of the wrong ambient size is
    left as it is."""
    if not levels or any(m.rows != c.dim(k) for level in levels for k, m in level.items()):
        return levels
    levels = [dict(level) for level in levels]
    kind = rng.choice(["swap", "drop", "copy", "vector", "vector", "ambient", "omit",
                       "shallow", "shallow", "shallow", "shallow"])
    depth = len(levels)
    # a shallow vector goes where d is nonzero, if d is nonzero anywhere
    p, k = rng.randrange(depth), rng.choice(
        sorted(c._differentials) if kind == "shallow" and c._differentials else c.degrees())
    n = c.dim(k)
    basis = levels[p].get(k, RationalMatrix.zeros(n, 0))
    vector = RationalMatrix.from_columns([[rng.randint(-2, 2) for _ in range(n)]], n)
    if kind == "swap" and depth > 1:
        q = rng.choice([q for q in range(depth) if q != p])
        levels[p], levels[q] = levels[q], levels[p]
    elif kind == "drop" and basis.cols:
        j = rng.randrange(basis.cols)
        levels[p][k] = basis.submatrix_columns([i for i in range(basis.cols) if i != j])
    elif kind == "copy":
        other = levels[rng.randrange(depth)].get(k, RationalMatrix.zeros(n, 0))
        if other.cols:
            levels[p][k] = basis.hstack(other.submatrix_columns([rng.randrange(other.cols)]))
    elif kind == "vector":
        levels[p][k] = basis.hstack(vector)
    elif kind == "ambient":
        levels[p][k] = RationalMatrix.zeros(n + rng.choice([-1, 1]) if n else 1, basis.cols)
    elif kind == "omit":
        levels[p].pop(k, None)
    elif kind == "shallow" and depth >= 2 and k + 1 in c.dims:
        # F^q is levels[q - 1]: v enters F^1..F^{p_v} and dv only F^1..F^{p_dv}
        image = c.differential(k) * vector
        p_dv = rng.randrange(depth - 1)
        p_v = rng.randint(p_dv + 2, depth)
        for q in range(p_v):
            levels[q][k] = levels[q].get(k, RationalMatrix.zeros(n, 0)).hstack(vector)
        for q in range(p_dv):
            levels[q][k + 1] = levels[q].get(
                k + 1, RationalMatrix.zeros(c.dim(k + 1), 0)).hstack(image)
    return levels


# --- linear algebra and complexes ------------------------------------------------------


def sum_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """A basis of col(a) + col(b): the pivot columns of [a | b]."""
    if a.rows != b.rows:
        raise MatrixError("ambient dimension mismatch")
    return column_space_basis(a.hstack(b))


def total_dims(page: SpectralSequencePage) -> dict[int, int]:
    """The nonzero sums of dim E_r^{p,q} over p + q = k, by total degree k."""
    totals: dict[int, int] = {}
    for (p, q), n in page.entries.items():
        totals[p + q] = totals.get(p + q, 0) + n
    return {k: v for k, v in sorted(totals.items()) if v}


def zero_chain_map(source: CochainComplex, target: CochainComplex) -> ChainMap:
    return ChainMap(source, target, {})


def identity_chain_map(c: CochainComplex) -> ChainMap:
    return ChainMap(c, c, {k: RationalMatrix.identity(c.dim(k))
                           for k in c.degrees() if c.dim(k)})


def trivial_filtration(c: CochainComplex) -> FilteredComplex:
    return FilteredComplex(c, [])


def stupid_filtration(c: CochainComplex) -> FilteredComplex:
    """F^p = the subcomplex of degrees >= min_degree + p."""
    levels = []
    span = c.max_degree - c.min_degree + 1
    for p in range(1, span):
        cutoff = c.min_degree + p
        levels.append({k: (RationalMatrix.identity(c.dim(k)) if k >= cutoff
                           else RationalMatrix.zeros(c.dim(k), 0))
                       for k in c.degrees()})
    return FilteredComplex(c, levels)


# --- cone complexes and their JSON form ------------------------------------------------


def to_intersection_data(complex_: ConeComplex) -> IntersectionData:
    components = sorted(c.components[0] for c in complex_.cells(0))
    return IntersectionData(components, complex_.all_cells(), complex_.ray_coordinates)


def dump_intersection_data(data: IntersectionData) -> dict:
    out = {
        "components": sorted(data.components),
        "strata": [{"components": list(c.components), "tag": c.tag}
                   for c in sorted(data.strata)],
    }
    if data.ray_coordinates is not None:
        out["ray_coordinates"] = {k: list(v) for k, v in sorted(data.ray_coordinates.items())}
    return out


# --- weighted tropical complexes ------------------------------------------------------


def keyed_weighted_complex(c: ConeComplex, weights) -> CochainComplex:
    """The weighted coboundary by the keyed builder, one arrow per face map
    entry with coefficient sign * w(facet) / w(cell), with its own d o d
    check, written out here from the face maps and ``weights.value``: the
    reference for `WeightedTropComplex.complex`, which no report reads,
    with ray weights summed over each cell by the test."""
    return _total_complex({p: c.cells(p) for p in range(c.max_dim + 1)},
                          lambda face: ((cell, sign * weights.value(face) / weights.value(cell))
                                        for cell, sign in c.cofaces(face)))


def identity_submatrix_filtration(t, thresholds) -> FilteredComplex:
    """The sublevel filtration {w >= threshold} of a weighted tropical complex,
    on its weighted coboundary ``t.complex``, given to `FilteredComplex` as
    level bases, each the columns of the identity at the cells it keeps, so
    the pivot passes and a solve per nonzero d recover the adapted basis:
    the reference for the per-cell levels that `trop.weight_filtration_ss`
    gives `coordinate_filtration` on the plain cone cochains."""
    weights = {p: [t.cell_weight(cell) for cell in t.base.cells(p)]
               for p in t.complex.degrees()}
    return FilteredComplex(t.complex, [
        {p: RationalMatrix.identity(len(ws)).submatrix_columns(
            [i for i, w in enumerate(ws) if w >= threshold]) for p, ws in weights.items()}
        for threshold in sorted(thresholds)])


def per_threshold_closure(t, thresholds) -> None:
    """The sublevel closure check of `trop.weight_filtration_ss` as one walk
    over the facet/cofacet pairs per threshold, ascending, raising at the
    first pair that breaks closure: the reference for its one-pass check."""
    c = t.base
    for threshold in sorted(thresholds):
        for p in range(c.max_dim):
            for cell in c.cells(p + 1):
                wc = t.cell_weight(cell)
                for face, sign in c.faces(cell):
                    if sign == 0:
                        continue
                    wf = t.cell_weight(face)
                    if wf >= threshold and wc < threshold:
                        raise TropError(
                            f"sublevel set at threshold {threshold} is not a subcomplex: "
                            f"facet {face.key()} has weight {wf} >= {threshold} but its "
                            f"cofacet {cell.key()} has weight {wc} < {threshold}; weights "
                            f"must not decrease from a cell to its cofacets above the "
                            f"threshold")


# --- local models --------------------------------------------------------------------


def reliable_multidegrees(model: LocalModel, flavor: str):
    """Multidegrees whose block lies entirely inside the window."""
    lo = -model.window if flavor == LAURENT else 0
    return product(*(range(lo if i <= model.r else 0, model.window + 1)
                     for i in range(1, model.n + 1)))


def block_complex(model: LocalModel, flavor: str, mu) -> CochainComplex:
    """The multidegree-mu block of the flavor's form complex, degrees 0..n."""
    return _total_complex({p: block_basis(model, flavor, mu, p) for p in range(model.n + 1)},
                          lambda s: _form_arrows(model, mu, s))


def block_inclusion(model: LocalModel, source_flavor: str, mu) -> ChainMap:
    """Inclusion of a flavor block into the Laurent block at the same mu: the
    flavor's keys are a subset of the Laurent keys, so each component is the
    identity's columns at them."""
    laurent = {p: block_basis(model, LAURENT, mu, p) for p in range(model.n + 1)}
    return ChainMap(block_complex(model, source_flavor, mu), block_complex(model, LAURENT, mu),
                    {p: RationalMatrix.identity(len(keys)).submatrix_columns(
                        [keys.index(s) for s in block_basis(model, source_flavor, mu, p)])
                     for p, keys in laurent.items()})


def build_form_complex(model: LocalModel, flavor: str) -> CochainComplex:
    """Direct sum of all reliable multidegree blocks, ordered by multidegree."""
    if flavor not in FLAVORS:
        raise LocalModelError(f"unknown flavor {flavor!r}")
    basis = {p: [(mu, s) for mu in reliable_multidegrees(model, flavor)
                 for s in block_basis(model, flavor, mu, p)]
             for p in range(model.n + 1)}
    return _total_complex(basis, lambda key: (((key[0], s2), c)
                                              for s2, c in _form_arrows(model, *key)))


def form_cohomology(model: LocalModel, flavor: str) -> dict[int, int]:
    """Blockwise cohomology of the flavor's form complex."""
    total = {p: 0 for p in range(model.n + 1)}
    for mu in reliable_multidegrees(model, flavor):
        for p, dim in cohomology_dims(block_complex(model, flavor, mu)).items():
            total[p] += dim
    return total


def cech_form_arrows(model: LocalModel, mu, i_set, t, s):
    """Arrows out of (T, S) in the totalized Cech complex of I:
    d_form + (-1)^{|S|} cech."""
    for s2, c in _form_arrows(model, mu, s):
        yield (t, s2), c
    sign = (-1) ** len(s)
    for t2, c in _cech_arrows(i_set, t):
        yield (t2, s), sign * c


def subset_total_block(model: LocalModel, flavor: str, i_set, mu) -> CochainComplex:
    """Arrow-built reference for one support subset I: the totalized Cech
    complex of the flavor's form complex at mu, on the positions (T, S) with
    T <= I and S a frame of the flavor localized at T, in degree |S| + |T|."""
    basis: dict[int, list] = {}
    for size in range(len(i_set) + 1):
        for t in combinations(i_set, size):
            for p in range(model.n + 1):
                for s in block_basis(model, flavor, mu, p, frozenset(t)):
                    basis.setdefault(p + size, []).append((t, s))
    return _total_complex(basis, lambda key: cech_form_arrows(model, mu, i_set, *key))


def sign_classes(model: LocalModel):
    """(sign class, size) for every sign class of the reliable Laurent
    multidegrees, one class at a time in product order."""
    signs = [(-1, 0, 1) if i <= model.r else (0, 1) for i in range(1, model.n + 1)]
    for cls in product(*signs):
        yield cls, model.window ** sum(1 for c in cls if c)


def per_class_stalk(model: LocalModel, source_flavor: str) -> ObstructionStalkReport:
    """The obstruction stalk with both routes computed at every sign class,
    the reference for ``assemble_stalk``, which computes them once per orbit:
    per class the quotient block, one Mayer-Vietoris total complex, and each
    subset I's cohomology read off its I-to-I diagonal blocks."""
    direct = {p: 0 for p in range(model.n + 1)}
    assembled = {p: 0 for p in range(model.n + 1)}
    direct_by_mu, assembled_by_mu, per_subset = {}, {}, {}
    for cls, size in sign_classes(model):
        one = [(cls, None)]
        _tally(model, one, size, cohomology_dims(_quotient_block(model, source_flavor, cls)), 0,
               direct, direct_by_mu)
        basis, arrows = _mv_total_block(model, source_flavor, cls)
        for keys in basis.values():
            keys.sort()
        total = _total_complex(basis, arrows)
        _tally(model, one, size, cohomology_dims(total), 1, assembled, assembled_by_mu)
        positions = {}
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
                    slot = per_subset.setdefault(i_set, {})
                    slot[k - 1] = slot.get(k - 1, 0) + size * dim
    return ObstructionStalkReport(model, source_flavor, direct, direct_by_mu,
                                  dict(sorted(per_subset.items())), assembled, assembled_by_mu,
                                  assembled_by_mu == direct_by_mu)


# --- toric ---------------------------------------------------------------------------


def chamber_facets(fan: Fan, violating) -> list[tuple[int, ...]]:
    """Facets of the complex spanned by ``violating``: the violating rays of
    each maximal cone that has any."""
    facets = []
    for cone in fan.maximal_cones:
        bad = tuple(i for i in cone if i in violating)
        if bad:
            facets.append(bad)
    return facets


def reduced_cohomology(facets: list[tuple[int, ...]]) -> dict[int, int]:
    """Nonzero reduced simplicial cohomology of the complex generated by
    ``facets``, by elimination on its cochain complex.  Degree -1 holds the
    empty face ``()``, the empty-complex class."""
    faces: set[tuple[int, ...]] = {()}
    for facet in facets:
        fs = tuple(sorted(facet))
        for mask in range(1, 2 ** len(fs)):
            faces.add(tuple(v for i, v in enumerate(fs) if mask >> i & 1))
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    cofaces: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for face in faces:
        by_dim.setdefault(len(face) - 1, []).append(face)
        for drop in range(len(face)):
            cofaces.setdefault(face[:drop] + face[drop + 1:], []).append((face, (-1) ** drop))
    complex_ = _total_complex(by_dim, lambda face: cofaces.get(face, ()))
    return {k: v for k, v in cohomology_dims(complex_).items() if v}


def reference_character_box(fan: Fan, divisor: dict[int, int]) -> list[tuple[int, int]]:
    """``toric.character_box`` by every one of the 2^n sign vectors of each
    ray subsystem, the floor and ceiling taken of each vertex coordinate."""
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
        for signs in product((0, -1), repeat=n):
            rhs = [-divisor[i] + s for i, s in zip(subset, signs)]
            for j in range(n):
                num = sum(b * cof[k][j] for k, b in enumerate(rhs))
                lo[j] = min(lo[j], num // det)
                hi[j] = max(hi[j], -(-num // det))
    return [(lo[j] - 1, hi[j] + 1) for j in range(n)]


def reference_divisor_cohomology(fan: Fan, divisor: dict[int, int],
                                 box: list[tuple[int, int]]) -> dict[int, int]:
    """``toric.divisor_cohomology`` by the breakpoint sweep: each row of
    ``box`` is cut at every ray's flip, and each segment's violating set is
    formed from the rays' spans and looked up in a chamber cache."""
    n = fan.rank
    first, stop = box[-1][0], box[-1][1] + 1
    chambers: dict[frozenset[int], list[tuple[int, int]]] = {}
    out = {q: 0 for q in range(n + 1)}
    for prefix in product(*[range(lo, hi + 1) for lo, hi in box[:-1]]):
        # ray i is violated for m_n in [begin, end), clipped to the row
        spans = []
        cuts = {first, stop}
        for i, ray in enumerate(fan.rays):
            c = -divisor[i] - sum(a * b for a, b in zip(prefix, ray))
            vn = ray[-1]
            if vn > 0:
                begin, end = first, min(stop, -(-c // vn))
            elif vn < 0:
                begin, end = max(first, c // vn + 1), stop
            else:
                begin, end = first, (stop if c > 0 else first)
            if begin < end:
                spans.append((i, begin, end))
                cuts.update((begin, end))
        cuts = sorted(cuts)
        for begin, end in zip(cuts, cuts[1:]):
            violating = frozenset(i for i, b, e in spans if b <= begin < e)
            if violating not in chambers:
                reduced = _chamber_cohomology(fan, violating)
                chambers[violating] = [(q_tilde + 1, dim) for q_tilde, dim in reduced.items()
                                       if 0 <= q_tilde + 1 <= n]
            for q, dim in chambers[violating]:
                out[q] += (end - begin) * dim
    return out


def weight_divisor(w: WeightFunction, fan: Fan) -> QDivisor:
    """The divisor with coefficient w(ray) on each boundary ray; callers take
    the floor separately.  Ray names must match the weight's ray set."""
    missing = [name for name in fan.ray_names if name not in w.ray_values]
    extra = [name for name in sorted(w.ray_values) if name not in fan.ray_names]
    if missing or extra:
        raise FanError(
            f"weight rays do not match fan rays (missing {missing}, extra {extra})")
    return QDivisor({i: w.ray_value(name) for i, name in enumerate(fan.ray_names)})


# --- monodromy -----------------------------------------------------------------------


def reference_weight_axioms(n, w) -> None:
    """`verify_weight_axioms` with one elimination per check: each containment
    its own `contains_space` and each rank its own `rank`."""
    k = w.center
    dim = n.dimension
    ranks = {l: rank(w.level(l)) for l in range(k - dim - 1, k + dim + 1)}
    if ranks[k + dim] != dim:
        raise MonodromyError(f"filtration not exhaustive: dim W_{k + dim} < {dim}")
    levels = {l: w.level(l) for l in range(k - dim - 1, k + dim + 1)}
    for l in range(k - dim + 1, k + dim + 1):
        if levels[l] != levels[l - 1] and not contains_space(levels[l], levels[l - 1]):
            raise MonodromyError(f"filtration not increasing: W_{l - 1} not inside W_{l}")
    for l in range(k - dim, k + dim + 1):
        if levels[l] != levels[l - 1] and not contains_space(w.level(l - 2),
                                                              n.matrix * levels[l]):
            raise MonodromyError(f"axiom failure: N W_{l} not inside W_{l - 2}")
    for l in range(1, dim + 1):
        up = ranks[k + l] - ranks[k + l - 1]
        down = ranks[k - l] - ranks[k - l - 1]
        if up != down:
            raise MonodromyError(
                f"axiom failure: Gr_{k + l} and Gr_{k - l} have different dims")
        if up == 0:
            continue
        # N^l must map W_{k+l} onto W_{k-l} modulo W_{k-l-1} with full rank
        img = n.power(l) * w.level(k + l)
        induced_rank = rank(img.hstack(w.level(k - l - 1))) - ranks[k - l - 1]
        if induced_rank != up:
            raise MonodromyError(
                f"axiom failure: N^{l} is not an isomorphism Gr_{k + l} -> Gr_{k - l}")


@contextmanager
def counting_fractions():
    """Count the Fractions constructed inside the block."""
    made = []
    original = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(1)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        yield made
    finally:
        Fraction.__new__ = original
