from itertools import combinations, product
from math import comb

import pytest

from loghodgelab import complexes, linalg, localmodel
from loghodgelab.complexes import (_total_complex, cohomology_dims, degeneration_check,
                                   mapping_cone, spectral_sequence)
from loghodgelab.localmodel import (
    HOLOMORPHIC,
    LAURENT,
    LOGARITHMIC,
    LocalModel,
    LocalModelError,
    _cech_arrows,
    _class_multidegrees,
    _mv_total_block,
    _sign_classes,
    _sign_insert,
    assemble_stalk,
    koszul_local_cohomology,
    obstruction_cone,
)

from helpers import (block_complex, block_inclusion, build_form_complex, form_cohomology,
                     reliable_multidegrees, stupid_filtration, subset_total_block)


# --- form complexes -------------------------------------------------------------


def test_log_line_cohomology():
    model = LocalModel(1, 1, 3)
    assert form_cohomology(model, LOGARITHMIC) == {0: 1, 1: 1}


def test_holomorphic_line_poincare_lemma():
    model = LocalModel(1, 0, 3)
    assert form_cohomology(model, HOLOMORPHIC) == {0: 1, 1: 0}


def test_laurent_line_cohomology():
    model = LocalModel(1, 1, 3)
    assert form_cohomology(model, LAURENT) == {0: 1, 1: 1}


def test_holomorphic_with_boundary_drops_log_class():
    model = LocalModel(1, 1, 3)
    assert form_cohomology(model, HOLOMORPHIC) == {0: 1, 1: 0}


def test_log_cohomology_counts_boundary_frames():
    # H^p has one class z^0 dz_I/z_I per p-subset I of the boundary coords
    for n, r in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        model = LocalModel(n, r, 2)
        h = form_cohomology(model, LOGARITHMIC)
        for p in range(n + 1):
            assert h[p] == comb(r, p), (n, r, p)


def test_window_stability_log_flavor():
    for n, r in [(1, 1), (2, 1), (2, 2)]:
        results = [form_cohomology(LocalModel(n, r, b), LOGARITHMIC) for b in (2, 3, 4)]
        assert results[0] == results[1] == results[2]


def test_global_complex_matches_blockwise():
    for flavor in (HOLOMORPHIC, LOGARITHMIC, LAURENT):
        model = LocalModel(2, 1, 2)
        c = build_form_complex(model, flavor)
        assert cohomology_dims(c) == form_cohomology(model, flavor)


def test_d_squared_zero_all_flavors_and_windows():
    for n, r in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]:
        for b in (1, 2):
            for flavor in (HOLOMORPHIC, LOGARITHMIC, LAURENT):
                build_form_complex(LocalModel(n, r, b), flavor)  # ctor checks d^2


def test_invalid_model_rejected():
    with pytest.raises(LocalModelError):
        LocalModel(1, 2, 3)
    with pytest.raises(LocalModelError):
        LocalModel(2, 1, 0)


def test_degeneration_of_invariant_block_filtration():
    # the multidegree-0 block of the boundary line model carries the
    # torus-invariant forms; its column filtration degenerates at the first page
    model = LocalModel(1, 1, 3)
    block = block_complex(model, LOGARITHMIC, (0,))
    assert cohomology_dims(block) == {0: 1, 1: 1}
    ok, first = degeneration_check(spectral_sequence(stupid_filtration(block)))
    assert ok and first is None


def test_full_window_column_filtration_does_not_degenerate():
    # away from multidegree 0 the Euler field makes the first-page map nonzero
    model = LocalModel(1, 1, 3)
    full = build_form_complex(model, LOGARITHMIC)
    ok, first = degeneration_check(spectral_sequence(stupid_filtration(full)))
    assert not ok and first == 1


# --- obstruction cones ------------------------------------------------------------


def test_log_source_cone_acyclic_small():
    for n in (1, 2):
        for r in range(n + 1):
            report = obstruction_cone(LocalModel(n, r, 3), LOGARITHMIC)
            assert all(v == 0 for v in report.direct.values()), (n, r)


def test_holomorphic_cone_line():
    report = obstruction_cone(LocalModel(1, 1, 4), HOLOMORPHIC)
    assert report.direct[0] == 0
    assert report.direct[1] == 1
    # the single class sits at multidegree 0 (the residue of dz/z)
    assert report.direct_by_multidegree[1] == {(0,): 1}


def test_no_boundary_cone_acyclic_both_flavors():
    for flavor in (HOLOMORPHIC, LOGARITHMIC):
        report = obstruction_cone(LocalModel(2, 0, 3), flavor)
        assert all(v == 0 for v in report.direct.values())


def test_holomorphic_cone_counts_residues():
    # OB^p for the holomorphic source counts the missing dlog classes:
    # dims match C(r, p) for p >= 1 on (C^n, r boundary coords)
    for n, r in [(1, 1), (2, 1), (2, 2)]:
        report = obstruction_cone(LocalModel(n, r, 3), HOLOMORPHIC)
        for p in range(n + 1):
            expected = comb(r, p) if p >= 1 else 0
            assert report.direct[p] == expected, (n, r, p)


# --- local cohomology -------------------------------------------------------------


def test_koszul_local_cohomology_half_plane():
    model = LocalModel(2, 1, 2)
    dims = koszul_local_cohomology(model, [1], 0)
    assert sum(dims.values()) == 6
    assert all(mu[0] in (-2, -1) and 0 <= mu[1] <= 2 for mu in dims)
    assert all(v == 1 for v in dims.values())


def test_koszul_local_cohomology_deep_stratum():
    model = LocalModel(2, 2, 1)
    dims = koszul_local_cohomology(model, [1, 2], 0)
    assert dims == {(-1, -1): 1}


def test_koszul_local_cohomology_top_frame_count():
    # the grading is frame independent: the top degree has one frame, so its
    # count equals the p = 0 count at every window
    for n, r in [(1, 1), (2, 1), (2, 2)]:
        model = LocalModel(n, r, 1)
        i_set = list(range(1, r + 1))
        top = koszul_local_cohomology(model, i_set, n)
        bottom = koszul_local_cohomology(model, i_set, 0)
        assert sum(top.values()) == sum(bottom.values())
        assert set(top) == set(bottom)


def test_koszul_local_cohomology_frame_multiplicity():
    # C(n, p) classes per valid exponent
    from math import comb
    model = LocalModel(2, 2, 1)
    for p in range(3):
        dims = koszul_local_cohomology(model, [1, 2], p)
        assert dims == {(-1, -1): comb(2, p)}


def test_koszul_subset_validation():
    model = LocalModel(2, 1, 2)
    with pytest.raises(LocalModelError):
        koszul_local_cohomology(model, [], 0)
    with pytest.raises(LocalModelError):
        koszul_local_cohomology(model, [2], 0)   # 2 > r = 1


# --- Mayer-Vietoris assembly ---------------------------------------------------------


def test_assembled_matches_direct_log_plane():
    report = assemble_stalk(LocalModel(2, 2, 3), LOGARITHMIC)
    assert report.matches
    assert all(v == 0 for v in report.assembled.values())


def test_assembled_matches_direct_holomorphic_line():
    report = assemble_stalk(LocalModel(1, 1, 4), HOLOMORPHIC)
    assert report.matches
    assert report.assembled[1] == 1
    assert list(report.per_subset) == [(1,)]


def test_assembled_matches_direct_all_small_models():
    for n in (1, 2):
        for r in range(n + 1):
            for flavor in (HOLOMORPHIC, LOGARITHMIC):
                report = assemble_stalk(LocalModel(n, r, 3), flavor)
                assert report.matches, (n, r, flavor)


def test_assembled_matches_direct_three_variables():
    # full boundary in three variables: the holomorphic source misses one
    # dlog residue class per boundary subset
    report = assemble_stalk(LocalModel(3, 3, 2), HOLOMORPHIC)
    assert report.matches
    assert report.direct == {0: 0, 1: 3, 2: 3, 3: 1}
    log_report = assemble_stalk(LocalModel(3, 3, 2), LOGARITHMIC)
    assert log_report.matches
    assert all(v == 0 for v in log_report.direct.values())


def test_multidegree_preserved_blockwise_equals_direct_sum():
    # summing block cohomology over reliable multidegrees reproduces the
    # cohomology of the assembled global complex (tested in
    # test_global_complex_matches_blockwise); here check block d^2 = 0 holds
    model = LocalModel(2, 2, 2)
    for mu in reliable_multidegrees(model, LAURENT):
        block_complex(model, LAURENT, mu)  # ctor enforces d^2 = 0


def test_nerve_restriction_entries():
    # every nerve arrow (I, T, S) -> (I - {j}, T, S) with j not in T carries
    # (-1)^{|S|+|T|} * sign(I - {j}, j), and no other entry changes I
    cases = [((2, 2, 2), [(0, 0), (1, -2), (-1, 2), (2, 1)]),
             ((3, 3, 1), [(0, 0, 0), (1, -1, 0), (-1, -1, 1), (1, 1, -1)])]
    for (n, r, w), mus in cases:
        model = LocalModel(n, r, w)
        for flavor in (HOLOMORPHIC, LOGARITHMIC):
            for mu in mus:
                keys, arrows = _mv_total_block(model, flavor, mu)
                keys = {k: sorted(v) for k, v in keys.items()}
                total = _total_complex(keys, arrows)
                arrows = 0
                for k in keys:
                    if k + 1 not in keys:
                        continue
                    index = {key: i for i, key in enumerate(keys[k + 1])}
                    expected = {}
                    for col, (i_set, t, s) in enumerate(keys[k]):
                        for j in i_set:
                            if j not in t and len(i_set) > 1:
                                i2 = tuple(x for x in i_set if x != j)
                                row = index[(i2, t, s)]
                                expected[(row, col)] = (-1) ** (len(s) + len(t)) * _sign_insert(i2, j)
                    found = {(row, col): v for (row, col), v in total.differential(k).entries.items()
                             if keys[k + 1][row][0] != keys[k][col][0]}
                    assert found == expected, (n, r, flavor, mu, k)
                    arrows += len(expected)
                assert arrows, (n, r, flavor, mu)


# --- sign classes against the per-multidegree loop -----------------------------------


def reference_stalk(model, flavor):
    """The per-multidegree loop: a cone, a Mayer-Vietoris total block and one
    block per subset at every reliable multidegree, with no sign classes."""
    direct_by_mu, assembled_by_mu, per_subset = {}, {}, {}
    for mu in reliable_multidegrees(model, LAURENT):
        for p, dim in cohomology_dims(mapping_cone(block_inclusion(model, flavor, mu))).items():
            if dim:
                direct_by_mu.setdefault(p, {})[mu] = dim
        if model.r == 0:
            continue
        for k, dim in cohomology_dims(_total_complex(*_mv_total_block(model, flavor, mu))).items():
            if dim:
                assembled_by_mu.setdefault(k - 1, {})[mu] = dim
        for size in range(1, model.r + 1):
            for i_set in combinations(range(1, model.r + 1), size):
                for k, dim in cohomology_dims(subset_total_block(model, flavor, i_set, mu)).items():
                    if dim:
                        slot = per_subset.setdefault(i_set, {})
                        slot[k - len(i_set)] = slot.get(k - len(i_set), 0) + dim
    return direct_by_mu, assembled_by_mu, per_subset


def reference_koszul(model, i_set, p):
    """Cech cohomology of the p-forms supported on z_I, one complex per exponent."""
    frames = list(combinations(range(1, model.n + 1), p))
    out = {}
    for a in product(*[range(-model.window if i in i_set else 0, model.window + 1)
                       for i in range(1, model.n + 1)]):
        basis = {d: [] for d in range(len(i_set) + 1)}
        for size in range(len(i_set) + 1):
            for t in combinations(i_set, size):
                if all(a[i - 1] >= 0 for i in range(1, model.n + 1) if i not in t):
                    basis[size].extend((t, s) for s in frames)
        coh = cohomology_dims(_total_complex(
            basis, lambda key: (((t2, key[1]), c) for t2, c in _cech_arrows(i_set, key[0]))))
        if coh.get(len(i_set)):
            out[a] = coh[len(i_set)]
    return out


@pytest.mark.parametrize("n,r,window", [(n, r, w) for n in (1, 2, 3) for r in range(n + 1)
                                        for w in (1, 2, 3)])
def test_sign_classes_match_per_multidegree_loop(n, r, window):
    model = LocalModel(n, r, window)
    for flavor in (HOLOMORPHIC, LOGARITHMIC):
        report = assemble_stalk(model, flavor)
        direct_by_mu, assembled_by_mu, per_subset = reference_stalk(model, flavor)
        assert report.direct_by_multidegree == direct_by_mu
        assert report.assembled_by_multidegree == assembled_by_mu
        assert report.per_subset == per_subset
        assert report.matches
    for size in range(1, r + 1):
        for i_set in combinations(range(1, r + 1), size):
            for p in range(n + 1):
                assert koszul_local_cohomology(model, i_set, p) == \
                    reference_koszul(model, i_set, p), (i_set, p)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(localmodel, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(localmodel, name, counted)
    return calls


def subset_blocks(n, r):
    """Cech complexes of the subsets I over all sign classes: one for each
    nonempty I that contains the class's negative coordinates, so per
    boundary coordinate the three signs give 1 + 2 + 2 choices, less the
    classes with no negative coordinate, whose I may not be empty."""
    return 2 ** (n - r) * (5 ** r - 2 ** r)


def test_stalk_builds_one_block_per_sign_class(monkeypatch):
    # every complex comes from the builder: no cone, no sliced block, no chain map
    constructed, chain_maps = [], []
    init, check = complexes.CochainComplex.__init__, complexes.ChainMap.__post_init__
    monkeypatch.setattr(complexes.CochainComplex, "__init__",
                        lambda c, *args: constructed.append(c) or init(c, *args))
    monkeypatch.setattr(complexes.ChainMap, "__post_init__",
                        lambda f: chain_maps.append(f) or check(f))
    totals = count_calls(monkeypatch, "_mv_total_block")
    built = count_calls(monkeypatch, "_total_complex")
    bases = count_calls(monkeypatch, "block_basis")
    for n, r, window in [(1, 1, 4), (2, 1, 3), (2, 2, 3), (3, 2, 2), (3, 3, 2)]:
        classes = 3 ** r * 2 ** (n - r)
        for flavor in (HOLOMORPHIC, LOGARITHMIC):
            for calls in (totals, built, bases, constructed):
                calls.clear()
            assemble_stalk(LocalModel(n, r, window), flavor)
            assert len(totals) == classes, (n, r, window, flavor)
            # a quotient block and a Mayer-Vietoris complex per class, and
            # a Cech complex per subset block
            assert len(built) == 2 * classes + subset_blocks(n, r), (n, r, window, flavor)
            assert len(constructed) == len(built), (n, r, window, flavor)
            # the Laurent keys, then the Cech frames once per localization T
            assert len(bases) == classes * (n + 1) * (1 + 2 ** r), (n, r, window, flavor)
    assert chain_maps == []


def test_stalk_work_does_not_grow_with_the_window(monkeypatch):
    built = count_calls(monkeypatch, "_total_complex")
    eliminations = []
    echelon = linalg._echelon

    def counted_echelon(rows):
        eliminations.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    for flavor in (HOLOMORPHIC, LOGARITHMIC):
        work = []
        for window in (2, 40):
            built.clear()
            eliminations.clear()
            assemble_stalk(LocalModel(2, 2, window), flavor)
            work.append((len(built), len(eliminations)))
        assert work[0] == work[1], (flavor, work)
        assert work[0][0] == 2 * 9 + subset_blocks(2, 2), (flavor, work)


def test_a_flavor_rule_that_d_does_not_preserve_is_refused(monkeypatch):
    # flavors cut down to their 0-forms: d leaves them for the Laurent 1-forms
    allows = localmodel._flavor_allows

    def zero_forms_only(model, flavor, s, a, localized=frozenset()):
        return allows(model, flavor, s, a, localized) and (flavor == LAURENT or not s)

    monkeypatch.setattr(localmodel, "_flavor_allows", zero_forms_only)
    for flavor in (HOLOMORPHIC, LOGARITHMIC):
        with pytest.raises(ValueError):
            obstruction_cone(LocalModel(2, 1, 2), flavor)
        with pytest.raises(ValueError):
            assemble_stalk(LocalModel(2, 2, 1), flavor)


def test_laurent_is_not_a_source_flavor():
    with pytest.raises(LocalModelError, match="'laurent'"):
        obstruction_cone(LocalModel(2, 1, 2), LAURENT)


def test_sign_classes_partition_the_reliable_multidegrees():
    for n in (1, 2, 3):
        for r in range(n + 1):
            for window in (1, 2, 3):
                model = LocalModel(n, r, window)
                classes = list(_sign_classes(model))
                assert len(classes) == 3 ** r * 2 ** (n - r)
                assert sum(size for _, size in classes) == \
                    (2 * window + 1) ** r * (window + 1) ** (n - r)
                seen = []
                for cls, size in classes:
                    members = list(_class_multidegrees(model, cls))
                    assert len(members) == size, (n, r, window, cls)
                    assert all(tuple((m > 0) - (m < 0) for m in mu) == cls for mu in members)
                    seen += members
                assert sorted(seen) == sorted(reliable_multidegrees(model, LAURENT)), (n, r, window)


def test_local_cohomology_builds_one_complex_per_negative_set(monkeypatch):
    built = count_calls(monkeypatch, "_total_complex")
    for n, r, window in [(1, 1, 5), (2, 2, 4), (3, 3, 3)]:
        model = LocalModel(n, r, window)
        for size in range(1, r + 1):
            for i_set in combinations(range(1, r + 1), size):
                built.clear()
                koszul_local_cohomology(model, i_set, 1)
                assert len(built) == 2 ** len(i_set), (n, r, window, i_set)
    built.clear()
    dims = koszul_local_cohomology(LocalModel(1, 1, 500), [1], 0)
    assert len(built) == 2
    assert list(dims) == [(a,) for a in range(-500, 0)] and set(dims.values()) == {1}
