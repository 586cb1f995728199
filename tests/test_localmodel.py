from math import comb

import pytest

from loghodgelab.complexes import (cohomology_dims, degeneration_check, spectral_sequence,
                                   stupid_filtration)
from loghodgelab.localmodel import (
    HOLOMORPHIC,
    LAURENT,
    LOGARITHMIC,
    LocalModel,
    LocalModelError,
    assemble_stalk,
    block_complex,
    build_form_complex,
    form_cohomology,
    koszul_local_cohomology,
    obstruction_cone,
)


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
    from loghodgelab.localmodel import reliable_multidegrees
    for mu in reliable_multidegrees(model, LAURENT):
        block_complex(model, LAURENT, mu)  # ctor enforces d^2 = 0
