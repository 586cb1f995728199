import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from loghodgelab import linalg
from loghodgelab.complexes import (
    ChainMap,
    ChainMapError,
    CochainComplex,
    ComplexError,
    FilteredComplex,
    FiltrationError,
    cohomology_dims,
    coordinate_filtration,
    long_exact_sequence,
    mapping_cone,
    spectral_sequence,
)
from loghodgelab.jsonio import load_generic_complex
from loghodgelab.linalg import RationalMatrix

import ss_oracle
from helpers import (counting_fractions, identity_chain_map, mutated_filtration_levels,
                     pivot_pass_filtration, plus_identity_map, random_chain_map, random_complex,
                     random_filtration_levels, reference_filtration_levels, stupid_filtration,
                     total_dims, trivial_filtration, zero_chain_map)

FIXTURES = Path(__file__).parent / "fixtures"


def circle_complex() -> CochainComplex:
    # triangle boundary: vertices v0,v1,v2; edges (01),(02),(12)
    d0 = RationalMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    return CochainComplex({0: 3, 1: 3}, {0: d0})


def point_complex() -> CochainComplex:
    return CochainComplex({0: 1}, {})


def two_term_identity() -> CochainComplex:
    return CochainComplex({0: 1, 1: 1}, {0: RationalMatrix.identity(1)})


# --- construction invariants --------------------------------------------------


def test_d_squared_enforced():
    bad_d0 = RationalMatrix.identity(2)
    bad_d1 = RationalMatrix.identity(2)
    with pytest.raises(ComplexError):
        CochainComplex({0: 2, 1: 2, 2: 2}, {0: bad_d0, 1: bad_d1})


def test_d_squared_names_the_lowest_failing_degree():
    one = RationalMatrix.identity(1)
    with pytest.raises(ComplexError, match="at degree 0"):
        CochainComplex({k: 1 for k in range(4)}, {2: one, 1: one, 0: one})


def test_contiguous_degrees_required():
    with pytest.raises(ComplexError):
        CochainComplex({0: 1, 2: 1}, {})


def test_chain_map_must_commute():
    c = two_term_identity()
    with pytest.raises(ChainMapError):
        ChainMap(c, c, {0: RationalMatrix.identity(1),
                        1: RationalMatrix.from_rows([[2]])})


def test_chain_map_failing_at_a_missing_component_rejected():
    # on Q -1-> Q, with one of f_0, f_1 missing or zero and the other 1, one
    # side of the square at degree 0 is 0 and the other is 1
    c = two_term_identity()
    one, zero = RationalMatrix.identity(1), RationalMatrix.zeros(1, 1)
    for components in ({1: one}, {0: one}, {0: zero, 1: one}, {0: one, 1: zero}):
        with pytest.raises(ChainMapError, match="does not commute with differentials at degree 0"):
            ChainMap(c, c, components)
    ChainMap(c, c, {})
    ChainMap(c, c, {0: zero, 1: zero})


# --- cohomology ----------------------------------------------------------------


def test_cohomology_point():
    assert cohomology_dims(point_complex()) == {0: 1}


def test_cohomology_circle():
    assert cohomology_dims(circle_complex()) == {0: 1, 1: 1}


def test_cohomology_acyclic_identity():
    assert cohomology_dims(two_term_identity()) == {0: 0, 1: 0}


def test_euler_characteristic_identity_random():
    rng = random.Random(201)
    for _ in range(40):
        c = random_complex(rng)
        h = cohomology_dims(c)
        assert sum((-1) ** k * n for k, n in c.dims.items()) == \
               sum((-1) ** k * n for k, n in h.items())


# --- mapping cone ----------------------------------------------------------------


def test_cone_of_identity_is_acyclic():
    c = circle_complex()
    cone = mapping_cone(identity_chain_map(c))
    assert all(v == 0 for v in cohomology_dims(cone).values())


def test_cone_of_zero_map_one_term():
    c = point_complex()
    cone = mapping_cone(zero_chain_map(c, c))
    h = cohomology_dims(cone)
    assert h == {-1: 1, 0: 1}


def test_cone_of_inclusion_is_cokernel():
    line = CochainComplex({0: 1}, {})
    plane = CochainComplex({0: 2}, {})
    incl = ChainMap(line, plane, {0: RationalMatrix.from_rows([[1], [0]])})
    h = cohomology_dims(mapping_cone(incl))
    assert h == {-1: 0, 0: 1}


def test_cone_euler_characteristic_additive():
    rng = random.Random(202)
    for _ in range(20):
        a = random_complex(rng, 6)
        b = random_complex(rng, 6)
        f = random_chain_map(rng, a, b)
        cone = mapping_cone(f)
        ha = cohomology_dims(a)
        hb = cohomology_dims(b)
        hc = cohomology_dims(cone)
        euler = lambda h: sum((-1) ** k * n for k, n in h.items())
        assert euler(hc) == euler(hb) - euler(ha)


# --- long exact sequence -----------------------------------------------------------


def test_les_of_quasi_isomorphism():
    c = circle_complex()
    report = long_exact_sequence(identity_chain_map(c))
    assert report.exact
    assert all(v == 0 for v in report.cone_cohomology.values())


def test_les_of_zero_map_circle():
    c = circle_complex()
    report = long_exact_sequence(zero_chain_map(c, c))
    assert report.exact
    # cone of 0 splits: H^k(cone) = H^k(tgt) + H^{k+1}(src)
    assert report.cone_cohomology == {-1: 1, 0: 2, 1: 1}


def seeded_les_maps(count: int):
    """Seeded chain maps, every third one id + null-homotopic and the rest
    null-homotopic between two random complexes."""
    rng = random.Random(209)
    for t in range(count):
        a = random_complex(rng, 8)
        yield plus_identity_map(rng, a) if t % 3 == 0 else \
            random_chain_map(rng, a, random_complex(rng, 8))


def test_les_reports_pinned():
    """sha256 of the canonical JSON of 300 seeded reports, pinned from the
    coordinate-based construction (representatives and class coordinates per
    cohomology class) that the rank-only one replaced; 87 of the maps have
    f* != 0 somewhere."""
    digest = hashlib.sha256()
    for f in seeded_les_maps(300):
        report = long_exact_sequence(f).to_json_dict()
        digest.update(json.dumps(report, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    assert digest.hexdigest() == \
        "ade0cfee9d1332483a5da995b4e5749b88878a270cd4e4a63786b91450ca2156"


def test_les_makes_no_fraction():
    """The report is ranks of integer kernels and products: on the seeded
    maps of both kinds no Fraction is made."""
    maps = list(seeded_les_maps(60))
    with counting_fractions() as made:
        reports = [long_exact_sequence(f) for f in maps]
    assert not made
    assert all(report.exact for report in reports)


def test_les_exact_on_random_maps():
    rng = random.Random(203)
    for _ in range(25):
        a = random_complex(rng)
        b = random_complex(rng)
        f = random_chain_map(rng, a, b)
        assert long_exact_sequence(f).exact


# --- filtered complexes / spectral sequences ------------------------------------------


def test_filtration_must_be_subcomplex():
    c = two_term_identity()
    # the span of degree-0 alone is not d-closed
    bad = [{0: RationalMatrix.identity(1), 1: RationalMatrix.zeros(1, 0)}]
    with pytest.raises(FiltrationError):
        FilteredComplex(c, bad)


def test_filtration_checks_agree_with_one_elimination_per_check():
    """The per-degree pivot passes of `FilteredComplex` against the checks
    they replaced (`helpers.reference_filtration_levels`), on seeded
    filtrations with zero to three mutations each: the same `FiltrationError`
    message or none, and when none, the same level bases and the pages of
    the subquotient engine."""
    rng = random.Random(208)
    seen = {}
    for _ in range(800):
        c = random_complex(rng, 8)
        levels = random_filtration_levels(rng, c, rng.randint(1, 5))
        for _ in range(rng.randint(0, 3)):
            levels = mutated_filtration_levels(rng, c, levels)
        try:
            expected = reference_filtration_levels(c, levels)
        except FiltrationError as exc:
            with pytest.raises(FiltrationError) as raised:
                FilteredComplex(c, levels)
            assert str(raised.value) == str(exc)
            kind = " ".join(w for w in str(exc).split() if not any(ch.isdigit() for ch in w))
            seen[kind] = seen.get(kind, 0) + 1
            continue
        fc = FilteredComplex(c, levels)
        assert fc.levels == expected
        assert [page.to_json_dict() for page in spectral_sequence(fc)] == \
               [page.to_json_dict() for page in ss_oracle.spectral_sequence(fc)]
        seen["accepted"] = seen.get("accepted", 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 30  # every message, and acceptance


def rescaled(rng: random.Random, c: CochainComplex, levels: list[dict]):
    """c and its levels moved by D_k, a diagonal of random nonzero rationals per
    degree, with each level column times a random nonzero rational: d_k becomes
    D_{k+1} d_k D_k^-1, with denominators, and the level columns are rational.
    A level of the wrong ambient size is left as it is."""
    scale = {k: [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
                 for _ in range(c.dim(k))] for k in c.degrees()}

    def diagonal(values):
        return RationalMatrix(len(values), len(values),
                              {(i, i): v for i, v in enumerate(values)})
    moved = CochainComplex(c.dims, {
        k: diagonal(scale[k + 1]) * d * diagonal([1 / v for v in scale[k]])
        for k, d in c._differentials.items()})
    return moved, [
        {k: diagonal(scale[k]) * m * diagonal([Fraction(rng.choice([-2, 1, 3]),
                                                        rng.choice([1, 4, 5]))
                                               for _ in range(m.cols)])
         if m.rows == c.dim(k) else m for k, m in level.items()} for level in levels]


def test_integer_columns_agree_with_the_pivot_pass_route():
    """`FilteredComplex` on integer columns against the route it replaced
    (`helpers.pivot_pass_filtration`), on seeded filtrations with zero to three
    mutations each (levels not nested, not subcomplexes, of the wrong ambient
    size, with a degree omitted) and rational levels and differentials: the
    same `FiltrationError` message or none, and when none the same level
    bases, basis levels, pairs, gaps, E_infinity totals, first nonzero
    differential and pages.  X_k is formed in the scaled basis, so only its
    nonzero pattern is compared."""
    rng = random.Random(4801)
    seen = {}
    for n in range(1000):
        c = random_complex(rng, 10)
        levels = random_filtration_levels(rng, c, rng.randint(1, 4))
        for _ in range(rng.randint(0, 3)):
            levels = mutated_filtration_levels(rng, c, levels)
        if n % 2:
            c, levels = rescaled(rng, c, levels)
        try:
            expected = pivot_pass_filtration(c, levels)
        except FiltrationError as exc:
            with pytest.raises(FiltrationError) as raised:
                FilteredComplex(c, levels)
            assert str(raised.value) == str(exc)
            kind = " ".join(w for w in str(exc).split() if not any(ch.isdigit() for ch in w))
            seen[kind] = seen.get(kind, 0) + 1
            continue
        fc = FilteredComplex(c, levels)
        assert fc.levels == expected.levels
        assert fc.basis_levels == expected.basis_levels
        assert (fc.pairs, fc.gaps) == (expected.pairs, expected.gaps)
        assert fc.e_infinity_totals == expected.e_infinity_totals
        assert fc.first_nonzero_differential == expected.first_nonzero_differential
        assert spectral_sequence(fc) == spectral_sequence(expected)
        assert {k: set(x.entries) for k, x in fc.adapted_differentials.items()} == \
               {k: set(x.entries) for k, x in expected.adapted_differentials.items()}
        first = fc.first_nonzero_differential
        seen[first] = seen.get(first, 0) + 1
    assert len([kind for kind in seen if isinstance(kind, str)]) == 3, seen
    assert min(v for kind, v in seen.items() if isinstance(kind, str)) >= 30, seen
    assert all(seen.get(key, 0) >= 10 for key in (None, 1, 2)), seen


def test_coordinate_filtration_agrees_with_the_pivot_route():
    """Per-vector levels on the standard basis against the same filtration
    given as identity columns, on seeded complexes and levels, half of them
    raised along d until every level is a subcomplex: the same
    `FiltrationError` message or none, and when none, the same pages,
    E_infinity totals, first nonzero differential and level bases, with
    X_k = d_k."""
    rng = random.Random(209)
    seen = {}
    for n in range(600):
        c = random_complex(rng, 8)
        depth = rng.randint(1, 4)
        levels = {k: [rng.randrange(depth) for _ in range(c.dim(k))] for k in c.degrees()}
        if n % 2:
            for k, d in sorted(c._differentials.items()):
                for i, j in d.entries:
                    levels[k + 1][i] = max(levels[k + 1][i], levels[k][j])
        given = [{k: RationalMatrix.identity(c.dim(k)).submatrix_columns(
                      [j for j, level in enumerate(ls) if level >= p])
                  for k, ls in levels.items()} for p in range(1, depth)]
        try:
            expected = FilteredComplex(c, given)
        except FiltrationError as exc:
            with pytest.raises(FiltrationError) as raised:
                coordinate_filtration(c, levels, depth)
            assert str(raised.value) == str(exc)
            seen["refused"] = seen.get("refused", 0) + 1
            continue
        fc = coordinate_filtration(c, levels, depth)
        assert [page.to_json_dict() for page in spectral_sequence(fc)] == \
               [page.to_json_dict() for page in spectral_sequence(expected)]
        assert fc.e_infinity_totals == expected.e_infinity_totals
        assert fc.first_nonzero_differential == expected.first_nonzero_differential
        assert (fc.basis_levels, fc.adapted_differentials) == (levels, c._differentials)
        assert fc.levels == expected.levels == given
        first = fc.first_nonzero_differential
        seen[first] = seen.get(first, 0) + 1
    assert all(seen.get(key, 0) >= 10 for key in ("refused", None, 1, 2)), seen


def test_trivial_filtration_gives_cohomology_at_e1():
    c = circle_complex()
    fc = trivial_filtration(c)
    pages = spectral_sequence(fc)
    e1 = pages[1]
    assert e1.entry(0, 0) == 1 and e1.entry(0, 1) == 1
    assert total_dims(pages[-1]) == fc.e_infinity_totals == {0: 1, 1: 1}
    assert fc.first_nonzero_differential is None


def test_filtration_with_no_levels_makes_no_solve(monkeypatch):
    """With no levels (F^0 = C, depth 1) B_k is the identity: no pivot pass
    and no solve, X_k = d_k itself.  Construction makes two eliminations per
    nonzero d_k: its persistence pairing and the rank of d_k for the
    E_infinity check; the pages are then rendered with none."""
    circle, _ = load_generic_complex(json.loads((FIXTURES / "circle_complex.json").read_text()))
    rng = random.Random(941)
    complexes_ = [circle] + [random_complex(rng) for _ in range(40)]
    assert any(len(c._differentials) > 1 for c in complexes_)
    eliminations = []
    echelon = linalg._echelon

    def counted_echelon(rows):
        eliminations.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    for c in complexes_:
        eliminations.clear()
        fc = FilteredComplex(c, [])
        assert len(eliminations) == 2 * len(c._differentials)
        assert fc.basis_levels == {k: [0] * c.dim(k) for k in c.degrees()}
        assert fc.adapted_differentials == c._differentials
        eliminations.clear()
        spectral_sequence(fc)
        assert not eliminations


def test_two_step_filtration_of_acyclic_complex():
    c = two_term_identity()
    fc = stupid_filtration(c)
    assert total_dims(spectral_sequence(fc)[-1]) == {}


def test_stupid_filtration_circle():
    c = circle_complex()
    fc = stupid_filtration(c)
    pages = spectral_sequence(fc)
    e1 = pages[1]
    assert e1.entry(0, 0) == 3 and e1.entry(1, 0) == 3  # E_1^{p,0} = C^p
    assert fc.first_nonzero_differential == 1
    # degenerates at E_2 with totals (1, 1)
    assert all(m.is_zero() for m in pages[2].differentials.values())
    assert total_dims(pages[-1]) == {0: 1, 1: 1}


def test_engineered_nonzero_d1():
    c = two_term_identity()
    levels = [{0: RationalMatrix.zeros(1, 0), 1: RationalMatrix.identity(1)}]
    assert FilteredComplex(c, levels).first_nonzero_differential == 1


def test_e_infinity_totals_match_cohomology_random():
    rng = random.Random(204)
    for _ in range(15):
        c = random_complex(rng, 6)
        fc = stupid_filtration(c)
        assert total_dims(spectral_sequence(fc)[-1]) == \
               {k: v for k, v in cohomology_dims(c).items() if v}


def test_les_of_subcomplex_inclusion():
    # a non-null-homotopic map: include the degree >= 1 part of the circle
    c = circle_complex()
    sub = CochainComplex({0: 0, 1: 3}, {})
    incl = ChainMap(sub, c, {1: RationalMatrix.identity(3)})
    report = long_exact_sequence(incl)
    assert report.exact
    # the cone retracts onto the degree-0 cochains; H^1 is killed
    assert report.cone_cohomology == {-1: 0, 0: 3, 1: 0}


def test_spectral_sequence_of_boundary_subcomplex_filtration():
    # a filtration whose level is not coordinate-aligned: F^1 = image of d
    rng = random.Random(206)
    from loghodgelab.linalg import column_space_basis
    for _ in range(10):
        c = random_complex(rng, 7)
        level = {k: column_space_basis(c.differential(k - 1)) for k in c.degrees()}
        fc = FilteredComplex(c, [level])
        assert total_dims(spectral_sequence(fc)[-1]) == \
               {k: v for k, v in cohomology_dims(c).items() if v}


def test_spectral_sequence_makes_no_fraction():
    """The pages come from integer products and eliminations alone, on the
    circle fixture's own filtration and on one level of true fractions."""
    c, filtration = load_generic_complex(json.loads((FIXTURES / "circle_complex.json").read_text()))
    slanted = FilteredComplex(c, [
        {0: RationalMatrix.from_rows([[Fraction(1, 2)], [Fraction(-1, 3)], [1]]),
         1: RationalMatrix.identity(3)}])
    for fc in (FilteredComplex(c, filtration), slanted):
        with counting_fractions() as made:
            pages = spectral_sequence(fc)
        assert not made
        assert total_dims(pages[-1]) == {0: 1, 1: 1}


def test_page_differentials_compose_to_zero():
    # on the reduction and on the subquotient engine kept as its oracle
    for engine in (spectral_sequence, ss_oracle.spectral_sequence):
        rng = random.Random(205)
        for _ in range(10):
            c = random_complex(rng, 7)
            pages = engine(stupid_filtration(c))
            for page in pages:
                for (p, q), first in page.differentials.items():
                    second = page.differentials.get((p + page.r, q - page.r + 1))
                    if second is not None:
                        assert (second * first).is_zero()


def test_stupid_filtration_first_page_is_column_dims():
    # E_1^{p, lo} of the degreewise filtration is the whole column C^{lo+p}
    rng = random.Random(207)
    for _ in range(10):
        c = random_complex(rng, 7)
        lo = c.min_degree
        e1 = spectral_sequence(stupid_filtration(c))[1]
        expected = {(p, lo): c.dim(lo + p)
                    for p in range(c.max_degree - lo + 1) if c.dim(lo + p)}
        assert e1.entries == expected
