import json
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from loghodgelab import complexes, jsonio, linalg, trop
from loghodgelab.complexes import FiltrationError, cohomology_dims, spectral_sequence
from loghodgelab.conecx import Cell, IntersectionData, build_cone_complex, simplicial_cohomology
from loghodgelab.linalg import RationalMatrix
from loghodgelab.trop import (
    CellWeights,
    TropError,
    default_thresholds,
    tropical_cohomology,
    weight_filtration_ss,
    weighted_complex,
)
from loghodgelab.weights import WeightFunction

from helpers import (identity_submatrix_filtration, keyed_weighted_complex,
                     per_threshold_closure, total_dims)

FIXTURES = Path(__file__).parent / "fixtures"


def circle():
    cells = [Cell(("H1",)), Cell(("H2",)), Cell(("H3",)),
             Cell(("H1", "H2")), Cell(("H1", "H3")), Cell(("H2", "H3"))]
    return build_cone_complex(IntersectionData(["H1", "H2", "H3"], cells))


def two_simplex():
    cells = [Cell(("A",)), Cell(("B",)), Cell(("C",)),
             Cell(("A", "B")), Cell(("A", "C")), Cell(("B", "C")),
             Cell(("A", "B", "C"))]
    return build_cone_complex(IntersectionData(["A", "B", "C"], cells))


def random_cell_weights(rng, c):
    return CellWeights({cell: Fraction(rng.randint(1, 9), rng.randint(1, 6))
                        for cell in c.all_cells()})


def random_downward_closed_complex(rng):
    names = ["A", "B", "C", "D", "E"]
    closure = set()
    for _ in range(rng.randint(1, 7)):
        subset = tuple(sorted(rng.sample(names, rng.randint(1, 4))))
        n = len(subset)
        for mask in range(1, 2 ** n):
            closure.add(tuple(s for i, s in enumerate(subset) if mask >> i & 1))
    cells = [Cell(sub) for sub in sorted(closure)]
    return build_cone_complex(IntersectionData(names, cells))


def random_tagged_complex(rng):
    """A downward-closed set of strata on A..E in which some edges carry a
    second tag, so two cells share a subset."""
    c = random_downward_closed_complex(rng)
    cells = c.all_cells() + [Cell(cell.components, "1") for cell in c.cells(1)
                             if rng.random() < 0.3]
    return build_cone_complex(IntersectionData(["A", "B", "C", "D", "E"], cells))


# --- weighted coboundary ----------------------------------------------------------


def test_constant_weights_reproduce_simplicial_coboundary_exactly():
    c = circle()
    t = weighted_complex(c, CellWeights.constant(c))
    plain = c.cochain_complex()
    for p in range(c.max_dim):
        assert t.complex.differential(p) == plain.differential(p)


def test_weighted_coboundary_is_the_diagonal_conjugate_of_the_simplicial_one():
    # d_w,p = W_{p+1}^-1 d_p W_p, with W_p the diagonal of the p-cell weights
    rng = random.Random(605)
    for _ in range(8):
        c = random_downward_closed_complex(rng)
        weights = random_cell_weights(rng, c)
        t = weighted_complex(c, weights)
        plain = c.cochain_complex()

        def diagonal(p, power):
            return RationalMatrix(c.cell_count(p), c.cell_count(p),
                                  {(i, i): weights.value(cell) ** power
                                   for i, cell in enumerate(c.cells(p))})

        for p in range(c.max_dim):
            expected = diagonal(p + 1, -1) * plain.differential(p) * diagonal(p, 1)
            assert t.complex.differential(p).to_dense() == expected.to_dense(), p


def test_weighted_differentials_equal_the_keyed_route():
    # entry for entry, with cell weights and with ray weights summed over cells
    rng = random.Random(606)
    entries = 0
    for n in range(80):
        c = random_tagged_complex(rng)
        if n % 2:
            weights = random_cell_weights(rng, c)
            cell_weights = weights
        else:
            weights = WeightFunction({cell.components[0]: Fraction(rng.randint(1, 9),
                                                                   rng.randint(1, 6))
                                      for cell in c.cells(0)})
            cell_weights = CellWeights({cell: weights.cell_value(cell)
                                        for cell in c.all_cells()})
        got = weighted_complex(c, weights).complex
        expected = keyed_weighted_complex(c, cell_weights)
        assert got.dims == expected.dims
        for k in expected.degrees():
            assert got.differential(k) == expected.differential(k)
            assert got.differential(k).to_dense() == expected.differential(k).to_dense()
            entries += len(expected.differential(k).entries)
    assert entries > 1000


def test_d_squared_is_checked_once_per_cone_complex(monkeypatch):
    # by the cone complex's face maps; the reports build no weighted complex
    built = []
    init = complexes.CochainComplex.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(complexes.CochainComplex, "__init__", counted)
    c = two_simplex()
    assert len(built) == 1
    t = weighted_complex(c, CellWeights({cell: Fraction(cell.dim + 1) for cell in c.all_cells()}))
    weight_filtration_ss(t)
    assert len(built) == 1


def test_ray_weight_function_accepted_via_sum_convention():
    c = circle()
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(1), "H3": Fraction(1)})
    t = weighted_complex(c, w)
    assert t.cell_weight(Cell(("H1", "H2"))) == Fraction(2)
    assert tropical_cohomology(t) == {0: 1, 1: 1}


def test_nonpositive_weight_rejected():
    c = circle()
    for value in (Fraction(-1), Fraction(0)):
        weights = CellWeights.constant(c)
        weights.values[Cell(("H2",))] = value
        with pytest.raises(TropError, match=f"weight at cell H2#0 must be positive, got {value}"):
            weighted_complex(c, weights)
    # ray weights summed over each cell: the first nonpositive sum is named
    for h2 in (0, -1):
        with pytest.raises(TropError, match=f"weight at cell H2#0 must be positive, got {h2}"):
            weighted_complex(c, WeightFunction({"H1": 1, "H2": h2, "H3": 1}))


def test_circle_cohomology_any_weight():
    c = circle()
    rng = random.Random(601)
    for _ in range(10):
        t = weighted_complex(c, random_cell_weights(rng, c))
        assert tropical_cohomology(t) == {0: 1, 1: 1}


def test_two_simplex_contractible_any_weight():
    c = two_simplex()
    rng = random.Random(602)
    for _ in range(5):
        t = weighted_complex(c, random_cell_weights(rng, c))
        assert tropical_cohomology(t) == {0: 1, 1: 0, 2: 0}


def test_two_disjoint_vertices():
    c = build_cone_complex(IntersectionData(["D0", "Dinf"],
                                            [Cell(("D0",)), Cell(("Dinf",))]))
    t = weighted_complex(c, CellWeights({Cell(("D0",)): Fraction(2),
                                         Cell(("Dinf",)): Fraction(5, 3)}))
    assert tropical_cohomology(t) == {0: 2}


def test_weight_invariance_of_dims_random_complexes():
    rng = random.Random(603)
    for _ in range(8):
        c = random_downward_closed_complex(rng)
        reference = None
        for _ in range(5):
            t = weighted_complex(c, random_cell_weights(rng, c))
            dims = tropical_cohomology(t)
            if reference is None:
                reference = dims
            assert dims == reference
        assert reference == simplicial_cohomology(c)


# --- sublevel filtration spectral sequence ----------------------------------------------


def test_threshold_below_min_gives_trivial_filtration():
    c = circle()
    t = weighted_complex(c, CellWeights.constant(c))
    report = weight_filtration_ss(t, [Fraction(1, 2)])
    assert report.degenerates_at_e1
    assert report.e_infinity_totals == {0: 1, 1: 1}
    e1 = report.pages[1]
    assert total_dims(e1) == {0: 1, 1: 1}


def test_circle_edge_only_filtration():
    # weight 1 on vertices, 2 on edges; threshold 2 keeps the edges alone
    c = circle()
    weights = CellWeights({cell: Fraction(1 if cell.dim == 0 else 2)
                           for cell in c.all_cells()})
    t = weighted_complex(c, weights)
    assert default_thresholds(t) == [Fraction(1), Fraction(2)]
    report = weight_filtration_ss(t, [Fraction(2)])
    assert report.e_infinity_totals == {0: 1, 1: 1}


def test_decreasing_weights_rejected_with_diagnostic():
    # a heavy vertex above a light edge: its sublevel set is not d_w-closed
    c = circle()
    weights = CellWeights({cell: Fraction(10 if cell == Cell(("H1",)) else 1)
                           for cell in c.all_cells()})
    t = weighted_complex(c, weights)
    with pytest.raises(TropError, match="H1#0"):
        weight_filtration_ss(t, [Fraction(10)])


def closure_fault(check, t, thresholds):
    try:
        check(t, thresholds)
    except TropError as exc:
        return str(exc)
    return None


def test_one_pass_closure_raises_what_the_per_threshold_walk_raises():
    # weights that grow with dimension, some cells then made heavier than
    # their cofacets; thresholds among the weights and between them
    rng = random.Random(607)
    broken = Counter()
    for _ in range(500):
        c = random_tagged_complex(rng)
        values = {cell: Fraction(4 * cell.dim + rng.randint(1, 4), rng.randint(1, 2))
                  for cell in c.all_cells()}
        for cell in rng.sample(c.all_cells(), min(len(values), rng.randint(1, 4))):
            values[cell] += rng.randint(1, 10)
        t = weighted_complex(c, CellWeights(values))
        candidates = sorted(set(values.values()) | {Fraction(rng.randint(1, 60), rng.randint(1, 3))
                                                    for _ in range(4)})
        thresholds = sorted(rng.sample(candidates, rng.randint(1, min(9, len(candidates)))))
        expected = closure_fault(per_threshold_closure, t, thresholds)
        assert closure_fault(weight_filtration_ss, t, thresholds) == expected
        broken[sum(closure_fault(per_threshold_closure, t, [x]) is not None
                   for x in thresholds)] += 1
    assert all(broken[n] >= 10 for n in range(6)), broken


def random_admissible_weights(rng, c):
    """Ray weights, or cell weights that do not decrease from a cell to its
    cofacets (ties included), so that every sublevel set is a subcomplex."""
    if rng.random() < 0.5:
        return WeightFunction({cell.components[0]: Fraction(rng.randint(1, 5), rng.randint(1, 3))
                               for cell in c.cells(0)})
    values = {}
    for cell in c.all_cells():
        floor = max((values[face] for face, _ in c.faces(cell)), default=Fraction(0))
        values[cell] = floor + Fraction(rng.randint(0 if cell.dim else 1, 3), rng.randint(1, 2))
    return CellWeights(values)


def adapted_order(levels):
    """The columns of the identity that the pivot passes put into B_k: the
    deepest level first, by index within a level."""
    return sorted(range(len(levels)), key=lambda j: (-levels[j], j))


def test_cell_levels_match_the_identity_submatrix_route(monkeypatch):
    # 0-4 thresholds among the weights, between them and outside their range
    made = []

    def kept(*args):
        made.append(coordinate_filtration(*args))
        return made[-1]

    coordinate_filtration = trop.coordinate_filtration
    monkeypatch.setattr(trop, "coordinate_filtration", kept)
    rng = random.Random(608)
    seen = Counter()
    for _ in range(240):
        c = random_tagged_complex(rng)
        t = weighted_complex(c, random_admissible_weights(rng, c))
        values = sorted({t.cell_weight(cell) for cell in c.all_cells()})
        candidates = values + [values[0] / 2, values[-1] + 1] + [
            (a + b) / 2 for a, b in zip(values, values[1:])]
        thresholds = rng.sample(candidates, min(len(candidates), rng.randint(0, 4)))
        report = weight_filtration_ss(t, thresholds)
        cohomology = tropical_cohomology(t)
        # neither report builds the weighted complex; the pivot route reads it
        assert "complex" not in vars(t)
        fc, expected = made[-1], identity_submatrix_filtration(t, thresholds)
        assert cohomology == cohomology_dims(t.complex)
        assert [page.to_json_dict() for page in report.pages] == \
               [page.to_json_dict() for page in spectral_sequence(expected)]
        assert report.e_infinity_totals == expected.e_infinity_totals
        assert report.first_nonzero_differential == expected.first_nonzero_differential
        assert fc.levels == expected.levels
        # X_k is the plain d_k; the pivot route's B_k permutes the cells, and
        # its X_k, on the weighted complex, has the same nonzero pattern
        order = {k: adapted_order(levels) for k, levels in fc.basis_levels.items()}
        assert {k: [levels[j] for j in order[k]] for k, levels in fc.basis_levels.items()} == \
               expected.basis_levels
        assert fc.adapted_differentials.keys() == expected.adapted_differentials.keys()
        for k, x in fc.adapted_differentials.items():
            assert x == c.cochain_complex().differential(k)
            assert set(x.submatrix_rows(order[k + 1]).submatrix_columns(order[k]).entries) == \
                   set(expected.adapted_differentials[k].entries)
        seen[len(thresholds), report.first_nonzero_differential] += 1
    assert {n for n, _ in seen} == {0, 1, 2, 3, 4}
    assert {first for _, first in seen} >= {None, 1, 2}, seen


def test_the_subcomplex_check_runs_on_the_cell_levels():
    # on trop's cell levels the filtered complex refuses a sublevel set that
    # is not a subcomplex as the pivot route does, and ``at`` names the level
    # and degree; trop then names the pair that the per-threshold walk names
    rng = random.Random(609)
    outcomes = Counter()
    for n in range(200):
        c = random_tagged_complex(rng)
        weights = random_cell_weights(rng, c) if n % 4 else random_admissible_weights(rng, c)
        t = weighted_complex(c, weights)
        values = sorted({t.cell_weight(cell) for cell in c.all_cells()})
        thresholds = sorted(rng.sample(values, min(len(values), rng.randint(1, 3))))
        levels = {k: [bisect_right(thresholds, t.cell_weight(cell)) for cell in c.cells(k)]
                  for k in c.cochain_complex().degrees()}
        expected = closure_fault(per_threshold_closure, t, thresholds)
        assert closure_fault(weight_filtration_ss, t, thresholds) == expected
        try:
            identity_submatrix_filtration(t, thresholds)
        except FiltrationError as exc:
            with pytest.raises(FiltrationError) as raised:
                complexes.coordinate_filtration(c.cochain_complex(), levels, len(thresholds) + 1)
            p, k = raised.value.at
            assert str(raised.value) == str(exc) == (
                f"level {p} is not a subcomplex: d(F^{p} C^{k}) is not contained in "
                f"F^{p} C^{k + 1}")
            assert exc.at == (p, k)
            assert expected is not None and f"threshold {thresholds[p - 1]} " in expected
            outcomes[f"level {p}"] += 1
            continue
        complexes.coordinate_filtration(c.cochain_complex(), levels, len(thresholds) + 1)
        assert expected is None
        outcomes["accepted"] += 1
    assert all(outcomes[key] >= 10 for key in ("level 1", "level 2", "accepted")), outcomes


def test_cell_levels_make_one_pairing_and_one_rank_per_nonzero_differential(monkeypatch):
    """On ex42 with its cell weights: no pivot pass and no solve, so the only
    eliminations are one `column_lows` and one `rank` (of the E_infinity
    check) per nonzero differential."""
    complex_ = build_cone_complex(jsonio.load_intersection_data(
        json.loads((FIXTURES / "ex42.json").read_text())))
    _, cell_w = jsonio.load_weights(json.loads((FIXTURES / "ex42_cell_weights.json").read_text()))
    t = weighted_complex(complex_, CellWeights(
        {complex_.find_cell(key): v for key, v in cell_w.items()}))
    calls = {"_echelon": [], "column_lows": [], "rank": []}

    def counted(module, name):
        original = getattr(module, name)

        def count(*args):
            calls[name].append(args)
            return original(*args)

        monkeypatch.setattr(module, name, count)

    counted(linalg, "_echelon")
    counted(complexes, "column_lows")
    counted(complexes, "rank")
    report = weight_filtration_ss(t)
    nonzero = len(t.complex._differentials)
    assert (nonzero, report.first_nonzero_differential) == (1, 1)
    assert {name: len(args) for name, args in calls.items()} == \
           {"_echelon": 2 * nonzero, "column_lows": nonzero, "rank": nonzero}


def test_e_infinity_totals_match_cohomology_for_admissible_thresholds():
    rng = random.Random(604)
    for _ in range(6):
        c = random_downward_closed_complex(rng)
        # dimension-graded weights: every sublevel set is a subcomplex
        weights = CellWeights({cell: Fraction(cell.dim + 1) for cell in c.all_cells()})
        t = weighted_complex(c, weights)
        report = weight_filtration_ss(t)
        assert report.e_infinity_totals == \
               {k: v for k, v in tropical_cohomology(t).items() if v}
        assert report.cohomology == tropical_cohomology(t)


def test_trop_ss_computes_the_cohomology_once(monkeypatch):
    # the E_infinity check inside spectral_sequence is the only cohomology_dims call
    calls = []
    cohomology_dims = complexes.cohomology_dims

    def counted(c):
        calls.append(c)
        return cohomology_dims(c)

    monkeypatch.setattr(complexes, "cohomology_dims", counted)
    monkeypatch.setattr(trop, "cohomology_dims", counted)
    c = circle()
    t = weighted_complex(c, CellWeights({cell: Fraction(cell.dim + 1)
                                         for cell in c.all_cells()}))
    for thresholds in (None, [Fraction(2)]):
        report = weight_filtration_ss(t, thresholds)
        assert report.cohomology == {0: 1, 1: 1}
    assert len(calls) == 2


def test_default_thresholds_are_distinct_cell_weights():
    c = two_simplex()
    weights = CellWeights({cell: Fraction(cell.dim + 1) for cell in c.all_cells()})
    t = weighted_complex(c, weights)
    assert default_thresholds(t) == [Fraction(1), Fraction(2), Fraction(3)]
