import random
from fractions import Fraction

import pytest

from loghodgelab import complexes, trop
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


def test_ray_weight_function_accepted_via_sum_convention():
    c = circle()
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(1), "H3": Fraction(1)})
    t = weighted_complex(c, w)
    assert t.cell_weight(Cell(("H1", "H2"))) == Fraction(2)
    assert tropical_cohomology(t) == {0: 1, 1: 1}


def test_nonpositive_weight_rejected():
    c = circle()
    weights = CellWeights.constant(c)
    weights.values[Cell(("H2",))] = Fraction(-1)
    with pytest.raises(TropError, match="positive"):
        weighted_complex(c, weights)


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
    assert e1.total_dims() == {0: 1, 1: 1}


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
