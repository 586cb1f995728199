import random

import pytest

from loghodgelab.conecx import (
    Cell,
    ConeComplexError,
    IntersectionData,
    build_cone_complex,
    simplicial_cohomology,
)

from helpers import to_intersection_data


def three_lines_data(rays=False) -> IntersectionData:
    """Plane minus three general lines: pairwise intersections, no triple point."""
    cells = [Cell(("H1",)), Cell(("H2",)), Cell(("H3",)),
             Cell(("H1", "H2")), Cell(("H1", "H3")), Cell(("H2", "H3"))]
    coords = {"H1": (1, 0), "H2": (0, 1), "H3": (-1, -1)} if rays else None
    return IntersectionData(["H1", "H2", "H3"], cells, coords)


def test_three_lines_complex_is_a_triangle_boundary():
    c = build_cone_complex(three_lines_data())
    assert c.cell_count(0) == 3
    assert c.cell_count(1) == 3
    assert c.cell_count(2) == 0
    assert simplicial_cohomology(c) == {0: 1, 1: 1}


def test_two_disjoint_components():
    data = IntersectionData(["D0", "Dinf"], [Cell(("D0",)), Cell(("Dinf",))])
    c = build_cone_complex(data)
    assert c.cell_count(0) == 2 and c.cell_count(1) == 0
    assert simplicial_cohomology(c) == {0: 2}


def test_single_component():
    c = build_cone_complex(IntersectionData(["D"], [Cell(("D",))]))
    assert c.cell_count(0) == 1
    assert simplicial_cohomology(c) == {0: 1}


def test_full_two_simplex_contractible():
    cells = [Cell(("A",)), Cell(("B",)), Cell(("C",)),
             Cell(("A", "B")), Cell(("A", "C")), Cell(("B", "C")),
             Cell(("A", "B", "C"))]
    c = build_cone_complex(IntersectionData(["A", "B", "C"], cells))
    assert simplicial_cohomology(c) == {0: 1, 1: 0, 2: 0}


def test_downward_closure_violation_names_subset():
    with pytest.raises(ConeComplexError, match=r"\('A', 'B'\)"):
        IntersectionData(["A", "B"], [Cell(("A",)), Cell(("A", "B"))])


def test_two_tags_banana_is_a_circle():
    # two components meeting in two points: 2 vertices, 2 edges
    cells = [Cell(("A",)), Cell(("B",)),
             Cell(("A", "B"), "0"), Cell(("A", "B"), "1")]
    c = build_cone_complex(IntersectionData(["A", "B"], cells))
    assert simplicial_cohomology(c) == {0: 1, 1: 1}


def test_ambiguous_face_tags_rejected():
    # a triple stratum whose (A,B) facet has two tags and no matching one
    cells = [Cell(("A",)), Cell(("B",)), Cell(("C",)),
             Cell(("A", "B"), "x"), Cell(("A", "B"), "y"),
             Cell(("A", "C"), "0"), Cell(("B", "C"), "0"),
             Cell(("A", "B", "C"), "0")]
    with pytest.raises(ConeComplexError, match="ambiguous face"):
        build_cone_complex(IntersectionData(["A", "B", "C"], cells))


def test_boundary_squared_zero_random():
    rng = random.Random(301)
    names = ["A", "B", "C", "D", "E"]
    for _ in range(25):
        chosen = set()
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(1, 4)
            subset = tuple(sorted(rng.sample(names, size)))
            chosen.add(subset)
        # close downward
        closure = set()
        for subset in chosen:
            n = len(subset)
            for mask in range(1, 2 ** n):
                sub = tuple(s for i, s in enumerate(subset) if mask >> i & 1)
                closure.add(sub)
        cells = [Cell(sub) for sub in sorted(closure)]
        data = IntersectionData(names, cells)
        c = build_cone_complex(data)  # constructor enforces d^2 = 0
        # each entry of d_p is the sum of the signs of its face map entries
        for p in range(c.max_dim):
            d = c.cochain_complex().differential(p)
            for cell in c.cells(p + 1):
                for face in c.cells(p):
                    expected = sum(sign for f, sign in c.faces(cell) if f == face)
                    assert d.at(c.cells(p + 1).index(cell), c.cells(p).index(face)) == expected
        # Euler characteristic equals alternating stratum count
        expected = sum((-1) ** (len(s) - 1) for s in closure)
        assert c.euler_characteristic() == expected


def test_nonprimitive_ray_rejected():
    cells = [Cell(("A",))]
    with pytest.raises(ConeComplexError, match="primitive"):
        build_cone_complex(IntersectionData(["A"], cells, {"A": (2, 4)}))


def test_roundtrip_through_intersection_data():
    c = build_cone_complex(three_lines_data(rays=True))
    again = build_cone_complex(to_intersection_data(c))
    assert again.all_cells() == c.all_cells()
    assert again.ray_coordinates == c.ray_coordinates
    assert simplicial_cohomology(again) == simplicial_cohomology(c)
