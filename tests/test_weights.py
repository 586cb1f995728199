import random
from fractions import Fraction

import pytest

from loghodgelab.conecx import Cell, IntersectionData, build_cone_complex
from loghodgelab.weights import (
    WeightError,
    WeightFunction,
    face_compatibility,
    validate_convexity,
    validate_positivity,
)


def wedge_fan_complex():
    """Rays e1, e1+e2, e2 in Z^2 with two maximal 2-dimensional cells."""
    cells = [Cell(("a",)), Cell(("b",)), Cell(("c",)),
             Cell(("a", "b")), Cell(("b", "c"))]
    coords = {"a": (1, 0), "b": (1, 1), "c": (0, 1)}
    return build_cone_complex(IntersectionData(["a", "b", "c"], cells, coords))


def triangle_circle_complex():
    cells = [Cell(("H1",)), Cell(("H2",)), Cell(("H3",)),
             Cell(("H1", "H2")), Cell(("H1", "H3")), Cell(("H2", "H3"))]
    return build_cone_complex(IntersectionData(["H1", "H2", "H3"], cells))


# --- positivity -----------------------------------------------------------------


def test_positivity_all_ones():
    c = triangle_circle_complex()
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(1), "H3": Fraction(1)})
    assert validate_positivity(w, c).valid


def test_positivity_zero_named():
    c = triangle_circle_complex()
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(0), "H3": Fraction(1)})
    report = validate_positivity(w, c)
    assert not report.valid
    assert report.offenders == [("H2", Fraction(0))]


def test_positivity_mixed_rationals():
    c = triangle_circle_complex()
    w = WeightFunction({"H1": Fraction(1, 2), "H2": Fraction(3), "H3": Fraction(7, 5)})
    assert validate_positivity(w, c).valid


def test_positivity_missing_ray_raises():
    c = triangle_circle_complex()
    with pytest.raises(WeightError, match="H3"):
        validate_positivity(WeightFunction({"H1": Fraction(1), "H2": Fraction(1)}), c)


# --- convexity -----------------------------------------------------------------


def test_convexity_accepts_111_on_wedge_fan():
    c = wedge_fan_complex()
    w = WeightFunction({"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)})
    report = validate_convexity(w, c)
    assert report.valid and not report.violations


def test_convexity_rejects_131_on_wedge_fan():
    c = wedge_fan_complex()
    w = WeightFunction({"a": Fraction(1), "b": Fraction(3), "c": Fraction(1)})
    report = validate_convexity(w, c)
    assert not report.valid
    # ell on cone(a, b) is x + 2y, giving 2 > 1 at ray c
    hit = [v for v in report.violations if v.ray == "c" and v.cone == "a,b#0"]
    assert hit and hit[0].linear_value == Fraction(2) and hit[0].weight == Fraction(1)


def test_convexity_single_maximal_cone_vacuous():
    cells = [Cell(("a",)), Cell(("b",)), Cell(("a", "b"))]
    c = build_cone_complex(IntersectionData(
        ["a", "b"], cells, {"a": (1, 0), "b": (0, 1)}))
    w = WeightFunction({"a": Fraction(5), "b": Fraction(1, 7)})
    assert validate_convexity(w, c).valid


def test_convexity_requires_ray_coordinates():
    c = triangle_circle_complex()
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(1), "H3": Fraction(1)})
    with pytest.raises(WeightError, match="ray coordinates"):
        validate_convexity(w, c)


def test_convexity_invariant_under_rescaling():
    c = wedge_fan_complex()
    rng = random.Random(401)
    for _ in range(10):
        w = WeightFunction({k: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                            for k in ("a", "b", "c")})
        base = validate_convexity(w, c).valid
        for factor in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
            scaled = WeightFunction({k: v * factor for k, v in w.ray_values.items()})
            assert validate_convexity(scaled, c).valid == base


def test_p2_fan_all_ones_convex():
    cells = [Cell(("H1",)), Cell(("H2",)), Cell(("H3",)),
             Cell(("H1", "H2")), Cell(("H1", "H3")), Cell(("H2", "H3"))]
    coords = {"H1": (1, 0), "H2": (0, 1), "H3": (-1, -1)}
    c = build_cone_complex(IntersectionData(["H1", "H2", "H3"], cells, coords))
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(1), "H3": Fraction(1)})
    assert validate_convexity(w, c).valid


# --- face compatibility ------------------------------------------------------------


def test_face_compatibility_symmetric_edge():
    # w = 1 on rays, so the edge value is 2 under the sum convention and the
    # proportional rule gives the symmetric solution (1, 1): 1*1 + 1*1 = 2.
    c = triangle_circle_complex()
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(1), "H3": Fraction(1)})
    coeffs = face_compatibility(w, c)
    assert coeffs["H1,H2#0"] == [("H1#0", Fraction(1)), ("H2#0", Fraction(1))]


def test_face_compatibility_proportional_rule():
    # cell weight 3 over faces of weights (1, 2): minimum-norm solution
    c = triangle_circle_complex()
    w = WeightFunction({"H1": Fraction(1), "H2": Fraction(2), "H3": Fraction(17)})
    coeffs = dict(face_compatibility(w, c)["H1,H2#0"])
    assert coeffs["H1#0"] == Fraction(3, 5)
    assert coeffs["H2#0"] == Fraction(6, 5)
    # identity holds exactly
    assert coeffs["H1#0"] * 1 + coeffs["H2#0"] * 2 == Fraction(3)


def test_face_compatibility_minimum_norm_oracle():
    # the proportional solution is the least-squares minimum-norm solution
    # c = w(cell) * u / |u|^2 for u the face-weight vector
    rng = random.Random(402)
    c = triangle_circle_complex()
    for _ in range(10):
        w = WeightFunction({k: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                            for k in ("H1", "H2", "H3")})
        for cell_key, coeffs in face_compatibility(w, c).items():
            cell = c.find_cell(cell_key)
            u = [w.cell_value(face) for face in sorted(f for f, _ in c.faces(cell))]
            norm2 = sum(x * x for x in u)
            expected = [w.cell_value(cell) * x / norm2 for x in u]
            assert [co for _, co in coeffs] == expected


def test_face_compatibility_single_face_forced():
    # one cell with a single facet: coefficient is forced to w(cell)/w(face)
    cells = [Cell(("A",)), Cell(("B",)), Cell(("A", "B"))]
    c = build_cone_complex(IntersectionData(["A", "B"], cells))
    w = WeightFunction({"A": Fraction(2), "B": Fraction(3)})
    coeffs = dict(face_compatibility(w, c)["A,B#0"])
    # identity: c_A * 2 + c_B * 3 = 5 with the proportional split
    assert coeffs["A#0"] * 2 + coeffs["B#0"] * 3 == Fraction(5)


def test_all_ones_passes_all_validators_on_wedge_fan():
    c = wedge_fan_complex()
    w = WeightFunction({k: Fraction(1) for k in ("a", "b", "c")})
    assert validate_positivity(w, c).valid
    assert validate_convexity(w, c).valid
    face_compatibility(w, c)  # raises on any inconsistency
