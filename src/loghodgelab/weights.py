"""Weight functions on a cone complex: positivity, convexity, and the
face-compatibility coefficients.

Conventions (also surfaced in the README):

* The value of a weight function on a cell is the value of its piecewise
  linear extension at the sum of the cell's primitive ray generators, i.e.
  the sum of the ray values over the cell's components.  This makes the
  cell-level and realization-level readings of a weight agree.
* "Convex" means the positively homogeneous PL extension is sublinear: the
  linear piece of each maximal cone under-estimates the weight on the rays
  of its neighbours (the toric support-function standard).
* The coefficients expressing a cell weight over its facet weights are the
  minimum-norm (proportional) solution

      c(cell, face) = w(cell) * w(face) / sum_f w(f)^2

  of the underdetermined identity w(cell) = sum_f c(cell, f) * w(f), which
  always exists for positive weights and is deterministic.  The identity
  itself puts no constraint on positive weights; the solver reports the
  solution rather than a pass/fail verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conecx import Cell, ConeComplex
from .linalg import RationalMatrix, rank, solve_rational


class WeightError(ValueError):
    pass


@dataclass
class WeightFunction:
    """Rational value per ray (0-cell component name); cell values derived."""

    ray_values: dict[str, Fraction]

    def __post_init__(self):
        self.ray_values = {name: Fraction(v) for name, v in self.ray_values.items()}

    def ray_value(self, ray: str) -> Fraction:
        if ray not in self.ray_values:
            raise WeightError(f"missing ray assignment for {ray!r}")
        return self.ray_values[ray]

    def cell_value(self, cell: Cell) -> Fraction:
        first, *rest = (self.ray_value(c) for c in cell.components)
        return sum(rest, first)


@dataclass
class PositivityReport:
    valid: bool
    offenders: list[tuple[str, Fraction]]

    def to_json_dict(self) -> dict:
        return {"valid": self.valid,
                "offenders": [{"ray": r, "value": str(v)} for r, v in self.offenders]}


def validate_positivity(w: WeightFunction, c: ConeComplex) -> PositivityReport:
    """Every ray value must be > 0; offenders are listed by name."""
    offenders = []
    for cell in c.cells(0):
        ray = cell.components[0]
        value = w.ray_value(ray)   # raises on a missing assignment
        if value <= 0:
            offenders.append((ray, value))
    return PositivityReport(valid=not offenders, offenders=offenders)


@dataclass
class ConvexityViolation:
    cone: str
    neighbour: str
    ray: str
    linear_value: Fraction
    weight: Fraction

    def describe(self) -> str:
        return (f"linear extension of {self.cone} gives {self.linear_value} at ray "
                f"{self.ray} of {self.neighbour}, exceeding its weight {self.weight}")


@dataclass
class ConvexityReport:
    valid: bool
    violations: list[ConvexityViolation]
    incomparable: list[tuple[str, str, str]]  # (cone, neighbour, ray) not in span

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"cone": v.cone, "neighbour": v.neighbour, "ray": v.ray,
                 "linear_value": str(v.linear_value), "weight": str(v.weight)}
                for v in self.violations
            ],
            "incomparable": [
                {"cone": a, "neighbour": b, "ray": r} for a, b, r in self.incomparable
            ],
        }


def _maximal_cells(c: ConeComplex) -> list[Cell]:
    # a cell is maximal iff it is not a codimension-1 face of any other cell
    non_maximal = {face for cell in c.all_cells() for face, _ in c.faces(cell)}
    return sorted(cell for cell in c.all_cells() if cell not in non_maximal)


def validate_convexity(w: WeightFunction, c: ConeComplex) -> ConvexityReport:
    """Sublinearity across each pair of adjacent maximal cones sharing a facet.

    For adjacent maximal cells (s1, s2) the linear extension fixed by w on
    s1's rays must under-estimate w on every ray of s2.  Rays outside the
    span of s1's rays impose no constraint and are reported as incomparable.
    """
    if c.ray_coordinates is None:
        raise WeightError("convexity check needs ray coordinates on the complex")
    coords = c.ray_coordinates
    maximal = _maximal_cells(c)
    ray_matrix: dict[Cell, RationalMatrix] = {}
    for cell in maximal:
        columns = [coords[r] for r in cell.components]
        m = RationalMatrix.from_columns(columns, len(columns[0]))
        if rank(m) != len(cell.components):
            raise WeightError(
                f"non-simplicial maximal cone {cell.key()}: ray vectors are dependent")
        ray_matrix[cell] = m

    violations: list[ConvexityViolation] = []
    incomparable: list[tuple[str, str, str]] = []
    for s1 in maximal:
        facets1 = {face for face, _ in c.faces(s1)}
        for s2 in maximal:
            if s1 == s2:
                continue
            facets2 = {face for face, _ in c.faces(s2)}
            if not (facets1 & facets2):
                continue
            for ray in s2.components:
                if ray in s1.components:
                    continue
                coeffs = solve_rational(ray_matrix[s1], coords[ray])
                if coeffs is None:
                    incomparable.append((s1.key(), s2.key(), ray))
                    continue
                linear_value = sum(
                    (a * w.ray_value(r) for a, r in zip(coeffs, s1.components)),
                    Fraction(0))
                if linear_value > w.ray_value(ray):
                    violations.append(ConvexityViolation(
                        s1.key(), s2.key(), ray, linear_value, w.ray_value(ray)))
    return ConvexityReport(valid=not violations, violations=violations,
                           incomparable=incomparable)


def face_compatibility(w: WeightFunction, c: ConeComplex) -> dict[str, list[tuple[str, Fraction]]]:
    """Proportional coefficients over the codimension-1 faces of every cell
    of dimension >= 1; the defining identity is re-checked exactly."""
    out: dict[str, list[tuple[str, Fraction]]] = {}
    for p in sorted(c.cells_by_dim):
        if p == 0:
            continue
        for cell in c.cells(p):
            faces = sorted(face for face, _ in c.faces(cell))
            denom = sum((w.cell_value(f) ** 2 for f in faces), Fraction(0))
            if denom == 0:
                raise WeightError(
                    f"cannot express {cell.key()}: all facet weights vanish")
            wc = w.cell_value(cell)
            coeffs = [(f.key(), wc * w.cell_value(f) / denom) for f in faces]
            total = sum((coeff * w.cell_value(f) for f, (_, coeff) in zip(faces, coeffs)),
                        Fraction(0))
            if total != wc:
                raise WeightError("internal: proportional coefficients fail the identity")
            out[cell.key()] = coeffs
    return out
