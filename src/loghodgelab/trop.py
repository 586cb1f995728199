"""Weighted tropical cochain complexes on a cone complex.

The weighted coboundary is the diagonal conjugation of the simplicial one,

    (d_w f)(cell) = sum over facets of sign * (w(facet) / w(cell)) * f(facet),

so it squares to zero automatically and has the same cohomology dimensions
for every positive weight: the genuinely weighted information lives in the
sublevel filtration {cells with w >= t} and its spectral sequence, whose
first-page degeneration is reported as an experimental outcome, never
assumed.

Weights here are per cell: every cell of the tropical complex carries its
own positive rational.  A ray-level WeightFunction is accepted too and is
expanded with the usual sum convention (cell value = sum of its ray values);
note that such weights strictly increase with cell dimension, so every
sublevel set is automatically a subcomplex.  The constant per-cell weight 1
reproduces the unweighted simplicial coboundary matrix for matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .complexes import (
    CochainComplex,
    FilteredComplex,
    SpectralSequencePage,
    _total_complex,
    cohomology_dims,
    spectral_sequence,
)
from .conecx import Cell, ConeComplex
from .linalg import RationalMatrix
from .weights import WeightFunction


class TropError(ValueError):
    pass


@dataclass
class CellWeights:
    """A positive rational for every cell of a complex."""

    values: dict[Cell, Fraction]

    def __post_init__(self):
        self.values = {cell: Fraction(v) for cell, v in self.values.items()}

    @classmethod
    def constant(cls, c: ConeComplex) -> "CellWeights":
        return cls({cell: Fraction(1) for cell in c.all_cells()})

    @classmethod
    def from_weight_function(cls, c: ConeComplex, w: WeightFunction) -> "CellWeights":
        return cls({cell: w.cell_value(cell) for cell in c.all_cells()})

    def value(self, cell: Cell) -> Fraction:
        if cell not in self.values:
            raise TropError(f"missing weight for cell {cell.key()}")
        return self.values[cell]


Weights = Union[WeightFunction, CellWeights]


def _as_cell_weights(c: ConeComplex, w: Weights) -> CellWeights:
    if isinstance(w, WeightFunction):
        return CellWeights.from_weight_function(c, w)
    return w


@dataclass
class WeightedTropComplex:
    base: ConeComplex
    weights: CellWeights
    complex: CochainComplex

    def cell_weight(self, cell: Cell) -> Fraction:
        return self.weights.value(cell)


def weighted_complex(c: ConeComplex, w: Weights) -> WeightedTropComplex:
    """Twist the simplicial coboundary by the facet/cell weight ratio."""
    weights = _as_cell_weights(c, w)
    for cell in c.all_cells():
        value = weights.value(cell)
        if value <= 0:
            raise TropError(f"weight at cell {cell.key()} must be positive, got {value}")
    complex_ = _total_complex(
        {p: c.cells(p) for p in range(c.max_dim + 1)},
        lambda face: ((cell, sign * weights.value(face) / weights.value(cell))
                      for cell, sign in c.cofaces(face)))
    return WeightedTropComplex(c, weights, complex_)


def tropical_cohomology(t: WeightedTropComplex) -> dict[int, int]:
    return cohomology_dims(t.complex)


@dataclass
class TropSpectralReport:
    thresholds: list[Fraction]
    pages: list[SpectralSequencePage]
    degenerates_at_e1: bool
    first_nonzero_differential: Optional[int]
    e_infinity_totals: dict[int, int]
    cohomology: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "thresholds": [str(t) for t in self.thresholds],
            "pages": [p.to_json_dict() for p in self.pages],
            "degenerates_at_e1": self.degenerates_at_e1,
            "first_nonzero_differential": self.first_nonzero_differential,
            "e_infinity_totals": {str(k): v for k, v in sorted(self.e_infinity_totals.items())},
            "cohomology": {str(k): v for k, v in sorted(self.cohomology.items())},
        }


def default_thresholds(t: WeightedTropComplex) -> list[Fraction]:
    values = {t.cell_weight(cell) for cell in t.base.all_cells()}
    return sorted(values)


def _sublevel_indicator(t: WeightedTropComplex, threshold: Fraction) -> dict[int, RationalMatrix]:
    c = t.base
    return {p: RationalMatrix.identity(c.cell_count(p)).submatrix_columns(
                [i for i, cell in enumerate(c.cells(p)) if t.cell_weight(cell) >= threshold])
            for p in range(c.max_dim + 1)}


def _check_sublevel_closed(t: WeightedTropComplex, threshold: Fraction) -> None:
    c = t.base
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


def weight_filtration_ss(t: WeightedTropComplex,
                         thresholds: Optional[Sequence[Fraction]] = None) -> TropSpectralReport:
    """Filtration by sublevel sets {w >= threshold}, one level per threshold.

    Each sublevel set must span a subcomplex under the weighted coboundary;
    a violation names the offending facet/cofacet pair.  Degeneration at the
    first page is recorded as an observation.
    """
    if thresholds is None:
        thresholds = default_thresholds(t)
    thresholds = sorted(Fraction(x) for x in thresholds)
    if len(set(thresholds)) != len(thresholds):
        raise TropError("thresholds must be distinct")
    for threshold in thresholds:
        _check_sublevel_closed(t, threshold)
    fc = FilteredComplex(t.complex, [_sublevel_indicator(t, threshold) for threshold in thresholds])
    # fc has checked its E_infinity totals against the cohomology
    totals = fc.e_infinity_totals
    return TropSpectralReport(
        thresholds=list(thresholds),
        pages=spectral_sequence(fc),
        degenerates_at_e1=fc.first_nonzero_differential is None,
        first_nonzero_differential=fc.first_nonzero_differential,
        e_infinity_totals=totals,
        cohomology={k: totals.get(k, 0) for k in t.complex.degrees()},
    )
