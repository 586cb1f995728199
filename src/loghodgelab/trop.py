"""Weighted tropical cochain complexes on a cone complex.

The weighted coboundary

    (d_w f)(cell) = sum over facets of sign * (w(facet) / w(cell)) * f(facet)

is D^-1 d D, for d the cone cochains and D the diagonal of the positive
cell weights.  D is an isomorphism of complexes that maps every sublevel
space {cells with w >= t} onto itself, and a column reduction is unchanged
by nonzero row and column scalings (Zomorodian-Carlsson 2005), so the
persistence pairs, gaps, pages, 0/1 differentials d_r and E_infinity are
the same on d and on D^-1 d D.  The reports therefore run on the cone
cochains, built and checked once by `ConeComplex`; the weights enter only
through each cell's level (the number of thresholds at or below its
weight) and the default thresholds.  D^-1 d D itself is built only when
``WeightedTropComplex.complex`` is read.  The cell basis is adapted to the
filtration, so the levels enter `coordinate_filtration` as they are; its
core alone finds the least threshold whose sublevel set is not a
subcomplex, and only then is the facet/cofacet pair to name looked up.
First-page degeneration is reported as an observation, never assumed.

Weights are per cell: each cell carries its own positive rational.  Ray
weights are summed over each cell's components; they strictly increase with
cell dimension, so every sublevel set is a subcomplex.  The constant weight
1 reproduces the simplicial coboundary matrix for matrix.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complexes import (
    CochainComplex,
    FiltrationError,
    SpectralSequencePage,
    _total_complex,
    cohomology_dims,
    coordinate_filtration,
    spectral_sequence,
)
from .conecx import Cell, ConeComplex
from .weights import WeightFunction


class TropError(ValueError):
    pass


@dataclass
class CellWeights:
    """A positive rational for every cell of a complex; ints become
    Fractions, Fractions are kept as given."""

    values: dict[Cell, Fraction]

    def __post_init__(self):
        self.values = {cell: v if type(v) is Fraction else Fraction(v)
                       for cell, v in self.values.items()}

    @classmethod
    def constant(cls, c: ConeComplex) -> "CellWeights":
        return cls({cell: Fraction(1) for cell in c.all_cells()})

    def value(self, cell: Cell) -> Fraction:
        if cell not in self.values:
            raise TropError(f"missing weight for cell {cell.key()}")
        return self.values[cell]


@dataclass
class WeightedTropComplex:
    base: ConeComplex
    weights: CellWeights

    def cell_weight(self, cell: Cell) -> Fraction:
        return self.weights.value(cell)

    @cached_property
    def complex(self) -> CochainComplex:
        """The weighted coboundary, one arrow sign * w(facet) / w(cell) per
        face map entry, built on first read; no report reads it."""
        c, w = self.base, self.weights.values
        return _total_complex({p: c.cells(p) for p in range(c.max_dim + 1)},
                              lambda face: ((cell, sign * w[face] / w[cell])
                                            for cell, sign in c.cofaces(face)))


def weighted_complex(c: ConeComplex, w: WeightFunction | CellWeights) -> WeightedTropComplex:
    """The cone complex with a positive weight on every cell: ray weights
    are summed over each cell's components."""
    weights = (CellWeights({cell: w.cell_value(cell) for cell in c.all_cells()})
               if isinstance(w, WeightFunction) else w)
    for cell in c.all_cells():
        value = weights.value(cell)
        if value <= 0:
            raise TropError(f"weight at cell {cell.key()} must be positive, got {value}")
    return WeightedTropComplex(c, weights)


def tropical_cohomology(t: WeightedTropComplex) -> dict[int, int]:
    """The cohomology of the cone cochains, which the weights do not change."""
    return cohomology_dims(t.base.cochain_complex())


@dataclass
class TropSpectralReport:
    thresholds: list[Fraction]
    pages: list[SpectralSequencePage]
    degenerates_at_e1: bool
    first_nonzero_differential: int | None
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


def weight_filtration_ss(t: WeightedTropComplex,
                         thresholds: Sequence[Fraction] | None = None) -> TropSpectralReport:
    """Filtration by sublevel sets {w >= threshold}, one level per threshold,
    on the cone cochains (module docstring).

    Each sublevel set must span a subcomplex; a violation names the
    offending facet/cofacet pair.  Degeneration at the first page is
    recorded as an observation.
    """
    if thresholds is None:
        thresholds = default_thresholds(t)
    thresholds = sorted(Fraction(x) for x in thresholds)
    if len(set(thresholds)) != len(thresholds):
        raise TropError("thresholds must be distinct")
    # a cell lies in the sublevel sets of the thresholds at or below its weight
    c, d = t.base, t.base.cochain_complex()
    level = {cell: bisect_right(thresholds, t.cell_weight(cell)) for cell in c.all_cells()}
    try:
        fc = coordinate_filtration(d, {k: [level[cell] for cell in c.cells(k)]
                                       for k in d.degrees()}, len(thresholds) + 1)
    except FiltrationError as exc:
        # level p first fails at degree k: name the first pair in face-map
        # order of a facet at level >= p and a cofacet at level p - 1
        p, k = exc.at
        face, cell = next((face, cell) for cell in c.cells(k + 1) if level[cell] == p - 1
                          for face, _ in c.faces(cell) if level[face] >= p)
        threshold, wf, wc = thresholds[p - 1], t.cell_weight(face), t.cell_weight(cell)
        raise TropError(
            f"sublevel set at threshold {threshold} is not a subcomplex: facet {face.key()} "
            f"has weight {wf} >= {threshold} but its cofacet {cell.key()} has weight {wc} "
            f"< {threshold}; weights must not decrease from a cell to its cofacets above "
            f"the threshold") from None
    # fc has checked its E_infinity totals against the cohomology
    totals = fc.e_infinity_totals
    return TropSpectralReport(
        thresholds=list(thresholds),
        pages=spectral_sequence(fc),
        degenerates_at_e1=fc.first_nonzero_differential is None,
        first_nonzero_differential=fc.first_nonzero_differential,
        e_infinity_totals=totals,
        cohomology={k: totals.get(k, 0) for k in d.degrees()},
    )
