"""The persistence reduction of ``spectral_sequence`` against the subquotient
engine kept in ``ss_oracle``: pages, nonzero differentials, the
degeneration verdict and the E_infinity totals must agree on seeded random
filtrations and on the fixtures."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from loghodgelab import complexes, jsonio, linalg, trop
from loghodgelab.complexes import CochainComplex, FilteredComplex, spectral_sequence
from loghodgelab.conecx import build_cone_complex
from loghodgelab.linalg import RationalMatrix, rank

import ss_oracle
from ss_oracle import degeneration_check
from helpers import random_complex, random_filtration, random_filtration_levels, random_matrix

FIXTURES = Path(__file__).parent / "fixtures"


def assert_same_pages(pages, expected):
    assert [p.to_json_dict() for p in pages] == [p.to_json_dict() for p in expected]
    assert degeneration_check(pages) == degeneration_check(expected)
    for page, other in zip(pages, expected):
        assert {pq: (m.rows, m.cols) for pq, m in page.differentials.items()} == \
               {pq: (m.rows, m.cols) for pq, m in other.differentials.items()}


def test_random_filtrations_match_oracle():
    rng = random.Random(901)
    first_nonzero = set()
    for _ in range(120):
        c = random_complex(rng, 10)
        fc = random_filtration(rng, c, rng.randint(1, 5))
        r_max = rng.choice([None, 0, 1, 3, 8])
        pages = spectral_sequence(fc, r_max)
        assert_same_pages(pages, ss_oracle.spectral_sequence(fc, r_max))
        # the verdict and totals made with fc, against the oracle's stable page
        stable = ss_oracle.spectral_sequence(fc)
        first = fc.first_nonzero_differential
        assert degeneration_check(stable) == (first is None, first)
        assert fc.e_infinity_totals == stable[-1].total_dims()
        # pages cut at r_max show the verdict once it is on them
        shown = fc.depth + 1 if r_max is None else r_max
        assert degeneration_check(pages) == \
            ((True, None) if first is None or first > shown else (False, first))
        first_nonzero.add(first)
    # the generator reaches a first nonzero d_r on every page it can
    assert first_nonzero >= {None, 1, 2, 3, 4}


@pytest.mark.parametrize("complex_file, weights_file, thresholds", [
    ("ex42.json", "ex42_cell_weights.json", None),
    ("ex42.json", "ex42_cell_weights.json", [2]),
    ("wedge_fan.json", "w111.json", None),
    ("wedge_fan.json", "w131.json", None),
])
def test_trop_fixtures_match_oracle(complex_file, weights_file, thresholds, monkeypatch):
    complex_ = build_cone_complex(jsonio.load_intersection_data(
        json.loads((FIXTURES / complex_file).read_text())))
    ray_w, cell_w = jsonio.load_weights(json.loads((FIXTURES / weights_file).read_text()))
    weights = ray_w if ray_w is not None else jsonio.cell_weights_for(complex_, cell_w)
    t = trop.weighted_complex(complex_, weights)
    report = trop.weight_filtration_ss(t, thresholds).to_json_dict()
    monkeypatch.setattr(trop, "spectral_sequence", ss_oracle.spectral_sequence)
    assert report == trop.weight_filtration_ss(t, thresholds).to_json_dict()


@pytest.mark.parametrize("r_max", [None, 0, 1, 3, 8])
def test_circle_fixture_matches_oracle(r_max):
    complex_, filtration = jsonio.load_generic_complex(
        json.loads((FIXTURES / "circle_complex.json").read_text()))
    fc = FilteredComplex(complex_, filtration)
    assert_same_pages(spectral_sequence(fc, r_max), ss_oracle.spectral_sequence(fc, r_max))


def test_next_page_is_cohomology_of_its_differentials():
    # E_{r+1}^{p,q} = dim ker d_r^{p,q} - rank d_r^{p-r,q+r-1}, on the
    # reduction's own d_r matrices
    rng = random.Random(902)
    for _ in range(60):
        c = random_complex(rng, 10)
        pages = spectral_sequence(random_filtration(rng, c, rng.randint(1, 5)), 8)
        for page, following in zip(pages, pages[1:]):
            r = page.r
            for (p, q), n in page.entries.items():
                out = page.differential(p, q)
                inc = page.differential(p - r, q + r - 1)
                expected = n - rank(out) - (rank(inc) if inc is not None else 0)
                assert following.entry(p, q) == expected


def test_persistence_pairs_match_fraction_column_reduction():
    """The pairing read off `leading_columns` of the reordered X^T against
    the Fraction column reduction it replaced, pair for pair and in order, on
    seeded X with random levels: sparse, dense, low-rank (a product through
    a narrow middle) and empty."""
    rng = random.Random(903)
    total = 0
    for t in range(1500):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        depth = rng.randint(1, 4)
        if t % 3 == 0:
            inner = rng.randint(0, 3)
            x = random_matrix(rng, rows, inner) * random_matrix(rng, inner, cols)
        else:
            density = rng.choice((0.2, 0.5, 0.9))
            x = RationalMatrix(rows, cols, {
                (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for i in range(rows) for j in range(cols) if rng.random() < density})
        col_level = [rng.randrange(depth) for _ in range(cols)]
        row_level = [rng.randrange(depth) for _ in range(rows)]
        pairs = complexes._persistence_pairs(x, col_level, row_level)
        assert pairs == ss_oracle.persistence_pairs(x, col_level, row_level)
        total += len(pairs)
    assert total > 2000


def test_elimination_count_pinned(monkeypatch):
    """C = Q^3 -> Q -> Q^2 -> Q^3 in degrees 1..4 with d_1, d_3 nonzero and a
    depth-4 filtration whose first nonzero differential is d_2.  Checking the
    filtration and reducing it take 16 eliminations for ranks, kernels and
    pivots: 12 pivot passes (depth - 1 = 3 per degree, one per pair
    [F^{p+1} | F^p] of consecutive levels, F^0 = C included), 2 solves for
    X_k (one per nonzero d) and the 2 ranks of the E_infinity check (one per
    nonzero d; a zero d has rank 0 without an elimination); and one
    `leading_columns` call per nonzero d, which is the persistence pairing.
    All are made when the filtered complex is built, on a complex whose
    ranks are not yet kept; rendering the pages makes none.  The subquotient
    oracle in `ss_oracle` takes 584 eliminations and no pairing on the
    checked filtration."""
    rng = random.Random(931)
    c = random_complex(rng, 10)
    levels = random_filtration_levels(rng, c, 4)
    assert c.dims == {1: 3, 2: 1, 3: 2, 4: 3}
    assert FilteredComplex(c, levels).first_nonzero_differential == 2
    fresh = CochainComplex(c.dims, c._differentials)
    eliminations, pairings = [], []
    echelon, leading_columns = linalg._echelon, linalg.leading_columns

    def counted_echelon(rows):
        eliminations.append(rows)
        return echelon(rows)

    def counted_leading_columns(m):
        pairings.append(m)
        return leading_columns(m)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(complexes, "leading_columns", counted_leading_columns)
    fc = FilteredComplex(fresh, levels)
    assert (len(eliminations) - len(pairings), len(pairings)) == (16, 2)
    spectral_sequence(fc)
    assert (len(eliminations) - len(pairings), len(pairings)) == (16, 2)
    eliminations.clear()
    pairings.clear()
    ss_oracle.spectral_sequence(fc)
    assert (len(eliminations), len(pairings)) == (584, 0)
