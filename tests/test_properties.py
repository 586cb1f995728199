"""Hypothesis properties of chain maps, cones, long exact sequences and
spectral sequences on random complexes, and of the canonical JSON encoder
on random documents (test-only dependency)."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from loghodgelab.complexes import (
    cohomology_dims,
    long_exact_sequence,
    mapping_cone,
    spectral_sequence,
)
from loghodgelab.jsonio import (canonical_json, load_generic_complex, load_nilpotent_matrix,
                                parse_rational)
from loghodgelab.linalg import RationalMatrix

from helpers import (identity_chain_map, plus_identity_map, random_chain_map, random_complex,
                     random_filtration, total_dims)

# Deterministic and bounded: each property runs the same examples every time.
bounded = settings(derandomize=True, database=None, max_examples=30, deadline=None)
rngs = st.randoms(use_true_random=False)


@bounded
@given(rngs)
def test_null_homotopic_maps_commute(rng):
    a = random_complex(rng, 6)
    b = random_complex(rng, 6)
    f = random_chain_map(rng, a, b)
    for k in range(min(a.min_degree, b.min_degree) - 1, max(a.max_degree, b.max_degree) + 1):
        assert b.differential(k) * f.component(k) == f.component(k + 1) * a.differential(k)


@bounded
@given(rngs)
def test_cone_of_identity_is_acyclic(rng):
    c = random_complex(rng)
    assert not any(cohomology_dims(mapping_cone(identity_chain_map(c))).values())


@bounded
@given(rngs, st.booleans())
def test_long_exact_sequence_is_exact_at_every_node(rng, plus_identity):
    a = random_complex(rng, 6)
    f = plus_identity_map(rng, a) if plus_identity else \
        random_chain_map(rng, a, random_complex(rng, 6))
    report = long_exact_sequence(f)
    assert report.exact
    assert all(node.exact for node in report.nodes)


@bounded
@given(rngs, st.integers(1, 5))
def test_e_infinity_totals_are_the_cohomology(rng, depth):
    c = random_complex(rng, 10)
    fc = random_filtration(rng, c, depth)
    assert total_dims(spectral_sequence(fc)[-1]) == \
        {k: v for k, v in cohomology_dims(c).items() if v}


# strings with what JSON escapes or passes through: quotes, backslashes,
# control characters, non-ASCII text and lone surrogates
json_text = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é", "☃", "\U0001F600",
     "\ud800", "\udfff"])), max_size=8)
big_ints = st.integers(min_value=2 ** 64) | st.integers(max_value=-2 ** 64)
json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | big_ints | json_text,
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(json_text, children, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(json_docs)
def test_canonical_json_is_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2,
                                              ensure_ascii=False) + "\n"


def random_rational_entry(rng):
    """An int, "-0", "0/7", or a rational string p or p/q with leading zeros
    and, for p/q, a common factor of p and q."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([rng.randint(-40, 40), rng.randint(-10 ** 30, 10 ** 30)])
    if kind == 1:
        return "-0"
    if kind == 2:
        return "0/7"
    p, zeros = rng.randint(-40, 40), "0" * rng.randint(0, 2)
    sign = "-" if p < 0 else ""
    if kind == 3:
        return f"{sign}{zeros}{abs(p)}"
    g = rng.randint(1, 4)
    return f"{sign}{zeros}{abs(p) * g}/{zeros}{rng.randint(1, 24) * g}"


def fraction_route(raw, rows, cols):
    """``raw`` as a matrix built from `parse_rational`'s Fractions."""
    return RationalMatrix(rows, cols, {(i, j): parse_rational(v, "/")
                                       for i, row in enumerate(raw) for j, v in enumerate(row)})


@bounded
@given(rngs, st.integers(1, 7), st.integers(0, 7))
def test_integer_row_loader_equals_the_fraction_route(rng, rows, cols):
    square = [[random_rational_entry(rng) for _ in range(rows)] for _ in range(rows)]
    assert load_nilpotent_matrix({"matrix": square}) == fraction_route(square, rows, rows)
    # a rows x cols differential, and its columns as the basis columns of a level
    raw = [[random_rational_entry(rng) for _ in range(cols)] for _ in range(rows)]
    expected = fraction_route(raw, rows, cols)
    complex_, filtration = load_generic_complex(
        {"min_degree": 0, "dims": [cols, rows], "differentials": [raw],
         "filtration": [[[], [list(column) for column in zip(*raw)]]]})
    assert complex_.differential(0) == expected
    assert filtration[0][0] == RationalMatrix.zeros(cols, 0)
    assert filtration[0][1] == expected
