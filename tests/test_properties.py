"""Hypothesis properties of chain maps, cones, long exact sequences and
spectral sequences on random complexes (test-only dependency)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from loghodgelab.complexes import (
    cohomology_dims,
    long_exact_sequence,
    mapping_cone,
    spectral_sequence,
)

from helpers import (identity_chain_map, plus_identity_map, random_chain_map, random_complex,
                     random_filtration)

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
    assert spectral_sequence(fc)[-1].total_dims() == \
        {k: v for k, v in cohomology_dims(c).items() if v}
