import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from loghodgelab import linalg, toric
from loghodgelab.toric import (
    Fan,
    FanError,
    QDivisor,
    divisor_cohomology,
    e1_sum_check,
    hirzebruch,
    log_hodge_numbers,
    projective_line,
    projective_plane,
)
from loghodgelab.weights import WeightFunction

from helpers import (chamber_facets, reduced_cohomology, reference_character_box,
                     reference_divisor_cohomology, weight_divisor)

FIXTURES = Path(__file__).parent / "fixtures"


# closed forms on P^1, P^2 and P^3 used as oracles


def p2_h_oracle(d: int) -> tuple[int, int, int]:
    h0 = comb(d + 2, 2) if d >= 0 else 0
    h2 = comb(-d - 1, 2) if d <= -3 else 0
    return (h0, 0, h2)


def p1_h_oracle(d: int) -> tuple[int, int]:
    h0 = d + 1 if d >= 0 else 0
    h1 = -d - 1 if d <= -2 else 0
    return (h0, h1)


def p2_divisor(d: int) -> dict[int, int]:
    return {0: d, 1: 0, 2: 0}


def p3_h_oracle(d: int) -> tuple[int, int, int, int]:
    h0 = comb(d + 3, 3) if d >= 0 else 0
    h3 = comb(-d - 1, 3) if d <= -4 else 0
    return (h0, 0, 0, h3)


def projective_space_3() -> Fan:
    return Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
               list(combinations(range(4), 3)))


def p1_cubed() -> Fan:
    return Fan([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
               [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)])


def p2_times_p1() -> Fan:
    return Fan([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
               [cone + (top,) for cone in ((0, 1), (1, 2), (0, 2)) for top in (3, 4)])


def p3_blown_up_at_a_point() -> Fan:
    # the cone on rays 0, 1, 2 of P^3 subdivided at (1, 1, 1)
    return Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
               [(0, 1, 4), (1, 2, 4), (0, 2, 4), (0, 1, 3), (1, 2, 3), (0, 2, 3)])


def brute_force_cohomology(fan: Fan, divisor: dict[int, int]) -> dict[int, int]:
    """The per-character sum: one reduced complex, by elimination, for every
    lattice character of the character box widened by 2 on each side, with
    no cache and no sweep.  A character outside the box that contributes
    fails the test."""
    n = fan.rank
    box = toric.character_box(fan, divisor)
    out = {q: 0 for q in range(n + 1)}
    for m in product(*[range(lo - 2, hi + 3) for lo, hi in box]):
        vset = {i for i, ray in enumerate(fan.rays)
                if sum(a * b for a, b in zip(m, ray)) < -divisor[i]}
        reduced = reduced_cohomology(chamber_facets(fan, vset))
        if reduced:
            assert all(lo <= x <= hi for x, (lo, hi) in zip(m, box)), (m, box, divisor)
        for q_tilde, dim in reduced.items():   # q_tilde runs over -1 .. n - 1
            out[q_tilde + 1] += dim
    return out


# --- fan validation ------------------------------------------------------------


def test_incomplete_fan_rejected():
    with pytest.raises(FanError, match="complete"):
        Fan([(1, 0), (0, 1)], [(0, 1)])


def test_non_smooth_fan_rejected():
    # cone on (1,0), (1,2) has determinant 2
    with pytest.raises(FanError, match="smooth|unimodular"):
        Fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_non_primitive_ray_rejected():
    with pytest.raises(FanError, match="primitive"):
        Fan([(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_p2_double_cover_fan_rejected():
    # every facet lies in two cones on opposite sides, but the fan wraps the
    # plane twice
    doc = json.loads((FIXTURES / "p2_double_cover_fan.json").read_text())
    with pytest.raises(FanError, match="2 maximal cones.*overlap"):
        Fan(doc["rays"], doc["cones"])


def test_folded_fan_rejected():
    # three unimodular cones, every facet in two of them, all in the first
    # quadrant: at facet (0,) both cones lie on the same side
    with pytest.raises(FanError, match="same side"):
        Fan([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])


def test_missing_maximal_cones_rejected():
    with pytest.raises(FanError, match="complete"):
        Fan([(1,), (-1,)], [])


def test_ray_in_no_maximal_cone_rejected():
    # the cones of P^2 cover the plane; the extra ray (1, 1) lies in none
    with pytest.raises(FanError, match="ray 3 lies in no maximal cone"):
        Fan([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("rays, cones", [
    ([(1, 0, 0, 0), (-1, 0, 0, 0)], [(0,), (1,)]),
    ([(), ()], [(), ()]),
], ids=["rank-4", "rank-0"])
def test_fan_rank_outside_1_to_3_rejected(rays, cones):
    # the fan loader refuses these rays first; the constructor guards alone
    with pytest.raises(FanError, match=f"fan rank {len(rays[0])} not supported"):
        Fan(rays, cones)


def test_fan_edges_are_the_rays_sharing_a_maximal_cone():
    assert projective_line().edges == set()
    assert projective_plane().edges == {(0, 1), (1, 2), (0, 2)}
    assert hirzebruch(1).edges == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_standard_fans_construct():
    projective_line()
    projective_plane()
    hirzebruch(0)
    hirzebruch(1)
    hirzebruch(2)


def test_fans_and_character_boxes_make_no_elimination(monkeypatch):
    # every determinant a fan takes has size <= 3 and is expanded by
    # cofactors, so neither validation nor the character box eliminates
    eliminations = []
    echelon = linalg._echelon

    def counted_echelon(rows):
        eliminations.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    fans = [make() for _, make, _ in ORACLE_FANS]
    for name in ("p1_fan.json", "p2_fan.json"):
        doc = json.loads((FIXTURES / name).read_text())
        fans.append(Fan(doc["rays"], doc["cones"]))
    doc = json.loads((FIXTURES / "p2_double_cover_fan.json").read_text())
    with pytest.raises(FanError):
        Fan(doc["rays"], doc["cones"])
    for fan in fans:
        box = toric.character_box(fan, {i: 2 * i - 3 for i in range(len(fan.rays))})
        assert len(box) == fan.rank
    assert eliminations == []


# --- divisor cohomology ----------------------------------------------------------


def test_p2_canonical_divisor():
    h = divisor_cohomology(projective_plane(), p2_divisor(-3))
    assert (h[0], h[1], h[2]) == (0, 0, 1)


def test_p1_structure_sheaf():
    h = divisor_cohomology(projective_line(), {0: 0, 1: 0})
    assert (h[0], h[1]) == (1, 0)


def test_p2_hyperplane():
    h = divisor_cohomology(projective_plane(), p2_divisor(1))
    assert (h[0], h[1], h[2]) == (3, 0, 0)


def test_p2_range_against_closed_forms():
    fan = projective_plane()
    for d in range(-6, 7):
        h = divisor_cohomology(fan, p2_divisor(d))
        assert (h[0], h[1], h[2]) == p2_h_oracle(d), f"d={d}"


def test_p1_range_against_closed_forms():
    fan = projective_line()
    for d in range(-6, 7):
        h = divisor_cohomology(fan, {0: d, 1: 0})
        assert (h[0], h[1]) == p1_h_oracle(d), f"d={d}"


def test_p2_euler_characteristic_riemann_roch():
    fan = projective_plane()
    for d in range(-6, 7):
        h = divisor_cohomology(fan, p2_divisor(d))
        chi = h[0] - h[1] + h[2]
        assert chi == (d + 1) * (d + 2) // 2, f"d={d}"


def test_p2_serre_duality():
    fan = projective_plane()
    for d in range(-5, 6):
        h = divisor_cohomology(fan, p2_divisor(d))
        hd = divisor_cohomology(fan, p2_divisor(-3 - d))
        assert all(h[q] == hd[2 - q] for q in range(3)), f"d={d}"


def test_hirzebruch_nontrivial_h1():
    # rays 0 and 2 are the fibers; O(-2F) pulls back O(-2) from the base,
    # so h = (0, 1, 0)
    fan = hirzebruch(1)
    h = divisor_cohomology(fan, {0: -2, 1: 0, 2: 0, 3: 0})
    assert (h[0], h[1], h[2]) == (0, 1, 0)


def test_hirzebruch_anticanonical_h0():
    # -K on F_a is big and nef for a <= 2; on F_0 = P1 x P1, h^0(-K) = 9
    fan = hirzebruch(0)
    h = divisor_cohomology(fan, {0: 1, 1: 1, 2: 1, 3: 1})
    assert (h[0], h[1], h[2]) == (9, 0, 0)


def test_p3_against_closed_forms():
    fan = projective_space_3()
    for d in range(-7, 4):
        h = divisor_cohomology(fan, {0: d, 1: 0, 2: 0, 3: 0})
        assert tuple(h[q] for q in range(4)) == p3_h_oracle(d), f"d={d}"


def test_p3_serre_duality():
    fan = projective_space_3()
    for d in range(-6, 3):
        h = divisor_cohomology(fan, {0: d, 1: 0, 2: 0, 3: 0})
        hd = divisor_cohomology(fan, {0: -4 - d, 1: 0, 2: 0, 3: 0})
        assert all(h[q] == hd[3 - q] for q in range(4)), f"d={d}"


ORACLE_FANS = [("P1", projective_line, 20), ("P2", projective_plane, 12),
               ("F0", lambda: hirzebruch(0), 12), ("F1", lambda: hirzebruch(1), 12),
               ("F2", lambda: hirzebruch(2), 12), ("F3", lambda: hirzebruch(3), 12),
               ("P3", projective_space_3, 6), ("P1^3", p1_cubed, 6)]


@pytest.mark.parametrize("name,make,draws", ORACLE_FANS, ids=[f[0] for f in ORACLE_FANS])
def test_sweep_matches_brute_force(name, make, draws):
    fan = make()
    rng = random.Random(f"sweep-{name}")
    for _ in range(draws):
        divisor = {i: rng.randint(-4, 4) for i in range(len(fan.rays))}
        assert divisor_cohomology(fan, divisor) == brute_force_cohomology(fan, divisor), divisor


@pytest.mark.parametrize("facets,expected", [
    ([(0, 1), (1, 2), (0, 2)], {1: 1}),   # triangle boundary: a circle
    ([(0,), (1,), (2,)], {0: 2}),         # three points
    ([], {-1: 1}),                        # the empty complex
    ([(0, 1, 2)], {}),                    # full simplex: contractible
])
def test_reduced_cohomology_closed_forms(facets, expected):
    assert reduced_cohomology(facets) == expected


CHAMBER_FANS = [(name, make) for name, make, _ in ORACLE_FANS] + [
    ("P2xP1", p2_times_p1), ("BlP3", p3_blown_up_at_a_point)]


@pytest.mark.parametrize("name,make", CHAMBER_FANS, ids=[f[0] for f in CHAMBER_FANS])
def test_chamber_cohomology_matches_elimination(name, make):
    # every violating set of the fan, against the reduced complex; on rank 3
    # H~^1 comes from the complement, which rank 2 cannot tell from the set
    fan = make()
    rays = range(len(fan.rays))
    for size in range(len(fan.rays) + 1):
        for violating in combinations(rays, size):
            assert toric._chamber_cohomology(fan, frozenset(violating)) == \
                reduced_cohomology(chamber_facets(fan, violating)), (name, violating)


# coefficient bound and draws per rank: rank 2 reaches |a_i| = 30, past the
# brute-force oracle's reach
EVENT_WALK_DRAWS = {1: (30, 40), 2: (30, 25), 3: (6, 8)}


@pytest.mark.parametrize("name,make", CHAMBER_FANS, ids=[f[0] for f in CHAMBER_FANS])
def test_event_walk_matches_the_reference_sweep(name, make):
    # the closed-form box and the bitmask event walk against the 2^n-sign box
    # and the breakpoint sweep with per-segment violating sets
    fan = make()
    bound, draws = EVENT_WALK_DRAWS[fan.rank]
    rng = random.Random(f"event-walk-{name}")
    for _ in range(draws):
        divisor = {i: rng.randint(-bound, bound) for i in range(len(fan.rays))}
        box = toric.character_box(fan, divisor)
        reference_box = reference_character_box(fan, divisor)
        assert box == reference_box, divisor
        assert toric.sweep_rows(box) == toric.sweep_rows(reference_box)
        assert divisor_cohomology(fan, divisor) == \
            reference_divisor_cohomology(fan, divisor, box), divisor
        # the sum over any box: on the character box a row's first and last
        # segments lie in dead chambers, on a box cut through the live
        # chambers they need not
        inner = []
        for lo, hi in box:
            low = rng.randint(lo, hi)
            inner.append((low, rng.randint(low, hi)))
        assert divisor_cohomology(fan, divisor, inner) == \
            reference_divisor_cohomology(fan, divisor, inner), (divisor, inner)


def test_reduced_cohomology_computed_once_per_violating_set(monkeypatch):
    calls = []
    original = toric._chamber_cohomology

    def counted(fan, violating):
        calls.append(violating)
        return original(fan, violating)

    monkeypatch.setattr(toric, "_chamber_cohomology", counted)
    rng = random.Random("chamber-cache")
    for fan in (projective_plane(), hirzebruch(2), projective_space_3(), p1_cubed()):
        for _ in range(3):
            divisor = {i: rng.randint(-4, 4) for i in range(len(fan.rays))}
            calls.clear()
            divisor_cohomology(fan, divisor)
            assert len(calls) == len(set(calls)) <= 2 ** len(fan.rays)
    calls.clear()
    divisor_cohomology(projective_plane(), p2_divisor(200))
    assert len(calls) <= 2 ** 3


# --- log Hodge tables ----------------------------------------------------------


def test_p2_untwisted_table():
    table = log_hodge_numbers(projective_plane(), QDivisor.zero(projective_plane()))
    assert [table.entry(p, 0) for p in range(3)] == [1, 2, 1]
    assert all(table.entry(p, q) == 0 for p in range(3) for q in (1, 2))


def test_p1_untwisted_table():
    fan = projective_line()
    table = log_hodge_numbers(fan, QDivisor.zero(fan))
    assert table.entry(0, 0) == 1 and table.entry(1, 0) == 1


def test_p2_weight_one_twist():
    fan = projective_plane()
    w = WeightFunction({"r0": Fraction(1), "r1": Fraction(1), "r2": Fraction(1)})
    twist = weight_divisor(w, fan)
    table = log_hodge_numbers(fan, twist)
    assert table.entry(0, 0) == 10  # h^0(O(3)) on P^2


def test_binomial_symmetry_of_untwisted_rows():
    fan = projective_plane()
    table = log_hodge_numbers(fan, QDivisor.zero(fan))
    n = fan.rank
    for p in range(n + 1):
        total_p = sum(table.entry(p, q) for q in range(n + 1))
        total_np = sum(table.entry(n - p, q) for q in range(n + 1))
        assert total_p == total_np


# --- E1 sum check -----------------------------------------------------------------


def test_e1_sum_p1():
    fan = projective_line()
    check = e1_sum_check(log_hodge_numbers(fan, QDivisor.zero(fan)))
    assert check.passed
    assert check.per_degree[0] == (1, 1, True)
    assert check.per_degree[1] == (1, 1, True)


def test_e1_sum_p2():
    fan = projective_plane()
    check = e1_sum_check(log_hodge_numbers(fan, QDivisor.zero(fan)))
    assert check.passed
    assert [check.per_degree[k][0] for k in range(3)] == [1, 2, 1]


def test_e1_sum_hirzebruch():
    for a in (0, 1, 2):
        fan = hirzebruch(a)
        check = e1_sum_check(log_hodge_numbers(fan, QDivisor.zero(fan)))
        assert check.passed, f"F_{a}"


# --- weight divisor -----------------------------------------------------------------


def test_weight_divisor_floor_of_half_weights_is_zero():
    fan = projective_plane()
    w = WeightFunction({f"r{i}": Fraction(1, 2) for i in range(3)})
    d = weight_divisor(w, fan)
    assert d.floor() == {0: 0, 1: 0, 2: 0}
    table = log_hodge_numbers(fan, d)
    untwisted = log_hodge_numbers(fan, QDivisor.zero(fan))
    assert table.entries == untwisted.entries


def test_weight_divisor_mixed_floor():
    fan = projective_plane()
    w = WeightFunction({"r0": Fraction(1, 2), "r1": Fraction(3, 2), "r2": Fraction(1, 2)})
    d = weight_divisor(w, fan)
    assert d.floor() == {0: 0, 1: 1, 2: 0}
    h = divisor_cohomology(fan, d.floor())
    assert (h[0], h[1], h[2]) == (3, 0, 0)  # floor is linearly equivalent to H


def test_weight_divisor_mismatched_rays():
    fan = projective_plane()
    w = WeightFunction({"x": Fraction(1)})
    with pytest.raises(FanError, match="match"):
        weight_divisor(w, fan)
