"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.  Run with `pytest -v tests/test_acceptance.py`
(or `-s` to see the per-criterion lines inline)."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from loghodgelab.cli import main
from loghodgelab.complexes import cohomology_dims, long_exact_sequence, mapping_cone
from loghodgelab.conecx import Cell, IntersectionData, build_cone_complex
from loghodgelab.linalg import (
    RationalMatrix,
    contains_space,
    rank,
    smith_normal_form,
    spaces_equal,
)
from loghodgelab.localmodel import (
    HOLOMORPHIC,
    LOGARITHMIC,
    LocalModel,
    assemble_stalk,
    obstruction_cone,
)
from loghodgelab.monodromy import (
    NilpotentOperator,
    stratum_weight,
    verify_weight_axioms,
    weight_filtration,
)
from loghodgelab.toric import (
    QDivisor,
    divisor_cohomology,
    e1_sum_check,
    hirzebruch,
    log_hodge_numbers,
    projective_line,
    projective_plane,
)
from loghodgelab.trop import (
    CellWeights,
    tropical_cohomology,
    weight_filtration_ss,
    weighted_complex,
)

from helpers import random_chain_map, random_complex

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"[criterion {number}] {verdict} ({elapsed:.2f}s / budget "
              f"{budget_seconds:.0f}s): {description}")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")


def test_criterion_1_structural_suite():
    with criterion(1, "d^2, Euler characteristic and cone LES exactness on 200 "
                      "random complexes/maps", 10.0):
        rng = random.Random(900)
        euler = lambda h: sum((-1) ** k * v for k, v in h.items())
        for i in range(200):
            a = random_complex(rng)           # constructor enforces d^2 = 0
            ha = cohomology_dims(a)
            assert euler(a.dims) == euler(ha)
            if i % 2 == 0:
                b = random_complex(rng)
                f = random_chain_map(rng, a, b)
                report = long_exact_sequence(f)
                assert report.exact
                hc = cohomology_dims(mapping_cone(f))
                assert euler(hc) == euler(report.target_cohomology) - euler(ha)


def test_criterion_2_smith_normal_form():
    with criterion(2, "SNF validity on 100 random 6x6 matrices; invariant "
                      "factors permutation-stable", 5.0):
        rng = random.Random(901)

        def check(dense):
            m = RationalMatrix.from_rows(dense)
            u, d, v = smith_normal_form(m)
            assert u * m * v == d
            diag = [x for x in d.diagonal() if x != 0]
            assert all((i == j and val != 0) for (i, j), val in d.entries.items())
            assert all(x > 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            assert abs(_det_fraction(u.to_dense())) == 1
            assert abs(_det_fraction(v.to_dense())) == 1
            return diag

        for _ in range(100):
            check([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])

        base = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        reference = check(base)
        for _ in range(50):
            rows = base[:]
            rng.shuffle(rows)
            perm = list(range(6))
            rng.shuffle(perm)
            assert check([[row[j] for j in perm] for row in rows]) == reference


def _det_fraction(dense):
    m = [[Fraction(v) for v in row] for row in dense]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col] != 0:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def test_criterion_3_log_inclusion_quasi_isomorphism():
    with criterion(3, "log-form obstruction cone acyclic for all n <= 3, "
                      "r <= n, window in {2,3,4}", 60.0):
        for n in (1, 2, 3):
            for r in range(n + 1):
                for window in (2, 3, 4):
                    report = obstruction_cone(LocalModel(n, r, window), LOGARITHMIC)
                    assert all(v == 0 for v in report.direct.values()), \
                        (n, r, window, report.direct)
                    assert not report.direct_by_multidegree


def test_criterion_4_e1_degeneration_bookkeeping():
    with criterion(4, "E1 sums equal torus Betti numbers on P1, P2 and two "
                      "Hirzebruch fans", 5.0):
        for fan in (projective_line(), projective_plane(), hirzebruch(1), hirzebruch(2)):
            table = log_hodge_numbers(fan, QDivisor.zero(fan))
            check = e1_sum_check(table)
            assert check.passed, check.per_degree


def test_criterion_5_dual_method_stalk_agreement():
    with criterion(5, "Mayer-Vietoris assembly equals the direct cone "
                      "(all n <= 2 models, both flavors, window 3); "
                      "holomorphic calibration OB^1 = 1 at n = r = 1", 60.0):
        for n in (1, 2):
            for r in range(n + 1):
                for flavor in (HOLOMORPHIC, LOGARITHMIC):
                    report = assemble_stalk(LocalModel(n, r, 3), flavor)
                    assert report.matches, (n, r, flavor)
                    assert report.assembled == report.direct
                    assert report.assembled_by_multidegree == report.direct_by_multidegree
        calibration = assemble_stalk(LocalModel(1, 1, 3), HOLOMORPHIC)
        assert calibration.direct[1] == 1
        assert calibration.assembled[1] == 1


def test_criterion_6_toric_oracle():
    with criterion(6, "h^q(P^2, O(d)) matches the closed forms for -6 <= d <= 6",
                   5.0):
        from math import comb
        fan = projective_plane()
        for d in range(-6, 7):
            h = divisor_cohomology(fan, {0: d, 1: 0, 2: 0})
            expected_h0 = comb(d + 2, 2) if d >= 0 else 0
            expected_h2 = comb(-d - 1, 2) if d <= -3 else 0
            assert (h[0], h[1], h[2]) == (expected_h0, 0, expected_h2), f"d={d}"


def test_criterion_7_monodromy_axioms():
    with criterion(7, "weight filtration axioms on 100 random nilpotents, "
                      "uniqueness by exhaustion in dim <= 4, conjugation "
                      "equivariance on 50 conjugates", 30.0):
        rng = random.Random(902)

        def random_nilpotent(dim):
            entries = {}
            for i in range(dim):
                for j in range(i + 1, dim):
                    v = rng.randint(-3, 3)
                    if v:
                        entries[(i, j)] = Fraction(v)
            return NilpotentOperator(RationalMatrix(dim, dim, entries))

        for _ in range(100):
            n = random_nilpotent(rng.randint(1, 8))
            w = weight_filtration(n, 0)
            verify_weight_axioms(n, w)   # raises on any axiom failure

        # uniqueness by exhaustion over the ker/im subspace lattice
        from test_monodromy import (
            WeightFiltrationStub,
            enumerate_filtration_lattice,
            jordan_block_matrix,
            satisfies_axioms,
        )
        partitions = [(1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,),
                      (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
        for sizes in partitions:
            n = NilpotentOperator(jordan_block_matrix(list(sizes)))
            dim = n.dimension
            lattice = enumerate_filtration_lattice(n)
            levels = list(range(-dim, dim + 1))
            found = 0

            def search(level_idx, chosen):
                nonlocal found
                if level_idx == len(levels):
                    stub = WeightFiltrationStub(dim, dict(zip(levels, chosen)))
                    if satisfies_axioms(n, stub, dim):
                        found += 1
                    return
                for candidate in lattice:
                    if chosen and not contains_space(candidate, chosen[-1]):
                        continue
                    if level_idx == 0 and rank(candidate) != 0:
                        continue
                    if level_idx == len(levels) - 1 and rank(candidate) != dim:
                        continue
                    target = chosen[-2] if len(chosen) >= 2 else \
                        RationalMatrix.zeros(dim, 0)
                    images = [n.matrix.apply(candidate.column(j))
                              for j in range(candidate.cols)]
                    img = RationalMatrix.from_columns(images, dim)
                    if not contains_space(target, img):
                        continue
                    search(level_idx + 1, chosen + [candidate])

            search(0, [])
            assert found == 1, f"partition {sizes}: {found} filtrations"

        # conjugation equivariance
        def random_invertible(dim):
            while True:
                m = RationalMatrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
                if rank(m) == dim:
                    return m

        from loghodgelab.linalg import solve_rational

        def invert(m):
            n_ = m.rows
            cols = [solve_rational(m, [Fraction(int(i == j)) for i in range(n_)])
                    for j in range(n_)]
            return RationalMatrix.from_columns(cols, n_)

        for _ in range(50):
            dim = rng.randint(2, 5)
            n = random_nilpotent(dim)
            p = random_invertible(dim)
            conj = NilpotentOperator(p * n.matrix * invert(p))
            w = weight_filtration(n, 0)
            wc = weight_filtration(conj, 0)
            for l in range(-dim, dim + 1):
                transported = RationalMatrix.from_columns(
                    [p.apply(w.level(l).column(j)) for j in range(w.level(l).cols)],
                    dim)
                assert spaces_equal(wc.level(l), transported)
            assert stratum_weight(n) == stratum_weight(conj)


def test_criterion_8_weighted_tropical_invariance():
    with criterion(8, "tropical dims invariant over 20 random weights on each "
                      "of 10 complexes; unit path matrix-identical; limit "
                      "totals match cohomology", 20.0):
        rng = random.Random(903)
        names = ["A", "B", "C", "D", "E"]
        for _ in range(10):
            closure = set()
            for _ in range(rng.randint(1, 7)):
                subset = tuple(sorted(rng.sample(names, rng.randint(1, 4))))
                for mask in range(1, 2 ** len(subset)):
                    closure.add(tuple(s for i, s in enumerate(subset) if mask >> i & 1))
            complex_ = build_cone_complex(IntersectionData(
                names, [Cell(sub) for sub in sorted(closure)]))
            reference = None
            for _ in range(20):
                weights = CellWeights({cell: Fraction(rng.randint(1, 9), rng.randint(1, 6))
                                       for cell in complex_.all_cells()})
                dims = tropical_cohomology(weighted_complex(complex_, weights))
                if reference is None:
                    reference = dims
                assert dims == reference
            # unit weights reproduce the simplicial coboundary exactly
            unit = weighted_complex(complex_, CellWeights.constant(complex_))
            plain = complex_.cochain_complex()
            for p in range(complex_.max_dim):
                assert unit.complex.differential(p) == plain.differential(p)
            # admissible (dimension-graded) filtration: E_infinity = cohomology
            graded = CellWeights({cell: Fraction(cell.dim + 1)
                                  for cell in complex_.all_cells()})
            t = weighted_complex(complex_, graded)
            report = weight_filtration_ss(t)
            assert report.e_infinity_totals == \
                   {k: v for k, v in tropical_cohomology(t).items() if v}


def test_criterion_9_example_end_to_end_cli(tmp_path):
    with criterion(9, "three-lines example end to end via the CLI with "
                      "byte-stable golden reports", 2.0):
        # cone complex: (3, 3) cells and H = (1, 1)
        out = tmp_path / "cone.json"
        code = main(["cone-complex", "--in", str(FIXTURES / "ex42.json"),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["cells_per_dim"] == {"0": 3, "1": 3}
        assert doc["result"]["cohomology"] == {"0": 1, "1": 1}
        assert out.read_bytes() == (GOLDEN / "ex42_cone_complex.json").read_bytes()

        # weight validation: (1,1,1) accepted
        out_ok = tmp_path / "w111.json"
        code = main(["validate-weights", "--complex", str(FIXTURES / "wedge_fan.json"),
                     "--weights", str(FIXTURES / "w111.json"),
                     "--format", "json", "--out", str(out_ok)])
        assert code == 0
        assert json.loads(out_ok.read_text())["result"]["valid"] is True
        assert out_ok.read_bytes() == (GOLDEN / "wedge_w111.json").read_bytes()

        # weight validation: (1,3,1) rejected, inequality named
        out_bad = tmp_path / "w131.json"
        code = main(["validate-weights", "--complex", str(FIXTURES / "wedge_fan.json"),
                     "--weights", str(FIXTURES / "w131.json"),
                     "--format", "json", "--out", str(out_bad)])
        assert code == 1
        doc = json.loads(out_bad.read_text())
        assert doc["result"]["valid"] is False
        assert any(v["linear_value"] == "2" and v["ray"] == "c"
                   for v in doc["result"]["convexity"]["violations"])
        assert out_bad.read_bytes() == (GOLDEN / "wedge_w131.json").read_bytes()

        # byte stability across a second run
        again = tmp_path / "cone2.json"
        main(["cone-complex", "--in", str(FIXTURES / "ex42.json"),
              "--format", "json", "--out", str(again)])
        assert again.read_bytes() == out.read_bytes()
