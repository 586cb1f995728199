"""Seeded request streams for the four benchmark workloads.

A stream is a list of ``Request``: the ``lhl`` argv, the input documents it
reads, and what the oracle expects.  Nothing here imports ``loghodgelab``;
inputs are built from the seed alone, so the program under test sees only
argv and the files written from ``Request.files``.

Each stream is made of rounds.  A round holds one request per stratum (a
fixed size class of inputs), in seeded order, so any prefix of whole rounds
has the same mix of cheap and costly requests whatever the seed.  No two
requests in a stream are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from functools import lru_cache
from math import floor, gcd

from oracles import polytope_box

# Jobs are sized to the default LHL_MAX_DIM cap of the CLI.
MAX_DIM = 2000


@dataclass
class Request:
    kind: str
    argv: list[str]
    files: dict[str, dict] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    round: int = 0


def rat(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _strata(items: list, cost, size: int, rng: random.Random) -> list[list]:
    """Sort by a cost proxy, cut into strata of ``size`` items, shuffle each."""
    ordered = sorted(items, key=lambda item: (cost(item), item))
    strata = [ordered[i:i + size] for i in range(0, len(ordered), size)]
    for s in strata:
        rng.shuffle(s)
    return strata


# --- stalk: obstruction stalks and local cohomology of the local models --------------

STALK_ROUNDS = 6
# (3,3,2) is under the cap but takes 2-3 s per request at the baseline,
# above the ~1 s per request this stream is sized for.
STALK_EXCLUDED = {(3, 3, 2)}
STALK_MAX_WINDOW = 10
# n = 1 models are under the cap up to window 499.  One r = 1 model for each
# window 75-122 (70-110 ms each at the baseline, a seeded flavor) fills the
# latency range around p90, which the other models cover only sparsely.
STALK_SWEEP_WINDOWS = range(75, 123)


def _under_cap(n: int, w: int) -> bool:
    return (2 * w + 1) ** n * 2 ** n <= MAX_DIM


def stalk_universe() -> tuple[list[tuple], list[tuple]]:
    models, local = [], []
    for n in (1, 2, 3):
        for w in range(1, STALK_MAX_WINDOW + 1):
            if not _under_cap(n, w):
                break
            for r in range(0, n + 1):
                if (n, r, w) not in STALK_EXCLUDED:
                    models += [(n, r, w, "holo"), (n, r, w, "log")]
                for size in range(1, r + 1):
                    for subset in combinations(range(1, r + 1), size):
                        local += [(n, r, w, subset, p) for p in range(n + 1)]
    return models, local


def _stalk_request(model) -> Request:
    n, r, w, flavor = model
    return Request("obstruction-stalk",
                   ["obstruction-stalk", "--n", str(n), "--r", str(r),
                    "--window", str(w), "--flavor", flavor],
                   expect={"n": n, "r": r, "window": w, "flavor": flavor})


def _local_request(spec) -> Request:
    n, r, w, subset, p = spec
    return Request("local-cohomology",
                   ["local-cohomology", "--n", str(n), "--r", str(r), "--window", str(w),
                    "--subset", ",".join(map(str, subset)), "--form-degree", str(p)],
                   expect={"n": n, "r": r, "window": w, "subset": list(subset), "p": p})


def _model_cost(model) -> int:
    """Multidegrees of the Laurent window times the form basis size."""
    n, r, w, _ = model
    return (2 * w + 1) ** r * (w + 1) ** (n - r) * 4 ** n


def _local_cost(spec) -> int:
    """Exponents of the window times the Cech positions."""
    n, _, w, subset, _ = spec
    return (2 * w + 1) ** len(subset) * (w + 1) ** (n - len(subset)) * 2 ** len(subset)


def stalk_stream(rng: random.Random):
    """Every model and local-cohomology request with window <= 10 once, plus
    n = 1 models with larger windows, in STALK_ROUNDS rounds; each round
    takes one item from every cost stratum of each kind."""
    models, local = stalk_universe()
    sweep = [(1, 1, w, rng.choice(("holo", "log"))) for w in STALK_SWEEP_WINDOWS]
    strata = (_strata(models, _model_cost, STALK_ROUNDS, rng)
              + _strata(local, _local_cost, STALK_ROUNDS, rng)
              + _strata(sweep, _model_cost, STALK_ROUNDS, rng))
    for r in range(STALK_ROUNDS):
        yield [_stalk_request(s[r]) if len(s[r]) == 4 else _local_request(s[r])
               for s in strata]


# --- exact rational helpers for the generated workloads ---------------------------------


# Rationals here are (numerator, positive denominator) pairs and a matrix is
# (rows of integers, common denominator): exact, and far cheaper to generate
# than Fractions.


def _conjugations(rng: random.Random, dim: int, ops: int) -> list[tuple[int, int, int, int]]:
    """A random invertible P = E_1 ... E_ops, each E = I + (c/q) e_i e_j^T."""
    if dim < 2:
        return []
    out = []
    for _ in range(ops):
        i, j = rng.sample(range(dim), 2)
        out.append((i, j, rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
    return out


def _apply_left(ops, m: tuple[list[list[int]], int]) -> tuple[list[list[int]], int]:
    """P m."""
    rows, den = [row[:] for row in m[0]], m[1]
    for i, j, c, q in reversed(ops):
        if q != 1:
            rows = [[x * q for x in row] for row in rows]
            den *= q
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows, den


def _apply_right_inverse(ops, m: tuple[list[list[int]], int]) -> tuple[list[list[int]], int]:
    """m P^{-1}."""
    rows, den = [row[:] for row in m[0]], m[1]
    for i, j, c, q in reversed(ops):
        if q != 1:
            rows = [[x * q for x in row] for row in rows]
            den *= q
        for row in rows:
            row[j] -= c * row[i]
    return rows, den


def _strings(m: tuple[list[list[int]], int]) -> list[list[str]]:
    out = []
    for row in m[0]:
        cells = []
        for x in row:
            g = gcd(x, m[1])
            cells.append(str(x // g) if g == m[1] else f"{x // g}/{m[1] // g}")
        out.append(cells)
    return out


# --- nilpotent: monodromy weight filtrations of P J P^-1 ----------------------------------

NILPOTENT_DIMS = (3, 4, 5, 6, 7, 8, 9)


@lru_cache(maxsize=None)
def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1)
            for rest in _partitions(n - k, k)]


def _nilpotent_request(rng: random.Random, dim: int, seen: set) -> Request:
    while True:
        partition = rng.choice(_partitions(dim))
        center = rng.randint(-3, 3)
        ops = _conjugations(rng, dim, 2 * dim)
        rows = [[0] * dim for _ in range(dim)]
        start = 0
        for size in partition:
            for k in range(start, start + size - 1):
                rows[k][k + 1] = 1
            start += size
        matrix = _strings(_apply_right_inverse(ops, _apply_left(ops, (rows, 1))))
        key = (center, repr(matrix))
        if key not in seen:
            seen.add(key)
            break
    name = "nilpotent.json"
    return Request("monodromy",
                   ["monodromy", "--in", name, "--center", str(center)],
                   files={name: {"matrix": matrix}},
                   expect={"partition": list(partition), "center": center})


def nilpotent_stream(rng: random.Random):
    seen: set = set()
    while True:
        yield [_nilpotent_request(rng, dim, seen) for dim in NILPOTENT_DIMS]


# --- divisor: divisor cohomology and twisted log Hodge tables on toric surfaces ----------

FANS = {
    "P2": ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    **{f"F{a}": ([[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]])
       for a in (1, 2, 3)},
}
# Size classes: the number of lattice characters in the box around the
# polytope's facet-line crossings, which is what a request sweeps.  Each slot
# draws coefficients with |a_i| <= 24 until the box falls in its class, so
# requests of one class cost about the same whatever the seed.  (At |a_i|
# near 40 single requests take up to 2 s at the baseline.)  A round's 8
# requests take the 8 classes below once each: p50 falls in the third class
# and p90 in the last.
DIVISOR_BOX_SIZES = ((20, 150), (150, 400), (450, 650), (450, 650), (450, 650),
                     (800, 1300), (1400, 1700), (1400, 1700))
DIVISOR_MAX_COEFFICIENT = 24


def _character_box(rays: list[list[int]], a: list[int]) -> int:
    xs, ys = polytope_box(rays, a)
    return (len(xs) + 2) * (len(ys) + 2)


def _divisor_request(rng: random.Random, fan: str, command: str,
                     size: tuple[int, int], seen: set) -> Request:
    rays, cones = FANS[fan]
    while True:
        bound = rng.randint(1, DIVISOR_MAX_COEFFICIENT)
        coeffs = tuple(Fraction(rng.randint(-bound * d, bound * d), d)
                       for d in (rng.choice((1, 1, 2, 3)) for _ in rays))
        box = _character_box(rays, [floor(c) for c in coeffs])
        if (size[0] <= box < size[1] and any(coeffs)
                and (fan, command, coeffs) not in seen):
            seen.add((fan, command, coeffs))
            break
    files = {"fan.json": {"rays": rays, "cones": cones},
             "divisor.json": {"coefficients": [rat(c) for c in coeffs]}}
    if command == "divisor-cohomology":
        argv = ["divisor-cohomology", "--fan", "fan.json", "--divisor", "divisor.json"]
    else:
        argv = ["log-hodge", "--fan", "fan.json", "--twist", "divisor.json"]
    return Request(command, argv, files=files,
                   expect={"rays": rays, "cones": cones,
                           "coefficients": [rat(c) for c in coeffs]})


def divisor_stream(rng: random.Random):
    """Rounds of one request per (fan, command); the size classes rotate so
    that every eight rounds give each pair every class once."""
    seen: set = set()
    slots = [(fan, command) for fan in FANS for command in ("divisor-cohomology", "log-hodge")]
    r = 0
    while True:
        yield [_divisor_request(rng, fan, command,
                                DIVISOR_BOX_SIZES[(r + s) % len(DIVISOR_BOX_SIZES)], seen)
               for s, (fan, command) in enumerate(slots)]
        r += 1


# --- spectral: tropical sublevel spectral sequences and generic filtered complexes -------


def _random_cone_complex(rng: random.Random, k: int) -> tuple[dict, dict[str, Fraction]]:
    """A downward-closed set of strata on k components, with cell weights
    that never decrease from a cell to its cofacets."""
    comps = [f"D{i}" for i in range(1, k + 1)]
    cells: list[tuple[tuple[str, ...], str]] = [((c,), "0") for c in comps]
    present = {(c,) for c in comps}
    for size in range(2, k + 1):
        keep = 0.75 if size == 2 else 0.55
        for subset in combinations(comps, size):
            faces = [subset[:i] + subset[i + 1:] for i in range(size)]
            if all(f in present for f in faces) and rng.random() < keep:
                present.add(subset)
                cells.append((subset, "0"))
                if size == 2 and rng.random() < 0.2:
                    cells.append((subset, "1"))
    weights: dict[str, Fraction] = {}
    for subset, tag in sorted(cells, key=lambda c: (len(c[0]), c)):
        faces = [subset[:i] + subset[i + 1:] for i in range(len(subset))] if tag == "0" \
            else [(c,) for c in subset]
        base = max((weights[",".join(f) + "#0"] for f in faces if f), default=Fraction(0))
        step = Fraction(rng.randint(0 if len(subset) > 1 else 1, 4), rng.choice((1, 2, 3)))
        weights[",".join(subset) + "#" + tag] = base + step
    doc = {"components": comps,
           "strata": [{"components": list(s), "tag": t} for s, t in cells]}
    return doc, weights


def _trop_request(rng: random.Random, cells: tuple[int, int], thresholds: int,
                  seen: set) -> Request:
    """A random cone complex on 3-5 components with a cell count in
    ``cells``, and ``thresholds`` of its weight values as thresholds."""
    while True:
        doc, weights = _random_cone_complex(rng, rng.randint(3, 5))
        values = sorted(set(weights.values()))
        if not cells[0] <= len(doc["strata"]) < cells[1] or len(values) < thresholds:
            continue
        chosen = sorted(rng.sample(values, thresholds))
        key = (repr(doc), tuple(sorted(weights.items())), tuple(chosen))
        if key not in seen:
            seen.add(key)
            break
    files = {"complex.json": doc,
             "weights.json": {"cells": {key: rat(v) for key, v in sorted(weights.items())}}}
    return Request("trop-ss",
                   ["trop-ss", "--complex", "complex.json", "--weights", "weights.json",
                    "--thresholds", ",".join(rat(t) for t in chosen)],
                   files=files,
                   expect={"strata": doc["strata"], "thresholds": [str(t) for t in chosen]})


def _generic_request(rng: random.Random, dims: tuple[int, ...], depth: int,
                     seen: set) -> Request:
    """A complex of persistence pairs (x at level a -> y at level b >= a) plus
    free classes, with its coordinate filtration, all conjugated per degree
    by a random rational change of basis P_k."""
    degrees = len(dims)
    level = [[rng.randint(0, depth) for _ in range(d)] for d in dims]
    diffs = [[[0] * dims[k] for _ in range(dims[k + 1])] for k in range(degrees - 1)]
    used: list[set] = [set() for _ in dims]
    gaps = []
    for k in range(degrees - 1):
        for x in range(dims[k]):
            if x in used[k] or rng.random() < 0.35:
                continue
            targets = [y for y in range(dims[k + 1])
                       if y not in used[k + 1] and level[k + 1][y] >= level[k][x]]
            if targets:
                y = rng.choice(targets)
                used[k].add(x)
                used[k + 1].add(y)
                diffs[k][y][x] = 1
                gaps.append(level[k + 1][y] - level[k][x])
    basis_ops = [_conjugations(rng, d, 2 * d) for d in dims]
    matrices = [_strings(_apply_right_inverse(basis_ops[k], _apply_left(basis_ops[k + 1],
                                                                     (diffs[k], 1))))
                for k in range(degrees - 1)]
    # column j of P_k is the image of the j-th coordinate vector
    columns = [list(zip(*_strings(_apply_left(basis_ops[k], (
        [[int(i == j) for j in range(d)] for i in range(d)], 1)))))
        for k, d in enumerate(dims)]
    filtration = [[[list(columns[k][j]) for j in range(dims[k]) if level[k][j] >= lv]
                   for k in range(degrees)]
                  for lv in range(1, depth + 1)]
    doc = {"min_degree": 0, "dims": list(dims), "differentials": matrices,
           "filtration": filtration}
    key = repr(doc)
    if key in seen:
        return _generic_request(rng, dims, depth, seen)
    seen.add(key)
    jumps = [gap for gap in gaps if gap > 0]
    return Request("spectral-sequence", ["spectral-sequence", "--in", "complex.json"],
                   files={"complex.json": doc},
                   expect={"free": {str(k): dims[k] - len(used[k]) for k in range(degrees)},
                           "first_nonzero": min(jumps) if jumps else None})


# The strata of a round: tropical complexes by (cell count range, number of
# thresholds), generic complexes by (dims, filtration depth).  Of 20 requests,
# 6 cheap and 11 mid-size ones hold p50; two tropical complexes of 12 cells
# span the 85th-95th percentile, so p90 falls among requests of one size; one
# 15-21 cell complex with 4 thresholds is the tail.
SPECTRAL_TROP = (((6, 10), 2), ((12, 13), 2), ((12, 13), 2), ((15, 22), 4))
SPECTRAL_GENERIC = (((3, 3), 1), ((3, 3), 1), ((3, 3), 1),
                    ((2, 3, 2), 1), ((2, 3, 2), 1), ((2, 3, 2), 1),
                    ((4, 4), 2), ((4, 4), 2), ((4, 4), 2), ((4, 4), 2), ((4, 4), 2),
                    ((3, 3, 3), 2), ((3, 3, 3), 2), ((3, 3, 3), 2), ((3, 3, 3), 2),
                    ((2, 3, 3, 2), 2))


def spectral_stream(rng: random.Random):
    seen: set = set()
    while True:
        yield ([_trop_request(rng, cells, thresholds, seen)
                for cells, thresholds in SPECTRAL_TROP]
               + [_generic_request(rng, dims, depth, seen) for dims, depth in SPECTRAL_GENERIC])


STREAMS = {
    "stalk": stalk_stream,
    "spectral": spectral_stream,
    "nilpotent": nilpotent_stream,
    "divisor": divisor_stream,
}


def make_stream(workload: str, seed: int, count: int) -> list[Request]:
    """The whole rounds of the workload's stream for ``seed`` that hold its
    first ``count`` requests, each round in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    out: list[Request] = []
    for r, batch in enumerate(STREAMS[workload](rng)):
        if len(out) >= count:
            break
        rng.shuffle(batch)
        for request in batch:
            request.round = r
        out.extend(batch)
    return out
