"""Independent checks of ``lhl`` reports, one per request kind.

No check imports ``loghodgelab``.  Each derives the expected answer from the
request itself: a closed form, the construction the generator used, or a
small exact computation with the ``Fraction`` rank helper below.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, comb, floor


def rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows if any(row)]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def cohomology(dims: list[int], diffs: list[list[list[Fraction]]]) -> dict[int, int]:
    """dim H^k of the complex with d_k = diffs[k] : Q^dims[k] -> Q^dims[k+1]."""
    ranks = [rank(d) if d else 0 for d in diffs] + [0]
    return {k: dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(len(dims))}


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise AssertionError(f"{what}: report has {got!r}, expected {want!r}")


# --- stalk ----------------------------------------------------------------------------


def check_obstruction_stalk(expect: dict, result: dict) -> None:
    n, r = expect["n"], expect["r"]
    _expect_equal("model", result["model"], {"n": n, "r": r, "window": expect["window"]})
    _expect_equal("matches", result["matches"], True)
    if expect["flavor"] == "log":
        # log forms -> Laurent forms is a quasi-isomorphism: the cone is acyclic
        want = {str(p): 0 for p in range(n + 1)}
        by_mu: dict = {}
    else:
        # H(holomorphic) = Q in degree 0; H(Laurent) = exterior algebra on
        # dz_i/z_i (i <= r), all at multidegree 0
        want = {str(p): comb(r, p) if p else 0 for p in range(n + 1)}
        zero = ",".join("0" * n)
        by_mu = {str(p): {zero: comb(r, p)} for p in range(1, n + 1) if comb(r, p)}
    _expect_equal("direct", result["direct"], want)
    _expect_equal("assembled", result["assembled"], want)
    _expect_equal("direct_by_multidegree", result["direct_by_multidegree"], by_mu)
    _expect_equal("assembled_by_multidegree", result["assembled_by_multidegree"], by_mu)


def check_local_cohomology(expect: dict, result: dict) -> None:
    n, w, subset, p = expect["n"], expect["window"], expect["subset"], expect["p"]
    # stable Koszul: one class per p-frame at each a with -w <= a_i <= -1 on I
    # and 0 <= a_j <= w off I
    ranges = [range(-w, 0) if i in subset else range(0, w + 1) for i in range(1, n + 1)]
    graded = {",".join(map(str, a)): comb(n, p) for a in product(*ranges)}
    _expect_equal("subset", result["subset"], subset)
    _expect_equal("total", result["total"],
                  comb(n, p) * w ** len(subset) * (w + 1) ** (n - len(subset)))
    _expect_equal("graded_dims", result["graded_dims"], graded)


# --- spectral -------------------------------------------------------------------------


def _cone_complex_cohomology(strata: list[dict]) -> dict[int, int]:
    cells = sorted((tuple(sorted(s["components"])), s.get("tag", "0")) for s in strata)
    by_dim: dict[int, list] = {}
    for cell in cells:
        by_dim.setdefault(len(cell[0]) - 1, []).append(cell)
    present = set(cells)
    top = max(by_dim)
    diffs = []
    for p in range(top):
        index = {cell: i for i, cell in enumerate(by_dim[p])}
        rows = []
        for comps, tag in by_dim[p + 1]:
            row = [Fraction(0)] * len(by_dim[p])
            for i in range(len(comps)):
                face = comps[:i] + comps[i + 1:]
                face_cell = (face, tag) if (face, tag) in present else (face, "0")
                row[index[face_cell]] += (-1) ** i
            rows.append(row)
        diffs.append(rows)
    return cohomology([len(by_dim[p]) for p in range(top + 1)], diffs)


def check_trop_ss(expect: dict, result: dict) -> None:
    h = _cone_complex_cohomology(expect["strata"])
    _expect_equal("thresholds", result["thresholds"], expect["thresholds"])
    _expect_equal("cohomology", result["cohomology"], {str(k): v for k, v in h.items()})
    _expect_equal("e_infinity_totals", result["e_infinity_totals"],
                  {str(k): v for k, v in h.items() if v})


def check_spectral_sequence(expect: dict, result: dict, doc: dict) -> None:
    diffs = [[[Fraction(v) for v in row] for row in m] for m in doc["differentials"]]
    h = cohomology(doc["dims"], diffs)
    totals = {str(k): v for k, v in h.items() if v}
    _expect_equal("e_infinity_totals", result["e_infinity_totals"], totals)
    _expect_equal("free classes", totals, {k: v for k, v in expect["free"].items() if v})
    first = expect["first_nonzero"]
    _expect_equal("degenerates_at_e1", result["degenerates_at_e1"], first is None)
    _expect_equal("first_nonzero_differential", result["first_nonzero_differential"], first)


# --- nilpotent ------------------------------------------------------------------------


def check_monodromy(expect: dict, result: dict) -> None:
    partition, center = expect["partition"], expect["center"]
    dim = sum(partition)
    graded: dict[int, int] = {}
    for s in partition:
        for i in range(s):
            l = center + s - 1 - 2 * i
            graded[l] = graded.get(l, 0) + 1
    levels, running = {}, 0
    for l in range(center - dim, center + dim + 1):
        running += graded.get(l, 0)
        levels[str(l)] = running
    _expect_equal("dimension", result["dimension"], dim)
    _expect_equal("jordan_type", result["jordan_type"], partition)
    _expect_equal("stratum_weight", result["stratum_weight"], str(max(partition)))
    _expect_equal("weight_filtration", result["weight_filtration"],
                  {"center": center, "dimension": dim, "level_dims": levels,
                   "graded_dims": {str(l): d for l, d in sorted(graded.items())}})


# --- divisor --------------------------------------------------------------------------


def polytope_box(rays: list[list[int]], a: list[int]) -> tuple[range, range]:
    """Lattice box around the pairwise crossings of the facet lines
    <m, v_i> = -a_i.  For a complete fan the polytope {m : <m, v_i> >= -a_i}
    is bounded, so its vertices are among them."""
    xs, ys = [], []
    for i, j in combinations(range(len(rays)), 2):
        (p, q), (r, s) = rays[i], rays[j]
        det = p * s - q * r
        if det:
            xs.append(Fraction(-a[i] * s + a[j] * q, det))
            ys.append(Fraction(-a[j] * p + a[i] * r, det))
    return (range(floor(min(xs)), ceil(max(xs)) + 1),
            range(floor(min(ys)), ceil(max(ys)) + 1))


def _h0(rays: list[list[int]], a: list[int]) -> int:
    """Lattice points of the polytope {m : <m, v_i> >= -a_i}."""
    xs, ys = polytope_box(rays, a)
    return sum(1 for x in xs for y in ys
               if all(x * u + y * v >= -c for (u, v), c in zip(rays, a)))


def _euler_characteristic(rays: list[list[int]], cones: list[list[int]], a: list[int]) -> int:
    """Riemann-Roch on a smooth complete toric surface:
    chi(O(D)) = 1 + D.(D - K) / 2 with K = -sum D_i, where D_i.D_j = 1 for
    adjacent rays and D_i^2 = -b_i for v_prev + v_next = b_i v_i."""
    k = len(rays)
    inter = [[0] * k for _ in range(k)]
    neighbours: dict[int, list[int]] = {i: [] for i in range(k)}
    for i, j in cones:
        inter[i][j] = inter[j][i] = 1
        neighbours[i].append(j)
        neighbours[j].append(i)
    for i, (u, v) in enumerate(rays):
        x = sum(rays[j][0] for j in neighbours[i])
        y = sum(rays[j][1] for j in neighbours[i])
        b, rest = divmod(x * u + y * v, u * u + v * v)
        if x * v - y * u or rest:
            raise AssertionError(f"neighbours of ray {i} do not sum to a multiple of it")
        inter[i][i] = -b
    twice = sum(a[i] * (a[j] + 1) * inter[i][j] for i in range(k) for j in range(k))
    return 1 + twice // 2


def _cohomology_of(expect: dict) -> tuple[list[int], int, int]:
    a = [floor(Fraction(c)) for c in expect["coefficients"]]
    return (a, _h0(expect["rays"], a),
            _euler_characteristic(expect["rays"], expect["cones"], a))


def check_divisor_cohomology(expect: dict, result: dict) -> None:
    a, h0, chi = _cohomology_of(expect)
    _expect_equal("floored_divisor", result["floored_divisor"],
                  {str(i): v for i, v in enumerate(a)})
    h = {int(q): v for q, v in result["cohomology"].items()}
    _expect_equal("h^0", h[0], h0)
    _expect_equal("euler characteristic", h[0] - h[1] + h[2], chi)


def check_log_hodge(expect: dict, result: dict) -> None:
    _, h0, chi = _cohomology_of(expect)
    entries = result["table"]["entries"]
    h = [entries.get(f"0,{q}", 0) for q in range(3)]
    _expect_equal("h^0", h[0], h0)
    _expect_equal("euler characteristic", h[0] - h[1] + h[2], chi)
    _expect_equal("table", entries, {f"{p},{q}": comb(2, p) * h[q]
                                     for p in range(3) for q in range(3) if h[q]})


def check(kind: str, expect: dict, report: dict, files: dict) -> None:
    """Raise AssertionError unless ``report`` is the right answer."""
    _expect_equal("command", report["command"], kind)
    result = report["result"]
    if kind == "obstruction-stalk":
        check_obstruction_stalk(expect, result)
    elif kind == "local-cohomology":
        check_local_cohomology(expect, result)
    elif kind == "trop-ss":
        check_trop_ss(expect, result)
    elif kind == "spectral-sequence":
        check_spectral_sequence(expect, result, files["complex.json"])
    elif kind == "monodromy":
        check_monodromy(expect, result)
    elif kind == "divisor-cohomology":
        check_divisor_cohomology(expect, result)
    elif kind == "log-hodge":
        check_log_hodge(expect, result)
    else:
        raise AssertionError(f"no oracle for {kind}")
