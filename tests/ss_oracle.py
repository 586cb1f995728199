"""The subquotient engine for filtration spectral sequences, kept as a test oracle.

Pages are computed from explicit subquotient bases

    Z_r^{p,q} = { x in F^p C^{p+q} : d x in F^{p+r} C^{p+q+1} }
    E_r^{p,q} = Z_r^{p,q} / ( Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2} )

and every page E_{r+1} is checked against the cohomology of (E_r, d_r).  It
shares no code with the persistence reduction of
``loghodgelab.complexes.spectral_sequence`` beyond the elimination in
``linalg``, which makes it an independent reference for it.

``degeneration_check`` reads the verdict of ``FilteredComplex`` off the
pages instead of the persistence pairs.

``persistence_pairs`` is the Fraction column reduction that pairs elements
for that persistence reduction before the pairing became a row reduction in
``linalg``; it is the reference for ``complexes._persistence_pairs``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from loghodgelab.complexes import ComplexError, FilteredComplex, SpectralSequencePage
from loghodgelab.linalg import (
    MatrixError,
    RationalMatrix,
    column_space_basis,
    contains_space,
    extend_basis,
    kernel_basis,
    rank,
    solve_rational,
    sum_spaces,
)


def intersect_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Basis of col(a) ∩ col(b)."""
    if a.rows != b.rows:
        raise MatrixError("ambient dimension mismatch")
    if a.cols == 0 or b.cols == 0:
        return RationalMatrix.zeros(a.rows, 0)
    ker = kernel_basis(a.hstack(-b))
    return column_space_basis(a * ker.submatrix_rows(range(a.cols)))


def preimage_space(f: RationalMatrix, w: RationalMatrix) -> RationalMatrix:
    """Basis of {x : f x in col(w)} inside the domain of f."""
    if f.rows != w.rows:
        raise MatrixError("ambient dimension mismatch")
    ker = kernel_basis(f.hstack(-w))
    return column_space_basis(ker.submatrix_rows(range(f.cols)))


def level_basis(fc: FilteredComplex, p: int, k: int) -> RationalMatrix:
    """Basis of F^p C^k: all of C^k for p <= 0, zero from the depth on."""
    n = fc.underlying.dim(k)
    if p <= 0:
        return RationalMatrix.identity(n)
    if p >= fc.depth or k not in fc.levels[p - 1]:
        return RationalMatrix.zeros(n, 0)
    return fc.levels[p - 1][k]


class _PageEntry:
    """Representatives of E_r^{p,q} = Z_r / D_r for one spot (p, q)."""

    __slots__ = ("reps", "denominator")

    def __init__(self, reps: RationalMatrix, denominator: RationalMatrix):
        self.reps = reps
        self.denominator = denominator


def spectral_sequence(fc: FilteredComplex, r_max: Optional[int] = None) -> list[SpectralSequencePage]:
    """Pages E_0 .. E_{r_max} of the filtration spectral sequence.

    After computing d_r, the page E_{r+1} is checked against the cohomology
    of (E_r, d_r); a mismatch raises (it would indicate an internal bug).
    Default r_max is depth + 1, past which all pages are stable: at most
    pages 0..depth+1 are computed, and each later page is a copy of page
    depth + 1 (whose differentials all land outside the grid) relabelled r.
    """
    c = fc.underlying
    depth = fc.depth
    if r_max is None:
        r_max = depth + 1
    r_max = max(r_max, 0)

    pq_pairs = [(p, k - p) for k in c.degrees() for p in range(depth)]

    z_cache: dict[tuple[int, int, int], RationalMatrix] = {}

    def z(r: int, p: int, k: int) -> RationalMatrix:
        """Z_r^{p, k-p} = F^p C^k ∩ d^{-1}(F^{p+r} C^{k+1}); for r <= 0 this
        is just F^p C^k (d preserves the filtration)."""
        if r <= 0:
            return level_basis(fc, p, k)
        key = (r, p, k)
        if key not in z_cache:
            fp = level_basis(fc, p, k)
            if fp.cols == 0:
                z_cache[key] = fp
            else:
                d = c.differential(k)
                images = [d.apply(fp.column(j)) for j in range(fp.cols)]
                dmat = RationalMatrix.from_columns(images, c.dim(k + 1))
                coeff = preimage_space(dmat, level_basis(fc, p + r, k + 1))
                vecs = [fp.apply(coeff.column(j)) for j in range(coeff.cols)]
                z_cache[key] = column_space_basis(
                    RationalMatrix.from_columns(vecs, c.dim(k)))
        return z_cache[key]

    def page_entries(r: int) -> dict[tuple[int, int], _PageEntry]:
        data = {}
        for (p, q) in pq_pairs:
            k = p + q
            zr = z(r, p, k)
            z_above = z(r - 1, p + 1, k)
            lower = z(r - 1, p - r + 1, k - 1)
            d_prev = c.differential(k - 1)
            images = [d_prev.apply(lower.column(j)) for j in range(lower.cols)]
            img = RationalMatrix.from_columns(images, c.dim(k))
            denom = sum_spaces(z_above, img)
            if not contains_space(zr, denom):
                raise ComplexError("internal: page denominator not contained in Z_r")
            chosen = extend_basis(denom, zr)
            data[(p, q)] = _PageEntry(zr.submatrix_columns(chosen), denom)
        return data

    pages: list[SpectralSequencePage] = []
    prev_cohomology: Optional[dict[tuple[int, int], int]] = None
    for r in range(0, min(r_max, depth + 1) + 1):
        data = page_entries(r)
        entries = {pq: e.reps.cols for pq, e in data.items() if e.reps.cols}
        diffs: dict[tuple[int, int], RationalMatrix] = {}
        for (p, q), e in data.items():
            if e.reps.cols == 0:
                continue
            target = data.get((p + r, q - r + 1))
            d = c.differential(p + q)
            cols = []
            t_cols = target.reps.cols if target else 0
            for j in range(e.reps.cols):
                image = d.apply(e.reps.column(j))
                if target is None:
                    if any(v != 0 for v in image):
                        raise ComplexError("internal: d_r image outside the page grid")
                    cols.append(tuple())
                else:
                    sol = solve_rational(target.reps.hstack(target.denominator), image)
                    if sol is None:
                        raise ComplexError("internal: d_r image not in target page space")
                    cols.append(sol[:t_cols])
            diffs[(p, q)] = RationalMatrix.from_columns(cols, t_cols)
        page = SpectralSequencePage(r, entries, diffs)
        if prev_cohomology is not None:
            for pq in set(entries) | set(prev_cohomology):
                if entries.get(pq, 0) != prev_cohomology.get(pq, 0):
                    raise ComplexError(
                        f"internal: page {r} entry at {pq} does not match "
                        f"cohomology of page {r - 1}")
        coh: dict[tuple[int, int], int] = {}
        for (p, q), n in entries.items():
            out = diffs.get((p, q))
            inc = diffs.get((p - r, q + r - 1))
            dim = n - (rank(out) if out is not None else 0) \
                    - (rank(inc) if inc is not None else 0)
            if dim:
                coh[(p, q)] = dim
        prev_cohomology = coh
        pages.append(page)
    stable = pages[-1]
    pages += [SpectralSequencePage(r, dict(stable.entries), dict(stable.differentials))
              for r in range(depth + 2, r_max + 1)]
    return pages


def degeneration_check(pages: list[SpectralSequencePage]) -> tuple[bool, Optional[int]]:
    """True iff every d_r with r >= 1 on ``pages`` vanishes; else the first
    nonzero page."""
    for page in pages[1:]:
        if not all(m.is_zero() for m in page.differentials.values()):
            return False, page.r
    return True, None


def persistence_pairs(x: RationalMatrix, col_level: list[int],
                      row_level: list[int]) -> list[tuple[int, int]]:
    """Pairs (j, i) of a column reduction of X in filtration order.

    Columns are processed in the order (-level, index); the low of a column
    is its nonzero row that comes last in the same order on the rows.  A
    column whose low is taken is reduced by the column that took it."""
    cols: dict[int, dict[int, Fraction]] = {}
    for (i, j), v in x.entries.items():
        cols.setdefault(j, {})[i] = v
    row_key = lambda i: (-row_level[i], i)
    taken: dict[int, dict[int, Fraction]] = {}
    pairs = []
    for j in sorted(cols, key=lambda j: (-col_level[j], j)):
        col = cols[j]
        while col:
            low = max(col, key=row_key)
            pivot = taken.get(low)
            if pivot is None:
                taken[low] = col
                pairs.append((j, low))
                break
            f = col[low] / pivot[low]
            for i, v in pivot.items():
                w = col.get(i, 0) - f * v
                if w:
                    col[i] = w
                else:
                    del col[i]
    return pairs
