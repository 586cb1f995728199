"""Exact rational linear algebra: one matrix type, one elimination.

Everything downstream (cohomology, spectral sequences, weight filtrations)
reduces to ranks, kernels, linear solves and Smith normal forms of small
matrices over Q and Z.  The one matrix type is the sparse `RationalMatrix`
with `fractions.Fraction` entries.  The one elimination is `_echelon`, on
sparse integer rows built straight from the entries (each row scaled by the
lcm of its denominators): each row in turn is reduced against the pivot rows
found so far.  Row operations keep every dependency among the columns, so
the pivot columns are the greedy left-to-right column basis and the reduced
echelon form is unique, whichever rows end up as pivots.  Hence rank, pivot
columns, the kernel basis (1 at one free column, 0 at the others) and the
solution that is 0 on the free columns are fixed, and every report is
reproducible bit for bit.  Products accumulate in ints: each row of the left
factor and each column of the right one is scaled by the lcm of its
denominators, and each nonzero entry of the product becomes one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional, Sequence


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MatrixError(ValueError):
    pass


class RationalMatrix:
    """Sparse matrix over Q.  Stored entries are nonzero; immutable by convention."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]):
        if rows < 0 or cols < 0:
            raise MatrixError("negative matrix dimensions")
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise MatrixError(f"entry index ({i}, {j}) out of bounds for {rows}x{cols}")
            v = _as_rational(v)
            if v != 0:
                clean[(i, j)] = v
        self.rows = rows
        self.cols = cols
        self.entries = clean

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise MatrixError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = _as_rational(v)
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> "RationalMatrix":
        entries = {}
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise MatrixError("column length mismatch")
            for i, v in enumerate(col):
                entries[(i, j)] = _as_rational(v)
        return cls(rows, len(columns), entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    def at(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def to_dense(self) -> list[list[Fraction]]:
        dense = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.at(i, j) for i in range(self.rows))

    def diagonal(self) -> list[Fraction]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              {(j, i): v for (i, j), v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError("shape mismatch in addition")
        entries = dict(self.entries)
        for key, v in other.entries.items():
            entries[key] = entries.get(key, Fraction(0)) + v
        return RationalMatrix(self.rows, self.cols, entries)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols,
                              {key: -v for key, v in self.entries.items()})

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise MatrixError("shape mismatch in multiplication")
        # Row i of self scaled by a_i and column j of other by b_j (the lcms of
        # their denominators) are integers, so entry (i, j) is one exact
        # integer sum over a_i * b_j.
        row_scale: dict[int, int] = {}
        for (i, _), v in self.entries.items():
            row_scale[i] = lcm(row_scale.get(i, 1), v.denominator)
        col_scale: dict[int, int] = {}
        for (_, j), v in other.entries.items():
            col_scale[j] = lcm(col_scale.get(j, 1), v.denominator)
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, []).append((k, v.numerator * (row_scale[i] // v.denominator)))
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.entries.items():
            by_col.setdefault(k, []).append((j, v.numerator * (col_scale[j] // v.denominator)))
        entries: dict[tuple[int, int], Fraction] = {}
        for i, terms in by_row.items():
            acc: dict[int, int] = {}
            for k, v in terms:
                for j, w in by_col.get(k, ()):
                    acc[j] = acc.get(j, 0) + v * w
            a = row_scale[i]
            for j, total in acc.items():
                if total:
                    entries[(i, j)] = Fraction(total, a * col_scale[j])
        return RationalMatrix(self.rows, other.cols, entries)

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        if len(vector) != self.cols:
            raise MatrixError("vector length mismatch")
        vec = [_as_rational(v) for v in vector]
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            if vec[j] != 0:
                out[i] += v * vec[j]
        return tuple(out)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise MatrixError("row count mismatch in hstack")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return RationalMatrix(self.rows, self.cols + other.cols, entries)

    def submatrix_columns(self, col_indices: Sequence[int]) -> "RationalMatrix":
        pos = {j: p for p, j in enumerate(col_indices)}
        entries = {}
        for (i, j), v in self.entries.items():
            if j in pos:
                entries[(i, pos[j])] = v
        return RationalMatrix(self.rows, len(col_indices), entries)


# ---------------------------------------------------------------------------
# sparse elimination
# ---------------------------------------------------------------------------


def _integer_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """The rows of ``m`` as sparse integer dicts, each scaled by the lcm of its
    denominators (which keeps rank, kernel and the column dependencies)."""
    rows: list[dict] = [{} for _ in range(m.rows)]
    fractional = set()
    for (i, j), v in m.entries.items():
        if v.denominator == 1:
            rows[i][j] = v.numerator
        else:
            rows[i][j] = v
            fractional.add(i)
    for i in fractional:
        row = rows[i]
        scale = 1
        for v in row.values():
            scale = lcm(scale, v.denominator)
        for j, v in row.items():
            row[j] = v.numerator * (scale // v.denominator)
    return rows


def _echelon(rows: list[dict[int, int]]):
    """Reduce the integer ``rows``, in order and in place, against the pivot
    rows found so far: while the leading column c of r has a pivot row p,
    r becomes a*r - b*p with a/b = p[c]/r[c] in lowest terms.  A row whose
    leading column is new is divided by its content and is the pivot of c.
    Returns the pivot row of each pivot column, the new leading column of
    each input row (None if it vanished), and the products of the contents
    and of the multipliers a."""
    pivots: dict[int, dict[int, int]] = {}
    leads: list[Optional[int]] = []
    contents = multipliers = 1
    for r in rows:
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                g = gcd(*r.values())
                if g != 1:
                    r = {j: v // g for j, v in r.items()}
                    contents *= g
                pivots[c] = r
                break
            g = gcd(p[c], r[c])
            a, b = p[c] // g, r[c] // g
            if a != 1:
                r = {j: a * v for j, v in r.items()}
                multipliers *= a
            for j, v in p.items():
                w = r.get(j, 0) - b * v
                if w:
                    r[j] = w
                else:
                    del r[j]
        leads.append(c if r else None)  # r survives only as the pivot of c
    return pivots, leads, contents, multipliers


def _back_substitute(pivots: dict[int, dict[int, int]],
                     v: list[Fraction]) -> tuple[Fraction, ...]:
    """The vector of the null space of the pivot rows that agrees with ``v``
    off the pivot columns; the pivot coordinates of ``v`` are overwritten,
    last pivot column first."""
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        s = Fraction(0)
        for j, x in row.items():
            if j != pc and v[j]:
                s += x * v[j]
        v[pc] = -s / row[pc]
    return tuple(v)


def rank(m: RationalMatrix) -> int:
    """Dimension of the row space of ``m`` over Q."""
    return len(_echelon(_integer_rows(m))[0])


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of ker(m); one vector per free column, ascending."""
    pivots = _echelon(_integer_rows(m))[0]
    zero = [Fraction(0)] * m.cols
    return [_back_substitute(pivots, zero[:f] + [Fraction(1)] + zero[f + 1:])
            for f in range(m.cols) if f not in pivots]


def solve_rational(m: RationalMatrix, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """A solution x of m x = b, or None if inconsistent.

    Free variables are set to zero, so the support of the returned solution
    is contained in the deterministic pivot columns (minimal-support choice).
    """
    aug = m.hstack(RationalMatrix.from_columns([b], m.rows))
    pivots = _echelon(_integer_rows(aug))[0]
    if m.cols in pivots:
        return None  # a pivot in the augmented column: inconsistent
    # (x, -1) lies in the null space of [m | b]
    return _back_substitute(pivots, [Fraction(0)] * m.cols + [Fraction(-1)])[:m.cols]


def leading_columns(m: RationalMatrix) -> list[Optional[int]]:
    """For each row of ``m``, the leading column it has once reduced against
    the rows above it, or None if it lies in their span."""
    return _echelon(_integer_rows(m))[1]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.  The pivot rows are the input
    rows times a lower triangular matrix with diagonal (product of the row's
    multipliers a) / (its content), and are triangular in leading column order.

    >>> determinant([[2, 1], [4, 3]]), determinant([[0, 1], [1, 0]]), determinant([])
    (2, -1, 1)
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise MatrixError("determinant needs a square matrix")
    pivots, leads, contents, multipliers = _echelon(
        [{j: x for j, x in enumerate(row) if x} for row in rows])
    if len(pivots) < n:
        return 0
    det = contents * prod(row[c] for c, row in pivots.items())
    inversions = sum(a > b for k, a in enumerate(leads) for b in leads[k + 1:])
    return (-1) ** inversions * det // multipliers


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(m: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
    """Return (U, D, V) with U*m*V = D, D diagonal with d1 | d2 | ...

    ``m`` must have integer entries (else MatrixError).  U and V are products
    of row/column swaps, transvections and sign flips, so det(U), det(V) are
    +-1.  Pivoting is on the minimal absolute value (ties broken by lowest
    row, then column) which keeps entries small.

    >>> m = RationalMatrix.from_rows([[2, 4], [6, 8]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal()
    [Fraction(2, 1), Fraction(4, 1)]
    >>> u * m * v == d
    True
    """
    if any(x.denominator != 1 for x in m.entries.values()):
        raise MatrixError("Smith normal form needs integer entries")
    nr, nc = m.rows, m.cols
    d = [[x.numerator for x in row] for row in m.to_dense()]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, k, q):  # row_i -= q * row_k
        d[i] = [a - q * b for a, b in zip(d[i], d[k])]
        u[i] = [a - q * b for a, b in zip(u[i], u[k])]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in d:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nr, nc):
        # minimal nonzero absolute value in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = d[i][j]
                if val != 0 and (best is None or abs(val) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear column t
            restart = False
            for i in range(t + 1, nr):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:  # smaller remainder becomes the pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, nc):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # divisibility chain: fold a non-multiple into the pivot row
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # row_t += row_offender
        if d[t][t] < 0:
            d[t] = [-a for a in d[t]]
            u[t] = [-a for a in u[t]]
        t += 1

    def shaped(rows, cols):  # from_rows cannot tell the width of a matrix with no rows
        return RationalMatrix(len(rows), cols, {(i, j): x for i, row in enumerate(rows)
                                                for j, x in enumerate(row) if x})

    return shaped(u, nr), shaped(d, nc), shaped(v, nc)


# ---------------------------------------------------------------------------
# column-space utilities (subspaces of Q^n given by basis matrices)
# ---------------------------------------------------------------------------


def pivot_columns(m: RationalMatrix) -> list[int]:
    """Column indices whose original columns form a basis of the column space."""
    return sorted(_echelon(_integer_rows(m))[0])


def column_space_basis(m: RationalMatrix) -> RationalMatrix:
    """Deterministic basis of col(m): the pivot columns of ``m`` itself."""
    return m.submatrix_columns(pivot_columns(m))


def sum_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.rows != b.rows:
        raise MatrixError("ambient dimension mismatch")
    return column_space_basis(a.hstack(b))


def contains_space(a: RationalMatrix, b: RationalMatrix) -> bool:
    """True iff col(b) ⊆ col(a): no column of b is a pivot of [a | b]."""
    return all(j < a.cols for j in pivot_columns(a.hstack(b)))


def spaces_equal(a: RationalMatrix, b: RationalMatrix) -> bool:
    return contains_space(a, b) and contains_space(b, a)


def extend_basis(sub: RationalMatrix, ambient: RationalMatrix) -> list[int]:
    """Greedy column indices of ``ambient`` extending col(sub) to col(sub)+col(ambient).

    The scan order over ambient columns is ascending, so the choice is
    deterministic.
    """
    # column j of ambient is chosen iff it is not in the span of sub and the
    # ambient columns before it, i.e. iff it is a pivot column of [sub | ambient]
    return [j - sub.cols for j in pivot_columns(sub.hstack(ambient)) if j >= sub.cols]
