"""Exact rational linear algebra: one matrix type, one elimination.

Everything downstream (cohomology, spectral sequences, weight filtrations)
reduces to ranks, kernels, linear solves and Smith normal forms of small
matrices over Q and Z.  The one matrix type is the sparse `RationalMatrix`.
Only this module reads its storage: each nonzero row is a dict {column: int}
over one positive denominator, in lowest terms (the gcd of the numerators and
the denominator is 1), so ``==`` and ``hash`` compare the storage as it is.
The public constructor checks bounds and entry types and drops zeros; the
matrices made here, whose rows are already in that form, go through a
trusted constructor that checks nothing.  `RationalMatrix.from_ratios` takes
rows of integer pairs (p, q), q > 0, as the JSON loaders parse them, straight
into that form: one lcm and one gcd per row, and no Fraction.  ``entries`` is
a read-only view that makes a Fraction only when an entry is read.  Products
run in ints, with one gcd per product row whose denominator is not 1.  Rows
over reduced fractions, or rows in lowest terms joined over the lcm of their
denominators, are in lowest terms already.

The one elimination is `_echelon`, on copies of the integer rows (a row times
its denominator keeps rank, kernel and the column dependencies): each row in
turn is reduced against the pivot rows found so far, and only the pivot rows
and each row's new leading column are kept.  Row operations keep
every dependency among the columns, so the pivot columns are the greedy
left-to-right column basis and the reduced echelon form is unique, whichever
rows end up as pivots.  `_reduced` back-reduces the pivot rows once into that
form, in integers, and kernels, solutions and inverses are read off it: the
kernel basis (1 at one free column, 0 at the others) straight into the stored
form, the solution that is 0 on the free columns, and B^-1 from the kernel of
[B | -I].  Hence all of them are fixed, and every report is reproducible bit
for bit.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm


class MatrixError(ValueError):
    pass


def _scaled(row: dict[int, int], f: int) -> dict[int, int]:
    return row if f == 1 else {j: f * v for j, v in row.items()}


def _lowest_terms(row: dict[int, int], d: int) -> tuple[dict[int, int], int]:
    """``row`` / ``d`` over its least denominator; no gcd when d is 1."""
    g = gcd(d, *row.values()) if d != 1 else 1
    return (row, d) if g == 1 else ({j: v // g for j, v in row.items()}, d // g)


def _build_rows(rows: int, cols: int, items) -> tuple[dict, dict]:
    """The stored form of the entries ``items``, pairs ((i, j), int or
    Fraction): bounds and types checked, zeros dropped."""
    if rows < 0 or cols < 0:
        raise MatrixError("negative matrix dimensions")
    num: dict[int, dict[int, int]] = {}
    fractional: dict[int, dict[int, tuple[int, int]]] = {}
    for (i, j), v in items:
        if not (0 <= i < rows and 0 <= j < cols):
            raise MatrixError(f"entry index ({i}, {j}) out of bounds for {rows}x{cols}")
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(v).__name__}")
            v, d = v.as_integer_ratio()
            if d != 1:
                fractional.setdefault(i, {})[j] = v, d
                continue
        if v:
            row = num.get(i)
            if row is None:
                num[i] = {j: v}
            else:
                row[j] = v
    den = {}
    for i, ratios in fractional.items():
        # reduced fractions over the lcm of their denominators: lowest terms
        den[i] = d = lcm(*(e for _, e in ratios.values()))
        num[i] = {**_scaled(num.get(i, {}), d),
                  **{j: n * (d // e) for j, (n, e) in ratios.items()}}
    return num, den


class _Entries(Mapping):
    """Read-only view {(i, j): Fraction} of the nonzero entries of a matrix;
    a Fraction is made only when an entry is read."""

    __slots__ = ("_m",)

    def __init__(self, m: "RationalMatrix"):
        self._m = m

    def __len__(self) -> int:
        return sum(map(len, self._m._num.values()))

    def __iter__(self):
        for i, row in self._m._num.items():
            for j in row:
                yield i, j

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._m._num[i][j], self._m._den.get(i, 1))


class RationalMatrix:
    """Sparse matrix over Q; immutable by convention.  ``_num`` maps each
    nonzero row to its numerators {column: nonzero int}, and ``_den`` maps
    each row whose denominator is not 1 to that denominator."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]):
        self.rows, self.cols = rows, cols
        self._num, self._den = _build_rows(rows, cols, entries.items())

    @classmethod
    def _trusted(cls, rows: int, cols: int, num: dict, den: dict) -> "RationalMatrix":
        """A matrix on rows already in the stored form; nothing is checked."""
        m = object.__new__(cls)
        m.rows, m.cols, m._num, m._den = rows, cols, num, den
        return m

    @classmethod
    def from_ratios(cls, rows: int, cols: int, ratio_rows) -> "RationalMatrix":
        """The matrix whose row i is ``ratio_rows[i]``: one pair (p, q) of ints
        with q > 0, not necessarily coprime, per column; rows past the last
        one given are zero.  The pairs are trusted: nothing is checked, and no
        Fraction is made."""
        num, den = {}, {}
        for i, ratios in enumerate(ratio_rows):
            d = lcm(*[q for _, q in ratios])
            row = {j: p * (d // q) for j, (p, q) in enumerate(ratios) if p}
            if row:
                num[i], d = _lowest_terms(row, d)
                if d != 1:
                    den[i] = d
        return cls._trusted(rows, cols, num, den)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise MatrixError("ragged rows")
        return cls._trusted(rows, cols, *_build_rows(
            rows, cols, (((i, j), v) for i, row in enumerate(data) for j, v in enumerate(row))))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int) -> "RationalMatrix":
        if any(len(col) != rows for col in columns):
            raise MatrixError("column length mismatch")
        return cls._trusted(rows, len(columns), *_build_rows(
            rows, len(columns),
            (((i, j), v) for j, col in enumerate(columns) for i, v in enumerate(col))))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        if rows < 0 or cols < 0:
            raise MatrixError("negative matrix dimensions")
        return cls._trusted(rows, cols, {}, {})

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._trusted(n, n, {i: {i: 1} for i in range(n)}, {})

    @property
    def entries(self) -> Mapping[tuple[int, int], Fraction]:
        """The nonzero entries, as a read-only view {(i, j): Fraction}."""
        return _Entries(self)

    def at(self, i: int, j: int) -> Fraction:
        return Fraction(self._num.get(i, {}).get(j, 0), self._den.get(i, 1))

    def to_dense(self) -> list[list[Fraction]]:
        return [[self.at(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.at(i, j) for i in range(self.rows))

    def diagonal(self) -> list[Fraction]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]

    def transpose(self) -> "RationalMatrix":
        num: dict[int, dict[int, int]] = {}
        for i, row in self._num.items():
            for j, v in row.items():
                num.setdefault(j, {})[i] = v
        numerators = RationalMatrix._trusted(self.cols, self.rows, num, {})
        if not self._den:
            return numerators
        # self = D^-1 N with D the diagonal of the row denominators
        inverse_d = RationalMatrix._trusted(self.rows, self.rows,
                                            {i: {i: 1} for i in range(self.rows)}, self._den)
        return numerators * inverse_d

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._num == other._num
                and self._den == other._den)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self._den.items()),
                     frozenset((i, frozenset(row.items())) for i, row in self._num.items())))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError("shape mismatch in addition")
        one = RationalMatrix.identity(self.cols)
        return self.hstack(other) * one.vstack(one)  # [A | B] (I; I) = A + B

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._trusted(
            self.rows, self.cols,
            {i: {j: -v for j, v in row.items()} for i, row in self._num.items()}, self._den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise MatrixError("shape mismatch in multiplication")
        right, scale = other._num, 1
        if other._den:
            # the rows of other over one common denominator
            scale = lcm(*other._den.values())
            right = {k: _scaled(row, scale // other._den.get(k, 1)) for k, row in right.items()}
        num, den = {}, {}
        for i, row in self._num.items():
            acc: dict[int, int] = {}
            for k, a in row.items():
                for j, b in right.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + a * b
            if not all(acc.values()):
                acc = {j: v for j, v in acc.items() if v}
            if acc:
                num[i], d = _lowest_terms(acc, self._den.get(i, 1) * scale)
                if d != 1:
                    den[i] = d
        return RationalMatrix._trusted(self.rows, other.cols, num, den)

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        if len(vector) != self.cols:
            raise MatrixError("vector length mismatch")
        return (self * RationalMatrix.from_columns([vector], self.cols)).column(0)

    def hstack(self, *others: "RationalMatrix") -> "RationalMatrix":
        """[self | others[0] | others[1] | ...]."""
        num, den, cols = dict(self._num), dict(self._den), self.cols
        for other in others:
            if self.rows != other.rows:
                raise MatrixError("row count mismatch in hstack")
            for i, row in other._num.items():
                a, b = den.get(i, 1), other._den.get(i, 1)
                d = lcm(a, b)
                num[i] = {**_scaled(num.get(i, {}), d // a),
                          **{j + cols: v for j, v in _scaled(row, d // b).items()}}
                if d != 1:
                    den[i] = d
            cols += other.cols
        return RationalMatrix._trusted(self.rows, cols, num, den)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise MatrixError("column count mismatch in vstack")
        shift = self.rows
        num, den = dict(self._num), dict(self._den)
        num.update({i + shift: row for i, row in other._num.items()})
        den.update({i + shift: d for i, d in other._den.items()})
        return RationalMatrix._trusted(self.rows + other.rows, self.cols, num, den)

    def submatrix_rows(self, row_indices: Sequence[int]) -> "RationalMatrix":
        num, den = {}, {}
        for p, i in enumerate(row_indices):
            if i in self._num:
                num[p] = self._num[i]
                if i in self._den:
                    den[p] = self._den[i]
        return RationalMatrix._trusted(len(row_indices), self.cols, num, den)

    def submatrix_columns(self, col_indices: Sequence[int]) -> "RationalMatrix":
        pos = {j: p for p, j in enumerate(col_indices)}
        num, den = {}, {}
        for i, row in self._num.items():
            kept = {pos[j]: v for j, v in row.items() if j in pos}
            if kept:  # dropped columns may leave a common factor
                num[i], d = _lowest_terms(kept, self._den.get(i, 1))
                if d != 1:
                    den[i] = d
        return RationalMatrix._trusted(self.rows, len(col_indices), num, den)


# ---------------------------------------------------------------------------
# sparse elimination
# ---------------------------------------------------------------------------


def _integer_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """Copies of the integer rows of ``m``, one per row, for `_echelon` to
    reduce in place."""
    num, empty = m._num, {}
    return [dict(num.get(i, empty)) for i in range(m.rows)]


def _cancel(r: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """a*r - b*p with a/b = p[c]/r[c] in lowest terms, so that column c
    cancels; r is changed in place when a is 1."""
    g = gcd(p[c], r[c])
    a, b = p[c] // g, r[c] // g
    if a != 1:
        r = {j: a * v for j, v in r.items()}
    for j, v in p.items():
        w = r.get(j, 0) - b * v
        if w:
            r[j] = w
        else:
            del r[j]
    return r


def _echelon(rows: list[dict[int, int]]):
    """Reduce the integer ``rows``, in order and in place, against the pivot
    rows found so far: while the leading column c of r has a pivot row p,
    r becomes a*r - b*p with a/b = p[c]/r[c] in lowest terms.  A row whose
    leading column is new is divided by its content and is the pivot of c.
    Returns the pivot row of each pivot column and the new leading column of
    each input row (None if it vanished)."""
    pivots: dict[int, dict[int, int]] = {}
    leads: list[int | None] = []
    for r in rows:
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                g = gcd(*r.values())
                pivots[c] = r if g == 1 else {j: v // g for j, v in r.items()}
                break
            r = _cancel(r, p, c)
        leads.append(c if r else None)  # r survives only as the pivot of c
    return pivots, leads


def _reduced(pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The pivot rows of `_echelon` in integer reduced echelon form, in
    place: last pivot column first, each row has its entries at the later
    pivot columns cancelled by their (already reduced) rows, and is divided
    by its content, signed so that its pivot entry is positive."""
    for c in sorted(pivots, reverse=True):
        r = pivots[c]
        for j in [j for j in r if j != c and j in pivots]:
            r = _cancel(r, pivots[j], j)
        g = gcd(*r.values())
        if r[c] < 0:
            g = -g
        pivots[c] = r if g == 1 else {j: v // g for j, v in r.items()}
    return pivots


def rank(m: RationalMatrix) -> int:
    """Dimension of the row space of ``m`` over Q."""
    return len(_echelon(_integer_rows(m))[0])


def kernel_basis(m: RationalMatrix) -> RationalMatrix:
    """Deterministic basis of ker(m), the columns of a cols x nullity
    matrix: one column per free column f of ``m``, ascending, with 1 at f and
    0 at the other free columns."""
    reduced = _reduced(_echelon(_integer_rows(m))[0])
    free = {f: k for k, f in enumerate(f for f in range(m.cols) if f not in reduced)}
    num, den = {}, {}
    for i in range(m.cols):
        row = reduced.get(i)
        if row is None:
            num[i] = {free[i]: 1}
            continue
        # row . x = 0 with x = 1 at the free column f: x_i = -row[f] / row[i],
        # over a positive denominator and in lowest terms (row has content 1)
        entries = {free[j]: -v for j, v in row.items() if j != i}
        if entries:
            num[i] = entries
            if row[i] != 1:
                den[i] = row[i]
    return RationalMatrix._trusted(m.cols, len(free), num, den)


def solve_rational(m: RationalMatrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """A solution x of m x = b, or None if inconsistent.

    Free variables are set to zero, so the support of the returned solution
    is contained in the deterministic pivot columns (minimal-support choice).
    """
    aug = m.hstack(RationalMatrix.from_columns([b], m.rows))
    pivots = _echelon(_integer_rows(aug))[0]
    if m.cols in pivots:
        return None  # a pivot in the augmented column: inconsistent
    # (x, -1) lies in the kernel of [m | b]: row[c] x_c = row[m.cols]
    x = [Fraction(0)] * m.cols
    for c, row in _reduced(pivots).items():
        x[c] = Fraction(row.get(m.cols, 0), row[c])
    return tuple(x)


def integer_columns(m: RationalMatrix) -> list[dict[int, int]]:
    """The columns of ``m``, each over its least denominator, as integer
    columns {row: int}: a column scaling moves no pivot and no pair."""
    rows = m.transpose()._num
    return [rows.get(j, {}) for j in range(m.cols)]


def independent_columns(columns: Sequence[dict[int, int]]) -> list[int]:
    """The greedy basis of the integer ``columns``: the index of each column
    outside the span of those before it, by one `_echelon` that inserts
    copies of the columns, read as rows, in turn."""
    return [j for j, lead in enumerate(_echelon([dict(c) for c in columns])[1])
            if lead is not None]


def matrix_in_bases(d: RationalMatrix, source: Sequence[dict[int, int]],
                    target: Sequence[dict[int, int]]) -> RationalMatrix:
    """T^-1 d S for the bases S and T of integer columns ``source`` and
    ``target``, T invertible: one elimination of the integer rows of
    [T | d S], row i times the denominator of row i of d, whose reduced row
    c is a positive multiple, of content 1, of (e_c, row c of T^-1 d S)."""
    n, s_rows = len(target), {}
    for j, column in enumerate(source):
        for i, v in column.items():
            s_rows.setdefault(i, {})[n + j] = v
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for c, column in enumerate(target):
        for i, v in column.items():
            rows[i][c] = v * d._den.get(i, 1)
    for i, d_row in d._num.items():
        row = rows[i]
        for k, a in d_row.items():
            for j, b in s_rows.get(k, {}).items():
                row[j] = row.get(j, 0) + a * b
        rows[i] = {j: v for j, v in row.items() if v}
    num, den = {}, {}
    for c, row in _reduced(_echelon(rows)[0]).items():
        if x := {j - n: v for j, v in row.items() if j >= n}:
            num[c] = x
            if row[c] != 1:
                den[c] = row[c]
    return RationalMatrix._trusted(n, len(source), num, den)


def column_lows(m: RationalMatrix, cols: Sequence[int], rows: Sequence[int]) -> list[int | None]:
    """The column reduction of ``m`` in the orders ``cols`` and ``rows``, each
    listing every index once: for each column of ``cols``, reduced against
    the columns before it, its low, the last row in ``rows`` order where it
    is nonzero, or None if it lies in their span.  That is the leading column
    of the rows of m^T with its columns in reverse ``rows`` order, read off
    the integer rows of ``m``: a row's denominator scales a column of m^T,
    which moves no leading column."""
    last = len(rows) - 1
    place = {i: last - p for p, i in enumerate(rows)}
    at = {j: p for p, j in enumerate(cols)}
    columns: list[dict[int, int]] = [{} for _ in cols]
    for i, row in m._num.items():
        for j, v in row.items():
            columns[at[j]][place[i]] = v
    return [None if c is None else rows[last - c] for c in _echelon(columns)[1]]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(m: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix, RationalMatrix]:
    """Return (U, D, V) with U*m*V = D, D diagonal with d1 | d2 | ...

    ``m`` must have integer entries (else MatrixError).  U and V are products
    of row/column swaps, transvections and sign flips, so det(U), det(V) are
    +-1.  One pivot rule, applied at each t until row t and column t are
    clear: the least |entry| of the trailing block (ties to the lowest row,
    then column) goes to (t, t) and reduces its column and row; a remainder
    left behind is smaller and is picked next.  Once both are clear, a row
    with an entry the pivot does not divide is added to row t, and the rule
    runs again; else the pivot is made positive.

    >>> m = RationalMatrix.from_rows([[2, 4], [6, 8]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal()
    [Fraction(2, 1), Fraction(4, 1)]
    >>> u * m * v == d
    True
    """
    if m._den:
        raise MatrixError("Smith normal form needs integer entries")
    nr, nc = m.rows, m.cols
    # the rows of [D | U] take the row operations, those of [D ; V] the column ones
    a = [[m._num.get(i, {}).get(j, 0) for j in range(nc)] + [int(i == k) for k in range(nr)]
         for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    for t in range(min(nr, nc)):
        while True:
            pivot = min(((abs(x), i, j) for i in range(t, nr)
                         for j, x in enumerate(a[i][t:nc], t) if x), default=None)
            if pivot is None:
                break
            _, i, j = pivot
            a[t], a[i] = a[i], a[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, nr):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, nc):
                q = a[t][j] // p
                if q:
                    for row in a + v:
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][t + 1:nc]):
                continue  # a remainder, smaller than |p|, is the next pivot
            # divisibility chain: fold a row holding a non-multiple of p into row t
            fold = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:nc])), None)
            if fold is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[fold])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return tuple(RationalMatrix(len(rows), width, {(i, j): x for i, row in enumerate(rows)
                                                   for j, x in enumerate(row)})
                 for rows, width in (([row[nc:] for row in a], nr),
                                     ([row[:nc] for row in a], nc), (v, nc)))


# ---------------------------------------------------------------------------
# column-space utilities (subspaces of Q^n given by basis matrices)
# ---------------------------------------------------------------------------


def pivot_columns(m: RationalMatrix) -> list[int]:
    """Column indices whose original columns form a basis of the column space."""
    return sorted(_echelon(_integer_rows(m))[0])


def column_space_basis(m: RationalMatrix) -> RationalMatrix:
    """Deterministic basis of col(m): the pivot columns of ``m`` itself."""
    return m.submatrix_columns(pivot_columns(m))


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
