"""Exact sparse linear algebra over the rationals and over prime fields.

Every computation in this package (morphism spaces, extension groups,
resolution ranks, Cech cohomology) bottoms out in the kernels of this
module.  Arithmetic is exact: rational entries are `fractions.Fraction`
(always in lowest terms), prime-field entries are integers in [0, p).

There is one storage layout and one code path for both kinds of field.  A
matrix is a tuple of rows, each row a `{column: value}` dict holding only
the nonzero entries; no zero is ever stored, so equal matrices have equal
rows.  The assembled matrices are about 1 % nonzero, which is why rows are
sparse rather than dense.  MatrixBuilder keeps its rows in this form as it
places each diagonal run whole, or a whole list of single cells in one
call, so building a matrix takes no second pass; it writes each cell once,
without reading it, and checks that on build().

Elimination is two passes.  `_echelon`, the forward pass, reduces each
row in turn against the pivot rows found so far, leftmost column first,
and adds what is left, unscaled, as a new pivot row; once every column
holds a pivot it takes no more rows, since they lie in the span of the
pivot rows.  It never writes to an input row: it copies one when a
subtraction first changes it, so a pivot row that needed none is the input
row itself.  `_reduce`, the second pass, scales a copy of each pivot row to
1 and back-substitutes to the reduced row echelon form.  Rank, consistency
and cokernel representatives read only the pivot columns, so they run the
forward pass alone; kernel bases and solutions read the reduced form.  A
pivot in the right-hand side's column proves a system inconsistent, so
`solve` stops the forward pass at the first one.
`solve` and `cokernel_representatives` build the rows of [m | b] and
[m | I] themselves; a row with nothing appended is m's own row, shared.
The pivot columns of any echelon form of a matrix are the columns where
the rank of the leading columns grows, and the reduced row echelon form is
unique, so neither depends on the order in which rows are taken or pivots
are found.  Ranks, kernel bases, solutions and cokernel representatives
are therefore the same as those of textbook Gaussian elimination, and
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Element = Union[Fraction, int]


class CrossCheckError(RuntimeError):
    """An internal cross-check failed.  This is a bug, never a property of the input."""


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# every n below this bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; moduli past the proven range raise ValueError."""
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large: primality is certified "
                         f"only below {_MR_LIMIT}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals or the prime field of a given modulus."""

    kind: str
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.kind == "rationals":
            if self.modulus is not None:
                raise ValueError("rationals take no modulus")
        elif self.kind == "prime_field":
            if self.modulus is None or self.modulus < 2 or not _is_prime(self.modulus):
                raise ValueError(f"modulus must be a prime >= 2, got {self.modulus}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("rationals")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("prime_field", p)

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime_field"

    def element(self, value) -> Element:
        """Coerce an int, string ("3/2", "7") or Fraction into the field; a
        float, which is not exact and which int() would truncate, raises TypeError."""
        if isinstance(value, float):
            raise TypeError(f"{value!r} is a float, not an exact field element")
        p = self.modulus
        if p is None:
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer residue")
            value = value.numerator
        return int(value) % p

    def inv(self, x: Element) -> Element:
        """Multiplicative inverse of a nonzero field element."""
        return pow(x, -1, self.modulus) if self.is_prime_field else 1 / x

    def zero(self) -> Element:
        return 0 if self.is_prime_field else Fraction(0)

    def one(self) -> Element:
        return 1 if self.is_prime_field else Fraction(1)

    def __str__(self) -> str:
        return "Q" if not self.is_prime_field else f"F{self.modulus}"


def _canonical(field: FieldSpec, acc: dict) -> dict:
    """Row of field elements from a {column: int or element} sum, zeros dropped."""
    p = field.modulus
    out = {}
    for j, v in acc.items():
        v = v % p if p is not None and type(v) is int else field.element(v)
        if v:
            out[j] = v
    return out


class ExactMatrix:
    """Sparse matrix over a FieldSpec, immutable after construction.

    `_rows` is a tuple of `{column: nonzero field element}` dicts.  No code
    mutates a row once it belongs to a matrix, so matrices may share rows.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: FieldSpec, rows: int, cols: int,
                 entries: Optional[Sequence[Sequence]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.field = field
        self.nrows = rows
        self.ncols = cols
        if entries is None:
            self._rows = tuple({} for _ in range(rows))
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError(f"entries do not form a {rows}x{cols} matrix")
            self._rows = tuple(_canonical(field, dict(enumerate(r))) for r in entries)

    @classmethod
    def _wrap(cls, field: FieldSpec, rows: tuple, ncols: int) -> "ExactMatrix":
        """Adopt canonical sparse rows without copying or checking them."""
        m = cls.__new__(cls)
        m.field = field
        m.nrows, m.ncols = len(rows), ncols
        m._rows = rows
        return m

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        one = field.one()
        return cls._wrap(field, tuple({i: one} for i in range(n)), n)

    # -- basic accessors --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def __getitem__(self, key) -> Element:
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows}x{self.ncols} matrix")
        return self._rows[i].get(j, self.field.zero())

    def row_list(self, i: int) -> list:
        if not 0 <= i < self.nrows:
            raise IndexError(f"row {i} outside a {self.nrows}x{self.ncols} matrix")
        row = self._rows[i]
        zero = self.field.zero()
        return [row.get(j, zero) for j in range(self.ncols)]

    def to_lists(self) -> list:
        return [self.row_list(i) for i in range(self.nrows)]

    def sparse_rows(self) -> tuple:
        """The rows as {column: nonzero value} dicts, not to be mutated."""
        return self._rows

    def nonzeros(self):
        """Yield (row, column, value) for every nonzero entry, row by row."""
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                yield i, j, x

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.field, self.shape,
                     tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic --------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise ValueError("matrix product over different fields")
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch for product: {self.shape} @ {other.shape}"
            )
        b = other._rows
        rows = []
        for r in self._rows:
            acc = {}
            for k, x in r.items():
                for j, y in b[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            rows.append(_canonical(self.field, acc))
        return ExactMatrix._wrap(self.field, tuple(rows), other.ncols)

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, returning a plain list of field elements."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != {self.ncols} columns")
        zero, p = self.field.zero(), self.field.modulus
        v = [x % p if p is not None and type(x) is int else self.field.element(x) for x in vec]
        out = [sum((x * v[j] for j, x in r.items()), zero) for r in self._rows]
        return out if p is None else [x % p for x in out]


class MatrixBuilder:
    """Write-once assembler of large block matrices.

    A cell is written without being read: a value is brought into the field
    once per run and a zero is not written, so build() adopts the rows as
    they are.  build() raises CrossCheckError when the cells written differ
    from the nonzeros stored (a cell was written twice), and IndexError for
    the first entry outside the shape, which is not placed.  build() hands
    its rows to the matrix, so any later call raises RuntimeError.
    """

    def __init__(self, field: FieldSpec, rows: int, cols: int):
        self.field = field
        self.nrows = rows
        self.ncols = cols
        self._rows = [{} for _ in range(rows)]
        self._written = 0           # cells written, each one a nonzero
        self._outside = None        # message naming the first entry outside the shape

    def _live_rows(self) -> list:
        if self._rows is None:
            raise RuntimeError("this builder has built its matrix already")
        return self._rows

    def add(self, i: int, j: int, value):
        """Write an int or a field element at (i, j)."""
        self.add_run(i, j, 1, value)

    def add_run(self, i: int, j: int, n: int, value):
        """Write an int or a field element at (i + e, j + e) for 0 <= e < n."""
        rows, p = self._rows or self._live_rows(), self.field.modulus
        x = value % p if p is not None and type(value) is int else self.field.element(value)
        if n <= 0 or not x:
            return
        if not (0 <= i <= self.nrows - n and 0 <= j <= self.ncols - n):
            if self._outside is None:       # the run's first entry outside
                e = 0 if min(i, j) < 0 else max(0, min(self.nrows - i, self.ncols - j))
                self._outside = (f"entry ({i + e}, {j + e}) outside a "
                                 f"{self.nrows}x{self.ncols} matrix")
            return
        self._written += n
        for row in rows[i:i + n]:
            row[j] = x
            j += 1

    def add_cells(self, cells: Iterable):
        """Write each (i, j, value) of cells as add(i, j, value) would, in one call."""
        rows, p = self._rows or self._live_rows(), self.field.modulus
        element, nrows, ncols, written = self.field.element, self.nrows, self.ncols, 0
        for i, j, value in cells:
            x = value % p if p is not None and type(value) is int else element(value)
            if not x:
                continue
            if 0 <= i < nrows and 0 <= j < ncols:
                rows[i][j] = x
                written += 1
            elif self._outside is None:
                self._outside = f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix"
        self._written += written

    def build(self) -> ExactMatrix:
        rows = self._live_rows()
        self._rows = None
        if self._outside is not None:
            raise IndexError(self._outside)
        stored = sum(map(len, rows))
        if stored != self._written:
            raise CrossCheckError(f"a cell was written twice: {self._written} writes, "
                                  f"{stored} nonzeros")
        return ExactMatrix._wrap(self.field, tuple(rows), self.ncols)


# -- tensoring --------------------------------------------------------------

def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; the left factor indexes the most significant blocks."""
    if a.field != b.field:
        raise ValueError("kron over different fields")
    n = b.ncols
    rows = tuple(_canonical(a.field, {j * n + l: x * y for j, x in ra.items()
                                      for l, y in rb.items()})
                 for ra in a._rows for rb in b._rows)
    return ExactMatrix._wrap(a.field, rows, a.ncols * n)


# -- elimination ------------------------------------------------------------

def _subtract_multiple(row: dict, f: Element, prow: dict, p: Optional[int]):
    """row -= f * prow in place, dropping entries that become zero."""
    for j, x in prow.items():
        v = row.get(j, 0) - f * x
        if p is not None:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]


def _echelon(m: ExactMatrix, stop: Optional[int] = None) -> list:
    """Pivot rows [(pivot column, row)] of an echelon form of m, by column.

    No pivot row has an entry left of its pivot column.  The rows are not
    scaled, and a row of m that needed no subtraction is returned as it is,
    the same dict; a row is copied when a subtraction first changes it.
    Once a pivot lands in column stop, the pivots found so far are returned.
    """
    field, p = m.field, m.field.modulus
    pivots, invs = {}, {}
    for src in m._rows:
        if len(pivots) == m.ncols or stop in pivots:
            break
        row = src
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            if row is src:
                row = dict(src)
            inv = invs.get(c)
            if inv is None:
                inv = invs[c] = field.inv(prow[c])
            _subtract_multiple(row, row[c] * inv % p if p else row[c] * inv, prow, p)
    return [(c, pivots[c]) for c in sorted(pivots)]


def _reduce(field: FieldSpec, echelon: list) -> list:
    """The reduced row echelon form of _echelon's pivot rows: copies scaled to 1
    there, and none with an entry in another row's pivot column."""
    p = field.modulus
    pivots = {}
    for c, row in echelon:
        inv = field.inv(row[c])
        pivots[c] = {j: x * inv % p if p else x * inv for j, x in row.items()}
    # right to left: rows at later pivots are already fully reduced
    for c, _ in reversed(echelon):
        row = pivots[c]
        for c2 in [j for j in row if j != c and j in pivots]:
            _subtract_multiple(row, row[c2], pivots[c2], p)
    return [(c, pivots[c]) for c, _ in echelon]


def rank(m: ExactMatrix) -> int:
    return len(_echelon(m))


def kernel_basis(m: ExactMatrix) -> list:
    """Deterministic kernel basis (reduced-echelon convention).

    One vector per free column j: entry 1 at j, minus the reduced echelon
    entry at each pivot column.  Vectors are returned as lists of field elements.
    """
    field = m.field
    echelon = _reduce(field, _echelon(m))
    pivot_set = {c for c, _ in echelon}
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = {j: [field.zero()] * m.ncols for j in free}
    for j, v in basis.items():
        v[j] = field.one()
    for c, row in echelon:
        for j, x in row.items():
            if j != c:
                basis[j][c] = -x % field.modulus if field.is_prime_field else -x
    if len(basis) != m.ncols - len(echelon):
        raise CrossCheckError("kernel basis violates rank-nullity")
    return list(basis.values())


def solve(m: ExactMatrix, b: Sequence) -> Optional[list]:
    """One solution x of m·x = b, or None when the system is inconsistent.

    The forward pass runs on [m | b], whose row i is m's own row where b[i]
    is zero and a copy with b[i] appended at column n = m.ncols otherwise.
    The system is inconsistent iff a pivot lies in column n, so the pass
    stops at the first such pivot.  Only a consistent system is reduced,
    and x is read off its column n.
    """
    if len(b) != m.nrows:
        raise ValueError(f"right-hand side length {len(b)} != {m.nrows} rows")
    field, n = m.field, m.ncols
    rhs = _canonical(field, dict(enumerate(b)))
    aug = tuple({**r, n: rhs[i]} if i in rhs else r for i, r in enumerate(m._rows))
    echelon = _echelon(ExactMatrix._wrap(field, aug, n + 1), n)
    if echelon and echelon[-1][0] == n:
        return None
    zero = field.zero()
    x = [zero] * n
    for c, row in _reduce(field, echelon):
        x[c] = row.get(n, zero)
    return x


def cokernel_representatives(m: ExactMatrix) -> list:
    """Standard basis vectors of the codomain spanning a complement of im(m).

    Greedy and deterministic: run elimination on [m | I] and keep the identity
    columns that become pivots.  The returned vectors represent a basis of
    coker(m).
    """
    field, n, one = m.field, m.ncols, m.field.one()
    aug = tuple({**r, n + i: one} for i, r in enumerate(m._rows))
    pivots = [c for c, _ in _echelon(ExactMatrix._wrap(field, aug, n + m.nrows))]
    picked = [c - n for c in pivots if c >= n]
    # the pivots inside m's columns are exactly the pivots of m
    if len(picked) != m.nrows - (len(pivots) - len(picked)):
        raise CrossCheckError("cokernel representatives miscounted")
    reps = []
    for k in picked:
        v = [field.zero()] * m.nrows
        v[k] = one
        reps.append(v)
    return reps


# -- vectorisation helpers ---------------------------------------------------
#
# Hom blocks are vectorised column-major throughout the package: the matrix
# entry X[r, c] sits at coordinate c*nrows + r.

def unvec_matrix(field: FieldSpec, vec: Sequence, rows: int, cols: int,
                 offset: int = 0) -> ExactMatrix:
    """The rows x cols matrix whose column-major vectorisation starts at vec[offset]."""
    return ExactMatrix(field, rows, cols, [[vec[offset + c * rows + r] for c in range(cols)]
                                           for r in range(rows)])

