"""Exact dense linear algebra over the rationals and over prime fields.

Every computation in this package (morphism spaces, extension groups,
resolution ranks, Cech cohomology) bottoms out in the kernels of this
module.  Arithmetic is exact: rational entries are `fractions.Fraction`
(always in lowest terms), prime-field entries are integers in [0, p).
Elimination pivots deterministically on the first nonzero entry in column
order, so ranks, kernels and solutions are reproducible byte for byte.

Prime-field matrices are stored in numpy int64 arrays purely as exact
integer containers; every operation reduces mod p and stays well inside
the int64 range (an object-dtype fallback covers enormous moduli).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Element = Union[Fraction, int]

# int64 is safe for mod-p updates as long as p*p fits comfortably.
_INT64_MODULUS_LIMIT = 2**31


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
        """Coerce an int, string ("3/2", "7") or Fraction into the field."""
        if self.is_prime_field:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer residue")
                value = value.numerator
            return int(value) % self.modulus
        return Fraction(value)

    def zero(self) -> Element:
        return 0 if self.is_prime_field else Fraction(0)

    def one(self) -> Element:
        return 1 if self.is_prime_field else Fraction(1)

    def __str__(self) -> str:
        return "Q" if not self.is_prime_field else f"F{self.modulus}"


class ExactMatrix:
    """Dense matrix over a FieldSpec, immutable after construction.

    Rational matrices hold tuples of Fractions; prime-field matrices hold
    a read-only numpy integer array with entries reduced into [0, p).
    """

    __slots__ = ("field", "nrows", "ncols", "_a", "_rows")

    def __init__(self, field: FieldSpec, rows: int, cols: int,
                 entries: Optional[Sequence[Sequence]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.field = field
        self.nrows = rows
        self.ncols = cols
        if field.is_prime_field:
            p = field.modulus
            dtype = np.int64 if p < _INT64_MODULUS_LIMIT else object
            a = np.zeros((rows, cols), dtype=dtype)
            if entries is not None:
                self._check_shape(entries)
                for i, row in enumerate(entries):
                    for j, x in enumerate(row):
                        a[i, j] = field.element(x)
            a.setflags(write=False)
            self._a = a
            self._rows = None
        else:
            if entries is None:
                zero = Fraction(0)
                self._rows = tuple(tuple(zero for _ in range(cols)) for _ in range(rows))
            else:
                self._check_shape(entries)
                self._rows = tuple(
                    tuple(Fraction(x) for x in row) for row in entries
                )
            self._a = None

    def _check_shape(self, entries):
        if len(entries) != self.nrows or any(len(r) != self.ncols for r in entries):
            raise ValueError(
                f"entries do not form a {self.nrows}x{self.ncols} matrix"
            )

    # -- fast internal constructors -------------------------------------

    @classmethod
    def _wrap_numpy(cls, field: FieldSpec, a: np.ndarray) -> "ExactMatrix":
        m = cls.__new__(cls)
        m.field = field
        m.nrows, m.ncols = a.shape
        a.setflags(write=False)
        m._a = a
        m._rows = None
        return m

    @classmethod
    def _wrap_rows(cls, field: FieldSpec, rows: tuple, nrows: int, ncols: int) -> "ExactMatrix":
        m = cls.__new__(cls)
        m.field = field
        m.nrows, m.ncols = nrows, ncols
        m._a = None
        m._rows = rows
        return m

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "ExactMatrix":
        m = cls(field, n, n)
        if field.is_prime_field:
            a = np.array(m._a)
            np.fill_diagonal(a, 1 % field.modulus)
            return cls._wrap_numpy(field, a)
        one = Fraction(1)
        rows = tuple(
            tuple(one if i == j else Fraction(0) for j in range(n)) for i in range(n)
        )
        return cls._wrap_rows(field, rows, n, n)

    @classmethod
    def column(cls, field: FieldSpec, vec: Sequence) -> "ExactMatrix":
        return cls(field, len(vec), 1, [[x] for x in vec])

    # -- basic accessors --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def __getitem__(self, key) -> Element:
        i, j = key
        if self._a is not None:
            return int(self._a[i, j])
        return self._rows[i][j]

    def row_list(self, i: int) -> list:
        if self._a is not None:
            return [int(x) for x in self._a[i]]
        return list(self._rows[i])

    def column_list(self, j: int) -> list:
        if self._a is not None:
            return [int(x) for x in self._a[:, j]]
        return [r[j] for r in self._rows]

    def to_lists(self) -> list:
        return [self.row_list(i) for i in range(self.nrows)]

    def is_zero(self) -> bool:
        if self._a is not None:
            return not np.any(self._a)
        return all(x == 0 for row in self._rows for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self._a is not None:
            return bool(np.array_equal(self._a, other._a))
        return self._rows == other._rows

    def __hash__(self):
        return hash((self.field, self.shape, tuple(map(tuple, self.to_lists()))))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"

    # -- arithmetic --------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        if self._a is not None:
            return ExactMatrix._wrap_numpy(self.field, self._a.T.copy())
        rows = tuple(
            tuple(self._rows[i][j] for i in range(self.nrows))
            for j in range(self.ncols)
        )
        return ExactMatrix._wrap_rows(self.field, rows, self.ncols, self.nrows)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_space(other)
        if self._a is not None:
            return ExactMatrix._wrap_numpy(
                self.field, (self._a + other._a) % self.field.modulus
            )
        rows = tuple(
            tuple(x + y for x, y in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)
        )
        return ExactMatrix._wrap_rows(self.field, rows, self.nrows, self.ncols)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_space(other)
        if self._a is not None:
            return ExactMatrix._wrap_numpy(
                self.field, (self._a - other._a) % self.field.modulus
            )
        rows = tuple(
            tuple(x - y for x, y in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)
        )
        return ExactMatrix._wrap_rows(self.field, rows, self.nrows, self.ncols)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.element(c)
        if self._a is not None:
            return ExactMatrix._wrap_numpy(self.field, (self._a * c) % self.field.modulus)
        rows = tuple(tuple(c * x for x in r) for r in self._rows)
        return ExactMatrix._wrap_rows(self.field, rows, self.nrows, self.ncols)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise ValueError("matrix product over different fields")
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch for product: {self.shape} @ {other.shape}"
            )
        if self._a is not None:
            p = self.field.modulus
            a, b = self._a, other._a
            if a.dtype == np.int64 and (p - 1) ** 2 * max(self.ncols, 1) < 2**62:
                prod = (a @ b) % p
            else:
                # np.matmul rejects object arrays; np.dot handles them exactly
                prod = np.dot(a.astype(object), b.astype(object)) % p
            return ExactMatrix._wrap_numpy(self.field, prod)
        bt = other.transpose()._rows
        rows = tuple(
            tuple(sum(x * y for x, y in zip(r, c)) for c in bt)
            for r in self._rows
        )
        return ExactMatrix._wrap_rows(self.field, rows, self.nrows, other.ncols)

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, returning a plain list of field elements."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != {self.ncols} columns")
        col = ExactMatrix.column(self.field, [self.field.element(x) for x in vec])
        return (self @ col).column_list(0)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "ExactMatrix":
        if self._a is not None:
            return ExactMatrix._wrap_numpy(self.field, self._a[r0:r1, c0:c1].copy())
        rows = tuple(tuple(r[c0:c1]) for r in self._rows[r0:r1])
        return ExactMatrix._wrap_rows(self.field, rows, r1 - r0, c1 - c0)

    def _require_same_space(self, other: "ExactMatrix"):
        if self.field != other.field or self.shape != other.shape:
            raise ValueError("matrices live in different spaces")


class MatrixBuilder:
    """Mutable accumulator used to assemble large block matrices."""

    def __init__(self, field: FieldSpec, rows: int, cols: int):
        self.field = field
        self.nrows = rows
        self.ncols = cols
        if field.is_prime_field:
            dtype = np.int64 if field.modulus < _INT64_MODULUS_LIMIT else object
            self._a = np.zeros((rows, cols), dtype=dtype)
        else:
            self._rows = [[Fraction(0)] * cols for _ in range(rows)]

    def add(self, i: int, j: int, value):
        if self.field.is_prime_field:
            self._a[i, j] = (self._a[i, j] + self.field.element(value)) % self.field.modulus
        else:
            self._rows[i][j] += Fraction(value)

    def add_block(self, r0: int, c0: int, block: ExactMatrix):
        if block.field != self.field:
            raise ValueError("block over a different field")
        if self.field.is_prime_field:
            self._a[r0:r0 + block.nrows, c0:c0 + block.ncols] = (
                self._a[r0:r0 + block.nrows, c0:c0 + block.ncols] + block._a
            ) % self.field.modulus
        else:
            for i in range(block.nrows):
                src = block._rows[i]
                dst = self._rows[r0 + i]
                for j in range(block.ncols):
                    dst[c0 + j] += src[j]

    def build(self) -> ExactMatrix:
        if self.field.is_prime_field:
            return ExactMatrix._wrap_numpy(self.field, self._a)
        rows = tuple(tuple(r) for r in self._rows)
        return ExactMatrix._wrap_rows(self.field, rows, self.nrows, self.ncols)


# -- stacking and tensoring -----------------------------------------------

def hstack(blocks: Iterable[ExactMatrix]) -> ExactMatrix:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("hstack of no blocks")
    rows = blocks[0].nrows
    field = blocks[0].field
    out = MatrixBuilder(field, rows, sum(b.ncols for b in blocks))
    c = 0
    for b in blocks:
        if b.nrows != rows:
            raise ValueError("hstack blocks disagree on row count")
        out.add_block(0, c, b)
        c += b.ncols
    return out.build()


def vstack(blocks: Iterable[ExactMatrix]) -> ExactMatrix:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack of no blocks")
    cols = blocks[0].ncols
    field = blocks[0].field
    out = MatrixBuilder(field, sum(b.nrows for b in blocks), cols)
    r = 0
    for b in blocks:
        if b.ncols != cols:
            raise ValueError("vstack blocks disagree on column count")
        out.add_block(r, 0, b)
        r += b.nrows
    return out.build()


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; the left factor indexes the most significant blocks."""
    if a.field != b.field:
        raise ValueError("kron over different fields")
    field = a.field
    if field.is_prime_field and a._a.dtype == np.int64 and b._a.dtype == np.int64:
        return ExactMatrix._wrap_numpy(field, np.kron(a._a, b._a) % field.modulus)
    out = MatrixBuilder(field, a.nrows * b.nrows, a.ncols * b.ncols)
    for i in range(a.nrows):
        for j in range(a.ncols):
            x = a[i, j]
            if x == 0:
                continue
            out.add_block(i * b.nrows, j * b.ncols, b.scale(x))
    return out.build()


# -- elimination ------------------------------------------------------------

def _eliminate_mod_p(a: np.ndarray, p: int, reduced: bool):
    """Row-reduce mod p in place on a copy; returns (matrix, pivot columns).

    Pivot choice: first row with a nonzero entry, columns left to right.
    With reduced=True the result is the reduced row echelon form.
    """
    a = a.copy() % p
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        sub = a[r:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        if not reduced:
            col[:r] = 0
        rows_to_fix = np.nonzero(col)[0]
        if rows_to_fix.size:
            a[rows_to_fix] = (a[rows_to_fix] - col[rows_to_fix, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _eliminate_fractions(rows, ncols: int, reduced: bool):
    a = [list(r) for r in rows]
    m = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        span = range(m) if reduced else range(r + 1, m)
        for i in span:
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _rref(m: ExactMatrix, reduced: bool = True):
    if m.field.is_prime_field:
        a, pivots = _eliminate_mod_p(m._a, m.field.modulus, reduced)
        return ExactMatrix._wrap_numpy(m.field, a), pivots
    rows, pivots = _eliminate_fractions(m._rows, m.ncols, reduced)
    rows = tuple(tuple(r) for r in rows)
    return ExactMatrix._wrap_rows(m.field, rows, m.nrows, m.ncols), pivots


def rank(m: ExactMatrix) -> int:
    _, pivots = _rref(m, reduced=False)
    return len(pivots)


def cokernel_dimension(m: ExactMatrix) -> int:
    return m.nrows - rank(m)


def kernel_basis(m: ExactMatrix) -> list:
    """Deterministic kernel basis (reduced-echelon convention).

    One vector per free column j: entry 1 at j, minus the echelon entry at
    each pivot column.  Vectors are returned as lists of field elements.
    """
    r, pivots = _rref(m, reduced=True)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    zero = m.field.zero()
    for j in free:
        v = [zero] * m.ncols
        v[j] = m.field.one()
        for k, c in enumerate(pivots):
            x = r[k, j]
            if x != 0:
                v[c] = -x % m.field.modulus if m.field.is_prime_field else -x
        basis.append(v)
    # rank-nullity, checked on every call
    assert len(basis) == m.ncols - len(pivots)
    return basis


def solve(m: ExactMatrix, b: Sequence) -> Optional[list]:
    """One solution x of m·x = b, or None when the system is inconsistent."""
    if len(b) != m.nrows:
        raise ValueError(f"right-hand side length {len(b)} != {m.nrows} rows")
    bcol = ExactMatrix.column(m.field, [m.field.element(x) for x in b])
    aug = hstack([m, bcol])
    r, pivots = _rref(aug, reduced=True)
    if pivots and pivots[-1] == m.ncols:
        return None
    x = [m.field.zero()] * m.ncols
    for k, c in enumerate(pivots):
        x[c] = r[k, m.ncols]
    return x


def cokernel_representatives(m: ExactMatrix) -> list:
    """Standard basis vectors of the codomain spanning a complement of im(m).

    Greedy and deterministic: run elimination on [m | I] and keep the identity
    columns that become pivots.  The returned vectors represent a basis of
    coker(m).
    """
    aug = hstack([m, ExactMatrix.identity(m.field, m.nrows)])
    _, pivots = _rref(aug, reduced=False)
    picked = [c - m.ncols for c in pivots if c >= m.ncols]
    reps = []
    for k in picked:
        v = [m.field.zero()] * m.nrows
        v[k] = m.field.one()
        reps.append(v)
    assert len(reps) == m.nrows - rank(m)
    return reps


# -- vectorisation helpers ---------------------------------------------------
#
# Hom blocks are vectorised column-major throughout the package: the matrix
# entry X[r, c] sits at coordinate c*nrows + r.  The helpers below give the
# matrices of composition operators in those coordinates.

def vec_matrix(x: ExactMatrix) -> list:
    """Column-major vectorisation of a matrix as a list."""
    out = []
    for c in range(x.ncols):
        out.extend(x.column_list(c))
    return out


def unvec_matrix(field: FieldSpec, vec: Sequence, rows: int, cols: int,
                 offset: int = 0) -> ExactMatrix:
    """Inverse of vec_matrix on a slice of a coordinate vector."""
    out = MatrixBuilder(field, rows, cols)
    for c in range(cols):
        for r in range(rows):
            out.add(r, c, vec[offset + c * rows + r])
    return out.build()


def vec_twisted_postcompose(c: ExactMatrix, m: int, x_cols: int) -> ExactMatrix:
    """Matrix of X -> C·(I_m ⊗ X) on column-major coordinates.

    C maps a tensor space with m blocks; its j-th column block C_j acts on
    the j-th copy.  The result stacks the maps X -> C_j·X with j most
    significant, matching the tensor-basis convention.
    """
    if c.ncols % m != 0:
        raise ValueError("column count not divisible by the twist dimension")
    a = c.ncols // m
    eye = ExactMatrix.identity(c.field, x_cols)
    blocks = [kron(eye, c.submatrix(0, c.nrows, j * a, (j + 1) * a)) for j in range(m)]
    return vstack(blocks)
