"""Exact linear algebra kernels, checked against independent oracles."""

import itertools
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from quivhom.linalg import (
    _MR_LIMIT,
    CrossCheckError,
    ExactMatrix,
    FieldSpec,
    MatrixBuilder,
    _is_prime,
    cokernel_representatives,
    kernel_basis,
    kron,
    rank,
    solve,
)

from oracles import (add, cokernel_dimension, column_list, hstack, is_zero, scale, solve_columns,
                     sub, submatrix, transpose, vstack)

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
F3 = FieldSpec.prime(3)
F101 = FieldSpec.prime(101)


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec("prime_field", None)
    assert Q.element("3/2") == Fraction(3, 2)
    assert F5.element(7) == 2
    assert F5.element(-1) == 4


def test_floats_are_not_truncated_into_the_field():
    # F_7 stored 2.9 as 2, and Q stored 0.1 as 3602879701896397/36028797018963968
    F7 = FieldSpec.prime(7)
    with pytest.raises(TypeError):
        ExactMatrix(F7, 1, 1, [[2.9]])
    with pytest.raises(TypeError):
        MatrixBuilder(F7, 1, 1).add(0, 0, 2.9)
    with pytest.raises(TypeError):
        ExactMatrix.identity(F7, 1).apply([2.9])
    with pytest.raises(TypeError):
        solve(ExactMatrix.identity(F7, 1), [2.9])
    with pytest.raises(TypeError):
        Q.element(0.1)


def test_rank_empty_matrix():
    assert rank(ExactMatrix(Q, 0, 0)) == 0


def test_rank_identity_f5():
    assert rank(ExactMatrix.identity(F5, 3)) == 3


def test_rank_rational_example():
    m = ExactMatrix(Q, 2, 2, [[2, 4], [1, 2]])
    assert rank(m) == 1
    # independent route: sympy
    assert sympy.Matrix([[2, 4], [1, 2]]).rank() == 1


def test_kernel_identity_is_empty():
    assert kernel_basis(ExactMatrix.identity(Q, 4)) == []


def test_kernel_zero_matrix_standard_basis():
    basis = kernel_basis(ExactMatrix(Q, 2, 3))
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_kernel_echelon_example():
    basis = kernel_basis(ExactMatrix(Q, 1, 3, [[1, 1, 0]]))
    assert basis == [
        [Fraction(-1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_solve_examples():
    eye = ExactMatrix.identity(Q, 3)
    assert solve(eye, [1, 2, 3]) == [Fraction(1), Fraction(2), Fraction(3)]
    assert solve(ExactMatrix(Q, 2, 2, [[1, 0], [0, 0]]), [0, 1]) is None
    assert solve(ExactMatrix(Q, 1, 1, [[2]]), [1]) == [Fraction(1, 2)]
    with pytest.raises(ValueError):
        solve(eye, [1, 2])


def _random_matrix(field, rng, rows, cols, span=6):
    if field.is_prime_field:
        entries = [[rng.randrange(field.modulus) for _ in range(cols)]
                   for _ in range(rows)]
    else:
        entries = [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
                    for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix(field, rows, cols, entries)


@given(st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_rational_rank_matches_sympy(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = _random_matrix(Q, rng, rows, cols)
    expected = sympy.Matrix(m.to_lists()).rank()
    assert rank(m) == expected
    assert rank(transpose(m)) == expected


@given(st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_kernel_properties(seed):
    rng = random.Random(seed)
    field = rng.choice([Q, F5, F101])
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    m = _random_matrix(field, rng, rows, cols)
    basis = kernel_basis(m)
    assert len(basis) == cols - rank(m)  # rank-nullity
    zero = [field.zero()] * rows
    for v in basis:
        assert m.apply(v) == zero
    if basis:
        stacked = ExactMatrix(field, cols, len(basis),
                              [[v[i] for v in basis] for i in range(cols)])
        assert rank(stacked) == len(basis)


def test_kernel_brute_force_f3():
    # independent oracle: enumerate all vectors of F_3^n and count solutions
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = _random_matrix(F3, rng, rows, cols)
        zero = [0] * rows
        count = sum(
            1 for v in itertools.product(range(3), repeat=cols)
            if m.apply(list(v)) == zero
        )
        assert count == 3 ** len(kernel_basis(m))


@given(st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_solve_properties(seed):
    rng = random.Random(seed)
    field = rng.choice([Q, F5, F101])
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = _random_matrix(field, rng, rows, cols)
    b = [field.element(rng.randint(-4, 4)) for _ in range(rows)]
    x = solve(m, b)
    if x is not None:
        assert m.apply(x) == b
    else:
        bcol = ExactMatrix(field, len(b), 1, [[x] for x in b])
        assert rank(hstack([m, bcol])) == rank(m) + 1


def test_cokernel_representatives_complete_column_space():
    rng = random.Random(13)
    for _ in range(20):
        field = rng.choice([Q, F5])
        m = _random_matrix(field, rng, rng.randint(1, 5), rng.randint(0, 4))
        reps = cokernel_representatives(m)
        assert len(reps) == cokernel_dimension(m)
        blocks = [m] + [ExactMatrix(field, len(v), 1, [[x] for x in v]) for v in reps]
        assert rank(hstack(blocks)) == m.nrows


def test_huge_modulus_object_dtype_path():
    p = int(sympy.nextprime(2**31))
    field = FieldSpec.prime(p)
    m = ExactMatrix(field, 2, 3, [[1, 2, 3], [4, 5, 6]])
    assert rank(m) == 2
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert m.apply(basis[0]) == [0, 0]
    prod = m @ transpose(m)
    assert prod[0, 0] == 14


def test_primality_agrees_with_trial_division():
    for n in range(10**4):
        expected = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        assert _is_prime(n) == expected, n


def test_primality_strong_pseudoprimes_and_range():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2**61 - 1)
    assert 2**89 - 1 > _MR_LIMIT
    with pytest.raises(ValueError, match="too large"):
        FieldSpec.prime(2**89 - 1)         # prime, but past the proven range


def test_kernel_deterministic():
    rng = random.Random(5)
    m = _random_matrix(F101, rng, 4, 6)
    assert kernel_basis(m) == kernel_basis(m)


def test_stack_and_kron():
    a = ExactMatrix(Q, 1, 2, [[1, 2]])
    b = ExactMatrix(Q, 1, 2, [[3, 4]])
    assert vstack([a, b]).to_lists() == [[1, 2], [3, 4]]
    assert hstack([a, b]).to_lists() == [[1, 2, 3, 4]]
    k = kron(ExactMatrix(Q, 1, 2, [[2, 3]]), ExactMatrix.identity(Q, 2))
    assert k.to_lists() == [[2, 0, 3, 0], [0, 2, 0, 3]]


# -- the sparse storage against a plain list-of-lists reference -------------

P61 = FieldSpec.prime(2**61 - 1)


def _sparse_lists(field, rng, rows, cols):
    """Dense lists of field elements, about half of them zero."""
    def entry():
        if rng.random() < 0.5:
            return field.zero()
        if field.is_prime_field:
            return rng.randrange(field.modulus)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _reduce(field, x):
    return x % field.modulus if field.is_prime_field else x


def _ref_matmul(field, a, b, inner, cols):
    return [[_reduce(field, sum((r[k] * b[k][j] for k in range(inner)), field.zero()))
             for j in range(cols)] for r in a]


def _ref_kron(field, a, b):
    return [[_reduce(field, x * y) for x in ra for y in rb] for ra in a for rb in b]


@given(st.integers(0, 10**6), st.sampled_from([F5, P61, Q]))
@settings(max_examples=60, deadline=None)
def test_operations_match_list_reference(seed, field):
    rng = random.Random(seed)
    r, c, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    la, lb = _sparse_lists(field, rng, r, c), _sparse_lists(field, rng, r, c)
    lc = _sparse_lists(field, rng, c, k)
    a, b = ExactMatrix(field, r, c, la), ExactMatrix(field, r, c, lb)
    cm = ExactMatrix(field, c, k, lc)
    red = lambda x: _reduce(field, x)  # noqa: E731
    assert a.to_lists() == la
    assert list(a.nonzeros()) == [(i, j, x) for i, p in enumerate(la)
                                  for j, x in enumerate(p) if x != 0]
    assert add(a, b).to_lists() == [[red(x + y) for x, y in zip(p, q)] for p, q in zip(la, lb)]
    assert sub(a, b).to_lists() == [[red(x - y) for x, y in zip(p, q)] for p, q in zip(la, lb)]
    s = rng.randint(-3, 3)
    assert scale(a, s).to_lists() == [[red(field.element(s) * x) for x in p] for p in la]
    assert scale(a, -1).to_lists() == [[red(-x) for x in p] for p in la]
    assert (a @ cm).to_lists() == _ref_matmul(field, la, lc, c, k)
    assert transpose(a).to_lists() == [[la[i][j] for i in range(r)] for j in range(c)]
    assert kron(a, cm).to_lists() == _ref_kron(field, la, lc)
    r0, r1 = sorted(rng.randint(0, r) for _ in range(2))
    c0, c1 = sorted(rng.randint(0, c) for _ in range(2))
    assert submatrix(a, r0, r1, c0, c1).to_lists() == [p[c0:c1] for p in la[r0:r1]]
    assert hstack([a, b]).to_lists() == [p + q for p, q in zip(la, lb)]
    assert vstack([a, b]).to_lists() == la + lb
    v = [rng.randint(-9, 9) for _ in range(c)]
    assert a.apply(v) == [red(sum((x * field.element(y) for x, y in zip(p, v)), field.zero()))
                          for p in la]
    # the entry types are those of the field, also where an entry is zero
    kind = int if field.is_prime_field else Fraction
    assert all(type(x) is kind for p in (a @ cm).to_lists() + [a.apply(v)] for x in p)


@given(st.integers(0, 10**6), st.sampled_from([F5, P61, Q]))
@settings(max_examples=40, deadline=None)
def test_no_zero_is_stored(seed, field):
    rng = random.Random(seed)
    r, c = rng.randint(0, 4), rng.randint(0, 4)
    la, lb = _sparse_lists(field, rng, r, c), _sparse_lists(field, rng, r, c)
    a, b = ExactMatrix(field, r, c, la), ExactMatrix(field, r, c, lb)
    zeros = ExactMatrix(field, r, c)
    assert sub(a, a) == zeros and is_zero(sub(a, a))
    assert hash(sub(a, a)) == hash(zeros)
    # the same matrix along three routes: entries, a sum, a builder that
    # writes each cell once, given the entry plus a multiple of the modulus
    via_sum = sub(add(a, b), b)
    builder = MatrixBuilder(field, r, c)
    for i in range(r):
        for j in range(c):
            builder.add(i, j, la[i][j] + 2 * (field.modulus or 0))
    via_builder = builder.build()
    for m in (via_sum, via_builder, transpose(transpose(a)), a @ ExactMatrix.identity(field, c)):
        assert m == a and hash(m) == hash(a)
    assert (a == b) == (la == lb)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (2, 0), (0, 3), (5, 7)])
def test_builder_rejects_entries_outside_the_shape(i, j):
    for field in (F5, Q):
        builder = MatrixBuilder(field, 2, 3)
        builder.add(0, 0, 1)
        builder.add(i, j, 1)
        with pytest.raises(IndexError, match="outside a 2x3 matrix"):
            builder.build()
    builder = MatrixBuilder(F5, 2, 3)
    builder.add_run(1, 2, 2, 1)
    with pytest.raises(IndexError):
        builder.build()
    # add_cells names its first nonzero cell outside, and places the others
    builder = MatrixBuilder(F5, 2, 3)
    builder.add_cells([(i + 1, j, 5), (0, 0, 1), (i, j, 2), (i, j + 1, 3)])
    with pytest.raises(IndexError, match=re.escape(f"entry ({i}, {j}) outside a 2x3 matrix")):
        builder.build()


def test_builder_builds_once():
    builder = MatrixBuilder(F5, 2, 3)
    builder.add_run(0, 0, 2, 8)
    built = builder.build()
    # build() hands its rows to the matrix, so further use must not reach them
    for use in (lambda: builder.add(0, 0, 1), lambda: builder.add_run(0, 1, 2, 1),
                lambda: builder.add_run(0, 0, 0, 1), lambda: builder.add_cells([]),
                builder.build):
        with pytest.raises(RuntimeError):
            use()
    assert built.to_lists() == [[3, 0, 0], [0, 3, 0]]


@st.composite
def _builder_script(draw):
    """A field, a small shape and a sequence of add, add_run and add_cells calls and blocks.

    In half the scripts every call fits inside the shape, save an add into
    a shape with no cells; in the others, starts reach one past each edge
    on either side or end a run exactly at the last row or column.  Runs
    may be empty or be followed by their negation, which writes their cells
    a second time.  A block is written one add per nonzero.  One add_cells
    call may write a cell twice or hold cells outside the shape.
    """
    field = draw(st.sampled_from([F5, F101, Q]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    inside = draw(st.booleans())
    if field.is_prime_field:
        values = st.integers(-3 * field.modulus, 3 * field.modulus)
    else:
        values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)) | st.integers(-6, 6)

    def start(size, n):
        if inside:
            return draw(st.integers(0, max(size - n, 0)))
        return draw(st.integers(-1, size) | st.just(size - n))

    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["add", "run", "cancel", "block", "cells"]))
        if kind == "cells":
            ops.append(("cells", [(start(rows, 1), start(cols, 1), draw(values))
                                  for _ in range(draw(st.integers(0, 4)))]))
            continue
        if kind == "block":
            h, w = (min(3, rows), min(3, cols)) if inside else (3, 3)
            lists = _sparse_lists(field, random.Random(draw(st.integers(0, 10**6))),
                                  draw(st.integers(0, h)), draw(st.integers(0, w)))
            width = len(lists[0]) if lists else 0
            ops.append(("block", start(rows, len(lists)), start(cols, width), lists))
            continue
        n = 1 if kind == "add" else draw(st.integers(-1, min(rows, cols) if inside else 5))
        i, j, x = start(rows, n), start(cols, n), draw(values)
        ops.append((kind, i, j, n, x))
        if kind == "cancel":
            ops.append(("run", i, j, n, -x))
    return field, rows, cols, ops


@given(_builder_script())
@seed(20260)
@settings(max_examples=300, deadline=None)
def test_builder_against_dense_reference(script):
    # the builder is write-once: a script that writes no cell twice builds
    # the dense reference, and a second write into any cell raises
    field, rows, cols, ops = script
    builder = MatrixBuilder(field, rows, cols)
    dense = [[0] * cols for _ in range(rows)]
    writes = [[0] * cols for _ in range(rows)]
    outside = None

    def place(i, j, x):
        nonlocal outside
        if 0 <= i < rows and 0 <= j < cols:
            dense[i][j] += x
            writes[i][j] += 1
        elif outside is None:
            outside = (i, j)

    for op in ops:
        if op[0] == "cells":
            builder.add_cells(op[1])
            for i, j, x in op[1]:
                if field.element(x):
                    place(i, j, x)
        elif op[0] == "block":
            _, i, j, lists = op
            block = ExactMatrix(field, len(lists), len(lists[0]) if lists else 0, lists)
            for r, c, x in block.nonzeros():
                builder.add(i + r, j + c, x)
                place(i + r, j + c, x)
        else:
            kind, i, j, n, x = op
            if kind == "add":
                builder.add(i, j, x)
            else:
                builder.add_run(i, j, n, x)
            if field.element(x):
                for e in range(n):
                    place(i + e, j + e, x)
    if outside is not None:
        message = f"entry ({outside[0]}, {outside[1]}) outside a {rows}x{cols} matrix"
        with pytest.raises(IndexError, match=re.escape(message)):
            builder.build()
        return
    if any(n > 1 for row in writes for n in row):
        with pytest.raises(CrossCheckError, match="written twice"):
            builder.build()
        return
    want = [[field.element(x) for x in row] for row in dense]
    built = builder.build()
    assert built.to_lists() == want
    assert all(x for row in built.sparse_rows() for x in row.values())
    kind = int if field.is_prime_field else Fraction
    assert all(type(x) is kind for row in built.sparse_rows() for x in row.values())


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (2, 0), (0, 3)])
def test_entry_outside_the_shape_raises(i, j):
    # a negative row would otherwise read the last row
    m = ExactMatrix(F5, 2, 3, [[1, 2, 3], [4, 0, 1]])
    with pytest.raises(IndexError, match="outside a 2x3 matrix"):
        m[i, j]


@pytest.mark.parametrize("read", [
    lambda m: submatrix(m, 0, 5, 0, 9),
    lambda m: submatrix(m, -1, 2, 0, 3),
    lambda m: m.row_list(-1),
    lambda m: column_list(m, -1),
], ids=["submatrix past the end", "submatrix from row -1", "row -1", "column -1"])
def test_slice_outside_the_shape_raises(read):
    # slicing would otherwise pad the columns, drop rows or wrap around
    m = ExactMatrix(F5, 2, 3, [[1, 2, 3], [4, 0, 1]])
    with pytest.raises(IndexError, match="outside a 2x3 matrix"):
        read(m)


def test_cross_checks_raise_cross_check_error(monkeypatch):
    # a raised error, unlike an assert, survives python -O
    import quivhom.linalg as linalg
    monkeypatch.setattr(linalg, "_echelon",
                        lambda m: [(0, {0: 1})] * (m.nrows + 1))
    m = ExactMatrix.identity(F5, 2)
    with pytest.raises(CrossCheckError):
        kernel_basis(ExactMatrix(F5, 2, 0))
    with pytest.raises(CrossCheckError):
        cokernel_representatives(m)


# -- the early stop at full column rank, against textbook Gauss-Jordan ------

def _ref_rref(field, rows, ncols):
    """Pivot columns and rows of the reduced row echelon form, on dense lists."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        i = len(pivots)
        k = next((k for k in range(i, len(rows)) if rows[k][c] != 0), None)
        if k is None:
            continue
        rows[i], rows[k] = rows[k], rows[i]
        inv = field.inv(rows[i][c])
        rows[i] = [_reduce(field, x * inv) for x in rows[i]]
        for k in range(len(rows)):
            if k != i and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [_reduce(field, x - f * y) for x, y in zip(rows[k], rows[i])]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


def _ref_kernel(field, rows, ncols):
    pivots, rref = _ref_rref(field, rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [field.zero()] * ncols
        v[j] = field.one()
        for c, row in zip(pivots, rref):
            v[c] = _reduce(field, -row[j])
        basis.append(v)
    return basis


def _ref_solve(field, rows, ncols, b):
    pivots, rref = _ref_rref(field, [r + [y] for r, y in zip(rows, b)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero()] * ncols
    for c, row in zip(pivots, rref):
        x[c] = row[ncols]
    return x


def _ref_cokernel(field, rows, ncols):
    n = len(rows)
    eye = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    pivots, _ = _ref_rref(field, [r + e for r, e in zip(rows, eye)], ncols + n)
    return [eye[c - ncols] for c in pivots if c >= ncols]


def _tall_lists(field, rng, n, extra):
    """A full-column-rank n×n block L·U on top of `extra` arbitrary rows."""
    cells, zero = _sparse_lists(field, rng, n, n), field.zero()
    lower = [[field.element(rng.choice([1, 2, -1])) if i == j else cells[i][j] if j < i
              else zero for j in range(n)] for i in range(n)]
    upper = [[field.one() if i == j else cells[i][j] if j > i else zero for j in range(n)]
             for i in range(n)]
    return _ref_matmul(field, lower, upper, n, n) + _sparse_lists(field, rng, extra, n)


@given(st.integers(0, 10**6), st.sampled_from([F5, P61, Q]))
@settings(max_examples=40, deadline=None)
def test_full_column_rank_stop_matches_list_reference(seed, field):
    rng = random.Random(seed)
    n, extra = rng.randint(1, 5), rng.randint(1, 6)
    rows = _tall_lists(field, rng, n, extra)
    m = ExactMatrix(field, n + extra, n, rows)
    assert _ref_rref(field, rows, n)[0] == list(range(n))
    assert rank(m) == n
    assert kernel_basis(m) == _ref_kernel(field, rows, n) == []
    assert cokernel_representatives(m) == _ref_cokernel(field, rows, n)
    x0 = [field.element(rng.randint(-4, 4)) for _ in range(n)]
    good = m.apply(x0)
    bad = good[:-1] + [_reduce(field, good[-1] + 1)]    # the block forces x = x0
    assert solve(m, good) == _ref_solve(field, rows, n, good) == x0
    assert solve(m, bad) is None and _ref_solve(field, rows, n, bad) is None
    # several right-hand sides: one elimination, column by column the same answers
    both = ExactMatrix(field, n + extra, 2, [[y, y] for y in good])
    assert solve_columns(m, both).to_lists() == [[x, x] for x in x0]
    assert [column_list(solve_columns(m, both), j) for j in range(2)] == \
        [solve(m, column_list(both, j)) for j in range(2)]
    mixed = ExactMatrix(field, n + extra, 2, [[y, z] for y, z in zip(good, bad)])
    assert solve_columns(m, mixed) is None
    assert solve(m, column_list(mixed, 0)) == x0 and solve(m, column_list(mixed, 1)) is None
    # the same checks on a wide matrix, where the stop never fires
    wide = [r + s for r, s in zip(rows, _sparse_lists(field, rng, n + extra, 2))]
    w = ExactMatrix(field, n + extra, n + 2, wide)
    assert rank(w) == len(_ref_rref(field, wide, n + 2)[0])
    assert kernel_basis(w) == _ref_kernel(field, wide, n + 2)
    assert cokernel_representatives(w) == _ref_cokernel(field, wide, n + 2)
    assert solve(w, bad) == _ref_solve(field, wide, n + 2, bad)


def test_solve_stops_at_the_first_pivot_in_its_last_column(monkeypatch):
    # a pivot in column n proves [m | b] inconsistent, so the forward pass takes
    # no row after it; a consistent system gives the x of a pass without the stop
    import quivhom.linalg as linalg
    echelon, subtract = linalg._echelon, linalg._subtract_multiple
    calls = []
    monkeypatch.setattr(linalg, "_subtract_multiple",
                        lambda *args: calls.append(1) or subtract(*args))

    def counted(m, b, stop=True):
        calls.clear()
        with monkeypatch.context() as mp:
            if not stop:
                mp.setattr(linalg, "_echelon", lambda m, stop=None: echelon(m))
            return solve(m, b), len(calls)

    rng = random.Random(23)
    saved = 0
    for field in (F5, F101, Q):
        for _ in range(60):
            rows, cols = rng.randint(1, 9), rng.randint(1, 5)
            lists = _sparse_lists(field, rng, rows, cols)
            m = ExactMatrix(field, rows, cols, lists)
            good = m.apply([field.element(rng.randint(-4, 4)) for _ in range(cols)])
            x = counted(m, good)[0]
            assert x == counted(m, good, stop=False)[0] == _ref_solve(field, lists, cols, good)
            assert m.apply(x) == good
            bad = list(good)
            k = rng.randrange(rows)
            bad[k] = _reduce(field, bad[k] + 1)
            (x, n_stopped), (full, n_full) = counted(m, bad), counted(m, bad, stop=False)
            assert x == full == _ref_solve(field, lists, cols, bad)
            if x is None:
                # the pivot lands in column n on the row that ends the shortest
                # inconsistent prefix; no subtraction is made after that row
                k = next(k for k in range(1, rows + 1)
                         if _ref_solve(field, lists[:k], cols, bad[:k]) is None)
                prefix = ExactMatrix(field, k, cols, lists[:k])
                assert n_stopped == counted(prefix, bad[:k], stop=False)[1] <= n_full
                saved += n_full - n_stopped
    assert saved > 0


def test_rows_past_full_column_rank_are_not_reduced(monkeypatch):
    import quivhom.linalg as linalg

    def fail(*args):
        raise AssertionError("a row was reduced after every column held a pivot")
    rng = random.Random(3)
    for field in (F5, P61, Q):
        m = vstack([ExactMatrix.identity(field, 6),
                    ExactMatrix(field, 50, 6, _sparse_lists(field, rng, 50, 6))])
        monkeypatch.setattr(linalg, "_subtract_multiple", fail)
        assert rank(m) == 6
        assert kernel_basis(m) == []
        monkeypatch.undo()


# -- elimination reads its input and never writes to it ---------------------

def _shared_row_matrices(field, rng):
    """Matrices whose rows are shared with each other and with their parts."""
    built = MatrixBuilder(field, 5, 7)
    for i, row in enumerate(_sparse_lists(field, rng, 5, 7)):
        for j, x in enumerate(row):
            built.add(i, j, x)
    b = built.build()
    lead = MatrixBuilder(field, 3, 7)
    for i, row in enumerate(_sparse_lists(field, rng, 3, 7)):
        lead.add(i, i, 1)           # unit leads: pivot rows that need no scaling
        for j, x in enumerate(row[i + 1:], i + 1):
            lead.add(i, j, x)
    u = lead.build()
    e = ExactMatrix.identity(field, 7)
    return [b, u, e, vstack([b, b]), vstack([u, b, u]), vstack([b, e, b]),
            vstack([submatrix(e, 0, 4, 0, 7), u, e])]


@pytest.mark.parametrize("field", [F5, P61, Q], ids=str)
def test_elimination_never_writes_to_its_input(field):
    rng = random.Random(11)
    for _ in range(6):
        for m in _shared_row_matrices(field, rng):
            rhs = ExactMatrix(field, m.nrows, 2, _sparse_lists(field, rng, m.nrows, 2))
            inputs = [(row, dict(row)) for row in m.sparse_rows() + rhs.sparse_rows()]
            rank(m)
            kernel_basis(m)
            cokernel_representatives(m)
            solve(m, m.apply([field.element(rng.randint(-3, 3)) for _ in range(m.ncols)]))
            # one elimination of [m | rhs] agrees with the library solve column by column
            columns = [solve(m, column_list(rhs, j)) for j in range(2)]
            x = solve_columns(m, rhs)
            assert (x is None) == (None in columns)
            assert x is None or [column_list(x, j) for j in range(2)] == columns
            assert all(row == copy for row, copy in inputs)
