"""Exact linear algebra kernels, checked against independent oracles."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quivhom.linalg import (
    _MR_LIMIT,
    ExactMatrix,
    FieldSpec,
    _is_prime,
    cokernel_dimension,
    cokernel_representatives,
    hstack,
    kernel_basis,
    kron,
    rank,
    solve,
    vec_matrix,
    vec_twisted_postcompose,
    vstack,
)

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


def test_rank_empty_matrix():
    assert rank(ExactMatrix.zeros(Q, 0, 0)) == 0


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
    basis = kernel_basis(ExactMatrix.zeros(Q, 2, 3))
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
    assert rank(m.transpose()) == expected


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
        bcol = ExactMatrix.column(field, b)
        assert rank(hstack([m, bcol])) == rank(m) + 1


def test_cokernel_representatives_complete_column_space():
    rng = random.Random(13)
    for _ in range(20):
        field = rng.choice([Q, F5])
        m = _random_matrix(field, rng, rng.randint(1, 5), rng.randint(0, 4))
        reps = cokernel_representatives(m)
        assert len(reps) == cokernel_dimension(m)
        blocks = [m] + [ExactMatrix.column(field, v) for v in reps]
        assert rank(hstack(blocks)) == m.nrows


def test_huge_modulus_object_dtype_path():
    p = int(sympy.nextprime(2**31))
    field = FieldSpec.prime(p)
    m = ExactMatrix(field, 2, 3, [[1, 2, 3], [4, 5, 6]])
    assert rank(m) == 2
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert m.apply(basis[0]) == [0, 0]
    prod = m @ m.transpose()
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


@given(st.integers(0, 50))
@settings(max_examples=30, deadline=None)
def test_vec_composition_operators(seed):
    # the vectorised operators must match actual composition
    rng = random.Random(seed)
    field = rng.choice([Q, F5])
    a, b, n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    x = _random_matrix(field, rng, a, n)
    m = rng.randint(1, 3)
    cm = _random_matrix(field, rng, b, m * a)
    eye = ExactMatrix.identity(field, m)
    assert (vec_twisted_postcompose(cm, m, n).apply(vec_matrix(x))
            == vec_matrix(cm @ kron(eye, x)))
