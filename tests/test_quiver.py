"""Quivers and the dimensions of their graded path spaces e_i A_l e_j."""

import random
from collections import Counter

import pytest

from quivhom.quiver import Quiver
from quivhom.rep import TwistData
from quivhom.resolution import GradedBasis

from oracles import arrows_into, is_acyclic, path_elements
from path_oracle import enumerate_paths


def _untwisted(q):
    return TwistData([1] * q.n_arrows)


def _tails(basis):
    """{(i, l): {j: dim e_i A_l e_j}}, counted over the elements walked."""
    return {key: Counter(j for j, _ in elems) for key, elems in path_elements(basis).items()}


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(0, [])
    with pytest.raises(ValueError):
        Quiver(2, [(0, 2)])
    q = Quiver(2, [(0, 1), (1, 0)])
    assert q.n_arrows == 2
    assert q.arrows == ((0, 1), (1, 0))
    assert arrows_into(q, 0) == [1]


def test_quiver_rejects_float_endpoints():
    with pytest.raises(TypeError):
        Quiver(2, [(0.5, 1.9)])


def test_loop_quiver_one_path_per_length():
    loop = Quiver(1, [(0, 0)])
    basis = GradedBasis(loop, _untwisted(loop), 3)
    tails = _tails(basis)
    for length in range(4):
        assert basis.dim[(0, length)] == 1
        assert tails[(0, length)] == {0: 1}


def test_single_arrow_no_long_paths():
    q = Quiver(2, [(1, 0)])
    basis = GradedBasis(q, _untwisted(q), 5)
    tails = _tails(basis)
    assert tails[(0, 0)] == {0: 1}
    assert tails[(1, 0)] == {1: 1}
    assert tails[(0, 1)] == {1: 1}
    assert tails[(1, 1)] == {}
    for length in range(2, 6):
        for i in range(2):
            assert basis.dim[(i, length)] == 0
            assert tails[(i, length)] == {}


def test_two_cycle_length_two_paths():
    # arrow 0: 0 -> 1, arrow 1: 1 -> 0; each length-2 path returns to its tail
    q = Quiver(2, [(0, 1), (1, 0)])
    tails = _tails(GradedBasis(q, _untwisted(q), 2))
    assert tails[(0, 2)] == {0: 1}
    assert tails[(1, 2)] == {1: 1}


def _random_quiver(rng, acyclic=False):
    n = rng.randint(1, 4)
    arrows = []
    for _ in range(rng.randint(0, 5)):
        t, h = rng.randrange(n), rng.randrange(n)
        if acyclic and t <= h:
            continue
        arrows.append((t, h))
    return Quiver(n, arrows)


def test_path_count_recursion():
    # untwisted, dim e_i A_l e_j counts the paths of length l from j to i
    rng = random.Random(23)
    for _ in range(15):
        q = _random_quiver(rng)
        basis = GradedBasis(q, _untwisted(q), 4)
        tails = _tails(basis)
        for (length, i), paths in enumerate_paths(q, 4).items():
            assert basis.dim[(i, length)] == len(paths)
            assert tails[(i, length)] == Counter(p.tail for p in paths)


def test_acyclic_paths_stabilize():
    rng = random.Random(31)
    for _ in range(15):
        q = _random_quiver(rng, acyclic=True)
        assert is_acyclic(q)
        twist = TwistData([rng.randint(1, 3) for _ in q.arrows])
        basis = GradedBasis(q, twist, q.n_vertices + 2)
        tails = _tails(basis)
        for length in range(q.n_vertices, q.n_vertices + 3):
            for i in range(q.n_vertices):
                assert basis.dim[(i, length)] == 0
                assert tails[(i, length)] == {}


def test_is_acyclic_detects_cycles():
    assert not is_acyclic(Quiver(1, [(0, 0)]))
    assert not is_acyclic(Quiver(2, [(0, 1), (1, 0)]))
    assert is_acyclic(Quiver(3, [(2, 1), (1, 0), (2, 0)]))
