"""The adjunction isomorphism on acyclic quivers."""

import random

import pytest

from quivhom import adjunction
from quivhom.adjunction import adjunction_iso
from quivhom.linalg import CrossCheckError, ExactMatrix, FieldSpec
from quivhom.quiver import Quiver
from quivhom.rep import TwistData, TwistedRep

Q = FieldSpec.rationals()
F101 = FieldSpec.prime(101)


def test_single_vertex_identity():
    q = Quiver(1, [])
    V = TwistedRep(q, TwistData([]), Q, [1], [])
    forward, backward = adjunction_iso(V, 0, 1, 1)
    assert forward.to_lists() == [[1]]
    assert backward.to_lists() == [[1]]


def test_triple_both_sides_dimension_one():
    q = Quiver(2, [(1, 0)])
    V = TwistedRep(q, TwistData([1]), Q, [1, 1], [ExactMatrix(Q, 1, 1, [[1]])])
    forward, backward = adjunction_iso(V, 0, 1, 1)
    assert forward.shape == (1, 1)
    assert backward.shape == (1, 1)


def test_failed_cross_check_raises_cross_check_error(monkeypatch):
    # a backward image outside Hom_A(V, J) is a bug, reported as such
    q = Quiver(2, [(1, 0)])
    V = TwistedRep(q, TwistData([1]), Q, [1, 1], [ExactMatrix(Q, 1, 1, [[1]])])
    monkeypatch.setattr(adjunction, "solve", lambda m, b: None)
    with pytest.raises(CrossCheckError, match="not a morphism"):
        adjunction_iso(V, 0, 1, 1)


def test_rejects_cycles():
    loop = Quiver(1, [(0, 0)])
    V = TwistedRep.zero_maps(loop, TwistData([1]), Q, [1])
    with pytest.raises(ValueError):
        adjunction_iso(V, 0, 1, 1)


def test_rejects_bad_arguments():
    q = Quiver(1, [])
    V = TwistedRep(q, TwistData([]), Q, [1], [])
    with pytest.raises(ValueError):
        adjunction_iso(V, 0, 0, 1)
    with pytest.raises(ValueError):
        adjunction_iso(V, 3, 1, 1)


def _random_acyclic_rep(rng):
    n = rng.randint(1, 3)
    arrows = []
    for _ in range(rng.randint(0, 4)):
        t, h = rng.randrange(n), rng.randrange(n)
        if t > h:
            arrows.append((t, h))
    q = Quiver(n, arrows)
    tw = TwistData([rng.randint(1, 2) for _ in arrows])
    dims = [rng.randint(0, 2) for _ in range(n)]
    phi = []
    for a, (t, h) in enumerate(arrows):
        rows, cols = dims[h], tw[a] * dims[t]
        phi.append(ExactMatrix(F101, rows, cols,
                               [[rng.randrange(101) for _ in range(cols)]
                                for _ in range(rows)]))
    return TwistedRep(q, tw, F101, dims, phi)


def test_random_acyclic_composites_are_identities():
    # adjunction_iso verifies both composites internally and raises otherwise
    rng = random.Random(6)
    for _ in range(12):
        V = _random_acyclic_rep(rng)
        i = rng.randrange(V.quiver.n_vertices)
        n_dim, l_dim = rng.randint(1, 2), rng.randint(1, 2)
        forward, backward = adjunction_iso(V, i, n_dim, l_dim)
        expected = n_dim * V.dims[i] * l_dim
        assert forward.shape == (expected, expected)
        assert backward.shape == (expected, expected)
