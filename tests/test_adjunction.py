"""The adjunction isomorphism on acyclic quivers."""

import hashlib
import random

import pytest

from quivhom import adjunction
from quivhom.adjunction import adjunction_iso
from quivhom.linalg import CrossCheckError, ExactMatrix, FieldSpec
from quivhom.quiver import Quiver
from quivhom.rep import TwistData, TwistedRep, hom_space
from quivhom.resolution import GradedBasis

from path_oracle import enumerate_paths, path_matrix, path_tensor_dim

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


def test_backward_map_takes_one_elimination(monkeypatch):
    # every column of the backward map is solved against Hom_A(V, J) at once
    q = Quiver(2, [(1, 0)])
    V = TwistedRep(q, TwistData([1]), Q, [2, 1], [ExactMatrix(Q, 2, 1, [[1], [2]])])
    calls = []
    solve = adjunction.solve
    monkeypatch.setattr(adjunction, "solve", lambda m, b: calls.append(b) or solve(m, b))
    _, backward = adjunction_iso(V, 0, 2, 1)
    assert backward.shape == (4, 4)
    assert len(calls) == 1 and calls[0].shape[1] == 4


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
    return _random_rep(rng, n, arrows)


def _random_rep(rng, n, arrows):
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


def _entries(m):
    return (m.shape, sorted(m.nonzeros()))


# sha256 over forward, backward and the coinduced module J of 200 draws
# (1-4 vertices, parallel arrows, twists 1-2, F_101), recorded before the
# path basis was numbered in one walk; the basis order of J must not move
ADJUNCTION_DIGEST = "5b474707b5869c5d351cbd64337e6095d3ac7ff5bd9454e6b486eeaaf23d949a"


def test_adjunction_output_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    zero_at_i = twisted = deep = 0
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4, 4, 4])
        # arrows step one or two vertices down, so paths of length 3 occur
        arrows = []
        for _ in range(rng.randint(0, 7) if n > 1 else 0):
            h = rng.randrange(n - 1)
            arrows.append((rng.randint(h + 1, min(h + 2, n - 1)), h))
        V = _random_rep(rng, n, arrows)
        i = min(rng.randrange(n), rng.randrange(n))
        n_dim, l_dim = rng.randint(1, 2), rng.randint(1, 2)
        zero_at_i += V.dims[i] == 0
        twisted += max(V.twist.dims, default=1) > 1
        deep += GradedBasis(V.quiver, V.twist, 2).dim[(i, 2)] > 0
        forward, backward = adjunction_iso(V, i, n_dim, l_dim)
        J = adjunction._coinduced_module(V, i, n_dim, l_dim)[0]
        case = (V.dims, i, n_dim, l_dim, _entries(forward), _entries(backward),
                J.dims, [_entries(m) for m in J.phi])
        digest.update(repr(case).encode())
    assert zero_at_i >= 20 and twisted >= 50 and deep >= 30
    assert digest.hexdigest() == ADJUNCTION_DIGEST


def _check_backward_against_path_actions(V, i, n_dim, l_dim):
    """Each column of backward, as the morphism f it represents, satisfies
    f_j(v)(n ⊗ x) = g(n ⊗ x·v) for every basis element x of e_i A e_j.

    The oracle lists x as (path, tensor index) and computes x·v.  f_j(v)(n ⊗ x)
    is read as (x·f_j(v))(n ⊗ e_i), through J's own arrow maps, with e_i first
    in e_i A e_i; so no order of the basis of e_i A e_j is assumed.  These
    readings must be coordinates of J_j, each exactly once: J's arrow maps are
    then right multiplication, x ↦ x·x_a, on some basis of e_i A.
    """
    _, backward = adjunction_iso(V, i, n_dim, l_dim)
    J = adjunction._coinduced_module(V, i, n_dim, l_dim)[0]
    homs = hom_space(V, J)
    q, di = V.quiver, V.dims[i]
    t_i = J.dims[i] // (n_dim * l_dim)          # dim e_i A e_i
    elements = [(p, k) for (_, head), paths in enumerate_paths(q, q.n_vertices - 1).items()
                if head == i for p in paths for k in range(path_tensor_dim(V.twist, p))]
    read = {}                                   # (x, n, lam) -> coordinate of J_tail(x)
    for p, k in elements:
        x_on_j = path_matrix(J, p, k)
        for n in range(n_dim):
            for lam in range(l_dim):
                row = x_on_j.row_list(n * t_i * l_dim + lam)
                assert sorted(row) == [0] * (len(row) - 1) + [1]
                read[(p, k, n, lam)] = row.index(1)
    for j in range(q.n_vertices):
        assert sorted(c for (p, *_), c in read.items() if p.tail == j) == list(range(J.dims[j]))

    for col in range(backward.ncols):
        g_n, rest = divmod(col, di * l_dim)
        g_w, g_lam = divmod(rest, l_dim)        # g = the matrix unit at (n, w, lam)
        f = [sum((homs[r].blocks[j].scale(backward[r, col]) for r in range(len(homs))),
                 ExactMatrix.zeros(V.field, J.dims[j], V.dims[j]))
             for j in range(q.n_vertices)]
        for (p, k, n, lam), coord in read.items():
            x_on_v = path_matrix(V, p, k)
            for v in range(V.dims[p.tail]):
                want = x_on_v[g_w, v] if (n, lam) == (g_n, g_lam) else 0
                assert f[p.tail][coord, v] == want, (p, k, n, lam, v)


def test_backward_columns_match_path_actions():
    rng = random.Random(11)
    twisted = 0
    for _ in range(30):
        V = _random_acyclic_rep(rng)
        i = rng.randrange(V.quiver.n_vertices)
        twisted += max(V.twist.dims, default=1) > 1
        _check_backward_against_path_actions(V, i, rng.randint(1, 2), rng.randint(1, 2))
    assert twisted >= 5


def test_backward_columns_match_path_actions_twisted_parallel_arrows():
    # parallel arrows between doubled ones: e_0 A_3 e_3 holds eight elements,
    # ordered by the M index of the last arrow applied, then by the rest
    q = Quiver(4, [(3, 2), (2, 1), (2, 1), (1, 0)])
    rng = random.Random(5)
    dims, twist = [1, 2, 1, 2], TwistData([2, 1, 1, 2])
    phi = [ExactMatrix(F101, dims[h], twist[a] * dims[t],
                       [[rng.randrange(101) for _ in range(twist[a] * dims[t])]
                        for _ in range(dims[h])])
           for a, (t, h) in enumerate(q.arrows)]
    V = TwistedRep(q, twist, F101, dims, phi)
    for i in range(4):
        _check_backward_against_path_actions(V, i, 2, 1)
