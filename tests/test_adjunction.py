"""The adjunction isomorphism on acyclic quivers.

For an acyclic quiver, a vertex i, and spaces N = k^n, L = k^l, the module
J = Hom(N ⊗ e_i A, L) is a twisted representation with J_j = Hom(N ⊗
e_i A e_j, L), and there is a natural isomorphism

    Hom_A(V, J)  ≅  Hom(N ⊗ V_i, L),       f(v)(w) = g(w ⊗ v).

adjunction_iso returns the two mutually inverse matrices of this
isomorphism, the forward one in the computed basis of Hom_A(V, J) and the
standard matrix-unit basis of Hom(N ⊗ V_i, L).  No request runs it, so it
lives here, beside the tests that check it.

The path spaces follow the recursion of resolution.py, e_h A_{l+1} =
⊕_{a into h} M_a ⊗ e_ta A_l.  The basis of e_i A e_j is ordered by degree,
ascending, then in the block order of e_i A_l restricted to tail j.
"""

import functools
import hashlib
import random
import sys
from itertools import accumulate
from typing import Tuple

import pytest

from quivhom.linalg import CrossCheckError, ExactMatrix, FieldSpec, MatrixBuilder, kron
from quivhom.quiver import Quiver
from quivhom.rep import TwistData, TwistedRep, hom_space
from quivhom.resolution import GradedBasis

from oracles import (add, hstack, is_acyclic, path_actions, path_elements, scale, solve_columns,
                     submatrix, transpose, vec_matrix, zero_maps)
from path_oracle import enumerate_paths, path_matrix, path_tensor_dim

Q = FieldSpec.rationals()
F101 = FieldSpec.prime(101)


def _coinduced_module(V: TwistedRep, i: int, n_dim: int, l_dim: int):
    """The representation J with J_j = Hom(N ⊗ e_i A e_j, L).

    The basis of e_i A e_j numbers its elements by a running count per tail,
    over ascending degree, each degree in block order.  J's arrow map for a
    is hstack_m I_N ⊗ S_{a,m} ⊗ I_L, where the 0/1 matrix S_{a,m} sends
    y·x_a^(m) back to y: (x_a · f)(n ⊗ y) = f(n ⊗ y·x_a).  Also returns the
    path-space basis, its elements (path_elements), pos[l][x], the place of
    element x of e_i A_l in the basis of e_i A e_tail, and the dimensions of
    the e_i A e_j.
    """
    q, field = V.quiver, V.field
    basis = GradedBasis(q, V.twist, q.n_vertices - 1)
    elems = path_elements(basis)
    t_dims = [0] * q.n_vertices
    pos = []
    for l in range(basis.max_degree + 1):
        pos.append([])
        for j, _ in elems[(i, l)]:
            pos[l].append(t_dims[j])
            t_dims[j] += 1
    shift = [[MatrixBuilder(field, t_dims[h], t_dims[t]) for _ in range(V.twist[a])]
             for a, (t, h) in enumerate(q.arrows)]
    for l in range(1, basis.max_degree + 1):
        for x, (_, (a, m, r)) in enumerate(elems[(i, l)]):
            shift[a][m].add(pos[l - 1][r], pos[l][x], 1)
    eye_n, eye_l = ExactMatrix.identity(field, n_dim), ExactMatrix.identity(field, l_dim)
    phi = [hstack(kron(kron(eye_n, s.build()), eye_l) for s in per_m) for per_m in shift]
    j_dims = [n_dim * t * l_dim for t in t_dims]
    J = TwistedRep(q, V.twist, field, j_dims, phi)
    return J, basis, elems, pos, t_dims


def adjunction_iso(V: TwistedRep, i: int, n_dim: int, l_dim: int
                   ) -> Tuple[ExactMatrix, ExactMatrix]:
    """Forward and backward matrices of the adjunction isomorphism.

    Requires an acyclic quiver (so the path spaces are finite dimensional)
    and positive n_dim, l_dim.  The composites of the returned matrices are
    verified to be identities.
    """
    q = V.quiver
    if not is_acyclic(q):
        raise ValueError("adjunction_iso requires an acyclic quiver")
    if n_dim < 1 or l_dim < 1:
        raise ValueError("n_dim and l_dim must be positive")
    if not 0 <= i < q.n_vertices:
        raise ValueError(f"vertex {i} out of range")
    field = V.field
    J, basis, elems, pos, t_dims = _coinduced_module(V, i, n_dim, l_dim)

    homs = hom_space(V, J)
    h = len(homs)
    d_out = n_dim * V.dims[i] * l_dim

    # vectorised coordinates of ⊕_j Hom(V_j, J_j)
    voff = list(accumulate((dv * dj for dv, dj in zip(V.dims, J.dims)), initial=0))
    total = voff[-1]
    hom_cols = transpose(ExactMatrix(field, h, total, [
        [x for block in f.blocks for x in vec_matrix(block)] for f in homs]))

    # forward: g(n ⊗ v) = f_i(v)(n ⊗ e_i), e_i first in e_i A e_i; g is the
    # l_dim x (n_dim · dim V_i) matrix whose column n·dim V_i + v is f_i(v)(n ⊗ e_i)
    stride = t_dims[i] * l_dim
    forward = transpose(ExactMatrix(field, h, d_out, [
        vec_matrix(hstack(submatrix(f.blocks[i], n * stride, n * stride + l_dim, 0, V.dims[i])
                          for n in range(n_dim)))
        for f in homs]))

    # backward: f_j(v)(n ⊗ x) = g(n ⊗ x·v), read off the path actions on V
    v_dim = V.total_dim()
    v_start = [sum(V.dims[:j]) for j in range(q.n_vertices)]
    actions = path_actions(V, basis)
    back = MatrixBuilder(field, total, d_out)
    for l in range(basis.max_degree + 1):
        for w, c, x in actions[(i, l)].nonzeros():
            element, v = divmod(c, v_dim)
            j = elems[(i, l)][element][0]
            coord = voff[j] + (v - v_start[j]) * J.dims[j]
            for n_idx in range(n_dim):      # one run over the l_dim coordinates
                f_row = (n_idx * t_dims[j] + pos[l][element]) * l_dim
                back.add_run(coord + f_row, (n_idx * V.dims[i] + w) * l_dim, l_dim, x)
    back = back.build()

    # express the backward map in the hom_space basis, every column at once
    backward = solve_columns(hom_cols, back)
    if backward is None:
        raise CrossCheckError("backward image is not a morphism")

    if h != d_out:
        raise CrossCheckError("adjunction dimensions disagree")
    if forward @ backward != ExactMatrix.identity(field, d_out):
        raise CrossCheckError("forward ∘ backward is not the identity")
    if backward @ forward != ExactMatrix.identity(field, h):
        raise CrossCheckError("backward ∘ forward is not the identity")
    return forward, backward


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
    monkeypatch.setattr(sys.modules[__name__], "solve_columns", lambda m, b: None)
    with pytest.raises(CrossCheckError, match="not a morphism"):
        adjunction_iso(V, 0, 1, 1)


def test_backward_map_takes_one_elimination(monkeypatch):
    # every column of the backward map is solved against Hom_A(V, J) at once
    q = Quiver(2, [(1, 0)])
    V = TwistedRep(q, TwistData([1]), Q, [2, 1], [ExactMatrix(Q, 2, 1, [[1], [2]])])
    calls = []
    original = solve_columns
    monkeypatch.setattr(sys.modules[__name__], "solve_columns",
                        lambda m, b: calls.append(b) or original(m, b))
    _, backward = adjunction_iso(V, 0, 2, 1)
    assert backward.shape == (4, 4)
    assert len(calls) == 1 and calls[0].shape[1] == 4


def test_rejects_cycles():
    loop = Quiver(1, [(0, 0)])
    V = zero_maps(loop, TwistData([1]), Q, [1])
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
        J = _coinduced_module(V, i, n_dim, l_dim)[0]
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
    J = _coinduced_module(V, i, n_dim, l_dim)[0]
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
        f = [functools.reduce(add, (scale(homs[r].blocks[j], backward[r, col])
                                    for r in range(len(homs))),
                              ExactMatrix(V.field, J.dims[j], V.dims[j]))
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
