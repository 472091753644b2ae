"""The tensor-hom adjunction specialised to the path-space modules.

For an acyclic quiver, a vertex i, and spaces N = k^n, L = k^l, the module
J = Hom(N ⊗ e_i A, L) is a twisted representation with J_j = Hom(N ⊗
e_i A e_j, L), and there is a natural isomorphism

    Hom_A(V, J)  ≅  Hom(N ⊗ V_i, L),       f(v)(w) = g(w ⊗ v).

adjunction_iso returns the two mutually inverse matrices of this
isomorphism, the forward one in the computed basis of Hom_A(V, J) and the
standard matrix-unit basis of Hom(N ⊗ V_i, L).

The path spaces follow the recursion of resolution.py, e_h A_{l+1} =
⊕_{a into h} M_a ⊗ e_ta A_l.  The basis of e_i A e_j is ordered by degree,
ascending, then in the block order of e_i A_l restricted to tail j.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Tuple

from .linalg import (CrossCheckError, ExactMatrix, MatrixBuilder, hstack, kron,
                     solve, vec_matrix)
from .rep import TwistedRep, hom_space
from .resolution import GradedBasis, path_actions


def _elements(basis: GradedBasis):
    """The basis elements of each e_k A_l, in block order, as (tail, first).

    first = (a, m, r) says the element is y·x for x the m-th basis vector of
    M_a and y the r-th element of e_k A_{l-1}; it is None in degree 0.  It
    follows the recursion: (x_b ⊗ y)·x_a = x_b ⊗ (y·x_a), and x_b ⊗ y sits
    at y's place in copy m_b of the block of b.  This walk is the only
    numbering of the elements; callers count positions as they go.
    """
    q, twist = basis.quiver, basis.twist
    elems = {(k, 0): [(k, None)] for k in range(q.n_vertices)}
    for l in range(basis.max_degree):
        for k in range(q.n_vertices):
            level = []
            for b in q.arrows_into(k):
                t = q.tail(b)
                for m_b in range(twist[b]):
                    for j, sub in elems[(t, l)]:
                        if sub is None:         # x_b ⊗ e_t = e_k·x_b
                            first = (b, m_b, 0)
                        else:
                            a, m, r = sub
                            first = (a, m, basis.block_offset[(b, l - 1)]
                                     + m_b * basis.dim[(t, l - 1)] + r)
                        level.append((j, first))
            elems[(k, l + 1)] = level
    return elems


def _coinduced_module(V: TwistedRep, i: int, n_dim: int, l_dim: int):
    """The representation J with J_j = Hom(N ⊗ e_i A e_j, L).

    The basis of e_i A e_j numbers its elements by a running count per tail,
    over ascending degree, each degree in block order.  J's arrow map for a
    is hstack_m I_N ⊗ S_{a,m} ⊗ I_L, where the 0/1 matrix S_{a,m} sends
    y·x_a^(m) back to y: (x_a · f)(n ⊗ y) = f(n ⊗ y·x_a).  Also returns the
    path-space basis, its elements (_elements), pos[l][x], the place of
    element x of e_i A_l in the basis of e_i A e_tail, and the dimensions of
    the e_i A e_j.
    """
    q, field = V.quiver, V.field
    basis = GradedBasis(q, V.twist, q.n_vertices - 1)
    elems = _elements(basis)
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
    if not q.is_acyclic():
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
    hom_cols = ExactMatrix(field, h, total, [
        [x for block in f.blocks for x in vec_matrix(block)] for f in homs]).transpose()

    # forward: g(n ⊗ v) = f_i(v)(n ⊗ e_i), e_i first in e_i A e_i; g is the
    # l_dim x (n_dim · dim V_i) matrix whose column n·dim V_i + v is f_i(v)(n ⊗ e_i)
    stride = t_dims[i] * l_dim
    forward = ExactMatrix(field, h, d_out, [
        vec_matrix(hstack(f.blocks[i].submatrix(n * stride, n * stride + l_dim, 0, V.dims[i])
                          for n in range(n_dim)))
        for f in homs]).transpose()

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
    backward = solve(hom_cols, back)
    if backward is None:
        raise CrossCheckError("backward image is not a morphism")

    if h != d_out:
        raise CrossCheckError("adjunction dimensions disagree")
    if forward @ backward != ExactMatrix.identity(field, d_out):
        raise CrossCheckError("forward ∘ backward is not the identity")
    if backward @ forward != ExactMatrix.identity(field, h):
        raise CrossCheckError("backward ∘ forward is not the identity")
    return forward, backward
