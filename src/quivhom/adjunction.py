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

from typing import Tuple

from .linalg import CrossCheckError, ExactMatrix, MatrixBuilder, solve, vec_matrix
from .rep import TwistedRep, hom_layout, hom_space, one_coordinate
from .resolution import GradedBasis, path_actions


def _elements(basis: GradedBasis):
    """The basis elements of each e_k A_l, in block order, as (j, p, first).

    j is the tail and p the position among the elements of e_k A_l with tail
    j.  first = (a, m, r) says the element is y·x for x the m-th basis vector
    of M_a and y the r-th element of e_k A_{l-1}; it is None in degree 0.
    Both follow the recursion: x_b ⊗ z sits after the tail-j elements of the
    blocks before b and m_b copies of e_tb A_l e_j, and (x_b ⊗ y)·x_a =
    x_b ⊗ (y·x_a).
    """
    q, twist = basis.quiver, basis.twist
    elems = {(k, 0): [(k, 0, None)] for k in range(q.n_vertices)}
    for l in range(basis.max_degree):
        for k in range(q.n_vertices):
            level, start = [], dict.fromkeys(basis.tail_dim[(k, l + 1)], 0)
            for b in q.arrows_into(k):
                t = q.tail(b)
                below = basis.tail_dim[(t, l)]
                for m_b in range(twist[b]):
                    for j, p, sub in elems[(t, l)]:
                        if sub is None:         # x_b ⊗ e_t = e_k·x_b
                            first = (b, m_b, 0)
                        else:
                            a, m, r = sub
                            first = (a, m, basis.block_offset[(b, l - 1)]
                                     + m_b * basis.dim[(t, l - 1)] + r)
                        level.append((j, start[j] + m_b * below[j] + p, first))
                for j, d in below.items():
                    start[j] += twist[b] * d
            elems[(k, l + 1)] = level
    return elems


def _coinduced_module(V: TwistedRep, i: int, n_dim: int, l_dim: int):
    """The representation J with J_j = Hom(N ⊗ e_i A e_j, L).

    Also returns the path-space basis, its elements (_elements), pos[l][x],
    the place of element x of e_i A_l in the basis of e_i A e_tail, and the
    dimensions of the e_i A e_j.
    """
    q = V.quiver
    basis = GradedBasis(q, V.twist, q.n_vertices - 1)
    elems = _elements(basis)
    t_dims = [0] * q.n_vertices
    pos = []
    for l in range(basis.max_degree + 1):
        pos.append([t_dims[j] + p for j, p, _ in elems[(i, l)]])
        for j, d in basis.tail_dim[(i, l)].items():
            t_dims[j] += d
    j_dims = [n_dim * t_dims[j] * l_dim for j in range(q.n_vertices)]
    phi = [MatrixBuilder(V.field, j_dims[h], V.twist[a] * j_dims[t])
           for a, (t, h) in enumerate(q.arrows)]
    # (x_a · f)(n ⊗ y) = f(n ⊗ y·x_a): shift a functional one arrow back
    for l in range(1, basis.max_degree + 1):
        for x, (t, _, (a, m, r)) in enumerate(elems[(i, l)]):
            h = q.head(a)
            for n_idx in range(n_dim):
                for lam in range(l_dim):
                    col = m * j_dims[t] + (n_idx * t_dims[t] + pos[l][x]) * l_dim + lam
                    row = (n_idx * t_dims[h] + pos[l - 1][r]) * l_dim + lam
                    phi[a].add(row, col, 1)
    J = TwistedRep(q, V.twist, V.field, j_dims, [m.build() for m in phi])
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
    voff = hom_layout(V, J, one_coordinate).vertex_start
    total = voff[-1]

    hom_cols = MatrixBuilder(field, total, h)
    for idx, f in enumerate(homs):
        flat = []
        for j in range(q.n_vertices):
            flat.extend(vec_matrix(f.blocks[j]))
        for r, x in enumerate(flat):
            hom_cols.add(r, idx, x)
    hom_cols = hom_cols.build()

    # forward: g(n ⊗ v) = f_i(v)(n ⊗ e_i), a coordinate selection; e_i comes first
    select = MatrixBuilder(field, d_out, total)
    for n_idx in range(n_dim):
        for v in range(V.dims[i]):
            for lam in range(l_dim):
                g_coord = (n_idx * V.dims[i] + v) * l_dim + lam
                f_row = n_idx * t_dims[i] * l_dim + lam
                select.add(g_coord, voff[i] + v * J.dims[i] + f_row, field.one())
    select = select.build()
    forward = select @ hom_cols

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
            for n_idx in range(n_dim):
                for lam in range(l_dim):
                    f_row = (n_idx * t_dims[j] + pos[l][element]) * l_dim + lam
                    g_col = (n_idx * V.dims[i] + w) * l_dim + lam
                    back.add(coord + f_row, g_col, x)
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
