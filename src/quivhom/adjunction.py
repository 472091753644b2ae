"""The tensor-hom adjunction specialised to the path-space modules.

For an acyclic quiver, a vertex i, and spaces N = k^n, L = k^l, the module
J = Hom(N ⊗ e_i A, L) is a twisted representation with J_j = Hom(N ⊗
e_i A e_j, L), and there is a natural isomorphism

    Hom_A(V, J)  ≅  Hom(N ⊗ V_i, L),       f(v)(w) = g(w ⊗ v).

adjunction_iso returns the two mutually inverse matrices of this
isomorphism, the forward one in the computed basis of Hom_A(V, J) and the
standard matrix-unit basis of Hom(N ⊗ V_i, L).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .linalg import CrossCheckError, ExactMatrix, MatrixBuilder, solve, vec_matrix
from .quiver import Path, enumerate_paths
from .rep import (TwistedRep, hom_layout, hom_space, one_coordinate, path_matrix,
                  path_tensor_dim)


def _two_sided_path_basis(V: TwistedRep, i: int):
    """Bases of the spaces e_i A e_j: paths with head i grouped by tail."""
    q = V.quiver
    groups = enumerate_paths(q, q.n_vertices - 1 if q.n_vertices > 1 else 0)
    listing: Dict[int, List[Tuple[Path, int, int]]] = {j: [] for j in range(q.n_vertices)}
    dims = [0] * q.n_vertices
    for length in range(q.n_vertices):
        for p in groups.get((length, i), []):
            d = path_tensor_dim(V.twist, p)
            listing[p.tail].append((p, d, dims[p.tail]))
            dims[p.tail] += d
    return listing, dims


def _coinduced_module(V: TwistedRep, i: int, n_dim: int, l_dim: int):
    """The representation J with J_j = Hom(N ⊗ e_i A e_j, L)."""
    q = V.quiver
    field = V.field
    listing, t_dims = _two_sided_path_basis(V, i)
    j_dims = [n_dim * t_dims[j] * l_dim for j in range(q.n_vertices)]
    # offset of a (path, tensor) pair inside e_i A e_j
    pos_of: Dict[Tuple[Path, int], int] = {}
    for j in range(q.n_vertices):
        for (p, d, off) in listing[j]:
            for t in range(d):
                pos_of[(p, t)] = off + t
    phi = []
    for a, (t, h) in enumerate(q.arrows):
        m = V.twist[a]
        out = MatrixBuilder(field, j_dims[h], m * j_dims[t])
        # (x_a · f)(n ⊗ x') = f(n ⊗ x' x_a): shift a functional one arrow back
        for (x, d, off) in listing[t]:
            if x.is_trivial or x.arrows[0] != a:
                continue
            rest = x.arrows[1:]
            shorter = Path(h, i, rest) if rest else Path.trivial(h)
            for t_x in range(d):
                m_a = t_x % m
                t_rest = t_x // m
                src_pos = off + t_x
                dst_pos = pos_of[(shorter, t_rest)]
                for n_idx in range(n_dim):
                    for lam in range(l_dim):
                        col = m_a * j_dims[t] + (n_idx * t_dims[t] + src_pos) * l_dim + lam
                        row = (n_idx * t_dims[h] + dst_pos) * l_dim + lam
                        out.add(row, col, field.one())
        phi.append(out.build())
    J = TwistedRep(q, V.twist, field, j_dims, phi)
    return J, listing, t_dims, pos_of


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
    J, listing, t_dims, pos_of = _coinduced_module(V, i, n_dim, l_dim)

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

    # forward: g(n ⊗ v) = f_i(v)(n ⊗ e_i), a coordinate selection
    e_pos = pos_of[(Path.trivial(i), 0)]
    select = MatrixBuilder(field, d_out, total)
    for n_idx in range(n_dim):
        for v in range(V.dims[i]):
            for lam in range(l_dim):
                g_coord = (n_idx * V.dims[i] + v) * l_dim + lam
                f_row = (n_idx * t_dims[i] + e_pos) * l_dim + lam
                select.add(g_coord, voff[i] + v * J.dims[i] + f_row, field.one())
    select = select.build()
    forward = select @ hom_cols

    # backward: f_j(v)(n ⊗ x) = g(n ⊗ x·v), assembled from path actions
    back = MatrixBuilder(field, total, d_out)
    for j in range(q.n_vertices):
        for (p, d, off) in listing[j]:
            for t_p in range(d):
                act = path_matrix(V, p, t_p)   # V_j -> V_i
                for n_idx in range(n_dim):
                    for lam in range(l_dim):
                        f_row = (n_idx * t_dims[j] + off + t_p) * l_dim + lam
                        for v in range(V.dims[j]):
                            coord = voff[j] + v * J.dims[j] + f_row
                            for w in range(V.dims[i]):
                                x = act[w, v]
                                if x == 0:
                                    continue
                                g_col = (n_idx * V.dims[i] + w) * l_dim + lam
                                back.add(coord, g_col, x)
    back = back.build()

    # express the backward map in the hom_space basis
    coords = MatrixBuilder(field, h, d_out)
    for c in range(d_out):
        sol = solve(hom_cols, back.column_list(c))
        if sol is None:
            raise CrossCheckError("backward image is not a morphism")
        for r, x in enumerate(sol):
            coords.add(r, c, x)
    backward = coords.build()

    if h != d_out:
        raise CrossCheckError("adjunction dimensions disagree")
    if forward @ backward != ExactMatrix.identity(field, d_out):
        raise CrossCheckError("forward ∘ backward is not the identity")
    if backward @ forward != ExactMatrix.identity(field, h):
        raise CrossCheckError("backward ∘ forward is not the identity")
    return forward, backward
