"""The standard resolution of a twisted representation, truncated by degree.

For a module V the resolution reads

    0 -> V --eps--> ⊕_i Hom(e_i A, V_i) --d--> ⊕_a Hom(M_a ⊗ e_ta A, V_ha) -> 0

with eps(v)(x) = x·v and d(alpha)_a(x_a⊗x) = alpha_ha(x_a x) − phi_a(x_a ⊗
alpha_ta(x)).  The graded pieces e_i A_l are spanned by (path, tensor index)
pairs; truncating alpha at degree N and the codomain at degree N−1 keeps the
sequence exact degreewise, because the degree-(l−1) constraints consume
alpha only up to degree l.

Basis conventions: inside e_i A_l, paths are ordered as enumerate_paths
orders them and the tensor index of each path is ordered with the last
arrow applied most significant.  Truncated direct sums are ordered by
vertex (resp. arrow), then by degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .linalg import (
    ExactMatrix,
    MatrixBuilder,
    kron,
    rank,
    vec_twisted_postcompose,
)
from .quiver import Path, Quiver, enumerate_paths
from .rep import TwistData, TwistedRep, path_matrix, path_tensor_dim


class GradedBasis:
    """Ordered bases of the graded pieces e_i A_l, l <= max_degree."""

    def __init__(self, quiver: Quiver, twist: TwistData, max_degree: int):
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        self.quiver = quiver
        self.twist = twist
        self.max_degree = max_degree
        groups = enumerate_paths(quiver, max_degree)
        # entries[(i, l)]: list of (path, tensor_dim, offset); dim[(i, l)] totals
        self.entries: Dict[Tuple[int, int], List[Tuple[Path, int, int]]] = {}
        self.dim: Dict[Tuple[int, int], int] = {}
        self.path_offset: Dict[Tuple[int, Path], int] = {}
        for (length, i), paths in groups.items():
            listing = []
            pos = 0
            for p in paths:
                d = path_tensor_dim(twist, p)
                listing.append((p, d, pos))
                self.path_offset[(length, p)] = pos
                pos += d
            self.entries[(i, length)] = listing
            self.dim[(i, length)] = pos

    def mu_matrix_at(self, field, a: int, degree: int) -> ExactMatrix:
        """0/1 matrix of multiplication M_a ⊗ e_ta A_degree -> e_ha A_{degree+1}."""
        t, h = self.quiver.arrows[a]
        m = self.twist[a]
        src_dim = self.dim[(t, degree)]
        dst_dim = self.dim[(h, degree + 1)]
        out = MatrixBuilder(field, dst_dim, m * src_dim)
        for (q, dim_q, off_q) in self.entries[(t, degree)]:
            longer = Path(q.tail, h, q.arrows + (a,))
            dst_off = self.path_offset[(degree + 1, longer)]
            for m_a in range(m):
                for t_q in range(dim_q):
                    out.add(dst_off + m_a * dim_q + t_q,
                            m_a * src_dim + off_q + t_q, field.one())
        return out.build()


@dataclass
class ResolutionLayout:
    """Block offsets of the truncated middle and right resolution terms."""

    basis: GradedBasis
    dims: Tuple[int, ...]
    f_offsets: Dict[Tuple[int, int], int] = dc_field(default_factory=dict)
    g_offsets: Dict[Tuple[int, int], int] = dc_field(default_factory=dict)
    f_total: int = 0
    g_total: int = 0

    def __post_init__(self):
        n = self.basis.max_degree
        pos = 0
        for i in range(self.basis.quiver.n_vertices):
            for l in range(n + 1):
                self.f_offsets[(i, l)] = pos
                pos += self.dims[i] * self.basis.dim[(i, l)]
        self.f_total = pos
        pos = 0
        for a, (t, h) in enumerate(self.basis.quiver.arrows):
            for l in range(n):
                self.g_offsets[(a, l)] = pos
                pos += self.basis.twist[a] * self.basis.dim[(t, l)] * self.dims[h]
        self.g_total = pos


def resolution_layout(V: TwistedRep, max_degree: int) -> ResolutionLayout:
    basis = GradedBasis(V.quiver, V.twist, max_degree)
    return ResolutionLayout(basis, V.dims)


def resolution_matrices(V: TwistedRep, max_degree: int,
                        layout: Optional[ResolutionLayout] = None
                        ) -> Tuple[ExactMatrix, ExactMatrix]:
    """Matrices of eps and d on the degree-<= max_degree truncation."""
    if layout is None:
        layout = resolution_layout(V, max_degree)
    return _eps_matrix(V, layout), _d_matrix(V, layout)


def _eps_matrix(V: TwistedRep, layout: ResolutionLayout) -> ExactMatrix:
    basis = layout.basis
    eps = MatrixBuilder(V.field, layout.f_total, V.total_dim())
    v_offsets = []
    pos = 0
    for d in V.dims:
        v_offsets.append(pos)
        pos += d
    for i in range(V.quiver.n_vertices):
        if V.dims[i] == 0:
            continue
        for l in range(basis.max_degree + 1):
            base = layout.f_offsets[(i, l)]
            for (p, dim_p, off) in basis.entries[(i, l)]:
                if V.dims[p.tail] == 0:
                    continue
                for t in range(dim_p):
                    # eps(v) evaluated on the basis element (p, t) is (p, t)·v
                    block = path_matrix(V, p, t)
                    eps.add_block(base + (off + t) * V.dims[i],
                                  v_offsets[p.tail], block)
    return eps.build()


def _d_matrix(V: TwistedRep, layout: ResolutionLayout) -> ExactMatrix:
    basis = layout.basis
    field = V.field
    d_out = MatrixBuilder(field, layout.g_total, layout.f_total)
    for a, (t, h) in enumerate(V.quiver.arrows):
        m = V.twist[a]
        for l in range(basis.max_degree):
            row = layout.g_offsets[(a, l)]
            # alpha_ha composed with the multiplication map mu_a
            if V.dims[h] > 0:
                mu = basis.mu_matrix_at(field, a, l)
                d_out.add_block(row, layout.f_offsets[(h, l + 1)],
                                kron(mu.transpose(),
                                     ExactMatrix.identity(field, V.dims[h])))
            # phi_a ∘ (1 ⊗ alpha_ta)
            if V.dims[t] > 0 and V.dims[h] > 0:
                block = vec_twisted_postcompose(V.phi[a], m, basis.dim[(t, l)])
                d_out.add_block(row, layout.f_offsets[(t, l)], block.scale(-1))
    return d_out.build()


@dataclass(frozen=True)
class ExactnessReport:
    eps_injective: bool
    ker_d_eq_im_eps: bool
    d_surjective: bool

    def all_ok(self) -> bool:
        return self.eps_injective and self.ker_d_eq_im_eps and self.d_surjective


def check_resolution_exactness(V: TwistedRep, max_degree: int) -> ExactnessReport:
    """Rank checks of exactness on the truncation (valid for max_degree >= 1)."""
    if max_degree < 1:
        raise ValueError("exactness requires max_degree >= 1")
    eps, d = resolution_matrices(V, max_degree)
    total = V.total_dim()
    eps_injective = rank(eps) == total
    composite_zero = (d @ eps).is_zero()
    rank_d = rank(d)
    ker_d_eq_im_eps = composite_zero and d.ncols - rank_d == total
    d_surjective = rank_d == d.nrows
    return ExactnessReport(eps_injective, ker_d_eq_im_eps, d_surjective)


@dataclass
class GradedMapFamily:
    """Degreewise components alpha (per vertex) and beta (per arrow).

    alpha[(i, l)] : Hom(e_i A_l, V_i) for l <= max_degree;
    beta[(a, l)]  : Hom(M_a ⊗ e_ta A_l, V_ha) for l <= max_degree − 1.
    """

    max_degree: int
    alpha: Optional[Dict[Tuple[int, int], ExactMatrix]] = None
    beta: Optional[Dict[Tuple[int, int], ExactMatrix]] = None


def alpha_to_vector(layout: ResolutionLayout,
                    alpha: Dict[Tuple[int, int], ExactMatrix]) -> list:
    out = [None] * layout.f_total
    for (i, l), mat in alpha.items():
        base = layout.f_offsets[(i, l)]
        for c in range(mat.ncols):
            col = mat.column_list(c)
            for r, x in enumerate(col):
                out[base + c * mat.nrows + r] = x
    return out


def beta_to_vector(layout: ResolutionLayout,
                   beta: Dict[Tuple[int, int], ExactMatrix]) -> list:
    out = [None] * layout.g_total
    for (a, l), mat in beta.items():
        base = layout.g_offsets[(a, l)]
        for c in range(mat.ncols):
            col = mat.column_list(c)
            for r, x in enumerate(col):
                out[base + c * mat.nrows + r] = x
    return out


def lift_beta(V: TwistedRep, beta: GradedMapFamily,
              layout: Optional[ResolutionLayout] = None) -> GradedMapFamily:
    """Preimage alpha with d(alpha) = beta, by induction on the degree.

    Degree 0 components vanish; on e_i A_l the components are defined by
    alpha_i(x_a ⊗ x) = x_a·alpha_ta(x) + beta_a(x_a ⊗ x).  The identity
    d(alpha) = beta is re-verified by matrix multiplication before
    returning.
    """
    n = beta.max_degree
    if layout is None:
        layout = resolution_layout(V, n)
    basis = layout.basis
    field = V.field
    bmats = beta.beta or {}
    for a, (t, h) in enumerate(V.quiver.arrows):
        for l in range(n):
            want = (V.dims[h], V.twist[a] * basis.dim[(t, l)])
            got = bmats.get((a, l))
            if got is None or got.shape != want:
                raise ValueError(f"beta[({a}, {l})] missing or of wrong shape")

    alpha: Dict[Tuple[int, int], ExactMatrix] = {}
    for i in range(V.quiver.n_vertices):
        alpha[(i, 0)] = ExactMatrix.zeros(field, V.dims[i], basis.dim[(i, 0)])
    for l in range(1, n + 1):
        for i in range(V.quiver.n_vertices):
            out = MatrixBuilder(field, V.dims[i], basis.dim[(i, l)])
            if V.dims[i] > 0:
                for (p, dim_p, off) in basis.entries[(i, l)]:
                    a = p.arrows[-1]
                    t = V.quiver.tail(a)
                    shorter = Path(p.tail, t, p.arrows[:-1])
                    dim_q = path_tensor_dim(V.twist, shorter)
                    off_q = basis.path_offset[(l - 1, shorter)]
                    prev = alpha[(t, l - 1)]
                    bm = bmats[(a, l - 1)]
                    src_dim = basis.dim[(t, l - 1)]
                    for tt in range(dim_p):
                        m_a = tt // dim_q
                        t_q = tt % dim_q
                        col = bm.submatrix(0, V.dims[i],
                                           m_a * src_dim + off_q + t_q,
                                           m_a * src_dim + off_q + t_q + 1)
                        if V.dims[t] > 0:
                            carried = V.arrow_block(a, m_a) @ prev.submatrix(
                                0, V.dims[t], off_q + t_q, off_q + t_q + 1)
                            col = col + carried
                        out.add_block(0, tt + off, col)
            alpha[(i, l)] = out.build()

    d = _d_matrix(V, layout)
    avec = alpha_to_vector(layout, alpha)
    bvec = beta_to_vector(layout, bmats)
    image = d.apply(avec)
    if image != [field.element(x) for x in bvec]:
        raise AssertionError("lift does not satisfy d(alpha) = beta")
    return GradedMapFamily(max_degree=n, alpha=alpha)
