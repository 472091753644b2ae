"""The standard resolution of a twisted representation, truncated by degree.

For a module V the resolution reads

    0 -> V --eps--> ⊕_i Hom(e_i A, V_i) --d--> ⊕_a Hom(M_a ⊗ e_ta A, V_ha) -> 0

with eps(v)(x) = x·v and d(alpha)_a(x_a⊗x) = alpha_ha(x_a x) − phi_a(x_a ⊗
alpha_ta(x)).  Truncating alpha at degree N and the codomain at degree N−1
keeps the sequence exact degreewise, because the degree-(l−1) constraints
consume alpha only up to degree l.

Everything follows one recursion, e_h A_{l+1} = ⊕_{a into h} M_a ⊗ e_ta A_l:
a path of length l+1 is an arrow applied after a path of length l.  The
basis of e_h A_{l+1} is this sum, one block per arrow in quiver order, the
M_a index most significant (for untwisted arrows, paths ordered by their
last arrow, then by the rest of the path).  A map alpha is fixed by its
degree-0 part and by beta = d(alpha): on the block of a, alpha_ha = beta_a +
phi_a·(I_m ⊗ alpha_ta).  _recursion walks this once, in the coordinates of
d: each coordinate of alpha in degree >= 1 is a coordinate of beta plus a
combination of coordinates of alpha one degree lower.  lift_beta runs the
walk over field elements, seeded by 0.  Run over rows with beta = 0, seeded
by the projections V -> V_i, it gives eps's full matrix (row x holds x·v),
a test oracle in tests/oracles.py; the check ranks eps's degree-0 block.
_d_matrix writes phi_a on its own, so comparing d's rows with the walk,
entry by entry, checks one coding of phi against the other.

Hom blocks are vectorised column-major.  ⊕ Hom(e_i A_l, V_i) is ordered by
degree, highest first, then by vertex; the codomain by arrow, then degree.
Each row of d then leads with its +1 on alpha_{h,l+1}, left of its −phi_a
entries on alpha_{t,l}, in a column no other row leads in; elimination
takes every row of d as a pivot without a single subtraction.  Ordered by
vertex first, the +1 can fall right of other rows' pivots and rank(d)
fills in.  ResolutionLayout holds these coordinates, and the public API
works in them: lift_beta takes beta as a vector in the order of d's rows
and returns alpha in the order of d's columns, or None when the re-check
d·alpha = beta fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .linalg import ExactMatrix, MatrixBuilder, rank
from .quiver import Quiver
from .rep import TwistData, TwistedRep


class GradedBasis:
    """Dimensions of the graded pieces e_i A_l, l <= max_degree.

    block_offset[(a, l)] is where the block M_a ⊗ e_ta A_l starts inside
    e_ha A_{l+1}.  The elements themselves, with their tails, are walked in
    this block order by path_elements in tests/oracles.py.
    """

    def __init__(self, quiver: Quiver, twist: TwistData, max_degree: int):
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        self.quiver = quiver
        self.twist = twist
        self.max_degree = max_degree
        self.dim: Dict[Tuple[int, int], int] = {
            (i, 0): 1 for i in range(quiver.n_vertices)}
        self.block_offset: Dict[Tuple[int, int], int] = {}
        for l in range(max_degree):
            for i in range(quiver.n_vertices):
                self.dim[(i, l + 1)] = 0
            for a, (t, h) in enumerate(quiver.arrows):
                self.block_offset[(a, l)] = self.dim[(h, l + 1)]
                self.dim[(h, l + 1)] += twist[a] * self.dim[(t, l)]


class ResolutionLayout:
    """Coordinates of the truncated middle and right resolution terms.

    f_offsets[(i, l)] is where the column-major block Hom(e_i A_l, V_i)
    starts among the columns of d, degree highest first, then vertex;
    g_offsets[(a, l)] is where Hom(M_a ⊗ e_ta A_l, V_ha) starts among its
    rows, by arrow, then degree.  f_total and g_total are the two sizes.
    """

    def __init__(self, basis: GradedBasis, dims: Tuple[int, ...]):
        self.basis = basis
        n = basis.max_degree
        self.f_offsets: Dict[Tuple[int, int], int] = {}
        pos = 0
        for l in range(n, -1, -1):
            for i in range(basis.quiver.n_vertices):
                self.f_offsets[(i, l)] = pos
                pos += dims[i] * basis.dim[(i, l)]
        self.f_total = pos
        self.g_offsets: Dict[Tuple[int, int], int] = {}
        pos = 0
        for a, (t, h) in enumerate(basis.quiver.arrows):
            for l in range(n):
                self.g_offsets[(a, l)] = pos
                pos += basis.twist[a] * basis.dim[(t, l)] * dims[h]
        self.g_total = pos


def resolution_layout(V: TwistedRep, max_degree: int) -> ResolutionLayout:
    basis = GradedBasis(V.quiver, V.twist, max_degree)
    return ResolutionLayout(basis, V.dims)


def resolution_matrices(V: TwistedRep, layout: ResolutionLayout
                        ) -> Tuple[ExactMatrix, ExactMatrix]:
    """eps's degree-0 block, the identity (eps projects V onto each V_i), and
    the matrix of d on the truncation of layout."""
    total = V.total_dim()
    eps = MatrixBuilder(V.field, total, total)
    eps.add_run(0, 0, total, V.field.one())
    return eps.build(), _d_matrix(V, layout)


def _recursion(V: TwistedRep, layout: ResolutionLayout):
    """Yield (k, g, base, cell) for each coordinate k of alpha in degree >= 1, by degree.

    alpha_ha = beta_a + phi_a·(I_m ⊗ alpha_ta) on the block of arrow a:
    coordinate k of alpha is beta's coordinate g plus cf times coordinate
    base + s of alpha for each (cf, s) in cell, all one degree lower.  Each
    cell is built once per walk and shared by every coordinate that reads it.
    """
    basis = layout.basis
    # phi_a's entry (r, j·dt + s) takes alpha_ta's entry (s, x) to the entry
    # (r, j·src + x) of the block of arrow a: cells[a][j][r] lists (cf, s)
    cells = [[[[] for _ in range(V.dims[h])] for _ in range(V.twist[a])]
             for a, (_, h) in enumerate(V.quiver.arrows)]
    for a, (t, _) in enumerate(V.quiver.arrows):
        for r, c, cf in V.phi[a].nonzeros():
            j, s = divmod(c, V.dims[t])
            cells[a][j][r].append((cf, s))
    for l in range(basis.max_degree):
        for a, (t, h) in enumerate(V.quiver.arrows):
            dt, dh, m = V.dims[t], V.dims[h], V.twist[a]
            src, col = basis.dim[(t, l)], layout.f_offsets[(t, l)]
            k0 = layout.f_offsets[(h, l + 1)] + basis.block_offset[(a, l)] * dh
            g0 = layout.g_offsets[(a, l)]
            for j in range(m):
                for x in range(src):
                    e = (j * src + x) * dh
                    base = col + x * dt
                    for r in range(dh):
                        yield k0 + e + r, g0 + e + r, base, cells[a][j][r]


def _d_matrix(V: TwistedRep, layout: ResolutionLayout) -> ExactMatrix:
    basis = layout.basis
    d_out = MatrixBuilder(V.field, layout.g_total, layout.f_total)
    for a, (t, h) in enumerate(V.quiver.arrows):
        dt, dh = V.dims[t], V.dims[h]
        # −phi_a ∘ (I_m ⊗ alpha_ta): phi_a's entry (r, j·dt + s) takes
        # alpha_ta's entry (s, x) to the entry (r, j·src + x)
        minus_phi = [(r, *divmod(c, dt), -cf) for r, c, cf in V.phi[a].nonzeros()]
        for l in range(basis.max_degree):
            row = layout.g_offsets[(a, l)]
            src = basis.dim[(t, l)]
            # alpha_ha on the block of arrow a: an identity block
            col = layout.f_offsets[(h, l + 1)] + basis.block_offset[(a, l)] * dh
            d_out.add_run(row, col, V.twist[a] * src * dh, 1)
            col = layout.f_offsets[(t, l)]
            d_out.add_cells((row + (j * src + x) * dh + r, col + x * dt + s, neg)
                            for r, j, s, neg in minus_phi for x in range(src))
    return d_out.build()


@dataclass(frozen=True)
class ExactnessReport:
    eps_injective: bool
    ker_d_eq_im_eps: bool
    d_surjective: bool


def check_resolution_exactness(V: TwistedRep, layout: ResolutionLayout, eps: ExactMatrix,
                               d: ExactMatrix) -> ExactnessReport:
    """Checks that (eps, d) = resolution_matrices(V, layout) is exact, max_degree >= 1.

    eps is injective when its degree-0 block has rank dim V.  d·eps = 0 when
    row g of d is +1 at k and −cf at base + s for each (cf, s) in cell, for
    each (k, g, base, cell) of _recursion, the walk that gives eps.  No
    matrix is multiplied; lift_beta's re-check is d.apply, a matrix-vector
    product.
    """
    if layout.basis.max_degree < 1:
        raise ValueError("exactness requires max_degree >= 1")
    total = V.total_dim()
    eps_injective = rank(eps) == total
    rank_d = rank(d)
    ker_d_eq_im_eps = _codings_agree(V, layout, d) and d.ncols - rank_d == total
    return ExactnessReport(eps_injective, ker_d_eq_im_eps, rank_d == d.nrows)


def _codings_agree(V: TwistedRep, layout: ResolutionLayout, d: ExactMatrix) -> bool:
    """d's rows against the walk, as check_resolution_exactness says; each −cf is made once."""
    rows, p = d.sparse_rows(), V.field.modulus
    negated = {}        # id(cell): [(s, −cf)]
    for k, g, base, cell in _recursion(V, layout):
        neg = negated.get(id(cell))
        if neg is None:
            neg = negated[id(cell)] = [(s, -cf % p if p else -cf) for cf, s in cell]
        row = rows[g]
        if len(row) != len(neg) + 1 or row.get(k) != 1:
            return False
        for s, x in neg:
            if row.get(base + s) != x:
                return False
    return True


def lift_beta(V: TwistedRep, layout: ResolutionLayout, beta: Sequence,
              d: ExactMatrix) -> Optional[list]:
    """Preimage alpha with d·alpha = beta, by induction on the degree.

    beta holds layout.g_total coordinates in the order of d's rows; alpha
    is returned in the order of d's columns.  Degree 0 components vanish;
    on e_i A_l the components are defined by alpha_i(x_a ⊗ x) =
    x_a·alpha_ta(x) + beta_a(x_a ⊗ x).  The identity d·alpha = beta is
    re-verified by d.apply, a matrix-vector product; None when it fails.
    """
    if len(beta) != layout.g_total:
        raise ValueError(f"beta has {len(beta)} coordinates, expected {layout.g_total}")
    field, p = V.field, V.field.modulus
    beta = [x % p if p is not None and type(x) is int else field.element(x) for x in beta]
    alpha = [field.zero()] * layout.f_total
    for k, g, base, cell in _recursion(V, layout):
        x = beta[g]
        for cf, s in cell:
            x += cf * alpha[base + s]
        alpha[k] = x % p if p else x
    if d.apply(alpha) != beta:
        return None
    return alpha
