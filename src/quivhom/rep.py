"""Twisted quiver representations over a field.

A representation assigns a vector space V_i to each vertex and a matrix
phi_a : M_a ⊗ V_ta -> V_ha to each arrow, where M_a is a twist space of
dimension twist[a].  Tensor bases are ordered with the M_a index most
significant, everywhere; Hom blocks are vectorised column-major, and
direct sums are ordered by vertex, then by arrow, in quiver list order.
These three conventions make the connecting map, the resolution
differential and the lifting algorithm index identically.  hom_complex
turns them into the two-term complex C0 -> C1 of Hom summands, walking the
quiver once, for these representations and for the split-bundle sheaves
of sheaf.py alike; every connecting map is read off that complex.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    CrossCheckError,
    ExactMatrix,
    FieldSpec,
    MatrixBuilder,
    cokernel_representatives,
    kernel_basis,
    kron,
    solve,
    unvec_matrix,
)
from .quiver import Quiver


class IncompatibleError(ValueError):
    """Raised when two representations do not live over the same data."""


@dataclass(frozen=True)
class TwistData:
    """One twist dimension per arrow; dimension 1 recovers the untwisted case."""

    dims: Tuple[int, ...]

    def __init__(self, dims):
        dims = tuple(operator.index(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("twist dimensions must be >= 1")
        object.__setattr__(self, "dims", dims)

    def __getitem__(self, a: int) -> int:
        return self.dims[a]


class TwistedRep:
    """A module over the twisted path algebra, given by vertex spaces and arrow maps."""

    def __init__(self, quiver: Quiver, twist: TwistData, field: FieldSpec,
                 dims: Sequence[int], phi: Sequence[ExactMatrix]):
        if len(dims) != quiver.n_vertices:
            raise ValueError("one dimension per vertex required")
        if len(twist.dims) != quiver.n_arrows:
            raise ValueError("one twist dimension per arrow required")
        if len(phi) != quiver.n_arrows:
            raise ValueError("one matrix per arrow required")
        dims = tuple(operator.index(d) for d in dims)
        if any(d < 0 for d in dims):
            raise ValueError("vertex dimensions must be non-negative")
        for a, m in enumerate(phi):
            t, h = quiver.arrows[a]
            want = (dims[h], twist[a] * dims[t])
            if m.field != field:
                raise ValueError(f"phi[{a}] is over the wrong field")
            if m.shape != want:
                raise ValueError(
                    f"phi[{a}] has shape {m.shape}, expected {want}"
                )
        self.quiver = quiver
        self.twist = twist
        self.field = field
        self.dims = dims
        self.phi = tuple(phi)

    # -- structure ---------------------------------------------------------

    def total_dim(self) -> int:
        return sum(self.dims)

    def summand_data(self):
        """Input of hom_complex: summands are the basis vectors.

        Returns the per-vertex dimensions, the identity order of each
        tensor basis of M_a⊗V_ta, and the rows of each phi_a as
        {column: nonzero entry} dicts.
        """
        order = [range(self.twist[a] * self.dims[t])
                 for a, (t, _) in enumerate(self.quiver.arrows)]
        return self.dims, order, [m.sparse_rows() for m in self.phi]

    def summand_twists(self):
        """Input of hom_twists: every basis vector is a summand of twist 0."""
        return ([(0,) * d for d in self.dims],
                [(0,) * (self.twist[a] * self.dims[t])
                 for a, (t, _) in enumerate(self.quiver.arrows)])

    def compatible_with(self, other: "TwistedRep") -> None:
        if (self.quiver != other.quiver or self.twist != other.twist
                or self.field != other.field):
            raise IncompatibleError(
                "representations live over different quivers, twists or fields"
            )


class RepMorphism:
    """A vertex-indexed family of matrices intertwining two representations."""

    def __init__(self, source: TwistedRep, target: TwistedRep,
                 blocks: Sequence[ExactMatrix]):
        source.compatible_with(target)
        if len(blocks) != source.quiver.n_vertices:
            raise ValueError("one block per vertex required")
        for i, b in enumerate(blocks):
            if b.shape != (target.dims[i], source.dims[i]):
                raise ValueError(
                    f"block {i} has shape {b.shape}, expected "
                    f"{(target.dims[i], source.dims[i])}"
                )
        self.source = source
        self.target = target
        self.blocks = tuple(blocks)

    def is_morphism(self) -> bool:
        """Exact check of the intertwining squares f∘phi = psi∘(1⊗f)."""
        for a in range(self.source.quiver.n_arrows):
            t, h = self.source.quiver.arrows[a]
            m = self.source.twist[a]
            lhs = self.blocks[h] @ self.source.phi[a]
            rhs = self.target.phi[a] @ kron(
                ExactMatrix.identity(self.source.field, m), self.blocks[t]
            )
            if lhs != rhs:
                return False
        return True


class HomComplex(NamedTuple):
    """The two-term complex C0 = ⊕_i Hom(V_i, W_i) -> C1 = ⊕_a Hom(M_a⊗V_ta, W_ha).

    c0, c1, vertex_start and arrow_start are as hom_twists gives them.  Entry
    (i, j, value) sends summand j of C0 to value times summand i of C1; value
    is a coefficient of phi_a, one of psi_a negated, or on a loop a their
    difference.  No pair (i, j) has two entries, so no two share a cell.
    """
    field: FieldSpec
    c0: list
    c1: list
    vertex_start: list
    arrow_start: list
    entries: list


def hom_twists(V, W) -> Tuple[list, list, list, list]:
    """The twist of each summand of C0 and of C1, then the first summand of
    each vertex block and of each arrow block, and the count.

    Blocks are ordered by vertex, then by arrow; inside a block, by source
    summand s (of V_i, or of M_a⊗V_ta in stored order), then by target
    summand r.  Summand (s, r) has twist twist(r) − twist(s).  Every twist
    of a TwistedRep is 0.
    """
    V.compatible_with(W)
    (v, mv), (w, _) = V.summand_twists(), W.summand_twists()
    c0 = [[dr - ds for ds in src for dr in dst] for src, dst in zip(v, w)]
    c1 = [[dr - ds for ds in mv[a] for dr in w[h]] for a, (_, h) in enumerate(V.quiver.arrows)]
    return ([*chain(*c0)], [*chain(*c1)], summand_offsets(c0, len), summand_offsets(c1, len))


def hom_complex(V, W) -> HomComplex:
    """The one walk over the summands of f -> (f_ha ∘ phi_a − psi_a ∘ (1⊗f_ta))_a.

    Each stored entry cf of phi_a, or −cf of psi_a, sends the (r, s) entry of
    some f_i into the (r2, c) entry of the arrow-a component, c indexing
    M_a⊗V_ta in stored order.  Only on a loop can a phi and a psi term meet
    one pair; the walk keeps their difference in the phi term's entry.
    """
    c0, c1, vertex_start, arrow_start = hom_twists(V, W)
    v_sizes, v_order, phi = V.summand_data()
    w_sizes, w_order, psi = W.summand_data()
    p = V.field.modulus
    entries = []
    for a, (t, h) in enumerate(V.quiver.arrows):
        wh, wt, start, first = w_sizes[h], w_sizes[t], arrow_start[a], len(entries)
        # f_ha ∘ phi_a: row s of phi_a feeds column c of the product
        for s in range(v_sizes[h]):
            for c, cf in phi[a][s].items():
                for r in range(wh):
                    entries.append((start + c * wh + r, vertex_start[h] + s * wh + r, cf))
        on_phi = {e[:2]: k for k, e in enumerate(entries[first:], first)} if t == h else None
        # psi_a ∘ (1⊗f_ta): f_ta's entry (r, s) in tensor copy m links the
        # tensor summand (m, s) of M_a⊗V_ta to (m, r) of M_a⊗W_ta
        for pos, c in enumerate(v_order[a]):
            m, s = divmod(pos, v_sizes[t])
            for r in range(wt):
                j = w_order[a][m * wt + r]
                for r2 in range(wh):
                    cf = psi[a][r2].get(j)
                    if cf is not None:
                        pair = (start + c * wh + r2, vertex_start[t] + s * wt + r)
                        k = on_phi.get(pair) if on_phi else None
                        if k is None:
                            entries.append((*pair, _minus(p, 0, cf)))
                        else:
                            entries[k] = (*pair, _minus(p, entries[k][2], cf))
    return HomComplex(V.field, c0, c1, vertex_start, arrow_start, entries)


def _minus(p: Optional[int], f, g):
    """f − g of two field elements or of two form coefficient tuples; f = 0 negates g."""
    if isinstance(g, tuple):
        return tuple([(x - y) % p if p else x - y for x, y in zip(f or repeat(0), g)])
    return (f - g) % p if p else f - g


def hom_summands(V, W) -> int:
    """How many summands hom_complex visits: the Hom summands, and those of
    each V_i, W_i, M_a⊗V_ta and M_a⊗W_ta, counted without enumerating them."""
    v_sizes, v_order, _ = V.summand_data()
    w_sizes, w_order, _ = W.summand_data()
    return (sum((dv + 1) * (dw + 1) for dv, dw in zip(v_sizes, w_sizes))
            + sum(_length(v_order[a]) * (w_sizes[h] + 1) + _length(w_order[a])
                  for a, (_, h) in enumerate(V.quiver.arrows)))


def _length(order) -> int:
    # len() of a range fails past sys.maxsize; M_a⊗V_ta of a TwistedRep may be longer
    return order.stop if isinstance(order, range) else len(order)


def summand_offsets(twists: list, dim_of, *per_summand: list) -> list:
    """First coordinate of each summand, dim_of(d, *its per_summand items) each, then the total."""
    return list(accumulate(map(dim_of, twists, *per_summand), initial=0))


def connecting_matrix(C: HomComplex, dim_of, times) -> ExactMatrix:
    """The map C0 -> C1 on dim_of(d) coordinates per summand of twist d.

    times(d, cf) lists the diagonal runs (k, k2, n, x) of acting by an
    entry's value cf on a C0 summand of twist d: coordinate k + e of it goes
    to x times coordinate k2 + e of the C1 summand, 0 <= e < n.
    """
    rows, cols = summand_offsets(C.c1, dim_of), summand_offsets(C.c0, dim_of)
    out = MatrixBuilder(C.field, rows[-1], cols[-1])
    c0, put = C.c0, out.add_run
    for i, j, cf in C.entries:
        row, col = rows[i], cols[j]
        if row == rows[i + 1] or col == cols[j + 1]:
            continue        # the block has no rows or no columns
        for k, k2, n, x in times(c0[j], cf):
            put(row + k2, col + k, n, x)
    return out.build()


def delta_matrix(C: HomComplex) -> ExactMatrix:
    """Matrix of (f_i) -> (f_ha ∘ phi_a − psi_a ∘ (1⊗f_ta)), for C = hom_complex(V, W).

    Domain: ⊕_i Hom(V_i, W_i); codomain: ⊕_a Hom(M_a⊗V_ta, W_ha); both in
    column-major block coordinates, each block at C's block start.  Its
    kernel is Hom(V, W) and its cokernel computes Ext^1 over a field.  Every
    summand is one coordinate, so C's entries are its cells.
    """
    out = MatrixBuilder(C.field, len(C.c1), len(C.c0))
    out.add_cells(C.entries)
    return out.build()


def hom_space(V: TwistedRep, W: TwistedRep) -> List[RepMorphism]:
    """Basis of Hom(V, W) = ker(delta_matrix), as verified morphisms."""
    C = hom_complex(V, W)
    morphisms = []
    for vec in kernel_basis(delta_matrix(C)):
        blocks = [
            unvec_matrix(V.field, vec, W.dims[i], V.dims[i], C.vertex_start[i])
            for i in range(V.quiver.n_vertices)
        ]
        f = RepMorphism(V, W, blocks)
        if not f.is_morphism():
            raise CrossCheckError("a kernel vector of delta is not a morphism")
        morphisms.append(f)
    return morphisms


# -- extensions --------------------------------------------------------------

def build_extension(V: TwistedRep, W: TwistedRep,
                    eta: Sequence[ExactMatrix]) -> TwistedRep:
    """The extension 0 -> W -> E -> V -> 0 classified by eta = (eta_a).

    E_i = W_i ⊕ V_i and each M_a-block of the arrow map is
    [[psi_a, eta_a], [0, phi_a]].  The canonical inclusion and projection
    are verified to be morphisms by reading E's arrow maps back.
    """
    V.compatible_with(W)
    if len(eta) != V.quiver.n_arrows:
        raise ValueError("one eta block per arrow required")
    field = V.field
    dims = [W.dims[i] + V.dims[i] for i in range(V.quiver.n_vertices)]
    phi = []
    for a, (t, h) in enumerate(V.quiver.arrows):
        m, wt, vt, wh = V.twist[a], W.dims[t], V.dims[t], W.dims[h]
        if eta[a].shape != (wh, m * vt):
            raise ValueError(f"eta[{a}] has shape {eta[a].shape}, expected {(wh, m * vt)}")
        if eta[a].field != field:
            raise ValueError(f"eta[{a}] is over the wrong field")
        out = MatrixBuilder(field, dims[h], m * dims[t])
        # column j·d + s of a block (copy j of M_a, summand s of its d-dimensional
        # W_t or V_t) goes to column j·(wt + vt) + offset + s of M_a ⊗ E_t:
        # psi_a at offset 0, eta_a and phi_a at wt; phi_a's rows start at wh
        for block, d, row0, offset in ((W.phi[a], wt, 0, 0), (eta[a], vt, 0, wt),
                                       (V.phi[a], vt, wh, wt)):
            for i, col, x in block.nonzeros():
                j, s = divmod(col, d)
                out.add(row0 + i, j * (wt + vt) + offset + s, x)
        phi.append(out.build())
    E = TwistedRep(V.quiver, V.twist, field, dims, phi)
    if not _blocks_read_back(E, V, W):
        raise CrossCheckError("the extension's inclusion or projection is not a morphism")
    return E


def _blocks_read_back(E: TwistedRep, V: TwistedRep, W: TwistedRep) -> bool:
    """True iff the inclusion W -> E and the projection E -> V are morphisms: each cell of
    E.phi[a] outside eta_a's block is the entry of psi_a or phi_a placed there, none missing."""
    matched = 0
    for a, (t, h) in enumerate(V.quiver.arrows):
        wt, vt, wh = W.dims[t], V.dims[t], W.dims[h]
        psi, phi = W.phi[a].sparse_rows(), V.phi[a].sparse_rows()
        for i, row in enumerate(E.phi[a].sparse_rows()):
            for col, x in row.items():
                j, q = divmod(col, wt + vt)
                if q < wt:
                    want = psi[i].get(j * wt + q) if i < wh else None
                elif i >= wh:
                    want = phi[i - wh].get(j * vt + q - wt)
                else:
                    continue        # eta_a's block, which neither map constrains
                if want != x:
                    return False
                matched += 1
    return matched == sum(len(r) for m in W.phi + V.phi for r in m.sparse_rows())


def is_split_extension(E: TwistedRep, V: TwistedRep, W: TwistedRep) -> bool:
    """True iff some morphism s: V -> E satisfies proj ∘ s = id_V.

    Decided exactly, by solving the intertwining equations delta(V, E)·s = 0
    with the coordinates that proj_i ∘ s_i = id fixes pinned: their columns
    leave delta, and the columns pinned to 1 move into the right-hand side.
    """
    V.compatible_with(W)
    E.compatible_with(V)
    for i, e in enumerate(E.dims):
        if e != W.dims[i] + V.dims[i]:
            raise ValueError(f"E has dimension {e} at vertex {i}, not {W.dims[i]} + {V.dims[i]}")
    C = hom_complex(V, E)
    # entry (r, c) of proj_i ∘ s_i is entry (dw + r, c) of s_i, pinned to r == c
    pinned = {C.vertex_start[i] + c * (dw + dv) + dw + r: r == c
              for i, (dw, dv) in enumerate(zip(W.dims, V.dims))
              for c in range(dv) for r in range(dv)}
    free, rhs = [], [0] * len(C.c1)
    for entry in C.entries:
        i, j, cf = entry
        value = pinned.get(j)
        if value is None:
            free.append(entry)
        elif value:
            rhs[i] -= cf
    return solve(delta_matrix(C._replace(entries=free)), rhs) is not None


def ext1_classes(V: TwistedRep, W: TwistedRep) -> List[List[ExactMatrix]]:
    """Representatives eta = (eta_a) of a basis of coker(delta) = Ext^1(V, W)."""
    C = hom_complex(V, W)
    classes = []
    for vec in cokernel_representatives(delta_matrix(C)):
        etas = []
        for a, (t, h) in enumerate(V.quiver.arrows):
            m = V.twist[a]
            etas.append(unvec_matrix(V.field, vec, W.dims[h], m * V.dims[t], C.arrow_start[a]))
        classes.append(etas)
    return classes
