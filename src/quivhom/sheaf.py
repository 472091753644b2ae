"""Twisted quiver sheaves on the projective line, modelled by split bundles.

Bundles are sums of line bundles O(d1) ⊕ ... ⊕ O(dr) with twists sorted
non-increasing; morphisms are matrices of homogeneous binary forms, the
(r, s) entry having degree target[r] − source[s] (the zero form when that
is negative).  A form is the tuple of its coefficients of x^d, x^(d-1)y,
..., y^d, with () the zero form of any degree; a FormMatrix stores its
rows once, as {column: form} dicts, and its one constructor checks each
stored form's length against its degree.  Cohomology is the explicit
two-chart calculus:

  H0(O(d)) has basis the monomials x^k y^(d-k), 0 <= k <= d;
  H1(O(d)) has basis the overlap classes x^(-i) y^(-j), i, j >= 1,
  i + j = -d; multiplying a class by a form and dropping every monomial
  with a non-negative exponent realises the Yoneda product.

Two routes compute Ext between twisted sheaves: the long exact sequence
assembled from the connecting maps on H0 and H1 (ext_quiver_sheaf), and the
hypercohomology of the two-term complex of sheaf Homs computed as a Cech
total complex on the standard two-chart cover with a finite Laurent window
per summand (cech_hyper).  They must agree.  Both read one rep.HomComplex,
the output of the one summand walk rep.hom_complex, whose entries are the
nonzero signed cells (C1 summand, C0 summand, form) of the connecting map,
a loop's phi − psi in one cell: delta0 and delta1 are placed from them by
rep.connecting_matrix, the Cech differentials by a loop of their own, the
horizontal maps from the cells and the vertical differences from its twists
and windows.  So their agreement cross-checks the cohomology models but not
the shared complex; tests/test_connecting_map.py checks that.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import List, Sequence, Tuple

from .linalg import ExactMatrix, FieldSpec, MatrixBuilder, rank
from .quiver import Quiver
from .rep import (HomComplex, IncompatibleError, connecting_matrix, hom_twists,
                  summand_offsets)


def h0_dim(d: int) -> int:
    return max(d + 1, 0)


def h1_dim(d: int) -> int:
    return max(-d - 1, 0)


@dataclass(frozen=True)
class SplitBundle:
    """Sum of line bundles on the projective line, twists sorted non-increasing."""

    twists: Tuple[int, ...]

    def __init__(self, twists):
        twists = tuple(operator.index(d) for d in twists)
        if any(twists[k] < twists[k + 1] for k in range(len(twists) - 1)):
            raise ValueError("twists must be sorted non-increasing")
        object.__setattr__(self, "twists", twists)

    @property
    def rank(self) -> int:
        return len(self.twists)


@dataclass(frozen=True)
class TensorBundle:
    """Sorted form of M ⊗ V with the permutation recording the sort.

    inv_perm[k] is the sorted position of the summand of natural index k
    (M most significant).
    """

    bundle: SplitBundle
    inv_perm: Tuple[int, ...]


def tensor_bundle(m: SplitBundle, v: SplitBundle) -> TensorBundle:
    natural = [dm + dv for dm in m.twists for dv in v.twists]
    order = sorted(range(len(natural)), key=lambda k: -natural[k])
    inv = [0] * len(natural)
    for pos, k in enumerate(order):
        inv[k] = pos
    return TensorBundle(SplitBundle(tuple(natural[k] for k in order)), tuple(inv))


def tensor_bundles(quiver: Quiver, twist_bundles: Sequence[SplitBundle],
                   vertex_bundles: Sequence[SplitBundle]) -> Tuple[TensorBundle, ...]:
    """M_a ⊗ V_ta for every arrow a, in arrow order."""
    return tuple(tensor_bundle(twist_bundles[a], vertex_bundles[t])
                 for a, (t, _) in enumerate(quiver.arrows))


class FormMatrix:
    """Matrix of binary forms between split bundles, entry degrees checked.

    A form of degree d is the tuple of its coefficients of x^d, x^(d-1)y,
    ..., y^d, and () is the zero form of any degree.  Entry (r, s) has degree
    target[r] − source[s].  The rows, one {s: form} dict per target summand
    holding every entry that is not (), are adopted without a copy; all-zero
    tuples such as (0, 0) are kept as read.  Each stored s must lie in
    0..source.rank − 1 and each form have target[r] − source[s] + 1 ≥ 1
    coefficients, or ValueError is raised.  Coefficients are not brought
    into the field: the loader has already done that for each one it read.
    """

    def __init__(self, field: FieldSpec, source: SplitBundle, target: SplitBundle,
                 rows: Sequence[dict]):
        if len(rows) != target.rank:
            raise ValueError(f"expected {target.rank} rows, got {len(rows)}")
        n, src = source.rank, source.twists
        for r, (dr, row) in enumerate(zip(target.twists, rows)):
            for s, f in row.items():
                if not 0 <= s < n:
                    raise ValueError(f"entry ({r},{s}) lies outside {n} columns")
                if not 0 < len(f) == dr - src[s] + 1:
                    raise ValueError(f"entry ({r},{s}) has {len(f)} coefficients, "
                                     f"expected {dr - src[s] + 1} (at least 1)")
        self.field, self.source, self.target, self.rows = field, source, target, tuple(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (self.field == other.field and self.source == other.source
                and self.target == other.target and self.rows == other.rows)


class QSheafP1:
    """A twisted quiver sheaf on the projective line with split-bundle data.

    The loader builds every one in a request and passes _tensors, the
    tensor_bundles(quiver, twist_bundles, vertex_bundles) it has built.
    """

    def __init__(self, quiver: Quiver, field: FieldSpec,
                 twist_bundles: Sequence[SplitBundle],
                 vertex_bundles: Sequence[SplitBundle],
                 phi: Sequence[FormMatrix], _tensors=None):
        if len(twist_bundles) != quiver.n_arrows:
            raise ValueError("one twist bundle per arrow required")
        if len(vertex_bundles) != quiver.n_vertices:
            raise ValueError("one bundle per vertex required")
        if len(phi) != quiver.n_arrows:
            raise ValueError("one form matrix per arrow required")
        self.quiver = quiver
        self.field = field
        self.twist_bundles = tuple(twist_bundles)
        self.vertex_bundles = tuple(vertex_bundles)
        self.tensors = (tensor_bundles(quiver, twist_bundles, vertex_bundles)
                        if _tensors is None else tuple(_tensors))
        for a, (t, h) in enumerate(quiver.arrows):
            f = phi[a]
            if f.field != field:
                raise ValueError(f"phi[{a}] is over the wrong field")
            if f.source != self.tensors[a].bundle or f.target != vertex_bundles[h]:
                raise ValueError(
                    f"phi[{a}] must map {self.tensors[a].bundle} to {vertex_bundles[h]}"
                )
        self.phi = tuple(phi)

    def summand_data(self):
        """Input of hom_complex: summands are the line bundles.

        Returns the per-vertex ranks, each tensor bundle's inv_perm (natural
        index -> sorted position) and the stored rows of each phi_a, {column:
        coefficient tuple} dicts that may hold all-zero forms.
        """
        return ([b.rank for b in self.vertex_bundles], [tb.inv_perm for tb in self.tensors],
                [m.rows for m in self.phi])

    def summand_twists(self):
        """Input of hom_twists: the twists of each vertex and tensor bundle."""
        return ([b.twists for b in self.vertex_bundles],
                [tb.bundle.twists for tb in self.tensors])

    def compatible_with(self, other: "QSheafP1") -> None:
        if (self.quiver != other.quiver or self.field != other.field
                or self.twist_bundles != other.twist_bundles):
            raise IncompatibleError(
                "sheaves live over different quivers, fields or twist bundles"
            )


# -- the connecting maps on H0 and H1 ----------------------------------------
#
# H^q of a Hom summand O(d) has h0_dim(d) or h1_dim(d) coordinates:
# monomials by ascending x-exponent for q = 0, overlap classes
# x^(-i) y^(-j) by ascending i for q = 1.  A monomial of a form is one run.

def _monomial_times_form(d: int, form: tuple) -> List[Tuple[int, int, int, object]]:
    """Products of the H0(O(d)) monomials x^k y^(d-k) with a form.

    The monomial x^k2 y^(...) of the form sends x^k y^(d-k) to x^(k+k2) y^(...).
    """
    return [(0, k2, h0_dim(d), cf) for k2, cf in enumerate(reversed(form)) if cf != 0]


def _class_times_form(d: int, form: tuple) -> List[Tuple[int, int, int, object]]:
    """Yoneda products of the H1(O(d)) classes x^(-i) y^(-j) with a form.

    Class k has i = k + 1 and j = -d - i.  The monomial x^k2 y^(...) of the
    form sends it to class k − k2 of O(d + degree) if both exponents stay
    negative, else to a coboundary, which is dropped: classes k2, k2 + 1, ...
    go to the h1_dim(d + degree) classes of the target in order.
    """
    n = h1_dim(d + len(form) - 1)
    return [(k2, 0, n, cf) for k2, cf in enumerate(reversed(form)) if cf != 0]


def delta0_matrix(C: HomComplex) -> ExactMatrix:
    """Matrix of (f_i) -> (f_ha ∘ phi_a − psi_a ∘ (1⊗f_ta)) on global sections."""
    return connecting_matrix(C, h0_dim, _monomial_times_form)


def delta1_matrix(C: HomComplex) -> ExactMatrix:
    """Matrix of the connecting map on first cohomology, via overlap classes."""
    return connecting_matrix(C, h1_dim, _class_times_form)


# -- Ext via the long exact sequence ------------------------------------------

@dataclass(frozen=True)
class ExtReport:
    """Ext dimensions with the sequence data they were derived from."""

    ext0: int
    ext1: int
    ext2: int
    h0_F: int
    h0_G: int
    h1_F: int
    h1_G: int
    rank_delta0: int
    rank_delta1: int

    @staticmethod
    def of_sequence(delta0_shape: Tuple[int, int], delta1_shape: Tuple[int, int],
                    r0: int, r1: int) -> "ExtReport":
        """Read off 0 -> Ext^0 -> H0(F) -> H0(G) -> Ext^1 -> H1(F) -> H1(G) -> Ext^2 -> 0,
        given the shapes and ranks of its connecting maps delta0 and delta1."""
        (h0_G, h0_F), (h1_G, h1_F) = delta0_shape, delta1_shape
        return ExtReport(
            ext0=h0_F - r0,
            ext1=(h0_G - r0) + (h1_F - r1),
            ext2=h1_G - r1,
            h0_F=h0_F, h0_G=h0_G, h1_F=h1_F, h1_G=h1_G,
            rank_delta0=r0, rank_delta1=r1,
        )


def ext_quiver_sheaf(C: HomComplex) -> ExtReport:
    """Ext dimensions read off the long exact sequence of C = hom_complex(V, W).

    The sequence terminates after Ext^2 because Ext^2 between locally free sheaves
    vanishes on a one-dimensional base.
    """
    d0, d1 = delta0_matrix(C), delta1_matrix(C)
    return ExtReport.of_sequence(d0.shape, d1.shape, rank(d0), rank(d1))


# -- hypercohomology via the two-chart Cech total complex ---------------------
#
# Sections are Laurent polynomials in t = x/y.  A Hom summand of twist d keeps
# the exponents of its own window [-L, U]: a Cech 0-cochain is a chart-0
# section t^0..t^U, then a chart-1 section t^-L..t^d, U+L+2+d chart
# coordinates; a Cech 1-cochain an overlap section t^-L..t^U, U+L+1 overlap
# coordinates.  On C1, U = max(d, 0); on C0, L = max(-d-1, 0); a C0 summand's
# U and a C1 summand's L reach those of every summand an entry links it to.
# This least window keeps the hypercohomology, as it does with every U and L
# raised by one k >= 0 (tests widen it so): the horizontal maps only raise
# exponents, and along every entry U falls and L rises, so {e >= -L} is a
# subcomplex of the untruncated double complex and {e > U} a subcomplex of
# it.  Above U >= d chart 1 is empty and s0 − s1 identifies chart 0 with the
# overlap; below -L <= min(0, d + 1) chart 0 is empty and s0 − s1 identifies
# chart 1 with it.  So both pieces cut away have an isomorphism as vertical
# map, and are acyclic.  The total complex is
#
#   T0 = Cech0(C0)  -d0->  T1 = Cech1(C0) ⊕ Cech0(C1)  -d1->  T2 = Cech1(C1),
#
# for the Hom complex C0 -> C1.  Its horizontal maps are the connecting map
# on the charts and on the overlap: each nonzero monomial of an entry's form
# is three runs, on chart 0 and chart 1 of d0ᵀ and on the overlap of d1,
# placed by _cech_matrices with the vertical differences s0 − s1, one pair
# of runs per summand.
#
# Both differentials are ranked with T1 as their column space: d0 as its
# transpose d0ᵀ, T0 × T1 with columns Cech1(C0) then Cech0(C1), and d1 with
# columns Cech0(C1) then Cech1(C0).  Each row of d0ᵀ, a chart coordinate
# t^e, holds one ±1 of s0 − s1, at overlap exponent e, and leads with it.
# Only the chart-0 and chart-1 rows at one exponent 0 <= e <= d share a
# lead, and one subtraction leaves the second in Cech0(C1) columns only.
# So those columns go by C1 summand twist, ascending, ties by index, each
# summand's block whole: the smallest blocks come first (at the least
# window, one coordinate at d < 0 and 2d + 2 at d >= 0), and eliminating
# the rows left over touches a third of the entries it touched in summand
# order.  Each row of d1, an overlap coordinate t^e, leads with a vertical
# entry in a column of its own, except at d < e < 0: those rows are the H1
# classes.

def cech_dims(V: QSheafP1, W: QSheafP1) -> Tuple[int, int, int]:
    """Twist-only upper bound on the dimensions T0, T1, T2 of cech_hyper's total complex: those
    at the uniform window [-T, T] around every summand's, T = max |twist| + 2."""
    c0, c1, _, _ = hom_twists(V, W)
    overlap = 2 * (max(map(abs, chain(c0, c1)), default=0) + 2) + 1
    charts0, charts1 = (sum(overlap + 1 + d for d in twists) for twists in (c0, c1))
    return charts0, len(c0) * overlap + charts1, len(c1) * overlap


def _cech_windows(C: HomComplex):
    """(U, L), two lists, for the summands of C0, then for those of C1."""
    u0, l0 = [max(d, 0) for d in C.c0], [max(-d - 1, 0) for d in C.c0]
    u1, l1 = [max(d, 0) for d in C.c1], [max(-d - 1, 0) for d in C.c1]
    for i, j, _ in C.entries:
        u0[j], l1[i] = max(u0[j], u1[i]), max(l1[i], l0[j])
    return (u0, l0), (u1, l1)


def _cech_matrices(C: HomComplex):
    """d0ᵀ and d1, in the column orders above, each placed by one builder."""
    (u0, l0), (u1, l1) = _cech_windows(C)
    charts0 = summand_offsets(C.c0, lambda d, u, l: u + l + 2 + d, u0, l0)
    overlaps0, overlaps1 = (summand_offsets(twists, lambda d, u, l: u + l + 1, us, ls)
                            for twists, us, ls in ((C.c0, u0, l0), (C.c1, u1, l1)))
    charts1, c1_charts = [0] * len(C.c1), 0        # by twist, ties by index
    for i in sorted(range(len(C.c1)), key=C.c1.__getitem__):
        charts1[i], c1_charts = c1_charts, c1_charts + u1[i] + l1[i] + 2 + C.c1[i]
    c0_overlap = overlaps0[-1]
    d0t = MatrixBuilder(C.field, charts0[-1], c0_overlap + c1_charts)
    d1 = MatrixBuilder(C.field, overlaps1[-1], c1_charts + c0_overlap)
    put0, put1 = d0t.add_run, d1.add_run
    # s0 − s1: t^0..t^U of chart 0 and t^-L..t^d of chart 1 to t^-L..t^U
    for d, u, l, chart, over in zip(C.c0, u0, l0, charts0, overlaps0):
        put0(chart, over + l, u + 1, 1)
        put0(chart + u + 1, over, l + d + 1, -1)
    for d, u, l, chart, over in zip(C.c1, u1, l1, charts1, overlaps1):
        put1(over + l, chart, u + 1, 1)
        put1(over, chart + u + 1, l + d + 1, -1)
    # the monomial t^k2 of a form sends t^e of summand j to t^(e+k2) of
    # summand i: chart 0 and the overlap keep e + k2 <= U_i, chart 1 every e
    for i, j, form in C.entries:
        u, l = u1[i], l0[j]
        row0, col0 = charts0[j], c0_overlap + charts1[i]
        row1, col1, n1 = row0 + u0[j] + 1, col0 + u + 1 + l1[i] - l, l + C.c0[j] + 1
        row2, col2 = overlaps1[i] + l1[i] - l, c1_charts + overlaps0[j]
        for k2, cf in enumerate(reversed(form)):
            if cf != 0:
                put0(row0, col0 + k2, u + 1 - k2, cf)        # chart 0
                put0(row1, col1 + k2, n1, cf)                # chart 1
                put1(row2 + k2, col2, u + l + 1 - k2, -cf)   # overlap, with the sign of d1
    return d0t.build(), d1.build()


def cech_hyper(C: HomComplex) -> Tuple[int, int, int]:
    """Hypercohomology dimensions of the two-term complex C = hom_complex(V, W).

    Computed from the total complex of the Cech double complex on the
    two-chart cover, each Hom summand's Laurent exponents truncated to its
    own least window [-L, U] (see above).
    """
    d0t, d1 = _cech_matrices(C)
    (t0, t1), t2 = d0t.shape, d1.nrows
    r0, r1 = rank(d0t), rank(d1)
    return t0 - r0, (t1 - r1) - r0, t2 - r1
