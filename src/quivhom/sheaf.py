"""Twisted quiver sheaves on the projective line, modelled by split bundles.

Bundles are sums of line bundles O(d1) ⊕ ... ⊕ O(dr) with twists sorted
non-increasing; morphisms are matrices of homogeneous binary forms, the
(r, s) entry having degree target[r] − source[s] (the zero form when that
is negative).  Cohomology is the explicit two-chart calculus:

  H0(O(d)) has basis the monomials x^k y^(d-k), 0 <= k <= d;
  H1(O(d)) has basis the overlap classes x^(-i) y^(-j), i, j >= 1,
  i + j = -d; multiplying a class by a form and dropping every monomial
  with a non-negative exponent realises the Yoneda product.

Two routes compute Ext between twisted sheaves: the long exact sequence
assembled from the connecting maps on H0 and H1 (ext_quiver_sheaf), and the
hypercohomology of the two-term complex of sheaf Homs computed as a Cech
total complex on the standard two-chart cover with a finite Laurent window
(cech_hyper).  They must agree.  Both read their coordinates from one
layout, rep.hom_layout: a Hom summand O(d) takes h0_dim(d) or h1_dim(d)
coordinates in delta0 and delta1, and its chart windows in the Cech
complex.  Both read the summand walk rep.connecting_terms, which also
builds the vector-mode delta; delta0 and delta1 come from the same
assembler, rep.connecting_matrix.  So their agreement cross-checks the
cohomology models but not the layout or the walk;
tests/test_connecting_map.py checks those on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .linalg import ExactMatrix, FieldSpec, MatrixBuilder, rank
from .quiver import Quiver
from .rep import connecting_matrix, connecting_terms, hom_layout, one_coordinate


def h0_dim(d: int) -> int:
    return max(d + 1, 0)


def h1_dim(d: int) -> int:
    return max(-d - 1, 0)


@dataclass(frozen=True)
class SplitBundle:
    """Sum of line bundles on the projective line, twists sorted non-increasing."""

    twists: Tuple[int, ...]

    def __init__(self, twists):
        twists = tuple(int(d) for d in twists)
        if any(twists[k] < twists[k + 1] for k in range(len(twists) - 1)):
            raise ValueError("twists must be sorted non-increasing")
        object.__setattr__(self, "twists", twists)

    @staticmethod
    def of(twists) -> "SplitBundle":
        return SplitBundle(tuple(sorted((int(d) for d in twists), reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.twists)


@dataclass(frozen=True)
class TensorBundle:
    """Sorted form of M ⊗ V with the permutation recording the sort.

    perm[k] is the natural index (M most significant) of the k-th sorted
    summand; inv_perm inverts it.
    """

    bundle: SplitBundle
    perm: Tuple[int, ...]
    inv_perm: Tuple[int, ...]


def tensor_bundle(m: SplitBundle, v: SplitBundle) -> TensorBundle:
    natural = [dm + dv for dm in m.twists for dv in v.twists]
    order = sorted(range(len(natural)), key=lambda k: -natural[k])
    inv = [0] * len(natural)
    for pos, k in enumerate(order):
        inv[k] = pos
    return TensorBundle(SplitBundle(tuple(natural[k] for k in order)),
                        tuple(order), tuple(inv))


def tensor_bundles(quiver: Quiver, twist_bundles: Sequence[SplitBundle],
                   vertex_bundles: Sequence[SplitBundle]) -> Tuple[TensorBundle, ...]:
    """M_a ⊗ V_ta for every arrow a, in arrow order."""
    return tuple(tensor_bundle(twist_bundles[a], vertex_bundles[t])
                 for a, (t, _) in enumerate(quiver.arrows))


@dataclass(frozen=True)
class BinForm:
    """Homogeneous binary form; coeffs list x^d, x^(d-1)y, ..., y^d.

    degree -1 with no coefficients encodes the zero form.
    """

    degree: int
    coeffs: Tuple

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if degree < 0:
            if coeffs:
                raise ValueError("the zero form carries no coefficients")
            degree = -1
        elif len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def zero() -> "BinForm":
        return BinForm(-1, ())

    @staticmethod
    def monomial(field: FieldSpec, degree: int, x_exp: int) -> "BinForm":
        if not 0 <= x_exp <= degree:
            raise ValueError("monomial exponent out of range")
        coeffs = [field.zero()] * (degree + 1)
        coeffs[degree - x_exp] = field.one()
        return BinForm(degree, coeffs)

    def is_zero(self) -> bool:
        return self.degree < 0 or all(c == 0 for c in self.coeffs)

    def coefficient(self, x_exp: int):
        """Coefficient of x^x_exp y^(degree - x_exp); zero outside range."""
        if self.degree < 0 or not 0 <= x_exp <= self.degree:
            return 0
        return self.coeffs[self.degree - x_exp]


class FormMatrix:
    """Matrix of binary forms between split bundles, entry degrees enforced.

    BinForm.zero() may stand for the zero form of any degree; its
    coefficients are never spelled out.
    """

    def __init__(self, field: FieldSpec, source: SplitBundle, target: SplitBundle,
                 entries: Sequence[Sequence[BinForm]]):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != target.rank or any(len(r) != source.rank for r in entries):
            raise ValueError(
                f"entries do not form a {target.rank}x{source.rank} matrix"
            )
        norm = []
        for r in range(target.rank):
            row = []
            for s in range(source.rank):
                want = target.twists[r] - source.twists[s]
                f = entries[r][s]
                if want < 0:
                    if not f.is_zero():
                        raise ValueError(
                            f"entry ({r},{s}) must vanish (degree {want})"
                        )
                    f = BinForm.zero()
                elif f.degree not in (want, -1):
                    raise ValueError(
                        f"entry ({r},{s}) has degree {f.degree}, expected {want}"
                    )
                row.append(f)
            norm.append(tuple(row))
        self.field = field
        self.source = source
        self.target = target
        self.entries = tuple(norm)

    @staticmethod
    def zero(field: FieldSpec, source: SplitBundle, target: SplitBundle) -> "FormMatrix":
        rows = [[BinForm.zero()] * source.rank for _ in range(target.rank)]
        return FormMatrix(field, source, target, rows)

    def entry(self, r: int, s: int) -> BinForm:
        return self.entries[r][s]

    def scale(self, c) -> "FormMatrix":
        c = self.field.element(c)
        rows = []
        for row in self.entries:
            out = []
            for f in row:
                if f.degree < 0:
                    out.append(f)
                else:
                    out.append(BinForm(f.degree, [self.field.element(c * x) if self.field.is_prime_field else c * x
                                                  for x in f.coeffs]))
            rows.append(out)
        return FormMatrix(self.field, self.source, self.target, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (self.field == other.field and self.source == other.source
                and self.target == other.target and self.entries == other.entries)


class QSheafP1:
    """A twisted quiver sheaf on the projective line with split-bundle data."""

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
        # _tensors: the caller's tensor_bundles(quiver, twist_bundles, vertex_bundles)
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

    @staticmethod
    def zero_maps(quiver: Quiver, field: FieldSpec,
                  twist_bundles: Sequence[SplitBundle],
                  vertex_bundles: Sequence[SplitBundle]) -> "QSheafP1":
        tensors = tensor_bundles(quiver, twist_bundles, vertex_bundles)
        phi = [FormMatrix.zero(field, tb.bundle, vertex_bundles[h])
               for tb, (_, h) in zip(tensors, quiver.arrows)]
        return QSheafP1(quiver, field, twist_bundles, vertex_bundles, phi, _tensors=tensors)

    def summand_data(self):
        """Input of connecting_terms: summands are the line bundles.

        Returns the per-vertex ranks, each tensor bundle's inv_perm (natural
        index -> sorted position) and the rows of each phi_a as {column:
        nonzero form} dicts.
        """
        ranks = [b.rank for b in self.vertex_bundles]
        order = [tb.inv_perm for tb in self.tensors]
        rows = [[{c: f for c, f in enumerate(row) if not f.is_zero()} for row in m.entries]
                for m in self.phi]
        return ranks, order, rows

    def summand_twists(self):
        """Input of hom_layout: the twists of each vertex and tensor bundle."""
        return ([b.twists for b in self.vertex_bundles],
                [tb.bundle.twists for tb in self.tensors])

    def compatible_with(self, other: "QSheafP1") -> None:
        if (self.quiver != other.quiver or self.field != other.field
                or self.twist_bundles != other.twist_bundles):
            raise ValueError(
                "sheaves live over different quivers, fields or twist bundles"
            )

    def scale_forms(self, c) -> "QSheafP1":
        return QSheafP1(self.quiver, self.field, self.twist_bundles, self.vertex_bundles,
                        [f.scale(c) for f in self.phi], _tensors=self.tensors)

    def shift_vertex_twists(self, t: int) -> "QSheafP1":
        """Twist every vertex bundle by O(t); the form data is unchanged."""
        shifted = [SplitBundle(tuple(d + t for d in b.twists))
                   for b in self.vertex_bundles]
        tensors = tensor_bundles(self.quiver, self.twist_bundles, shifted)
        phi = [FormMatrix(self.field, tb.bundle, shifted[h], f.entries)
               for tb, (_, h), f in zip(tensors, self.quiver.arrows, self.phi)]
        return QSheafP1(self.quiver, self.field, self.twist_bundles, shifted, phi,
                        _tensors=tensors)


def sheaf_hom_ext_dims(e: SplitBundle, f: SplitBundle) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) between split bundles on the projective line."""
    hom = sum(h0_dim(df - de) for de in e.twists for df in f.twists)
    ext = sum(h1_dim(df - de) for de in e.twists for df in f.twists)
    return hom, ext


def _euler_pair(e: SplitBundle, f: SplitBundle) -> int:
    return sum(df - de + 1 for de in e.twists for df in f.twists)


# -- the connecting maps on H0 and H1 ----------------------------------------
#
# H^q of a Hom summand O(d) has h0_dim(d) or h1_dim(d) coordinates in
# hom_layout: monomials by ascending x-exponent for q = 0, overlap classes
# x^(-i) y^(-j) by ascending i for q = 1.

def _monomial_times_form(d: int, form: BinForm) -> List[Tuple[int, int, object]]:
    """Products of the H0(O(d)) monomials x^k y^(d-k) with a form.

    Returns (k, x-exponent, coefficient) for the nonzero monomials of each
    product.
    """
    terms = [(k2, cf) for k2, cf in enumerate(reversed(form.coeffs)) if cf != 0]
    return [(k, k + k2, cf) for k in range(h0_dim(d)) for k2, cf in terms]


def _class_times_form(d: int, form: BinForm) -> List[Tuple[int, int, object]]:
    """Yoneda products of the H1(O(d)) classes x^(-i) y^(-j) with a form.

    Class k has i = k + 1 and j = -d - i.  Returns (k, k', coefficient) for
    the surviving overlap classes x^(-(k'+1)) y^(...); monomials with a
    non-negative exponent are coboundaries and are dropped.
    """
    # x^(-i+k2) y^(-j+degree-k2) survives when both exponents stay negative
    return [(k, k - k2, cf) for k in range(h1_dim(d))
            for k2, cf in enumerate(reversed(form.coeffs))
            if cf != 0 and form.degree + d + k + 2 <= k2 <= k]


def delta0_matrix(V: QSheafP1, W: QSheafP1) -> ExactMatrix:
    """Matrix of (f_i) -> (f_ha ∘ phi_a − psi_a ∘ (1⊗f_ta)) on global sections."""
    return connecting_matrix(V, W, h0_dim, _monomial_times_form)


def delta1_matrix(V: QSheafP1, W: QSheafP1) -> ExactMatrix:
    """Matrix of the connecting map on first cohomology, via overlap classes."""
    return connecting_matrix(V, W, h1_dim, _class_times_form)


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


def ext_quiver_sheaf(V: QSheafP1, W: QSheafP1) -> ExtReport:
    """Ext dimensions read off the long exact sequence.

    The sequence terminates after Ext^2 because Ext^2 between locally free
    sheaves vanishes on a one-dimensional base.
    """
    V.compatible_with(W)
    d0 = delta0_matrix(V, W)
    d1 = delta1_matrix(V, W)
    h0_F, h1_F = d0.ncols, d1.ncols
    h0_G, h1_G = d0.nrows, d1.nrows
    r0, r1 = rank(d0), rank(d1)
    return ExtReport(
        ext0=h0_F - r0,
        ext1=(h0_G - r0) + (h1_F - r1),
        ext2=h1_G - r1,
        h0_F=h0_F, h0_G=h0_G, h1_F=h1_F, h1_G=h1_G,
        rank_delta0=r0, rank_delta1=r1,
    )


def euler_characteristic(V: QSheafP1, W: QSheafP1) -> int:
    r = ext_quiver_sheaf(V, W)
    return r.ext0 - r.ext1 + r.ext2


def euler_check(V: QSheafP1, W: QSheafP1) -> bool:
    """Alternating Ext sum against the vertexwise/arrowwise Euler pairings."""
    lhs = euler_characteristic(V, W)
    rhs = sum(
        _euler_pair(V.vertex_bundles[i], W.vertex_bundles[i])
        for i in range(V.quiver.n_vertices)
    ) - sum(
        _euler_pair(V.tensors[a].bundle, W.vertex_bundles[h])
        for a, (_, h) in enumerate(V.quiver.arrows)
    )
    return lhs == rhs


# -- hypercohomology via the two-chart Cech total complex ---------------------
#
# Sections are Laurent polynomials in t = x/y, truncated to a window (lo, hi)
# of exponents.  On O(d), |d| <= T − 2, a Cech 0-cochain is a chart-0
# section, (0, T), then a chart-1 section, (-T, d); a Cech 1-cochain is an
# overlap section, (-T, T).
#
# The rows of d0 are Cech1(C0), then Cech0(C1).  Each Cech1(C0) row, s0 − s1
# at one overlap exponent e, is at most a 1 and a −1 and leads in a column of
# its own (chart 0 for e >= 0, else chart 1), so rank takes it as a pivot with
# no subtraction and reduces the Cech0(C1) rows against these to H0 columns.
# The columns of d1 stay Cech0(C1), Cech1(C0), so that its vertical entries lead.

def _charts(d: int, window: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    return (0, window), (-window, d)


def _summands(side: list) -> list:
    """The (first coordinate, twist) pairs of one side of a layout, in order."""
    return [x for block in side for row in block for x in row]


def _cech_layouts(V: QSheafP1, W: QSheafP1, extra_window: int):
    """The window T, the Cech0 coordinates of the Hom summands, the layout
    with one coordinate per summand, and the dimensions T0, T1, T2.

    The Cech1 coordinates of the summand at position k of the unit layout
    start at k·(2T+1).  The total complex is T0 = Cech0(C0),
    T1 = Cech0(C1) ⊕ Cech1(C0), T2 = Cech1(C1), where C0 is the vertex
    side of the layouts and C1 the arrow side.
    """
    unit = hom_layout(V, W, one_coordinate)
    window = max((abs(d) for _, d in _summands(unit.vertex) + _summands(unit.arrow)),
                 default=0) + 2 + extra_window
    lay0 = hom_layout(V, W, lambda d: 2 * window + 2 + d)
    n1 = 2 * window + 1
    dims = (lay0.vertex_start[-1], lay0.arrow_start[-1] + n1 * unit.vertex_start[-1],
            n1 * unit.arrow_start[-1])
    return window, lay0, unit, dims


def cech_dims(V: QSheafP1, W: QSheafP1, extra_window: int = 0) -> Tuple[int, int, int]:
    """Dimensions T0, T1, T2 of the Cech total complex cech_hyper builds."""
    return _cech_layouts(V, W, extra_window)[3]


def _add_form_mul(out: MatrixBuilder, row0: int, col0: int, form: BinForm,
                  src: Tuple[int, int], dst: Tuple[int, int], sign: int):
    """Multiplication by a form between Laurent windows (t-exponent shifts)."""
    for k, cf in enumerate(reversed(form.coeffs)):
        if cf != 0:
            # t^e goes to t^(e+k); keep the e with both ends inside their windows
            for e in range(max(src[0], dst[0] - k), min(src[1], dst[1] - k) + 1):
                out.add(row0 + e + k - dst[0], col0 + e - src[0], sign * cf)


def _cech_matrices(V: QSheafP1, W: QSheafP1, extra_window: int):
    """The differentials d0: T0 -> T1 and d1: T1 -> T2 of the Cech total complex."""
    window, lay0, unit, (t0, t1, t2) = _cech_layouts(V, W, extra_window)
    overlap, n1 = (-window, window), 2 * window + 1
    c1_start = lay0.arrow_start[-1]   # where Cech1(C0) starts in the columns of d1
    h_start = t1 - c1_start           # where Cech0(C1) starts in the rows of d0
    d0 = MatrixBuilder(V.field, t1, t0)
    d1 = MatrixBuilder(V.field, t2, t1)
    for a, i, (s, r), (c, r2), form, sign in connecting_terms(V, W):
        col, d = lay0.vertex[i][s][r]
        row, d2 = lay0.arrow[a][c][r2]
        # horizontal map on chart 0 and chart 1 sections
        (src0, src1), (dst0, dst1) = _charts(d, window), _charts(d2, window)
        _add_form_mul(d0, h_start + row, col, form, src0, dst0, sign)
        _add_form_mul(d0, h_start + row + window + 1, col + window + 1, form, src1, dst1, sign)
        # minus the horizontal map on overlap sections of C0
        _add_form_mul(d1, n1 * unit.arrow[a][c][r2][0],
                      c1_start + n1 * unit.vertex[i][s][r][0], form, overlap, overlap, -sign)
    # vertical Cech differences (s0, s1) -> s0 − s1 of C0, and of C1 on the
    # Cech0(C1) block: the form 1 from each chart into the overlap
    one = BinForm(0, [V.field.one()])
    for out, q0, q1 in ((d0, lay0.vertex, unit.vertex), (d1, lay0.arrow, unit.arrow)):
        for (col, d), (k, _) in zip(_summands(q0), _summands(q1)):
            src0, src1 = _charts(d, window)
            _add_form_mul(out, n1 * k, col, one, src0, overlap, 1)
            _add_form_mul(out, n1 * k, col + window + 1, one, src1, overlap, -1)
    return d0.build(), d1.build()


def cech_hyper(V: QSheafP1, W: QSheafP1, extra_window: int = 0) -> Tuple[int, int, int]:
    """Hypercohomology dimensions of the two-term complex of sheaf Homs.

    Computed from the total complex of the Cech double complex on the
    two-chart cover, with Laurent exponents truncated to [-T, T] where
    T = max |twist| over all Hom-bundle summands + 2 + extra_window.
    Enlarging the window never changes the result.
    """
    V.compatible_with(W)
    d0, d1 = _cech_matrices(V, W, extra_window)
    (t1, t0), t2 = d0.shape, d1.nrows
    r0, r1 = rank(d0), rank(d1)
    return t0 - r0, (t1 - r1) - r0, t2 - r1
