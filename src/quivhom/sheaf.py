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
(cech_hyper).  They must agree.  One summand walk, rep.connecting_terms,
assembles delta0, delta1 and the Cech horizontal maps, as it does the
vector-mode delta and split system.  So their agreement cross-checks the
cohomology models but not the walk; tests/test_connecting_map.py checks
the walk column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .linalg import ExactMatrix, FieldSpec, MatrixBuilder, rank
from .quiver import Quiver
from .rep import connecting_terms


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
    """Matrix of binary forms between split bundles, entry degrees enforced."""

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
                elif f.is_zero() and f.degree < 0:
                    f = BinForm(want, [field.zero()] * (want + 1))
                elif f.degree != want:
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
                 phi: Sequence[FormMatrix]):
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
        self.tensors = tuple(
            tensor_bundle(twist_bundles[a], vertex_bundles[t])
            for a, (t, _) in enumerate(quiver.arrows)
        )
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
        phi = []
        for a, (t, h) in enumerate(quiver.arrows):
            src = tensor_bundle(twist_bundles[a], vertex_bundles[t]).bundle
            phi.append(FormMatrix.zero(field, src, vertex_bundles[h]))
        return QSheafP1(quiver, field, twist_bundles, vertex_bundles, phi)

    def summand_data(self):
        """Input of connecting_terms: summands are the line bundles.

        Returns the per-vertex ranks, each tensor bundle's inv_perm (natural
        index -> sorted position) and the rows of each phi_a with None for
        zero forms.
        """
        ranks = [b.rank for b in self.vertex_bundles]
        order = [tb.inv_perm for tb in self.tensors]
        rows = [[[None if f.is_zero() else f for f in row] for row in m.entries]
                for m in self.phi]
        return ranks, order, rows

    def compatible_with(self, other: "QSheafP1") -> None:
        if (self.quiver != other.quiver or self.field != other.field
                or self.twist_bundles != other.twist_bundles):
            raise ValueError(
                "sheaves live over different quivers, fields or twist bundles"
            )

    def scale_forms(self, c) -> "QSheafP1":
        return QSheafP1(self.quiver, self.field, self.twist_bundles,
                        self.vertex_bundles, [f.scale(c) for f in self.phi])

    def shift_vertex_twists(self, t: int) -> "QSheafP1":
        """Twist every vertex bundle by O(t); the form data is unchanged."""
        shifted = [SplitBundle(tuple(d + t for d in b.twists))
                   for b in self.vertex_bundles]
        phi = []
        for a, (ta, ha) in enumerate(self.quiver.arrows):
            src = tensor_bundle(self.twist_bundles[a], shifted[ta]).bundle
            phi.append(FormMatrix(self.field, src, shifted[ha],
                                  self.phi[a].entries))
        return QSheafP1(self.quiver, self.field, self.twist_bundles, shifted, phi)


def sheaf_hom_ext_dims(e: SplitBundle, f: SplitBundle) -> Tuple[int, int]:
    """(dim Hom, dim Ext^1) between split bundles on the projective line."""
    hom = sum(h0_dim(df - de) for de in e.twists for df in f.twists)
    ext = sum(h1_dim(df - de) for de in e.twists for df in f.twists)
    return hom, ext


def _euler_pair(e: SplitBundle, f: SplitBundle) -> int:
    return sum(df - de + 1 for de in e.twists for df in f.twists)


# -- coordinate layouts -------------------------------------------------------

class _HomLayout:
    """Coordinates of H^q of the Hom bundle between two split bundles.

    Entry blocks are ordered source index (column) first, then target index,
    then the H^q basis of the line bundle O(target[r] − source[s]):
    monomials by ascending x-exponent for q = 0, overlap classes
    x^(-i) y^(-j) by ascending i for q = 1.
    """

    def __init__(self, source: SplitBundle, target: SplitBundle, q: int):
        dim_of = h0_dim if q == 0 else h1_dim
        self.offsets: Dict[Tuple[int, int], int] = {}
        pos = 0
        for s in range(source.rank):
            for r in range(target.rank):
                self.offsets[(s, r)] = pos
                pos += dim_of(target.twists[r] - source.twists[s])
        self.total = pos

    def coord(self, s: int, r: int, k: int) -> int:
        return self.offsets[(s, r)] + k


def _vertex_layouts(V: QSheafP1, W: QSheafP1, q: int):
    layouts = []
    offsets = []
    pos = 0
    for i in range(V.quiver.n_vertices):
        lay = _HomLayout(V.vertex_bundles[i], W.vertex_bundles[i], q)
        layouts.append(lay)
        offsets.append(pos)
        pos += lay.total
    return layouts, offsets, pos


def _arrow_layouts(V: QSheafP1, W: QSheafP1, q: int):
    layouts = []
    offsets = []
    pos = 0
    for a, (t, h) in enumerate(V.quiver.arrows):
        lay = _HomLayout(V.tensors[a].bundle, W.vertex_bundles[h], q)
        layouts.append(lay)
        offsets.append(pos)
        pos += lay.total
    return layouts, offsets, pos


# -- the connecting maps on H0 and H1 ----------------------------------------

def _monomial_times_form(k: int, src_deg: int, form: BinForm) -> List[Tuple[int, object]]:
    """Product of the monomial x^k y^(src_deg-k) with a form.

    Returns (x-exponent, coefficient) for the nonzero monomials of the product.
    """
    return [(k + k2, cf) for k2, cf in enumerate(reversed(form.coeffs)) if cf != 0]


def _class_times_form(k: int, src_deg: int, form: BinForm) -> List[Tuple[int, object]]:
    """Yoneda product of the class x^(-i) y^(-j) (i = k+1, i+j = -src_deg) with a form.

    Returns (k', coefficient) for the surviving overlap classes
    x^(-(k'+1)) y^(...); monomials with a non-negative exponent are
    coboundaries and are dropped.
    """
    i_exp, j_exp = k + 1, -src_deg - k - 1
    out = []
    for k2 in range(form.degree + 1):
        cf = form.coefficient(k2)
        if cf != 0 and i_exp - k2 >= 1 and j_exp - (form.degree - k2) >= 1:
            out.append((k - k2, cf))
    return out


def _cohomology_delta(V: QSheafP1, W: QSheafP1, q: int, times_form) -> ExactMatrix:
    """The connecting map on H^q, a form acting on H^q basis elements by times_form."""
    V.compatible_with(W)
    dom_lay, dom_off, dom_dim = _vertex_layouts(V, W, q)
    cod_lay, cod_off, cod_dim = _arrow_layouts(V, W, q)
    dim_of = h0_dim if q == 0 else h1_dim
    out = MatrixBuilder(V.field, cod_dim, dom_dim)
    for a, i, (s, r), (c, r2), form, sign in connecting_terms(V, W):
        d = W.vertex_bundles[i].twists[r] - V.vertex_bundles[i].twists[s]
        base = cod_off[a] + cod_lay[a].offsets[(c, r2)]
        for k in range(dim_of(d)):
            col = dom_off[i] + dom_lay[i].coord(s, r, k)
            for k2, cf in times_form(k, d, form):
                out.add(base + k2, col, sign * cf)
    return out.build()


def delta0_matrix(V: QSheafP1, W: QSheafP1) -> ExactMatrix:
    """Matrix of (f_i) -> (f_ha ∘ phi_a − psi_a ∘ (1⊗f_ta)) on global sections."""
    return _cohomology_delta(V, W, 0, _monomial_times_form)


def delta1_matrix(V: QSheafP1, W: QSheafP1) -> ExactMatrix:
    """Matrix of the connecting map on first cohomology, via overlap classes."""
    return _cohomology_delta(V, W, 1, _class_times_form)


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

class _Window:
    """Laurent monomials t^e, lo <= e <= hi, in the first chart trivialisation."""

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.dim = max(hi - lo + 1, 0)


class _CechLevel:
    """Chart and overlap windows for a list of line-bundle summands."""

    def __init__(self, twists: List[int], window: int):
        self.twists = twists
        self.chart0 = [_Window(0, window) for _ in twists]
        self.chart1 = [_Window(-window, min(d, window)) for d in twists]
        self.overlap = [_Window(-window, window) for _ in twists]
        self.q0_offsets = []
        pos = 0
        for k in range(len(twists)):
            self.q0_offsets.append(pos)
            pos += self.chart0[k].dim + self.chart1[k].dim
        self.q0_total = pos
        self.q1_offsets = []
        pos = 0
        for k in range(len(twists)):
            self.q1_offsets.append(pos)
            pos += self.overlap[k].dim
        self.q1_total = pos

    def chart0_offset(self, k: int) -> int:
        return self.q0_offsets[k]

    def chart1_offset(self, k: int) -> int:
        return self.q0_offsets[k] + self.chart0[k].dim


def _add_form_mul(out: MatrixBuilder, row0: int, col0: int, form: BinForm,
                  src: _Window, dst: _Window, sign: int):
    """Multiplication by a form between Laurent windows (t-exponent shifts)."""
    for k in range(form.degree + 1):
        cf = form.coefficient(k)
        if cf == 0:
            continue
        if sign < 0:
            cf = -cf
        for e in range(src.lo, src.hi + 1):
            e2 = e + k
            if dst.lo <= e2 <= dst.hi:
                out.add(row0 + e2 - dst.lo, col0 + e - src.lo, cf)


def _add_cech(out: MatrixBuilder, row0: int, col0: int, level: _CechLevel,
              sign: int, field: FieldSpec):
    """The difference map (s0, s1) -> s0 − s1 into the overlap windows."""
    one = field.one()
    for k in range(len(level.twists)):
        ov = level.overlap[k]
        c0 = level.chart0[k]
        base_r = row0 + level.q1_offsets[k]
        base_c = col0 + level.chart0_offset(k)
        for e in range(c0.lo, c0.hi + 1):
            out.add(base_r + e - ov.lo, base_c + e - c0.lo, sign * one)
        c1 = level.chart1[k]
        base_c = col0 + level.chart1_offset(k)
        for e in range(c1.lo, c1.hi + 1):
            out.add(base_r + e - ov.lo, base_c + e - c1.lo, -sign * one)


def cech_hyper(V: QSheafP1, W: QSheafP1, extra_window: int = 0) -> Tuple[int, int, int]:
    """Hypercohomology dimensions of the two-term complex of sheaf Homs.

    Computed from the total complex of the Cech double complex on the
    two-chart cover, with Laurent exponents truncated to [-T, T] where
    T = max |twist| over all Hom-bundle summands + 2 + extra_window.
    Enlarging the window never changes the result.
    """
    V.compatible_with(W)
    c0_twists: List[int] = []
    c0_index: Dict[Tuple[int, int, int], int] = {}
    for i in range(V.quiver.n_vertices):
        vb, wb = V.vertex_bundles[i], W.vertex_bundles[i]
        for s in range(vb.rank):
            for r in range(wb.rank):
                c0_index[(i, s, r)] = len(c0_twists)
                c0_twists.append(wb.twists[r] - vb.twists[s])
    c1_twists: List[int] = []
    c1_index: Dict[Tuple[int, int, int], int] = {}
    for a, (t, h) in enumerate(V.quiver.arrows):
        tb, wb = V.tensors[a].bundle, W.vertex_bundles[h]
        for c in range(tb.rank):
            for r in range(wb.rank):
                c1_index[(a, c, r)] = len(c1_twists)
                c1_twists.append(wb.twists[r] - tb.twists[c])

    all_twists = c0_twists + c1_twists
    window = (max((abs(d) for d in all_twists), default=0)) + 2 + extra_window
    lev0 = _CechLevel(c0_twists, window)
    lev1 = _CechLevel(c1_twists, window)

    # total complex: T0 = Cech0(C0); T1 = Cech0(C1) ⊕ Cech1(C0); T2 = Cech1(C1)
    t0 = lev0.q0_total
    t1 = lev1.q0_total + lev0.q1_total
    t2 = lev1.q1_total

    d0 = MatrixBuilder(V.field, t1, t0)
    d1 = MatrixBuilder(V.field, t2, t1)
    for a, i, (s, r), (c, r2), form, sign in connecting_terms(V, W):
        src, dst = c0_index[(i, s, r)], c1_index[(a, c, r2)]
        # horizontal map on chart 0 and chart 1 sections
        _add_form_mul(d0, lev1.chart0_offset(dst), lev0.chart0_offset(src), form,
                      lev0.chart0[src], lev1.chart0[dst], sign)
        _add_form_mul(d0, lev1.chart1_offset(dst), lev0.chart1_offset(src), form,
                      lev0.chart1[src], lev1.chart1[dst], sign)
        # minus the horizontal map on overlap sections of C0
        _add_form_mul(d1, lev1.q1_offsets[dst], lev1.q0_total + lev0.q1_offsets[src],
                      form, lev0.overlap[src], lev1.overlap[dst], -sign)
    # vertical Cech differences of C0, and of C1 on the Cech0(C1) block
    _add_cech(d0, lev1.q0_total, 0, lev0, 1, V.field)
    _add_cech(d1, 0, 0, lev1, 1, V.field)
    d0, d1 = d0.build(), d1.build()

    r0, r1 = rank(d0), rank(d1)
    hh0 = t0 - r0
    hh1 = (t1 - r1) - r0
    hh2 = t2 - r1
    return hh0, hh1, hh2
