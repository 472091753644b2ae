"""Twisted sheaves on the projective line: LES data and hypercohomology."""

import random
from fractions import Fraction

import pytest

from quivhom.generate import generate_document
from quivhom.instances import load_instance
from quivhom.linalg import FieldSpec, rank
from quivhom.quiver import Quiver
from quivhom.rep import IncompatibleError, hom_complex
from quivhom.sheaf import (
    FormMatrix,
    QSheafP1,
    SplitBundle,
    _cech_matrices,
    _cech_windows,
    cech_dims,
    cech_hyper,
    delta0_matrix,
    delta1_matrix,
    ext_quiver_sheaf,
    tensor_bundle,
    tensor_bundles,
)

from oracles import (dense, euler_characteristic, euler_check, is_zero, scale,
                     sheaf_hom_ext_dims, submatrix, vstack)

F = FieldSpec.prime(101)
LOOP = Quiver(1, [(0, 0)])
O = SplitBundle([0])


def form_matrix(field, source, target, entries) -> FormMatrix:
    """The FormMatrix of dense entries: coefficients brought into the field, () dropped."""
    return FormMatrix(field, source, target,
                      [{s: tuple(map(field.element, f)) for s, f in enumerate(row) if f}
                       for row in entries])


def zero_map_sheaf(quiver, twist_bundles, vertex_bundles) -> QSheafP1:
    """The sheaf over F with the given bundles and every map zero."""
    tensors = tensor_bundles(quiver, twist_bundles, vertex_bundles)
    phi = [FormMatrix(F, tb.bundle, vertex_bundles[h], [{}] * vertex_bundles[h].rank)
           for tb, (_, h) in zip(tensors, quiver.arrows)]
    return QSheafP1(quiver, F, twist_bundles, vertex_bundles, phi, _tensors=tensors)


def higgs_sheaf(vertex_bundle=O, forms=None):
    m = [SplitBundle([-2])]
    if forms is None:
        return zero_map_sheaf(LOOP, m, [vertex_bundle])
    src = tensor_bundle(m[0], vertex_bundle).bundle
    return QSheafP1(LOOP, F, m, [vertex_bundle],
                    [form_matrix(F, src, vertex_bundle, forms)])


def split_bundle(twists) -> SplitBundle:
    """The split bundle of the given twists, in any order."""
    return SplitBundle(sorted(twists, reverse=True))


def scale_form_matrix(f: FormMatrix, c) -> FormMatrix:
    c = f.field.element(c)
    rows = [[tuple(c * x for x in form) for form in row] for row in dense(f)]
    return form_matrix(f.field, f.source, f.target, rows)


def scale_forms(V: QSheafP1, c) -> QSheafP1:
    return QSheafP1(V.quiver, V.field, V.twist_bundles, V.vertex_bundles,
                    [scale_form_matrix(f, c) for f in V.phi], _tensors=V.tensors)


def shift_vertex_twists(V: QSheafP1, t: int) -> QSheafP1:
    """Twist every vertex bundle by O(t); the form data is unchanged."""
    shifted = [SplitBundle(tuple(d + t for d in b.twists)) for b in V.vertex_bundles]
    tensors = tensor_bundles(V.quiver, V.twist_bundles, shifted)
    phi = [form_matrix(V.field, tb.bundle, shifted[h], dense(f))
           for tb, (_, h), f in zip(tensors, V.quiver.arrows, V.phi)]
    return QSheafP1(V.quiver, V.field, V.twist_bundles, shifted, phi, _tensors=tensors)


def test_split_bundle_canonical_form():
    with pytest.raises(ValueError):
        SplitBundle([0, 1])
    assert split_bundle([0, 3, -1]).twists == (3, 0, -1)
    assert SplitBundle([]).rank == 0


def test_split_bundle_rejects_float_twists():
    with pytest.raises(TypeError):
        SplitBundle([1.5, 0.2])


def _loaded_loop_phi(field, m_twist: int, form) -> FormMatrix:
    """phi of the one-loop sheaf V = O with M = O(m_twist) and one form, as loaded."""
    document = {"field": field, "quiver": {"vertices": 1, "arrows": [[0, 0]]}, "mode": "p1",
                "twists": [[m_twist]], "modules": {"V": {"twists": [[0]], "phi": [[[form]]]}}}
    return load_instance(document).modules["V"].phi[0]


def test_form_matrix_coefficient_count():
    # a form of degree d lists the d + 1 coefficients of x^d, ..., y^d
    src, dst = SplitBundle([0]), SplitBundle([2])
    with pytest.raises(ValueError, match="coefficients"):
        FormMatrix(F, src, dst, [{0: (1, 2)}])
    with pytest.raises(ValueError, match="coefficients"):
        FormMatrix(F, src, dst, [{0: (1, 2, 3, 4)}])
    fm = FormMatrix(F, src, dst, [{0: (1, 2, 3)}])      # x^2 + 2xy + 3y^2
    assert fm.rows == ({0: (1, 2, 3)},)


def test_form_matrix_degree_enforcement():
    # an entry of degree -1 is the zero form, which is not stored
    src, dst = SplitBundle([1]), SplitBundle([0])
    for form in ((1,), (0,), ()):
        with pytest.raises(ValueError, match="coefficients"):
            FormMatrix(F, src, dst, [{0: form}])
    assert FormMatrix(F, src, dst, [{}]).rows == ({},)
    assert form_matrix(F, src, dst, [[()]]).rows == ({},)


def test_form_matrix_refuses_a_column_or_row_count_out_of_shape():
    src, dst = SplitBundle([0, 0]), SplitBundle([0])
    for column in (2, -1):
        with pytest.raises(ValueError, match="columns"):
            FormMatrix(F, src, dst, [{column: (1,)}])
    for rows in ([], [{}, {}]):
        with pytest.raises(ValueError, match="rows"):
            FormMatrix(F, src, dst, rows)


def test_form_matrix_reduces_coefficients_mod_p():
    F7 = FieldSpec.prime(7)
    m = _loaded_loop_phi({"fp": 7}, 0, [9])
    assert m.rows == ({0: (2,)},)
    assert m == FormMatrix(F7, O, O, [{0: (2,)}])


def test_form_matrix_scale_by_one_is_the_identity():
    m = form_matrix(FieldSpec.prime(7), O, O, [[(9,)]])
    assert scale_form_matrix(m, 1) == m


def test_form_matrix_coefficients_over_q_are_fractions():
    m = _loaded_loop_phi("q", -1, [3, "3/2"])
    assert m.rows == ({0: (Fraction(3), Fraction(3, 2))},)
    assert [type(c) for c in m.rows[0][0]] == [Fraction, Fraction]


@pytest.mark.parametrize("seed", range(50))
def test_loaded_form_matrices_equal_their_dense_rebuild(seed):
    inst = load_instance(generate_document(seed, mode="p1"))
    for X in inst.modules.values():
        for f in X.phi:
            assert f == form_matrix(f.field, f.source, f.target, dense(f))


def test_summand_data_hands_over_the_stored_rows():
    V = higgs_sheaf(forms=[[(0, 0, 0)]])
    rows = V.summand_data()[2]
    assert rows[0] is V.phi[0].rows == ({0: (0, 0, 0)},)


def test_tensor_bundle_sorting_and_permutation():
    t = tensor_bundle(SplitBundle([1, -1]), SplitBundle([2, 0]))
    # natural order (M major): 1+2, 1+0, -1+2, -1+0 = 3, 1, 1, -1
    assert t.bundle.twists == (3, 1, 1, -1)
    # both sort orders are involutions, so inv_perm equals the order itself
    assert t.inv_perm == (0, 1, 2, 3)      # stable sort keeps the tied pair in order
    t2 = tensor_bundle(SplitBundle([0, 0]), SplitBundle([1, -1]))
    assert t2.bundle.twists == (1, 1, -1, -1)
    assert t2.inv_perm == (0, 2, 1, 3)
    for t3 in (t, t2):
        assert sorted(t3.inv_perm) == list(range(4))


def test_sheaf_hom_ext_examples():
    assert sheaf_hom_ext_dims(O, O) == (1, 0)
    assert sheaf_hom_ext_dims(O, SplitBundle([-2])) == (0, 1)
    assert sheaf_hom_ext_dims(SplitBundle([-2]), O) == (3, 0)


def test_delta0_zero_maps():
    q = Quiver(2, [(1, 0)])
    V = zero_map_sheaf(q, [SplitBundle([0])], [O, SplitBundle([1])])
    assert is_zero(delta0_matrix(hom_complex(V, V)))


def test_delta0_higgs_zero_field():
    V = higgs_sheaf()
    d0 = delta0_matrix(hom_complex(V, V))
    assert d0.shape == (3, 1)          # h0(O(2)) = 3, h0(O) = 1
    assert is_zero(d0)


def test_delta0_scalar_commutator():
    x2 = (1, 0, 0)
    V = higgs_sheaf(forms=[[x2]])
    d0 = delta0_matrix(hom_complex(V, V))
    assert rank(d0) == 0


def test_delta1_zero_maps_and_domain():
    V = higgs_sheaf(vertex_bundle=SplitBundle([1, -1]))
    d1 = delta1_matrix(hom_complex(V, V))
    # Hom(V, V) contains one O(-2) summand: domain dim 1; codomain has no H1
    assert d1.ncols == 1
    assert d1.nrows == 0
    assert is_zero(d1)


def test_delta1_degenerate_empty_spaces():
    # one arrow 1 -> 0, M = O, V_1 = O(-2), V_0 the zero sheaf
    q = Quiver(2, [(1, 0)])
    V = zero_map_sheaf(q, [O], [SplitBundle([]), SplitBundle([-2])])
    d1 = delta1_matrix(hom_complex(V, V))
    assert d1.shape == (0, 0)


def _scalar_loop_sheaf(bundle, scalar):
    src = tensor_bundle(O, bundle).bundle
    phi = form_matrix(F, src, bundle, [[(scalar,)]])
    return QSheafP1(LOOP, F, [O], [bundle], [phi])


def test_delta1_commutator_by_hand():
    # loop with M = O, V = (O, c), W = (O(-2), d): on H1(Hom(V,W)) = k the
    # connecting map multiplies the overlap class by c - d
    V = _scalar_loop_sheaf(O, 2)
    W = _scalar_loop_sheaf(SplitBundle([-2]), 5)
    d1 = delta1_matrix(hom_complex(V, W))
    assert d1.to_lists() == [[(2 - 5) % 101]]
    r = ext_quiver_sheaf(hom_complex(V, W))
    assert (r.ext0, r.ext1, r.ext2) == (0, 0, 0)
    assert cech_hyper(hom_complex(V, W)) == (0, 0, 0)
    # equal scalars commute: the map vanishes and Ext^1, Ext^2 survive
    W_eq = _scalar_loop_sheaf(SplitBundle([-2]), 2)
    assert is_zero(delta1_matrix(hom_complex(V, W_eq)))
    r = ext_quiver_sheaf(hom_complex(V, W_eq))
    assert (r.ext0, r.ext1, r.ext2) == (0, 1, 1)
    assert cech_hyper(hom_complex(V, W_eq)) == (0, 1, 1)


def test_delta_maps_scale_linearly():
    rng = random.Random(4)
    for _ in range(6):
        V, W = _random_pair(rng)
        lam = rng.randrange(1, 101)
        v2, w2 = scale_forms(V, lam), scale_forms(W, lam)
        assert delta0_matrix(hom_complex(v2, w2)) == scale(delta0_matrix(hom_complex(V, W)), lam)
        assert delta1_matrix(hom_complex(v2, w2)) == scale(delta1_matrix(hom_complex(V, W)), lam)


def test_ext_higgs_example():
    V = higgs_sheaf()
    r = ext_quiver_sheaf(hom_complex(V, V))
    assert (r.ext0, r.ext1, r.ext2) == (1, 3, 0)
    assert (r.h0_F, r.h0_G, r.h1_F, r.h1_G) == (1, 3, 0, 0)
    assert (r.rank_delta0, r.rank_delta1) == (0, 0)


def test_ext_zero_sheaf():
    q = Quiver(2, [(1, 0)])
    V = zero_map_sheaf(q, [O], [SplitBundle([]), SplitBundle([])])
    r = ext_quiver_sheaf(hom_complex(V, V))
    assert (r.ext0, r.ext1, r.ext2) == (0, 0, 0)
    assert cech_hyper(hom_complex(V, V)) == (0, 0, 0)


def test_ext_triple_example():
    q = Quiver(2, [(1, 0)])
    src = tensor_bundle(O, O).bundle
    phi = form_matrix(F, src, O, [[(1,)]])
    V = QSheafP1(q, F, [O], [O, O], [phi])
    r = ext_quiver_sheaf(hom_complex(V, V))
    assert (r.ext0, r.ext1, r.ext2) == (1, 0, 0)
    assert euler_characteristic(V, V) == 1
    assert euler_check(V, V)


def test_cech_higgs_example():
    V = higgs_sheaf()
    assert cech_hyper(hom_complex(V, V)) == (1, 3, 0)


def test_cech_single_bundle_no_arrows():
    q = Quiver(1, [])
    V = zero_map_sheaf(q, [], [SplitBundle([-2])])
    # Hom(O(-2), O(-2)) = O, so (1, 0, 0)
    assert cech_hyper(hom_complex(V, V)) == (1, 0, 0)
    r = ext_quiver_sheaf(hom_complex(V, V))
    assert (r.ext0, r.ext1, r.ext2) == (1, 0, 0)


def test_cech_matches_line_bundle_cohomology():
    # no-arrow quivers reduce hypercohomology to sheaf cohomology of Homs
    q = Quiver(1, [])
    rng = random.Random(12)
    for _ in range(10):
        e = split_bundle([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        f = split_bundle([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        V = zero_map_sheaf(q, [], [e])
        W = zero_map_sheaf(q, [], [f])
        hom, ext1 = sheaf_hom_ext_dims(e, f)
        assert cech_hyper(hom_complex(V, W)) == (hom, ext1, 0)


def test_euler_higgs_arithmetic():
    V = higgs_sheaf()
    assert euler_characteristic(V, V) == -2     # 1 - 3 + 0 = chi(O,O) - chi(O(2))
    assert euler_check(V, V)


def _random_pair(rng, max_vertices=3, max_arrows=3, max_rank=2, max_twist=3):
    n = rng.randint(1, max_vertices)
    arrows = [(rng.randrange(n), rng.randrange(n))
              for _ in range(rng.randint(1, max_arrows))]
    q = Quiver(n, arrows)
    m = [split_bundle([rng.randint(-max_twist, max_twist)
                       for _ in range(rng.randint(1, max_rank))])
         for _ in arrows]

    def bundles():
        return [split_bundle([rng.randint(-max_twist, max_twist)
                              for _ in range(rng.randint(0, max_rank))])
                for _ in range(n)]

    def forms(v):
        phi = []
        for a, (t, h) in enumerate(arrows):
            src = tensor_bundle(m[a], v[t]).bundle
            dst = v[h]
            rows = []
            for r in range(dst.rank):
                row = []
                for c in range(src.rank):
                    deg = dst.twists[r] - src.twists[c]
                    if deg < 0:
                        row.append(())
                    else:
                        row.append(tuple(rng.randrange(101) for _ in range(deg + 1)))
                rows.append(row)
            phi.append(form_matrix(F, src, dst, rows))
        return phi

    vb, wb = bundles(), bundles()
    V = QSheafP1(q, F, m, vb, forms(vb))
    W = QSheafP1(q, F, m, wb, forms(wb))
    return V, W


def test_les_equals_hypercohomology_random():
    rng = random.Random(2)
    for _ in range(15):
        V, W = _random_pair(rng)
        C = hom_complex(V, W)
        r = ext_quiver_sheaf(C)
        assert (r.ext0, r.ext1, r.ext2) == cech_hyper(C)
        assert euler_check(V, W)


def test_window_stability():
    rng = random.Random(9)
    for _ in range(8):
        V, W = _random_pair(rng)
        C = hom_complex(V, W)
        assert cech_hyper(C) == cech_hyper(C, extra_window=2)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda V, W, extra: cech_hyper(hom_complex(V, W), extra), id="cech_hyper"),
    pytest.param(cech_dims, id="cech_dims")])
def test_negative_window_rejected(entry):
    # below the window its truncation argument needs; cech_hyper raised
    # IndexError from assembly on some generated pairs
    for seed in (1, 7, 18):
        inst = load_instance(generate_document(seed, mode="p1"))
        with pytest.raises(ValueError, match="extra_window"):
            entry(inst.modules["V"], inst.modules["W"], -3)


def test_global_twist_shift_invariance():
    rng = random.Random(14)
    for _ in range(8):
        V, W = _random_pair(rng)
        t = rng.randint(-2, 2)
        v2, w2 = shift_vertex_twists(V, t), shift_vertex_twists(W, t)
        r1 = ext_quiver_sheaf(hom_complex(V, W))
        r2 = ext_quiver_sheaf(hom_complex(v2, w2))
        assert r1 == r2
        assert cech_hyper(hom_complex(v2, w2)) == cech_hyper(hom_complex(V, W))


def test_hom_dimension_consistency_with_kernel():
    # ext0 equals the kernel dimension of delta0 directly
    rng = random.Random(25)
    for _ in range(8):
        V, W = _random_pair(rng)
        C = hom_complex(V, W)
        d0 = delta0_matrix(C)
        assert ext_quiver_sheaf(C).ext0 == d0.ncols - rank(d0)


def test_incompatible_sheaves_rejected():
    V = higgs_sheaf()
    W = zero_map_sheaf(LOOP, [SplitBundle([-1])], [O])
    with pytest.raises(IncompatibleError):
        delta0_matrix(hom_complex(V, W))


@pytest.mark.parametrize("seed", range(50))
def test_cech_d0_lists_its_unit_pivot_rows_first(seed):
    # d0 is ranked as d0ᵀ, whose Cech1(C0) columns come first.  Every row of
    # d0ᵀ holds exactly one ±1 among them, the s0 − s1 entry of its chart
    # coordinate, and leads with it, so rank(d0ᵀ) reduces only rows whose
    # lead another row shares, and those only to H0 columns.
    inst = load_instance(generate_document(seed, mode="p1"))
    V, W = inst.modules["V"], inst.modules["W"]
    for X, Y in ((V, W), (W, V)):
        C = hom_complex(X, Y)
        (u0, l0), _ = _cech_windows(C, 0)
        n_vertical = sum(u + l + 1 for u, l in zip(u0, l0))   # dim Cech1(C0)
        d0t, _ = _cech_matrices(C, 0)
        units = {X.field.one(), X.field.element(-1)}
        for row in d0t.sparse_rows():
            vertical = [(j, x) for j, x in row.items() if j < n_vertical]
            assert len(vertical) == 1 and vertical[0][1] in units
            assert vertical[0][0] == min(row)
        # the second half of the rows first is a row permutation: the same rank
        t0, t1 = d0t.shape
        swapped = vstack([submatrix(d0t, t0 // 2, t0, 0, t1), submatrix(d0t, 0, t0 // 2, 0, t1)])
        r0 = rank(d0t)
        assert rank(swapped) == r0
        assert cech_hyper(C)[0] + r0 == t0


def test_cech_rank_work_stays_bounded(monkeypatch):
    # Ranked as d0ᵀ and d1, the Cech complexes of gen p1 seeds 0-49 in both
    # orders take 2,157 row subtractions; ranked as d0 they took 69,336.
    import quivhom.linalg as linalg
    calls = []
    subtract = linalg._subtract_multiple
    monkeypatch.setattr(linalg, "_subtract_multiple",
                        lambda *args: calls.append(1) or subtract(*args))
    for seed in range(50):
        inst = load_instance(generate_document(seed, mode="p1"))
        V, W = inst.modules["V"], inst.modules["W"]
        for X, Y in ((V, W), (W, V)):
            for m in _cech_matrices(hom_complex(X, Y), 0):
                rank(m)
    assert 0 < len(calls) <= 3000


def test_cech_rank_entries_touched_stay_bounded(monkeypatch):
    # The rows of d0ᵀ left after the one subtraction per shared lead live in
    # the Cech0(C1) columns only.  Ordered by C1 summand twist, those columns
    # meet the smallest blocks first, and on gen p1 seeds 0-49 in both orders
    # the subtractions touch 23,705 pivot-row entries; in summand order they
    # touched 67,251.
    import quivhom.linalg as linalg
    touched = []
    subtract = linalg._subtract_multiple
    monkeypatch.setattr(linalg, "_subtract_multiple",
                        lambda row, f, prow, p: touched.append(len(prow)) or subtract(row, f, prow, p))
    for seed in range(50):
        inst = load_instance(generate_document(seed, mode="p1"))
        V, W = inst.modules["V"], inst.modules["W"]
        for X, Y in ((V, W), (W, V)):
            for m in _cech_matrices(hom_complex(X, Y), 0):
                rank(m)
    assert 0 < sum(touched) <= 30_000


@pytest.mark.parametrize("seed", range(30))
def test_p1_routes_do_not_depend_on_the_summand_order(seed):
    # Cech orders its C1 chart columns by twist and breaks ties by summand
    # index; renumbering the summands of both sides must change no dimension.
    # Neither route reads the block starts, so they are left as they are.
    rng = random.Random(seed)
    inst = load_instance(generate_document(seed, mode="p1"))
    V, W = inst.modules["V"], inst.modules["W"]
    for X, Y in ((V, W), (W, V)):
        C = hom_complex(X, Y)
        perm0, perm1 = (rng.sample(range(len(twists)), len(twists)) for twists in (C.c0, C.c1))
        c0, c1 = [0] * len(C.c0), [0] * len(C.c1)
        for k, d in enumerate(C.c0):
            c0[perm0[k]] = d
        for k, d in enumerate(C.c1):
            c1[perm1[k]] = d
        D = C._replace(c0=c0, c1=c1, entries=[(perm1[i], perm0[j], cf)
                                              for i, j, cf in C.entries])
        r, s = ext_quiver_sheaf(C), ext_quiver_sheaf(D)
        assert (s.ext0, s.ext1, s.ext2) == (r.ext0, r.ext1, r.ext2) == cech_hyper(D) == cech_hyper(C)


def test_cech_cells_stay_bounded():
    # On gen p1 seeds 0-49 in both orders, each Hom summand's own Laurent
    # window builds 8,926 Cech rows and 64,039 nonzeros; the uniform window
    # T = max|d| + 2 built 35,888 rows and 312,051 nonzeros.
    rows = nonzeros = 0
    for seed in range(50):
        inst = load_instance(generate_document(seed, mode="p1"))
        V, W = inst.modules["V"], inst.modules["W"]
        for X, Y in ((V, W), (W, V)):
            for m in _cech_matrices(hom_complex(X, Y), 0):
                rows += m.nrows
                nonzeros += sum(map(len, m.sparse_rows()))
    assert 0 < rows <= 12000 and 0 < nonzeros <= 80000
