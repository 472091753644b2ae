"""The connecting map f -> (f_ha ∘ phi_a − psi_a ∘ (1⊗f_ta))_a, checked on its own.

delta, delta0, delta1 and the Cech horizontal maps are all placed from one
two-term complex (rep.hom_complex, the only walk over the summands), at
coordinates that are prefix sums of per-summand sizes; only the vertical
Cech differences are built apart, from each summand's twist and window.  So agreement of
the long exact sequence with Cech hypercohomology tests neither the walk
nor the coordinates.  Here delta and delta0 are rebuilt column by column
from whole-matrix products, the assembled matrices and both Cech
differentials are pinned by content digests, d1 ∘ d0 = 0 is checked on the
Cech total complex, and the coordinates are
checked against the vectorisation, the cohomology of each Hom bundle and
the Cech size bound.  Serre duality runs both library p1 routes a second
time, on the dual complex, where the H1 model carries the load the H0 model carries on
the complex itself.
"""

import hashlib

import pytest

from quivhom import linalg, sheaf
from quivhom.generate import generate_document
from quivhom.instances import load_instance
from quivhom.linalg import ExactMatrix, kron, unvec_matrix
from quivhom.rep import (build_extension, delta_matrix, ext1_classes, hom_complex, hom_summands,
                         summand_offsets)
from quivhom.sheaf import (
    _cech_matrices,
    cech_dims,
    cech_hyper,
    delta0_matrix,
    delta1_matrix,
    ext_quiver_sheaf,
    h0_dim,
    h1_dim,
)

from oracles import (add, column_list, dense, generic_delta_matrix, is_zero, one_coordinate,
                     sheaf_hom_ext_dims, sub, submatrix, transpose, vec_matrix,
                     widened_cech_windows)


def _modules(seed, mode, field=None, **bounds):
    doc = generate_document(seed, mode=mode, **bounds)
    if field is not None:
        doc["field"] = field
    inst = load_instance(doc)
    return inst.modules["V"], inst.modules["W"]


@pytest.mark.parametrize("field", [None, "q"])
def test_delta_matrix_matches_the_generic_placement(field):
    # delta writes entry (i, j, value) at cell (i, j); connecting_matrix
    # with one coordinate and one scalar run per summand is the route it replaced
    for seed in range(50):
        V, W = _modules(seed, "vector", field)
        for C in (hom_complex(V, W), hom_complex(W, V)):
            delta, generic = delta_matrix(C), generic_delta_matrix(C)
            assert delta == generic
            assert repr(sorted(delta.nonzeros())) == repr(sorted(generic.nonzeros()))


@pytest.mark.parametrize("field", [None, "q"])
def test_hom_complex_entries_are_the_cells_of_delta(field):
    # psi's sign is applied once, in hom_complex: each entry is (i, j, value)
    # with the value delta holds at (i, j), so no consumer signs it again; and
    # no entry is zero, not where a loop's phi and psi terms cancel on Hom(V, V),
    # nor in the split-decision complexes Hom(V, E) of every Ext^1 class
    for seed in range(50):
        V, W = _modules(seed, "vector", field)
        pairs = [(V, W), (W, V), (V, V)]
        for X, Y in ((V, W), (W, V)):
            pairs += [(X, build_extension(X, Y, etas)) for etas in ext1_classes(X, Y)]
        for X, Y in pairs:
            C = hom_complex(X, Y)
            assert sorted(C.entries) == sorted(delta_matrix(C).nonzeros()), seed


@pytest.mark.parametrize("field", [None, "q"])
@pytest.mark.parametrize("seed", range(30))
def test_delta_column_by_column(seed, field):
    V, W = _modules(seed, "vector", field)
    delta = delta_matrix(hom_complex(V, W))
    for col in range(delta.ncols):
        unit = [0] * delta.ncols
        unit[col] = 1
        blocks, pos = [], 0
        for i in range(V.quiver.n_vertices):
            blocks.append(unvec_matrix(V.field, unit, W.dims[i], V.dims[i], pos))
            pos += W.dims[i] * V.dims[i]
        image = []
        for a, (t, h) in enumerate(V.quiver.arrows):
            eye = ExactMatrix.identity(V.field, V.twist[a])
            image += vec_matrix(sub(blocks[h] @ V.phi[a], W.phi[a] @ kron(eye, blocks[t])))
        assert image == column_list(delta, col), (seed, col)


# -- p1 mode: matrices of binary forms as coefficient lists by x-exponent -----

def _coeffs(form):
    return list(reversed(form))


def _form_matmul(x, y, degree, rows, cols):
    """Product of two matrices of forms; entry (r, c) has the given degree."""
    out = [[[0] * h0_dim(degree(r, c)) for c in range(cols)] for r in range(rows)]
    for r in range(rows):
        for s, f in enumerate(x[r]):
            for c in range(cols):
                for i, u in enumerate(f):
                    for j, v in enumerate(y[s][c]):
                        out[r][c][i + j] += u * v
    return out


def _delta0_image(V, W, f):
    """Coordinates of (f_h ∘ phi_a − psi_a ∘ (1⊗f_t))_a, f given per vertex."""
    image = []
    for a, (t, h) in enumerate(V.quiver.arrows):
        vt, wt, wh = V.vertex_bundles[t], W.vertex_bundles[t], W.vertex_bundles[h]
        tv, tw = V.tensors[a], W.tensors[a]
        # 1⊗f_t as a matrix between the sorted tensor bundles
        one_f = [[[] for _ in range(tv.bundle.rank)] for _ in range(tw.bundle.rank)]
        for m in range(V.twist_bundles[a].rank):
            for r in range(wt.rank):
                for s in range(vt.rank):
                    one_f[tw.inv_perm[m * wt.rank + r]][tv.inv_perm[m * vt.rank + s]] = \
                        f[t][r][s]

        def degree(r2, c):
            return wh.twists[r2] - tv.bundle.twists[c]

        phi = [[_coeffs(g) for g in row] for row in dense(V.phi[a])]
        psi = [[_coeffs(g) for g in row] for row in dense(W.phi[a])]
        left = _form_matmul(f[h], phi, degree, wh.rank, tv.bundle.rank)
        right = _form_matmul(psi, one_f, degree, wh.rank, tv.bundle.rank)
        for c in range(tv.bundle.rank):
            for r2 in range(wh.rank):
                image += [V.field.element(x - y)
                          for x, y in zip(left[r2][c], right[r2][c])]
    return image


@pytest.mark.parametrize("seed", range(30))
def test_delta0_column_by_column(seed):
    V, W = _modules(seed, "p1")
    delta0 = delta0_matrix(hom_complex(V, W))
    # domain coordinates: vertex, source summand s, target summand r, x-exponent
    col = 0
    for i in range(V.quiver.n_vertices):
        vb, wb = V.vertex_bundles[i], W.vertex_bundles[i]
        for s in range(vb.rank):
            for r in range(wb.rank):
                for k in range(h0_dim(wb.twists[r] - vb.twists[s])):
                    f = [[[[0] * h0_dim(W.vertex_bundles[j].twists[r2]
                                        - V.vertex_bundles[j].twists[s2])
                            for s2 in range(V.vertex_bundles[j].rank)]
                           for r2 in range(W.vertex_bundles[j].rank)]
                          for j in range(V.quiver.n_vertices)]
                    f[i][r][s][k] = 1
                    assert _delta0_image(V, W, f) == column_list(delta0, col), (seed, col)
                    col += 1
    assert col == delta0.ncols


# Digests over gen seeds 0..49 of each matrix's (shape, to_lists()), and of
# the Cech triple; recorded before the assembly shared one summand walk.
PINNED = {
    "delta": "e98a74ef176006ba6d5fef8d313b0724cb4dfa985239a9050ec215a5e7882cf3",
    "delta0": "020060fbcde7e4ce9f18cad12f54fd73517f5e94375c65d0527f4f38baa6bf6c",
    "delta1": "b76abea90a30807d0ee3eecc472d54a6c2cd4e987b5c44b6400c92db50542e9a",
    "cech_hyper": "3e817d5a9be20f213decf6853ef86da25eba47d4118aaf11d59a5920d12b1f03",
}


def test_pinned_content_digests():
    got = {name: hashlib.sha256() for name in PINNED}
    for seed in range(50):
        V, W = _modules(seed, "vector")
        m = delta_matrix(hom_complex(V, W))
        got["delta"].update(repr((m.shape, m.to_lists())).encode())
        V, W = _modules(seed, "p1")
        for name, build in (("delta0", delta0_matrix), ("delta1", delta1_matrix)):
            m = build(hom_complex(V, W))
            got[name].update(repr((m.shape, m.to_lists())).encode())
        got["cech_hyper"].update(repr(cech_hyper(hom_complex(V, W))).encode())
    assert {name: h.hexdigest() for name, h in got.items()} == PINNED


# Digests over gen seeds 0..49, both orders, of the shape and the sorted
# nonzero entries of the Cech differentials d0 and d1, in the layout
# _cech_matrices builds: each Hom summand with its own Laurent window, and
# T1's Cech0(C1) coordinates ordered by C1 summand twist, ties by index.
# Recorded once Cech agreed with the long exact sequence and the Serre dual
# on every tier-1 draw.  A digest pins the layout, not the meaning: the signs
# are checked by test_cech_differentials_compose_to_zero.
CECH_PINNED = {
    "d0": "5bb1be192425bdc81ef23411c1804926bf20837ef5236b5fb67665452072f881",
    "d1": "cd47b19508bcad416c6f561eed0d7c5b2775587bc6154a28acf443c0a50fbf4e",
}


def test_pinned_cech_digests():
    got = {name: hashlib.sha256() for name in CECH_PINNED}
    for seed in range(50):
        V, W = _modules(seed, "p1")
        for X, Y in ((V, W), (W, V)):
            d0t, d1 = _cech_matrices(hom_complex(X, Y))
            for name, m in zip(CECH_PINNED, (transpose(d0t), d1)):
                got[name].update(repr((m.shape, sorted(m.nonzeros()))).encode())
    assert {name: h.hexdigest() for name, h in got.items()} == CECH_PINNED


# -- the coordinates of the shared Hom complex ---------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_vector_layout_is_column_major_vectorisation(seed):
    V, W = _modules(seed, "vector")
    C = hom_complex(V, W)
    for twists, block_start, blocks in (
            (C.c0, C.vertex_start, [(V.dims[i], W.dims[i]) for i in range(V.quiver.n_vertices)]),
            (C.c1, C.arrow_start, [(V.twist[a] * V.dims[t], W.dims[h])
                                   for a, (t, h) in enumerate(V.quiver.arrows)])):
        coords = summand_offsets(twists, one_coordinate)
        pos = k = 0
        for b, (n_src, n_dst) in enumerate(blocks):
            assert coords[block_start[b]] == pos
            for s in range(n_src):
                for r in range(n_dst):
                    assert (coords[k], twists[k]) == (pos + s * n_dst + r, 0)
                    k += 1
            pos += n_src * n_dst
        assert coords[block_start[-1]] == coords[-1] == pos
    own = sum(V.dims) + sum(W.dims) + V.quiver.n_vertices + sum(
        V.twist[a] * (V.dims[t] + W.dims[t]) for a, (t, _) in enumerate(V.quiver.arrows))
    assert hom_summands(V, W) == len(C.c0) + len(C.c1) + own


@pytest.mark.parametrize("seed", range(30))
def test_p1_layout_blocks_hold_the_cohomology_of_each_hom_bundle(seed):
    V, W = _modules(seed, "p1")
    C = hom_complex(V, W)
    for q, dim_of in ((0, h0_dim), (1, h1_dim)):
        pairs = [(V.vertex_bundles[i], W.vertex_bundles[i]) for i in range(V.quiver.n_vertices)]
        for twists, block_start, pairs in ((C.c0, C.vertex_start, pairs),
                                           (C.c1, C.arrow_start,
                                            [(V.tensors[a].bundle, W.vertex_bundles[h])
                                             for a, (_, h) in enumerate(V.quiver.arrows)])):
            coords = summand_offsets(twists, dim_of)
            starts = [coords[k] for k in block_start]
            k = 0
            for b, (e, f) in enumerate(pairs):
                assert starts[b + 1] - starts[b] == sheaf_hom_ext_dims(e, f)[q]
                pos = starts[b]
                for s, ds in enumerate(e.twists):
                    for r, dr in enumerate(f.twists):
                        assert (coords[k], twists[k]) == (pos, dr - ds)
                        pos += dim_of(dr - ds)
                        k += 1
        m = (delta0_matrix if q == 0 else delta1_matrix)(C)
        assert m.shape == (summand_offsets(C.c1, dim_of)[-1], summand_offsets(C.c0, dim_of)[-1])


def _cech_dims_by_hand(V, W):
    # Hom-bundle twists of the vertex blocks (C0) and the arrow blocks (C1)
    c0 = [dr - ds for i in range(V.quiver.n_vertices)
          for ds in V.vertex_bundles[i].twists for dr in W.vertex_bundles[i].twists]
    c1 = [dr - dc for a, (_, h) in enumerate(V.quiver.arrows)
          for dc in V.tensors[a].bundle.twists for dr in W.vertex_bundles[h].twists]
    w = max((abs(d) for d in c0 + c1), default=0) + 2
    cech0 = [(w + 1) + max(min(d, w) + w + 1, 0) for d in c0 + c1]
    return (sum(cech0[:len(c0)]), sum(cech0[len(c0):]) + len(c0) * (2 * w + 1),
            len(c1) * (2 * w + 1))


@pytest.mark.parametrize("seed", range(30))
def test_cech_dims_match_the_two_chart_windows(seed):
    V, W = _modules(seed, "p1")
    for X, Y in ((V, W), (W, V)):
        assert cech_dims(X, Y) == _cech_dims_by_hand(X, Y)


@pytest.mark.parametrize("seed", range(100))
def test_cech_dims_bound_the_built_complex(seed):
    # the size guard reads cech_dims before anything is built
    V, W = _modules(seed, "p1")
    for X, Y in ((V, W), (W, V)):
        t0, t1, t2 = cech_dims(X, Y)
        d0t, d1 = _cech_matrices(hom_complex(X, Y))
        assert d0t.nrows <= t0 and d1.nrows <= t2 and d0t.ncols == d1.ncols <= t1


# -- Serre duality: a third route over the same complex ----------------------
#
# On the projective line, h^i(C) = h^(2-i)(D) for D = C^∨ ⊗ O(−2), the
# two-term complex with C0 and C1 swapped, each twist d made −d − 2 and each
# entry transposed (multiplying by a form is adjoint to multiplying by it).
# D's H1 side is the size of C's H0 side, so this puts the Yoneda product of
# _class_times_form under the load that the monomial model carries on C.

def _serre_dual(C):
    return C._replace(c0=[-d - 2 for d in C.c1], c1=[-d - 2 for d in C.c0],
                      vertex_start=C.arrow_start, arrow_start=C.vertex_start,
                      entries=[(j, i, cf) for i, j, cf in C.entries])


@pytest.mark.parametrize("seed", range(100))
def test_serre_dual_complex_gives_the_same_ext(seed):
    V, W = _modules(seed, "p1")
    for X, Y in ((V, W), (W, V)):
        C = hom_complex(X, Y)
        D = _serre_dual(C)
        les = [(r.ext0, r.ext1, r.ext2) for r in map(ext_quiver_sheaf, (C, D))]
        assert les[0] == les[1][::-1] == cech_hyper(C) == cech_hyper(D)[::-1], (seed, X is V)


# Draws that stress the Cech windows: loops only, where every entry links
# summands of one vertex, and twists up to 6 on ranks up to 4; each order and
# V -> V, the windows at their least and one wider.
@pytest.mark.parametrize("field", [None, "q"])
@pytest.mark.parametrize("bounds", [{"max_vertices": 1}, {"max_twist": 6, "max_dim": 4}],
                         ids=["loops", "wide"])
def test_summand_windows_keep_the_hypercohomology(bounds, field):
    for seed in range(20):
        V, W = _modules(seed, "p1", field, **bounds)
        for X, Y in ((V, W), (W, V), (V, V)):
            C = hom_complex(X, Y)
            r, D = ext_quiver_sheaf(C), _serre_dual(C)
            for extra in (0, 1):
                with widened_cech_windows(extra):
                    assert ((r.ext0, r.ext1, r.ext2) == cech_hyper(C)
                            == cech_hyper(D)[::-1]), (seed, X is V, Y is W, extra)


# -- the Cech total complex is a complex -------------------------------------
#
# Equal ranks on both routes do not see a wrong sign in one Cech map: the
# ranks of d0 and d1 alone can survive it.  d1 ∘ d0 = 0 does not.

def _d1_after_d0(C):
    """d1·d0 of the Cech total complex of C, computed blockwise, at the windows in use.

    d0ᵀ has columns Cech1(C0) then Cech0(C1) and d1 has Cech0(C1) then
    Cech1(C0), so with d0 = [X; Y] and d1 = [A | B], d1·d0 = B·X + A·Y.
    """
    d0t, d1 = _cech_matrices(C)
    (u0, l0), _ = sheaf._cech_windows(C)
    n = sum(u + l + 1 for u, l in zip(u0, l0))      # the Cech1(C0) coordinates
    (t0, t1), t2 = d0t.shape, d1.nrows
    X, Y = transpose(submatrix(d0t, 0, t0, 0, n)), transpose(submatrix(d0t, 0, t0, n, t1))
    A, B = submatrix(d1, 0, t2, 0, t1 - n), submatrix(d1, 0, t2, t1 - n, t1)
    return add(B @ X, A @ Y)


# gen seeds 0..49, then the F_101 draws of
# test_summand_windows_keep_the_hypercohomology; a sign is a sign in any
# field of characteristic other than 2, and over Q this took 3 s more
@pytest.mark.parametrize("bounds", [{}, {"max_vertices": 1}, {"max_twist": 6, "max_dim": 4}],
                         ids=["gen", "loops", "wide"])
def test_cech_differentials_compose_to_zero(bounds):
    for seed in range(50) if not bounds else range(20):
        V, W = _modules(seed, "p1", **bounds)
        for X, Y in ((V, W), (W, V)) if not bounds else ((V, W), (W, V), (V, V)):
            C = hom_complex(X, Y)
            for K in (C, _serre_dual(C)):
                for extra in (0, 1):
                    with widened_cech_windows(extra):
                        assert is_zero(_d1_after_d0(K)), (seed, X is V, K is C, extra)


def test_cech_assembly_places_canonical_rows(monkeypatch):
    # the builder keeps its rows canonical as runs arrive, so no row of the
    # Cech complex, delta0 or delta1 passes through _canonical afterwards
    pairs = [_modules(seed, "p1") for seed in range(10)]
    calls = []
    canonical = linalg._canonical
    monkeypatch.setattr(linalg, "_canonical",
                        lambda field, acc: calls.append(1) or canonical(field, acc))
    for V, W in pairs:
        _cech_matrices(hom_complex(V, W))
        delta0_matrix(hom_complex(V, W))
        delta1_matrix(hom_complex(V, W))
    assert len(calls) == 0


@pytest.mark.parametrize("mode", ["vector", "p1"])
def test_hom_complex_has_one_entry_per_summand_pair(mode):
    # only a loop's phi and psi terms can meet one pair; one vertex forces loops.
    # No entry is zero: not where those terms cancel, nor where the p1 loader
    # kept an all-zero form as read
    loops = 0
    for seed in range(100):
        for max_vertices in (4, 1):
            inst = load_instance(generate_document(seed, mode=mode, max_vertices=max_vertices))
            V, W = inst.modules["V"], inst.modules["W"]
            for X, Y in ((V, W), (W, V), (V, V)):
                entries = hom_complex(X, Y).entries
                pairs = [(i, j) for i, j, _ in entries]
                assert len(pairs) == len(set(pairs)), (seed, max_vertices)
                nonzero = [any(x) if mode == "p1" else x for _, _, x in entries]
                assert all(nonzero), (seed, max_vertices)
            loops += sum(t == h for t, h in inst.quiver.arrows)
    assert loops >= 300
