"""Twisted representations: action, connecting map, Hom/Ext, extensions."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest
import sympy

from quivhom.generate import generate_document
from quivhom.instances import load_instance
from quivhom.linalg import (CrossCheckError, ExactMatrix, FieldSpec, MatrixBuilder, _canonical,
                            cokernel_representatives, kernel_basis, kron, rank, solve,
                            unvec_matrix)
from quivhom.quiver import Quiver
from quivhom.rep import (
    IncompatibleError,
    RepMorphism,
    TwistData,
    TwistedRep,
    _blocks_read_back,
    _split_system,
    build_extension,
    delta_matrix,
    ext1_classes,
    hom_complex,
    hom_space,
    is_split_extension,
)
from quivhom.resolution import GradedBasis

from oracles import (add, ext1_dim, is_zero, path_actions, pinned_split_system, stacked_split,
                     submatrix, unit_block_verdict, vec_matrix, zero_maps)

Q = FieldSpec.rationals()
F101 = FieldSpec.prime(101)
LOOP = Quiver(1, [(0, 0)])
UNTWISTED = TwistData([1])
TRIPLE = Quiver(2, [(1, 0)])


def loop_rep(field, mat_rows):
    n = len(mat_rows)
    return TwistedRep(LOOP, UNTWISTED, field, [n],
                      [ExactMatrix(field, n, n, mat_rows)])


def jordan(field, n):
    rows = [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)]
    return loop_rep(field, rows)


def test_rep_shape_validation():
    with pytest.raises(ValueError):
        TwistedRep(LOOP, UNTWISTED, Q, [2], [ExactMatrix(Q, 1, 2)])
    with pytest.raises(ValueError):
        TwistedRep(LOOP, TwistData([2]), Q, [1], [ExactMatrix(Q, 1, 1)])
    with pytest.raises(ValueError):
        TwistData([0])


def test_twist_data_rejects_a_float():
    with pytest.raises(TypeError):
        TwistData([1.7])


def test_rep_rejects_a_float_dimension():
    with pytest.raises(TypeError):
        TwistedRep(LOOP, UNTWISTED, Q, [2.9], [ExactMatrix(Q, 2, 2)])


def _actions(V, max_degree):
    # block [(i, l)]: each basis element x of e_i A_l acting on V = ⊕_j V_j
    return path_actions(V, GradedBasis(V.quiver, V.twist, max_degree))


def test_act_trivial_path_is_identity():
    V = jordan(Q, 3)
    assert _actions(V, 0)[(0, 0)] == ExactMatrix.identity(Q, 3)


def test_act_jordan_square_vanishes():
    V = jordan(Q, 2)
    actions = _actions(V, 2)
    assert actions[(0, 1)].to_lists() == [[0, 1], [0, 0]]
    assert is_zero(actions[(0, 2)])


def test_act_wrong_vertex_returns_zero():
    q = Quiver(2, [(1, 0)])
    V = TwistedRep(q, TwistData([1]), Q, [1, 2],
                   [ExactMatrix(Q, 1, 2, [[1, 0]])])
    # the trivial path at vertex 1 annihilates V_0 and fixes V_1
    e1 = _actions(V, 0)[(1, 0)]
    assert is_zero(submatrix(e1, 0, 2, 0, 1))
    assert submatrix(e1, 0, 2, 1, 3) == ExactMatrix.identity(Q, 2)


def test_act_twisted_block_selection():
    # twist dimension 2 on a loop: phi = [a | b] picks column blocks by the
    # M index; in degree 2 the index of the last arrow applied is most
    # significant: (0,0), (0,1), (1,0), (1,1) act by 2·2, 2·3, 3·2, 3·3
    V = TwistedRep(LOOP, TwistData([2]), Q, [1],
                   [ExactMatrix(Q, 1, 2, [[2, 3]])])
    actions = _actions(V, 2)
    assert actions[(0, 1)].to_lists() == [[2, 3]]
    assert actions[(0, 2)].to_lists() == [[4, 6, 6, 9]]


def test_delta_zero_maps():
    q = Quiver(2, [(1, 0), (0, 0)])
    tw = TwistData([1, 2])
    V = zero_maps(q, tw, Q, [2, 1])
    W = zero_maps(q, tw, Q, [1, 2])
    assert is_zero(delta_matrix(hom_complex(V, W)))


def test_delta_scalar_commutator_vanishes():
    V = loop_rep(Q, [[Fraction(7, 3)]])
    d = delta_matrix(hom_complex(V, V))
    assert d.shape == (1, 1) and is_zero(d)


def test_delta_incompatible():
    V = jordan(Q, 2)
    W = jordan(F101, 2)
    with pytest.raises(IncompatibleError):
        delta_matrix(hom_complex(V, W))


def identity_morphism(V: TwistedRep) -> RepMorphism:
    blocks = [ExactMatrix.identity(V.field, d) for d in V.dims]
    return RepMorphism(V, V, blocks)


def test_hom_contains_identity():
    # the identity is a morphism, so it lies in ker(delta) = span(hom_space)
    for V in (jordan(Q, 3), jordan(F101, 2)):
        ident = identity_morphism(V)
        assert ident.is_morphism()
        delta = delta_matrix(hom_complex(V, V))
        zeros = [V.field.zero()] * delta.nrows
        assert delta.apply(vec_matrix(ident.blocks[0])) == zeros
        assert len(hom_space(V, V)) >= 1


def test_hom_triple_example():
    V = TwistedRep(TRIPLE, UNTWISTED, Q, [1, 1], [ExactMatrix(Q, 1, 1, [[1]])])
    W = TwistedRep(TRIPLE, UNTWISTED, Q, [1, 1], [ExactMatrix(Q, 1, 1, [[0]])])
    homs = hom_space(V, W)
    assert len(homs) == 1
    assert is_zero(homs[0].blocks[0])   # f_0 forced to vanish


def _jordan_hom_dim_oracle(m, n):
    """Independent route: sympy nullspace of the commutator system X J_m = J_n X."""
    jm = sympy.zeros(m, m)
    for r in range(m - 1):
        jm[r, r + 1] = 1
    jn = sympy.zeros(n, n)
    for r in range(n - 1):
        jn[r, r + 1] = 1
    unknowns = sympy.symbols(f"x0:{n * m}")
    x = sympy.Matrix(n, m, unknowns)
    eqs = x * jm - jn * x
    system = sympy.Matrix([[eq.coeff(u) for u in unknowns]
                           for eq in eqs.vec()])
    return len(system.nullspace())


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_jordan_hom_and_ext_are_min(m, n):
    V, W = jordan(Q, m), jordan(Q, n)
    expected = _jordan_hom_dim_oracle(m, n)
    assert expected == min(m, n)         # classical fact, recomputed
    assert len(hom_space(V, W)) == expected
    assert ext1_dim(V, W) == expected


def test_ext1_triple_example():
    V = TwistedRep(TRIPLE, UNTWISTED, Q, [0, 1], [ExactMatrix(Q, 0, 1)])
    W = TwistedRep(TRIPLE, UNTWISTED, Q, [1, 0], [ExactMatrix(Q, 1, 0)])
    assert len(hom_space(V, W)) == 0
    assert ext1_dim(V, W) == 1


def test_ext1_loop_simple():
    V = loop_rep(Q, [[0]])
    assert ext1_dim(V, V) == 1


def test_ext1_zero_target():
    V = jordan(Q, 2)
    W = zero_maps(LOOP, UNTWISTED, Q, [0])
    assert ext1_dim(V, W) == 0


def _random_rep(rng, q, tw, field, max_dim=3):
    dims = [rng.randint(0, max_dim) for _ in range(q.n_vertices)]
    phi = []
    for a, (t, h) in enumerate(q.arrows):
        rows, cols = dims[h], tw[a] * dims[t]
        phi.append(ExactMatrix(field, rows, cols,
                               [[rng.randrange(101) for _ in range(cols)]
                                for _ in range(rows)]))
    return TwistedRep(q, tw, field, dims, phi)


def _random_instance(rng):
    n = rng.randint(1, 4)
    arrows = [(rng.randrange(n), rng.randrange(n))
              for _ in range(rng.randint(1, 4))]
    q = Quiver(n, arrows)
    tw = TwistData([rng.randint(1, 2) for _ in arrows])
    return q, tw


def test_euler_identity_random():
    rng = random.Random(99)
    for _ in range(20):
        q, tw = _random_instance(rng)
        V = _random_rep(rng, q, tw, F101)
        W = _random_rep(rng, q, tw, F101)
        h = len(hom_space(V, W))
        e1 = ext1_dim(V, W)
        vertex_term = sum(V.dims[i] * W.dims[i] for i in range(q.n_vertices))
        arrow_term = sum(tw[a] * V.dims[t] * W.dims[h_]
                         for a, (t, h_) in enumerate(q.arrows))
        assert h - vertex_term + arrow_term == e1


def test_build_extension_split_and_nonsplit():
    V = TwistedRep(TRIPLE, UNTWISTED, Q, [0, 1], [ExactMatrix(Q, 0, 1)])
    W = TwistedRep(TRIPLE, UNTWISTED, Q, [1, 0], [ExactMatrix(Q, 1, 0)])
    split = build_extension(V, W, [ExactMatrix(Q, 1, 1, [[0]])])
    assert is_split_extension(split, V, W)
    E = build_extension(V, W, [ExactMatrix(Q, 1, 1, [[1]])])
    assert E.dims == (1, 1)
    assert E.phi[0].to_lists() == [[Fraction(1)]]
    assert not is_split_extension(E, V, W)


def test_build_extension_jordan_block():
    V = loop_rep(Q, [[0]])
    E = build_extension(V, V, [ExactMatrix(Q, 1, 1, [[1]])])
    assert E.phi[0].to_lists() == [[Fraction(0), Fraction(1)],
                                   [Fraction(0), Fraction(0)]]
    assert not is_split_extension(E, V, V)


@pytest.mark.parametrize("e_dims", [[1, 3], [3, 1]])
def test_split_extension_checks_the_shape_of_e(e_dims):
    # on 0 -> 1, V and W of dims [1, 1] need E of dims [2, 2]
    q = Quiver(2, [(0, 1)])
    V = TwistedRep(q, UNTWISTED, Q, [1, 1], [ExactMatrix(Q, 1, 1, [[1]])])
    E = zero_maps(q, UNTWISTED, Q, e_dims)
    with pytest.raises(ValueError, match="vertex"):
        is_split_extension(E, V, V)


def test_build_extension_shape_check():
    V = loop_rep(Q, [[0]])
    with pytest.raises(ValueError):
        build_extension(V, V, [ExactMatrix(Q, 2, 1)])


def test_build_extension_field_check():
    # eta over Q handed to a pair over F_101 raises, and is not coerced
    V = loop_rep(F101, [[3]])
    with pytest.raises(ValueError, match="field"):
        build_extension(V, V, [ExactMatrix(Q, 1, 1, [[Fraction(1, 2)]])])


def _gen_pairs(field=None, seeds=50):
    """(seed, V, W) for gen's vector seeds below seeds, both orders, over field if given."""
    for seed in range(seeds):
        doc = generate_document(seed)
        if field is not None:
            doc["field"] = field
        modules = load_instance(doc).modules
        for V, W in ((modules["V"], modules["W"]), (modules["W"], modules["V"])):
            yield seed, V, W


# sha256 over the shape and sorted nonzeros of every arrow map of E, for
# every Ext^1 class of gen's vector seeds 0-49 in both orders (525 classes)
EXTENSION_DIGEST = "c0e4eb667dd8acc32212071a41e5046b63fb488a7bd2ec8501d0d9cddd375399"


def test_extensions_pinned():
    digest = hashlib.sha256()
    for _, V, W in _gen_pairs():
        for etas in ext1_classes(V, W):
            for m in build_extension(V, W, etas).phi:
                digest.update(repr((m.shape, sorted(m.nonzeros()))).encode())
    assert digest.hexdigest() == EXTENSION_DIGEST


def _with_cells(E, a, cells):
    """E with the {(row, column): value} cells as its arrow map phi[a]."""
    out = MatrixBuilder(E.field, *E.phi[a].shape)
    out.add_cells((i, j, x) for (i, j), x in cells.items())
    phi = list(E.phi)
    phi[a] = out.build()
    return TwistedRep(E.quiver, E.twist, E.field, E.dims, phi)


def _perturbed(rng, E, V, W) -> dict:
    """{kind: E with one cell perturbed} for each kind that E has a cell for.  Each
    copy breaks W -> E or E -> V, whatever eta is."""
    sites = {"psi changed": [], "psi moved": [], "phi dropped": [], "phi moved left": [],
             "bottom-left added": []}
    for a, (t, h) in enumerate(V.quiver.arrows):
        wt, vt, wh, ncols = W.dims[t], V.dims[t], W.dims[h], E.phi[a].ncols
        for i, row in enumerate(E.phi[a].sparse_rows()):
            for col in row:
                if col % (wt + vt) < wt:
                    sites["psi changed"].append((a, i, col))
                    if col + 1 < ncols and col + 1 not in row:
                        sites["psi moved"].append((a, i, col))
                elif i >= wh:
                    sites["phi dropped"].append((a, i, col))
                    if wt and col % (wt + vt) == wt:    # into the bottom-left block
                        sites["phi moved left"].append((a, i, col))
        sites["bottom-left added"] += [(a, i, col) for i in range(wh, E.dims[h])
                                       for col in range(ncols) if col % (wt + vt) < wt]
    out = {}
    for kind, found in sites.items():
        if found:
            a, i, col = rng.choice(found)
            cells = {(r, c): x for r, c, x in E.phi[a].nonzeros()}
            if kind == "psi changed":
                cells[i, col] *= 2
            elif kind == "psi moved":
                cells[i, col + 1] = cells.pop((i, col))
            elif kind == "phi dropped":
                del cells[i, col]
            elif kind == "phi moved left":
                cells[i, col - 1] = cells.pop((i, col))
            else:
                cells[i, col] = rng.randrange(1, 101)
            out[kind] = _with_cells(E, a, cells)
    return out


@pytest.mark.parametrize("field", [None, "q"])
def test_read_back_agrees_with_the_unit_block_route(field):
    # build_extension reads E's blocks back where the unit-block route checks
    # W -> E -> V by products: both accept every Ext^1 class and refuse each
    # copy of it with one cell changed, dropped, added or moved.  A phi cell
    # moved into the bottom-left block leaves the cell count as it was, so
    # only the test that W's columns are empty below row wh refuses it
    rng = random.Random(31)
    kinds = set()
    for seed, V, W in _gen_pairs(field):
        for etas in ext1_classes(V, W):
            E = build_extension(V, W, etas)
            assert (_blocks_read_back(E, V, W), unit_block_verdict(E, V, W)) == (True, True)
            for kind, bad in _perturbed(rng, E, V, W).items():
                verdicts = (_blocks_read_back(bad, V, W), unit_block_verdict(bad, V, W))
                assert verdicts == (False, False), (seed, kind)
                kinds.add(kind)
    assert kinds == {"psi changed", "psi moved", "phi dropped", "phi moved left",
                     "bottom-left added"}


def test_build_extension_refuses_a_misplaced_cell(monkeypatch):
    # a placement whose offsets are one column off, every cell moved right
    # cyclically: build_extension raises exactly when the unit-block route
    # refuses the E it placed
    import quivhom.rep as rep_module
    built = []

    class Shifted(MatrixBuilder):
        def add(self, i, j, value):
            super().add(i, (j + 1) % self.ncols, value)

        def build(self):
            built.append(super().build())
            return built[-1]

    verdicts = []
    for _, V, W in _gen_pairs():
        for etas in ext1_classes(V, W):
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(rep_module, "MatrixBuilder", Shifted)
                try:
                    build_extension(V, W, etas)
                    refused = False
                except CrossCheckError:
                    refused = True
            E = TwistedRep(V.quiver, V.twist, V.field, [w + v for w, v in zip(W.dims, V.dims)],
                           built)
            assert refused == (not unit_block_verdict(E, V, W))
            verdicts.append(refused)
    assert len(verdicts) == 525 and any(verdicts)


def test_split_iff_eta_in_image_of_delta():
    rng = random.Random(41)
    for _ in range(10):
        q, tw = _random_instance(rng)
        V = _random_rep(rng, q, tw, F101, max_dim=2)
        W = _random_rep(rng, q, tw, F101, max_dim=2)
        delta = delta_matrix(hom_complex(V, W))
        # a class in the image splits
        f_vec = [rng.randrange(101) for _ in range(delta.ncols)]
        image = delta.apply(f_vec)
        etas = []
        pos = 0
        for a, (t, h) in enumerate(q.arrows):
            rows, cols = W.dims[h], tw[a] * V.dims[t]
            block = [[image[pos + c * rows + r] for c in range(cols)]
                     for r in range(rows)]
            etas.append(ExactMatrix(F101, rows, cols, block))
            pos += rows * cols
        E = build_extension(V, W, etas)
        assert is_split_extension(E, V, W)
        # cokernel representatives do not split
        for etas in ext1_classes(V, W)[:3]:
            E = build_extension(V, W, etas)
            assert not is_split_extension(E, V, W)


def _etas(V, W, C, vec):
    """The blocks eta_a of a vector of C1 = ⊕_a Hom(M_a⊗V_ta, W_ha), C = hom_complex(V, W)."""
    return [unvec_matrix(V.field, vec, W.dims[h], V.twist[a] * V.dims[t], C.arrow_start[a])
            for a, (t, h) in enumerate(V.quiver.arrows)]


def _with_bottom_left(rng, E, V, W):
    """E with a random block X_a added to each arrow map: [[psi, eta], [X, phi]]."""
    phi = []
    for a, (t, h) in enumerate(V.quiver.arrows):
        wt, vt, wh = W.dims[t], V.dims[t], W.dims[h]
        x = MatrixBuilder(V.field, E.dims[h], E.phi[a].ncols)
        for i in range(V.dims[h]):
            for col in range(V.twist[a] * wt):
                j, s = divmod(col, wt)
                x.add(wh + i, j * (wt + vt) + s, rng.choice([0, rng.randrange(1, 101)]))
        phi.append(add(E.phi[a], x.build()))
    return TwistedRep(E.quiver, E.twist, E.field, E.dims, phi)


def _reads_the_pinned_system(E, V, W) -> bool:
    """_split_system's free matrix, and its right-hand side read off E, equal
    those that the pinned-column filter of hom_complex(V, E) gives."""
    (free, rhs), (pinned, pinned_rhs) = _split_system(E, V, W), pinned_split_system(E, V, W)
    return (free == pinned and len(rhs) == len(pinned_rhs) and _canonical(
        V.field, dict(enumerate(rhs))) == _canonical(V.field, dict(enumerate(pinned_rhs))))


@pytest.mark.parametrize("field", [None, "q"])
def test_split_agrees_with_the_stacked_solve(field):
    # the split decision against the section rows stacked over delta(V, E):
    # cokernel classes, image classes (which split), the zero class, and an
    # E whose bottom-left block is nonzero, where W is no subrepresentation
    rng = random.Random(7)
    verdicts = {}
    draws = []
    for seed, V, W in _gen_pairs(field):
        C = hom_complex(V, W)
        delta = delta_matrix(C)
        image = delta.apply([rng.randrange(101) for _ in range(delta.ncols)])
        classes = [build_extension(V, W, etas) for etas in ext1_classes(V, W)]
        zero = build_extension(V, W, _etas(V, W, C, [0] * delta.nrows))
        cases = [("cokernel", E) for E in classes] + [
            ("image", build_extension(V, W, _etas(V, W, C, image))), ("zero", zero)]
        # a bottom-left block on the zero class and on the first cokernel class
        cases += [("bottom-left", _with_bottom_left(rng, E, V, W))
                  for E in [zero] + classes[:1]]
        for kind, E in cases:
            split = is_split_extension(E, V, W)
            assert split == stacked_split(E, V, W), (seed, kind)
            verdicts.setdefault(kind, set()).add(split)
            if kind != "cokernel":
                assert _reads_the_pinned_system(E, V, W), (seed, kind)
            draws.append((seed, kind, E, V, W, split))
    assert verdicts == {"cokernel": {False}, "image": {True}, "zero": {True},
                        "bottom-left": {False, True}}
    # the same draws in a shuffled order: the stored free system serves only
    # a draw of its own key, and a bottom-left draw differs from its class in
    # W columns alone
    random.Random(13).shuffle(draws)
    for seed, kind, E, V, W, split in draws:
        assert is_split_extension(E, V, W) == split, (seed, kind)


@pytest.mark.parametrize("field, seeds", [(None, 50), ("q", 10)])
def test_split_system_is_read_off_e(field, seeds):
    # for every class, the right-hand side read off E's V columns, and the
    # free system stored by key, are those of the pinned walk over hom_complex(V, E)
    classes = 0
    for seed, V, W in _gen_pairs(field, seeds):
        for etas in ext1_classes(V, W):
            assert _reads_the_pinned_system(build_extension(V, W, etas), V, W), seed
            classes += 1
    assert classes == (525 if field is None else 77)


def test_split_sequence_walks_once_per_pair(monkeypatch):
    # the free system depends on V and on E's W columns, which every class of
    # one pair shares: the split sequence walks hom_complex(V, E) once per pair
    # that has classes, not once per class
    import quivhom.rep as rep
    sequences = [(V, W, ext1_classes(V, W)) for _, V, W in _gen_pairs()]
    walks = []
    walk = rep.hom_complex
    monkeypatch.setattr(rep, "_FREE_SYSTEM", [None, None, None])
    monkeypatch.setattr(rep, "hom_complex", lambda V, E: walks.append(E) or walk(V, E))
    for V, W, classes in sequences:
        for etas in classes:
            assert not is_split_extension(build_extension(V, W, etas), V, W)
    assert sum(len(classes) for _, _, classes in sequences) == 525
    assert len(walks) == sum(1 for _, _, classes in sequences if classes) == 61


def _hom_dim(X, Y) -> int:
    """dim Hom(X, Y), the nullity of delta."""
    delta = delta_matrix(hom_complex(X, Y))
    return delta.ncols - rank(delta)


# over Q on seeds 0-9 only: on seeds 0-49 its Fraction eliminations of End(E)
# took 12 s (Python 3.11, 2 vCPUs), four times this test's budget
@pytest.mark.parametrize("field, seeds", [(None, 50), ("q", 10)])
def test_split_iff_no_endomorphism_is_lost(field, seeds):
    # 0 -> W -> E -> V -> 0 splits iff dim End(E) = dim End(V ⊕ W): scaling eta
    # by t is conjugation by diag(t, 1), so V ⊕ W lies in the closure of E's
    # orbit, and a proper degeneration has fewer endomorphisms (Riedtmann 1986;
    # Bongartz 1996).  Over F_p the dimensions are those over its closure, where
    # E splits iff it does over F_p (Noether-Deuring).  Draws: every cokernel
    # class, eta = delta(f), delta(f) plus a class, and the zero class
    rng = random.Random(23)
    verdicts = {}
    for seed, V, W in _gen_pairs(field, seeds):
        C = hom_complex(V, W)
        delta = delta_matrix(C)
        end_v_plus_w = _hom_dim(V, V) + _hom_dim(W, W) + _hom_dim(V, W) + _hom_dim(W, V)
        classes = ext1_classes(V, W)
        image = _etas(V, W, C, delta.apply([rng.randrange(101) for _ in range(delta.ncols)]))
        draws = [("cokernel", etas) for etas in classes] + [
            ("image", image), ("zero", _etas(V, W, C, [0] * delta.nrows))]
        if classes:
            draws.append(("image plus a class", list(map(add, image, rng.choice(classes)))))
        for kind, etas in draws:
            E = build_extension(V, W, etas)
            split = is_split_extension(E, V, W)
            assert split == (_hom_dim(E, E) == end_v_plus_w), (seed, kind)
            verdicts.setdefault(kind, set()).add(split)
    assert verdicts == {"cokernel": {False}, "image": {True}, "zero": {True},
                        "image plus a class": {False}}


def test_ext1_classes_count_matches_dimension():
    rng = random.Random(17)
    q, tw = _random_instance(rng)
    V = _random_rep(rng, q, tw, F101)
    W = _random_rep(rng, q, tw, F101)
    assert len(ext1_classes(V, W)) == ext1_dim(V, W)


def test_only_a_read_reduced_form_is_reduced(monkeypatch):
    # rank, cokernels, consistency and so the split decision read the forward
    # pass alone; kernel bases and solutions read the reduced form
    import quivhom.linalg as linalg
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce",
                        lambda field, echelon: calls.append(1) or reduce(field, echelon))

    def reductions(f, *args):
        calls.clear()
        f(*args)
        return len(calls)
    m = ExactMatrix(F101, 3, 3, [[1, 2, 0], [2, 4, 0], [0, 1, 1]])     # rank 2
    assert solve(m, [1, 0, 0]) is None and solve(m, [1, 2, 0]) is not None
    assert [reductions(rank, m), reductions(cokernel_representatives, m),
            reductions(solve, m, [1, 0, 0])] == [0, 0, 0]
    assert [reductions(kernel_basis, m), reductions(solve, m, [1, 2, 0])] == [1, 1]

    def split_sequence(V, W):
        # the bench's split item: every class is built and found not to split
        for etas in ext1_classes(V, W):
            assert not is_split_extension(build_extension(V, W, etas), V, W)
    modules = load_instance(generate_document(0)).modules
    assert ext1_classes(modules["V"], modules["W"])
    assert reductions(split_sequence, modules["V"], modules["W"]) == 0


def _split_sequence_calls(*codes) -> list:
    """The callers' names of each call to a code object in codes while ext1_classes,
    then build_extension and is_split_extension on every class, run on gen's
    vector seeds 0-49."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_back.f_code.co_name)

    classes = 0
    for _, V, W in _gen_pairs():
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for etas in ext1_classes(V, W):
                is_split_extension(build_extension(V, W, etas), V, W)
                classes += 1
        finally:
            sys.setprofile(previous)
    assert classes == 525
    return calls


def test_split_sequence_multiplies_no_matrix():
    # build_extension checks W -> E -> V by reading E's blocks back, with no
    # product: neither the split sequence's check nor its solve multiplies
    assert _split_sequence_calls(ExactMatrix.__matmul__.__code__, kron.__code__) == []


def test_split_sequence_builds_no_dense_matrix(monkeypatch):
    # ext1_classes, build_extension and is_split_extension place their cells
    # with MatrixBuilder, and solve appends its right-hand side to m's own
    # rows: no step of the split sequence fills a dense list for ExactMatrix()
    assert _split_sequence_calls(ExactMatrix.__init__.__code__) == []

    # a row of [m | b] with nothing appended is m's own row, not a copy
    import quivhom.linalg as linalg
    seen = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda m, *args: seen.append(m.sparse_rows()) or echelon(m, *args))
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix(F101, rows, cols, [[rng.choice([0, 0, rng.randrange(101)])
                                            for _ in range(cols)] for _ in range(rows)])
        b = [rng.choice([0, 0, rng.randrange(101)]) for _ in range(rows)]
        seen.clear()
        solve(m, b)
        assert [r is row for r, row in zip(seen[0], m.sparse_rows())] == [y == 0 for y in b]
