"""The standard resolution: assembly, exactness, lifting."""

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest

from quivhom.generate import generate_document
from quivhom import cli, linalg, resolution
from quivhom.instances import load_instance
from quivhom.linalg import ExactMatrix, FieldSpec, MatrixBuilder, _echelon, rank
from quivhom.quiver import Quiver
from quivhom.rep import TwistData, TwistedRep
from quivhom.resolution import (
    GradedBasis,
    check_resolution_exactness,
    lift_beta,
    resolution_layout,
    resolution_matrices,
)

from oracles import (all_ok, arrows_into, column_list, eps_matrix, is_zero, path_elements, scale,
                     submatrix, zero_maps)
from path_oracle import Path, enumerate_paths, path_matrix, path_tensor_dim

Q = FieldSpec.rationals()
F101 = FieldSpec.prime(101)
LOOP = Quiver(1, [(0, 0)])
UNTWISTED = TwistData([1])


def simple_loop_module(field=Q):
    # k[x]/(x) as a module over the loop-quiver path algebra
    return TwistedRep(LOOP, UNTWISTED, field, [1], [ExactMatrix(field, 1, 1, [[0]])])


def resolve(V, n):
    """(layout, eps, d) of the resolution of V truncated at degree n."""
    layout = resolution_layout(V, n)
    return (layout, *resolution_matrices(V, layout))


def test_graded_basis_dimensions():
    q = Quiver(1, [(0, 0), (0, 0)])
    tw = TwistData([2, 1])
    basis = GradedBasis(q, tw, 3)
    # dim e_0 A_l = (2 + 1)^l: one factor 2 or 1 per arrow choice
    for l in range(4):
        assert basis.dim[(0, l)] == 3 ** l


def test_degree_zero_truncation():
    V = TwistedRep(LOOP, UNTWISTED, Q, [2],
                   [ExactMatrix(Q, 2, 2, [[0, 1], [0, 0]])])
    eps, d = resolution_matrices(V, resolution_layout(V, 0))
    assert d.nrows == 0
    assert eps.shape == (2, 2)
    assert rank(eps) == 2           # v -> (v_i)_i is injective


def test_polynomial_example_matrices():
    # eps(1) = (1, 0, 0) on the duals of 1, x, x^2; ker(d) is one-dimensional
    V = simple_loop_module()
    layout = resolution_layout(V, 2)
    eps, d = eps_matrix(V, layout), resolution_matrices(V, layout)[1]
    duals = [layout.f_offsets[(0, l)] for l in range(3)]    # of 1, x, x^2
    assert eps.shape == (3, 1)
    assert [column_list(eps, 0)[c] for c in duals] == [Fraction(1), Fraction(0),
                                                       Fraction(0)]
    assert d.shape == (2, 3)
    assert d.ncols - rank(d) == 1
    # d(alpha)(p) = alpha(x p) - x alpha(p) with x acting by zero
    assert [[row[c] for c in duals] for row in d.to_lists()] == [[0, 1, 0],
                                                                 [0, 0, 1]]


def test_acyclic_triple_resolution():
    q = Quiver(2, [(1, 0)])
    V = TwistedRep(q, UNTWISTED, Q, [1, 1], [ExactMatrix(Q, 1, 1, [[1]])])
    eps, d = resolution_matrices(V, resolution_layout(V, 2))
    assert rank(d) == d.nrows                # d surjective
    assert d.ncols - rank(d) == 2            # nullity = dim V


def test_exactness_requires_positive_degree():
    V = simple_loop_module()
    with pytest.raises(ValueError):
        check_resolution_exactness(V, *resolve(V, 0))


def test_exactness_zero_module():
    V = zero_maps(LOOP, UNTWISTED, Q, [0])
    report = check_resolution_exactness(V, *resolve(V, 2))
    assert all_ok(report)


def test_exactness_jordan_block():
    V = TwistedRep(LOOP, UNTWISTED, Q, [2],
                   [ExactMatrix(Q, 2, 2, [[0, 1], [0, 0]])])
    assert all_ok(check_resolution_exactness(V, *resolve(V, 3)))


def _random_rep(rng, max_vertices=3, max_arrows=4, max_dim=3, max_twist=2):
    n = rng.randint(1, max_vertices)
    arrows = [(rng.randrange(n), rng.randrange(n))
              for _ in range(rng.randint(1, max_arrows))]
    q = Quiver(n, arrows)
    tw = TwistData([rng.randint(1, max_twist) for _ in arrows])
    dims = [rng.randint(0, max_dim) for _ in range(n)]
    phi = []
    for a, (t, h) in enumerate(arrows):
        rows, cols = dims[h], tw[a] * dims[t]
        phi.append(ExactMatrix(F101, rows, cols,
                               [[rng.randrange(101) for _ in range(cols)]
                                for _ in range(rows)]))
    return TwistedRep(q, tw, F101, dims, phi)


def test_exactness_random_instances_all_degrees():
    rng = random.Random(3)
    for _ in range(8):
        V = _random_rep(rng)
        for n in range(1, 5):
            assert all_ok(check_resolution_exactness(V, *resolve(V, n)))


def test_exactness_random_rational_instance():
    rng = random.Random(19)
    for _ in range(3):
        n = rng.randint(1, 2)
        arrows = [(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(1, 2))]
        q = Quiver(n, arrows)
        tw = TwistData([rng.randint(1, 2) for _ in arrows])
        dims = [rng.randint(1, 2) for _ in range(n)]
        phi = []
        for a, (t, h) in enumerate(arrows):
            rows, cols = dims[h], tw[a] * dims[t]
            phi.append(ExactMatrix(Q, rows, cols,
                                   [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                     for _ in range(cols)] for _ in range(rows)]))
        V = TwistedRep(q, tw, Q, dims, phi)
        assert all_ok(check_resolution_exactness(V, *resolve(V, 3)))


def test_lift_zero_beta_gives_zero_alpha():
    V = simple_loop_module()
    layout, eps, d = resolve(V, 2)
    alpha = lift_beta(V, layout, [0] * layout.g_total, d)
    assert len(alpha) == layout.f_total
    assert all(x == 0 for x in alpha)


def test_lift_monomial_dual_example():
    # beta the dual of x: alpha vanishes in degree 0 and is 1 on x
    V = simple_loop_module()
    layout, eps, d = resolve(V, 1)
    alpha = lift_beta(V, layout, [1], d)
    assert alpha[layout.f_offsets[(0, 0)]] == 0
    assert alpha[layout.f_offsets[(0, 1)]] == Fraction(1)


def test_lift_random_round_trip():
    rng = random.Random(8)
    for _ in range(10):
        V = _random_rep(rng)
        layout, eps, d = resolve(V, rng.randint(1, 3))
        beta = [rng.randrange(101) for _ in range(layout.g_total)]
        alpha = lift_beta(V, layout, beta, d)
        assert alpha is not None
        # cross-check the verified identity once more through the matrices
        assert d.apply(alpha) == [V.field.element(x) for x in beta]


def test_lift_shape_validation():
    V = simple_loop_module()
    layout, eps, d = resolve(V, 1)
    with pytest.raises(ValueError):
        lift_beta(V, layout, [], d)


def test_lift_reports_a_failed_recheck():
    # alpha lifts beta through d, so 2d·alpha = 2beta misses beta
    V = _random_rep(random.Random(5))
    layout, eps, d = resolve(V, 2)
    beta = [1] * layout.g_total
    assert lift_beta(V, layout, beta, d) is not None
    assert lift_beta(V, layout, beta, scale(d, 2)) is None


def test_composite_d_eps_vanishes():
    rng = random.Random(21)
    for _ in range(5):
        V = _random_rep(rng)
        layout = resolution_layout(V, 3)
        eps, d = eps_matrix(V, layout), resolution_matrices(V, layout)[1]
        assert is_zero(d @ eps)


def test_resolution_and_its_checks_make_no_matrix_product():
    # eps, the lift and the exactness check walk the recursion in d's
    # coordinates, cell by cell: none makes a Kronecker or a matrix product.
    # The check compares d's rows with the walk instead of forming d @ eps.
    names = {linalg.kron.__code__: "kron", ExactMatrix.__matmul__.__code__: "matmul"}
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for seed in range(50):
            for V in load_instance(generate_document(seed)).modules.values():
                layout = resolution_layout(V, 4)
                eps, d = resolution_matrices(V, layout)
                assert lift_beta(V, layout, [1] * layout.g_total, d) is not None
                assert calls == {}, seed
                check_resolution_exactness(V, layout, eps, d)
                assert calls == {}, seed
    finally:
        sys.setprofile(previous)


def test_exactness_sees_a_disagreement_that_d_eps_hides():
    # phi = 0 on a loop: eps's rows above degree 0 are empty, so an entry
    # added to d in a column of degree 1 keeps d @ eps = 0, rank(d) and the
    # nullity; only the comparison of d's rows with the recursion sees it
    V = zero_maps(LOOP, UNTWISTED, F101, [2])
    layout, eps, d = resolve(V, 2)
    g, k = layout.g_offsets[(0, 1)], layout.f_offsets[(0, 1)]
    rows = list(d.sparse_rows())
    rows[g] = {**rows[g], k: 5}
    stray = ExactMatrix._wrap(F101, tuple(rows), d.ncols)
    assert is_zero(stray @ eps_matrix(V, layout)) and rank(stray) == rank(d)
    assert all_ok(check_resolution_exactness(V, layout, eps, d))
    report = check_resolution_exactness(V, layout, eps, stray)
    assert report.eps_injective and report.d_surjective
    assert not report.ker_d_eq_im_eps


# One wrong input per field of the exactness report.  The walk of
# _codings_agree never visits the row or column added, so the codings of phi
# still agree and only the field named fails.
EXACTNESS_BREAKS = {
    # a zero row more in d: rank d falls short of its rows
    "d_surjective": lambda eps, d: (eps, ExactMatrix._wrap(d.field, d.sparse_rows() + ({},),
                                                           d.ncols)),
    # a zero column more in d: its nullity exceeds dim V by one
    "ker_d_eq_im_eps": lambda eps, d: (eps, ExactMatrix._wrap(d.field, d.sparse_rows(),
                                                              d.ncols + 1)),
    # eps's first row emptied: rank eps is dim V − 1
    "eps_injective": lambda eps, d: (ExactMatrix._wrap(eps.field, ({},) + eps.sparse_rows()[1:],
                                                       eps.ncols), d),
}


@pytest.mark.parametrize("field", EXACTNESS_BREAKS)
def test_exactly_one_exactness_field_fails(field):
    for seed in range(50):
        for V in load_instance(generate_document(seed)).modules.values():
            layout, eps, d = resolve(V, 4)
            report = check_resolution_exactness(V, layout, *EXACTNESS_BREAKS[field](eps, d))
            assert dataclasses.asdict(report) == {f: f != field for f in EXACTNESS_BREAKS}


def test_exactness_check_makes_no_subtraction(monkeypatch):
    # eps is ranked from its identity rows, each a pivot at once, and every
    # row of d leads in a column of its own
    calls = collections.Counter()
    subtract = linalg._subtract_multiple

    def counted(*args):
        calls["subtract"] += 1
        return subtract(*args)

    monkeypatch.setattr(linalg, "_subtract_multiple", counted)
    for seed in range(50):
        for V in load_instance(generate_document(seed)).modules.values():
            layout, eps, d = resolve(V, 4)
            assert all_ok(check_resolution_exactness(V, layout, eps, d))
    assert calls == {}


def test_check_brings_no_coordinate_through_field_element(monkeypatch, tmp_path):
    # check's inputs are ints, which every coercion takes by the inline rule
    # x % p; FieldSpec.element is left for Fractions, strings and floats
    calls = collections.Counter()
    element = FieldSpec.element

    def counted(self, value):
        calls["element"] += 1
        return element(self, value)

    codes = []
    monkeypatch.setattr(FieldSpec, "element", counted)
    for seed in range(50):
        path = tmp_path / f"gen-{seed}.json"
        path.write_text(json.dumps(generate_document(seed)), encoding="utf-8")
        for name in ("V", "W"):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(["check", str(path), name, "--json"]))
    assert codes == [cli.EXIT_OK] * 100
    assert calls == {}


def test_check_walks_twice_and_builds_only_eps_degree_zero_block(tmp_path, monkeypatch):
    # a dense loop over F_101: check walks the recursion once to compare d's
    # rows with it and once to lift beta, and ranks eps's degree-0 block,
    # the identity on V, instead of building eps's path actions
    n, rng = 40, random.Random(40)
    phi = [[rng.randrange(1, 101) for _ in range(n)] for _ in range(n)]
    path = tmp_path / "dense-loop.json"
    path.write_text(json.dumps({
        "field": {"fp": 101}, "quiver": {"vertices": 1, "arrows": [[0, 0]]},
        "mode": "vector", "twists": [1], "modules": {"V": {"dims": [n], "phi": [phi]}}}),
        encoding="utf-8")
    walks, built = [], []
    walk = resolution._recursion

    def matrices(V, layout):
        eps, d = resolution_matrices(V, layout)
        built.append((V, eps))
        return eps, d

    monkeypatch.setattr(resolution, "_recursion", lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(cli, "resolution_matrices", matrices)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", str(path), "V", "--max-degree", "4"]) == cli.EXIT_OK
    assert len(walks) == 2
    [(V, eps)] = built
    assert len(list(eps.nonzeros())) == V.total_dim() == n


def test_lift_rejects_a_float_coordinate():
    V = simple_loop_module(F101)
    layout, eps, d = resolve(V, 1)
    with pytest.raises(TypeError):
        lift_beta(V, layout, [1.0], d)


# sha256 over the shape and sorted entries of eps (the full oracle matrix) and
# d at degree 4, for V and W of gen vector seeds 0-49.  d codes phi apart from
# the recursion that eps is built from, and the exactness check compares the
# two codings entry by entry; this pins each matrix on its own.
RESOLUTION_DIGEST = "f2370ae2d28b7080faeee033d7fd637260557a8633048d492253c572dfa1a3b0"


def test_resolution_matrices_pinned():
    digest = hashlib.sha256()
    for seed in range(50):
        instance = load_instance(generate_document(seed))
        for name in ("V", "W"):
            V = instance.modules[name]
            layout = resolution_layout(V, 4)
            eps, d = eps_matrix(V, layout), resolution_matrices(V, layout)[1]
            digest.update(repr((seed, name, eps.shape, sorted(eps.nonzeros()),
                                d.shape, sorted(d.nonzeros()))).encode())
    assert digest.hexdigest() == RESOLUTION_DIGEST


# -- the block basis, against path actions computed one path at a time -------

def _block_basis(quiver, twist, max_degree):
    """(path, tensor index) of each basis element of e_i A_l, in order.

    Enumerates e_h A_{l+1} = ⊕_{a into h} M_a ⊗ e_ta A_l, arrows in quiver
    order and the M_a index most significant; also returns where each
    arrow's block starts.
    """
    listing = {(i, 0): [(Path.trivial(i), 0)] for i in range(quiver.n_vertices)}
    starts = {}
    for l in range(max_degree):
        for h in range(quiver.n_vertices):
            listing[(h, l + 1)] = []
            for a in arrows_into(quiver, h):
                starts[(a, l)] = len(listing[(h, l + 1)])
                for m in range(twist[a]):
                    for q, k in listing[(quiver.arrows[a][0], l)]:
                        p = Path(q.tail, h, q.arrows + (a,))
                        # PathBasis: the last arrow applied is most significant
                        listing[(h, l + 1)].append(
                            (p, m * path_tensor_dim(twist, q) + k))
    return listing, starts


def _check_blocks_against_path_actions(V, n):
    layout = resolution_layout(V, n)
    basis = layout.basis
    listing, starts = _block_basis(V.quiver, V.twist, n)
    assert basis.block_offset == starts
    assert basis.dim == {key: len(elems) for key, elems in listing.items()}
    assert {key: [j for j, _ in elems] for key, elems in path_elements(basis).items()} == {
        key: [p.tail for p, _ in elems] for key, elems in listing.items()}
    # a permutation of the (path, tensor index) pairs of enumerate_paths
    for (l, i), paths in enumerate_paths(V.quiver, n).items():
        assert sorted(listing[(i, l)], key=repr) == sorted(
            ((p, k) for p in paths for k in range(path_tensor_dim(V.twist, p))),
            key=repr)

    eps, d = eps_matrix(V, layout), resolution_matrices(V, layout)[1]
    total = V.total_dim()
    v_offsets = [sum(V.dims[:j]) for j in range(len(V.dims))]
    for (i, l), elems in listing.items():
        di = V.dims[i]
        for x, (p, k) in enumerate(elems):
            # eps(v) on the basis element (p, k) is (p, k)·v
            want = MatrixBuilder(V.field, di, total)
            for r, c, y in path_matrix(V, p, k).nonzeros():
                want.add(r, v_offsets[p.tail] + c, y)
            r0 = layout.f_offsets[(i, l)] + x * di
            assert submatrix(eps, r0, r0 + di, 0, total) == want.build()

    # every row of d leads with 1, in a column no other row leads in, so
    # elimination takes each row as a pivot as it stands
    lead = {}
    for r, c, _ in d.nonzeros():
        lead[r] = min(lead.get(r, c), c)
    assert len(lead) == d.nrows == len(set(lead.values()))
    assert all(d[r, c] == 1 for r, c in lead.items())


@pytest.mark.parametrize("seed", range(30))
def test_eps_blocks_match_path_actions_on_generated_instances(seed):
    instance = load_instance(generate_document(seed))
    for V in instance.modules.values():
        _check_blocks_against_path_actions(V, 4)


def test_eps_blocks_match_path_actions_on_twisted_two_loop_quiver():
    rng = random.Random(7)
    q = Quiver(1, [(0, 0), (0, 0)])
    tw = TwistData([2, 3])
    phi = [ExactMatrix(F101, 2, 2 * m, [[rng.randrange(101) for _ in range(2 * m)]
                                        for _ in range(2)]) for m in tw.dims]
    _check_blocks_against_path_actions(TwistedRep(q, tw, F101, [2], phi), 3)


def test_rank_of_d_adopts_every_row_as_its_pivot():
    # each row of d leads with its +1 in a column of its own, so elimination
    # takes every row as it is: no copy, no scaling, no subtraction
    for seed in range(50):
        instance = load_instance(generate_document(seed))
        for name in ("V", "W"):
            V = instance.modules[name]
            _, d = resolution_matrices(V, resolution_layout(V, 4))
            own = {id(row) for row in d.sparse_rows()}
            pivots = _echelon(d)
            assert len(pivots) == d.nrows
            assert all(id(row) in own for _, row in pivots)
