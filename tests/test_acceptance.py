"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

All equalities are exact (the arithmetic is exact); the only tolerances are
the stated runtime budgets of the randomised suites.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import os
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import sympy

import quivhom
from quivhom.generate import generate_document
from quivhom.instances import load_instance
from quivhom.linalg import ExactMatrix, FieldSpec
from quivhom.quiver import Quiver
from quivhom.rep import (
    TwistData,
    TwistedRep,
    build_extension,
    ext1_classes,
    hom_complex,
    hom_space,
    is_split_extension,
)
from quivhom.resolution import (
    check_resolution_exactness,
    lift_beta,
    resolution_layout,
    resolution_matrices,
)
from quivhom.sheaf import cech_hyper, ext_quiver_sheaf

from oracles import all_ok as all_checks_pass, euler_check, ext1_dim

FIXTURES = Path(__file__).parent / "fixtures"
N_VECTOR_INSTANCES = 50
N_P1_INSTANCES = 50
RESOLUTION_DEGREE = 4


def _report(number: int, description: str, ok: bool):
    print(f"criterion {number} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@lru_cache(maxsize=None)
def vector_instances():
    out = []
    for seed in range(N_VECTOR_INSTANCES):
        doc = generate_document(seed, mode="vector", max_vertices=4,
                                max_arrows=5, max_dim=3, max_twist=2)
        out.append(load_instance(doc))
    return tuple(out)


@lru_cache(maxsize=None)
def p1_instances():
    out = []
    for seed in range(N_P1_INSTANCES):
        doc = generate_document(seed, mode="p1", max_vertices=4,
                                max_arrows=5, max_dim=3, max_twist=3)
        out.append(load_instance(doc))
    return tuple(out)


def test_criterion_1_resolution_exactness():
    t0 = time.monotonic()
    all_ok = True
    for inst in vector_instances():
        for module in inst.modules.values():
            layout = resolution_layout(module, RESOLUTION_DEGREE)
            rep = check_resolution_exactness(
                module, layout, *resolution_matrices(module, layout))
            all_ok = all_ok and all_checks_pass(rep)
    elapsed = time.monotonic() - t0
    _report(1, f"resolution exactness, {N_VECTOR_INSTANCES} instances, "
               f"N={RESOLUTION_DEGREE}, {elapsed:.1f}s < 30s",
            all_ok and elapsed < 30.0)


def test_criterion_2_lifting_round_trip():
    count = 0
    rng = random.Random(20260809)
    ok = True
    per_instance = -(-200 // N_VECTOR_INSTANCES)   # ceil
    for inst in vector_instances():
        V = inst.modules["V"]
        layout = resolution_layout(V, RESOLUTION_DEGREE)
        eps, d = resolution_matrices(V, layout)
        for _ in range(per_instance):
            beta = [rng.randrange(101) for _ in range(layout.g_total)]
            # lift_beta re-verifies d(alpha) = beta by multiplication
            ok = lift_beta(V, layout, beta, d) is not None and ok
            count += 1
    _report(2, f"d(lift_beta(beta)) = beta for {count} >= 200 random beta",
            ok and count >= 200)


def test_criterion_3_field_euler_identity():
    ok = True
    for inst in vector_instances():
        V, W = inst.modules["V"], inst.modules["W"]
        q = V.quiver
        h = len(hom_space(V, W))
        e1 = ext1_dim(V, W)
        vertex_term = sum(V.dims[i] * W.dims[i] for i in range(q.n_vertices))
        arrow_term = sum(V.twist[a] * V.dims[t] * W.dims[hd]
                         for a, (t, hd) in enumerate(q.arrows))
        ok = ok and (h - vertex_term + arrow_term == e1)
    _report(3, "four-term identity dim Hom - sum h0 + sum arrow-terms = dim Ext1",
            ok)


def test_criterion_4_extension_realization():
    ok = True
    for inst in vector_instances():
        V, W = inst.modules["V"], inst.modules["W"]
        zero_eta = [ExactMatrix(V.field, W.dims[h], V.twist[a] * V.dims[t])
                    for a, (t, h) in enumerate(V.quiver.arrows)]
        ok = ok and is_split_extension(build_extension(V, W, zero_eta), V, W)
        for etas in ext1_classes(V, W):
            E = build_extension(V, W, etas)
            ok = ok and not is_split_extension(E, V, W)
    _report(4, "every cokernel-basis class non-split, zero class split", ok)


def _jordan_commutator_dim(m, n):
    """Direct commutator route, independent of delta_matrix (sympy)."""
    jm = sympy.zeros(m, m)
    for r in range(m - 1):
        jm[r, r + 1] = 1
    jn = sympy.zeros(n, n)
    for r in range(n - 1):
        jn[r, r + 1] = 1
    unknowns = sympy.symbols(f"x0:{n * m}")
    x = sympy.Matrix(n, m, unknowns)
    system = sympy.Matrix([[eq.coeff(u) for u in unknowns]
                           for eq in (x * jm - jn * x).vec()])
    return n * m - system.rank()


def test_criterion_5_polynomial_algebra_oracle():
    loop = Quiver(1, [(0, 0)])
    tw = TwistData([1])
    field = FieldSpec.rationals()

    def jordan(k):
        rows = [[1 if c == r + 1 else 0 for c in range(k)] for r in range(k)]
        return TwistedRep(loop, tw, field, [k], [ExactMatrix(field, k, k, rows)])

    ok = True
    for m in range(1, 5):
        for n in range(1, 5):
            via_delta_hom = len(hom_space(jordan(m), jordan(n)))
            via_delta_ext = ext1_dim(jordan(m), jordan(n))
            via_commutator = _jordan_commutator_dim(m, n)
            ok = ok and (via_delta_hom == via_delta_ext == via_commutator
                         == min(m, n))
    _report(5, "dim Hom = dim Ext1 = min(m,n) for Jordan blocks, two routes", ok)


def test_criterion_6_les_vs_hypercohomology():
    t0 = time.monotonic()
    ok = True
    for inst in p1_instances():
        C = hom_complex(inst.modules["V"], inst.modules["W"])
        r = ext_quiver_sheaf(C)
        ok = ok and (r.ext0, r.ext1, r.ext2) == cech_hyper(C)
    elapsed = time.monotonic() - t0
    _report(6, f"Ext via LES = hypercohomology on {N_P1_INSTANCES} instances, "
               f"{elapsed:.1f}s < 60s", ok and elapsed < 60.0)


def test_criterion_7_euler_identity_sheaves():
    ok = all(euler_check(inst.modules["V"], inst.modules["W"])
             for inst in p1_instances())
    _report(7, "alternating Ext sum equals the Euler pairing difference", ok)


def test_criterion_8_higgs_fixture():
    inst = load_instance(json.loads((FIXTURES / "higgs_p1.json").read_text()))
    C = hom_complex(inst.modules["V"], inst.modules["W"])
    r = ext_quiver_sheaf(C)
    les = (r.ext0, r.ext1, r.ext2)
    hyper = cech_hyper(C)
    _report(8, f"Higgs fixture gives (1, 3, 0) both ways; got {les} and {hyper}",
            les == (1, 3, 0) and hyper == (1, 3, 0))


def test_criterion_9_determinism(tmp_path):
    cmd = [sys.executable, "-m", "quivhom.cli"]
    # the subprocesses import the same package as this test, installed or not
    src = str(Path(quivhom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run(cmd + list(argv), capture_output=True, check=True,
                              env=env)

    gen1 = run("gen", "--seed", "11", "--mode", "p1")
    gen2 = run("gen", "--seed", "11", "--mode", "p1")
    instance = tmp_path / "instance.json"
    instance.write_bytes(gen1.stdout)
    rep1 = run("hyper", str(instance), "V", "W", "--verify", "--json")
    rep2 = run("hyper", str(instance), "V", "W", "--verify", "--json")
    _report(9, "identical seeds and inputs give byte-identical reports",
            gen1.stdout == gen2.stdout and rep1.stdout == rep2.stdout)
