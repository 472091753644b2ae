"""Hom by counting: over F_2 and F_3, |Hom(V, W)| = p^hom.

Every tuple (f_i) of matrices f_i : V_i -> W_i is enumerated and kept when
f_ha ∘ phi_a = psi_a ∘ (1⊗f_ta) for every arrow, in plain list arithmetic:
no ExactMatrix, no Hom complex, no elimination.  The count must be p^hom,
hom read off delta as its nullity.  Vector mode is hereditary, so one count
also confirms Ext^1: dim Ext^1 = hom − χ, χ the Euler form
Σ_i dim V_i·dim W_i − Σ_a m_a·dim V_ta·dim W_ha (C. M. Ringel, "Hall
algebras and quantum groups", Invent. Math. 101, 1990).

Draws take 1 to 3 vertices and 1 to 3 arrows, loops and parallel arrows
included, twist dimensions 1 or 2 and vertex dimensions up to 2, and 1 to
12 Hom entries over F_2 (2^12 tuples at most) or 1 to 8 over F_3 (3^8).
A second oracle, below, checks Frobenius's formula for one-loop modules at
sizes no count reaches.
"""

import random
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st
from sympy import GF, QQ, symbols
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from quivhom.instances import load_instance
from quivhom.linalg import ExactMatrix, FieldSpec, rank
from quivhom.quiver import Quiver
from quivhom.rep import (TwistData, TwistedRep, delta_matrix, ext1_classes, hom_complex,
                         hom_space)
from quivhom.sheaf import cech_hyper, ext_quiver_sheaf

from oracles import ext1_dim

# most Hom entries to enumerate, per prime
BUDGET = {2: 12, 3: 8}


def _matrix(draw, p, rows, cols):
    return [[draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def rep_pairs(draw):
    p = draw(st.sampled_from(sorted(BUDGET)))
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    twist = draw(st.lists(st.integers(1, 2), min_size=len(arrows), max_size=len(arrows)))
    dims = [draw(st.lists(st.sampled_from([1, 2, 0]), min_size=n, max_size=n)) for _ in "VW"]
    assume(1 <= sum(v * w for v, w in zip(*dims)) <= BUDGET[p])
    maps = [[_matrix(draw, p, d[h], m * d[t]) for (t, h), m in zip(arrows, twist)]
            for d in dims]
    return p, arrows, twist, dims, maps


def _times(x, y, cols, p):
    """x·y mod p, y having cols columns (and possibly no rows)."""
    return [[sum(row[k] * y[k][c] for k in range(len(y))) % p for c in range(cols)]
            for row in x]


def _one_tensor(m, f, cols):
    """1⊗f on M⊗V, M of dimension m, M's index most significant; f has cols columns."""
    return [[f[r][s] if k == l else 0 for l in range(m) for s in range(cols)]
            for k in range(m) for r in range(len(f))]


def _count_morphisms(p, arrows, twist, dims, maps):
    (dv, dw), (phi, psi) = dims, maps
    shapes = list(zip(dw, dv))
    count = 0
    for flat in product(range(p), repeat=sum(r * c for r, c in shapes)):
        f, pos = [], 0
        for r, c in shapes:
            f.append([list(flat[pos + k * c:pos + (k + 1) * c]) for k in range(r)])
            pos += r * c
        count += all(
            _times(f[h], phi[a], m * dv[t], p)
            == _times(psi[a], _one_tensor(m, f[t], dv[t]), m * dv[t], p)
            for a, ((t, h), m) in enumerate(zip(arrows, twist)))
    return count


def _rep(field, quiver, twist, dims, maps):
    return TwistedRep(quiver, twist, field, dims, [
        ExactMatrix(field, dims[h], twist[a] * dims[t], maps[a])
        for a, (t, h) in enumerate(quiver.arrows)])


@seed(16)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(rep_pairs())
def test_hom_count_is_p_to_the_nullity_of_delta(pair):
    p, arrows, twist, dims, maps = pair
    field, quiver, m = FieldSpec.prime(p), Quiver(len(dims[0]), arrows), TwistData(twist)
    V, W = (_rep(field, quiver, m, d, x) for d, x in zip(dims, maps))
    delta = delta_matrix(hom_complex(V, W))
    hom = delta.ncols - rank(delta)
    assert _count_morphisms(p, arrows, twist, dims, maps) == p ** hom
    chi = (sum(v * w for v, w in zip(*dims))
           - sum(k * dims[0][t] * dims[1][h] for (t, h), k in zip(arrows, twist)))
    assert ext1_dim(V, W) == hom - chi


# -- Frobenius: one-loop modules at sizes no count reaches ----------------------
#
# On one vertex with one loop of twist 1, Hom(V, W) = {X : Xφ = ψX}, and
# dim Hom = Σ_{i,j} deg gcd(a_i, b_j), where the a_i are the invariant factors
# of φ and the b_j those of ψ: the Smith form of xI − φ over K[x] (Frobenius;
# F. R. Gantmacher, "The Theory of Matrices", vol. 1, ch. VIII).  Here
# dim C0 = dim C1, so Ext^1 = Hom too.  The Smith form, from sympy, shares
# neither the summand walk nor the elimination.  Draws conjugate block-Jordan
# matrices with eigenvalues 0, 1 and 5, since a random dense matrix almost
# always gives Hom = 0.  The p1 degree-0 slice, M = O and V = O^n with
# constant forms, has the same Hom and Ext^1 and Ext^2 = 0.

FROBENIUS_FIELDS = {"F101": {"fp": 101}, "F5": {"fp": 5}, "Q": "q"}


def _jordan_conjugate(rng, n):
    """E·J·E⁻¹ for a block-Jordan J of size n >= 2 and a product E of elementary matrices."""
    a = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        end, value = min(start + rng.randint(1, 4), n), rng.choice((0, 1, 5))
        for k in range(start, end):
            a[k][k] = value
            if k + 1 < end:
                a[k][k + 1] = 1
        start = end
    for _ in range(n):
        # E = 1 + c·e_i e_jᵀ adds c times row j to row i; E⁻¹ then
        # subtracts c times column i from column j
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[j] -= c * row[i]
    return a


def _invariant_factors(ring, a):
    x, n = ring.gens[0], len(a)
    return invariant_factors(DomainMatrix(
        [[(x if r == c else ring.zero) - ring(a[r][c]) for c in range(n)] for r in range(n)],
        (n, n), ring))


def _one_loop_document(field, mode, phi, psi):
    if mode == "vector":
        modules = {name: {"dims": [len(m)], "phi": [m]} for name, m in (("V", phi), ("W", psi))}
    else:
        modules = {name: {"twists": [[0] * len(m)], "phi": [[[[x] for x in row] for row in m]]}
                   for name, m in (("V", phi), ("W", psi))}
    return {"field": field, "quiver": {"vertices": 1, "arrows": [[0, 0]]}, "mode": mode,
            "twists": [1 if mode == "vector" else [0]], "modules": modules}


@pytest.mark.parametrize("field", sorted(FROBENIUS_FIELDS))
def test_one_loop_hom_is_frobenius_formula(field):
    spec = FROBENIUS_FIELDS[field]
    ring = (QQ if spec == "q" else GF(spec["fp"]))[symbols("x")]
    rng = random.Random(f"frobenius-{field}")
    sizes = [(12, 10)] + [(rng.randint(2, 7), rng.randint(2, 7)) for _ in range(4)]
    for n, m in sizes:
        phi, psi = _jordan_conjugate(rng, n), _jordan_conjugate(rng, m)
        want = sum(ring.gcd(f, g).degree()
                   for f in _invariant_factors(ring, phi) for g in _invariant_factors(ring, psi))
        vector = load_instance(_one_loop_document(spec, "vector", phi, psi)).modules
        p1 = load_instance(_one_loop_document(spec, "p1", phi, psi)).modules
        for X, Y in (("V", "W"), ("W", "V")):
            V, W = vector[X], vector[Y]
            assert len(hom_space(V, W)) == len(ext1_classes(V, W)) == want, (n, m, X)
            C = hom_complex(p1[X], p1[Y])
            r = ext_quiver_sheaf(C)
            assert (r.ext0, r.ext1, r.ext2) == cech_hyper(C) == (want, want, 0), (n, m, X)
