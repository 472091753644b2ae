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
"""

from itertools import product

from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from quivhom.linalg import ExactMatrix, FieldSpec, rank
from quivhom.quiver import Quiver
from quivhom.rep import TwistData, TwistedRep, delta_matrix, hom_complex

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
