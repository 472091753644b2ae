"""Reference code that more than one test compares against.

No request runs these, so they live beside the tests, not in the package;
tests/test_reachability.py keeps the package to what requests run.  A helper
with a single test caller lives in that test file instead.
"""

from quivhom.linalg import ExactMatrix, _canonical, rank
from quivhom.rep import TwistedRep, delta_matrix, hom_complex
from quivhom.sheaf import ext_quiver_sheaf, h0_dim, h1_dim


# -- quivers and path spaces ----------------------------------------------------

def arrows_into(quiver, i: int) -> list:
    return [a for a, (_, h) in enumerate(quiver.arrows) if h == i]


def arrows_out_of(quiver, i: int) -> list:
    return [a for a, (t, _) in enumerate(quiver.arrows) if t == i]


def is_acyclic(quiver) -> bool:
    # Kahn's algorithm on the vertex set.
    indeg = [0] * quiver.n_vertices
    for _, h in quiver.arrows:
        indeg[h] += 1
    queue = [i for i in range(quiver.n_vertices) if indeg[i] == 0]
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for a in arrows_out_of(quiver, i):
            h = quiver.arrows[a][1]
            indeg[h] -= 1
            if indeg[h] == 0:
                queue.append(h)
    return seen == quiver.n_vertices


def path_elements(basis):
    """The basis elements of each e_k A_l of a GradedBasis, in block order, as (tail, first).

    first = (a, m, r) says the element is y·x for x the m-th basis vector of
    M_a and y the r-th element of e_k A_{l-1}; it is None in degree 0.  It
    follows the recursion: (x_b ⊗ y)·x_a = x_b ⊗ (y·x_a), and x_b ⊗ y sits
    at y's place in copy m_b of the block of b.  This walk is the only
    numbering of the elements; callers count positions as they go.
    """
    q, twist = basis.quiver, basis.twist
    elems = {(k, 0): [(k, None)] for k in range(q.n_vertices)}
    for l in range(basis.max_degree):
        for k in range(q.n_vertices):
            level = []
            for b in arrows_into(q, k):
                t = q.arrows[b][0]
                for m_b in range(twist[b]):
                    for j, sub in elems[(t, l)]:
                        if sub is None:         # x_b ⊗ e_t = e_k·x_b
                            first = (b, m_b, 0)
                        else:
                            a, m, r = sub
                            first = (a, m, basis.block_offset[(b, l - 1)]
                                     + m_b * basis.dim[(t, l - 1)] + r)
                        level.append((j, first))
            elems[(k, l + 1)] = level
    return elems


# -- matrices --------------------------------------------------------------------

def transpose(m: ExactMatrix) -> ExactMatrix:
    cols = tuple({} for _ in range(m.ncols))
    for i, row in enumerate(m.sparse_rows()):
        for j, x in row.items():
            cols[j][i] = x
    return ExactMatrix._wrap(m.field, cols, m.nrows)


def scale(m: ExactMatrix, c) -> ExactMatrix:
    c = m.field.element(c)
    rows = tuple(_canonical(m.field, {j: c * x for j, x in r.items()})
                 for r in m.sparse_rows())
    return ExactMatrix._wrap(m.field, rows, m.ncols)


def cokernel_dimension(m: ExactMatrix) -> int:
    return m.nrows - rank(m)


# -- representations -------------------------------------------------------------

def zero_maps(quiver, twist, field, dims) -> TwistedRep:
    """The TwistedRep with the given vertex dimensions and every arrow map zero."""
    phi = [
        ExactMatrix.zeros(field, dims[h], twist[a] * dims[t])
        for a, (t, h) in enumerate(quiver.arrows)
    ]
    return TwistedRep(quiver, twist, field, dims, phi)


def ext1_dim(V, W) -> int:
    """dim Ext^1(V, W) = dim coker(delta_matrix); Ext^q vanishes for q >= 2."""
    return cokernel_dimension(delta_matrix(hom_complex(V, W)))


def all_ok(report) -> bool:
    """Every check of a resolution.ExactnessReport passed."""
    return report.eps_injective and report.ker_d_eq_im_eps and report.d_surjective


# -- sheaves on the projective line ----------------------------------------------

def dense(f) -> list:
    """The entries of a FormMatrix as a list of rows, () where nothing is stored."""
    return [[row.get(s, ()) for s in range(f.source.rank)] for row in f.rows]


def sheaf_hom_ext_dims(e, f) -> tuple:
    """(dim Hom, dim Ext^1) between split bundles on the projective line."""
    hom = sum(h0_dim(df - de) for de in e.twists for df in f.twists)
    ext = sum(h1_dim(df - de) for de in e.twists for df in f.twists)
    return hom, ext


def _euler_pair(e, f) -> int:
    return sum(df - de + 1 for de in e.twists for df in f.twists)


def euler_characteristic(V, W) -> int:
    r = ext_quiver_sheaf(hom_complex(V, W))
    return r.ext0 - r.ext1 + r.ext2


def euler_check(V, W) -> bool:
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
