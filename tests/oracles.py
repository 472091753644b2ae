"""Reference code that more than one test compares against.

No request runs these, so they live beside the tests, not in the package;
tests/test_reachability.py keeps the package to what requests run.  A helper
with a single test caller lives in that test file instead.
"""

from quivhom.linalg import ExactMatrix, MatrixBuilder, _canonical, _echelon, _reduce, rank, solve
from quivhom.rep import RepMorphism, TwistedRep, connecting_matrix, delta_matrix, hom_complex
from quivhom.resolution import ResolutionLayout, _recursion
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


def is_zero(m: ExactMatrix) -> bool:
    return not any(m.sparse_rows())


def scale(m: ExactMatrix, c) -> ExactMatrix:
    c = m.field.element(c)
    rows = tuple(_canonical(m.field, {j: c * x for j, x in r.items()})
                 for r in m.sparse_rows())
    return ExactMatrix._wrap(m.field, rows, m.ncols)


def add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.field != b.field or a.shape != b.shape:
        raise ValueError("matrices live in different spaces")
    rows = []
    for r1, r2 in zip(a.sparse_rows(), b.sparse_rows()):
        acc = dict(r1)
        for j, y in r2.items():
            acc[j] = acc.get(j, 0) + y
        rows.append(_canonical(a.field, acc))
    return ExactMatrix._wrap(a.field, tuple(rows), a.ncols)


def sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return add(a, scale(b, -1))


def submatrix(m: ExactMatrix, r0: int, r1: int, c0: int, c1: int) -> ExactMatrix:
    if not (0 <= r0 <= r1 <= m.nrows and 0 <= c0 <= c1 <= m.ncols):
        raise IndexError(f"rows {r0}:{r1}, columns {c0}:{c1} outside a "
                         f"{m.nrows}x{m.ncols} matrix")
    rows = tuple({j - c0: x for j, x in r.items() if c0 <= j < c1}
                 for r in m.sparse_rows()[r0:r1])
    return ExactMatrix._wrap(m.field, rows, c1 - c0)


def vstack(blocks) -> ExactMatrix:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack of no blocks")
    cols = blocks[0].ncols
    for b in blocks:
        if b.ncols != cols:
            raise ValueError("vstack blocks disagree on column count")
        if b.field != blocks[0].field:
            raise ValueError("vstack blocks over different fields")
    rows = tuple(r for b in blocks for r in b.sparse_rows())
    return ExactMatrix._wrap(blocks[0].field, rows, cols)


def hstack(blocks) -> ExactMatrix:
    blocks = list(blocks)
    if not blocks:
        raise ValueError("hstack of no blocks")
    rows = [dict(r) for r in blocks[0].sparse_rows()]
    c = blocks[0].ncols
    for b in blocks[1:]:
        if b.nrows != len(rows):
            raise ValueError("hstack blocks disagree on row count")
        if b.field != blocks[0].field:
            raise ValueError("hstack blocks over different fields")
        for dst, src in zip(rows, b.sparse_rows()):
            for j, x in src.items():
                dst[c + j] = x
        c += b.ncols
    return ExactMatrix._wrap(blocks[0].field, tuple(rows), c)


def solve_columns(m: ExactMatrix, b: ExactMatrix):
    """X with m·X = b, or None when some column of b is not in m's image.

    Every column is solved by one elimination of [m | b]: the system is
    inconsistent iff a pivot lies in b's columns, and X is read off the
    reduced form.
    """
    if b.nrows != m.nrows:
        raise ValueError(f"right-hand side has {b.nrows} rows, not {m.nrows}")
    echelon = _echelon(hstack([m, b]))
    if echelon and echelon[-1][0] >= m.ncols:
        return None
    x = [{}] * m.ncols
    for c, row in _reduce(m.field, echelon):
        x[c] = {j - m.ncols: v for j, v in row.items() if j >= m.ncols}
    return ExactMatrix._wrap(m.field, tuple(x), b.ncols)


def column_list(m: ExactMatrix, j: int) -> list:
    if not 0 <= j < m.ncols:
        raise IndexError(f"column {j} outside a {m.nrows}x{m.ncols} matrix")
    zero = m.field.zero()
    return [r.get(j, zero) for r in m.sparse_rows()]


def vec_matrix(m: ExactMatrix) -> list:
    """Column-major vectorisation, the inverse of linalg.unvec_matrix."""
    return [x for j in range(m.ncols) for x in column_list(m, j)]


def cokernel_dimension(m: ExactMatrix) -> int:
    return m.nrows - rank(m)


# -- representations -------------------------------------------------------------

def zero_maps(quiver, twist, field, dims) -> TwistedRep:
    """The TwistedRep with the given vertex dimensions and every arrow map zero."""
    phi = [
        ExactMatrix(field, dims[h], twist[a] * dims[t])
        for a, (t, h) in enumerate(quiver.arrows)
    ]
    return TwistedRep(quiver, twist, field, dims, phi)


def one_coordinate(d: int) -> int:
    return 1


def scalar_times(d: int, cf) -> tuple:
    return ((0, 0, 1, cf),)


def generic_delta_matrix(C) -> ExactMatrix:
    """delta_matrix(C) by the generic placement: one coordinate per summand, a scalar run each."""
    return connecting_matrix(C, one_coordinate, scalar_times)


def stacked_split(E, V, W) -> bool:
    """is_split_extension by one solve of delta(V, E)·s = 0 stacked under the
    section rows proj_i ∘ s_i = id, one row per entry of each id_{V_i}."""
    C = hom_complex(V, E)
    delta = delta_matrix(C)
    section = MatrixBuilder(V.field, sum(d * d for d in V.dims), delta.ncols)
    rhs = []
    for i, (dw, dv) in enumerate(zip(W.dims, V.dims)):
        # entry (r, c) of proj_i ∘ s_i is entry (dw + r, c) of s_i
        for c in range(dv):
            for r in range(dv):
                section.add(len(rhs), C.vertex_start[i] + c * (dw + dv) + dw + r, 1)
                rhs.append(int(r == c))
    rhs += [0] * delta.nrows
    return solve(vstack([section.build(), delta]), rhs) is not None


def unit_block(field, rows: int, cols: int, shift: int, n: int) -> ExactMatrix:
    """The rows x cols matrix with a 1 at each (r, r + shift), r < n: W_i -> E_i, E_i -> V_i."""
    out = MatrixBuilder(field, rows, cols)
    out.add_run(0, shift, n, 1)
    return out.build()


def unit_block_verdict(E, V, W) -> bool:
    """build_extension's check by products: the canonical inclusion W -> E and
    projection E -> V, E_i = W_i ⊕ V_i, pass RepMorphism.is_morphism."""
    inclusion = [unit_block(E.field, e, w, 0, w) for e, w in zip(E.dims, W.dims)]
    projection = [unit_block(E.field, v, e, w, v) for e, w, v in zip(E.dims, W.dims, V.dims)]
    return (RepMorphism(W, E, inclusion).is_morphism()
            and RepMorphism(E, V, projection).is_morphism())


def eps_matrix(V, layout) -> ExactMatrix:
    """The full matrix of eps: row k holds x·v for the basis element x of coordinate k.

    eps(v)(x) = x·v.  Degree 0 comes last, vertex by vertex: there eps
    projects V onto each V_i.  Higher rows follow resolution._recursion with
    beta = 0, merging the rows one degree lower.
    """
    field, total = V.field, V.total_dim()
    rows = [{}] * (layout.f_total - total) + [{v: field.one()} for v in range(total)]
    for k, _, base, cell in _recursion(V, layout):
        acc = {}
        for cf, s in cell:
            for v, y in rows[base + s].items():
                acc[v] = acc.get(v, 0) + cf * y
        rows[k] = _canonical(field, acc)
    return ExactMatrix._wrap(field, tuple(rows), total)


def path_actions(V, basis) -> dict:
    """The action x·v on V of each basis element x of e_i A_l of a GradedBasis.

    Column element·dim V + v of the returned [(i, l)] holds x·v for the
    element x and the v-th basis vector of V = ⊕_j V_j; it is zero unless v
    lies in V_tail(x).  eps(v)(x) = x·v, so these are the rows of eps, regrouped.
    """
    layout = ResolutionLayout(basis, V.dims)
    rows = eps_matrix(V, layout).sparse_rows()
    total = V.total_dim()
    actions = {}
    for (i, l), start in layout.f_offsets.items():
        di, n = V.dims[i], basis.dim[(i, l)]
        actions[(i, l)] = ExactMatrix._wrap(V.field, tuple(
            {x * total + v: y for x in range(n) for v, y in rows[start + x * di + r].items()}
            for r in range(di)), n * total)
    return actions


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
