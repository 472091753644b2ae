"""Path-product oracle: the action of A on a module, one explicit path at a time.

An independent reference for the block recursion of resolution.py.  A path
is the tuple of its arrow indices in application order (first arrow applied
first).  The tensor basis of M_p = M_{a_m} ⊗ ... ⊗ M_{a_0} has the factor of
the last arrow applied most significant.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from quivhom.linalg import ExactMatrix

from oracles import arrows_into, submatrix


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence, or a trivial path at a vertex."""

    tail: int
    head: int
    arrows: Tuple[int, ...]   # application order; empty for trivial paths

    @staticmethod
    def trivial(vertex: int) -> "Path":
        return Path(vertex, vertex, ())


def enumerate_paths(quiver, max_len: int) -> Dict[Tuple[int, int], List[Path]]:
    """All paths of length <= max_len, grouped by (length, head vertex)."""
    groups = {(0, i): [Path.trivial(i)] for i in range(quiver.n_vertices)}
    for length in range(1, max_len + 1):
        for i in range(quiver.n_vertices):
            groups[(length, i)] = [
                Path(shorter.tail, i, shorter.arrows + (a,))
                for a in arrows_into(quiver, i)
                for shorter in groups[(length - 1, quiver.arrows[a][0])]]
    return groups


def path_tensor_dim(twist, path: Path) -> int:
    d = 1
    for a in path.arrows:
        d *= twist[a]
    return d


def path_matrix(rep, path: Path, m_index: int) -> ExactMatrix:
    """Matrix V_tail(p) -> V_head(p) of the basis element m_index of M_p."""
    if not 0 <= m_index < path_tensor_dim(rep.twist, path):
        raise IndexError(f"tensor index {m_index} out of range")
    m = ExactMatrix.identity(rep.field, rep.dims[path.tail])
    for a in path.arrows:
        # the first arrow applied holds the least significant digit
        m_index, digit = divmod(m_index, rep.twist[a])
        d = rep.dims[rep.quiver.arrows[a][0]]
        m = submatrix(rep.phi[a], 0, rep.phi[a].nrows, digit * d, (digit + 1) * d) @ m
    return m
