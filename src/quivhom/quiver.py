"""Quivers: finite directed multigraphs with an ordered arrow list.

The path spaces e_i A_l of a quiver are built from its arrows, one arrow
at a time, in resolution.py.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph; vertices 0..n-1, arrows as (tail, head).

    The arrow list order is canonical: every direct-sum-indexed matrix in
    the package orders its arrow blocks by this list.
    """

    n_vertices: int
    arrows: Tuple[Tuple[int, int], ...]

    def __init__(self, n_vertices: int, arrows):
        n_vertices = operator.index(n_vertices)
        if n_vertices <= 0:
            raise ValueError("a quiver needs at least one vertex")
        arrows = tuple((operator.index(t), operator.index(h)) for t, h in arrows)
        for k, (t, h) in enumerate(arrows):
            if not (0 <= t < n_vertices and 0 <= h < n_vertices):
                raise ValueError(f"arrow {k} endpoints ({t},{h}) out of range")
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "arrows", arrows)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)
