"""Seeded random instance generation.

Documents are a pure function of the seed: the generator draws from one
`random.Random` stream and, when a draw would produce an instance too
large for desk-scale exact elimination, simply draws again from the same
stream.  Loops and multiple arrows between the same vertices occur with
positive probability.
"""

from __future__ import annotations

import random
from typing import List

from .instances import Instance, document_of_instance
from .linalg import ExactMatrix, FieldSpec
from .quiver import Quiver
from .rep import TwistData, TwistedRep
from .resolution import resolution_layout
from .sheaf import FormMatrix, QSheafP1, SplitBundle, cech_dims

GEN_FIELD = FieldSpec.prime(101)

# size guards, keeping the acceptance-suite runtime bounds comfortable
_MAX_RESOLUTION_DIM = 1200
_RESOLUTION_DEGREE = 4
_MAX_CECH_DIM = 2000
# every bound must be at most this: a draw is made in full before the size
# guards see it, and redrawn until they pass, so a huge bound need not end
MAX_BOUND = 8


def _vector_size_ok(V: TwistedRep) -> bool:
    layout = resolution_layout(V, _RESOLUTION_DEGREE)
    return max(layout.f_total, layout.g_total) <= _MAX_RESOLUTION_DIM


def generate_vector_document(rng: random.Random, max_vertices: int, max_arrows: int,
                             max_dim: int, max_twist: int) -> dict:
    field, p = GEN_FIELD, GEN_FIELD.modulus
    while True:
        n = rng.randint(1, max_vertices)
        n_arrows = rng.randint(1, max_arrows)
        quiver = Quiver(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(n_arrows)])
        twist = TwistData([rng.randint(1, max_twist) for _ in range(n_arrows)])
        modules = {}
        for name in ("V", "W"):
            dims = [rng.randint(0, max_dim) for _ in range(n)]
            if all(d == 0 for d in dims):
                dims[rng.randrange(n)] = rng.randint(1, max_dim)
            phi = [ExactMatrix(field, dims[h], twist[a] * dims[t],
                               [[rng.randrange(p) for _ in range(twist[a] * dims[t])]
                                for _ in range(dims[h])])
                   for a, (t, h) in enumerate(quiver.arrows)]
            modules[name] = TwistedRep(quiver, twist, field, dims, phi)
        if all(map(_vector_size_ok, modules.values())):
            return document_of_instance(Instance(field, quiver, "vector", twist, modules))


def _sorted_twists(rng: random.Random, rank: int, max_twist: int) -> List[int]:
    return sorted((rng.randint(-max_twist, max_twist) for _ in range(rank)),
                  reverse=True)


def _p1_size_ok(V: QSheafP1, W: QSheafP1) -> bool:
    # bound the overlap block T2 of the Cech total complex, in both orders
    return all(cech_dims(X, Y)[2] <= _MAX_CECH_DIM for X, Y in ((V, W), (W, V)))


def generate_p1_document(rng: random.Random, max_vertices: int, max_arrows: int,
                         max_dim: int, max_twist: int) -> dict:
    field, p = GEN_FIELD, GEN_FIELD.modulus
    while True:
        n = rng.randint(1, max_vertices)
        n_arrows = rng.randint(1, max_arrows)
        quiver = Quiver(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(n_arrows)])
        m_bundles = [SplitBundle(_sorted_twists(rng, rng.randint(1, max_dim), max_twist))
                     for _ in range(n_arrows)]
        sheaves = []
        for _ in ("V", "W"):
            v_twists = [_sorted_twists(rng, rng.randint(0, max_dim), max_twist)
                        for _ in range(n)]
            if all(not tw for tw in v_twists):
                v_twists[rng.randrange(n)] = _sorted_twists(
                    rng, rng.randint(1, max_dim), max_twist)
            # the twist data alone, as a sheaf with zero maps
            sheaves.append(QSheafP1.zero_maps(quiver, field, m_bundles,
                                              [SplitBundle(tw) for tw in v_twists]))
        if not _p1_size_ok(*sheaves):
            continue
        modules = {}
        for name, sheaf in zip(("V", "W"), sheaves):
            # entry (r, c) of phi_a: a form of degree dst[r] − src[c], or zero
            phi = []
            for tb, (_, h) in zip(sheaf.tensors, quiver.arrows):
                src, dst = tb.bundle, sheaf.vertex_bundles[h]
                phi.append(FormMatrix(field, src, dst, [
                    [() if dr < dc else [rng.randrange(p) for _ in range(dr - dc + 1)]
                     for dc in src.twists] for dr in dst.twists]))
            modules[name] = QSheafP1(quiver, field, m_bundles, sheaf.vertex_bundles, phi,
                                     _tensors=sheaf.tensors)
        return document_of_instance(Instance(field, quiver, "p1", tuple(m_bundles), modules))


def generate_document(seed: int, mode: str = "vector", max_vertices: int = 4,
                      max_arrows: int = 5, max_dim: int = 3,
                      max_twist: int = 2) -> dict:
    """Deterministic function of the seed; the output is the document of a
    built instance, so it always validates."""
    bounds = (max_vertices, max_arrows, max_dim, max_twist)
    if not all(1 <= b <= MAX_BOUND for b in bounds):
        raise ValueError(f"generation bounds must lie in 1..{MAX_BOUND}, got {bounds}")
    if mode not in ("vector", "p1"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    if mode == "vector":
        return generate_vector_document(rng, max_vertices, max_arrows,
                                        max_dim, max_twist)
    return generate_p1_document(rng, max_vertices, max_arrows, max_dim, max_twist)
