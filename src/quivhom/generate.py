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

from .instances import Instance, InstanceError, load_instance
from .linalg import CrossCheckError, FieldSpec
from .rep import TwistedRep
from .resolution import resolution_layout
from .sheaf import QSheafP1, cech_dims

GEN_FIELD = FieldSpec.prime(101)

# size guards, keeping the acceptance-suite runtime bounds comfortable
_MAX_RESOLUTION_DIM = 1200
_RESOLUTION_DEGREE = 4
_MAX_CECH_DIM = 2000
# every bound must be at most this: a draw is made in full before the size
# guards see it, and redrawn until they pass, so a huge bound need not end
MAX_BOUND = 8


def _document(mode: str, n: int, arrows: list, twists: list, modules: dict) -> dict:
    return {"field": {"fp": GEN_FIELD.modulus}, "quiver": {"vertices": n, "arrows": arrows},
            "mode": mode, "twists": twists, "modules": modules}


def _checked(document: dict) -> Instance:
    """The instance load_instance builds from a drawn document; a rejection is a bug."""
    try:
        return load_instance(document)
    except InstanceError as e:
        raise CrossCheckError(f"gen drew a document that does not load: {e}") from None


def _vector_size_ok(V: TwistedRep) -> bool:
    layout = resolution_layout(V, _RESOLUTION_DEGREE)
    return max(layout.f_total, layout.g_total) <= _MAX_RESOLUTION_DIM


def generate_vector_document(rng: random.Random, max_vertices: int, max_arrows: int,
                             max_dim: int, max_twist: int) -> dict:
    p = GEN_FIELD.modulus
    while True:
        n = rng.randint(1, max_vertices)
        n_arrows = rng.randint(1, max_arrows)
        arrows = [[rng.randrange(n), rng.randrange(n)] for _ in range(n_arrows)]
        twist = [rng.randint(1, max_twist) for _ in range(n_arrows)]
        modules = {}
        for name in ("V", "W"):
            dims = [rng.randint(0, max_dim) for _ in range(n)]
            if all(d == 0 for d in dims):
                dims[rng.randrange(n)] = rng.randint(1, max_dim)
            phi = [[[rng.randrange(p) for _ in range(m * dims[t])] for _ in range(dims[h])]
                   for m, (t, h) in zip(twist, arrows)]
            modules[name] = {"dims": dims, "phi": phi}
        document = _document("vector", n, arrows, twist, modules)
        if all(map(_vector_size_ok, _checked(document).modules.values())):
            return document


def _sorted_twists(rng: random.Random, rank: int, max_twist: int) -> List[int]:
    return sorted((rng.randint(-max_twist, max_twist) for _ in range(rank)),
                  reverse=True)


def _p1_size_ok(V: QSheafP1, W: QSheafP1) -> bool:
    # bound the overlap block T2 of the Cech total complex, in both orders
    return all(cech_dims(X, Y)[2] <= _MAX_CECH_DIM for X, Y in ((V, W), (W, V)))


def generate_p1_document(rng: random.Random, max_vertices: int, max_arrows: int,
                         max_dim: int, max_twist: int) -> dict:
    p = GEN_FIELD.modulus
    while True:
        n = rng.randint(1, max_vertices)
        n_arrows = rng.randint(1, max_arrows)
        arrows = [[rng.randrange(n), rng.randrange(n)] for _ in range(n_arrows)]
        m_twists = [_sorted_twists(rng, rng.randint(1, max_dim), max_twist)
                    for _ in range(n_arrows)]
        modules = {}
        for name in ("V", "W"):
            v_twists = [_sorted_twists(rng, rng.randint(0, max_dim), max_twist)
                        for _ in range(n)]
            if all(not tw for tw in v_twists):
                v_twists[rng.randrange(n)] = _sorted_twists(
                    rng, rng.randint(1, max_dim), max_twist)
            # the twist data alone: phi_a is rank V_h x rank (M_a ⊗ V_t), every entry null
            phi = [[[None] * (len(m_twists[a]) * len(v_twists[t]))] * len(v_twists[h])
                   for a, (t, h) in enumerate(arrows)]
            modules[name] = {"twists": v_twists, "phi": phi}
        sheaves = _checked(_document("p1", n, arrows, m_twists, modules)).modules
        if not _p1_size_ok(sheaves["V"], sheaves["W"]):
            continue
        for name, sheaf in sheaves.items():
            # entry (r, c) of phi_a: a form of degree dst[r] − src[c], or null
            modules[name]["phi"] = [
                [[None if dr < dc else [rng.randrange(p) for _ in range(dr - dc + 1)]
                  for dc in tb.bundle.twists] for dr in sheaf.vertex_bundles[h].twists]
                for tb, (_, h) in zip(sheaf.tensors, arrows)]
        document = _document("p1", n, arrows, m_twists, modules)
        _checked(document)
        return document


def generate_document(seed: int, mode: str = "vector", max_vertices: int = 4,
                      max_arrows: int = 5, max_dim: int = 3,
                      max_twist: int = 2) -> dict:
    """Deterministic function of the seed; the output has passed load_instance,
    so it always validates."""
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
