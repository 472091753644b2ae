"""Span tracing of quivhom's layers from outside the package.

`Tracer.install()` wraps each traced function and replaces it in every
place the package binds it: module globals of every `quivhom.*` module
(modules do `from .linalg import rank`, so one function has many
bindings) and class attributes such as `ExactMatrix.__matmul__`.
Spans (name, start, end, parent span, item id) are kept in memory and
written out when the run ends; self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

# (layer name, module, attribute path) of every traced function
SPANNED = [
    ("linalg.rank", "quivhom.linalg", "rank"),
    ("linalg.solve", "quivhom.linalg", "solve"),
    ("linalg.kernel_basis", "quivhom.linalg", "kernel_basis"),
    ("linalg.cokernel_representatives", "quivhom.linalg", "cokernel_representatives"),
    ("linalg.matmul", "quivhom.linalg", "ExactMatrix.__matmul__"),
    ("linalg.kron", "quivhom.linalg", "kron"),
    ("resolution.resolution_matrices", "quivhom.resolution", "resolution_matrices"),
    ("resolution.check_resolution_exactness", "quivhom.resolution",
     "check_resolution_exactness"),
    ("resolution.lift_beta", "quivhom.resolution", "lift_beta"),
    ("rep.delta_matrix", "quivhom.rep", "delta_matrix"),
    ("rep.hom_space", "quivhom.rep", "hom_space"),
    ("rep.ext1_classes", "quivhom.rep", "ext1_classes"),
    ("rep.build_extension", "quivhom.rep", "build_extension"),
    ("rep.is_split_extension", "quivhom.rep", "is_split_extension"),
    ("rep.is_morphism", "quivhom.rep", "RepMorphism.is_morphism"),
    ("sheaf.delta0_matrix", "quivhom.sheaf", "delta0_matrix"),
    ("sheaf.delta1_matrix", "quivhom.sheaf", "delta1_matrix"),
    ("sheaf.ext_quiver_sheaf", "quivhom.sheaf", "ext_quiver_sheaf"),
    ("sheaf.cech_hyper", "quivhom.sheaf", "cech_hyper"),
    ("instances.load_instance", "quivhom.instances", "load_instance"),
    ("cli.main", "quivhom.cli", "main"),
]
# called per matrix entry: counted, not spanned
COUNTED = [("linalg.builder_add", "quivhom.linalg", "MatrixBuilder.add")]
COUNTED_NAMES = {name for name, _, _ in COUNTED}
# spans whose first argument's size is recorded
SIZED = {"linalg.rank", "linalg.solve"}

STATS_SPAN = "trace.stats"

# (metric, unit) reported by the traced run, in BENCHMARK.json order
PER_LAYER = [
    ("linalg.rank.calls", "count"), ("linalg.rank.s", "s"),
    ("linalg.rank.cells", "count"), ("linalg.rank.nnz", "count"),
    ("linalg.rank.distinct_frac", "frac"),
    ("linalg.solve.calls", "count"), ("linalg.solve.s", "s"),
    ("linalg.solve.cells", "count"),
    ("linalg.kernel_basis.calls", "count"), ("linalg.kernel_basis.s", "s"),
    ("linalg.cokernel_representatives.calls", "count"),
    ("linalg.cokernel_representatives.s", "s"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul.s", "s"),
    ("linalg.kron.calls", "count"), ("linalg.kron.s", "s"),
    ("linalg.builder_add.calls", "count"),
    ("resolution.resolution_matrices.calls", "count"),
    ("resolution.resolution_matrices.self_s", "s"),
    ("resolution.check_resolution_exactness.self_s", "s"),
    ("resolution.lift_beta.self_s", "s"),
    ("rep.delta_matrix.calls", "count"), ("rep.delta_matrix.self_s", "s"),
    ("rep.hom_space.self_s", "s"), ("rep.ext1_classes.self_s", "s"),
    ("rep.build_extension.self_s", "s"), ("rep.is_split_extension.self_s", "s"),
    ("rep.is_morphism.calls", "count"), ("rep.is_morphism.s", "s"),
    ("sheaf.delta0_matrix.s", "s"), ("sheaf.delta1_matrix.s", "s"),
    ("sheaf.ext_quiver_sheaf.self_s", "s"), ("sheaf.cech_hyper.self_s", "s"),
    ("instances.load_instance.calls", "count"), ("instances.load_instance.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]


def import_package() -> List[object]:
    """Import quivhom and every submodule, so that every binding exists."""
    pkg = importlib.import_module("quivhom")
    for info in pkgutil.iter_modules(pkg.__path__, "quivhom."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quivhom" or name.startswith("quivhom."))]


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def bindings(modules, target) -> List[Tuple[object, str]]:
    """Every (module or class, name) in the package that holds `target`."""
    found = []
    seen_classes = set()
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is target:
                found.append((mod, name))
            if (isinstance(value, type) and id(value) not in seen_classes
                    and value.__module__.startswith("quivhom")):
                seen_classes.add(id(value))
                for cname, cvalue in list(vars(value).items()):
                    if cvalue is target:
                        found.append((value, cname))
    return found


def matrix_stats(m) -> Tuple[int, int, tuple]:
    """(cells, nonzeros, content key) of an ExactMatrix, computed by inspection."""
    cells = m.nrows * m.ncols
    # an integer numpy array is read directly; any other storage through to_lists()
    a = getattr(m, "_a", None)
    if a is not None and getattr(a, "dtype", None) is not None and a.dtype.kind in "iu":
        nnz = int((a != 0).sum())
        content = hashlib.blake2b(a.tobytes(), digest_size=16).digest()
    else:
        rows = m.to_lists()
        nnz = sum(1 for row in rows for x in row if x != 0)
        content = hashlib.blake2b(repr(rows).encode(), digest_size=16).digest()
    return cells, nnz, (str(m.field), m.nrows, m.ncols, content)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    ITEM_SPAN = "item"

    def __init__(self):
        # span: [name, start, end, parent index or -1, item id]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.item: Optional[str] = None
        self.counts: Counter = Counter()
        self.sizes: Dict[str, List[tuple]] = defaultdict(list)
        self.originals: Dict[str, object] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sized:
                # bookkeeping is its own span, so no layer's self time holds it
                s = self.open(STATS_SPAN)
                self.sizes[name].append(matrix_stats(args[0]))
                self.close(s)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = import_package()
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for name, module, attr in table:
                original = _resolve(module, attr)
                self.originals[name] = original
                wrapper = (self._spanned(name, original) if kind == "span"
                           else self._counted(name, original))
                for owner, key in bindings(modules, original):
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def unwrapped_bindings(self) -> List[str]:
        """Bindings in the package that still hold an original function."""
        modules = import_package()
        return [f"{getattr(owner, '__name__', owner)}.{key} ({name})"
                for name, original in self.originals.items()
                for owner, key in bindings(modules, original)]

    # -- results -----------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total time (outermost calls) and self time."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            agg = totals[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[idx]
            if not self._inside(idx, name):
                agg["s"] += t1 - t0
        return totals

    def _inside(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer metric but trace.overhead_frac, which needs an untraced run."""
        totals = self.layer_totals()
        out: Dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if metric == "trace.overhead_frac":
                continue
            if stat in ("cells", "nnz"):
                col = 0 if stat == "cells" else 1
                out[metric] = sum(s[col] for s in self.sizes[layer])
            elif stat == "distinct_frac":
                sizes = self.sizes[layer]
                out[metric] = (len({s[2] for s in sizes}) / len(sizes)) if sizes else 0.0
            elif layer in COUNTED_NAMES:
                out[metric] = self.counts[layer]
            else:
                out[metric] = totals[layer][stat] if layer in totals else 0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "item": item}) + "\n")
