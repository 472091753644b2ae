"""Workload definitions: seeded inputs, the item list, and output verdicts.

A workload is a fixed, ordered batch of items.  Each item is one user
request: a `quivhom` CLI command run through `quivhom.cli.main`, or, for
the split test that the CLI has no command for, one library call sequence.
Inputs are instance files written before the timed process starts; the
program sees only those files.

Instance `j` takes its structure (quiver, twists, dimensions, degrees)
from `quivhom gen --seed j` with the acceptance-suite bounds, so a batch
has the acceptance suite's shapes whatever the workload seed.  Every
matrix entry and form coefficient is then drawn afresh from the workload
seed.  Fixing the shapes keeps the cost of a batch steady from seed to
seed: with the shapes drawn from the seed as well, one pass of 50 vector
instances took from 3.6 s to 8.7 s depending on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

# generator bounds of the acceptance suite (tests/test_acceptance.py)
VECTOR_SHAPE = ["--max-vertices", "4", "--max-arrows", "5",
                "--max-dim", "3", "--max-twist", "2"]
P1_SHAPE = ["--max-vertices", "4", "--max-arrows", "5",
            "--max-dim", "3", "--max-twist", "3"]

# Degree of `check` over Q.  Degree 3 took 137 s for 50 instances at the
# seed commit and degree 4 did not finish in 10 minutes; degree 2 keeps
# the coefficient-growth tail (slowest item about 3 s).
Q_CHECK_DEGREE = 2
Q_ENTRY_RANGE = (-5, 5)


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int          # instances per batch
    kinds: tuple            # item kinds issued per instance, in order


WORKLOADS: Dict[str, Workload] = {
    "vector-fp": Workload("vector-fp", 50, ("ext", "checkV", "checkW", "split")),
    "vector-q": Workload("vector-q", 25, ("ext", "checkV", "checkW", "split")),
    "p1-sheaf": Workload("p1-sheaf", 200, ("hyper", "ext")),
}


@dataclass(frozen=True)
class Item:
    item_id: str
    kind: str
    path: str               # instance file, relative to the input directory
    argv: Optional[tuple]   # CLI arguments; None for the library-call item


def instance_file(k: int) -> str:
    return f"inst-{k:03d}.json"


def items_for(workload: Workload) -> List[Item]:
    out = []
    for k in range(workload.instances):
        f = instance_file(k)
        for kind in workload.kinds:
            argv: Optional[tuple]
            if kind == "ext" and workload.name.startswith("vector"):
                argv = ("ext", f, "V", "W", "--bases")
            elif kind == "ext":
                argv = ("ext", f, "V", "W")
            elif kind in ("checkV", "checkW"):
                argv = ("check", f, kind[-1])
                if workload.name == "vector-q":
                    argv += ("--max-degree", str(Q_CHECK_DEGREE))
            elif kind == "hyper":
                argv = ("hyper", f, "V", "W", "--verify")
            else:
                argv = None
            out.append(Item(f"{k:03d}.{kind}", kind, f, argv))
    return out


# -- input generation -----------------------------------------------------------

def _gen_text(gen_seed: int, mode: str) -> str:
    """The output of `quivhom gen` for one seed."""
    from quivhom.cli import main
    shape = VECTOR_SHAPE if mode == "vector" else P1_SHAPE
    argv = ["gen", "--seed", str(gen_seed), "--mode", mode] + shape
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"quivhom {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _redraw(doc: dict, draw) -> dict:
    """The document with every matrix entry or form coefficient replaced by draw()."""
    def entries(value):
        if isinstance(value, list):
            return [entries(v) for v in value]
        return None if value is None else draw()
    for module in doc["modules"].values():
        module["phi"] = entries(module["phi"])
    return doc


def write_inputs(workload: Workload, seed: int, out_dir: str) -> None:
    """Write the batch's instance files; a pure function of (workload, seed)."""
    os.makedirs(out_dir, exist_ok=True)
    mode = "p1" if workload.name == "p1-sheaf" else "vector"
    rng = random.Random(f"{workload.name}:{seed}")
    for k in range(workload.instances):
        doc = json.loads(_gen_text(k, mode))
        if workload.name == "vector-q":
            doc["field"] = "q"
            doc = _redraw(doc, lambda: rng.randint(*Q_ENTRY_RANGE))
        else:
            p = doc["field"]["fp"]
            doc = _redraw(doc, lambda: rng.randrange(p))
        with open(os.path.join(out_dir, instance_file(k)), "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")


# -- verdicts -------------------------------------------------------------------

def digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def _fields(report: str) -> Dict[str, str]:
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            out[key] = value
    return out


CHECK_FIELDS = ("eps_injective", "ker_d_eq_im_eps", "d_surjective",
                "lift_roundtrip")


def verdict(item: Item, code: int, report: str,
            previous: Dict[str, Dict[str, str]]) -> Optional[str]:
    """The program's own verdict on one item: None if it passed, else why not.

    `previous` maps the kinds already run on the same instance to their
    parsed report fields, for cross-checks between items.
    """
    if code != 0:
        return f"exit code {code}"
    fields = _fields(report)
    if item.kind in ("checkV", "checkW"):
        bad = [k for k in CHECK_FIELDS if fields.get(k) != "pass"]
        return f"check fields not pass: {bad}" if bad else None
    if item.kind == "hyper":
        return None if fields.get("verify") == "pass" else "verify is not pass"
    if item.kind == "split":
        split = fields.get("split")
        if split is None:
            return "no split line"
        return None if "true" not in split.split() else "a class splits"
    # ext
    if "--bases" in item.argv:
        n_basis = sum(1 for line in report.splitlines() if line.startswith("  f["))
        if str(n_basis) != fields.get("hom"):
            return f"{n_basis} basis morphisms but hom = {fields.get('hom')}"
    hyper = previous.get("hyper")
    if hyper is not None:
        les = [fields.get(k) for k in ("ext0", "ext1", "ext2")]
        hh = [hyper.get(k) for k in ("hh0", "hh1", "hh2")]
        if les != hh:
            return f"ext {les} disagrees with hypercohomology {hh}"
    return None


def check_batch(items: List[Item], codes: List[int], reports: List[str]
                ) -> List[Optional[str]]:
    """Verdicts of one pass over the batch, in item order."""
    seen: Dict[str, Dict[str, Dict[str, str]]] = {}
    out = []
    for item, code, report in zip(items, codes, reports):
        previous = seen.setdefault(item.path, {})
        out.append(verdict(item, code, report, previous))
        previous[item.kind] = _fields(report)
    return out
