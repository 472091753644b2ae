"""The loader's verdicts on malformed documents, pinned byte for byte.

A fixed corpus of documents runs through `quivhom ext`, and one sha256 is
taken over each run's exit code and standard error.  The corpus is
test_fuzz's mutations (replace a value, huge sizes, reshape, nest, stray
bytes, truncate) drawn from a fixed seed, plus hand-made bad coefficients
of vector matrices and of p1 forms.  A change to the loader that keeps
every verdict, message and JSON path keeps the digest.
"""

import contextlib
import hashlib
import io
import json
import random

from test_fuzz import _base, _paths, _replace

from quivhom.cli import main
from quivhom.instances import load_instance

HUGE = [10**6, 10**9, 10**18, 2**63, -(10**9), 10**100]
VALUES = HUGE + [-3, 0, 1, 2, 7, 40, True, False, None, 0.5, -1.0, 1e300,
                 "", "x", "1/2", "q", [], {}, [[0]]]


def _mutation(rng: random.Random) -> bytes:
    """One of test_fuzz's mutations of a gen document, drawn from rng."""
    mode = rng.choice(["vector", "p1"])
    doc = json.loads(_base(rng.randrange(10), mode))
    kind = rng.choice(["replace", "dims", "shape", "nest", "bytes", "truncate"])
    nest = None
    if kind in ("replace", "shape", "nest"):
        path = rng.choice(list(_paths(doc)))
        old = doc
        for key in path:
            old = old[key]
        if kind == "replace":
            new = rng.choice(VALUES)
        elif kind == "shape":
            new = rng.choice([[old], [old, old],
                              old[:-1] if isinstance(old, list) else {"x": old}])
        else:
            depth = rng.choice([10, 1000, 100_000])
            nest, new = "[" * depth + json.dumps(old) + "]" * depth, "NEST"
        doc = _replace(doc, path, new)
    elif kind == "dims":
        key = "dims" if mode == "vector" else "twists"
        name = rng.choice(sorted(doc["modules"]))
        target = rng.choice([doc["modules"][name][key], doc["twists"]])
        if target:
            k = rng.randrange(len(target))
            if mode == "p1":
                target[k] = sorted([rng.choice(HUGE)] + target[k][1:], reverse=True)
            else:
                target[k] = rng.choice(HUGE)
    raw = json.dumps(doc)
    if nest is not None:
        raw = raw.replace('"NEST"', nest, 1)
    raw = raw.encode("utf-8")
    if kind == "bytes":
        at = rng.randrange(len(raw) + 1)
        raw = raw[:at] + rng.choice([b"\xff", b"\xc3\x28", b"\x80\x80"]) + raw[at:]
    elif kind == "truncate":
        raw = raw[:rng.randrange(len(raw))]
    return raw


def _entries(doc: dict):
    """(arrow, row, column, degree) of every phi entry of module V."""
    V = load_instance(doc).modules["V"]
    for a, m in enumerate(V.phi):
        if doc["mode"] == "vector":
            yield from ((a, r, c, 0) for r in range(m.nrows) for c in range(m.ncols))
        else:
            yield from ((a, r, c, dr - ds) for r, dr in enumerate(m.target.twists)
                        for c, ds in enumerate(m.source.twists))


def _set_entry(doc: dict, where, value) -> bytes:
    a, r, c, _ = where
    doc = json.loads(json.dumps(doc))
    doc["modules"]["V"]["phi"][a][r][c] = value
    return json.dumps(doc).encode("utf-8")


def _coefficient_cases():
    """Bad coefficients, over F_101 and over Q, of a vector matrix and of p1 forms."""
    bad = [True, 1.5, None, "1e10000000", "1/0", "abc", 10**30, -7]
    for mode in ("vector", "p1"):
        for seed in range(10):
            base = json.loads(_base(seed, mode))
            spots = list(_entries(base))
            sign = [w for w in spots if w[3] >= 0], [w for w in spots if w[3] < 0]
            if sign[0] and (mode == "vector" or sign[1]):
                break
        for field in (base["field"], "q"):
            doc = {**base, "field": field}
            if mode == "vector":
                for x in bad:
                    yield _set_entry(doc, sign[0][-1], x)
                # two bad entries: the first in row-major order is reported
                first, last = sign[0][0], sign[0][-1]
                yield _set_entry(json.loads(_set_entry(doc, last, True)), first, "abc")
                continue
            spot, negative = sign[0][-1], sign[1][0]
            form = [1] * (spot[3] + 1)
            for x in bad:
                yield _set_entry(doc, spot, [*form[:-1], x])
            yield _set_entry(doc, spot, None)               # the zero form: accepted
            yield _set_entry(doc, spot, form[:-1])          # too short
            yield _set_entry(doc, spot, form + [0])         # too long
            yield _set_entry(doc, negative, [0])            # non-null at a negative degree
            yield _set_entry(doc, negative, [])
            yield _set_entry(doc, spot, "1")                # a string, not a list
            yield _set_entry(json.loads(_set_entry(doc, spot, form[:-1])), sign[0][0], "x")


CORPUS_SEED = 17
MUTATIONS = 400
LOADER_DIGEST = "4589e1f3f94e17e8d2dfaa9982f15fcf9f1c38cbd711d674d936b29ed6261226"


def test_loader_verdicts_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUIVHOM_LOG", raising=False)
    rng = random.Random(CORPUS_SEED)
    corpus = [_mutation(rng) for _ in range(MUTATIONS)] + list(_coefficient_cases())
    digest, codes = hashlib.sha256(), set()
    for raw in corpus:
        (tmp_path / "doc.json").write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["ext", "doc.json", "V", "W"])
        codes.add(code)
        digest.update(f"{code}\n{err.getvalue()}\x00".encode())
    assert codes == {0, 2, 3}
    assert digest.hexdigest() == LOADER_DIGEST
