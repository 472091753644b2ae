"""Malformed and oversized inputs end in a documented exit code, never a traceback.

Hypothesis mutates valid `gen` documents (wrong types, wrong shapes, huge
integers in dimensions and twists, deep nesting, bytes that are not UTF-8,
truncation) and runs `ext`, `check` and `hyper` on them through `cli.main`.
Exit 0, 2, 3 and 4 are accepted: a mutated document either still holds
valid modules, fails to parse, fails validation or the size preflight, or
lacks a module.  Exit 1 (a failed check) and 5 (a failed cross-check)
would both mean a bug.
"""

import contextlib
import io
import json
import signal
from functools import lru_cache

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from quivhom.cli import main
from quivhom.generate import generate_document

ACCEPTED = {0, 2, 3, 4}


@lru_cache(maxsize=None)
def _base(seed: int, mode: str) -> str:
    return json.dumps(generate_document(seed, mode=mode))


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _paths(v, prefix + (k,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


HUGE = st.sampled_from([10**6, 10**9, 10**18, 2**63, -(10**9), 10**100])
VALUES = st.one_of(
    HUGE, st.integers(-3, 40), st.booleans(), st.none(), st.floats(allow_nan=False),
    st.text(max_size=4), st.just([]), st.just({}), st.just([[0]]), st.just("q"))


@st.composite
def mutated_files(draw):
    mode = draw(st.sampled_from(["vector", "p1"]))
    doc = json.loads(_base(draw(st.integers(0, 9)), mode))
    kind = draw(st.sampled_from(["replace", "dims", "shape", "nest", "bytes", "truncate"]))
    nest = None
    if kind in ("replace", "shape", "nest"):
        path = draw(st.sampled_from(list(_paths(doc))))
        old = doc
        for key in path:
            old = old[key]
        if kind == "replace":
            new = draw(VALUES)
        elif kind == "shape":
            new = draw(st.sampled_from([[old], [old, old], old[:-1] if isinstance(old, list)
                                        else {"x": old}]))
        else:
            # too deep for json.dumps: spliced into the text below
            depth = draw(st.sampled_from([10, 1000, 100_000]))
            nest, new = "[" * depth + json.dumps(old) + "]" * depth, "NEST"
        doc = _replace(doc, path, new)
    elif kind == "dims":
        # huge integers where sizes live: vertex dimensions, twist dimensions
        # or bundle twists, with every matrix shape left as it was
        key = "dims" if mode == "vector" else "twists"
        name = draw(st.sampled_from(sorted(doc["modules"])))
        target = draw(st.sampled_from([doc["modules"][name][key], doc["twists"]]))
        if target:
            k = draw(st.integers(0, len(target) - 1))
            if mode == "p1":    # a list of line-bundle twists, kept sorted
                target[k] = sorted([draw(HUGE)] + target[k][1:], reverse=True)
            else:
                target[k] = draw(HUGE)
    raw = json.dumps(doc)
    if nest is not None:
        raw = raw.replace('"NEST"', nest, 1)
    raw = raw.encode("utf-8")
    if kind == "bytes":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80\x80"])) + raw[at:]
    elif kind == "truncate":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    return mode, raw


def _timed_out(signum, frame):
    raise TimeoutError("the command ran for over 10 s")


# flags each command accepts; check takes --max-degree as well
FLAGS = {"ext": [[], ["--json"], ["--bases"]], "check": [[], ["--json"]],
         "hyper": [[], ["--json"], ["--verify"]]}


@settings(max_examples=300, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(file=mutated_files(), command=st.sampled_from(sorted(FLAGS)),
       degree=st.one_of(st.integers(-2, 5), HUGE), data=st.data())
def test_mutated_documents_end_in_a_documented_exit_code(tmp_path, file, command, degree, data):
    mode, raw = file
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    argv = [command, str(path), "V"] + ([] if command == "check" else ["W"])
    argv += data.draw(st.sampled_from(FLAGS[command]))
    if command == "check":
        argv += ["--max-degree", str(degree)]
    out, err = io.StringIO(), io.StringIO()
    # the deadline only judges an example once it ends; the alarm ends a hang
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    event(f"{command} exit {code}")
    assert code in ACCEPTED, (code, err.getvalue())
