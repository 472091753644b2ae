"""Every function in `src/quivhom` runs in some request.

The package holds what a request runs: the four CLI commands, `gen`, and
the bench's split sequence.  Reference code that only tests call lives in
`tests/`.  This test lists every `def` in the package with `ast`, runs a
small set of requests under `sys.setprofile`, and asserts that each `def`
was entered at least once.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import quivhom
from quivhom import cli, instances, rep

SRC = Path(quivhom.__file__).resolve().parent
FIXTURES = Path(__file__).parent / "fixtures"
HIGGS = str(FIXTURES / "higgs_p1.json")
TRIPLE = str(FIXTURES / "triple_vector.json")
JORDAN = str(FIXTURES / "jordan_vector.json")

# Dunder protocol methods kept beside their siblings, though no request calls them.
ALLOWED_UNCALLED = {
    "linalg.py:ExactMatrix.__getitem__": "bounds-checked m[i, j], which tests and oracles read",
    "linalg.py:ExactMatrix.__hash__": "an immutable value with __eq__ stays hashable",
    "linalg.py:ExactMatrix.__repr__": "names the shape when a matrix is printed in a failure",
    "linalg.py:FieldSpec.__str__": "the field's short name, used by ExactMatrix.__repr__",
    "sheaf.py:FormMatrix.__eq__": "value equality, as ExactMatrix has",
}


def _defs():
    """{(file, first line of the code object): "file:qualified name"} of every def."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                # a code object starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = f"{path.name}:{prefix}{child.name}"
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            walk(child, f"{prefix}{child.name}." if named else prefix, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return out


def _cli(*argv):
    """Run one command, output discarded; its exit code, or SystemExit's."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except SystemExit as e:
            return e.code


def _gen(mode: str) -> str:
    """The seed-0 instance of the bench's shapes: gen's default bounds, twists up to 3 in p1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gen", "--seed", "0", "--mode", mode,
                         "--max-twist", "3" if mode == "p1" else "2"]) == 0
    return out.getvalue()


def _requests(tmp: Path):
    """The requests whose calls are recorded."""
    codes = [
        _cli("ext", JORDAN, "J2", "J2", "--bases"),
        _cli("ext", TRIPLE, "V", "W"),
        _cli("ext", HIGGS, "V", "W"),
        _cli("check", TRIPLE, "V"),
        _cli("check", JORDAN, "J2"),
        _cli("hyper", HIGGS, "V", "W", "--verify"),
    ]
    for mode in ("vector", "p1"):
        path = tmp / f"gen-{mode}.json"
        path.write_text(_gen(mode), encoding="utf-8")
        if mode == "vector":
            codes += [_cli("ext", str(path), "V", "W", "--bases"), _cli("check", str(path), "V")]
            # the bench's split sequence; instances is how it loads the file
            inst = instances.load_instance(json.loads(path.read_text(encoding="utf-8")))
            V, W = inst.modules["V"], inst.modules["W"]
            classes = rep.ext1_classes(V, W)
            assert classes, "the split sequence needs an Ext^1 class"
            for etas in classes:
                assert not rep.is_split_extension(rep.build_extension(V, W, etas), V, W)
        else:
            # W -> V has a block of delta1 with rows and columns: _class_times_form
            codes += [_cli("ext", str(path), "V", "W"), _cli("ext", str(path), "W", "V"),
                      _cli("hyper", str(path), "V", "W", "--verify")]
    assert codes == [0] * len(codes)
    invalid = tmp / "invalid.json"
    invalid.write_text('{"field": "q"}', encoding="utf-8")
    errors = [_cli("ext", str(tmp / "missing.json"), "V", "W"),     # CliError
              _cli("ext", TRIPLE, "V", "W", "--no-such-flag"),      # _Parser.error
              _cli("ext", str(invalid), "V", "W")]                   # InstanceError
    assert errors == [cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_VALIDATION]


def test_every_src_function_runs_in_a_request(tmp_path):
    defs = _defs()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    cli._parser.cache_clear()   # so that build_parser runs inside the window
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _requests(tmp_path)
    finally:
        sys.setprofile(previous)
    called = {(str(Path(f).resolve()), line) for f, line in called}
    uncalled = sorted(name for key, name in defs.items() if key not in called)
    assert set(ALLOWED_UNCALLED) <= set(defs.values()), "an allowed name no longer exists"
    assert [name for name in uncalled if name not in ALLOWED_UNCALLED] == []
