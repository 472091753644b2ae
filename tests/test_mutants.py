"""The mutant ledger of tests/mutants.py stays in step with the code it mutates."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_current(mutant):
    # its old text occurs once, the mutated file compiles, so a syntax error
    # cannot pass for a kill, and the tests that must kill it exist
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old
    compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")
    for node_id in mutant.killed_by:
        path, function = node_id.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        names = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert function.split("[")[0] in names, node_id
