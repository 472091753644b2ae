"""Command line front-end: commands, exit codes, report formats."""

import ast
import hashlib
import json
import logging
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quivhom
from quivhom import cli, generate
from quivhom.cli import main
from quivhom.generate import MAX_BOUND, generate_document
from quivhom.instances import InstanceError, load_instance

FIXTURES = Path(__file__).parent / "fixtures"
HIGGS = str(FIXTURES / "higgs_p1.json")
TRIPLE = str(FIXTURES / "triple_vector.json")
JORDAN = str(FIXTURES / "jordan_vector.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ext_higgs_fixture(capsys):
    code, out, _ = run(capsys, "ext", HIGGS, "V", "W", "--json")
    assert code == 0
    report = json.loads(out)
    result = report["result"]
    assert (result["ext0"], result["ext1"], result["ext2"]) == (1, 3, 0)
    assert result["h0_G"] == 3 and result["rank_delta0"] == 0
    terms = {t["term"]: t["dim"] for t in result["sequence"]}
    assert terms["Ext1_B(V,W)"] == 3


def test_ext_vector_triple_fixture(capsys):
    # V simple at vertex 1, W simple at vertex 0: Hom = 0, Ext^1 = 1
    code, out, _ = run(capsys, "ext", TRIPLE, "V", "W", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["hom"] == 0
    assert result["ext1"] == 1
    assert result["ext2"] == 0


def test_ext_text_and_json_agree(capsys):
    code, text_out, _ = run(capsys, "ext", TRIPLE, "T", "Z")
    assert code == 0
    code, json_out, _ = run(capsys, "ext", TRIPLE, "T", "Z", "--json")
    assert code == 0
    result = json.loads(json_out)["result"]
    for key in ("hom", "ext1", "ext2", "h0_F", "h0_G", "rank_delta0"):
        assert f"{key}: {result[key]}" in text_out


def test_ext_with_bases(capsys):
    code, out, _ = run(capsys, "ext", JORDAN, "J2", "J2", "--json")
    assert code == 0
    assert json.loads(out)["result"]["hom"] == 2
    code, out, _ = run(capsys, "ext", JORDAN, "J2", "J2", "--json", "--bases")
    basis = json.loads(out)["result"]["hom_basis"]
    assert len(basis) == 2


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "q", ', encoding="utf-8")
    code, _, err = run(capsys, "ext", str(bad), "V", "W")
    assert code == 2
    assert "byte offset" in err


def test_unknown_key_exit_3(tmp_path, capsys):
    doc = json.loads(Path(TRIPLE).read_text())
    doc["extra"] = 1
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "ext", str(f), "V", "W")
    assert code == 3
    assert "$" in err and "extra" in err


@pytest.mark.parametrize("modulus, want", [
    (2**61 - 1, 0),
    (1099511627791 * 1099512676421, 3),    # two primes near 2**40
])
def test_huge_modulus_decided_quickly(tmp_path, capsys, modulus, want):
    doc = generate_document(0)
    doc["field"] = {"fp": modulus}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run(capsys, "ext", str(f), "V", "W")
    assert time.perf_counter() - start < 1.0
    assert code == want
    if want == 3:
        assert "$.field.fp" in err


# Fraction would expand "1e10000000" into a 33-million-bit integer, which took
# seconds; a vector matrix entry and a p1 form coefficient over Q
HUGE_EXPONENT = {
    "vector": ({"dims": [1], "phi": [[["1e10000000"]]]}, 1, "$.modules.V.phi[0][0][0]"),
    "p1": ({"twists": [[0]], "phi": [[[["1e10000000"]]]]}, [0], "$.modules.V.phi[0][0][0][0]"),
}


@pytest.mark.parametrize("mode", sorted(HUGE_EXPONENT))
def test_huge_exponent_rejected_quickly(tmp_path, capsys, mode):
    module, twist, path = HUGE_EXPONENT[mode]
    doc = {"field": "q", "quiver": {"vertices": 1, "arrows": [[0, 0]]}, "mode": mode,
           "twists": [twist], "modules": {"V": module}}
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run(capsys, "ext", str(f), "V", "V")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert f"{path}: not a rational number" in err


def test_validation_error_names_path(tmp_path, capsys):
    doc = json.loads(Path(TRIPLE).read_text())
    doc["modules"]["V"]["dims"] = [0, -1]
    f = tmp_path / "inst.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "ext", str(f), "V", "W")
    assert code == 3
    assert "$.modules.V.dims[1]" in err


def test_missing_module_exit_4(capsys):
    code, _, err = run(capsys, "ext", TRIPLE, "V", "NOPE")
    assert code == 4
    assert "NOPE" in err


def test_mode_mismatch_exit_4(capsys):
    code, _, err = run(capsys, "hyper", TRIPLE, "V", "W")
    assert code == 4
    assert "p1" in err


def test_ext_bases_on_p1_exit_4(capsys):
    # a p1 instance has no Hom basis to list: the flag is refused, not ignored
    code, out, err = run(capsys, "ext", HIGGS, "V", "W", "--bases")
    assert (code, out) == (4, "")
    assert err == "quivhom: module 'V' is p1-mode, ext --bases needs vector-mode\n"


def test_check_passes_on_jordan(capsys):
    code, out, _ = run(capsys, "check", JORDAN, "J2", "--max-degree", "3", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    for key in ("eps_injective", "ker_d_eq_im_eps", "d_surjective", "lift_roundtrip"):
        assert result[key] == "pass"


@pytest.mark.parametrize("name, fake, failed", [
    ("lift_beta", lambda *args: None, "lift_roundtrip"),
    ("check_resolution_exactness",
     lambda *args: quivhom.ExactnessReport(True, False, True), "ker_d_eq_im_eps"),
], ids=["lift", "exactness"])
def test_check_failure_exits_1(capsys, monkeypatch, name, fake, failed):
    monkeypatch.setattr(cli, name, fake)
    code, out, _ = run(capsys, "check", JORDAN, "J2")
    assert code == 1
    for key in ("eps_injective", "ker_d_eq_im_eps", "d_surjective", "lift_roundtrip"):
        assert f"{key}: {'FAIL' if key == failed else 'pass'}\n" in out


def test_check_rejects_degree_zero(capsys):
    code, _, err = run(capsys, "check", JORDAN, "J2", "--max-degree", "0")
    assert code == 3
    assert "max-degree" in err


def test_hyper_higgs_with_verify(capsys):
    code, out, _ = run(capsys, "hyper", HIGGS, "V", "W", "--verify", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["hh0"], result["hh1"], result["hh2"]) == (1, 3, 0)
    assert result["verify"] == "pass"
    assert result["ext_via_les"] == [1, 3, 0]


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "42")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--seed", "42")
    assert out1 == out2
    code, out3, _ = run(capsys, "gen", "--seed", "43")
    assert out3 != out1


# sha256 over what `gen --seed S --mode M [FLAGS]` prints for S = 0..199,
# recorded before the p1 size guard was rebuilt on the Cech layout.  With
# the default bounds that guard never rejects a draw; with larger twists it
# rejects 62 of 262.
GEN_DIGESTS = {
    ("vector",): "2428f35403726b1276e53622e3cec4299cba438b56d4fbbf8cccc3e407c552eb",
    ("p1",): "65c2964d6b825aeec9cfb3eee9dcbdb9e479724536d9b41d16de1ccbb4ddd868",
    ("p1", "--max-twist", "6", "--max-dim", "4"):
        "16526335a1e5d970a27ebcc8ecf14a2a7d02f79c9a94dd92160c9e2a0edd4c45",
}


@pytest.mark.parametrize("mode_and_flags", sorted(GEN_DIGESTS), ids=" ".join)
def test_gen_output_pinned(capsys, mode_and_flags):
    mode, *flags = mode_and_flags
    digest = hashlib.sha256()
    for seed in range(200):
        code, out, _ = run(capsys, "gen", "--seed", str(seed), "--mode", mode, *flags)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == GEN_DIGESTS[mode_and_flags]


GEN_FLAGS = ("--max-vertices", "--max-arrows", "--max-dim", "--max-twist")


# sha256 over what `gen` prints past its default bounds: seeds 0..49 in each
# mode at the bounds of the benchmark and acceptance workloads, then seeds
# 0..9 in each mode with every bound at 8; recorded while gen still wrote
# its documents by hand.
WIDE_GEN_RUNS = (
    [(seed, "vector", "4", "5", "3", "2") for seed in range(50)]
    + [(seed, "p1", "4", "5", "3", "3") for seed in range(50)]
    + [(seed, mode, "8", "8", "8", "8") for mode in ("vector", "p1") for seed in range(10)]
)
WIDE_GEN_DIGEST = "601585538acecfb24f0bb9b252c91112214e8fd56d81f348ad625d1f79107bd6"


def test_gen_output_pinned_past_default_bounds(capsys):
    digest = hashlib.sha256()
    for seed, mode, *bounds in WIDE_GEN_RUNS:
        flags = [x for flag, b in zip(GEN_FLAGS, bounds) for x in (flag, b)]
        code, out, _ = run(capsys, "gen", "--seed", str(seed), "--mode", mode, *flags)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == WIDE_GEN_DIGEST


def test_gen_bad_bounds_exit_3(capsys):
    code, _, err = run(capsys, "gen", "--max-dim", "0")
    assert code == 3
    for mode in ("vector", "p1"):
        at_cap = [x for flag in GEN_FLAGS for x in (flag, str(MAX_BOUND))]
        assert run(capsys, "gen", "--mode", mode, *at_cap)[0] == 0
        for flag in GEN_FLAGS:
            code, out, err = run(capsys, "gen", "--mode", mode, flag, str(MAX_BOUND + 1))
            assert (code, out) == (3, "") and f"1..{MAX_BOUND}" in err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("mode", ["vector", "p1"])
@pytest.mark.parametrize("flag", GEN_FLAGS)
def test_gen_huge_bound_exits_3_in_bounded_time(mode, flag):
    # without the cap the draws and the null-map documents that the size
    # guards load are built in full, so the child runs under a time and
    # memory limit
    proc = _python("-c", "import sys, quivhom.cli; sys.exit(quivhom.cli.main(sys.argv[1:]))",
                   "gen", "--mode", mode, flag, "400000",
                   timeout=20, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr


def test_gen_single_vertex_forces_loops(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "7", "--max-vertices", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["quiver"]["vertices"] == 1
    assert all(t == h == 0 for t, h in doc["quiver"]["arrows"])


def test_gen_check_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--seed", "5")
    assert code == 0
    f = tmp_path / "gen.json"
    f.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(f), "V", "--json")
    assert code == 0


def test_gen_hyper_verify_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--seed", "6", "--mode", "p1")
    assert code == 0
    f = tmp_path / "gen.json"
    f.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "hyper", str(f), "V", "W", "--verify", "--json")
    assert code == 0
    assert json.loads(out)["result"]["verify"] == "pass"


@pytest.mark.parametrize("mode", ["vector", "p1"])
def test_gen_drawing_a_document_the_loader_rejects_exits_5(monkeypatch, capsys, mode):
    # gen's own draw failing load_instance is a bug, reported as one, not a traceback
    draw = generate._document

    def one_row_too_many(*args):
        doc = draw(*args)
        doc["modules"]["V"]["phi"][0].append([])
        return doc

    monkeypatch.setattr(generate, "_document", one_row_too_many)
    code, out, err = run(capsys, "gen", "--seed", "0", "--mode", mode)
    assert code == cli.EXIT_CROSS_CHECK and out == ""
    assert err.startswith("quivhom: internal cross-check failed: ")
    assert "rows" in err and err.endswith("this indicates a bug\n")


def test_gen_document_round_trip():
    """generate_document's vector and p1 documents for seeds 0-2 load."""
    for seed in (0, 1, 2):
        for mode in ("vector", "p1"):
            load_instance(generate_document(seed, mode=mode))


# Every kind of zero form: null at a negative and at a non-negative degree,
# [0] at degree 0 and [0, 0] at degree 1, beside nonzero forms.
ZERO_FORMS = {
    "field": {"fp": 7},
    "quiver": {"vertices": 1, "arrows": [[0, 0]]},
    "mode": "p1",
    "twists": [[-1]],
    "modules": {
        # M ⊗ V = O ⊕ O(-1) ⊕ O(-3) into V = O(1) ⊕ O ⊕ O(-2)
        "V": {"twists": [[1, 0, -2]],
              "phi": [[[[0, 0], None, [1, 0, 2, 0, 3]],
                       [[0], [1, 5], None],
                       [None, None, [0, 4]]]]},
        # M ⊗ W = O(-1) ⊕ O(-2) into W = O ⊕ O(-1)
        "W": {"twists": [[0, -1]],
              "phi": [[[[1, 1], None],
                       [[0], [0, 3]]]]},
    },
}
# sha256 of the stdout of `hyper --verify --json` in each order, recorded
# when a form was still a class of its own
ZERO_FORMS_HYPER = {
    ("V", "W"): "94faa2b4e6491b5bd1aa6570b40c76494837923ce33b2b940a19f0b000c278e1",
    ("W", "V"): "f487baa07b29f445d253dae6bb448e9b1ec2766e42e2577aaac6225449117dff",
}


def test_explicit_zero_forms_round_trip(tmp_path, capsys):
    """hyper --verify passes on a hand-written document of zero forms, with pinned output."""
    f = tmp_path / "zero_forms.json"
    f.write_text(json.dumps(ZERO_FORMS), encoding="utf-8")
    for (v, w), want in ZERO_FORMS_HYPER.items():
        code, out, _ = run(capsys, "hyper", str(f), v, w, "--verify", "--json")
        assert code == 0 and json.loads(out)["result"]["verify"] == "pass"
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_report_byte_identical_across_runs(capsys):
    code, out1, _ = run(capsys, "ext", HIGGS, "V", "W", "--json")
    code, out2, _ = run(capsys, "ext", HIGGS, "V", "W", "--json")
    assert out1 == out2
    code, t1, _ = run(capsys, "ext", HIGGS, "V", "W")
    code, t2, _ = run(capsys, "ext", HIGGS, "V", "W")
    assert t1 == t2


# sha256 over the exit code and stdout of each command on `gen --seed S
# --mode M`, S = 0..29; recorded before the Cech complex was assembled by
# rep.connecting_matrix and before `ext --bases` dropped its second elimination.
REPORT_COMMANDS = {
    "vector": (("ext", "V", "W", "--json", "--bases"), ("check", "V", "--json"),
               ("check", "W", "--json")),
    "p1": (("hyper", "V", "W", "--verify", "--json"), ("ext", "V", "W", "--json"),
           ("ext", "W", "V", "--json")),
}
REPORT_DIGEST = "d4f97c88e66d8c5db68bdf971127adc2defa94682b077194f6f97ec2208c06c9"


def test_reports_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    f = tmp_path / "gen.json"
    for seed in range(30):
        for mode, commands in REPORT_COMMANDS.items():
            f.write_text(run(capsys, "gen", "--seed", str(seed), "--mode", mode)[1],
                         encoding="utf-8")
            for command, *rest in commands:
                code, out, _ = run(capsys, command, str(f), *rest)
                digest.update(repr((seed, mode, command, *rest, code, out)).encode())
    assert digest.hexdigest() == REPORT_DIGEST


def test_ext_bases_eliminates_delta_once(capsys, monkeypatch):
    from quivhom import linalg
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda m: calls.append(m.shape) or echelon(m))
    code, out, _ = run(capsys, "ext", JORDAN, "J2", "J2", "--json", "--bases")
    assert code == 0 and json.loads(out)["result"]["hom"] == 2
    assert len(calls) == 1


def test_log_env_variable(capsys, monkeypatch):
    # each call sets the package logger afresh: info after quiet logs in one
    # process, past a root logger at ERROR, which the calls leave as it was
    root = logging.getLogger()
    level, handlers = root.level, list(root.handlers)
    root.setLevel(logging.ERROR)
    try:
        monkeypatch.setenv("QUIVHOM_LOG", "quiet")
        quiet = run(capsys, "ext", HIGGS, "V", "W", "--json")
        monkeypatch.setenv("QUIVHOM_LOG", "info")
        code, out, err = run(capsys, "ext", HIGGS, "V", "W", "--json")
        assert (root.level, root.handlers) == (logging.ERROR, handlers)
    finally:
        root.setLevel(level)
    assert quiet == (code, out, "") and code == 0
    assert err == f"quivhom: INFO: loaded {HIGGS} (p1 mode, 1 vertices, 1 arrows)\n"


def test_unknown_log_level_warns_once(capsys, monkeypatch):
    monkeypatch.delenv("QUIVHOM_LOG", raising=False)
    code, quiet_out, quiet_err = run(capsys, "ext", HIGGS, "V", "W", "--json")
    monkeypatch.setenv("QUIVHOM_LOG", "verbose")
    code2, out, err = run(capsys, "ext", HIGGS, "V", "W", "--json")
    assert (code2, out) == (code, quiet_out)
    assert quiet_err == ""
    assert err.count("\n") == 1
    assert "'verbose'" in err and "quiet, info, debug" in err


def _python(*args, timeout=60, preexec_fn=None):
    # the subprocesses import the same package as this test, installed or not
    src = str(Path(quivhom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("QUIVHOM_LOG", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout, preexec_fn=preexec_fn)


def _asserts(node) -> bool:
    """An assert statement, or a raise or except naming AssertionError."""
    if isinstance(node, ast.Assert):
        return True
    named = (node.exc if isinstance(node, ast.Raise)
             else node.type if isinstance(node, ast.ExceptHandler) else None)
    return named is not None and any(isinstance(n, ast.Name) and n.id == "AssertionError"
                                     for n in ast.walk(named))


def test_package_has_no_assert_statement():
    # cross-checks must keep working under python -O, which strips asserts,
    # and a failed check is a return value or CrossCheckError, not AssertionError
    package = Path(quivhom.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _asserts(node)]
    assert found == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from quivhom import *", namespace)    # a stale __all__ entry raises here
    assert all(hasattr(quivhom, name) for name in quivhom.__all__)
    assert set(quivhom.__all__) <= set(namespace)


def test_cli_does_not_import_numpy():
    proc = _python("-c", "import quivhom.cli, sys; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("patch, argv", [
    # hom_space re-verifies every kernel vector as a morphism
    ("quivhom.rep.RepMorphism.is_morphism = lambda self: False",
     ["ext", JORDAN, "J2", "J2", "--bases"]),
    # cmd_check must not report a cross-check failure as a failed round trip
    ("def fail(*args, **kwargs):\n    raise CrossCheckError('forced')\n"
     "quivhom.cli.lift_beta = fail",
     ["check", JORDAN, "J2"]),
], ids=["hom_space", "check"])
def test_cross_check_failure_exits_5_under_python_O(patch, argv):
    script = ("import sys\nimport quivhom.cli, quivhom.rep\n"
              "from quivhom.linalg import CrossCheckError\n"
              "if not sys.flags.optimize:\n    sys.exit(99)\n"
              f"{patch}\nsys.exit(quivhom.cli.main({argv!r}))\n")
    proc = _python("-O", "-c", script)
    assert proc.returncode == 5, proc.stderr
    assert "internal cross-check failed" in proc.stderr


def test_load_instance_rejects_unsorted_twists():
    doc = generate_document(3, mode="p1")
    doc["twists"][0] = sorted(doc["twists"][0])
    if doc["twists"][0] == sorted(doc["twists"][0], reverse=True):
        doc["twists"][0] = [-1, 0]
    with pytest.raises(InstanceError):
        load_instance(doc)


# -- size preflight: exit 3 before building anything too large ---------------

def _p1_loop_doc(w_twist):
    return {"field": {"fp": 101}, "quiver": {"vertices": 1, "arrows": [[0, 0]]},
            "mode": "p1", "twists": [[0]],
            "modules": {"V": {"twists": [[0]], "phi": [[[[1]]]]},
                        "W": {"twists": [[w_twist]], "phi": [[[[1]]]]}}}


def _p1_rank_100_doc():
    # one loop, twist bundle O; V and W are O^100 with dense degree-0 forms
    module = {"twists": [[0] * 100],
              "phi": [[[[(r + s) % 100 + 1] for s in range(100)] for r in range(100)]]}
    return {**_p1_loop_doc(0), "modules": {"V": module, "W": module}}


def _vector_doc(dims, arrows, twists):
    phi = [[[1] * (m * dims[t]) for _ in range(dims[h])] for (t, h), m in zip(arrows, twists)]
    return {"field": {"fp": 101}, "quiver": {"vertices": len(dims), "arrows": arrows},
            "mode": "vector", "twists": twists,
            "modules": {"V": {"dims": dims, "phi": phi}, "W": {"dims": dims, "phi": phi}}}


@pytest.mark.parametrize("doc, argv", [
    (_p1_loop_doc(10**7), ["ext", "V", "W"]),
    (_p1_loop_doc(10**7), ["hyper", "V", "W"]),
    (_p1_loop_doc(10**5), ["hyper", "V", "W", "--verify"]),
    (_vector_doc([1], [[0, 0], [0, 0]], [1, 1]), ["check", "V", "--max-degree", "24"]),
    (_vector_doc([1], [], []), ["check", "V", "--max-degree", "100000000"]),
    (_vector_doc([3000], [], []), ["ext", "V", "W", "--bases"]),
    # the degree loop must stay small when a huge twist dimension meets an
    # empty vertex, and the tensor basis M_a⊗V_ta must never be listed
    (_vector_doc([0], [[0, 0]] * 5, [10**9] * 5), ["check", "V", "--max-degree", "4000"]),
    (_vector_doc([5, 0], [[0, 1]], [10**9]), ["ext", "V", "V", "--bases"]),
    ({**_vector_doc([5, 0], [[0, 1]], [10**9]),
      "modules": {"V": {"dims": [5, 0], "phi": [[]]}, "W": {"dims": [0, 0], "phi": [[]]}}},
     ["ext", "V", "W"]),
    # nor the basis of a huge V_i facing W_i = 0
    ({**_vector_doc([10**9], [], []),
      "modules": {"V": {"dims": [10**9], "phi": []}, "W": {"dims": [0], "phi": []}}},
     ["ext", "V", "W"]),
    # a tensor basis M_a⊗V_ta longer than len() of a range can report
    (_vector_doc([3, 0], [[0, 1]], [2**63]), ["ext", "V", "W"]),
    # the loader must not build M_a⊗V_ta of rank 2,000 · 2,000 from a small file
    ({**_p1_loop_doc(0), "twists": [[0] * 2000],
      "modules": {"V": {"twists": [[0] * 2000], "phi": [[]]}}}, ["ext", "V", "V"]),
    # the Cech guard reads twists only and runs before the walk, which on this
    # 120 KB file (20,401 Hom summands, under the limit) takes seconds
    (_p1_rank_100_doc(), ["hyper", "V", "W"]),
], ids=["p1-ext", "p1-hyper", "p1-hyper-verify", "two-loops", "no-arrows",
        "dim-3000", "huge-twist-check", "huge-twist-ext", "huge-twist-facing-zero",
        "huge-dim-facing-zero", "tensor-past-maxsize", "p1-tensor-rank", "p1-hyper-rank-100"])
def test_oversized_input_exits_3_quickly(tmp_path, capsys, doc, argv):
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "over the limit" in err and str(cli.MAX_DIM) in err


def test_p1_loader_builds_each_tensor_bundle_once(monkeypatch):
    from quivhom import instances, sheaf
    doc = generate_document(0, mode="p1")
    calls = []
    build = sheaf.tensor_bundle
    for module in (instances, sheaf):       # every binding of tensor_bundle
        if getattr(module, "tensor_bundle", None) is build:
            monkeypatch.setattr(module, "tensor_bundle",
                                lambda m, v: calls.append(1) or build(m, v))
    inst = load_instance(doc)
    assert len(calls) == len(inst.modules) * inst.quiver.n_arrows == 8
    # the rank bound runs before any bundle is built, on every arrow: arrow 0
    # (rank 2,000) passes it, arrow 1 (rank 4,000,000) does not
    calls.clear()
    big = {**_p1_loop_doc(0), "quiver": {"vertices": 1, "arrows": [[0, 0], [0, 0]]},
           "twists": [[0], [0] * 2000],
           "modules": {"V": {"twists": [[0] * 2000], "phi": [[], []]}}}
    with pytest.raises(InstanceError, match="over the limit"):
        load_instance(big)
    assert calls == []


def _count_hom_complex(monkeypatch) -> list:
    """Record one entry per hom_complex call, through every binding of it."""
    from quivhom import rep, sheaf
    calls = []
    build = rep.hom_complex
    for module in (rep, sheaf, cli):
        if getattr(module, "hom_complex", None) is build:
            monkeypatch.setattr(module, "hom_complex",
                                lambda V, W: calls.append(1) or build(V, W))
    return calls


def _walks_per_request(tmp_path, capsys, calls, mode, argvs) -> list:
    f = tmp_path / f"{mode}.json"
    f.write_text(json.dumps(generate_document(0, mode=mode)), encoding="utf-8")
    walks = []
    for argv in argvs:
        calls.clear()
        code, _, _ = run(capsys, argv[0], str(f), "V", "W", *argv[1:])
        walks.append((code, len(calls)))
    return walks


def test_p1_commands_build_the_hom_complex_once_per_route(tmp_path, capsys, monkeypatch):
    # the complex is the only walk over the quiver's summands: hyper --verify
    # builds one for both routes, ext one, and the size guard reads twists only
    from quivhom import sheaf
    calls = _count_hom_complex(monkeypatch)
    assert _walks_per_request(tmp_path, capsys, calls, "p1",
                              [("hyper", "--verify"), ("ext",)]) == [(0, 1)] * 2
    calls.clear()
    inst = load_instance(generate_document(0, mode="p1"))
    sheaf.cech_dims(inst.modules["V"], inst.modules["W"])
    assert calls == []


def test_vector_ext_builds_the_hom_complex_once(tmp_path, capsys, monkeypatch):
    # delta for ext, and the one hom_space builds for ext --bases
    calls = _count_hom_complex(monkeypatch)
    assert _walks_per_request(tmp_path, capsys, calls, "vector",
                              [("ext",), ("ext", "--bases")]) == [(0, 1)] * 2


def test_preflight_passes_a_large_check_under_the_limit(tmp_path, capsys):
    # two loops at degree 12: the resolution has dimension 8,191
    f = tmp_path / "loops.json"
    f.write_text(json.dumps(_vector_doc([1], [[0, 0], [0, 0]], [1, 1])), encoding="utf-8")
    code, _, _ = run(capsys, "check", str(f), "V", "--max-degree", "12")
    assert code == 0


def test_check_passes_across_an_arrow_between_unequal_dimensions(tmp_path, capsys):
    # two loops give vertex 0 2^l paths of degree l; through the arrow 0 -> 1
    # their blocks of alpha_0 lie dim V_0 = 2 apart, not dim V_1 = 3
    f = tmp_path / "unequal.json"
    f.write_text(json.dumps(_vector_doc([2, 3], [[0, 0], [0, 0], [0, 1]], [1, 1, 1])),
                 encoding="utf-8")
    code, out, _ = run(capsys, "check", str(f), "V", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    for key in ("eps_injective", "ker_d_eq_im_eps", "d_surjective", "lift_roundtrip"):
        assert result[key] == "pass"


def test_deeply_nested_json_exit_2(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "ext", str(f), "V", "W")
    assert (code, out) == (2, "")
    assert "JSON parse error" in err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    argvs = [["ext", JORDAN, "J2", "J2", "--bases"], ["ext", JORDAN, "--no-such-flag"],
             ["check", JORDAN, "J2", "--json"], ["ext", JORDAN, "J2", "J2", "--bases"]]

    def outcome(argv):
        try:
            return run(capsys, *argv)
        except SystemExit as e:      # a bad flag exits from inside argparse
            return (e.code, *capsys.readouterr())

    cli._parser.cache_clear()
    warm = [outcome(argv) for argv in argvs]
    assert len(calls) == 1
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert warm == fresh
    assert [code for code, _, _ in warm] == [0, 3, 0, 0]
