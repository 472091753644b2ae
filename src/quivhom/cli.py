"""Batch command line front-end.

    quivhom ext   FILE MODULE_V MODULE_W [--json] [--bases]
    quivhom check FILE MODULE_V [--max-degree N] [--json]
    quivhom hyper FILE MODULE_V MODULE_W [--verify] [--json]
    quivhom gen   [--seed S] [--mode vector|p1] [--max-vertices N]
                  [--max-arrows N] [--max-dim N] [--max-twist N]

Exit codes: 0 success, 1 failed check, 2 parse error (unreadable file,
bad UTF-8, bad or too deeply nested JSON), 3 validation error (bad flag,
invalid instance, or a space to build larger than MAX_DIM), 4 incompatible
modules, 5 internal cross-check failure.  QUIVHOM_LOG in {quiet, info,
debug} controls stderr logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import os
import random
import sys
from typing import Optional

from .generate import generate_document
from .instances import MAX_DIM, Instance, InstanceError, load_instance
from .linalg import CrossCheckError, rank
from .rep import TwistedRep, delta_matrix, hom_complex, hom_space, hom_summands, hom_twists
from .resolution import (check_resolution_exactness, lift_beta, resolution_layout,
                         resolution_matrices)
from .sheaf import ExtReport, cech_dims, cech_hyper, ext_quiver_sheaf, h0_dim, h1_dim

log = logging.getLogger("quivhom")
_log_handler = logging.StreamHandler()
_log_handler.setFormatter(logging.Formatter("quivhom: %(levelname)s: %(message)s"))

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INCOMPATIBLE = 4
EXIT_CROSS_CHECK = 5


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for file parse errors; bad flags are validation errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _configure_logging():
    level = os.environ.get("QUIVHOM_LOG", "quiet").strip().lower()
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        sys.stderr.write(f"quivhom: warning: unknown QUIVHOM_LOG value {level!r}; "
                         f"accepted: {', '.join(levels)}; using quiet\n")
        level = "quiet"
    # the package logger alone, set afresh on each call, on this call's stderr
    _log_handler.stream = sys.stderr
    log.handlers = [_log_handler]
    log.setLevel(levels[level])
    log.propagate = False


def _load_file(path: str) -> tuple:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_PARSE)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        document = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8: {e}", EXIT_PARSE)
    except json.JSONDecodeError as e:
        raise CliError(
            f"{path}: JSON parse error at byte offset {e.pos}: {e.msg}", EXIT_PARSE
        )
    except (RecursionError, ValueError) as e:
        # nesting deeper than the parser's stack, or an over-long integer
        raise CliError(f"{path}: JSON parse error: {e}", EXIT_PARSE)
    try:
        instance = load_instance(document)
    except InstanceError as e:
        raise CliError(f"{path}: validation error at {e.path}: {e.reason}",
                       EXIT_VALIDATION)
    log.info("loaded %s (%s mode, %d vertices, %d arrows)", path, instance.mode,
             instance.quiver.n_vertices, instance.quiver.n_arrows)
    return instance, digest


def _preflight(command: str, *dims: int) -> None:
    """Exit 3 when a space the command would build is larger than MAX_DIM."""
    if max(dims) > MAX_DIM:
        raise CliError(f"{command}: would build a space of dimension at least {max(dims)}, "
                       f"over the limit {MAX_DIM}", EXIT_VALIDATION)


def _preflight_hom(command: str, V, W, *dims_of) -> None:
    """Bound the Hom summands first, then C0 and C1 for each dim_of given."""
    _preflight(command, hom_summands(V, W))
    if dims_of:
        c0, c1, _, _ = hom_twists(V, W)
        for dim_of in dims_of:
            _preflight(command, sum(map(dim_of, c0)), sum(map(dim_of, c1)))


def _preflight_resolution(V: TwistedRep, n: int):
    """Bound the truncated resolution of V, then return its layout."""
    # the layouts index every (degree, vertex) and (degree, arrow) block
    _preflight("check", (n + 1) * (V.quiver.n_vertices + V.quiver.n_arrows))
    # sizes grow with the degree, the path space at most squaring as it doubles:
    # doubling the degree stops soon after a size passes MAX_DIM, all still small
    degree = 1
    while True:
        layout = resolution_layout(V, min(degree, n))
        _preflight("check", layout.f_total, layout.g_total, sum(layout.basis.dim.values()))
        if degree >= n:
            return layout
        degree *= 2


def _pick_module(instance: Instance, name: str, mode: str, command: str = "this command"):
    if name not in instance.modules:
        raise CliError(
            f"module {name!r} not present (have: {sorted(instance.modules)})",
            EXIT_INCOMPATIBLE,
        )
    if instance.mode != mode:
        raise CliError(
            f"module {name!r} is {instance.mode}-mode, {command} needs {mode}-mode",
            EXIT_INCOMPATIBLE,
        )
    return instance.modules[name]


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}",
             f"instance: sha256:{report['digest']}"]
    for key in ("modules", "mode", "field"):
        if key in report:
            value = report[key]
            if isinstance(value, list):
                value = " ".join(value)
            lines.append(f"{key}: {value}")
    lines.append("")
    for key, value in report["result"].items():
        if key == "sequence":
            lines.append("exact sequence trace:")
            for term in value:
                lines.append(f"  {term['term']}: dim {term['dim']}")
            continue
        if key == "hom_basis":
            lines.append("hom basis:")
            for idx, morphism in enumerate(value):
                lines.append(f"  f[{idx}]: {morphism}")
            continue
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _emit(args, modules: list, instance: Instance, digest: str, result: dict) -> None:
    field = instance.field
    report = {"command": args.command, "digest": digest, "modules": modules,
              "mode": instance.mode, "result": result,
              "field": f"fp:{field.modulus}" if field.is_prime_field else "q"}
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(report))


# the exact sequence, term by term; a vector space has no H^1 terms
_SEQUENCE = (("Hom_B(V,W)", "ext0"), ("sum_i Hom(V_i,W_i)", "h0_F"),
             ("sum_a Hom(M_a(x)V_ta,W_ha)", "h0_G"), ("Ext1_B(V,W)", "ext1"),
             ("sum_i Ext1(V_i,W_i)", "h1_F"), ("sum_a Ext1(M_a(x)V_ta,W_ha)", "h1_G"),
             ("Ext2_B(V,W)", "ext2"))


def _ext_result(r: ExtReport, mode: str) -> dict:
    vector = mode == "vector"
    result = {("hom" if vector and k == "ext0" else k): v
              for k, v in dataclasses.asdict(r).items()}
    result["sequence"] = [{"term": term, "dim": getattr(r, k)} for term, k in _SEQUENCE
                          if not (vector and k.startswith("h1"))]
    return result


def cmd_ext(args) -> int:
    instance, digest = _load_file(args.file)
    if instance.mode == "vector":
        V = _pick_module(instance, args.module_v, "vector")
        W = _pick_module(instance, args.module_w, "vector")
        _preflight_hom("ext", V, W)
        basis = None
        if args.bases:
            # a basis of up to n vectors of n coordinates, n = dim ⊕_i Hom(V_i, W_i),
            # each checked against I_m ⊗ f_ta for every twist dimension m
            c0, c1, _, _ = hom_twists(V, W)
            _preflight("ext --bases", len(c0) ** 2, *V.twist.dims)
            # the kernel basis gives the rank without a second elimination
            basis = hom_space(V, W)
            shape, r0 = (len(c1), len(c0)), len(c0) - len(basis)
        else:
            delta = delta_matrix(hom_complex(V, W))
            shape, r0 = delta.shape, rank(delta)
        # the long exact sequence with H^1 = 0 and delta as the only map
        result = _ext_result(ExtReport.of_sequence(shape, (0, 0), r0, 0), "vector")
        if basis is not None:
            result["hom_basis"] = [
                {f"f_{i}": [[str(x) for x in row] for row in f.blocks[i].to_lists()]
                 for i in range(V.quiver.n_vertices)}
                for f in basis
            ]
    else:
        if args.bases:      # a Hom basis is listed in vector mode only
            _pick_module(instance, args.module_v, "vector", "ext --bases")
        V = _pick_module(instance, args.module_v, "p1")
        W = _pick_module(instance, args.module_w, "p1")
        _preflight_hom("ext", V, W, h0_dim, h1_dim)
        result = _ext_result(ext_quiver_sheaf(hom_complex(V, W)), "p1")
    _emit(args, [args.module_v, args.module_w], instance, digest, result)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.max_degree < 1:
        raise CliError(f"--max-degree must be >= 1, got {args.max_degree}",
                       EXIT_VALIDATION)
    instance, digest = _load_file(args.file)
    V = _pick_module(instance, args.module_v, "vector")
    n = args.max_degree
    layout = _preflight_resolution(V, n)
    eps, d = resolution_matrices(V, layout)
    exactness = check_resolution_exactness(V, layout, eps, d)
    # lifting round trip on a digest-seeded random beta, entries in [-5, 5] over Q
    rng = random.Random(int(digest[:16], 16))
    p = V.field.modulus
    beta = [rng.randrange(p) if p else rng.randint(-5, 5) for _ in range(layout.g_total)]
    checks = {
        "eps_injective": exactness.eps_injective,
        "ker_d_eq_im_eps": exactness.ker_d_eq_im_eps,
        "d_surjective": exactness.d_surjective,
        "lift_roundtrip": lift_beta(V, layout, beta, d) is not None,
    }
    _emit(args, [args.module_v], instance, digest,
          {"max_degree": n, **{k: ("pass" if ok else "FAIL") for k, ok in checks.items()}})
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_hyper(args) -> int:
    instance, digest = _load_file(args.file)
    V = _pick_module(instance, args.module_v, "p1")
    W = _pick_module(instance, args.module_w, "p1")
    # the long exact sequence of --verify is no larger than the Cech complex
    _preflight_hom("hyper", V, W)
    _preflight("hyper", *cech_dims(V, W))
    C = hom_complex(V, W)       # both routes read one complex
    hh = cech_hyper(C)
    result = {"hh0": hh[0], "hh1": hh[1], "hh2": hh[2]}
    verified: Optional[bool] = None
    if args.verify:
        r = ext_quiver_sheaf(C)
        verified = (r.ext0, r.ext1, r.ext2) == hh
        result["verify"] = "pass" if verified else "FAIL"
        result["ext_via_les"] = [r.ext0, r.ext1, r.ext2]
    _emit(args, [args.module_v, args.module_w], instance, digest, result)
    if verified is False:
        sys.stderr.write("quivhom: hypercohomology disagrees with the long "
                         "exact sequence; this indicates a bug\n")
        return EXIT_CROSS_CHECK
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        document = generate_document(
            seed=args.seed, mode=args.mode, max_vertices=args.max_vertices,
            max_arrows=args.max_arrows, max_dim=args.max_dim,
            max_twist=args.max_twist,
        )
    except ValueError as e:
        raise CliError(str(e), EXIT_VALIDATION)
    sys.stdout.write(json.dumps(document, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quivhom",
                     description="Hom/Ext of twisted quiver representations "
                                 "and twisted quiver sheaves on P1")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("ext", help="Ext dimensions of a module pair",
                           parents=[], add_help=True)
    p_ext.add_argument("file")
    p_ext.add_argument("module_v")
    p_ext.add_argument("module_w")
    p_ext.add_argument("--json", action="store_true")
    p_ext.add_argument("--bases", action="store_true",
                       help="include a Hom basis in the report (vector mode)")
    p_ext.set_defaults(func=cmd_ext)

    p_check = sub.add_parser("check", help="resolution exactness and lifting checks")
    p_check.add_argument("file")
    p_check.add_argument("module_v")
    p_check.add_argument("--max-degree", type=int, default=4)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_hyper = sub.add_parser("hyper", help="hypercohomology of the Hom complex")
    p_hyper.add_argument("file")
    p_hyper.add_argument("module_v")
    p_hyper.add_argument("module_w")
    p_hyper.add_argument("--verify", action="store_true",
                         help="cross-check against the long exact sequence")
    p_hyper.add_argument("--json", action="store_true")
    p_hyper.set_defaults(func=cmd_hyper)

    p_gen = sub.add_parser("gen", help="emit a random instance file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mode", choices=["vector", "p1"], default="vector")
    p_gen.add_argument("--max-vertices", type=int, default=4)
    p_gen.add_argument("--max-arrows", type=int, default=5)
    p_gen.add_argument("--max-dim", type=int, default=3)
    p_gen.add_argument("--max-twist", type=int, default=2)
    p_gen.set_defaults(func=cmd_gen)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built on the first call of main, not at import, then reused
    return build_parser()


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        sys.stderr.write(f"quivhom: {e}\n")
        return e.code
    except CrossCheckError as e:
        sys.stderr.write(f"quivhom: internal cross-check failed: {e}; "
                         "this indicates a bug\n")
        return EXIT_CROSS_CHECK


if __name__ == "__main__":
    sys.exit(main())
