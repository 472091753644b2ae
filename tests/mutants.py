"""A ledger of source mutants and the tests that must catch them.

Each entry names a file under `src/`, an exact text in it, the text that
replaces it, and the pytest node ids expected to fail once it is replaced.
tests/test_mutants.py checks in every run that each old text still occurs
exactly once, so an entry goes stale loudly when its code is rewritten.

    python tests/mutants.py

copies `src/` to a temporary directory once per mutant, applies the mutant
there, runs only its named tests with `-x` against the copy, and prints a
kill table in ledger order, then the total wall time.  It first runs every
named test against an unmutated copy, since a kill means nothing if the test
fails anyway.  Two mutants run at once; each run writes only under its own
directory (pytest's temporary files, Hypothesis's database, no bytecode).
The exit code is 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str               # relative to the repository root
    old: str                # occurs exactly once in file
    new: str
    killed_by: tuple        # pytest node ids, relative to the repository root


CECH_COMPOSE = tuple(f"tests/test_connecting_map.py::test_cech_differentials_compose_to_zero[{k}]"
                     for k in ("gen", "loops", "wide"))
FROBENIUS = "tests/test_hom_oracle.py::test_one_loop_hom_is_frobenius_formula"

MUTANTS = (
    Mutant("psi sign in hom_complex", "src/quivhom/rep.py",
           "entries.append((*pair, _minus(p, 0, cf)))", "entries.append((*pair, cf))",
           (FROBENIUS, "tests/test_hom_oracle.py::test_hom_count_is_p_to_the_nullity_of_delta")),
    Mutant("Cech overlap sign", "src/quivhom/sheaf.py",
           "put1(row2 + k2, col2, u + l + 1 - k2, -cf)",
           "put1(row2 + k2, col2, u + l + 1 - k2, cf)",
           ("tests/test_connecting_map.py::test_cech_differentials_compose_to_zero[gen]",)),
    Mutant("Cech chart-1 sign", "src/quivhom/sheaf.py",
           "put0(row1, col1 + k2, n1, cf)", "put0(row1, col1 + k2, n1, -cf)",
           ("tests/test_connecting_map.py::test_cech_differentials_compose_to_zero[gen]",)),
    Mutant("Hom coordinate split", "src/quivhom/rep.py",
           "m, s = divmod(pos, v_sizes[t])", "m, s = 0, pos % v_sizes[t]",
           ("tests/test_hom_oracle.py::test_hom_count_is_p_to_the_nullity_of_delta",)),
    Mutant("Cech window propagation", "src/quivhom/sheaf.py",
           "u0[j], l1[i] = max(u0[j], u1[i]), max(l1[i], l0[j])",
           "u0[j], l1[i] = u0[j], l1[i]",
           ("tests/test_connecting_map.py::test_cech_differentials_compose_to_zero[gen]",)),
    Mutant("echelon copy-on-write", "src/quivhom/linalg.py",
           "            if row is src:\n                row = dict(src)\n"
           "            inv = invs.get(c)\n",
           "            inv = invs.get(c)\n",
           ("tests/test_linalg.py::test_full_column_rank_stop_matches_list_reference",)),
    Mutant("delta1 form degree", "src/quivhom/sheaf.py",
           "h1_dim(d + len(form) - 1)", "h1_dim(d + len(form))",
           ("tests/test_sheaf.py::test_delta1_commutator_by_hand",)),
    Mutant("loop merge sign", "src/quivhom/rep.py",
           "_minus(p, entries[k][2], cf)", "_minus(p, cf, entries[k][2])",
           ("tests/test_connecting_map.py::test_delta_column_by_column", FROBENIUS)),
    Mutant("gen form length", "src/quivhom/generate.py",
           "range(dr - dc + 1)", "range(dr - dc + 2)",
           ("tests/test_cli.py::test_gen_hyper_verify_pipeline",)),
    Mutant("reduce pass left to right", "src/quivhom/linalg.py",
           "for c, _ in reversed(echelon):", "for c, _ in echelon:",
           ("tests/test_linalg.py::test_full_column_rank_stop_matches_list_reference",)),
    Mutant("extension eta offset", "src/quivhom/rep.py",
           "(eta[a], vt, 0, wt)", "(eta[a], vt, 0, 0)",
           ("tests/test_rep.py::test_build_extension_jordan_block",)),
    Mutant("extension psi offset", "src/quivhom/rep.py",
           "(W.phi[a], wt, 0, 0)", "(W.phi[a], wt, 0, 1)",
           ("tests/test_rep.py::test_read_back_agrees_with_the_unit_block_route[None]",)),
    Mutant("read-back drops its row test", "src/quivhom/rep.py",
           "elif i >= wh:", "elif True:",
           ("tests/test_rep.py::test_build_extension_jordan_block",)),
    Mutant("split pinned coordinate", "src/quivhom/rep.py",
           "+ dw + r: r == c", "+ r: r == c",
           ("tests/test_rep.py::test_split_iff_eta_in_image_of_delta",)),
    Mutant("resolution walk copy index", "src/quivhom/resolution.py",
           "e = (j * src + x) * dh", "e = (x * m + j) * dh",
           ("tests/test_resolution.py::test_composite_d_eps_vanishes",
            "tests/test_resolution.py::test_eps_blocks_match_path_actions_on_generated_instances")),
    Mutant("lift without beta", "src/quivhom/resolution.py",
           "x = beta[g]", "x = field.zero()",
           ("tests/test_resolution.py::test_lift_random_round_trip",
            "tests/test_resolution.py::test_lift_monomial_dual_example")),
    Mutant("class times form one class short", "src/quivhom/sheaf.py",
           "n = h1_dim(d + len(form) - 1)", "n = max(h1_dim(d + len(form) - 1) - 1, 0)",
           ("tests/test_sheaf.py::test_delta1_commutator_by_hand",)),
    Mutant("tensor copy m ignored", "src/quivhom/rep.py",
           "j = w_order[a][m * wt + r]", "j = w_order[a][r]",
           ("tests/test_hom_oracle.py::test_hom_count_is_p_to_the_nullity_of_delta",)),
    Mutant("Cech windows U only", "src/quivhom/sheaf.py",
           "u0[j], l1[i] = max(u0[j], u1[i]), max(l1[i], l0[j])",
           "u0[j], l1[i] = max(u0[j], u1[i]), l1[i]",
           CECH_COMPOSE),
    Mutant("Cech windows L only", "src/quivhom/sheaf.py",
           "u0[j], l1[i] = max(u0[j], u1[i]), max(l1[i], l0[j])",
           "u0[j], l1[i] = u0[j], max(l1[i], l0[j])",
           CECH_COMPOSE),
    Mutant("Cech chart-1 run shifted", "src/quivhom/sheaf.py",
           "put0(row1, col1 + k2, n1, cf)", "put0(row1, col1 + k2 + 1, n1, cf)",
           CECH_COMPOSE),
    Mutant("reduce scales in place", "src/quivhom/linalg.py",
           "pivots[c] = {j: x * inv % p if p else x * inv for j, x in row.items()}",
           "row.update({j: x * inv % p if p else x * inv for j, x in row.items()}); "
           "pivots[c] = row",
           tuple(f"tests/test_linalg.py::test_elimination_never_writes_to_its_input[{f}]"
                 for f in ("F5", "F2305843009213693951", "Q"))),
    Mutant("solve stops one column early", "src/quivhom/linalg.py",
           "_echelon(ExactMatrix._wrap(field, aug, n + 1), n)",
           "_echelon(ExactMatrix._wrap(field, aug, n + 1), n - 1)",
           ("tests/test_linalg.py::test_solve_stops_at_the_first_pivot_in_its_last_column",)),
    Mutant("solve drops its right-hand side", "src/quivhom/linalg.py",
           "{**r, n: rhs[i]} if i in rhs else r", "r",
           ("tests/test_linalg.py::test_solve_examples",
            "tests/test_rep.py::test_split_iff_eta_in_image_of_delta")),
    Mutant("cokernel identity column offset", "src/quivhom/linalg.py",
           "{**r, n + i: one}", "{**r, n + i - 1: one}",
           ("tests/test_linalg.py::test_cokernel_representatives_complete_column_space",)),
    Mutant("d's phi sign", "src/quivhom/resolution.py",
           "minus_phi = [(r, *divmod(c, dt), -cf)", "minus_phi = [(r, *divmod(c, dt), cf)",
           ("tests/test_resolution.py::test_exactness_jordan_block",
            "tests/test_acceptance.py::test_criterion_1_resolution_exactness")),
    # check itself exits 1 on these two: eps_injective and ker_d_eq_im_eps FAIL
    Mutant("eps degree-0 seed", "src/quivhom/resolution.py",
           "eps.add_run(0, 0, total, V.field.one())", "eps.add_run(0, 0, total, V.field.zero())",
           ("tests/test_cli.py::test_check_passes_on_jordan",
            "tests/test_cli.py::test_gen_check_pipeline")),
    Mutant("walk base offset", "src/quivhom/resolution.py",
           "base = col + x * dt", "base = col + x * dh",
           ("tests/test_cli.py::test_check_passes_across_an_arrow_between_unequal_dimensions",)),
    Mutant("is_morphism never fails", "src/quivhom/rep.py",
           "if lhs != rhs:", "if False:",
           ("tests/test_rep.py::test_read_back_agrees_with_the_unit_block_route[None]",
            "tests/test_rep.py::test_read_back_agrees_with_the_unit_block_route[q]",
            "tests/test_rep.py::test_build_extension_refuses_a_misplaced_cell")),
    Mutant("d_surjective without rank d", "src/quivhom/resolution.py",
           "ExactnessReport(eps_injective, ker_d_eq_im_eps, rank_d == d.nrows)",
           "ExactnessReport(eps_injective, ker_d_eq_im_eps, True)",
           ("tests/test_resolution.py::test_exactly_one_exactness_field_fails[d_surjective]",)),
    Mutant("ker_d_eq_im_eps without the nullity", "src/quivhom/resolution.py",
           "_codings_agree(V, layout, d) and d.ncols - rank_d == total",
           "_codings_agree(V, layout, d)",
           ("tests/test_resolution.py::test_exactly_one_exactness_field_fails[ker_d_eq_im_eps]",)),
    Mutant("eps_injective without rank eps", "src/quivhom/resolution.py",
           "eps_injective = rank(eps) == total", "eps_injective = True",
           ("tests/test_resolution.py::test_exactly_one_exactness_field_fails[eps_injective]",)),
    Mutant("FormMatrix coefficient count", "src/quivhom/sheaf.py",
           "0 < len(f) == dr - src[s] + 1", "0 < len(f)",
           ("tests/test_sheaf.py::test_form_matrix_coefficient_count",)),
    Mutant("gen null document row width", "src/quivhom/generate.py",
           "[None] * (len(m_twists[a]) * len(v_twists[t]))", "[None] * len(v_twists[t])",
           ("tests/test_cli.py::test_gen_hyper_verify_pipeline",)),
)


def _copy_src(into: Path, mutant: Optional[Mutant] = None) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = into / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"stale mutant {mutant.name!r}: its old text is not in "
                             f"{mutant.file} exactly once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def _run_tests(src: Path, node_ids) -> tuple:
    """(passed, seconds) of the named tests, stopping at the first failure, on the package in src.

    The run writes only beside src: no bytecode, and pytest's temporary
    files and Hypothesis's database under src's parent.
    """
    t0 = time.perf_counter()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "HYPOTHESIS_STORAGE_DIRECTORY": str(src.parent / "hypothesis")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(src.parent / "pytest"), "-o", f"pythonpath={src}", *node_ids],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0, time.perf_counter() - t0


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        node_ids = sorted({t for m in MUTANTS for t in m.killed_by})
        passed, seconds = _run_tests(clean, node_ids)
        print(f"unmutated copy: the {len(node_ids)} named tests "
              f"{'pass' if passed else 'FAIL'} ({seconds:.1f} s)")
        if not passed:
            return 1

        def verdict(k: int, mutant: Mutant) -> tuple:
            passed, seconds = _run_tests(_copy_src(Path(tmp) / f"mutant-{k}", mutant),
                                         mutant.killed_by)
            return (mutant.name, mutant.file, "survived" if passed else "killed",
                    f"{seconds:.1f} s", ", ".join(mutant.killed_by))

        with ThreadPoolExecutor(max_workers=2) as pool:
            rows = list(pool.map(verdict, range(len(MUTANTS)), MUTANTS))
    header = ("mutant", "file", "verdict", "time", "tests")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(f"{len(rows)} mutants, two at a time: {time.perf_counter() - t0:.1f} s in all")
    return 0 if all(r[2] == "killed" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
