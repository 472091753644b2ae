"""quivhom benchmark: one workload per run, printed as one JSON line.

    python3 bench/run.py --workload vector-fp|p1-sheaf|vector-q
                         [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the program is imported from its `src/`.  The run
writes the workload's instance files from the seed, times the start-up of
several fresh processes (`setup_s`), then runs the items in a fresh worker
process.  With `--trace 0` the last line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced worker,
compared against an untraced worker on the same inputs.  Outputs are
checked by the program's own verdicts and, on the reference seed, against
the recorded report digests.  Scratch files go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0
SETUP_PROBES = 4     # fresh starts timed before the worker, and as many after
TAIL_BEYOND = 10

END_TO_END = [("wall_s", "s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QUIVHOM_LOG", None)
    return env


def measure_setup(env: dict, warm_up: bool) -> list:
    """Seconds from spawning a fresh interpreter until `quivhom.cli` is imported."""
    probe = ("import time, sys\nimport quivhom.cli\n"
             "sys.stdout.write(repr(time.monotonic()))")
    samples = []
    # the first start in a checkout compiles bytecode and warms the file cache
    for k in range(SETUP_PROBES + warm_up):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if k or not warm_up:
            samples.append(float(done.stdout) - t0)
    return samples


def run_worker(env: dict, workload: str, inputs: str, seconds: float,
               trace: int, tag: str) -> dict:
    out = os.path.join(inputs, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--inputs", inputs, "--seconds", str(seconds), "--trace", str(trace),
           "--src", SRC, "--out", out]
    if trace:
        cmd += ["--spans", os.path.join(inputs, "spans.jsonl")]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=150)
    with open(out) as fh:
        return json.load(fh)


def tail_value(pooled: list, passes: int) -> float:
    """The highest percentile with TAIL_BEYOND items per pass beyond it."""
    return pooled[max(len(pooled) - TAIL_BEYOND * passes - 1, 0)]


def count_failures(result: dict, reference, tag: str) -> dict:
    """Failed item runs, keyed by (tag, pass, item id), with the reason.

    A run fails on the program's own verdict, on a report that differs from
    the reference digest, or on a report that differs from the first pass.
    """
    failures = {}
    first = {r["id"]: r["digest"] for r in result["items"][0]}
    for p, runs in enumerate(result["items"]):
        for r in runs:
            if r["verdict"] is not None:
                reason = r["verdict"]
            elif reference is not None and reference.get(r["id"]) != r["digest"]:
                reason = "report differs from the reference"
            elif r["digest"] != first[r["id"]]:
                reason = "report differs between passes"
            else:
                continue
            failures[(tag, p, r["id"])] = reason
    return failures


def end_to_end(result: dict, setup: list) -> dict:
    """Median pass time; item latencies pooled over the passes."""
    passes = result["passes"]
    pooled = sorted(x for p in passes for x in p["latency_s"])
    return {"wall_s": statistics.median(p["wall_s"] for p in passes),
            "item_p50_ms": statistics.median(pooled) * 1e3,
            "item_tail_ms": tail_value(pooled, len(passes)) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"]}


def load_reference(workload: str):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["digests"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write the report digests of this seed as the reference")
    args = ap.parse_args(argv)
    if args.record_reference and args.trace:
        ap.error("--record-reference records from an untraced run")

    if not os.path.isfile(os.path.join(SRC, "quivhom", "cli.py")):
        sys.stderr.write(f"bench: no quivhom sources under {SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)

    workload = workloads.WORKLOADS[args.workload]
    inputs = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(inputs, ignore_errors=True)
    workloads.write_inputs(workload, args.seed, inputs)
    env = _env()
    reference = None
    if args.seed == REFERENCE_SEED and not args.record_reference:
        reference = load_reference(args.workload)

    n_items = len(workloads.items_for(workload))
    pct = 100.0 * (n_items - TAIL_BEYOND) / n_items
    print(f"workload {args.workload}: seed {args.seed}, {workload.instances} instances, "
          f"{n_items} items per pass, one caller (closed loop); "
          f"item_tail_ms is p{pct:g} ({TAIL_BEYOND} of {n_items} items beyond it)")

    if args.trace:
        metrics, failures, attempted = traced_run(env, args.workload, inputs, reference)
        units = dict(PER_LAYER)
    else:
        metrics, failures, attempted, result = plain_run(env, args.workload, inputs,
                                                         args.seconds, reference)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        label = " (computed)" if name.endswith((".cells", ".nnz")) else ""
        print(f"  {name} = {value:.6g} {units[name]}{label}")
    print(f"  fail_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} item runs)")
    for (tag, p, item_id), reason in list(failures.items())[:20]:
        print(f"  FAILED {tag} pass {p} item {item_id}: {reason}")

    if args.record_reference:
        if failures:
            sys.stderr.write("bench: not recording a reference from a failing run\n")
            return 1
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        digests = {r["id"]: r["digest"] for r in result["items"][0]}
        with open(os.path.join(REFERENCE_DIR, f"{args.workload}.json"), "w") as fh:
            json.dump({"seed": args.seed, "digests": digests}, fh, indent=1, sort_keys=True)
            fh.write("\n")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def plain_run(env: dict, workload: str, inputs: str, seconds: float, reference):
    """End-to-end metrics of an untraced worker, with start-up timed around it."""
    # start-up is timed on both sides of the worker, so that the median
    # samples the machine's speed over the whole run
    setup = measure_setup(env, warm_up=True)
    result = run_worker(env, workload, inputs, seconds, 0, "plain")
    setup += measure_setup(env, warm_up=False)
    print(f"  passes {len(result['passes'])}, start-up samples {len(setup)}")
    failures = count_failures(result, reference, "plain")
    attempted = sum(len(runs) for runs in result["items"])
    return end_to_end(result, setup), failures, attempted, result


def traced_run(env: dict, workload: str, inputs: str, reference):
    """Per-layer metrics of a traced pass, against an untraced pass on the same inputs."""
    plain = run_worker(env, workload, inputs, 0, 0, "plain")
    traced = run_worker(env, workload, inputs, 0, 1, "traced")
    failures = {**count_failures(plain, reference, "plain"),
                **count_failures(traced, reference, "traced")}
    for a, b in zip(plain["items"][0], traced["items"][0]):
        if a["digest"] != b["digest"]:
            failures.setdefault(("traced", 0, a["id"]), "traced report differs from untraced")
    attempted = len(plain["items"][0]) + len(traced["items"][0])
    base, with_trace = plain["passes"][0]["wall_s"], traced["passes"][0]["wall_s"]
    print(f"  traced wall_s {with_trace:.4f} s, untraced wall_s {base:.4f} s")
    metrics = {**traced["per_layer"], "trace.overhead_frac": with_trace / base - 1.0}
    return metrics, failures, attempted


if __name__ == "__main__":
    sys.exit(main())
