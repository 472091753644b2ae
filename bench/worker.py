"""One timed process: issue a workload's items in a closed loop.

Started fresh by run.py with the checkout's `src` on PYTHONPATH.  One
caller issues the items in a fixed order, each only after the previous one
returned, so the load never uses more than one core.  Passes over the
batch repeat while a pass as slow as the slowest so far still fits in
`--seconds` (at least one pass runs).  Outputs are checked after each pass, outside the timed loop.
Results go to `--out` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _split_item(path: str) -> int:
    """ext1_classes, then build_extension and is_split_extension per class."""
    from quivhom import instances, rep
    with open(path, "rb") as fh:
        raw = fh.read()
    inst = instances.load_instance(json.loads(raw.decode("utf-8")))
    V, W = inst.modules["V"], inst.modules["W"]
    lines = ["command: split", f"instance: sha256:{hashlib.sha256(raw).hexdigest()}"]
    classes = rep.ext1_classes(V, W)
    lines.append(f"classes: {len(classes)}")
    verdicts = []
    for k, etas in enumerate(classes):
        E = rep.build_extension(V, W, etas)
        verdicts.append(rep.is_split_extension(E, V, W))
        lines.append(f"eta[{k}]: " + json.dumps(
            [[[str(x) for x in row] for row in m.to_lists()] for m in etas]))
    lines.append("split: " + " ".join("true" if s else "false" for s in verdicts))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def run_item(item: workloads.Item, input_dir: str):
    """(exit code, captured stdout) of one item; a raise gives code -1."""
    import quivhom.cli
    path = os.path.join(input_dir, item.path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if item.argv is None:
                code = _split_item(path)
            else:
                argv = [path if a == item.path else a for a in item.argv]
                code = quivhom.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue()


def run_pass(items, input_dir: str, tracer=None):
    latencies, codes, reports = [], [], []
    t_start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item.item_id
            span = tracer.open(tracer.ITEM_SPAN)
        t0 = time.perf_counter()
        code, report = run_item(item, input_dir)
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
        codes.append(code)
        reports.append(report)
    wall = time.perf_counter() - t_start
    return wall, latencies, codes, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import quivhom.cli
    if not os.path.abspath(quivhom.cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.stderr.write(f"quivhom imported from {quivhom.cli.__file__}, "
                         f"not from {args.src}\n")
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    items = workloads.items_for(workloads.WORKLOADS[args.workload])
    passes, item_results = [], []
    spent = 0.0
    while True:
        wall, latencies, codes, reports = run_pass(items, args.inputs, tracer)
        verdicts = workloads.check_batch(items, codes, reports)
        passes.append({"wall_s": wall, "latency_s": latencies})
        item_results.append([
            {"id": it.item_id, "code": c, "digest": workloads.digest(r), "verdict": v}
            for it, c, r, v in zip(items, codes, reports, verdicts)])
        if len(passes) == 1:
            # later passes only add allocator retention, and their number varies
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spent += wall
        # stop unless a pass as slow as the slowest so far still fits
        if tracer is not None or spent + max(p["wall_s"] for p in passes) > args.seconds:
            break

    result = {"passes": passes, "items": item_results, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.per_layer()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
