"""Tests of the benchmark harness: failure counting and the tracer's wrapping."""

import importlib
import json
import os

import pytest

import run
import worker
import workloads
from tracer import PER_LAYER, SPANNED, Tracer, bindings, import_package


def _batch(tmp_path, name, instances=1):
    """Input files and items for the first instances of a workload, seed 0."""
    base = workloads.WORKLOADS[name]
    wl = workloads.Workload(name, instances, base.kinds)
    workloads.write_inputs(wl, run.REFERENCE_SEED, str(tmp_path))
    return workloads.items_for(wl)


def _result(items, codes, reports):
    verdicts = workloads.check_batch(items, codes, reports)
    return {"items": [[{"id": it.item_id, "code": c, "digest": workloads.digest(r),
                        "verdict": v}
                       for it, c, r, v in zip(items, codes, reports, verdicts)]]}


def test_doctored_report_counts_as_failed(tmp_path):
    items = _batch(tmp_path, "p1-sheaf")
    runs = [worker.run_item(it, str(tmp_path)) for it in items]
    codes = [c for c, _ in runs]
    reports = [r for _, r in runs]
    reference = run.load_reference("p1-sheaf")
    assert run.count_failures(_result(items, codes, reports), reference, "plain") == {}

    # same verdicts, one changed byte: only the reference digest catches it
    doctored = list(reports)
    doctored[1] = doctored[1].replace("command: ext", "command: ext ")
    failures = run.count_failures(_result(items, codes, doctored), reference, "plain")
    assert list(failures) == [("plain", 0, items[1].item_id)]
    assert "reference" in failures[("plain", 0, items[1].item_id)]


def test_wrong_verdicts_count_as_failed():
    check = workloads.Item("000.checkV", "checkV", "f.json", ("check", "f.json", "V"))
    report = ("command: check\n\nmax_degree: 4\neps_injective: pass\n"
              "ker_d_eq_im_eps: FAIL\nd_surjective: pass\nlift_roundtrip: pass\n")
    assert workloads.verdict(check, 0, report, {}) is not None
    assert workloads.verdict(check, 1, report.replace("FAIL", "pass"), {}) is not None
    assert workloads.verdict(check, 0, report.replace("FAIL", "pass"), {}) is None

    split = workloads.Item("000.split", "split", "f.json", None)
    assert workloads.verdict(split, 0, "classes: 2\nsplit: false true\n", {}) is not None
    assert workloads.verdict(split, 0, "classes: 2\nsplit: false false\n", {}) is None

    ext = workloads.Item("000.ext", "ext", "f.json", ("ext", "f.json", "V", "W"))
    hyper = {"hh0": "1", "hh1": "3", "hh2": "0"}
    les = "ext0: 1\next1: 3\next2: 0\n"
    assert workloads.verdict(ext, 0, les, {"hyper": hyper}) is None
    assert workloads.verdict(ext, 0, les.replace("3", "2"), {"hyper": hyper}) is not None


def test_every_binding_is_wrapped_and_restored():
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        rank = importlib.import_module("quivhom.linalg").rank
        holders = {getattr(owner, "__name__", "") for owner, _ in
                   bindings(import_package(), rank)}
        # the package re-exports rank, and the modules import it by name
        assert {"quivhom", "quivhom.linalg", "quivhom.cli", "quivhom.sheaf",
                "quivhom.resolution"} <= holders
    finally:
        tracer.uninstall()
    modules = import_package()
    for name, module, attr in SPANNED:
        assert bindings(modules, tracer.originals[name]), name


@pytest.mark.parametrize("name", ["vector-fp", "vector-q", "p1-sheaf"])
def test_traced_and_untraced_outputs_are_identical(tmp_path, name):
    items = _batch(tmp_path, name)
    plain = [worker.run_item(it, str(tmp_path)) for it in items]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [worker.run_item(it, str(tmp_path)) for it in items]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    reference = run.load_reference(name)
    assert [workloads.digest(r) for _, r in plain] == [reference[it.item_id] for it in items]
    spans = {s[0] for s in tracer.spans}
    assert "cli.main" in spans and "instances.load_instance" in spans


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
