import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_exist(worker):
    # perfbench/run.py raises KeyError for a per-layer metric that the
    # tracer no longer produces, so a renamed or deleted traced function
    # must fail here first
    tracer = worker.Tracer()
    tracer.install(worker.import_package())
    try:
        layers = tracer.aggregate()
    finally:
        tracer.uninstall()
    added_later = {"cli.records_out", "cli.cache_bytes"}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [n for n in names
               if not n.startswith("trace.") and n not in added_later and n not in layers]
    assert missing == []


def test_benchmark_workloads_run_on_small_inputs(worker, tmp_path):
    # each workload's run and outputs, on inputs small enough for tier-1, so a
    # break in the package API the benchmark reads fails here first
    mods = worker.import_package()
    fam = mods["partitions"].staircase_family(3, 2, 3)
    flat = worker.flat_outputs(mods, fam, worker.flat_run(mods, fam))["families"][0]
    assert (flat["rel_dim"], flat["support_is_A0"]) == (1, True)
    oracle = worker.oracle_outputs(mods, fam, worker.oracle_run(mods, fam))["families"][0]
    assert (oracle["end_dim"], oracle["ok"]) == (1, True)
    argv = ["scan", "--max-r", "5", "--parity", "all", "--cache", str(tmp_path / "scan.jsonl")]
    scan = worker.scan_outputs(mods, argv, worker.scan_run(mods, argv))
    assert (scan["exit_code"], scan["records_out"], len(scan["cached"])) == (0, 6, 6)
