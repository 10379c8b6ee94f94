import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_traced_names_exist(monkeypatch):
    # perfbench/run.py raises KeyError for a per-layer metric that the
    # tracer no longer produces, so a renamed or deleted traced function
    # must fail here first
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
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
