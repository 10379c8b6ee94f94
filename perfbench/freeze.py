"""Regenerate perfbench/reference.json from the code in this checkout.

    python3 perfbench/freeze.py

Runs each workload once, in this process, and stores the outputs that
run.py checks on every run.  The committed file was frozen from a commit
whose results are trusted; regenerate it only when a change is meant to
alter those outputs, and say so in the change.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    mods = worker.import_package()
    ref = {}
    for name, (inputs_fn, run_fn, outputs_fn) in sorted(worker.WORKLOADS.items()):
        with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
            args = type("Args", (), {"cache": str(Path(tmp) / "scan.jsonl")})()
            inputs = inputs_fn(mods, args)
            out = outputs_fn(mods, inputs, run_fn(mods, inputs))
        ref[name] = {k: out[k] for k in ("families", "exit_code") if k in out}
        print(f"{name}: {len(out['families'])} families", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
