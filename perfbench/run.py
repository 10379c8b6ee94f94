"""Benchmark of spechtend, end to end and layer by layer.

    python3 perfbench/run.py --workload {flat-m5,oracle-r8,scan-r13}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.
Every iteration is a fresh child process (perfbench/worker.py), run one at a
time in a closed loop with one client: the next child starts when the last
one has exited, and no child starts that would end past the S-second window
by the previous iteration's duration.  At least one iteration always runs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: median wall
time per iteration (set-up excluded), families verified per second, median
peak RSS of the child, and median set-up time (process start to ready,
including `import spechtend` and building the inputs) over several set-up-
only children plus every iteration.  --trace 1 alternates an untraced and a
traced iteration and reports the per-layer metrics, taken from the traced
ones, with the tracing overhead.

Every iteration's outputs are checked against perfbench/reference.json.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is a stamp of the machine and
settings.  Details of every iteration go to perfbench/out/.  The seed sets
PYTHONHASHSEED in the children, so the check also covers hash order; the
workloads' families do not depend on it (see perfbench/README.md).

Exit codes: 0 all outputs correct, 1 an iteration failed or its outputs did
not match, 2 the benchmark could not run (no src/spechtend, bad arguments).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("flat-m5", "oracle-r8", "scan-r13")
SETUP_PROBES = 9
# A run must end within 180 s; leave room for the last child's exit.
RUN_LIMIT_S = 170.0


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, deadline: float, cache: Path, extra=()) -> dict:
    """Run one worker child; return its result line plus `setup_s`.

    scan-r13 gets `cache` as its fresh --cache file, removed afterwards.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, *extra]
    if workload == "scan-r13":
        cmd += ["--cache", str(cache)]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload}: child killed at the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        cache.unlink(missing_ok=True)
    if proc.returncode != 0 or not first.startswith('{"ready"'):
        tail = (err or "").strip().splitlines()[-3:]
        raise ChildFailed(f"{workload}: child exited {proc.returncode}: {' | '.join(tail)}")
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = ready - t0
    return result


def check(outputs: dict, ref: dict) -> int:
    """Number of reference families the outputs got wrong or missed."""
    if outputs.get("exit_code", 0) != ref.get("exit_code", 0):
        return len(ref["families"])
    got = {f.get("key", f.get("family")): f for f in outputs["families"]}
    cached = {f["key"]: f for f in outputs.get("cached", [])}
    failed = 0
    for want in ref["families"]:
        key = want.get("key", want.get("family"))
        bad = got.get(key) != want
        if "cached" in outputs:
            bad = bad or cached.get(key) != want
        failed += bad
    extra = len(outputs["families"]) - len(ref["families"])
    return failed + max(0, extra)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "spechtend" / "__init__.py").is_file():
        print(f"error: no src/spechtend under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    ref = json.loads(REFERENCE.read_text())[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cache = OUT / f"scan-cache-{tag}.jsonl"

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    try:
        setups = [spawn(args.workload, args.seed, deadline, cache, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_PROBES)]
    except ChildFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2

    plain, traced, errors = [], [], []
    attempted = failed = 0
    n = 0
    while True:
        it_start = time.perf_counter()
        for trace in ((False, True) if args.trace else (False,)):
            n += 1
            extra = ["--run-id", f"{tag}-{n}"]
            if trace:
                extra += ["--trace", "--spans", str(OUT / f"spans-{args.workload}.tsv")]
            attempted += len(ref["families"])
            try:
                res = spawn(args.workload, args.seed, deadline, cache, extra)
            except ChildFailed as exc:
                errors.append(str(exc))
                failed += len(ref["families"])
                continue
            bad = check(res.pop("outputs"), ref)
            failed += bad
            if bad:
                errors.append(f"{args.workload} iteration {n}: {bad} families differ from the reference")
            (traced if trace else plain).append(res)
        now = time.perf_counter()
        step = now - it_start
        if errors or now + step > min(start + args.seconds, deadline):
            break

    if plain and (traced or not args.trace):
        if args.trace:
            layers = {k: statistics.median(t["layers"][k] for t in traced)
                      for k in traced[0]["layers"]}
            layers["trace.wall_s"] = median_of(traced, "wall_s")
            layers["trace.untraced_wall_s"] = median_of(plain, "wall_s")
            layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
            layers["trace.coverage"] = layers["trace.self_sum_s"] / layers["trace.wall_s"]
            values = layers
        else:
            families = len(ref["families"]) * len(plain)
            busy = sum(p["setup_s"] + p["wall_s"] for p in plain)
            values = {
                "wall_s": median_of(plain, "wall_s"),
                "families_per_s": families / busy,
                "peak_rss_mb": median_of(plain, "peak_rss_mb"),
                "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in metric_specs}
    else:
        metrics = {}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "iterations": len(plain) + len(traced),
        "setup_probes": SETUP_PROBES, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
    }
    detail = {"stamp": stamp, "result": result, "errors": errors,
              "setup_s": setups, "untraced": plain, "traced": traced}
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps(stamp, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
