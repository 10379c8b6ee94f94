"""One benchmark iteration of spechtend, run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME [--trace] [--cache PATH]
                                [--spans PATH] [--run-id ID] [--setup-only]

The worker imports spechtend from the checkout's ``src/``, builds the
workload's inputs and prints ``{"ready": true}``; the parent times set-up
from process start to that line.  It then runs the workload once, timed with
``time.perf_counter``, and prints one JSON line with the wall time, its own
peak RSS, the outputs the parent checks, and, with ``--trace``, the
per-layer aggregates.  Caches inside the package (``_basis_cached``,
``_row_splits``) start cold because every iteration is a new process.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# flat-m5 is (5,5,1): the only m = 5 family with r = 15.  The r = 16 families
# (5,5,2) and (6,5,1) take about 87 s and 1.5 GB each, which does not fit a
# benchmark run.  (5,5,1) violates the parity condition, so it runs the flat
# relevance system and solve (what `spechtend rel-dim` does), not
# verify_parity_theorem.
FLAT_FAMILY = (5, 5, 1)
ORACLE_FAMILY = (4, 2, 4)
SCAN_ARGS = ["scan", "--max-r", "13", "--parity", "all", "--max-bits", "4000000"]
SCAN_FIELDS = ("key", "a", "m", "b", "r", "parity", "rel_dim", "end_dim",
               "num_tables", "support_digest")

# The layers the traced run wraps.  In cli only `main` is wrapped: the cmd_*
# functions are reached only through it, and its self time is meant to cover
# argument parsing, JSON output and cache I/O.
LAYER_MODULES = ("partitions", "relations", "gf2", "staircase", "tabloids")
TRACED_METHODS = (("gf2", "Echelon", "insert"), ("gf2", "Echelon", "nullspace"),
                  ("gf2", "TaggedEchelon", "insert"))


def import_package():
    """Import spechtend from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import spechtend
    from spechtend import cli, gf2, partitions, relations, staircase, tabloids

    if Path(spechtend.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"spechtend imported from {spechtend.__file__}, not {SRC}")
    return {"cli": cli, "gf2": gf2, "partitions": partitions,
            "relations": relations, "staircase": staircase, "tabloids": tabloids}


def support_digest(support) -> str:
    lists = sorted(A.to_lists() for A in support)
    blob = json.dumps(lists, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def family_key(fam) -> str:
    return f"{fam.a},{fam.m},{fam.b}"


# Each workload is (inputs, run, outputs).  `inputs` is set-up, `run` is the
# timed call into the package, `outputs` turns its result into the values the
# parent compares with reference.json; it runs after timing and tracing.

def flat_inputs(mods, args):
    return mods["partitions"].staircase_family(*FLAT_FAMILY)


def flat_run(mods, fam):
    system = mods["staircase"].flat_relevance_system(fam)
    return system, mods["relations"].solve_relevance(system)


def flat_outputs(mods, fam, result):
    system, rel = result
    support = sorted(rel.support, key=lambda A: A.entries)
    return {"families": [{
        "family": family_key(fam),
        "rel_dim": rel.dim,
        "end_dim": None,
        "num_tables": len(system.tables),
        "num_rows": len(system.rows),
        "support_digest": support_digest(support),
        "support_is_A0": support == [mods["staircase"].theorem_matrix(fam)],
    }]}


def oracle_inputs(mods, args):
    return mods["partitions"].staircase_family(*ORACLE_FAMILY)


def oracle_run(mods, fam):
    return mods["staircase"].verify_parity_theorem(fam, run_oracle=True)


def oracle_outputs(mods, fam, report):
    return {"families": [{
        "family": family_key(fam),
        "rel_dim": report.rel_dim,
        "end_dim": report.end_dim,
        "num_tables": report.num_tables,
        "support_digest": support_digest(report.support),
        "support_is_A0": report.support == [mods["staircase"].theorem_matrix(fam)],
        "ok": report.ok,
    }]}


def scan_inputs(mods, args):
    if args.cache is None:
        raise SystemExit("scan-r13 needs --cache")
    return SCAN_ARGS + ["--cache", args.cache]


def scan_run(mods, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods["cli"].main(argv)
    return code, buf.getvalue()


def _trim(rec):
    return {k: rec.get(k) for k in SCAN_FIELDS}


def scan_outputs(mods, argv, result):
    code, text = result
    printed = [json.loads(line) for line in text.splitlines() if line.strip()]
    cache_path = argv[argv.index("--cache") + 1]
    try:
        with open(cache_path) as fh:
            cached = [json.loads(line) for line in fh if line.strip()]
        cache_bytes = os.path.getsize(cache_path)
    except FileNotFoundError:
        cached, cache_bytes = [], 0
    return {
        "exit_code": code,
        "families": [_trim(r) for r in printed],
        "cached": [_trim(r) for r in cached],
        "records_out": len(printed),
        "cache_bytes": cache_bytes,
    }


WORKLOADS = {
    "flat-m5": (flat_inputs, flat_run, flat_outputs),
    "oracle-r8": (oracle_inputs, oracle_run, oracle_outputs),
    "scan-r13": (scan_inputs, scan_run, scan_outputs),
}


class Tracer:
    """Spans around the package's public functions, kept in memory.

    A span is (name, start_ns, end_ns, parent index, exception name or "").
    Modules use `from .x import y`, so a function is replaced in every
    spechtend module whose namespace holds it; methods are replaced on their
    class.  `uninstall` puts the originals back.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.systems = []   # RelationSystem results, for the row-weight histogram
        self.reports = []   # VerifyReport results, for families_ok
        self.counts = {"partitions.tables_out": 0, "relations.rows_raw": 0,
                       "gf2.rank": 0, "gf2.nullity": 0, "tabloids.rho_bits": 0}
        self.names = []
        self._undo = []

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        self.names.append(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = ""
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, err)
            if hook is not None:
                hook(result, args)
            return result

        return traced

    def _hooks(self):
        c = self.counts

        def add(key, n):
            c[key] += n

        def nullspace(result, args):
            add("gf2.rank", len(args[0].pivots))
            add("gf2.nullity", len(result))

        return {
            "partitions.enumerate_tables": lambda r, a: add("partitions.tables_out", len(r)),
            "relations.build_R_rows": lambda r, a: add("relations.rows_raw", len(r)),
            "relations.build_C_rows": lambda r, a: add("relations.rows_raw", len(r)),
            "relations.relation_system": lambda r, a: self.systems.append(r),
            "staircase.verify_parity_theorem": lambda r, a: self.reports.append(r),
            "gf2.Echelon.nullspace": nullspace,
            "tabloids.rho_matrix": lambda r, a: add("tabloids.rho_bits", r.nrows * r.ncols),
        }

    def install(self, mods):
        hooks = self._hooks()
        targets = {}
        for modname in LAYER_MODULES:
            mod = mods[modname]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    name = f"{modname}.{attr}"
                    targets[id(fn)] = self.wrap(name, fn, hooks.get(name))
        main = mods["cli"].main
        targets[id(main)] = self.wrap("cli.main", main)
        package = [m for n, m in sys.modules.items()
                   if n == "spechtend" or n.startswith("spechtend.")]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                wrapped = targets.get(id(value))
                if wrapped is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        for modname, clsname, meth in TRACED_METHODS:
            cls = getattr(mods[modname], clsname)
            fn = cls.__dict__[meth]
            name = f"{modname}.{clsname}.{meth}"
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn, hooks.get(name)))

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def write(self, path, run_id):
        """Write the spans as tab-separated lines, times in ns."""
        with open(path, "w") as fh:
            fh.write("run\tid\tname\tstart_ns\tend_ns\tparent\terror\n")
            for i, (name, start, end, parent, err) in enumerate(self.spans):
                fh.write(f"{run_id}\t{i}\t{name}\t{start}\t{end}\t{parent}\t{err}\n")

    def aggregate(self):
        """Busy time, self time and calls per span name, plus the counters.

        Busy time (`.s`) counts a span only when no ancestor has the same
        name; self time (`.self_s`) is a span's duration minus its direct
        children's durations.
        """
        spans = self.spans
        child = [0] * len(spans)
        for name, start, end, parent, err in spans:
            if parent >= 0:
                child[parent] += end - start
        busy = {name: 0 for name in self.names}
        selft, calls = dict(busy), dict(busy)
        oracle_enum = capped = capped_ns = 0
        for i, (name, start, end, parent, err) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            selft[name] += dur - child[i]
            outermost, under_oracle = True, False
            q = parent
            while q >= 0:
                qname = spans[q][0]
                outermost = outermost and qname != name
                under_oracle = under_oracle or qname.startswith("tabloids.")
                q = spans[q][3]
            if outermost:
                busy[name] += dur
                if name == "partitions.enumerate_tables" and under_oracle:
                    oracle_enum += dur
            if name == "tabloids.end_dimension_oracle" and err == "CapExceeded":
                capped += 1
                capped_ns += dur

        def sec(ns):
            return ns / 1e9

        out = dict(self.counts)
        for name in busy:
            out[f"{name}.s"] = sec(busy[name])
            out[f"{name}.self_s"] = sec(selft[name])
            out[f"{name}.calls"] = calls[name]
        modules = {}
        for name, ns in selft.items():
            mod = name.split(".")[0]
            modules[mod] = modules.get(mod, 0) + ns
        for mod, ns in modules.items():
            out[f"{mod}.self_s"] = sec(ns)
        out["trace.self_sum_s"] = sec(sum(modules.values()))
        out["trace.spans"] = len(spans)
        out["partitions.enumerate_tables.oracle_s"] = sec(oracle_enum)
        oracle_calls = calls["tabloids.end_dimension_oracle"]
        out["tabloids.oracle_capped"] = capped
        out["tabloids.oracle_capped_s"] = sec(capped_ns)
        out["tabloids.oracle_useful_ratio"] = (
            (oracle_calls - capped) / oracle_calls if oracle_calls else 0.0)
        rows = [row for system in self.systems for row in system.rows]
        out["relations.rows_unique"] = len(rows)
        for w in range(1, 5):
            out[f"relations.rows_w{w}"] = sum(1 for row in rows if len(row) == w)
        out["relations.rows_w5plus"] = sum(1 for row in rows if len(row) >= 5)
        raw = out["relations.rows_raw"]
        out["relations.dedupe_ratio"] = len(rows) / raw if raw else 0.0
        out["staircase.families_ok"] = sum(1 for rep in self.reports if rep.ok)
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cache", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--run-id", default="0")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mods = import_package()
    inputs_fn, run_fn, outputs_fn = WORKLOADS[args.workload]
    inputs = inputs_fn(mods, args)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(mods)
    t0, c0 = time.perf_counter(), time.process_time()
    result = run_fn(mods, inputs)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    outputs = outputs_fn(mods, inputs, result)
    line = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024, "outputs": outputs}
    if tracer is not None:
        layers = tracer.aggregate()
        layers["cli.records_out"] = outputs.get("records_out", 0)
        layers["cli.cache_bytes"] = outputs.get("cache_bytes", 0)
        line["layers"] = layers
        if args.spans:
            tracer.write(args.spans, args.run_id)
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
