"""Command-line interface.

Exit codes: 0 success, 1 failed mathematical assertion, 2 usage or cap error
or output closed early, 3 internal error (a broken invariant, an unexpected
exception, or a `scan` pool worker that died).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time
import traceback
from typing import Dict, List, Optional, TextIO, Tuple

from . import __version__
from .errors import CapExceeded, InternalError, InvalidParameter, ParityError, VerificationError
from .limits import DEFAULT_MAX_BITS, DEFAULT_MAX_TABLES
from .partitions import (
    Composition,
    Partition,
    StaircaseFamily,
    enumerate_tables,
    parse_parts,
    staircase_families,
    staircase_family,
)
from .relations import relation_provenance, relevance_system, solve_relevance
from .staircase import (
    VerifyReport,
    check_family,
    check_swapped,
    flat_relevance_system,
    verify_parity_theorem,
)
from .tabloids import end_dimension_oracle

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _support_digest(support: List[List[List[int]]]) -> str:
    blob = json.dumps(support, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True), flush=True)


def _family_from_args(args) -> Optional[StaircaseFamily]:
    if args.a is not None or args.m is not None or args.b is not None:
        if None in (args.a, args.m, args.b):
            raise InvalidParameter("--a, --m and --b must be given together")
        return staircase_family(args.a, args.m, args.b)
    return None


def _partition_from_args(args) -> Tuple[Partition, Optional[StaircaseFamily]]:
    """The partition named by --lambda or by --a/--m/--b, and the family if any."""
    fam = _family_from_args(args)
    if (fam is None) == (args.lam is None):
        raise InvalidParameter("give either --lambda or --a/--m/--b, not both")
    if fam is not None:
        return fam.lam, fam
    return Partition(parse_parts(args.lam)), None


def cmd_tables(args) -> int:
    alpha = Composition(parse_parts(args.alpha))
    beta = Composition(parse_parts(args.beta))
    tabs = enumerate_tables(alpha, beta, max_tables=args.max_tables)
    out = [
        {"alpha": list(alpha.parts), "beta": list(beta.parts), "entries": [list(r) for r in T]}
        for T in tabs
    ]
    _emit(out)
    return EXIT_OK


def _build_system(args):
    lam, fam = _partition_from_args(args)
    if fam is not None:
        return flat_relevance_system(fam, args.max_tables), fam
    return relevance_system(lam, args.max_tables), None


def cmd_rel_dim(args) -> int:
    sysm, fam = _build_system(args)
    rel = solve_relevance(sysm)
    support = sorted(A.to_lists() for A in rel.support)
    out = {
        "rel_dim": rel.dim,
        "num_tables": len(sysm.tables),
        "num_rows": len(sysm.rows),
        "rank": rel.rank,
        "residual_rows": rel.residual_rows,
        "support": support,
        "support_digest": _support_digest(support),
    }
    if fam is not None:
        out.update({"a": fam.a, "m": fam.m, "b": fam.b, "r": fam.r})
    _emit(out)
    return EXIT_OK


def cmd_end_dim(args) -> int:
    lam, _ = _partition_from_args(args)
    dim = end_dimension_oracle(lam, args.max_bits)
    _emit({"lambda": list(lam.parts), "end_dim": dim})
    return EXIT_OK


def cmd_verify(args) -> int:
    fam = _family_from_args(args)
    if fam is None:
        raise InvalidParameter("verify needs --a --m --b")
    report = verify_parity_theorem(fam, args.max_tables, args.max_bits)
    _emit(report.to_json_dict())
    return EXIT_OK


def _verdict_fits(rec: dict) -> bool:
    """A list of failure strings for a parity family, null for any other."""
    verdict = rec["verdict"]
    if (rec["a"] - rec["m"] - rec["b"]) % 2:
        return verdict is None
    return isinstance(verdict, list) and all(isinstance(v, str) for v in verdict)


def _open_cache(path: str) -> Tuple[TextIO, Dict[tuple, dict]]:
    """The cache, opened once to read and then append, and its records keyed
    on (partition, a, m, b, version, max_bits).  A torn last line is skipped
    as corrupt and then ended, so the next record appended gets its own line."""
    try:
        # undecodable bytes become U+FFFD, so their line is skipped as corrupt
        fh = open(path, "a+", errors="replace")
    except OSError as exc:
        raise InvalidParameter(f"cannot open cache {path}: {exc.strerror}") from exc
    fh.seek(0)
    cache: Dict[tuple, dict] = {}
    raw = "\n"
    for lineno, raw in enumerate(fh, 1):
        if raw.isspace():
            continue
        try:
            rec = json.loads(raw.strip())
            # a record must hold every field scan reads from it, with
            # the verdict type this run would write for its family
            if not _verdict_fits(rec):
                raise ValueError
            cache[rec["key"], rec["a"], rec["m"], rec["b"],
                  rec.get("version"), rec.get("max_bits")] = rec
        except (ValueError, KeyError, TypeError):
            print(f"warning: skipping corrupt cache line {lineno}", file=sys.stderr)
    if not raw.endswith("\n"):
        fh.write("\n")
    return fh, cache


def _record(report: VerifyReport, key: str, max_bits: int) -> dict:
    """The scan record of a report, as printed and cached."""
    rec = report.to_json_dict()
    rec.update(
        key=key,
        support_digest=_support_digest(rec.pop("support")),
        # the theorem claims nothing for a non-parity family
        verdict=report.failures() if report.parity else None,
        max_bits=max_bits,
        version=__version__,
        timestamp=int(time.time()),
    )
    return rec


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _swap_tasks(todo: List[Tuple[int, StaircaseFamily]]) -> List[tuple]:
    """The (index, family) pairs of todo grouped into tasks by swap pair, the
    earlier family first; a family that is its own swap, or whose swap is not
    in todo, is a task of its own."""
    at = {(f.a, f.m, f.b): (i, f) for i, f in todo}
    tasks = []
    for i, f in todo:
        if at.pop((f.a, f.m, f.b), None) is None:
            continue  # already in its partner's task
        partner = at.pop((f.a_prime, f.m, f.b_prime), None)
        tasks.append(((i, f),) if partner is None else ((i, f), partner))
    return tasks


def _run_task(task: tuple, max_tables: int, max_bits: int) -> List[tuple]:
    """(index, report) per family of a swap-pair task; a family that raises
    ends the task as (index, the exception).  The first family's flat system
    is solved and its partner's report built from that solve, so a first
    family that raises leaves its partner unrun."""
    out: List[tuple] = []
    try:
        for i, fam in task:
            report = check_swapped(report, max_bits) if out else check_family(
                fam, max_tables, max_bits)
            out.append((i, report))
    except Exception as exc:
        out.append((i, exc))
    return out


def _pooled_task(task: tuple, max_tables: int, max_bits: int) -> List[tuple]:
    """_run_task in a pool worker: an exception unpickles in the scanning
    process with the worker's traceback as its cause."""
    from multiprocessing.pool import ExceptionWithTraceback

    return [(i, ExceptionWithTraceback(out, out.__traceback__)
             if isinstance(out, BaseException) else out)
            for i, out in _run_task(task, max_tables, max_bits)]


@contextlib.contextmanager
def _outcomes(tasks: List[tuple], max_tables: int, max_bits: int):
    """An iterator over the tasks' _run_task results, in no fixed order.

    The tasks run on a fork pool with one worker per usable CPU, at most one
    per task, or in this process when that is one worker.  The pool is
    terminated and joined on leaving the context, however it is left.
    """
    workers = min(_usable_cpus(), len(tasks))
    if workers <= 1:
        yield (_run_task(task, max_tables, max_bits) for task in tasks)
        return
    import multiprocessing  # imported here: it costs every other command 20 ms
    import signal

    # a fork worker starts with the package loaded and needs no import; the
    # workers ignore Ctrl-C, which reaches this process and ends the pool
    before = multiprocessing.active_children()
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))

    def watched(results, started):
        # the pool replaces a worker that dies, but its task's result never
        # comes: a worker with an exit code ends the scan
        while True:
            try:
                yield results.next(timeout=1)
            except multiprocessing.TimeoutError:
                for p in started:
                    if p.exitcode is not None:
                        raise InternalError(
                            f"pool worker {p.pid} died with exit code {p.exitcode}") from None

    try:
        started = [p for p in multiprocessing.active_children() if p not in before]
        results = pool.imap_unordered(
            functools.partial(_pooled_task, max_tables=max_tables, max_bits=max_bits), tasks)
        yield watched(results, started)
    finally:
        pool.terminate()
        pool.join()


def cmd_scan(args) -> int:
    sink, cache = _open_cache(args.cache) if args.cache else (contextlib.nullcontext(), {})
    fams = staircase_families(args.max_r)
    if args.parity == "match":
        fams = [f for f in fams if f.parity_ok]
    elif args.parity == "mismatch":
        fams = [f for f in fams if not f.parity_ok]
    keys = [",".join(str(p) for p in fam.lam.parts) for fam in fams]
    recs = [None if args.force else cache.get(
        (key, fam.a, fam.m, fam.b, __version__, args.max_bits)) for key, fam in zip(keys, fams)]
    tasks = _swap_tasks([(k, fam) for k, (fam, rec) in enumerate(zip(fams, recs)) if rec is None])
    failed = False
    with sink as out, _outcomes(tasks, args.max_tables, args.max_bits) as results:
        done: Dict[int, object] = {}
        # records go out in family order, each as soon as it and every
        # earlier one are done; a family's exception stops the scan there
        for k, (key, rec) in enumerate(zip(keys, recs)):
            if rec is None:
                while k not in done:
                    done.update(next(results))
                report = done.pop(k)
                if isinstance(report, BaseException):
                    raise report
                rec = _record(report, key, args.max_bits)
                if out is not None:
                    out.write(json.dumps(rec, sort_keys=True) + "\n")
                    out.flush()
            print(json.dumps(rec, sort_keys=True), flush=True)
            if rec["verdict"]:
                failed = True
                print(f"assertion failed: ({rec['a']},{rec['m']},{rec['b']}): "
                      + "; ".join(rec["verdict"]), file=sys.stderr)
    return EXIT_ASSERT if failed else EXIT_OK


def cmd_dump_relations(args) -> int:
    sysm, _ = _build_system(args)
    out = {
        "alpha": list(sysm.alpha.parts),
        "beta": list(sysm.beta.parts),
        "tables": [[list(r) for r in T] for T in sysm.tables],
        "rows": [list(row) for row in sysm.rows],
        "provenance": relation_provenance(sysm),
    }
    _emit(out)
    return EXIT_OK


def _no_user_parameters(run) -> dict:
    """Run a check with no user parameters, whose refusals are bugs."""
    try:
        return run()
    except (InvalidParameter, CapExceeded) as exc:
        raise InternalError(f"{type(exc).__name__}: {exc}") from exc


def cmd_paper_examples(args) -> int:
    from .worked_examples import run_all

    _emit(_no_user_parameters(run_all))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    _emit(_no_user_parameters(run_selftest))
    return EXIT_OK


def _count(text: str) -> int:
    """A non-negative integer flag value; argparse names the flag on a refusal."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _add_max_tables(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-tables", type=_count, default=DEFAULT_MAX_TABLES)


def _add_max_bits(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-bits", type=_count, default=DEFAULT_MAX_BITS)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--b", type=int, default=None)


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", default=None, metavar="PARTS")
    _add_family_flags(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spechtend",
        description="Exact GF(2) computation of Specht endomorphism spaces",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("tables", help="enumerate Tab(alpha, beta)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_max_tables(p)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("rel-dim", help="dimension of the relevant space")
    _add_partition_flags(p)
    _add_max_tables(p)
    p.set_defaults(fn=cmd_rel_dim)

    p = sub.add_parser("end-dim", help="oracle endomorphism dimension")
    _add_partition_flags(p)
    _add_max_bits(p)
    p.set_defaults(fn=cmd_end_dim)

    p = sub.add_parser("verify", help="verify the parity theorem for a family")
    _add_family_flags(p)
    _add_max_tables(p)
    _add_max_bits(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="scan staircase families")
    p.add_argument("--max-r", type=_count, required=True)
    p.add_argument("--parity", choices=["match", "mismatch", "all"], default="match")
    p.add_argument("--cache", default=None)
    p.add_argument("--force", action="store_true")
    _add_max_tables(p)
    _add_max_bits(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("dump-relations", help="dump a relation system as JSON")
    _add_partition_flags(p)
    _add_max_tables(p)
    p.set_defaults(fn=cmd_dump_relations)

    p = sub.add_parser("paper-examples", help="run the frozen worked examples")
    p.set_defaults(fn=cmd_paper_examples)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(fn=cmd_selftest)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except InternalError:
        traceback.print_exc()
        return EXIT_INTERNAL
    except (VerificationError, AssertionError) as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except (CapExceeded, ParityError, InvalidParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # quiets the flush at exit
        print("error: output closed before the run finished", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
