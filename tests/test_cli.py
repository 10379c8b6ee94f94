import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from spechtend import (
    cli, gf2, partitions, relations, selftest, staircase, tabloids, worked_examples,
)
from spechtend.errors import CapExceeded, InternalError, InvalidParameter
from spechtend.limits import DEFAULT_MAX_BITS

from oracles import partitions_of


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    code, out, err = run(capsys, ["--version"])
    assert code == 0


def test_tables_json(capsys):
    code, out, _ = run(capsys, ["tables", "--alpha", "4,2", "--beta", "3,3"])
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 3
    assert {"alpha": [4, 2], "beta": [3, 3], "entries": [[2, 2], [1, 1]]} in recs


def test_tables_cap_holds_for_one_row_margins(capsys):
    for alpha, beta in (("3", "2,1"), ("2,1", "3")):
        argv = ["tables", "--alpha", alpha, "--beta", beta, "--max-tables", "0"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert "more than 0 tables" in err, argv
        assert run(capsys, argv[:-1] + ["1"])[0] == 0


def test_tables_wider_than_the_recursion_limit_is_a_cap(capsys):
    with pytest.raises(CapExceeded):
        partitions.enumerate_tables((1,) * 2000, (2000,))
    assert partitions.enumerate_tables((2000,), (1,) * 2000) == [((1,) * 2000,)]
    ones = ",".join(["1"] * 1100)
    code, out, err = run(capsys, ["tables", "--alpha", ones, "--beta", "1100"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_rel_dim_lambda(capsys):
    code, out, _ = run(capsys, ["rel-dim", "--lambda", "2,1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["rel_dim"] == 1
    assert rec["num_tables"] == 2
    assert rec["support"] == [[[1, 1], [1, 0]]]
    assert len(rec["support_digest"]) == 64


def test_rel_dim_family_flags(capsys):
    code, out, _ = run(capsys, ["rel-dim", "--a", "3", "--m", "2", "--b", "3"])
    assert code == 0
    rec = json.loads(out)
    assert (rec["a"], rec["m"], rec["b"], rec["r"]) == (3, 2, 3, 6)
    assert rec["rel_dim"] == 1
    assert rec["rank"] + rec["rel_dim"] == rec["num_tables"]
    assert rec["num_rows"] >= rec["rank"]
    assert rec["residual_rows"] == 0
    assert rec["support"] == [[[1, 3], [2, 0]]]


def test_rel_dim_reports_residual_cols(capsys):
    # the live classes the sparse passes leave to the echelon solve: with no
    # row left each one is free, and (4,3,3,1) leaves 60 rows of rank 2 on 10
    for flags, want in [(["--a", "3", "--m", "2", "--b", "3"], (0, 1, 1)),
                        (["--lambda", "4,3,3,1"], (60, 10, 8))]:
        code, out, _ = run(capsys, ["rel-dim"] + flags)
        assert code == 0
        rec = json.loads(out)
        assert (rec["residual_rows"], rec["residual_cols"], rec["rel_dim"]) == want


def test_rel_dim_needs_some_flags(capsys):
    code, _, err = run(capsys, ["rel-dim"])
    assert code == 2
    code, _, err = run(capsys, ["rel-dim", "--a", "3", "--m", "2"])
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["--lambda", "3,1,1,1"], ["--a", "3", "--m", "2", "--b", "3"],
], ids=["lambda", "family"])
def test_end_dim(capsys, flags):
    code, out, _ = run(capsys, ["end-dim", *flags])
    assert code == 0
    rec = json.loads(out)
    assert rec == {"lambda": [3, 1, 1, 1], "end_dim": 1}


def test_end_dim_cap_exceeded(capsys):
    code, _, err = run(capsys, ["end-dim", "--lambda", "2,1", "--max-bits", "1"])
    assert code == 2
    assert "error" in err


def test_verify_family(capsys):
    code, out, _ = run(capsys, ["verify", "--a", "3", "--m", "2", "--b", "3"])
    assert code == 0
    rec = json.loads(out)
    assert rec["rel_dim"] == 1
    assert rec["end_dim"] == 1
    assert rec["support"] == [[[1, 3], [2, 0]]]
    assert set(rec["audits"].values()) == {"pass"}


def test_verify_parity_mismatch_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--a", "4", "--m", "2", "--b", "1"])
    assert code == 2
    assert "parity" in err or "mod 2" in err


def test_verify_needs_family(capsys):
    code, _, _ = run(capsys, ["verify", "--lambda", "2,1"])
    assert code == 2


def test_unknown_subcommand(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


BASE_ARGV = {
    "tables": ["tables", "--alpha", "2,1", "--beta", "2,1"],
    "rel-dim": ["rel-dim", "--lambda", "2,1"],
    "end-dim": ["end-dim", "--lambda", "2,1"],
    "verify": ["verify", "--a", "3", "--m", "2", "--b", "3"],
    "scan": ["scan", "--max-r", "3"],
    "dump-relations": ["dump-relations", "--lambda", "2,1"],
    "paper-examples": ["paper-examples"],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("cmd, flag, value", [
    ("tables", "--max-bits", "1"),
    ("rel-dim", "--max-bits", "1"),
    ("dump-relations", "--max-bits", "1"),
    ("end-dim", "--max-tables", "1"),
    ("paper-examples", "--max-bits", "1"),
    ("paper-examples", "--max-tables", "1"),
    ("selftest", "--max-bits", "1"),
    ("selftest", "--max-tables", "1"),
    ("verify", "--lambda", "2,1"),
    # --threads was never read; it is no longer an option at all
    ("rel-dim", "--threads", "0"),
    ("rel-dim", "--threads", "1"),
] + [(cmd, "--format", "json") for cmd in BASE_ARGV])
def test_unread_flags_are_refused(capsys, cmd, flag, value):
    # each subcommand registers only the flags it reads
    code, out, err = run(capsys, BASE_ARGV[cmd] + [flag, value])
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("argv, flag, value", [
    (["scan", "--max-r"], "--max-r", "-3"),
    (["tables", "--alpha", "2", "--beta", "1,1", "--max-tables"], "--max-tables", "-1"),
    (BASE_ARGV["verify"] + ["--max-bits"], "--max-bits", "-1"),
], ids=["max-r", "max-tables", "max-bits"])
def test_negative_counts_are_usage_errors(capsys, argv, flag, value):
    code, out, err = run(capsys, argv + [value])
    assert (code, out) == (2, "")
    assert f"argument {flag}: must be at least 0, got {value}" in err
    # 0 stays a valid count
    args = cli.build_parser().parse_args(argv + ["0"])
    assert getattr(args, flag[2:].replace("-", "_")) == 0


def test_lambda_and_family_flags_exclude_each_other(capsys):
    for cmd in ("rel-dim", "end-dim", "dump-relations"):
        both = BASE_ARGV[cmd] + ["--a", "3", "--m", "2", "--b", "3"]
        code, out, err = run(capsys, both)
        assert (code, out) == (2, ""), cmd
        assert "not both" in err
        code, out, err = run(capsys, [cmd])
        assert (code, out) == (2, ""), cmd
        assert "give either --lambda or --a/--m/--b" in err


def test_max_tables_caps_shifted_enumerations(capsys):
    # (3,3,4) has 17 tables; the shifted enumeration behind its C(2,3) rows has 18
    argv = ["rel-dim", "--a", "3", "--m", "3", "--b", "4", "--max-tables"]
    code, _, err = run(capsys, argv + ["17"])
    assert code == 2
    assert "more than 17 tables" in err
    code, out, _ = run(capsys, argv + ["18"])
    assert code == 0
    assert json.loads(out)["num_tables"] == 17


def test_dump_relations(capsys):
    code, out, _ = run(capsys, ["dump-relations", "--lambda", "2,1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["tables"] == [[[1, 1], [1, 0]], [[2, 0], [0, 1]]]
    assert rec["rows"] == [[1]]  # forces the coefficient of [[2,0],[0,1]] to zero
    assert len(rec["provenance"]) == 1


def test_dump_relations_digest_r8_to_r10(capsys):
    # the concatenated outputs for all 94 partitions with 8 <= r <= 10, frozen
    # while the relation system still formatted its own provenance strings
    digest = hashlib.sha256()
    count = 0
    for r in range(8, 11):
        for parts in partitions_of(r):
            lam = ",".join(map(str, parts))
            code, out, _ = run(capsys, ["dump-relations", "--lambda", lam])
            assert code == 0, lam
            digest.update(out.encode())
            count += 1
    assert count == 94
    assert digest.hexdigest() == (
        "dfdd271705188b6a92bedfb9b334f874b18507a97d4141bf1a0c21aafc4ba504"
    )


def test_scan_deterministic_with_cache(tmp_path, capsys):
    cache = str(tmp_path / "scan.jsonl")
    code, out1, _ = run(capsys, ["scan", "--max-r", "5", "--cache", cache])
    assert code == 0
    size_after_first = (tmp_path / "scan.jsonl").stat().st_size
    code, out2, _ = run(capsys, ["scan", "--max-r", "5", "--cache", cache])
    assert code == 0
    assert out1 == out2
    # the second run was served from the cache and appended nothing
    assert (tmp_path / "scan.jsonl").stat().st_size == size_after_first
    recs = [json.loads(line) for line in out1.strip().splitlines()]
    assert all(r["parity"] for r in recs)
    assert all(r["rel_dim"] == 1 for r in recs)
    assert all(r["end_dim"] == 1 for r in recs)


def test_scan_force_recomputes_every_family(tmp_path, capsys):
    cache = tmp_path / "scan.jsonl"
    argv = ["scan", "--max-r", "5", "--cache", str(cache)]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    before = cache.read_text()
    code, out2, _ = run(capsys, argv + ["--force"])
    assert code == 0
    assert _unstamped(_lines(out2)) == _unstamped(_lines(out1))
    text = cache.read_text()
    assert text.startswith(before)
    assert _lines(text[len(before):]) == _lines(out2)


def test_scan_keeps_the_record_after_a_torn_last_line(tmp_path, capsys):
    cache = tmp_path / "scan.jsonl"
    argv = ["scan", "--max-r", "5", "--cache", str(cache)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    first, last = cache.read_bytes().splitlines(keepends=True)
    cache.write_bytes(first + last[:len(last) // 2])
    code, out1, err = run(capsys, argv)
    assert code == 0
    assert err.count("corrupt cache line") == 1
    # the torn line was ended, and the recomputed family has a line of its own
    text = cache.read_text().splitlines()
    assert len(text) == 3 and json.loads(text[2]) == _lines(out1)[1]
    written = cache.read_bytes()
    code, out2, err = run(capsys, argv)
    assert code == 0
    assert out2 == out1
    # served from the cache, the second rerun appended nothing
    assert cache.read_bytes() == written


def test_scan_parity_mismatch_filter(capsys):
    code, out, _ = run(capsys, ["scan", "--max-r", "4", "--parity", "mismatch"])
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs and all(not r["parity"] for r in recs)


def test_scan_skips_corrupt_cache_lines(tmp_path, capsys):
    cache = tmp_path / "scan.jsonl"
    cache.write_bytes(b"this is not json\n\xff\xfe not utf-8\n")
    code, out, err = run(capsys, ["scan", "--max-r", "4", "--cache", str(cache)])
    assert code == 0
    assert "corrupt cache line 1" in err and "corrupt cache line 2" in err
    assert out.strip()


def test_scan_skips_cache_records_missing_fields(tmp_path, capsys):
    cache = tmp_path / "scan.jsonl"
    rec = {"key": "2,1", "version": "0.1.0", "max_bits": DEFAULT_MAX_BITS}
    cache.write_text(json.dumps(rec) + "\n"
                     + json.dumps(dict(rec, verdict=["x"])) + "\n")
    code, out, err = run(capsys, ["scan", "--max-r", "3", "--parity", "all",
                                  "--cache", str(cache)])
    assert code == 0
    assert "corrupt cache line 1" in err and "corrupt cache line 2" in err
    # the family was computed afresh and appended after the two bad lines
    assert _lines(cache.read_text())[2:] == _lines(out)


def test_scan_recomputes_cache_records_that_misstate_their_family(tmp_path, capsys):
    # (2,2,1) is non-parity, so its verdict must be null; (3,2,3) is a parity
    # family, so its verdict must be a list of failures; the third record
    # has a null verdict that fits the family it names, (2,2,1), but not
    # the family of its key
    cache = tmp_path / "scan.jsonl"
    rec = {"version": "0.1.0", "max_bits": DEFAULT_MAX_BITS}
    cache.write_text("".join(json.dumps(dict(rec, **fields)) + "\n" for fields in [
        dict(key="2,1", verdict=5, a=2, m=2, b=1),
        dict(key="3,1,1,1", verdict=None, rel_dim=7, a=3, m=2, b=3),
        dict(key="3,1,1,1", verdict=None, rel_dim=7, a=2, m=2, b=1),
    ]))
    code, out, err = run(capsys, ["scan", "--max-r", "6", "--parity", "all",
                                  "--cache", str(cache)])
    assert code == 0
    assert "corrupt cache line 1" in err and "corrupt cache line 2" in err
    # every family was computed afresh and appended after the three records
    assert _lines(cache.read_text())[3:] == _lines(out)
    fresh = {r["key"]: r for r in _lines(out)}
    assert fresh["2,1"]["verdict"] is None
    assert (fresh["3,1,1,1"]["verdict"], fresh["3,1,1,1"]["rel_dim"]) == ([], 1)


def test_scan_unusable_cache_path_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing" / "scan.jsonl"):
        code, out, err = run(capsys, ["scan", "--max-r", "3", "--cache", str(path)])
        assert (code, out) == (2, ""), path
        assert err.startswith("error: cannot") and "Traceback" not in err


def test_paper_examples(capsys):
    code, out, _ = run(capsys, ["paper-examples"])
    assert code == 0
    rec = json.loads(out)
    assert set(rec.values()) == {"pass"}


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == set(selftest.CHECKS)
    assert set(rec.values()) == {"pass"}


def test_selftest_reports_injected_failure(capsys, monkeypatch):
    def boom():
        raise AssertionError("injected failure")

    monkeypatch.setitem(selftest.CHECKS, "oracle_equivalence", boom)
    code, _, err = run(capsys, ["selftest"])
    assert code == 1
    assert "injected failure" in err


def test_a_refusal_inside_selftest_is_an_internal_error(capsys, monkeypatch):
    # selftest and paper-examples take no user parameters, so a refused
    # parameter or cap inside them is a bug, not a usage error
    def refuse():
        raise InvalidParameter("injected refusal")

    monkeypatch.setattr(selftest, "run_selftest", refuse)
    code, out, err = run(capsys, ["selftest"])
    assert code == 3 and out == ""
    assert "InternalError: InvalidParameter: injected refusal" in err

    def over_cap():
        raise CapExceeded("injected cap")

    monkeypatch.setattr(worked_examples, "run_all", over_cap)
    code, out, err = run(capsys, ["paper-examples"])
    assert code == 3 and out == ""
    assert "InternalError: CapExceeded: injected cap" in err


def test_selftest_detects_corrupted_z_coefficient(capsys, monkeypatch):
    # flipping the parity of z makes the Z rows leave the R/C row space,
    # which the redundancy invariant must notice
    original = relations.z_coefficient
    monkeypatch.setattr(
        relations, "z_coefficient", lambda A, j, k: 1 - original(A, j, k)
    )
    with pytest.raises(AssertionError):
        selftest.check_z_redundancy(6)


def _lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def _unstamped(recs):
    return [{k: v for k, v in r.items() if k not in ("timestamp", "elapsed_ms")}
            for r in recs]


def test_scan_exits_1_when_a_parity_family_fails(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "scan.jsonl")
    original = staircase.solve_relevance

    def solve(system):  # dimension 2 for the swap pair (2,2,2), (3,2,1)
        rel = original(system)
        if system.alpha.parts in ((3, 1), (2, 2)):
            rel = dataclasses.replace(rel, dim=2)
        return rel

    monkeypatch.setattr(staircase, "solve_relevance", solve)
    code, out, err = run(capsys, ["scan", "--max-r", "6", "--cache", cache])
    assert code == 1
    recs = _lines(out)
    assert [(r["a"], r["m"], r["b"]) for r in recs] == [
        (2, 2, 2), (3, 2, 1), (2, 2, 4), (3, 2, 3), (4, 2, 2), (5, 2, 1)]
    assert recs[0]["verdict"] == ["flat relevance dimension 2 != 1 for (2,2,2)"]
    assert recs[1]["verdict"] == ["flat relevance dimension 2 != 1 for (3,2,1)"]
    assert all(r["verdict"] == [] for r in recs[2:])
    assert "(2,2,2)" in err and "(3,2,1)" in err
    assert not any(f"({r['a']},{r['m']},{r['b']})" in err for r in recs[2:])
    assert _lines(Path(cache).read_text()) == recs

    # served from the cache alone, the failed records still fail the scan
    def no_compute(*args, **kwargs):
        raise RuntimeError("a cached family was recomputed")

    monkeypatch.setattr(cli, "check_family", no_compute)
    monkeypatch.setattr(cli, "check_swapped", no_compute)
    code, out2, err = run(capsys, ["scan", "--max-r", "6", "--cache", cache])
    assert code == 1
    assert "(2,2,2)" in err and "(3,2,1)" in err
    assert out2 == out


def test_scan_verdict_only_for_parity_families(capsys):
    # (3,2,2) has rel_dim 2, but the theorem claims nothing there
    code, out, _ = run(capsys, ["scan", "--max-r", "5", "--parity", "all"])
    assert code == 0
    recs = _lines(out)
    assert all((r["verdict"] == []) == r["parity"] for r in recs)
    assert all(r["verdict"] is None for r in recs if not r["parity"])
    assert {r["rel_dim"] for r in recs if not r["parity"]} == {1, 2}


@pytest.mark.parametrize("cpus, error, want", [
    (1, CapExceeded, 2), (2, CapExceeded, 2), (2, InternalError, 3),
], ids=["one_cpu", "two_cpus", "two_cpus_internal_error"])
def test_scan_keeps_the_records_made_before_a_stop(tmp_path, capsys, monkeypatch,
                                                   cpus, error, want):
    # the third family, (3,2,1), is the partner in the task of the second
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    cache = tmp_path / "scan.jsonl"
    fams = partitions.staircase_families(5)
    original = staircase.structural_lemma_audit

    def stop_on_third(fam, support):
        if fam == fams[2]:
            raise error(f"stopped on the third family in process {os.getpid()}")
        return original(fam, support)

    monkeypatch.setattr(staircase, "structural_lemma_audit", stop_on_third)
    code, out, err = run(capsys, ["scan", "--max-r", "5", "--parity", "all",
                                  "--cache", str(cache)])
    assert code == want
    cached = _lines(cache.read_text())
    assert cached == _lines(out)
    assert [(r["a"], r["m"], r["b"]) for r in cached] == [
        (f.a, f.m, f.b) for f in fams[:2]
    ]
    if error is InternalError:
        # a partner's exception, sent from a worker with the worker's traceback
        pid = int(err.rsplit("in process ", 1)[1].split()[0])
        assert pid != os.getpid()
        assert "in stop_on_third" in err


def test_scan_cache_is_keyed_on_max_bits(tmp_path, capsys):
    cache = str(tmp_path / "scan.jsonl")
    code, out, _ = run(capsys, ["scan", "--max-r", "4", "--max-bits", "1",
                                "--cache", cache])
    assert code == 0
    assert [(r["end_dim"], r["max_bits"]) for r in _lines(out)] == [(None, 1)] * 2
    code, out, _ = run(capsys, ["scan", "--max-r", "4", "--cache", cache])
    assert code == 0
    recs = _lines(out)
    assert [(r["end_dim"], r["max_bits"]) for r in recs] == [(1, DEFAULT_MAX_BITS)] * 2
    assert all(r["key"] in ("2,1,1", "3,1") for r in recs)
    assert len(_lines(Path(cache).read_text())) == 4


def test_internal_errors_exit_3(capsys, monkeypatch):
    def broken(*args):
        raise KeyError("injected")

    with monkeypatch.context() as m:
        m.setattr(staircase, "structural_lemma_audit", broken)
        code, _, err = run(capsys, ["verify", "--a", "3", "--m", "2", "--b", "1"])
        assert code == 3
        assert "KeyError: 'injected'" in err
        code, _, _ = run(capsys, ["scan", "--max-r", "4"])
        assert code == 3
    # an invariant that breaks is an internal error, not a failed claim
    monkeypatch.setattr(partitions, "transpose", lambda lam: lam)
    code, _, err = run(capsys, ["verify", "--a", "3", "--m", "2", "--b", "3"])
    assert code == 3
    assert "InternalError" in err


def test_empty_kernel_is_an_internal_error(capsys, monkeypatch):
    # the identity endomorphism rules out an empty kernel: only a solver bug
    # can give one, so verify must not report it as a failed claim
    def empty(rows, ncols):
        return gf2.SparseKernel([], ncols, 0, 0)

    monkeypatch.setattr(relations, "sparse_nullspace", empty)
    code, _, err = run(capsys, ["verify", "--a", "3", "--m", "2", "--b", "1"])
    assert code == 3
    assert "InternalError: empty support" in err


def test_end_above_rel_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # End <= Rel always holds, so an oracle result above Rel is a bug and
    # must not be recorded, even for a family whose verdict is null
    def above_rel(lam, max_bits):
        return tabloids.hom_solution_space(lam, adjacent=False)[0] + 1

    monkeypatch.setattr(staircase, "end_dimension_oracle", above_rel)
    code, out, err = run(capsys, ["verify", "--a", "3", "--m", "2", "--b", "3"])
    assert (code, out) == (3, "")
    assert "InternalError: oracle End 2 > Rel 1" in err
    cache = tmp_path / "scan.jsonl"
    code, _, err = run(capsys, ["scan", "--max-r", "5", "--parity", "all",
                                "--cache", str(cache)])
    assert code == 3
    assert "InternalError" in err
    # the first family in scan order already fails, so nothing is recorded
    assert cache.read_text() == ""


def _two_cpus(monkeypatch):
    # a pool of two workers, whatever this machine's CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_no_process_outlives_scan(capsys, monkeypatch):
    _two_cpus(monkeypatch)
    assert run(capsys, ["scan", "--max-r", "6"])[0] == 0
    assert multiprocessing.active_children() == []
    code, _, err = run(capsys, ["scan", "--max-r", "6", "--max-tables", "1"])
    assert code == 2 and "more than 1 tables" in err
    assert multiprocessing.active_children() == []
    original = staircase.solve_relevance
    monkeypatch.setattr(staircase, "solve_relevance",
                        lambda system: dataclasses.replace(original(system), dim=2))
    assert run(capsys, ["scan", "--max-r", "6"])[0] == 1
    assert multiprocessing.active_children() == []

    def broken(fam, support):
        raise InternalError(f"injected in process {os.getpid()}")

    monkeypatch.setattr(staircase, "structural_lemma_audit", broken)
    code, out, err = run(capsys, ["scan", "--max-r", "6"])
    assert (code, out) == (3, "")
    assert multiprocessing.active_children() == []
    # raised in a worker, it carries the worker's traceback to stderr
    pid = int(err.rsplit("injected in process ", 1)[1].split()[0])
    assert pid != os.getpid()
    assert "in broken" in err


def test_scan_records_equal_check_family(capsys, monkeypatch):
    # a pooled scan, half of whose families take the transposed solve of
    # their swap partner, matches check_family family by family, and a scan
    # on one CPU, which starts no process, prints the same
    argv = ["scan", "--max-r", "12", "--parity", "all", "--max-bits", "4000000"]

    _two_cpus(monkeypatch)
    code, out, _ = run(capsys, argv)
    assert code == 0
    recs = _unstamped(_lines(out))
    fams = partitions.staircase_families(12)
    assert len(recs) == len(fams)
    want = [cli._record(staircase.check_family(f, max_bits=4000000),
                        ",".join(map(str, f.lam.parts)), 4000000) for f in fams]
    assert recs == _unstamped(want)

    def no_pool(*args):
        raise RuntimeError("scan started a pool on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    code, out1, _ = run(capsys, argv)
    assert code == 0
    assert _unstamped(_lines(out1)) == recs


def test_scan_runs_the_oracle_once_per_task(capsys, monkeypatch):
    # the second family of a swap pair takes its partner's oracle result, so
    # each task runs the oracle once, for its first family; that the shared
    # end_dim is the family's own, test_scan_records_equal_check_family shows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []
    original = staircase.end_dimension_oracle

    def counted(lam, max_bits):
        calls.append(lam.parts)
        return original(lam, max_bits)

    monkeypatch.setattr(staircase, "end_dimension_oracle", counted)
    code, out, _ = run(capsys, ["scan", "--max-r", "10", "--parity", "all",
                                "--max-bits", "4000000"])
    assert code == 0
    fams = partitions.staircase_families(10)
    assert len(_lines(out)) == len(fams)
    tasks = cli._swap_tasks(list(enumerate(fams)))
    assert len(tasks) < len(fams)
    assert calls == [task[0][1].lam.parts for task in tasks]


def _cli_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_KILL_ONE_WORKER = """
import multiprocessing, os, signal, sys
from spechtend import cli, staircase

os.sched_getaffinity = lambda pid: {0, 1}
scanning_pid = os.getpid()
original = staircase.structural_lemma_audit

def audit(fam, support):
    if (fam.a, fam.m, fam.b) == (4, 2, 2) and os.getpid() != scanning_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(fam, support)

staircase.structural_lemma_audit = audit
code = cli.main(["scan", "--max-r", "7", "--cache", sys.argv[1]])
print("live children:", len(multiprocessing.active_children()), file=sys.stderr)
sys.exit(code)
"""


def test_a_dead_worker_ends_the_scan(tmp_path):
    # a worker killed mid-task (say, by the OOM killer) stops the scan with
    # exit 3, keeping the records made before it, instead of hanging it
    cache = tmp_path / "scan.jsonl"
    proc = subprocess.Popen([sys.executable, "-c", _KILL_ONE_WORKER, str(cache)],
                            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the scan was still waiting 60 s after a worker was killed")
    assert proc.returncode == 3, err
    assert re.search(r"InternalError: pool worker \d+ died with exit code -9\n", err)
    assert err.endswith("live children: 0\n")
    recs = _lines(out)
    assert _lines(cache.read_text()) == recs
    fams = [f for f in partitions.staircase_families(7) if f.parity_ok]
    killed = [(f.a, f.m, f.b) for f in fams].index((4, 2, 2))
    assert len(recs) < killed
    assert [(r["a"], r["m"], r["b"]) for r in recs] == [
        (f.a, f.m, f.b) for f in fams[:len(recs)]
    ]


def test_readme_command_lines_parse():
    # every command shown in the README's code blocks names real flags
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line.strip() for block in readme.split("```")[1::2]
             for line in block.splitlines() if line.strip().startswith("spechtend ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_console_entry_exit_codes():
    env = _cli_env()
    cases = [
        (["verify", "--a", "3", "--m", "2", "--b", "3"], 0),
        (["verify", "--a", "4", "--m", "2", "--b", "1"], 2),
        (["no-such-command"], 2),
    ]
    for argv, want in cases:
        proc = subprocess.run([sys.executable, "-m", "spechtend.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == want, (argv, proc.stderr)


def test_closed_stdout_is_a_usage_error():
    # a reader that went away is neither an internal error nor a success
    for argv in (["scan", "--max-r", "5"], ["verify", "--a", "3", "--m", "2", "--b", "3"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "spechtend.cli", *argv],
                                  env=_cli_env(), stdout=write, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "error: output closed before the run finished" in proc.stderr
