"""Flattening reduction for staircase-hook partitions and the theorem checks.

For lam = (a, m-1, ..., 2, 1^b) the relevant space of M(lam') -> M(lam) is
isomorphic to the nullspace of a relation system on the m x m tables with
margins alpha = (a', m-1, ..., 2, b') and beta = (a, m-1, ..., 2, b).  This
module builds that flat system, expands flat tables back to full ones, runs
the structural classifiers on flat tables, and checks families: `check_family`
computes a report, `check_swapped` derives the swapped family's report from
its flat solve, and `VerifyReport.failures` alone judges the parity theorem.
Every function here takes and returns plain tables, tuples of row tuples;
only the support in a report and the predicted `theorem_matrix` are
TabMatrix records.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Set, Tuple

from .errors import CapExceeded, InternalError, InvalidParameter, ParityError, VerificationError
from .limits import DEFAULT_MAX_BITS, DEFAULT_MAX_TABLES
from .partitions import StaircaseFamily, TabMatrix, Table, enumerate_tables, transpose_table
from .relations import RelationSystem, relation_system, solve_relevance
from .tabloids import end_dimension_oracle


def pi_expand(B: Table, family: StaircaseFamily) -> List[Table]:
    """Expansion classes realizing rho[B] . pi_alpha = sum of rho[A].

    B has row margins alpha; the results agree with B on the first m-1 rows
    and distribute row m into b' unit rows, in ascending order.
    """
    m = family.m
    margins = tuple(map(sum, B))
    if margins != family.alpha.parts:
        raise InvalidParameter(f"row margins {margins} != alpha {family.alpha.parts}")
    head = B[: m - 1]
    return [head + T for T in enumerate_tables((1,) * family.b_prime, B[m - 1])]


def iota_expand(B: Table, family: StaircaseFamily) -> List[Table]:
    """Expansion classes realizing iota_beta . rho[B] = sum of rho[A].

    B has column margins beta; the results agree with B on the first m-1
    columns and distribute column m into b unit columns.  They are the pi
    expansions of B^T in the swapped family, whose alpha is this beta,
    transposed back.
    """
    margins = tuple(map(sum, zip(*B)))
    if margins != family.beta.parts:
        raise InvalidParameter(f"col margins {margins} != beta {family.beta.parts}")
    return sorted(map(transpose_table, pi_expand(transpose_table(B), family.swapped())))


def omega_expand(B: Table, family: StaircaseFamily) -> List[Table]:
    """The composite class Omega(B): both expansions applied to a flat table."""
    out: Set[Table] = set()
    for A1 in pi_expand(B, family):
        out.update(iota_expand(A1, family))
    return sorted(out)


def pi_table(family: StaircaseFamily) -> Table:
    """The table whose rho is pi_alpha : M(lam') -> M(alpha), merging the last
    b' blocks into block m."""
    m = family.m
    n = family.lam_t.length
    entries = [[0] * m for _ in range(n)]
    for u in range(m - 1):
        entries[u][u] = family.alpha[u]
    for u in range(m - 1, n):
        entries[u][m - 1] = 1
    return tuple(map(tuple, entries))


def iota_table(family: StaircaseFamily) -> Table:
    """The table whose rho is iota_beta : M(beta) -> M(lam), splitting block m
    into b singleton blocks: the transposed pi table of the swapped family."""
    return transpose_table(pi_table(family.swapped()))


def flat_relevance_system(
    family: StaircaseFamily, max_tables: int = DEFAULT_MAX_TABLES
) -> RelationSystem:
    """The R/C system on m x m tables; nullspace dim = dim of the relevant space."""
    return relation_system(family.alpha, family.beta, max_tables)


def tau(i: int, m: int) -> int:
    """Reversed row index tau(i) = m - (i - 1)."""
    return m - (i - 1)


@dataclass(frozen=True)
class StructureReport:
    in_TR: bool
    in_TC: bool
    tr_level: Optional[int]
    tc_level: Optional[int]
    k_A: Optional[int]
    j_A: Optional[int]
    w_seq: Optional[Dict[int, Tuple[int, ...]]]


def _in_TR(A: Table, m: int) -> bool:
    if any(A[i][0] != 1 for i in range(m - 1)):
        return False
    return all(A[m - 1][k] == 0 for k in range(1, m))


def _tr_level(A: Table, m: int) -> Optional[int]:
    """Largest i (1 < i < m) such that for all 1 < j <= i the row tau(j)
    contains exactly j odd entries; None if not even in TR_2."""
    if not _in_TR(A, m):
        return None
    level = None
    for i in range(2, m):
        row = A[tau(i, m) - 1]
        if sum(1 for v in row if v % 2 == 1) != i:
            break
        level = i
    return level


def _classify_half(A: Table, m: int) -> Tuple[Optional[int], Optional[int], Optional[int], Optional[Dict[int, Tuple[int, ...]]]]:
    """tr_level, k_A, j_A and the w sequences for the row-side structure."""
    level = _tr_level(A, m)
    if level is None:
        return None, None, None, None
    i = level
    K = set()
    for k in range(2, i + 1):
        if all(A[u - 1][k - 1] == 1 for u in range(tau(i, m), tau(k, m) + 1)):
            K.add(k)
    k_A = min(k for k in range(2, i + 2) if k not in K)
    j_A = None
    w_seq = None
    if k_A <= i:
        cands = [jj for jj in range(k_A, i + 1) if A[tau(jj, m) - 1][k_A - 1] == 0]
        j_A = min(cands) if cands else None
        w_seq = {}
        for jj in range(k_A, i + 1):
            w = tuple(
                sorted(
                    (l for l in range(k_A, m + 1) if A[tau(jj, m) - 1][l - 1] == 1),
                    reverse=True,
                )
            )
            w_seq[jj] = w
    return level, k_A, j_A, w_seq


def classify_structure(A: Table) -> StructureReport:
    """Structural membership and invariants of a flat m x m table.

    TR: unit first column above the last row, zero last row past column 1.
    TR_i: in TR with row tau(j) holding exactly j odd entries for 1 < j <= i.
    K_A collects columns k with a solid column of ones between rows tau(i)
    and tau(k); k_A is the least column not in K_A, j_A the least j with a
    zero at (tau(j), k_A), and w^j(A) lists (decreasing) the columns >= k_A
    where row tau(j) has a one.
    """
    m = len(A)
    if any(len(row) != m for row in A):
        raise InvalidParameter("classify_structure expects a square flat table")
    A_t = transpose_table(A)
    tr_level, k_A, j_A, w_seq = _classify_half(A, m)
    tc_level, _, _, _ = _classify_half(A_t, m)
    return StructureReport(_in_TR(A, m), _in_TR(A_t, m), tr_level, tc_level, k_A, j_A, w_seq)


def theorem_matrix(family: StaircaseFamily) -> TabMatrix:
    """The predicted unique support matrix A0."""
    m = family.m
    entries = [[0] * m for _ in range(m)]
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i + j <= m + 1:
                entries[i - 1][j - 1] = 1
    entries[0][m - 1] = family.b
    entries[m - 1][0] = family.a - family.m + 1
    A0 = TabMatrix(entries)
    if (tuple(map(sum, entries)) != family.alpha.parts
            or tuple(map(sum, zip(*entries))) != family.beta.parts):
        raise InternalError(
            f"A0 = {A0} misses the margins of ({family.a},{family.m},{family.b})"
        )
    return A0


AUDIT_NAMES = (
    "no_bottom_right",
    "no_outside_rim_pair",
    "support_in_TR_union_TC",
    "no_TR_minus_TC",
    "support_in_top_levels",
)


def structural_lemma_audit(
    family: StaircaseFamily, support: Collection[TabMatrix]
) -> Dict[str, str]:
    """Check the structural vanishing statements on the computed support."""
    m = family.m
    audits: Dict[str, bool] = {name: True for name in AUDIT_NAMES}
    if not support:
        raise InternalError(
            "empty support: the identity endomorphism guarantees a nonzero solution"
        )
    for S in support:
        A = S.entries
        rep = classify_structure(A)
        if A[m - 1][m - 1] != 0:
            audits["no_bottom_right"] = False
        has_jm = any(A[j][m - 1] != 0 for j in range(1, m - 1))
        has_mk = any(A[m - 1][k] != 0 for k in range(1, m - 1))
        if has_jm and has_mk:
            audits["no_outside_rim_pair"] = False
        if not (rep.in_TR or rep.in_TC):
            audits["support_in_TR_union_TC"] = False
        if rep.in_TR and not rep.in_TC:
            audits["no_TR_minus_TC"] = False
        top = m - 1
        if m == 2:
            ok_top = rep.in_TR and rep.in_TC
        else:
            ok_top = rep.tr_level == top and rep.tc_level == top
        if not ok_top:
            audits["support_in_top_levels"] = False
    return {name: ("pass" if ok else "fail") for name, ok in audits.items()}


@dataclass
class VerifyReport:
    family: StaircaseFamily
    parity: bool
    num_tables: int
    rel_dim: int
    end_dim: Optional[int]
    support: List[TabMatrix]
    audits: Dict[str, str]
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> List[str]:
        """The parity theorem's predictions this report breaks; [] if it held."""
        f = self.family
        A0 = theorem_matrix(f)
        out = []
        if self.rel_dim != 1:
            out.append(f"flat relevance dimension {self.rel_dim} != 1 for ({f.a},{f.m},{f.b})")
        if self.support != [A0]:
            out.append(f"support {self.support} != predicted {[A0]}")
        if self.end_dim not in (None, 1):
            out.append(f"oracle End dimension {self.end_dim} != 1")
        bad = [k for k, v in self.audits.items() if v == "fail"]
        if bad:
            out.append(f"structural audits failed: {bad}")
        return out

    def to_json_dict(self) -> dict:
        f = self.family
        return {
            "a": f.a,
            "m": f.m,
            "b": f.b,
            "r": f.r,
            "parity": self.parity,
            "num_tables": self.num_tables,
            "rel_dim": self.rel_dim,
            "end_dim": self.end_dim,
            "support": [A.to_lists() for A in self.support],
            "audits": self.audits,
            "elapsed_ms": self.elapsed_ms,
        }


def _judged(
    family: StaircaseFamily,
    num_tables: int,
    rel_dim: int,
    support: List[TabMatrix],
    max_bits: int,
    t0: float,
) -> VerifyReport:
    """The report of a family whose flat system is solved: run the oracle
    (end_dim None when capped) and audit the support; elapsed_ms runs from t0."""
    end_dim: Optional[int] = None
    try:
        end_dim = end_dimension_oracle(family.lam, max_bits)
    except CapExceeded:
        pass
    audits = structural_lemma_audit(family, support)
    if end_dim is not None and end_dim > rel_dim:
        raise InternalError(f"oracle End {end_dim} > Rel {rel_dim} for {family.lam.parts}")
    elapsed = int((time.monotonic() - t0) * 1000)
    return VerifyReport(family, family.parity_ok, num_tables, rel_dim, end_dim, support,
                        audits, elapsed)


def check_family(
    family: StaircaseFamily,
    max_tables: int = DEFAULT_MAX_TABLES,
    max_bits: int = DEFAULT_MAX_BITS,
) -> VerifyReport:
    """Solve the flat system, run the oracle (end_dim None when capped, so
    max_bits=0 turns it off) and audit the support, for any family.  A failed
    claim never raises; an oracle End above Rel raises InternalError, since
    End <= Rel always."""
    t0 = time.monotonic()
    sys = flat_relevance_system(family, max_tables)
    rel = solve_relevance(sys)
    support = sorted(rel.support, key=lambda A: A.entries)
    return _judged(family, len(sys.tables), rel.dim, support, max_bits, t0)


def check_swapped(report: VerifyReport, max_bits: int = DEFAULT_MAX_BITS) -> VerifyReport:
    """check_family of the swapped family (a', m, b'), from report's flat solve.

    The flat system of (a', m, b') is that of (a, m, b) with every table
    transposed, so it has as many tables, the same relevance dimension, and
    report's support transposed entry by entry.  The oracle, the audits and
    the verdict are the swapped family's own, and its elapsed_ms leaves out
    the shared solve.
    """
    t0 = time.monotonic()
    support = sorted((TabMatrix(transpose_table(A.entries)) for A in report.support),
                     key=lambda A: A.entries)
    return _judged(report.family.swapped(), report.num_tables, report.rel_dim, support,
                   max_bits, t0)


def verify_parity_theorem(
    family: StaircaseFamily,
    max_tables: int = DEFAULT_MAX_TABLES,
    max_bits: int = DEFAULT_MAX_BITS,
    run_oracle: bool = True,
) -> VerifyReport:
    """Verify dim = 1 and support = {A0} for a parity family; raise on failure."""
    if not family.parity_ok:
        raise ParityError(
            f"family ({family.a},{family.m},{family.b}) violates a-m == b mod 2"
        )
    report = check_family(family, max_tables, max_bits if run_oracle else 0)
    failures = report.failures()
    if failures:
        raise VerificationError("; ".join(failures))
    return report
