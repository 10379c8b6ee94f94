"""GF(2) relation systems on Tab-indexed coefficient vectors.

The unknowns are coefficients h[A], one per A in Tab(alpha, beta); a
homomorphism sum(h[A] rho[A]) is annihilated by the boundary maps exactly
when the R and C rows built here vanish.  Every function here takes and
returns plain tables, tuples of row tuples: `RelationSystem.tables` holds
them, and a row of a RelationSystem is the sorted tuple of the column indices
(positions in `tables`) whose coefficient is odd.  Only the support of a
solution is handed out as TabMatrix records.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import InvalidParameter
from .gf2 import sparse_nullspace
from .limits import DEFAULT_MAX_TABLES
from .partitions import (
    Composition,
    Partition,
    TabMatrix,
    Table,
    enumerate_tables,
    transpose,
    transpose_table,
    unit_exchange,
)

# A built row: the tables with odd coefficient, and the table it was built from.
BuiltRow = Tuple[Tuple[Table, ...], Table]


def _exchange_rows(
    alpha: Tuple[int, ...],
    beta: Tuple[int, ...],
    i: int,
    j: int,
    max_tables: Optional[int],
) -> List[BuiltRow]:
    """One row per B in Tab(alpha^(i,j,1), beta): {B - E_il + E_jl : b_il odd}.

    Rows with no odd entry are dropped; i < j are 1-based.
    """
    if not (1 <= i < j <= len(alpha)):
        raise InvalidParameter(f"bad (i,j)=({i},{j}) for width {len(alpha)}")
    if alpha[j - 1] == 0:
        return []
    i, j = i - 1, j - 1
    shifted = list(alpha)
    shifted[i] += 1
    shifted[j] -= 1
    out: List[BuiltRow] = []
    for B in enumerate_tables(shifted, beta, max_tables):
        bi, bj = B[i], B[j]
        targets = tuple(
            B[:i] + (bi[:l] + (v - 1,) + bi[l + 1:],)
            + B[i + 1:j] + (bj[:l] + (bj[l] + 1,) + bj[l + 1:],) + B[j + 1:]
            for l, v in enumerate(bi)
            if v & 1
        )
        if targets:
            out.append((targets, B))
    return out


def build_R_rows(
    alpha: Composition,
    beta: Composition,
    i: int,
    j: int,
    max_tables: Optional[int] = None,
) -> List[BuiltRow]:
    """Rows forcing h . phi-bar^(i,j,1) = 0, one per B in Tab(alpha^(i,j,1), beta).

    The row for B is {B - E_il + E_jl : b_il odd}, returned with B; the same
    set equals the per-(A,k) corollary relations without multiplicity.
    """
    return _exchange_rows(alpha.parts, beta.parts, i, j, max_tables)


def build_C_rows(
    alpha: Composition,
    beta: Composition,
    i: int,
    j: int,
    max_tables: Optional[int] = None,
) -> List[BuiltRow]:
    """Rows forcing psi-bar^(i,j,1) . h = 0, one per D in Tab(alpha, beta^(i,j,1)).

    The row for D is {D - E_ki + E_kj : d_ki odd}, returned with D, in
    ascending order of D: the R rows of (beta, alpha), transposed.
    """
    rows = [
        (tuple(map(transpose_table, targets)), transpose_table(B))
        for targets, B in _exchange_rows(beta.parts, alpha.parts, i, j, max_tables)
    ]
    rows.sort(key=lambda row: row[1])
    return rows


@dataclass
class RelationSystem:
    alpha: Composition
    beta: Composition
    tables: List[Table]
    rows: List[Tuple[int, ...]]

    def row_ints(self) -> Iterator[int]:
        """Each row as a bit int, made on demand: at 10^5 rows over 10^4
        columns the ints together take far more memory than the tuples."""
        return (sum(1 << c for c in row) for row in self.rows)


def relation_system(
    alpha: Composition,
    beta: Composition,
    max_tables: int = DEFAULT_MAX_TABLES,
) -> RelationSystem:
    """All R and C rows over Tab(alpha, beta) for every admissible i < j.

    The C rows are the R rows of (beta, alpha) with every table transposed,
    so they are built that way and their tables are looked up by transposed
    entries.  The rows are distinct and sorted.  max_tables also caps the
    shifted enumerations behind every block.
    """
    tables = enumerate_tables(alpha, beta, max_tables=max_tables)
    col = {T: c for c, T in enumerate(tables)}
    col_t = {transpose_table(T): c for T, c in col.items()}
    rows: Set[Tuple[int, ...]] = set()
    for a, b, lookup in ((alpha, beta, col), (beta, alpha, col_t)):
        for i in range(1, a.width + 1):
            for j in range(i + 1, a.width + 1):
                for targets, _ in build_R_rows(a, b, i, j, max_tables):
                    rows.add(tuple(sorted([lookup[T] for T in targets])))
    return RelationSystem(alpha, beta, tables, sorted(rows))


def relation_provenance(sys: RelationSystem) -> List[str]:
    """The block and source table that first built each row of sys.

    Blocks come R before C, (i, j) ascending and, within a block, the source
    table ascending; each row keeps the label of its first occurrence.  The
    enumerations repeated here already passed max_tables when sys was built.
    """
    col = {T: c for c, T in enumerate(sys.tables)}
    first: Dict[Tuple[int, ...], str] = {}
    for block, width, build, name in (
        ("R", sys.alpha.width, build_R_rows, "B"),
        ("C", sys.beta.width, build_C_rows, "D"),
    ):
        for i in range(1, width + 1):
            for j in range(i + 1, width + 1):
                for targets, S in build(sys.alpha, sys.beta, i, j):
                    key = tuple(sorted([col[T] for T in targets]))
                    if key not in first:
                        first[key] = f"{block}({i},{j}) {name}={[list(r) for r in S]}"
    return [first[row] for row in sys.rows]


def relevance_system(
    lam: Partition, max_tables: int = DEFAULT_MAX_TABLES
) -> RelationSystem:
    """The system whose nullspace is the relevant space for M(lam') -> M(lam)."""
    return relation_system(transpose(lam), lam, max_tables)


@dataclass
class RelevanceResult:
    """The relevant space and the counters of its solve.

    `rank` is the rank of the whole system; `residual_rows` and
    `residual_cols` size what the sparse passes left for `Echelon`.
    """

    dim: int
    basis: List[int]
    support: Set[TabMatrix]
    rank: Optional[int] = None
    residual_rows: Optional[int] = None
    residual_cols: Optional[int] = None


def solve_relevance(sys: RelationSystem) -> RelevanceResult:
    """Nullspace of the system: dimension, canonical basis, support set."""
    n = len(sys.tables)
    kernel = sparse_nullspace(sys.rows, n)
    support: Set[TabMatrix] = set()
    for v in kernel.basis:
        for c in range(n):
            if (v >> c) & 1:
                support.add(TabMatrix(sys.tables[c]))
    return RelevanceResult(
        len(kernel.basis), kernel.basis, support,
        kernel.rank, kernel.residual_rows, kernel.residual_cols,
    )


def z_coefficient(A: Table, j: int, k: int) -> int:
    """z_jk(A) = sum_{i<j} a_ik + sum_{l<k} a_jl + j + k mod 2."""
    if not (1 <= j <= len(A) and 1 <= k <= len(A[j - 1])):
        raise InvalidParameter(f"(j,k)=({j},{k}) out of range")
    s = sum(row[k - 1] for row in A[: j - 1]) + sum(A[j - 1][: k - 1])
    return (s + j + k) % 2


def build_Z_row(A: Table, j: int, k: int) -> FrozenSet[Table]:
    """The critical relation at (j, k), as a set of odd-coefficient tables.

    z_jk(A) h[A] = sum_{i<j, l>k} a_il h[exch] + sum_{i>j, l<k} a_il h[exch];
    needs a_jk != 0.  Every referenced table precedes A in both orders.
    """
    if A[j - 1][k - 1] == 0:
        raise InvalidParameter(f"a_({j},{k}) must be nonzero")
    acc: Set[Table] = set()
    if z_coefficient(A, j, k) == 1:
        acc.add(A)
    for i, row in enumerate(A, 1):
        for l, v in enumerate(row, 1):
            if v % 2 == 1 and ((i < j and l > k) or (i > j and l < k)):
                acc.symmetric_difference_update(
                    {unit_exchange(A, "row", min(i, j), max(i, j),
                                   k if i < j else l,
                                   l if i < j else k)}
                )
    return frozenset(acc)


def transpose_hom(
    x: int, tables: Sequence[Table], tables_t: Sequence[Table]
) -> int:
    """Push a coefficient vector through entrywise transposition of tables."""
    index_t = {T: c for c, T in enumerate(tables_t)}
    out = 0
    for c, T in enumerate(tables):
        if (x >> c) & 1:
            out |= 1 << index_t[transpose_table(T)]
    return out
