"""GF(2) relation systems on Tab-indexed coefficient vectors.

The unknowns are coefficients h[A], one per A in Tab(alpha, beta); a
homomorphism sum(h[A] rho[A]) is annihilated by the boundary maps exactly
when the R and C rows built here vanish.  Every public function here takes
and returns plain tables, tuples of row tuples: `RelationSystem.tables` holds
them, and a row of a RelationSystem is the sorted tuple of the column indices
(positions in `tables`) whose coefficient is odd.  Only the support of a
solution is handed out as TabMatrix records.

Rows are built in integer codes: code(T) = sum T[r][c] w[r][c] with
w[r][c] = (deg+1) ** (m*n - 1 - (r*n + c)) reads an m x n table's row-major
entries as digits, so codes ascend in table order.  As b_il >= 1 and no entry
exceeds deg, the exchange B - E_il + E_jl is code(B) + w[j][l] - w[i][l].  A
block (i, j) is built row i first: per filling of row i, one suffix memo codes
the other rows.  The C rows use the transposed weights, which code the
transposed targets directly.  `relation_provenance` re-walks the same coded
blocks as `relation_system` and decodes only each row's first source.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import InvalidParameter
from .gf2 import sparse_nullspace
from .limits import DEFAULT_MAX_TABLES
from .partitions import (
    Composition,
    Partition,
    SuffixMemo,
    TabMatrix,
    Table,
    enumerate_tables,
    transpose,
    transpose_table,
    unit_exchange,
)

# A built row: the tables with odd coefficient, and the table it was built from.
BuiltRow = Tuple[Tuple[Table, ...], Table]


def _orientations(alpha: Composition, beta: Composition) -> tuple:
    """The code's weights over Tab(alpha, beta), its decoder, and (a, b, weights)
    for the R rows, then for the C rows: the R rows of (beta, alpha) under
    the transposed weights, which code the transposed targets directly."""
    base, m, n = alpha.degree + 1, alpha.width, beta.width
    w = [[base ** (m * n - 1 - (r * n + c)) for c in range(n)] for r in range(m)]
    unit, rows = base ** n, {}  # rows: {code of one row: the row}, filled as met

    def decode(code: int) -> Table:
        table = []
        for _ in range(m):  # the last row is the lowest digit block
            code, low = divmod(code, unit)
            row = rows.get(low)
            if row is None:
                row = rows[low] = tuple(low // x % base for x in w[-1])
            table.append(row)
        return tuple(reversed(table))

    return w, decode, ((alpha, beta, w), (beta, alpha, list(zip(*w))))


def _coder(weights: Sequence[Sequence[int]]) -> Callable[[int, Tuple[int, ...]], int]:
    """The SuffixMemo head that codes row i of a table with weights[i]."""
    return lambda i, row: sum(map(mul, row, weights[i]))


def _coded_rows(a: Composition, b: Composition, weights: Sequence[Sequence[int]],
                i: int, j: int, max_tables: Optional[int]) -> Iterator[tuple]:
    """The R(i,j) rows of (a, b) in codes, i < j 1-based: (head, tails, deltas)
    per filling of row i in Tab(a^(i,j,1), b) with an odd entry.

    A source B = head + t, t in tails, has the row {B + d : d in deltas}.
    The deltas ascend, so a row's targets and columns do too.  Fillings with
    no odd entry yield nothing, but their tables count against max_tables.
    """
    if not (1 <= i < j <= len(a)):
        raise InvalidParameter(f"bad (i,j)=({i},{j}) for width {len(a)}")
    if a[j - 1] == 0:
        return
    shifted, i, j = tuple(a.shifted(i, j, 1)), i - 1, j - 1
    order = [i] + [p for p in range(len(a)) if p != i]
    memo = SuffixMemo([shifted[p] for p in order], _coder([weights[p] for p in order]),
                      max_tables, (shifted, tuple(b)))
    deltas = [wj - wi for wi, wj in zip(weights[i], weights[j])]
    for row, head, tails in memo.split(tuple(b)):
        odd = [d for d, v in zip(deltas, row) if v & 1]
        if odd:
            yield head, tails, odd


def _by_source(block: Iterator[tuple], target: Callable) -> list:
    """A block's coded rows as (source, its targets mapped by `target`), by source."""
    return sorted((head + t, tuple([target(head + t + d) for d in odd]))
                  for head, tails, odd in block for t in tails)


def _decoded_rows(alpha: Composition, beta: Composition, transposed: bool, i: int, j: int,
                  max_tables: Optional[int]) -> List[BuiltRow]:
    """The R or, `transposed`, the C rows of block (i, j) as tables, by source."""
    _, decode, orientations = _orientations(alpha, beta)
    a, b, weights = orientations[transposed]
    rows = _by_source(_coded_rows(a, b, weights, i, j, max_tables), decode)
    return [(targets, decode(source)) for source, targets in rows]


def build_R_rows(
    alpha: Composition,
    beta: Composition,
    i: int,
    j: int,
    max_tables: Optional[int] = None,
) -> List[BuiltRow]:
    """Rows forcing h . phi-bar^(i,j,1) = 0, one per B in Tab(alpha^(i,j,1), beta).

    The row for B is {B - E_il + E_jl : b_il odd}, returned with B, in
    ascending order of B; the same set equals the per-(A,k) corollary
    relations without multiplicity.
    """
    return _decoded_rows(alpha, beta, False, i, j, max_tables)


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
    return _decoded_rows(alpha, beta, True, i, j, max_tables)


@dataclass
class RelationSystem:
    alpha: Composition
    beta: Composition
    tables: List[Table]
    rows: List[Tuple[int, ...]]


def _coded_blocks(alpha: Composition, beta: Composition, max_tables: Optional[int]) -> tuple:
    """The {code: column} map of Tab(alpha, beta), the decoder of its codes,
    and its blocks R(i,j) then C(i,j), (i, j) ascending, as (label, the
    block's _coded_rows); every target is coded as a table of Tab(alpha, beta)."""
    w, decode, orientations = _orientations(alpha, beta)
    codes = SuffixMemo(alpha, _coder(w), None, (alpha, beta)).suffixes(0, beta) if alpha else [0]
    blocks = ((f"{name}({i},{j}) {source}=", _coded_rows(a, b, weights, i, j, max_tables))
              for name, source, (a, b, weights) in zip("RC", "BD", orientations)
              for i, j in combinations(range(1, a.width + 1), 2))
    return {code: c for c, code in enumerate(codes)}, decode, blocks  # codes ascend as tables do


def relation_system(
    alpha: Composition,
    beta: Composition,
    max_tables: int = DEFAULT_MAX_TABLES,
) -> RelationSystem:
    """All R and C rows over Tab(alpha, beta) for every admissible i < j.

    The rows are distinct and sorted.  max_tables also caps the shifted
    enumerations behind every block.
    """
    tables = enumerate_tables(alpha, beta, max_tables=max_tables)
    col, _, blocks = _coded_blocks(alpha, beta, max_tables)
    rows: Set[Tuple[int, ...]] = set()
    for _, block in blocks:
        for head, tails, odd in block:
            # one column list per odd entry; zip pairs them into rows
            rows.update(zip(*[[col[t + e] for t in tails] for e in
                              [head + d for d in odd]]))
    return RelationSystem(alpha, beta, tables, sorted(rows))


def relation_provenance(sys: RelationSystem) -> List[str]:
    """The block and source table that first built each row of sys.

    Blocks come R before C, (i, j) ascending and, within a block, the source
    table ascending; each row keeps the label of its first occurrence, and
    only that source is decoded.  The enumerations repeated here already
    passed max_tables when sys was built.
    """
    col, decode, blocks = _coded_blocks(sys.alpha, sys.beta, None)
    first: Dict[Tuple[int, ...], str] = {}
    for label, block in blocks:
        for source, row in _by_source(block, col.__getitem__):
            if row not in first:
                first[row] = label + str([list(r) for r in decode(source)])
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
    rank: int
    residual_rows: int
    residual_cols: int


def solve_relevance(sys: RelationSystem) -> RelevanceResult:
    """Nullspace of the system: dimension, canonical basis, support set."""
    n = len(sys.tables)
    kernel = sparse_nullspace(sys.rows, n)
    support: Set[TabMatrix] = set()
    for v in kernel.basis:
        while v:
            low = v & -v
            support.add(TabMatrix(sys.tables[low.bit_length() - 1]))
            v ^= low
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
    while x:
        low = x & -x
        out |= 1 << index_t[transpose_table(tables[low.bit_length() - 1])]
        x ^= low
    return out
