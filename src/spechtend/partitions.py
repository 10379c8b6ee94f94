"""Compositions, partitions, margin-constrained integer matrices and their moves.

Margins are validated tuples: Composition and Partition subclass tuple and
check their parts on construction.  A table is a plain tuple of row tuples.
`enumerate_tables` returns tables in that form and every function in the
package takes and returns them; only the support of a solution is handed out
as TabMatrix records.  Tab(alpha, beta) has one enumerator, `SuffixMemo.codes`
in the integer codes of `table_code`; `enumerate_tables` decodes them.  A
SuffixMemo reads the fillings of a row from a memo keyed by (row sum, room);
one relation system shares it among all its suffix memos, so each pair is
listed once, and stores only the room each filling leaves.

Row/column indices in the public functions here are 1-based, matching the
conventions used for serialized matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import CapExceeded, DegreeMismatch, InternalError, InvalidParameter

Table = Tuple[Tuple[int, ...], ...]


class Composition(tuple):
    """A finite tuple of nonnegative integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Composition":
        self = super().__new__(cls, map(int, parts))
        if any(p < 0 for p in self):
            raise InvalidParameter(f"negative part in composition: {self.parts}")
        return self

    @property
    def parts(self) -> Tuple[int, ...]:
        return tuple(self)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        """Index of the last nonzero part (1-based), 0 for the zero tuple."""
        for i in range(len(self) - 1, -1, -1):
            if self[i] != 0:
                return i + 1
        return 0

    @property
    def width(self) -> int:
        return len(self)

    def shifted(self, i: int, j: int, k: int) -> "Composition":
        """Add k to part i and subtract k from part j (1-based indices)."""
        if not (1 <= i <= self.width and 1 <= j <= self.width):
            raise InvalidParameter(f"shift indices ({i},{j}) out of range for {self}")
        new = list(self)
        new[i - 1] += k
        new[j - 1] -= k
        if new[j - 1] < 0:
            raise InvalidParameter(f"shift by {k} makes part {j} of {self} negative")
        return Composition(new)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.parts}"


class Partition(Composition):
    """A weakly decreasing composition; trailing zeros are stripped."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Partition":
        c = Composition(parts)
        p = c[: c.length]
        if any(x < y for x, y in zip(p, p[1:])):
            raise InvalidParameter(f"not weakly decreasing: {p}")
        return super().__new__(cls, p)


def transpose(p: Partition) -> Partition:
    """Conjugate partition: result[j] = #{i : p[i] >= j+1}."""
    p = Partition(p)
    return Partition(sum(1 for q in p if q >= j) for j in range(1, max(p, default=0) + 1))


def parse_parts(text: str) -> Tuple[int, ...]:
    """Parse a comma-separated integer string like '3,1,1,1'."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InvalidParameter(f"malformed parts string: {text!r}") from exc


class TabMatrix:
    """A validated nonnegative integer matrix: the record of one support table."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise InvalidParameter("ragged matrix")
                for v in row:
                    if v < 0:
                        raise InvalidParameter(f"negative entry in {rows}")
        self.entries = rows

    def to_lists(self) -> List[List[int]]:
        return [list(row) for row in self.entries]

    def __eq__(self, other) -> bool:
        return isinstance(other, TabMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"TabMatrix({[list(r) for r in self.entries]})"


def transpose_table(A: Table) -> Table:
    """The entrywise transpose of a table."""
    return tuple(zip(*A))


def _row_fillings(n: int, caps: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """Every row v with sum n and 0 <= v[j] <= caps[j], in ascending lex order.

    Needs n <= sum(caps); the lower bound on each entry leaves the later
    entries room for the rest, so no branch is a dead end.  One call lists
    the fillings of one (n, caps); `_fill` recurses over the entries.
    """
    after, left = [], sum(caps)
    for c in caps:  # after[j]: what entries j+1.. can hold
        left -= c
        after.append(left)
    return _fill(n, caps, after, 0)


def _fill(n: int, caps: Tuple[int, ...], after: List[int], j: int) -> Iterator[Tuple[int, ...]]:
    """The fillings of entries j.. of `_row_fillings(.., caps)` with sum n."""
    if j >= len(caps) - 1:
        yield (n,) if caps else ()
        return
    for v in range(max(0, n - after[j]), min(n, caps[j]) + 1):
        for tail in _fill(n - v, caps, after, j + 1):
            yield (v,) + tail


def table_code(alpha: Sequence[int], beta: Sequence[int]) -> Tuple[list, Callable[[int], Table]]:
    """The weights of the integer code of Tab(alpha, beta), and its decoder:
    code(T) = sum T[r][c] w[r][c] with w[r][c] = (deg+1) ** (m*n - 1 - (r*n + c))
    reads an m x n table's row-major entries as digits, so codes ascend in
    table order.  The decoder shares one tuple per distinct row."""
    base, m, n = sum(alpha) + 1, len(alpha), len(beta)
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

    return w, decode


class SuffixMemo:
    """Codes of rows i.. of the tables with row sums `rows` that fill a column
    room, memoised by (i, room); row i is coded with weights[i].  Each list is
    checked against max_tables as it grows, so the cap bounds the work;
    refusals name `margins`, those of the whole enumeration.

    A row's fillings come from `fillings`, a memo {(row sum, room): the room
    each filling leaves, in the fillings' ascending lex order} that may be
    shared by every memo of one relation system.  A listing enters it only
    once complete, so a refused enumeration lists no more than it walks.  The
    code of a filling v of room is code(room) - code(room - v).
    """

    def __init__(self, rows: Sequence[int], weights: Sequence[Sequence[int]],
                 fillings: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, ...]]],
                 max_tables: Optional[int], margins: Tuple[Sequence[int], Sequence[int]]):
        self.rows, self.weights, self.max_tables = tuple(rows), weights, max_tables
        self.fillings, self.margins = fillings, tuple(map(tuple, margins))
        self.memo: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}

    def check(self, count: int) -> None:
        if self.max_tables is not None and count > self.max_tables:
            raise CapExceeded(f"more than {self.max_tables} tables for %s/%s" % self.margins)

    def head(self, i: int, row: Sequence[int]) -> int:
        return sum(map(mul, row, self.weights[i]))

    def rests(self, n: int, room: Tuple[int, ...]) -> Iterable[Tuple[int, ...]]:
        """room - v for every filling v of a row of sum n, v ascending."""
        rests = self.fillings.get((n, room))
        return self._listed(n, room) if rests is None else rests

    def _listed(self, n: int, room: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        rests = []
        for row in _row_fillings(n, room):
            rests.append(tuple([c - v for c, v in zip(room, row)]))
            yield rests[-1]
        self.fillings[n, room] = rests

    def suffixes(self, i: int, room: Tuple[int, ...]) -> List[int]:
        if i == len(self.rows) - 1:
            # margins of equal sum always admit a nonnegative table, so the
            # last row is forced to be what the columns still need
            return [self.head(i, room)]
        out = self.memo.get((i, room))
        if out is None:
            out = self.memo[i, room] = []
            top = self.head(i, room)
            for rest in self.rests(self.rows[i], room):
                head = top - self.head(i, rest)
                out += [head + tail for tail in self.suffixes(i + 1, rest)]
                self.check(len(out))
        return out

    def split(self, room: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], int, List[int]]]:
        """(row, its code, suffixes of rows 1..) for each filling of row 0,
        with at least two rows; all the tables count against the cap together."""
        count, top = 0, self.head(0, room)
        try:
            for rest in self.rests(self.rows[0], room):
                tails = self.suffixes(1, rest)
                count += len(tails)
                self.check(count)
                yield tuple([c - v for c, v in zip(room, rest)]), top - self.head(0, rest), tails
        except RecursionError:
            raise CapExceeded("margins of widths %d and %d exceed the recursion limit"
                              % tuple(map(len, self.margins))) from None

    def codes(self, room: Sequence[int]) -> List[int]:
        """The codes of every table that fills `room`, ascending under `table_code` weights."""
        if sum(self.rows) != sum(room):
            raise DegreeMismatch("deg%s != deg%s" % self.margins)
        if len(self.rows) < 2:
            self.check(1)
            return [self.head(0, room)] if self.rows else [0]
        out: List[int] = []
        for _, head, tails in self.split(room):
            out += [head + tail for tail in tails]
        return out


def enumerate_tables(
    alpha: Sequence[int], beta: Sequence[int], max_tables: Optional[int] = None
) -> List[Table]:
    """Tab(alpha, beta): every table with row sums alpha and column sums beta.

    Output is in ascending lexicographic order of the row-major entry
    sequence; this is the canonical column order for relation systems.
    More than max_tables tables raise CapExceeded after O(max_tables) work;
    so do margins too long for the recursion limit.
    """
    weights, decode = table_code(alpha, beta)
    memo = SuffixMemo(alpha, weights, {}, max_tables, (alpha, beta))
    return list(map(decode, memo.codes(beta)))


def unit_exchange(A: Table, axis: str, i: int, j: int, k: int, l: int) -> Table:
    """Four-cell margin-preserving move at 1-based indices.

    axis='row': A + E_ik - E_il - E_jk + E_jl (needs A[i][l] >= 1, A[j][k] >= 1).
    axis='col': A + E_ki - E_li - E_kj + E_lj (needs A[k][j] >= 1, A[l][i] >= 1),
    the row move on the transpose, transposed back.
    """
    if axis == "col":
        return transpose_table(unit_exchange(transpose_table(A), "row", i, j, k, l))
    if axis != "row":
        raise InvalidParameter(f"axis must be 'row' or 'col', got {axis!r}")
    new = [list(row) for row in A]
    for r, c, d in ((i, k, 1), (i, l, -1), (j, k, -1), (j, l, 1)):
        new[r - 1][c - 1] += d
        if new[r - 1][c - 1] < 0:
            raise InvalidParameter(f"delta at ({r},{c}) makes entry negative in {A}")
    return tuple(map(tuple, new))


def order_compare(A: Table, B: Table, mode: str) -> int:
    """-1, 0 or 1 comparing A to B in the named total order.

    'row' reads the rows bottom to top, each left to right; 'col' reads the
    columns right to left, each top to bottom, which is the row order on the
    transposes.
    """
    At, Bt = transpose_table(A), transpose_table(B)
    if len(A) != len(B) or len(At) != len(Bt):
        raise InvalidParameter("shape mismatch in order_compare")
    if mode == "col":
        A, B = At, Bt
    elif mode != "row":
        raise InvalidParameter(f"mode must be 'row' or 'col', got {mode!r}")
    ka, kb = A[::-1], B[::-1]
    return (ka > kb) - (ka < kb)


@dataclass(frozen=True)
class StaircaseFamily:
    a: int
    m: int
    b: int
    a_prime: int
    b_prime: int
    lam: Partition
    lam_t: Partition
    alpha: Composition
    beta: Composition
    r: int

    @property
    def parity_ok(self) -> bool:
        """The condition a - m == b (mod 2)."""
        return (self.a - self.m - self.b) % 2 == 0

    def swapped(self) -> "StaircaseFamily":
        """The transpose family (a', m, b')."""
        return staircase_family(self.a_prime, self.m, self.b_prime)


def staircase_family(a: int, m: int, b: int) -> StaircaseFamily:
    """The staircase-hook family lam = (a, m-1, ..., 2, 1^b)."""
    if not (a >= m >= 2 and b >= 1):
        raise InvalidParameter(f"need a >= m >= 2 and b >= 1, got ({a},{m},{b})")
    a_p = b + m - 1
    b_p = a - m + 1
    stair = tuple(range(m - 1, 1, -1))
    lam = Partition((a,) + stair + (1,) * b)
    lam_t = transpose(lam)
    if lam_t.parts != (a_p,) + stair + (1,) * b_p:
        raise InternalError(
            f"transpose {lam_t.parts} of {lam.parts} is not a staircase hook"
        )
    alpha = Composition((a_p,) + stair + (b_p,))
    beta = Composition((a,) + stair + (b,))
    if not alpha.degree == beta.degree == lam.degree:
        raise InternalError(
            f"flat margins {alpha.parts}/{beta.parts} miss degree {lam.degree}"
        )
    return StaircaseFamily(a, m, b, a_p, b_p, lam, lam_t, alpha, beta, lam.degree)


def staircase_families(max_r: int) -> List[StaircaseFamily]:
    """All staircase families with degree <= max_r, ordered by (r, a, m, b).

    The degree is r = a + m(m-1)/2 - 1 + b, so r, a and m fix b.
    """
    fams = []
    for r in range(max_r + 1):
        for a in range(2, r):
            for m in range(2, a + 1):
                b = r + 1 - a - m * (m - 1) // 2
                if b >= 1:
                    fams.append(staircase_family(a, m, b))
    return fams
