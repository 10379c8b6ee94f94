"""Bit-packed linear algebra over GF(2).

Rows are Python integers: bit j of a row int is the entry in column j.
Python's arbitrary-precision ints give word-packed XOR for free, so the
same code is exact at every size.

`sparse_nullspace` solves a sparse system given as tuples of column indices
by structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90).  It
repeats a pass over the rows until a pass changes nothing: each row is
rewritten in terms of class representatives (repeated representatives cancel
mod 2, classes known to be zero drop out), a row of weight 1 sets its class
to zero, and a row of weight 2 merges two classes in a union-find.  `Echelon`
then solves the rows that are left over the live classes.  Its basis is the
canonical one `Echelon.nullspace` gives for the whole system, because the
live classes are ordered by their highest column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import InvalidParameter


class Gf2Matrix:
    """Immutable dense GF(2) matrix stored as one int per row."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[int], ncols: int):
        rows = tuple(int(r) for r in rows)
        for r in rows:
            if r < 0 or r >> ncols:
                raise InvalidParameter("row bits exceed column count")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"Gf2Matrix({self.nrows}x{self.ncols})"


def mat_mul(A: Gf2Matrix, B: Gf2Matrix) -> Gf2Matrix:
    if A.ncols != B.nrows:
        raise InvalidParameter(f"cannot multiply {A!r} by {B!r}")
    out = []
    brows = B.rows
    for a in A.rows:
        acc = 0
        while a:
            low = a & -a
            acc ^= brows[low.bit_length() - 1]
            a ^= low
        out.append(acc)
    return Gf2Matrix(out, B.ncols)


class Echelon:
    """Incremental row-echelon accumulator (pivot = lowest set bit)."""

    def __init__(self):
        self.pivots: Dict[int, int] = {}

    def reduce(self, row: int) -> int:
        """Reduce a row against the current pivots; 0 means dependent."""
        piv = self.pivots
        while row:
            c = (row & -row).bit_length() - 1
            p = piv.get(c)
            if p is None:
                break
            row ^= p
        return row

    def insert(self, row: int) -> bool:
        """Add a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if row:
            self.pivots[(row & -row).bit_length() - 1] = row
            return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def nullspace(self, ncols: int) -> List[int]:
        """Canonical kernel basis, one vector per free column, ascending."""
        piv = self.pivots
        free = [c for c in range(ncols) if c not in piv]
        pivot_cols = sorted(piv, reverse=True)
        basis = []
        for f in free:
            x = 1 << f
            for p in pivot_cols:
                if p > f:
                    continue
                # x_p is forced by the pivot equation on already-set bits
                if (piv[p] & x).bit_count() & 1:
                    x |= 1 << p
            basis.append(x)
        return basis


class TaggedEchelon:
    """Echelon that tracks the combination of inserted vectors per pivot."""

    def __init__(self):
        self.pivots: Dict[int, Tuple[int, int]] = {}

    def insert(self, row: int, tag: int) -> Optional[int]:
        """Insert; returns the dependency tag if row was dependent, else None."""
        piv = self.pivots
        while row:
            c = (row & -row).bit_length() - 1
            hit = piv.get(c)
            if hit is None:
                piv[c] = (row, tag)
                return None
            row ^= hit[0]
            tag ^= hit[1]
        return tag


@dataclass(frozen=True)
class SparseKernel:
    """The result of `sparse_nullspace` and the counters of its solve.

    `residual_rows` and `residual_cols` size the system left for `Echelon`
    after the sparse passes: its rows, and the live classes it is solved over.
    """

    basis: List[int]
    rank: int
    residual_rows: int
    residual_cols: int


def sparse_nullspace(rows: Iterable[Sequence[int]], ncols: int) -> SparseKernel:
    """Canonical kernel basis of a system whose rows list their odd columns.

    Returns the basis `Echelon.nullspace(ncols)` gives after inserting every
    row: one vector per free column, ascending, each with no bit at another
    vector's highest bit.
    """
    rows = list(rows)
    cols = set().union(*rows)
    if cols and (min(cols) < 0 or max(cols) >= ncols):
        raise InvalidParameter(f"a row has a column outside range({ncols})")
    parent = list(range(ncols))
    size = [1] * ncols
    zero = bytearray(ncols)
    sparse_rank = 0
    changed = True
    while changed:
        changed = False
        left = []
        for row in rows:
            live: Set[int] = set()
            for c in row:
                while parent[c] != c:  # find with path halving
                    parent[c] = c = parent[parent[c]]
                if not zero[c]:
                    if c in live:
                        live.remove(c)
                    else:
                        live.add(c)
            w = len(live)
            if w == 1:
                zero[live.pop()] = 1
            elif w == 2:
                x, y = live
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                size[x] += size[y]
            else:
                if w:
                    left.append(tuple(live))
                continue
            sparse_rank += 1
            changed = True
        rows = left

    # Number the live classes by their highest column.  The map from class
    # vectors to column vectors keeps highest bits in order, so Echelon's
    # canonical basis over the classes expands to the canonical basis here.
    members: Dict[int, List[int]] = {}
    for c in range(ncols):
        r = c
        while parent[r] != r:
            r = parent[r]
        if not zero[r]:
            members.setdefault(r, []).append(c)
    classes = sorted(members, key=lambda r: members[r][-1])
    index = {r: i for i, r in enumerate(classes)}
    ech = Echelon()
    for row in rows:
        ech.insert(sum(1 << index[r] for r in row))
    basis = []
    for v in ech.nullspace(len(classes)):
        buf = bytearray((ncols + 7) >> 3)
        while v:
            low = v & -v
            v ^= low
            for c in members[classes[low.bit_length() - 1]]:
                buf[c >> 3] |= 1 << (c & 7)
        basis.append(int.from_bytes(buf, "little"))
    return SparseKernel(basis, sparse_rank + ech.rank, len(rows), len(classes))
