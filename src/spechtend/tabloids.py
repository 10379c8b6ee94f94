"""Permutation modules on tabloid bases and their homomorphism matrices.

A tabloid for a composition alpha of r is an ordered sequence of disjoint
sorted blocks partitioning {1..r}, block i of size alpha_i.  Matrices of
maps between permutation modules use the column-vector convention: rows are
indexed by the codomain basis, columns by the domain basis.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .errors import CapExceeded, InternalError, InvalidParameter
from .gf2 import Gf2Matrix, TaggedEchelon, mat_mul
from .limits import DEFAULT_MAX_BITS
from .partitions import Composition, Partition, TabMatrix, enumerate_tables

Tabloid = Tuple[Tuple[int, ...], ...]


def tabloid_dim(alpha: Composition) -> int:
    """dim M(alpha) = r! / prod(alpha_i!)."""
    n = math.factorial(alpha.degree)
    for p in alpha:
        n //= math.factorial(p)
    return n


class TabloidBasis:
    """The canonically ordered tabloid basis of M(alpha)."""

    def __init__(self, alpha: Composition):
        self.alpha = alpha
        self.r = alpha.degree
        self.elements: Tuple[Tabloid, ...] = tuple(_enumerate(alpha.parts))
        self.index: Dict[Tabloid, int] = {x: i for i, x in enumerate(self.elements)}
        if len(self.elements) != tabloid_dim(alpha):
            raise InternalError(
                f"{len(self.elements)} tabloids for {alpha.parts}, "
                f"expected {tabloid_dim(alpha)}"
            )

    @property
    def dim(self) -> int:
        return len(self.elements)


def _enumerate(parts: Tuple[int, ...]) -> Iterable[Tabloid]:
    """All tabloids, lexicographic on the concatenated sorted blocks."""
    r = sum(parts)
    universe = tuple(range(1, r + 1))

    def rec(remaining: Tuple[int, ...], i: int, acc: List[Tuple[int, ...]]):
        if i == len(parts):
            yield tuple(acc)
            return
        for block in itertools.combinations(remaining, parts[i]):
            chosen = set(block)
            acc.append(block)
            yield from rec(
                tuple(e for e in remaining if e not in chosen), i + 1, acc
            )
            acc.pop()

    if not parts:
        if r == 0:
            yield ()
        return
    yield from rec(universe, 0, [])


@lru_cache(maxsize=None)
def _basis_cached(parts: Tuple[int, ...]) -> TabloidBasis:
    return TabloidBasis(Composition(parts))


def enumerate_tabloids(alpha: Composition, max_bits: int = DEFAULT_MAX_BITS) -> TabloidBasis:
    if tabloid_dim(alpha) > max_bits:
        raise CapExceeded(f"tabloid basis of {alpha.parts} exceeds cap")
    return _basis_cached(alpha.parts)


@lru_cache(maxsize=200_000)
def _row_splits(block: Tuple[int, ...], sizes: Tuple[int, ...]) -> Tuple:
    """Ordered splits of a block into pieces of the given sizes."""
    if not sizes:
        return ((),) if not block else ()
    out = []
    for piece in itertools.combinations(block, sizes[0]):
        chosen = set(piece)
        rest = tuple(e for e in block if e not in chosen)
        for tail in _row_splits(rest, sizes[1:]):
            out.append((piece,) + tail)
    return tuple(out)


def rho_matrix(A: TabMatrix, max_bits: int = DEFAULT_MAX_BITS) -> Gf2Matrix:
    """Matrix of rho[A] : M(alpha) -> M(beta) in canonical tabloid bases.

    The image of a domain tabloid x is the mod-2 sum over all ways to split
    each block x_i into pieces of sizes (a_i1, ..., a_iC), reassembling
    output block j as the union of the i -> j pieces.
    """
    alpha, beta = A.row_margins, A.col_margins
    dom = enumerate_tabloids(alpha, max_bits)
    cod = enumerate_tabloids(beta, max_bits)
    if dom.dim * cod.dim > max_bits:
        raise CapExceeded(
            f"rho matrix {cod.dim}x{dom.dim} exceeds the bit budget"
        )
    cod_rank = cod.index
    cols = []
    for x in dom.elements:
        acc = 0
        row_choices = [_row_splits(x[i], A.entries[i]) for i in range(A.nrows)]
        for choice in itertools.product(*row_choices):
            # zip(*choice) yields, per output block j, the pieces i -> j
            y = tuple(tuple(sorted(itertools.chain(*pieces))) for pieces in zip(*choice))
            acc ^= 1 << cod_rank[y]
        cols.append(acc)
    return Gf2Matrix.from_columns(cols, cod.dim)


def boundary_table(lam: Partition, kind: str, i: int, j: int, s: int) -> TabMatrix:
    """The Tab matrix whose rho realizes the named boundary map."""
    n = lam.length
    if not (1 <= i < j <= n and 1 <= s <= lam[j - 1]):
        raise InvalidParameter(f"bad boundary indices ({i},{j},{s}) for {lam.parts}")
    entries = [[0] * n for _ in range(n)]
    for u in range(n):
        entries[u][u] = lam[u]
    entries[j - 1][j - 1] -= s
    if kind == "phi":
        entries[i - 1][j - 1] += s
    elif kind == "psi":
        entries[j - 1][i - 1] += s
    else:
        raise InvalidParameter(f"kind must be 'phi' or 'psi', got {kind!r}")
    return TabMatrix(entries)


def boundary_map(
    lam: Partition,
    kind: str,
    i: int,
    j: int,
    s: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Gf2Matrix:
    """Matrix of phi-bar/psi-bar for lam at (i, j, s).

    phi: M(lam^(i,j,s)) -> M(lam); psi: M(lam) -> M(lam^(i,j,s)).
    For j beyond the length of lam the map is zero by convention; it is
    returned with an empty domain (phi) or codomain (psi).
    """
    n = lam.length
    if j > n:
        d = tabloid_dim(lam)
        return Gf2Matrix.zeros(d, 0) if kind == "phi" else Gf2Matrix.zeros(0, d)
    return rho_matrix(boundary_table(lam, kind, i, j, s), max_bits)


def _pack_rows(mats: Iterable[Gf2Matrix]) -> int:
    """Pack matrices row-major into one int, each row padded to whole bytes.

    The layout is an injective linear map, so ranks and kernels are those of
    the plain concatenation.  Building the int once from bytes keeps packing
    linear in its length; ORing each row into a growing int is quadratic.
    """
    pieces = []
    for M in mats:
        width = (M.ncols + 7) // 8
        pieces.extend(row.to_bytes(width, "little") for row in M.rows)
    return int.from_bytes(b"".join(pieces), "little")


def hom_solution_space(
    lam: Partition,
    adjacent: bool,
    max_bits: int = DEFAULT_MAX_BITS,
) -> Tuple[int, List[int]]:
    """Coefficient vectors x over Tab(lam', lam) killed by the boundary maps.

    adjacent=True uses all phi-bar^(i,i+1,s) on the right and all
    psi-bar^(i,i+1,t) on the left (the End(Sp) characterization);
    adjacent=False uses the (i,j,1) maps for all i < j (the relevant space).
    Returns (dim, kernel basis as bit vectors over the canonical table
    order).
    """
    from .partitions import transpose

    lam_t = transpose(lam)
    d_lam = tabloid_dim(lam)
    d_lamt = tabloid_dim(lam_t)
    if d_lam * d_lamt > max_bits:
        raise CapExceeded("rho materialization exceeds the bit budget")
    tables = enumerate_tables(lam_t, lam)

    if adjacent:
        phi_idx = [
            (i, i + 1, s)
            for i in range(1, lam_t.length)
            for s in range(1, lam_t[i] + 1)
        ]
        psi_idx = [
            (i, i + 1, t)
            for i in range(1, lam.length)
            for t in range(1, lam[i] + 1)
        ]
    else:
        phi_idx = [
            (i, j, 1)
            for i in range(1, lam_t.length + 1)
            for j in range(i + 1, lam_t.length + 1)
        ]
        psi_idx = [
            (i, j, 1)
            for i in range(1, lam.length + 1)
            for j in range(i + 1, lam.length + 1)
        ]
    # honest size of the stacked vectorized system: one long bit vector per
    # table, concatenating every product matrix
    vec_len = 0
    for (i, j, s) in phi_idx:
        vec_len += d_lam * tabloid_dim(Composition(lam_t.parts).shifted(i, j, s))
    for (i, j, t) in psi_idx:
        vec_len += d_lamt * tabloid_dim(Composition(lam.parts).shifted(i, j, t))
    if vec_len * max(1, len(tables)) > max_bits:
        raise CapExceeded(
            f"stacked solution system for {lam.parts} exceeds the bit budget"
        )
    phis = [boundary_map(lam_t, "phi", i, j, s, max_bits) for (i, j, s) in phi_idx]
    psis = [boundary_map(lam, "psi", i, j, t, max_bits) for (i, j, t) in psi_idx]

    ech = TaggedEchelon()
    kernel: List[int] = []
    for col, T in enumerate(tables):
        R = rho_matrix(TabMatrix(T), max_bits)
        acc = _pack_rows(itertools.chain(
            (mat_mul(R, phi) for phi in phis), (mat_mul(psi, R) for psi in psis)
        ))
        dep = ech.insert(acc, 1 << col)
        if dep is not None:
            kernel.append(dep)
    return len(kernel), kernel


def end_dimension_oracle(lam: Partition, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """dim End(Sp(lam)) by brute-force materialization."""
    dim, _ = hom_solution_space(lam, adjacent=True, max_bits=max_bits)
    return dim

