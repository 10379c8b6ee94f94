"""Permutation modules on tabloid bases and their homomorphism matrices.

A tabloid for a composition alpha of r is an ordered sequence of disjoint
blocks partitioning {1..r}, block i of size alpha_i.  Each block is an int
bitmask in which bit e-1 stands for element e, so a tabloid is a tuple of
block bitmasks.  The basis is ordered lexicographically on the concatenated
sorted blocks.  Matrices of maps between permutation modules use the
column-vector convention: rows are indexed by the codomain basis, columns by
the domain basis.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .errors import CapExceeded, InternalError, InvalidParameter
from .gf2 import Gf2Matrix, TaggedEchelon, mat_mul
from .limits import DEFAULT_MAX_BITS
from .partitions import Composition, Partition, Table, enumerate_tables, transpose

Tabloid = Tuple[int, ...]


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
        self.elements: Tuple[Tabloid, ...] = _splits((1 << self.r) - 1, alpha.parts)
        self.index: Dict[Tabloid, int] = {x: i for i, x in enumerate(self.elements)}
        if len(self.elements) != tabloid_dim(alpha):
            raise InternalError(
                f"{len(self.elements)} tabloids for {alpha.parts}, "
                f"expected {tabloid_dim(alpha)}"
            )

    @property
    def dim(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=200_000)
def _splits(block: int, sizes: Tuple[int, ...]) -> Tuple[Tabloid, ...]:
    """Ordered splits of a block bitmask into pieces of the given sizes.

    The order is lexicographic on the concatenated sorted pieces, so the
    splits of {1..r} into alpha are the tabloid basis of M(alpha).
    """
    if not sizes:
        return ((),) if not block else ()
    singles = [1 << e for e in range(block.bit_length()) if block >> e & 1]
    out = []
    for piece in itertools.combinations(singles, sizes[0]):
        head = sum(piece)
        for tail in _splits(block ^ head, sizes[1:]):
            out.append((head,) + tail)
    return tuple(out)


@lru_cache(maxsize=None)
def _basis_cached(parts: Tuple[int, ...]) -> TabloidBasis:
    return TabloidBasis(Composition(parts))


def enumerate_tabloids(alpha: Composition, max_bits: int = DEFAULT_MAX_BITS) -> TabloidBasis:
    if tabloid_dim(alpha) > max_bits:
        raise CapExceeded(f"tabloid basis of {alpha.parts} exceeds cap")
    return _basis_cached(alpha.parts)


def rho_matrix(A: Table, max_bits: int = DEFAULT_MAX_BITS) -> Gf2Matrix:
    """Matrix of rho[A] : M(alpha) -> M(beta) in canonical tabloid bases.

    The image of a domain tabloid x is the mod-2 sum over all ways to split
    each block x_i into pieces of sizes (a_i1, ..., a_iC), reassembling
    output block j as the union of the i -> j pieces.  The rows of A must be
    tuples: the cached splitter is keyed on them.
    """
    alpha, beta = Composition(map(sum, A)), Composition(map(sum, zip(*A)))
    dom = enumerate_tabloids(alpha, max_bits)
    cod = enumerate_tabloids(beta, max_bits)
    if dom.dim * cod.dim > max_bits:
        raise CapExceeded(
            f"rho matrix {cod.dim}x{dom.dim} exceeds the bit budget"
        )
    cod_rank = cod.index
    rows = [0] * cod.dim
    for v, x in enumerate(dom.elements):
        bit = 1 << v
        for choice in itertools.product(*map(_splits, x, A)):
            # zip(*choice) yields, per output block j, the pieces i -> j;
            # they are disjoint, so their sum is their union
            rows[cod_rank[tuple(map(sum, zip(*choice)))]] ^= bit
    return Gf2Matrix(rows, dom.dim)


def boundary_table(lam: Partition, kind: str, i: int, j: int, s: int) -> Table:
    """The table whose rho realizes the named boundary map."""
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
    return tuple(map(tuple, entries))


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
    """
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


def _boundary_indices(mu: Partition, adjacent: bool) -> List[Tuple[int, int, int]]:
    """The (i, j, s) of the boundary maps on mu that hom_solution_space uses."""
    n = mu.length
    if adjacent:
        return [(i, i + 1, s) for i in range(1, n) for s in range(1, mu[i] + 1)]
    return [(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


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
    lam_t = transpose(lam)
    d_lam = tabloid_dim(lam)
    d_lamt = tabloid_dim(lam_t)
    if d_lam * d_lamt > max_bits:
        raise CapExceeded("rho materialization exceeds the bit budget")
    tables = enumerate_tables(lam_t, lam)

    phi_idx = _boundary_indices(lam_t, adjacent)
    psi_idx = _boundary_indices(lam, adjacent)
    # honest size of the stacked vectorized system: one long bit vector per
    # table, concatenating every product matrix
    vec_len = (d_lam * sum(tabloid_dim(lam_t.shifted(*k)) for k in phi_idx)
               + d_lamt * sum(tabloid_dim(lam.shifted(*k)) for k in psi_idx))
    if vec_len * max(1, len(tables)) > max_bits:
        raise CapExceeded(
            f"stacked solution system for {lam.parts} exceeds the bit budget"
        )
    phis = [boundary_map(lam_t, "phi", i, j, s, max_bits) for (i, j, s) in phi_idx]
    psis = [boundary_map(lam, "psi", i, j, t, max_bits) for (i, j, t) in psi_idx]

    ech = TaggedEchelon()
    kernel: List[int] = []
    for col, T in enumerate(tables):
        R = rho_matrix(T, max_bits)
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

