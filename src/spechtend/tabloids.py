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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CapExceeded, InternalError, InvalidParameter
from .gf2 import Echelon, Gf2Matrix, Gf2Vector, TaggedEchelon, mat_mul
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

    def rank(self, x: Tabloid) -> int:
        return self.index[x]


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


def sym_action(g: Sequence[int], x: Tabloid) -> Tabloid:
    """Apply a permutation (g[e-1] = image of e) to every entry of x."""
    r = sum(len(b) for b in x)
    if sorted(g) != list(range(1, r + 1)):
        raise InvalidParameter(f"not a permutation of 1..{r}: {g}")
    return tuple(tuple(sorted(g[e - 1] for e in block)) for block in x)


def perm_matrix(g: Sequence[int], basis: TabloidBasis) -> Gf2Matrix:
    """Permutation matrix of g on M(alpha): column v holds g . x_v."""
    cols = [1 << basis.rank(sym_action(g, x)) for x in basis.elements]
    return Gf2Matrix.from_columns(cols, basis.dim)


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


def _psi_stack_bits(lam: Partition) -> int:
    """Total bit size of the stacked psi system for the memory guard."""
    n = lam.length
    d = tabloid_dim(lam)
    total = 0
    for i in range(1, n):
        for t in range(1, lam[i] + 1):
            total += tabloid_dim(Composition(lam.parts).shifted(i, i + 1, t))
    return d * total


def specht_kernel(
    lam: Partition, max_bits: int = DEFAULT_MAX_BITS
) -> Tuple[int, List[Gf2Vector]]:
    """Joint kernel in M(lam) of all psi-bar^(i,i+1,t), as (dim, basis).

    The dimension equals the number of standard Young tableaux of shape lam.
    """
    if _psi_stack_bits(lam) > max_bits:
        raise CapExceeded(f"stacked psi system for {lam.parts} exceeds the bit budget")
    d = tabloid_dim(lam)
    ech = Echelon()
    for i in range(1, lam.length):
        for t in range(1, lam[i] + 1):
            psi = boundary_map(lam, "psi", i, i + 1, t, max_bits)
            for row in psi.rows:
                ech.insert(row)
    basis = [Gf2Vector(x, d) for x in ech.nullspace(d)]
    return d - ech.rank, basis


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry
            self.count -= 1


def _generators(r: int) -> List[Tuple[int, ...]]:
    if r <= 1:
        return [tuple(range(1, r + 1))]
    swap = (2, 1) + tuple(range(3, r + 1))
    cycle = tuple(range(2, r + 1)) + (1,)
    return [swap, cycle]


def equivariant_hom_dim(
    alpha: Composition, beta: Composition, max_bits: int = DEFAULT_MAX_BITS
) -> int:
    """dim of {H : H P_g = Q_g H for the generators g}.

    Each constraint equates two coefficients of H, so the dimension is the
    number of orbits of the diagonal generator action on coefficient cells.
    """
    if alpha.degree != beta.degree:
        raise InvalidParameter("degree mismatch")
    dom = enumerate_tabloids(alpha, max_bits)
    cod = enumerate_tabloids(beta, max_bits)
    da, db = dom.dim, cod.dim
    if da * db > max_bits:
        raise CapExceeded("coefficient grid exceeds the bit budget")
    uf = _UnionFind(da * db)
    for g in _generators(alpha.degree):
        sig = [dom.rank(sym_action(g, x)) for x in dom.elements]
        tau = [cod.rank(sym_action(g, y)) for y in cod.elements]
        for u in range(db):
            tu = tau[u] * da
            base = u * da
            for v in range(da):
                uf.union(base + sig[v], tu + v)
    return uf.count


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
) -> Tuple[int, List[int], List[TabMatrix]]:
    """Coefficient vectors x over Tab(lam', lam) killed by the boundary maps.

    adjacent=True uses all phi-bar^(i,i+1,s) on the right and all
    psi-bar^(i,i+1,t) on the left (the End(Sp) characterization);
    adjacent=False uses the (i,j,1) maps for all i < j (the relevant space).
    Returns (dim, kernel basis as bit vectors over the canonical table
    order, table list).
    """
    from .partitions import transpose

    lam_t = transpose(lam)
    d_lam = tabloid_dim(lam)
    d_lamt = tabloid_dim(lam_t)
    if d_lam * d_lamt > max_bits:
        raise CapExceeded("rho materialization exceeds the bit budget")
    tables = enumerate_tables(
        Composition(lam_t.parts), Composition(lam.parts)
    )

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
    for col, A in enumerate(tables):
        R = rho_matrix(A, max_bits)
        acc = _pack_rows(itertools.chain(
            (mat_mul(R, phi) for phi in phis), (mat_mul(psi, R) for psi in psis)
        ))
        dep = ech.insert(acc, 1 << col)
        if dep is not None:
            kernel.append(dep)
    return len(kernel), kernel, tables


def end_dimension_oracle(lam: Partition, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """dim End(Sp(lam)) by brute-force materialization."""
    dim, _, _ = hom_solution_space(lam, adjacent=True, max_bits=max_bits)
    return dim


def rel_dimension_materialized(
    lam: Partition, max_bits: int = DEFAULT_MAX_BITS
) -> int:
    """dim of the relevant space by brute-force materialization."""
    dim, _, _ = hom_solution_space(lam, adjacent=False, max_bits=max_bits)
    return dim
