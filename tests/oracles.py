"""Independent reference implementations used to cross-check the package."""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import List, Sequence, Tuple

from spechtend.errors import CapExceeded, InvalidParameter
from spechtend.gf2 import Echelon, Gf2Matrix, TaggedEchelon, mat_mul
from spechtend.limits import DEFAULT_MAX_BITS
from spechtend.partitions import (
    Composition,
    TabMatrix,
    enumerate_tables,
    transpose,
    transpose_table,
    unit_exchange,
)
from spechtend.relations import RelevanceResult
from spechtend.staircase import omega_expand
from spechtend.tabloids import (
    _boundary_indices,
    _splits,
    boundary_map,
    rho_matrix,
    tabloid_dim,
)


def partitions_of(r: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def rec(rest: int, maxp: int, acc: List[int]):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxp), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(r, r, [])
    return out


def conjugate(parts: Sequence[int]) -> Tuple[int, ...]:
    """Transpose by counting cells per column of the diagram."""
    if not parts:
        return ()
    cells = {(i, j) for i, p in enumerate(parts) for j in range(p)}
    out = []
    j = 0
    while any(c[1] == j for c in cells):
        out.append(sum(1 for c in cells if c[1] == j))
        j += 1
    return tuple(out)


def count_tables_brute(alpha: Sequence[int], beta: Sequence[int]) -> int:
    """Count margin matrices by brute force, one row at a time: every
    assignment of row i within the column room left, kept if it sums to alpha_i."""

    def count(i: int, room: Tuple[int, ...]) -> int:
        if i == len(alpha):
            return int(not any(room))
        rows = itertools.product(*(range(min(alpha[i], c) + 1) for c in room))
        return sum(count(i + 1, tuple(c - e for c, e in zip(room, row)))
                   for row in rows if sum(row) == alpha[i])

    return count(0, tuple(beta))


def naive_gf2_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0
            for t in range(k):
                s ^= a[i][t] & b[t][j]
            out[i][j] = s
    return out


def multinomial(r: int, parts: Sequence[int]) -> int:
    n = math.factorial(r)
    for p in parts:
        n //= math.factorial(p)
    return n


def syt_count(shape: Tuple[int, ...]) -> int:
    """Standard fillings counted by backtracking over removable corners."""

    @lru_cache(maxsize=None)
    def rec(state: Tuple[int, ...]) -> int:
        if sum(state) == 0:
            return 1
        total = 0
        for i, c in enumerate(state):
            if c == 0:
                continue
            if i + 1 < len(state) and state[i + 1] >= c:
                continue  # removing here would break weak decrease
            total += rec(tuple(v - 1 if t == i else v for t, v in enumerate(state)))
        return total

    return rec(tuple(shape))


def blocks(x):
    """A tabloid of block bitmasks as a tuple of sorted element tuples."""
    return tuple(tuple(e + 1 for e in range(b.bit_length()) if b >> e & 1) for b in x)


def masks(x):
    """A tabloid of element tuples as a tuple of block bitmasks."""
    return tuple(sum(1 << (e - 1) for e in block) for block in x)


def tabloid_basis(alpha):
    """The canonically ordered tabloid basis of M(alpha), in the order that
    `rho_matrix` indexes its rows and columns by."""
    return _splits((1 << alpha.degree) - 1, alpha.parts)


def rho_column_reference(
    A_entries: Sequence[Sequence[int]],
    x: Tuple[int, ...],
    cod_elements: Sequence[Tuple[int, ...]],
) -> int:
    """Image of a tabloid under rho[A], by intersection-pattern filtering.

    A codomain tabloid y appears (with coefficient 1) exactly when
    |x_i intersect y_j| = A[i][j] for all i, j: the splitting of x into
    pieces giving y is unique when it exists.
    """
    x_sets = [set(xi) for xi in blocks(x)]
    acc = 0
    for idx, y in enumerate(cod_elements):
        ok = True
        for i, si in enumerate(x_sets):
            for j, yj in enumerate(blocks(y)):
                if len(si & set(yj)) != A_entries[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            acc ^= 1 << idx
    return acc


# The tuple-block rho that the bitmask one in spechtend.tabloids replaced,
# kept as its differential reference: a tabloid is a tuple of sorted element
# tuples, blocks are split by element combinations, each output block is
# sorted, and the matrix is assembled from its columns.

def _enumerate_reference(parts: Tuple[int, ...]):
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
def _basis_reference(parts: Tuple[int, ...]):
    elements = tuple(_enumerate_reference(parts))
    return elements, {x: i for i, x in enumerate(elements)}


@lru_cache(maxsize=200_000)
def _row_splits_reference(block: Tuple[int, ...], sizes: Tuple[int, ...]) -> Tuple:
    """Ordered splits of a block into pieces of the given sizes."""
    if not sizes:
        return ((),) if not block else ()
    out = []
    for piece in itertools.combinations(block, sizes[0]):
        chosen = set(piece)
        rest = tuple(e for e in block if e not in chosen)
        for tail in _row_splits_reference(rest, sizes[1:]):
            out.append((piece,) + tail)
    return tuple(out)


def rho_matrix_reference(A):
    """Matrix of rho[A] on tuple-block tabloids, column by column."""
    dom, _ = _basis_reference(tuple(map(sum, A)))
    cod, cod_rank = _basis_reference(tuple(map(sum, zip(*A))))
    cols = []
    for x in dom:
        acc = 0
        row_choices = [_row_splits_reference(x[i], A[i]) for i in range(len(A))]
        for choice in itertools.product(*row_choices):
            y = tuple(tuple(sorted(itertools.chain(*pieces))) for pieces in zip(*choice))
            acc ^= 1 << cod_rank[y]
        cols.append(acc)
    return gf2_from_columns(cols, len(cod))


# The seed's relations engine, kept as a differential reference for the
# relation builders in spechtend.relations: tables are enumerated one at a
# time by recursive placement, every move allocates a new table through
# `add_units`, and rows are frozensets of tables.

def add_units(A, deltas):
    """A with unit deltas (i, j, +-c) applied at 1-based positions."""
    new = [list(row) for row in A]
    for i, j, c in deltas:
        new[i - 1][j - 1] += c
        if new[i - 1][j - 1] < 0:
            raise InvalidParameter(f"delta at ({i},{j}) makes entry negative in {A}")
    return tuple(map(tuple, new))


def enumerate_tables_reference(alpha, beta):
    """Tab(alpha, beta) by recursive placement, in ascending row-major order."""
    nr, nc = len(alpha), len(beta)
    out = []
    rows: List[Tuple[int, ...]] = []
    col_rem = list(beta)

    def fill_row(i: int) -> None:
        if i == nr:
            if all(c == 0 for c in col_rem):
                out.append(tuple(rows))
            return
        row = [0] * nc

        def place(j: int, left: int) -> None:
            if j == nc - 1:
                if left <= col_rem[j]:
                    row[j] = left
                    col_rem[j] -= left
                    rows.append(tuple(row))
                    fill_row(i + 1)
                    rows.pop()
                    col_rem[j] += left
                    row[j] = 0
                return
            for v in range(min(left, col_rem[j]) + 1):
                row[j] = v
                col_rem[j] -= v
                place(j + 1, left - v)
                col_rem[j] += v
            row[j] = 0

        if nc == 0:
            if alpha[i] == 0:
                rows.append(())
                fill_row(i + 1)
                rows.pop()
            return
        place(0, alpha[i])

    fill_row(0)
    return out


def _shifted(parts, i, j):
    new = list(parts)
    new[i - 1] += 1
    new[j - 1] -= 1
    return new


def reference_R_rows(alpha, beta, i, j):
    """[(frozenset of tables, provenance)] for R(i,j), as the seed built them."""
    if alpha[j - 1] == 0:
        return []
    out = []
    for B in enumerate_tables_reference(_shifted(alpha, i, j), beta):
        targets = frozenset(
            add_units(B, [(i, l, -1), (j, l, 1)])
            for l in range(1, len(beta) + 1)
            if B[i - 1][l - 1] % 2 == 1
        )
        if targets:
            out.append((targets, f"R({i},{j}) B={[list(r) for r in B]}"))
    return out


def reference_C_rows(alpha, beta, i, j):
    """[(frozenset of tables, provenance)] for C(i,j), as the seed built them."""
    if beta[j - 1] == 0:
        return []
    out = []
    for D in enumerate_tables_reference(alpha, _shifted(beta, i, j)):
        targets = frozenset(
            add_units(D, [(k, i, -1), (k, j, 1)])
            for k in range(1, len(alpha) + 1)
            if D[k - 1][i - 1] % 2 == 1
        )
        if targets:
            out.append((targets, f"C({i},{j}) D={[list(r) for r in D]}"))
    return out


def reference_relation_system(alpha, beta):
    """(tables, rows, provenance) of the seed's relation_system.

    Rows are sorted lists of column indices, in ascending order; each keeps
    the provenance of its first occurrence.
    """
    tables = enumerate_tables_reference(alpha, beta)
    index = {A: c for c, A in enumerate(tables)}
    seen = {}
    for i in range(1, len(alpha) + 1):
        for j in range(i + 1, len(alpha) + 1):
            for row, prov in reference_R_rows(alpha, beta, i, j):
                seen.setdefault(frozenset(index[A] for A in row), prov)
    for i in range(1, len(beta) + 1):
        for j in range(i + 1, len(beta) + 1):
            for row, prov in reference_C_rows(alpha, beta, i, j):
                seen.setdefault(frozenset(index[A] for A in row), prov)
    rows = sorted(seen, key=lambda s: sorted(s))
    return tables, [sorted(r) for r in rows], [seen[r] for r in rows]


# The tuple-table builder that the integer-coded one in spechtend.relations
# replaced, kept as its differential reference: every shifted table is
# enumerated as a tuple of rows and every target table is rebuilt from it.

def exchange_rows_tuple(alpha, beta, i, j, max_tables=None):
    """The tuple-table R(i,j) rows of (alpha, beta) that the integer-coded
    builder replaced: (targets, B) for each B in Tab(alpha^(i,j,1), beta)
    in ascending order, targets {B - E_il + E_jl : b_il odd} in l order."""
    if not (1 <= i < j <= len(alpha)):
        raise InvalidParameter(f"bad (i,j)=({i},{j}) for width {len(alpha)}")
    if alpha[j - 1] == 0:
        return []
    i, j = i - 1, j - 1
    out = []
    for B in enumerate_tables(_shifted(alpha, i + 1, j + 1), beta, max_tables):
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


def exchange_C_rows_tuple(alpha, beta, i, j, max_tables=None):
    """The tuple-table C(i,j) rows: the R rows of (beta, alpha), transposed,
    in ascending order of the source table D."""
    rows = [
        (tuple(map(transpose_table, targets)), transpose_table(B))
        for targets, B in exchange_rows_tuple(beta, alpha, i, j, max_tables)
    ]
    rows.sort(key=lambda row: row[1])
    return rows


def relation_system_tuple(alpha, beta, max_tables=None):
    """(tables, rows) of the tuple-table relation_system the integer-coded
    one replaced: C-row targets looked up by their transposed entries."""
    tables = enumerate_tables(alpha, beta, max_tables=max_tables)
    col = {T: c for c, T in enumerate(tables)}
    col_t = {transpose_table(T): c for T, c in col.items()}
    rows = set()
    for a, b, lookup in ((alpha, beta, col), (beta, alpha, col_t)):
        for i in range(1, len(a) + 1):
            for j in range(i + 1, len(a) + 1):
                for targets, _ in exchange_rows_tuple(a, b, i, j, max_tables):
                    rows.add(tuple(sorted([lookup[T] for T in targets])))
    return tables, sorted(rows)


def corollary_R_rows(tables, i, j):
    """The per-(A,k) form of the R relations, as sets of tables.

    For a_jk != 0: (a_ik+1) h[A] = sum over l != k of a_il h[A'] where A' is
    the row exchange moving a unit from columns l to k between rows i and j.
    """
    rows = set()
    for A in tables:
        for k in range(1, len(A[0]) + 1):
            if A[j - 1][k - 1] == 0:
                continue
            acc = set()
            if (A[i - 1][k - 1] + 1) % 2 == 1:
                acc.add(A)
            for l in range(1, len(A[0]) + 1):
                if l == k or A[i - 1][l - 1] % 2 == 0:
                    continue
                acc.symmetric_difference_update({unit_exchange(A, "row", i, j, k, l)})
            if acc:
                rows.add(frozenset(acc))
    return rows


def corollary_C_rows(tables, i, j):
    """The per-(A,k) form of the C relations, as sets of tables."""
    rows = set()
    for A in tables:
        for k in range(1, len(A) + 1):
            if A[k - 1][j - 1] == 0:
                continue
            acc = set()
            if (A[k - 1][i - 1] + 1) % 2 == 1:
                acc.add(A)
            for l in range(1, len(A) + 1):
                if l == k or A[l - 1][i - 1] % 2 == 0:
                    continue
                acc.symmetric_difference_update({unit_exchange(A, "col", i, j, k, l)})
            if acc:
                rows.add(frozenset(acc))
    return rows


def z_coefficient_complement(A, j: int, k: int) -> int:
    """z_jk(A) from the complementary sums and the margins."""
    s = sum(A[i - 1][k - 1] for i in range(j + 1, len(A) + 1)) + sum(
        A[j - 1][l - 1] for l in range(k + 1, len(A[0]) + 1)
    )
    return (s + sum(A[j - 1]) + sum(row[k - 1] for row in A) + j + k) % 2


def distribute_rows_reference(head, tail_counts, nrows):
    """Appended unit rows by deduplicating every permutation of the slots."""
    slots = []
    for j, c in enumerate(tail_counts):
        slots.extend([j] * c)
    assert len(slots) == nrows
    out = []
    for arrangement in sorted(set(itertools.permutations(slots))):
        rows = list(head)
        for j in arrangement:
            unit = [0] * len(tail_counts)
            unit[j] = 1
            rows.append(tuple(unit))
        out.append(tuple(rows))
    return out


def pack_rows(mats) -> int:
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


def hom_solution_space_dense(lam, adjacent: bool, max_bits: int = DEFAULT_MAX_BITS):
    """`tabloids.hom_solution_space` by the dense stacked solve it replaced.

    Every rho[T] and boundary map is a matrix; the products rho[T] . phi and
    psi . rho[T] are packed into one bit vector per table.  The cap is the
    package's: the bits of those matrices and of the stacked system.
    """
    lam_t = transpose(lam)
    d_lam = tabloid_dim(lam)
    d_lamt = tabloid_dim(lam_t)
    if d_lam * d_lamt > max_bits:
        raise CapExceeded("rho materialization exceeds the bit budget")
    tables = enumerate_tables(lam_t, lam)

    phi_idx = _boundary_indices(lam_t, adjacent)
    psi_idx = _boundary_indices(lam, adjacent)
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
        acc = pack_rows(itertools.chain(
            (mat_mul(R, phi) for phi in phis), (mat_mul(psi, R) for psi in psis)
        ))
        dep = ech.insert(acc, 1 << col)
        if dep is not None:
            kernel.append(dep)
    return len(kernel), kernel


def maps_agree_dense(chain, terms) -> bool:
    """`tabloids.maps_agree` by the dense comparison it replaced: the product
    of the chain's rho matrices against the sum of the terms' rho matrices."""
    lhs = rho_matrix(chain[0])
    for A in chain[1:]:
        lhs = mat_mul(lhs, rho_matrix(A))
    rows = [0] * lhs.nrows
    for T in terms:
        rows = [x ^ y for x, y in zip(rows, rho_matrix(T).rows)]
    return list(lhs.rows) == rows


def row_ints(sys):
    """Each row of a relation system as a bit int, made on demand: at 10^5
    rows over 10^4 columns the ints together take far more memory than the
    tuples."""
    return (sum(1 << c for c in row) for row in sys.rows)


def solve_relevance_reference(sys):
    """The relevance solve by one `Echelon` over every row as a bit int; with
    no sparse passes, every row and column is left to the echelon."""
    ech = Echelon()
    for r in row_ints(sys):
        ech.insert(r)
    n = len(sys.tables)
    basis = ech.nullspace(n)
    support = set()
    for v in basis:
        for c in range(n):
            if (v >> c) & 1:
                support.add(TabMatrix(sys.tables[c]))
    return RelevanceResult(len(basis), basis, support, ech.rank, len(sys.rows), n)


# Gf2Matrix helpers the package itself does not need: dense round trips,
# the identity, single columns and products with a vector.

def gf2_from_dense(entries):
    rows = [sum(1 << j for j, v in enumerate(row) if v & 1) for row in entries]
    return Gf2Matrix(rows, len(entries[0]) if entries else 0)


def gf2_identity(n):
    return Gf2Matrix([1 << i for i in range(n)], n)


def gf2_to_dense(M):
    return [[(r >> j) & 1 for j in range(M.ncols)] for r in M.rows]


def gf2_column(M, j):
    return sum(((r >> j) & 1) << i for i, r in enumerate(M.rows))


def gf2_from_columns(cols, nrows):
    """The matrix whose column j is the bit int cols[j]."""
    rows = [0] * nrows
    for j, c in enumerate(cols):
        while c:
            low = c & -c
            rows[low.bit_length() - 1] |= 1 << j
            c ^= low
    return Gf2Matrix(rows, len(cols))


def gf2_transpose(M):
    return gf2_from_columns(list(M.rows), M.ncols)


def gf2_apply(M, v):
    """M times the column vector v, both as bit ints."""
    return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(M.rows))


# Module-theoretic references: the Specht kernel, the equivariant dimension
# that the rho basis claim is checked against, and the symmetric group action
# on tabloids.  The equivariant dimension never calls rho.

def sym_action(g, x):
    """Apply a permutation (g[e-1] = image of e) to every entry of tabloid x.

    x is a tuple of element tuples; `blocks` and `masks` convert from and to
    the package's block bitmasks.
    """
    r = sum(len(b) for b in x)
    if sorted(g) != list(range(1, r + 1)):
        raise InvalidParameter(f"not a permutation of 1..{r}: {g}")
    return tuple(tuple(sorted(g[e - 1] for e in block)) for block in x)


def perm_matrix(g, basis):
    """Permutation matrix of g on M(alpha), basis = tabloid_basis(alpha):
    column v holds g . x_v."""
    index = {x: i for i, x in enumerate(basis)}
    cols = [1 << index[masks(sym_action(g, blocks(x)))] for x in basis]
    return gf2_from_columns(cols, len(basis))


def _psi_stack_bits(lam) -> int:
    """Total bit size of the stacked psi system for the memory guard."""
    total = 0
    for i in range(1, lam.length):
        for t in range(1, lam[i] + 1):
            total += tabloid_dim(Composition(lam.parts).shifted(i, i + 1, t))
    return tabloid_dim(lam) * total


def specht_kernel(lam, max_bits=DEFAULT_MAX_BITS):
    """Joint kernel in M(lam) of all psi-bar^(i,i+1,t), as (dim, basis ints).

    The dimension equals the number of standard Young tableaux of shape lam.
    """
    if _psi_stack_bits(lam) > max_bits:
        raise CapExceeded(f"stacked psi system for {lam.parts} exceeds the bit budget")
    d = tabloid_dim(lam)
    ech = Echelon()
    for i in range(1, lam.length):
        for t in range(1, lam[i] + 1):
            for row in boundary_map(lam, "psi", i, i + 1, t, max_bits).rows:
                ech.insert(row)
    return d - ech.rank, ech.nullspace(d)


def _generators(r: int) -> List[Tuple[int, ...]]:
    if r <= 1:
        return [tuple(range(1, r + 1))]
    swap = (2, 1) + tuple(range(3, r + 1))
    cycle = tuple(range(2, r + 1)) + (1,)
    return [swap, cycle]


def equivariant_hom_dim(alpha, beta) -> int:
    """dim of {H : H P_g = Q_g H for the generators g}.

    Each constraint equates two coefficients of H, so the dimension is the
    number of orbits of the diagonal generator action on coefficient cells.
    """
    assert alpha.degree == beta.degree
    dom, cod = tabloid_basis(alpha), tabloid_basis(beta)
    dom_index = {x: i for i, x in enumerate(dom)}
    cod_index = {y: i for i, y in enumerate(cod)}
    da, db = len(dom), len(cod)
    parent = list(range(da * db))
    orbits = da * db
    for g in _generators(alpha.degree):
        sig = [dom_index[masks(sym_action(g, blocks(x)))] for x in dom]
        tau = [cod_index[masks(sym_action(g, blocks(y)))] for y in cod]
        for u in range(db):
            tu = tau[u] * da
            base = u * da
            for v in range(da):
                x, y = base + sig[v], tu + v
                while parent[x] != x:  # find with path halving
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    parent[x] = y
                    orbits -= 1
    return orbits


def omega_lift(x, flat_sys, family, full_tables) -> int:
    """Lift a flat solution to the full table index set via Omega classes."""
    index = {T: c for c, T in enumerate(full_tables)}
    out = 0
    for c, B in enumerate(flat_sys.tables):
        if (x >> c) & 1:
            for A in omega_expand(B, family):
                out |= 1 << index[A]
    return out
