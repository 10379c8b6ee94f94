"""Permutation modules on tabloids, the maps rho[A] and the End oracle.

A tabloid for a composition alpha of r is an ordered sequence of disjoint
blocks partitioning {1..r}, block i of size alpha_i.  Each block is an int
bitmask in which bit e-1 stands for element e, so a tabloid is a tuple of
block bitmasks.  `_splits` of {1..r} into alpha lists the basis of M(alpha),
ordered lexicographically on the concatenated sorted blocks.  `_image` is
how rho[A] acts on one tabloid.  Every map here is equivariant out of a
cyclic module M(mu), so the oracle and `maps_agree` decide an identity
between maps at one generating tabloid and build no matrix.  `rho_matrix`
uses the column-vector convention (rows index the codomain basis).
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import CapExceeded, InternalError, InvalidParameter
from .gf2 import Gf2Matrix, TaggedEchelon
from .limits import DEFAULT_MAX_BITS
from .partitions import Composition, Partition, Table, enumerate_tables, transpose

Tabloid = Tuple[int, ...]


def tabloid_dim(alpha: Composition) -> int:
    """dim M(alpha) = r! / prod(alpha_i!)."""
    n = math.factorial(alpha.degree)
    for p in alpha:
        n //= math.factorial(p)
    return n


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


def _x0(mu: Composition) -> Tabloid:
    """The tabloid with blocks {1..mu_1}, {mu_1+1..mu_1+mu_2}, ...; it generates
    M(mu), so an equivariant map out of M(mu) is zero iff it kills _x0(mu)."""
    ends = itertools.accumulate(mu, initial=0)
    return tuple((1 << b) - (1 << a) for a, b in itertools.pairwise(ends))


def _image(A: Table, x: Tabloid) -> Iterator[Tabloid]:
    """rho[A](x) with multiplicity: each block x_i splits into pieces of sizes
    (a_i1, ..., a_iC) in every way, and output block j is the union (the sum:
    they are disjoint) of the pieces i -> j, which zip(*choice) groups.  The
    rows of A must be tuples: _splits is keyed on them."""
    for choice in itertools.product(*map(_splits, x, A)):
        yield tuple(map(sum, zip(*choice)))


def _apply(A: Table, xs: List[Tabloid]) -> List[Tabloid]:
    """rho[A] of the mod-2 sum of xs, as the tabloids with coefficient 1."""
    counts = Counter(y for x in xs for y in _image(A, x))
    return [y for y, n in counts.items() if n & 1]


def maps_agree(chain: Sequence[Table], terms: Iterable[Table], mu: Composition) -> bool:
    """Whether rho[chain[0]] . ... . rho[chain[-1]] = sum of rho[T] over terms,
    as maps out of M(mu).  Both sides are equivariant and _x0(mu) generates
    M(mu), so they agree iff they agree at _x0(mu)."""
    x0, cod = _x0(mu), tuple(mu)
    xs = [x0]
    for A in reversed(chain):
        if tuple(map(sum, A)) != cod:
            raise InvalidParameter(f"table {A} does not act on M({cod})")
        xs, cod = _apply(A, xs), tuple(map(sum, zip(*A)))
    counts: Counter = Counter()
    for T in terms:
        if (tuple(map(sum, T)), tuple(map(sum, zip(*T)))) != (tuple(mu), cod):
            raise InvalidParameter(f"term {T} is not a map M({tuple(mu)}) -> M({cod})")
        counts.update(_image(T, x0))
    return set(xs) == {y for y, n in counts.items() if n & 1}


def rho_matrix(A: Table, max_bits: int = DEFAULT_MAX_BITS) -> Gf2Matrix:
    """Matrix of rho[A] : M(alpha) -> M(beta) in canonical tabloid bases;
    column x holds `_image(A, x)`.  The cap is checked before any listing."""
    alpha, beta = Composition(map(sum, A)), Composition(map(sum, zip(*A)))
    d_alpha, d_beta = tabloid_dim(alpha), tabloid_dim(beta)
    if d_alpha * d_beta > max_bits:
        raise CapExceeded(f"rho matrix {d_beta}x{d_alpha} exceeds the bit budget")
    dom = _splits((1 << alpha.degree) - 1, alpha.parts)
    cod = _splits((1 << beta.degree) - 1, beta.parts)
    if (len(dom), len(cod)) != (d_alpha, d_beta):
        raise InternalError(f"tabloid counts for {A} are not {d_alpha} and {d_beta}")
    cod_rank = {y: u for u, y in enumerate(cod)}
    rows = [0] * d_beta
    for v, x in enumerate(dom):
        for y in _image(A, x):
            rows[cod_rank[y]] ^= 1 << v
    return Gf2Matrix(rows, d_alpha)


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


def _boundary_indices(mu: Partition, adjacent: bool) -> List[Tuple[int, int, int]]:
    """The (i, j, s) of the boundary maps on mu that hom_solution_space uses."""
    n = mu.length
    if adjacent:
        return [(i, i + 1, s) for i in range(1, n) for s in range(1, mu[i] + 1)]
    return [(i, j, 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def hom_solution_space(lam: Partition, adjacent: bool,
                       max_bits: int = DEFAULT_MAX_BITS) -> Tuple[int, List[int]]:
    """Coefficient vectors x over Tab(lam', lam) killed by the boundary maps.

    adjacent=True uses all phi-bar^(i,i+1,s) on the right and all
    psi-bar^(i,i+1,t) on the left (the End(Sp) characterization);
    adjacent=False uses the (i,j,1) maps for all i < j (the relevant space).
    Each condition is checked at a generating tabloid: rho[T] . phi = 0 iff
    rho[T](phi(x0)) = 0, and psi . rho[T] = 0 iff psi(rho[T](x0)) = 0.  The
    coordinates are (condition, tabloid) pairs, numbered as they are met.
    Returns (dim, kernel basis as bit vectors over the canonical table order).
    """
    lam_t = transpose(lam)
    phis = [(boundary_table(lam_t, "phi", *k), lam_t.shifted(*k))
            for k in _boundary_indices(lam_t, adjacent)]
    psis = [(boundary_table(lam, "psi", *k), lam.shifted(*k))
            for k in _boundary_indices(lam, adjacent)]
    # The budget sizes the dense solve this one replaced, from tabloid
    # dimensions alone: each rho[T], each boundary matrix and a stacked product
    # vector per table.  It stays so that capped records remain comparable.
    d_lam, d_lamt = tabloid_dim(lam), tabloid_dim(lam_t)
    d_phi = [tabloid_dim(mu) for _, mu in phis]
    d_psi = [tabloid_dim(mu) for _, mu in psis]
    if max([d_lam] + d_phi) * d_lamt > max_bits or max(d_psi, default=0) * d_lam > max_bits:
        raise CapExceeded(f"oracle for {lam.parts} exceeds the bit budget")
    tables = enumerate_tables(lam_t, lam)
    if (d_lam * sum(d_phi) + d_lamt * sum(d_psi)) * max(1, len(tables)) > max_bits:
        raise CapExceeded(f"stacked solution system for {lam.parts} exceeds the bit budget")

    phi_x0 = [_apply(P, [_x0(mu)]) for P, mu in phis]
    coords: Dict[Tuple[int, Tabloid], int] = {}
    ech = TaggedEchelon()
    kernel: List[int] = []
    for col, T in enumerate(tables):
        rho_x0 = _apply(T, [_x0(lam_t)])
        terms = [(T, ys) for ys in phi_x0] + [(P, rho_x0) for P, _ in psis]
        hit = [coords.setdefault((c, z), len(coords))
               for c, (A, ys) in enumerate(terms) for z in _apply(A, ys)]
        bits = bytearray(len(coords) // 8 + 1)
        for i in hit:
            bits[i >> 3] |= 1 << (i & 7)
        dep = ech.insert(int.from_bytes(bits, "little"), 1 << col)
        if dep is not None:
            kernel.append(dep)
    return len(kernel), kernel


def end_dimension_oracle(lam: Partition, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """dim End(Sp(lam)), each boundary condition checked at a generating tabloid."""
    dim, _ = hom_solution_space(lam, adjacent=True, max_bits=max_bits)
    return dim
