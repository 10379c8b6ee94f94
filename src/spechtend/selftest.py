"""Built-in invariant suite used by the `selftest` subcommand.

Each check recomputes a mathematical identity two independent ways and
compares exactly.  The suite is sized to finish well under a minute.
"""
from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

from .partitions import (
    Composition,
    Partition,
    Table,
    enumerate_tables,
    order_compare,
    staircase_families,
    transpose,
)
from .relations import (
    build_Z_row,
    relevance_system,
    solve_relevance,
    transpose_hom,
)
from .staircase import flat_relevance_system
from .tabloids import boundary_table, end_dimension_oracle, hom_solution_space, maps_agree


def _partitions_of(r: int) -> List[Partition]:
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
    return [Partition(p) for p in out]


def all_partitions(max_r: int) -> List[Partition]:
    return [p for r in range(1, max_r + 1) for p in _partitions_of(r)]


def check_oracle_equivalence(max_r: int = 5) -> None:
    """Relations-engine Rel dim == oracle Rel dim; 1 <= End <= Rel."""
    for lam in all_partitions(max_r):
        rel = solve_relevance(relevance_system(lam))
        oracle_dim, _ = hom_solution_space(lam, adjacent=False)
        if rel.dim != oracle_dim:
            raise AssertionError(
                f"oracle equivalence failed for {lam.parts}: {rel.dim} != {oracle_dim}"
            )
        end_dim, _ = hom_solution_space(lam, adjacent=True)
        if not (1 <= end_dim <= rel.dim):
            raise AssertionError(
                f"End bound failed for {lam.parts}: end={end_dim}, rel={rel.dim}"
            )


def _moved(A: Table, a: int, b: int, c: int, d: int) -> Table:
    """A + E_ab - E_cd, at 0-based positions."""
    T = [list(row) for row in A]
    T[a][b] += 1
    T[c][d] -= 1
    return tuple(map(tuple, T))


def closed_form_cases(max_r: int) -> Iterator[Tuple[str, List[Table], List[Table], Composition]]:
    """The boundary closed forms as (failure message, chain, terms, mu) for
    `maps_agree`, per A in Tab(lam', lam) and i < j: rho[A] . phi-bar^(i,j,1)
    is the sum of rho[A + E_il - E_jl] over l with a_jl > 0 and a_il even, and
    psi-bar^(i,j,1) . rho[A] the sum of rho[A + E_ki - E_kj] over k with
    a_kj > 0 and a_ki even."""
    for lam in all_partitions(max_r):
        lam_t = transpose(lam)
        for A in enumerate_tables(lam_t, lam):
            for i, j in itertools.combinations(range(len(A)), 2):
                terms = [_moved(A, i, l, j, l) for l in range(len(A[0]))
                         if A[j][l] and A[i][l] % 2 == 0]
                yield (f"phi composition failed for {lam.parts}, A={A}, ({i + 1},{j + 1})",
                       [A, boundary_table(lam_t, "phi", i + 1, j + 1, 1)], terms,
                       lam_t.shifted(i + 1, j + 1, 1))
            for i, j in itertools.combinations(range(len(A[0])), 2):
                terms = [_moved(A, k, i, k, j) for k in range(len(A))
                         if A[k][j] and A[k][i] % 2 == 0]
                yield (f"psi composition failed for {lam.parts}, A={A}, ({i + 1},{j + 1})",
                       [boundary_table(lam, "psi", i + 1, j + 1, 1), A], terms, lam_t)


def check_composition_closed_form(max_r: int = 5) -> None:
    """rho[A] . phi-bar = sum of neighbouring rho's, and the psi mirror, each
    checked at the generating tabloid."""
    for message, chain, terms, mu in closed_form_cases(max_r):
        if not maps_agree(chain, terms, mu):
            raise AssertionError(message)


def check_eta_duality(max_r: int = 5) -> None:
    """dim Rel(lam) == dim Rel(lam'), with transpose_hom an isomorphism, and
    dim End(lam) == dim End(lam'), which `check_swapped` relies on."""
    for lam in all_partitions(max_r):
        lam_t = transpose(lam)
        sys_a = relevance_system(lam)
        sys_b = relevance_system(lam_t)
        ra, rb = solve_relevance(sys_a), solve_relevance(sys_b)
        if ra.dim != rb.dim:
            raise AssertionError(f"duality dim mismatch for {lam.parts}")
        if end_dimension_oracle(lam) != end_dimension_oracle(lam_t):
            raise AssertionError(f"duality End mismatch for {lam.parts}")
        for v in ra.basis:
            w = transpose_hom(v, sys_a.tables, sys_b.tables)
            if any(sum(w >> c & 1 for c in row) & 1 for row in sys_b.rows):
                raise AssertionError(f"transposed solution violates a relation for {lam.parts}")


def check_z_redundancy(max_r: int = 8) -> None:
    """Every flat Z row lies in the R/C row space, that is, has even overlap
    with every kernel vector, and descends in both orders."""
    for fam in staircase_families(max_r):
        if not fam.parity_ok:
            continue
        sys = flat_relevance_system(fam)
        kernel = solve_relevance(sys).basis
        index = {T: c for c, T in enumerate(sys.tables)}
        for A in sys.tables:
            for j in range(1, fam.m + 1):
                for k in range(1, fam.m + 1):
                    if A[j - 1][k - 1] == 0:
                        continue
                    zrow = build_Z_row(A, j, k)
                    acc = sum(1 << index[T] for T in zrow)
                    if any((acc & v).bit_count() & 1 for v in kernel):
                        raise AssertionError(
                            f"Z row not in R/C row space for family "
                            f"({fam.a},{fam.m},{fam.b}), A={A}, ({j},{k})"
                        )
                    for T in zrow - {A}:
                        if order_compare(T, A, "row") >= 0 or order_compare(T, A, "col") >= 0:
                            raise AssertionError(
                                f"Z target does not precede its generator: {T} vs {A}"
                            )


CHECKS = {
    "oracle_equivalence": check_oracle_equivalence,
    "composition_closed_form": check_composition_closed_form,
    "eta_duality": check_eta_duality,
    "z_redundancy": check_z_redundancy,
}


def run_selftest() -> Dict[str, str]:
    """Run every named invariant; returns name -> 'pass'. Raises on failure."""
    results: Dict[str, str] = {}
    for name, fn in CHECKS.items():
        fn()
        results[name] = "pass"
    return results
