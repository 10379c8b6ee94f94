"""Built-in invariant suite used by the `selftest` subcommand.

Each check recomputes a mathematical identity two independent ways and
compares exactly.  The suite is sized to finish well under a minute.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from .gf2 import Echelon, mat_mul
from .partitions import (
    Partition,
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
from .tabloids import (
    boundary_map,
    hom_solution_space,
    rho_matrix,
)


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
    """Relations-engine Rel dim == materialized Rel dim; 1 <= End <= Rel."""
    for lam in all_partitions(max_r):
        rel = solve_relevance(relevance_system(lam))
        mat_dim, _ = hom_solution_space(lam, adjacent=False)
        if rel.dim != mat_dim:
            raise AssertionError(
                f"oracle equivalence failed for {lam.parts}: {rel.dim} != {mat_dim}"
            )
        end_dim, _ = hom_solution_space(lam, adjacent=True)
        if not (1 <= end_dim <= rel.dim):
            raise AssertionError(
                f"End bound failed for {lam.parts}: end={end_dim}, rel={rel.dim}"
            )


def check_composition_closed_form(max_r: int = 5) -> None:
    """rho[A] . phi-bar = sum of neighbouring rho's, and the psi mirror."""
    for lam in all_partitions(max_r):
        lam_t = transpose(lam)
        for A in enumerate_tables(lam_t, lam):
            R = rho_matrix(A)
            for i in range(1, lam_t.length + 1):
                for j in range(i + 1, lam_t.length + 1):
                    lhs = mat_mul(R, boundary_map(lam_t, "phi", i, j, 1))
                    acc = [0] * lhs.nrows
                    for l in range(1, len(A[0]) + 1):
                        if A[j - 1][l - 1] == 0 or (A[i - 1][l - 1] + 1) % 2 == 0:
                            continue
                        T = [list(row) for row in A]
                        T[i - 1][l - 1] += 1
                        T[j - 1][l - 1] -= 1
                        term = rho_matrix(tuple(map(tuple, T)))
                        acc = [x ^ y for x, y in zip(acc, term.rows)]
                    if list(lhs.rows) != acc:
                        raise AssertionError(
                            f"phi composition failed for {lam.parts}, A={A}, ({i},{j})"
                        )
            for i in range(1, lam.length + 1):
                for j in range(i + 1, lam.length + 1):
                    lhs = mat_mul(boundary_map(lam, "psi", i, j, 1), R)
                    acc = [0] * lhs.nrows
                    for k in range(1, len(A) + 1):
                        if A[k - 1][j - 1] == 0 or (A[k - 1][i - 1] + 1) % 2 == 0:
                            continue
                        T = [list(row) for row in A]
                        T[k - 1][i - 1] += 1
                        T[k - 1][j - 1] -= 1
                        term = rho_matrix(tuple(map(tuple, T)))
                        acc = [x ^ y for x, y in zip(acc, term.rows)]
                    if list(lhs.rows) != acc:
                        raise AssertionError(
                            f"psi composition failed for {lam.parts}, A={A}, ({i},{j})"
                        )


def check_eta_duality(max_r: int = 5) -> None:
    """dim Rel(lam) == dim Rel(lam'), with transpose_hom an isomorphism."""
    for lam in all_partitions(max_r):
        lam_t = transpose(lam)
        sys_a = relevance_system(lam)
        sys_b = relevance_system(lam_t)
        ra, rb = solve_relevance(sys_a), solve_relevance(sys_b)
        if ra.dim != rb.dim:
            raise AssertionError(f"duality dim mismatch for {lam.parts}")
        for v in ra.basis:
            w = transpose_hom(v, sys_a.tables, sys_b.tables)
            for r in sys_b.row_ints():
                if (r & w).bit_count() & 1:
                    raise AssertionError(
                        f"transposed solution violates a relation for {lam.parts}"
                    )


def check_z_redundancy(max_r: int = 8) -> None:
    """Every flat Z row lies in the R/C row space and descends in both orders."""
    for fam in staircase_families(max_r):
        if not fam.parity_ok:
            continue
        sys = flat_relevance_system(fam)
        ech = Echelon()
        for r in sys.row_ints():
            ech.insert(r)
        index = {T: c for c, T in enumerate(sys.tables)}
        for A in sys.tables:
            for j in range(1, fam.m + 1):
                for k in range(1, fam.m + 1):
                    if A[j - 1][k - 1] == 0:
                        continue
                    zrow = build_Z_row(A, j, k)
                    acc = 0
                    for T in zrow:
                        acc |= 1 << index[T]
                    if not ech.contains(acc):
                        raise AssertionError(
                            f"Z row not in R/C row space for family "
                            f"({fam.a},{fam.m},{fam.b}), A={A}, ({j},{k})"
                        )
                    for T in zrow:
                        if T == A:
                            continue
                        if not (
                            order_compare(T, A, "row") < 0
                            and order_compare(T, A, "col") < 0
                        ):
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
