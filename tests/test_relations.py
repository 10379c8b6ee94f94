import itertools

import pytest

from spechtend import partitions
from spechtend.errors import CapExceeded, DegreeMismatch, InvalidParameter
from spechtend.gf2 import Echelon
from spechtend.limits import DEFAULT_MAX_TABLES
from spechtend.partitions import (
    Composition,
    Partition,
    TabMatrix,
    enumerate_tables,
    order_compare,
    transpose,
    transpose_table,
)
from spechtend.partitions import staircase_families, staircase_family
from spechtend.relations import (
    build_C_rows,
    build_R_rows,
    build_Z_row,
    relation_provenance,
    relation_system,
    relevance_system,
    solve_relevance,
    transpose_hom,
    z_coefficient,
)
from spechtend.staircase import flat_relevance_system
from spechtend.tabloids import hom_solution_space

from oracles import (
    corollary_C_rows,
    corollary_R_rows,
    exchange_C_rows_tuple,
    exchange_rows_tuple,
    partitions_of,
    relation_system_tuple,
    reference_relation_system,
    row_ints,
    solve_relevance_reference,
    z_coefficient_complement,
)


def as_sets(built):
    """Built rows as frozensets of tables, the form the references use."""
    return {frozenset(targets) for targets, _ in built}


def small_pairs(max_r):
    out = []
    for r in range(1, max_r + 1):
        for pa in partitions_of(r):
            for pb in partitions_of(r):
                out.append((Composition(pa), Composition(pb)))
    return out


def test_forced_row_smallest_case():
    # for lam = (2,1) the single R row forces h[[[2,0],[0,1]]] = 0
    alpha = beta = Composition((2, 1))
    rows = build_R_rows(alpha, beta, 1, 2)
    assert len(rows) == 1
    assert as_sets(rows) == {frozenset({((2, 0), (0, 1))})}
    assert relation_provenance(relation_system(alpha, beta))[0].startswith("R(1,2)")


def test_R_rows_empty_when_source_part_zero():
    assert build_R_rows(Composition((2, 0)), Composition((1, 1)), 1, 2) == []


def test_R_rows_reject_bad_indices():
    with pytest.raises(InvalidParameter):
        build_R_rows(Composition((2, 1)), Composition((2, 1)), 2, 1)


def test_R_rows_match_corollary_form():
    # the per-splitting-table rows and the per-(A,k) rows are the same sets
    for alpha, beta in small_pairs(5):
        tables = enumerate_tables(alpha, beta)
        for i in range(1, alpha.width + 1):
            for j in range(i + 1, alpha.width + 1):
                built = as_sets(build_R_rows(alpha, beta, i, j))
                assert built == corollary_R_rows(tables, i, j), (alpha, beta, i, j)


def test_C_rows_match_corollary_form():
    for alpha, beta in small_pairs(5):
        tables = enumerate_tables(alpha, beta)
        for i in range(1, beta.width + 1):
            for j in range(i + 1, beta.width + 1):
                built = as_sets(build_C_rows(alpha, beta, i, j))
                assert built == corollary_C_rows(tables, i, j), (alpha, beta, i, j)


def test_C_rows_are_transposed_R_rows():
    for alpha, beta in small_pairs(4):
        for i in range(1, beta.width + 1):
            for j in range(i + 1, beta.width + 1):
                c_rows = as_sets(build_C_rows(alpha, beta, i, j))
                r_rows = {
                    frozenset(map(transpose_table, row))
                    for row in as_sets(build_R_rows(beta, alpha, i, j))
                }
                assert c_rows == r_rows


def test_relation_system_matches_reference_builder():
    # the integer-coded engine reproduces the seed's builder exactly: table
    # order, rows and the first-occurrence provenance that the coded block
    # walk labels, hence dump-relations too
    cases = []
    for r in range(1, 8):
        for parts in partitions_of(r):
            lam = Partition(parts)
            cases.append((Composition(transpose(lam).parts), Composition(parts)))
    cases += [(fam.alpha, fam.beta) for fam in staircase_families(12)]
    for alpha, beta in cases:
        sys = relation_system(alpha, beta)
        tables, rows, provenance = reference_relation_system(alpha.parts, beta.parts)
        assert sys.tables == tables, (alpha, beta)
        assert [list(row) for row in sys.rows] == rows, (alpha, beta)
        assert relation_provenance(sys) == provenance, (alpha, beta)


def test_row_builders_honour_the_table_cap():
    # family (3,3,4): Tab(alpha, beta) has 17 tables, but the shifted
    # enumeration behind the C(2,3) rows has 18
    alpha, beta = Composition((6, 2, 1)), Composition((3, 2, 4))
    assert len(enumerate_tables(alpha, beta, max_tables=17)) == 17
    with pytest.raises(CapExceeded):
        build_C_rows(alpha, beta, 2, 3, max_tables=17)
    with pytest.raises(CapExceeded):
        relation_system(alpha, beta, max_tables=17)
    assert len(relation_system(alpha, beta, max_tables=18).tables) == 17


def test_relation_system_matches_tuple_builder():
    # the integer-coded build against the tuple-table one it replaced:
    # every staircase family with r <= 13 and every relevance system r <= 8
    cases = [(fam.alpha, fam.beta) for fam in staircase_families(13)]
    cases += [(Composition(transpose(Partition(parts)).parts), Composition(parts))
              for r in range(1, 9) for parts in partitions_of(r)]
    assert len(cases) == 178
    for alpha, beta in cases:
        sys = relation_system(alpha, beta)
        assert (sys.tables, sys.rows) == relation_system_tuple(alpha, beta), (alpha, beta)


def test_row_builders_match_tuple_builder():
    # sources, targets and their order, on margins with zero parts too
    def comps(r):
        return [c for k in (1, 2, 3) for c in itertools.product(range(r + 1), repeat=k)
                if sum(c) == r]

    for r in range(6):
        for a, b in itertools.product(comps(r), repeat=2):
            alpha, beta = Composition(a), Composition(b)
            for i, j in itertools.combinations(range(1, len(a) + 1), 2):
                assert build_R_rows(alpha, beta, i, j) == exchange_rows_tuple(a, b, i, j)
            for i, j in itertools.combinations(range(1, len(b) + 1), 2):
                assert build_C_rows(alpha, beta, i, j) == exchange_C_rows_tuple(a, b, i, j)
            sys = relation_system(alpha, beta)
            assert (sys.tables, sys.rows) == relation_system_tuple(alpha, beta), (a, b)


def assert_same_refusal(alpha, beta, max_tables):
    """relation_system and the tuple builder refuse with the same message."""
    with pytest.raises(CapExceeded) as got:
        relation_system(alpha, beta, max_tables)
    with pytest.raises(CapExceeded) as want:
        relation_system_tuple(alpha, beta, max_tables)
    assert str(got.value) == str(want.value)


def test_R_rows_honour_the_table_cap():
    # family (6,3,1): Tab(alpha, beta) has 17 tables, but the shifted
    # enumeration behind the R(2,3) rows has 18
    alpha, beta = Composition((3, 2, 4)), Composition((6, 2, 1))
    assert len(enumerate_tables(alpha, beta, max_tables=17)) == 17
    with pytest.raises(CapExceeded):
        build_R_rows(alpha, beta, 2, 3, max_tables=17)
    assert_same_refusal(alpha, beta, 17)
    assert len(relation_system(alpha, beta, max_tables=18).tables) == 17


def test_cap_counts_shifted_tables_without_odd_entries():
    # Tab((1,3), (2,2)) has 2 tables; R(1,2) enumerates the 3 tables of
    # Tab((2,2), (2,2)), and the last, ((2,0),(0,2)), has no odd entry in
    # row 1 and builds no row, yet it takes the count past a cap of 2
    alpha, beta = Composition((1, 3)), Composition((2, 2))
    assert len(build_R_rows(alpha, beta, 1, 2)) == 1
    with pytest.raises(CapExceeded):
        build_R_rows(alpha, beta, 1, 2, max_tables=2)
    with pytest.raises(CapExceeded):
        build_C_rows(beta, alpha, 1, 2, max_tables=2)
    for a, b in ((alpha, beta), (beta, alpha)):
        assert_same_refusal(a, b, 2)
        assert len(relation_system(a, b, max_tables=3).tables) == 2


def test_shifted_margins_too_deep_are_a_cap():
    # Tab((n,), (1,)*n) is one table, but the C rows enumerate n-row tables
    n = 1100
    alpha, beta = Composition((n,)), Composition((1,) * n)
    assert len(enumerate_tables(alpha, beta)) == 1
    assert_same_refusal(alpha, beta, DEFAULT_MAX_TABLES)


def test_relation_system_enumerates_tab_once(monkeypatch):
    # Tab(alpha, beta) is listed once, in codes, and the tables are decoded
    # from them; only the shifted blocks build suffix memos of their own
    alpha, beta = Composition((3, 2, 4)), Composition((6, 2, 1))
    made = []
    init = partitions.SuffixMemo.__init__

    def counted(self, *args):
        made.append(tuple(map(tuple, args[-1])))
        init(self, *args)

    monkeypatch.setattr(partitions.SuffixMemo, "__init__", counted)
    sys = relation_system(alpha, beta)
    assert made.count((alpha.parts, beta.parts)) == 1
    assert sys.tables == enumerate_tables(alpha, beta)


def test_relation_system_refuses_margins_of_unequal_degree():
    with pytest.raises(DegreeMismatch):
        relation_system(Composition((2,)), Composition((3,)))


def test_relation_system_rows_deduplicated():
    sys = relation_system(Composition((2, 2, 1)), Composition((2, 2, 1)))
    assert len(sys.rows) == len(set(sys.rows))
    assert len(relation_provenance(sys)) == len(sys.rows)
    for row in sys.rows:
        assert all(0 <= c < len(sys.tables) for c in row)


def test_trivial_system_has_full_nullspace():
    sys = relation_system(Composition((3,)), Composition((3,)))
    assert sys.rows == []
    res = solve_relevance(sys)
    assert res.dim == len(sys.tables) == 1


def test_relevance_smallest_case():
    res = solve_relevance(relevance_system(Partition((2, 1))))
    assert res.dim == 1
    assert res.support == {TabMatrix([[1, 1], [1, 0]])}


def test_relevance_hook_case():
    res = solve_relevance(relevance_system(Partition((3, 1, 1, 1))))
    assert res.dim == 1
    assert res.support == {
        TabMatrix([[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]])
    }


def test_relevance_dim_matches_materialized_r5():
    for r in range(1, 6):
        for parts in partitions_of(r):
            lam = Partition(parts)
            got = solve_relevance(relevance_system(lam)).dim
            assert got == hom_solution_space(lam, adjacent=False)[0], parts


def test_z_coefficient_examples():
    A = ((1, 3), (2, 0))
    assert z_coefficient(A, 1, 1) == (0 + 1 + 1) % 2 == 0
    assert z_coefficient(A, 2, 1) == (1 + 2 + 1) % 2 == 0
    assert z_coefficient(A, 1, 2) == (3 + 1 + 2) % 2 == 0


def test_z_coefficient_rejects_out_of_range():
    with pytest.raises(InvalidParameter):
        z_coefficient(((1,),), 1, 2)


def test_z_coefficient_complement_agrees():
    for alpha, beta in small_pairs(5):
        for A in enumerate_tables(alpha, beta):
            for j in range(1, len(A) + 1):
                for k in range(1, len(A[0]) + 1):
                    assert z_coefficient(A, j, k) == z_coefficient_complement(A, j, k)


def test_Z_row_corner_cells():
    # bottom-right corner: no exchange partners, and z vanishes here
    A = ((2, 0), (0, 1))
    assert z_coefficient(A, 2, 2) == 0
    assert build_Z_row(A, 2, 2) == frozenset()
    # a single-row table with z = 1: the row is just {A}
    B = ((2, 1),)
    assert z_coefficient(B, 1, 2) == 1
    assert build_Z_row(B, 1, 2) == frozenset({B})
    # bottom-left cell of [[1,1],[1,0]] exchanges with the odd (1,2) entry
    C = ((1, 1), (1, 0))
    assert build_Z_row(C, 2, 1) == frozenset({((2, 0), (0, 1))})
    with pytest.raises(InvalidParameter):
        build_Z_row(C, 2, 2)


def test_Z_row_targets_precede_generator():
    # every other table in a Z row is earlier in both the row and column orders
    for alpha, beta in small_pairs(5):
        for A in enumerate_tables(alpha, beta):
            for j in range(1, len(A) + 1):
                for k in range(1, len(A[0]) + 1):
                    if A[j - 1][k - 1] == 0:
                        continue
                    for B in build_Z_row(A, j, k):
                        if B == A:
                            continue
                        assert order_compare(B, A, "row") < 0
                        assert order_compare(B, A, "col") < 0


def test_Z_rows_redundant_for_small_partitions():
    # the critical relations already lie in the span of the R and C rows
    for r in range(2, 7):
        for parts in partitions_of(r):
            lam = Partition(parts)
            sys = relevance_system(lam)
            ech = Echelon()
            for row in row_ints(sys):
                ech.insert(row)
            index = {T: c for c, T in enumerate(sys.tables)}
            for A in sys.tables:
                for j in range(1, len(A) + 1):
                    for k in range(1, len(A[0]) + 1):
                        if A[j - 1][k - 1] == 0:
                            continue
                        z = build_Z_row(A, j, k)
                        bits = 0
                        for B in z:
                            bits |= 1 << index[B]
                        assert ech.reduce(bits) == 0, (parts, A, j, k)


def test_transpose_hom_involution():
    lam = Partition((3, 2, 1))
    tables = enumerate_tables(
        Composition(transpose(lam).parts), Composition(lam.parts)
    )
    tables_t = enumerate_tables(
        Composition(lam.parts), Composition(transpose(lam).parts)
    )
    for x in range(1, 1 << min(len(tables), 10)):
        y = transpose_hom(x, tables, tables_t)
        assert transpose_hom(y, tables_t, tables) == x


def test_transposed_solutions_solve_transposed_system():
    # duality: transposing each table maps one nullspace onto the other
    for parts in [(2, 1), (3, 1, 1, 1), (2, 2, 1)]:
        lam = Partition(parts)
        lam_t = transpose(lam)
        sys = relevance_system(lam)
        sys_t = relevance_system(lam_t)
        res = solve_relevance(sys)
        res_t = solve_relevance(sys_t)
        assert res.dim == res_t.dim
        ech = Echelon()
        for v in res_t.basis:
            ech.insert(v)
        for v in res.basis:
            assert ech.reduce(transpose_hom(v, sys.tables, sys_t.tables)) == 0


def test_solve_relevance_matches_echelon_reference():
    # the sparse solve against one Echelon over every row: same dimension,
    # the same basis bit for bit, the same support and the same rank
    systems = [flat_relevance_system(fam) for fam in staircase_families(13)]
    systems += [relevance_system(Partition(parts))
                for r in range(1, 9) for parts in partitions_of(r)]
    assert len(systems) == 178
    for sys in systems:
        got, want = solve_relevance(sys), solve_relevance_reference(sys)
        label = (sys.alpha.parts, sys.beta.parts)
        assert got.dim == want.dim, label
        assert got.basis == want.basis, label
        assert got.support == want.support, label
        assert got.rank == want.rank, label


def test_rank_and_nullity_fill_the_columns():
    for a, m, b in [(2, 2, 2), (3, 2, 2), (4, 3, 3), (5, 4, 2), (6, 3, 1)]:
        sys = flat_relevance_system(staircase_family(a, m, b))
        rel = solve_relevance(sys)
        assert rel.rank + rel.dim == len(sys.tables), (a, m, b)
        assert rel.residual_cols >= rel.dim
        assert rel.residual_rows <= len(sys.rows)
