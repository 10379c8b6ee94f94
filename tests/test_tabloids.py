import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtend import tabloids
from spechtend.errors import CapExceeded, InvalidParameter
from spechtend.gf2 import Gf2Matrix, mat_mul
from spechtend.partitions import (
    Composition,
    Partition,
    enumerate_tables,
    transpose,
    transpose_table,
)
from spechtend.selftest import closed_form_cases
from spechtend.tabloids import (
    boundary_map,
    boundary_table,
    end_dimension_oracle,
    maps_agree,
    rho_matrix,
    tabloid_dim,
)
from spechtend.worked_examples import distribute_cases

from oracles import (
    blocks,
    equivariant_hom_dim,
    gf2_apply,
    gf2_column,
    gf2_identity,
    gf2_to_dense,
    gf2_transpose,
    hom_solution_space_dense,
    maps_agree_dense,
    multinomial,
    pack_rows,
    partitions_of,
    perm_matrix,
    rho_column_reference,
    rho_matrix_reference,
    specht_kernel,
    sym_action,
    syt_count,
    tabloid_basis,
)


def test_single_tabloid():
    basis = tabloid_basis(Composition((4,)))
    assert len(basis) == 1
    assert [blocks(x) for x in basis] == [((1, 2, 3, 4),)]


def test_two_singleton_blocks():
    basis = tabloid_basis(Composition((1, 1)))
    assert [blocks(x) for x in basis] == [((1,), (2,)), ((2,), (1,))]


def test_three_tabloids():
    assert len(tabloid_basis(Composition((2, 1)))) == 3


def test_empty_block_allowed():
    basis = tabloid_basis(Composition((2, 0, 1)))
    assert len(basis) == 3
    assert all(blocks(x)[1] == () for x in basis)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_dim_is_multinomial(parts):
    alpha = Composition(parts)
    if alpha.degree > 7:
        return
    basis = tabloid_basis(alpha)
    assert len(basis) == multinomial(alpha.degree, parts) == tabloid_dim(alpha)
    # strictly ascending in the concatenated sorted blocks, so no repeats
    keys = [sum(blocks(x), ()) for x in basis]
    assert all(u < v for u, v in zip(keys, keys[1:]))
    for x in basis:
        assert tuple(len(b) for b in blocks(x)) == alpha.parts


def test_tabloid_cap():
    # M((1,) * 8) has 8! tabloids, past the budget on its own
    with pytest.raises(CapExceeded):
        rho_matrix(((1,) * 8,), max_bits=100)


def test_sym_action_identity():
    x = ((1, 3), (2,))
    assert sym_action((1, 2, 3), x) == x


def test_sym_action_swap():
    assert sym_action((2, 1), ((1,), (2,))) == ((2,), (1,))


def test_sym_action_rejects_non_permutation():
    with pytest.raises(InvalidParameter):
        sym_action((1, 1), ((1,), (2,)))


def test_sym_action_composition_law():
    rng = random.Random(11)
    basis = tabloid_basis(Composition((3, 2, 1)))
    for _ in range(30):
        g = list(range(1, 7))
        h = list(range(1, 7))
        rng.shuffle(g)
        rng.shuffle(h)
        gh = tuple(g[h[i] - 1] for i in range(6))
        for x in map(blocks, rng.sample(basis, 3)):
            assert sym_action(gh, x) == sym_action(g, sym_action(h, x))


def test_rho_diag_is_identity():
    A = ((3, 0), (0, 2))
    assert rho_matrix(A) == gf2_identity(tabloid_dim(Composition((3, 2))))


def test_rho_swap():
    A = ((0, 1), (1, 0))
    got = rho_matrix(A)
    assert gf2_to_dense(got) == [[0, 1], [1, 0]]


def test_rho_against_intersection_reference():
    A = ((2, 2), (1, 1))
    dom = tabloid_basis(Composition((4, 2)))
    cod = tabloid_basis(Composition((3, 3)))
    got = rho_matrix(A)
    for v, x in enumerate(dom):
        expect = rho_column_reference(A, x, cod)
        assert gf2_column(got, v) == expect
        assert expect.bit_count() == 12  # C(4,2)*C(2,1) distinct images


def test_rho_matches_tuple_block_reference():
    # every table with r <= 5, margins zero-padded by one part, and every
    # boundary table with r <= 6
    tables = set()
    for r in range(1, 6):
        for a in partitions_of(r):
            for b in partitions_of(r):
                for pa in (a, a + (0,)):
                    for pb in (b, b + (0,)):
                        tables.update(enumerate_tables(pa, pb))
    boundary = {
        boundary_table(lam, kind, i, j, s)
        for lam in (Partition(p) for r in range(1, 7) for p in partitions_of(r))
        for kind in ("phi", "psi")
        for i in range(1, lam.length + 1)
        for j in range(i + 1, lam.length + 1)
        for s in range(1, lam[j - 1] + 1)
    }
    assert (len(tables), len(boundary)) == (2820, 200)
    for T in sorted(tables | boundary):
        assert rho_matrix(T) == rho_matrix_reference(T), T


def test_rho_cap():
    with pytest.raises(CapExceeded):
        rho_matrix(((2, 2), (1, 1)), max_bits=10)


def test_rho_cap_refuses_before_listing_a_basis(monkeypatch):
    # each basis of M((6, 6)) has 924 tabloids and fits the budget, their
    # 924x924 product does not
    splits, calls = tabloids._splits, []

    def counting(*args):
        calls.append(args)
        return splits(*args)

    monkeypatch.setattr(tabloids, "_splits", counting)
    assert tabloid_dim(Composition((6, 6))) == 924
    with pytest.raises(CapExceeded, match="924x924 exceeds the bit budget"):
        rho_matrix(((3, 3), (3, 3)), max_bits=10_000)
    assert calls == []


def test_rho_equivariance():
    # rho[A] commutes with the generator permutation matrices
    pairs = [((2, 1), (2, 1)), ((4, 2), (3, 3)), ((2, 2, 1), (3, 1, 1))]
    gens = lambda r: [(2, 1) + tuple(range(3, r + 1)), tuple(range(2, r + 1)) + (1,)]
    for pa, pb in pairs:
        alpha, beta = Composition(pa), Composition(pb)
        dom = tabloid_basis(alpha)
        cod = tabloid_basis(beta)
        for A in enumerate_tables(alpha, beta):
            R = rho_matrix(A)
            for g in gens(alpha.degree):
                assert mat_mul(R, perm_matrix(g, dom)) == mat_mul(
                    perm_matrix(g, cod), R
                )


def test_eta_duality_transpose_matrix():
    # the dual of rho[A] is rho of the transposed table
    for pa, pb in [((2, 1), (2, 1)), ((4, 2), (3, 3)), ((3, 1, 1), (2, 2, 1))]:
        alpha, beta = Composition(pa), Composition(pb)
        for A in enumerate_tables(alpha, beta):
            assert gf2_transpose(rho_matrix(A)) == rho_matrix(transpose_table(A))


def test_boundary_tables():
    lam = Partition((2, 1))
    assert boundary_table(lam, "phi", 1, 2, 1) == ((2, 1), (0, 0))
    assert boundary_table(lam, "psi", 1, 2, 1) == ((2, 0), (1, 0))


def test_boundary_phi_example():
    got = boundary_map(Partition((2, 1)), "phi", 1, 2, 1)
    assert got.nrows == 3 and got.ncols == 1
    assert gf2_to_dense(got) == [[1], [1], [1]]  # the all-ones column


def test_boundary_psi_example():
    got = boundary_map(Partition((2, 1)), "psi", 1, 2, 1)
    assert got.nrows == 1 and got.ncols == 3
    assert gf2_to_dense(got) == [[1, 1, 1]]


def test_psi_phi_composite_vanishes():
    lam = Partition((1, 1))
    phi = boundary_map(lam, "phi", 1, 2, 1)
    psi = boundary_map(lam, "psi", 1, 2, 1)
    assert not any(mat_mul(psi, phi).rows)  # multiplication by 2 = 0


def test_boundary_rejects_bad_indices():
    with pytest.raises(InvalidParameter):
        boundary_table(Partition((2, 1)), "phi", 2, 1, 1)
    with pytest.raises(InvalidParameter):
        boundary_table(Partition((2, 1)), "phi", 1, 2, 2)
    with pytest.raises(InvalidParameter):
        boundary_table(Partition((2, 1)), "psi", 1, 3, 1)


def test_specht_sign_module():
    for r in range(1, 7):
        assert specht_kernel(Partition((1,) * r))[0] == 1


def test_specht_small_examples():
    assert specht_kernel(Partition((2, 1)))[0] == 2
    assert specht_kernel(Partition((3, 1, 1, 1)))[0] == 10


def test_specht_matches_syt_counts_r6():
    for parts in [p for r in range(1, 7) for p in partitions_of(r)]:
        dim, basis = specht_kernel(Partition(parts))
        assert dim == syt_count(parts), parts
        assert len(basis) == dim


def test_specht_kernel_vectors_annihilated():
    lam = Partition((3, 2))
    dim, basis = specht_kernel(lam)
    for i in range(1, lam.length):
        for t in range(1, lam[i] + 1):
            psi = boundary_map(lam, "psi", i, i + 1, t)
            for v in basis:
                assert gf2_apply(psi, v) == 0


def test_specht_cap():
    with pytest.raises(CapExceeded):
        specht_kernel(Partition((2, 1)), max_bits=2)


def test_equivariant_trivial():
    for r in range(1, 6):
        assert equivariant_hom_dim(Composition((r,)), Composition((r,))) == 1


def test_equivariant_examples():
    assert equivariant_hom_dim(Composition((2, 1)), Composition((2, 1))) == 2
    assert equivariant_hom_dim(Composition((4, 2)), Composition((3, 3))) == 3


def test_end_oracle_one_row():
    for r in range(1, 6):
        assert end_dimension_oracle(Partition((r,))) == 1


def test_end_oracle_examples():
    assert end_dimension_oracle(Partition((2, 1))) == 1
    assert end_dimension_oracle(Partition((3, 1, 1, 1))) == 1


def test_end_oracle_cap_checked_before_enumerating(monkeypatch):
    # the rho budget needs only the tabloid dimensions, so a capped oracle
    # must refuse before it enumerates Tab(lam', lam)
    def no_enumeration(*args, **kwargs):
        raise AssertionError("Tab(lam', lam) enumerated before the bit-budget check")

    monkeypatch.setattr(tabloids, "enumerate_tables", no_enumeration)
    with pytest.raises(CapExceeded):
        end_dimension_oracle(Partition((3, 1, 1, 1)), max_bits=100)
    # refused by a boundary map's d(domain) * d(codomain) alone: the oracle
    # builds no rho matrix, but the budget still counts it
    for parts in ((7, 1), (2, 1, 1, 1, 1, 1, 1)):
        with pytest.raises(CapExceeded):
            end_dimension_oracle(Partition(parts), max_bits=4_000_000)


def test_end_oracle_refusal_builds_nothing():
    # (2, 1^200) has 200 boundary tables of 201 x 201 entries; a refusal by
    # tabloid dimensions must not build them, nor enumerate Tab(lam', lam)
    lam = Partition((2,) + (1,) * 200)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            end_dimension_oracle(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_end_oracle_caps_decide_as_the_dense_reference():
    # the capped Tab(lam', lam) enumeration refuses exactly where the dense
    # solve's bit count does: every budget at and just below each threshold
    def refuses(solve, lam, adjacent, max_bits):
        try:
            solve(lam, adjacent, max_bits)
        except CapExceeded:
            return True
        return False

    checked = 0
    for lam in _small_partitions(6):
        lam_t = transpose(lam)
        d_lam, d_lamt = tabloid_dim(lam), tabloid_dim(lam_t)
        for adjacent in (True, False):
            d_phi = [tabloid_dim(lam_t.shifted(*k))
                     for k in tabloids._boundary_indices(lam_t, adjacent)]
            d_psi = [tabloid_dim(lam.shifted(*k))
                     for k in tabloids._boundary_indices(lam, adjacent)]
            per_table = d_lam * sum(d_phi) + d_lamt * sum(d_psi)
            limits = {d_lam * d_lamt, per_table * len(enumerate_tables(lam_t, lam))}
            limits |= {d * d_lamt for d in d_phi} | {d * d_lam for d in d_psi}
            for bits in {b + e for b in limits for e in (-1, 0)}:
                got = refuses(tabloids.hom_solution_space, lam, adjacent, bits)
                assert got == refuses(hom_solution_space_dense, lam, adjacent, bits), (
                    lam, adjacent, bits)
                checked += got
    assert checked > 100


def test_oracle_refuses_lam_and_its_transpose_alike():
    # scan gives lam' the oracle result of lam, so the budget must refuse both
    # or neither: at and just below each refusal threshold of either side, the
    # thresholds of test_end_oracle_caps_decide_as_the_dense_reference
    def thresholds(lam, adjacent):
        lam_t = transpose(lam)
        d_lam, d_lamt = tabloid_dim(lam), tabloid_dim(lam_t)
        d_phi = [tabloid_dim(lam_t.shifted(*k))
                 for k in tabloids._boundary_indices(lam_t, adjacent)]
        d_psi = [tabloid_dim(lam.shifted(*k))
                 for k in tabloids._boundary_indices(lam, adjacent)]
        per_table = d_lam * sum(d_phi) + d_lamt * sum(d_psi)
        limits = {d_lam * d_lamt, per_table * len(enumerate_tables(lam_t, lam))}
        return limits | {d * d_lamt for d in d_phi} | {d * d_lam for d in d_psi}

    def dim(lam, adjacent, max_bits):
        try:
            return tabloids.hom_solution_space(lam, adjacent, max_bits)[0]
        except CapExceeded:
            return None

    refused = 0
    for lam in _small_partitions(6):
        lam_t = transpose(lam)
        for adjacent in (True, False):
            limits = thresholds(lam, adjacent) | thresholds(lam_t, adjacent)
            for bits in {b + e for b in limits for e in (-1, 0)}:
                got = dim(lam, adjacent, bits)
                assert got == dim(lam_t, adjacent, bits), (lam, adjacent, bits)
                refused += got is None
    assert refused > 100


def _small_partitions(max_r):
    return [Partition(p) for r in range(1, max_r + 1) for p in partitions_of(r)]


def test_hom_solution_space_matches_dense_reference():
    # the x0 evaluation gives the dense stacked solve's kernel bit for bit
    for lam in _small_partitions(6):
        for adjacent in (True, False):
            got = tabloids.hom_solution_space(lam, adjacent)
            assert got == hom_solution_space_dense(lam, adjacent), (lam, adjacent)


def test_x0_images_match_dense_products():
    # each condition's x0 image is column x0 of its dense product, as a set
    # of codomain tabloids: rho[T] . phi for phi, psi . rho[T] for psi
    def odd(A, xs):
        counts = Counter(y for x in xs for y in tabloids._image(A, x))
        return {y for y, n in counts.items() if n & 1}

    def column0(M, cod):
        return {y for y, row in zip(cod, M.rows) if row & 1}

    checked = 0
    for lam in _small_partitions(6):
        lam_t = transpose(lam)
        x0 = tabloids._x0(lam_t)
        cod_lam = tabloid_basis(lam)
        for adjacent in (True, False):
            for T in enumerate_tables(lam_t, lam):
                R = rho_matrix(T)
                for k in tabloids._boundary_indices(lam_t, adjacent):
                    mu = lam_t.shifted(*k)
                    assert tabloid_basis(mu)[0] == tabloids._x0(mu)
                    P = boundary_table(lam_t, "phi", *k)
                    got = odd(T, odd(P, [tabloids._x0(mu)]))
                    assert got == column0(mat_mul(R, rho_matrix(P)), cod_lam), (T, k)
                    checked += 1
                for k in tabloids._boundary_indices(lam, adjacent):
                    P = boundary_table(lam, "psi", *k)
                    cod = tabloid_basis(lam.shifted(*k))
                    got = odd(P, odd(T, [x0]))
                    assert got == column0(mat_mul(rho_matrix(P), R), cod), (T, k)
                    checked += 1
    assert checked == 1446


def test_maps_agree_matches_dense_comparison():
    # every closed form with r <= 5 and the three worked identities, with the
    # true terms and with the first term dropped: the x0 test gives the dense
    # comparison's answer, which is True and then False
    cases = [c[1:] for c in closed_form_cases(5)] + [c[1:] for c in distribute_cases()]
    dropped = 0
    for chain, terms, mu in cases:
        assert maps_agree(chain, terms, mu) is True
        assert maps_agree_dense(chain, terms) is True
        if terms:
            assert maps_agree(chain, terms[1:], mu) is False, (chain, terms)
            assert maps_agree_dense(chain, terms[1:]) is False, (chain, terms)
            dropped += 1
    assert (len(cases), dropped) == (215, 123)


def test_maps_agree_rejects_mismatched_margins():
    phi = boundary_table(Partition((2, 1)), "phi", 1, 2, 1)  # M((3,0)) -> M((2,1))
    with pytest.raises(InvalidParameter):
        maps_agree([phi], [], Composition((2, 1)))
    with pytest.raises(InvalidParameter):
        maps_agree([phi], [((2, 1),)], Composition((3, 0)))


def test_pack_rows_puts_each_row_in_whole_bytes():
    rng = random.Random(0)
    shapes = [(2, 0), (3, 1), (2, 8), (4, 13), (3, 70)]
    mats = [Gf2Matrix([rng.getrandbits(n) for _ in range(k)], n) for k, n in shapes]
    packed = pack_rows(mats)
    offset = 0
    for M in mats:
        width = 8 * ((M.ncols + 7) // 8)
        for row in M.rows:
            assert (packed >> offset) & ((1 << width) - 1) == row
            offset += width
    assert packed >> offset == 0
