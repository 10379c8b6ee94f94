import random

import pytest

from spechtend.errors import InvalidParameter
from spechtend.gf2 import (
    Echelon,
    Gf2Matrix,
    TaggedEchelon,
    mat_mul,
    sparse_nullspace,
)

from oracles import (
    gf2_apply,
    gf2_from_dense,
    gf2_identity,
    gf2_to_dense,
    gf2_transpose,
    naive_gf2_mul,
)


def random_dense(rng, n, m):
    return [[rng.randint(0, 1) for _ in range(m)] for _ in range(n)]


def test_identity_neutral():
    rng = random.Random(7)
    A = gf2_from_dense(random_dense(rng, 5, 5))
    assert mat_mul(A, gf2_identity(5)) == A
    assert mat_mul(gf2_identity(5), A) == A


def test_mat_mul_2x2():
    A = gf2_from_dense([[1, 1], [0, 1]])
    B = gf2_from_dense([[1, 0], [1, 1]])
    assert gf2_to_dense(mat_mul(A, B)) == [[0, 1], [1, 1]]


def test_mat_mul_matches_naive():
    rng = random.Random(20)
    for _ in range(5):
        a = random_dense(rng, 20, 20)
        b = random_dense(rng, 20, 20)
        got = mat_mul(gf2_from_dense(a), gf2_from_dense(b))
        assert gf2_to_dense(got) == naive_gf2_mul(a, b)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(InvalidParameter):
        mat_mul(Gf2Matrix([0, 0], 3), Gf2Matrix([0, 0], 3))


def nullspace(M):
    """The canonical kernel basis of M as bit ints, and the rank of M."""
    ech = Echelon()
    for r in M.rows:
        ech.insert(r)
    return ech.nullspace(M.ncols), ech.rank


def test_nullspace_identity_empty():
    assert nullspace(gf2_identity(5))[0] == []


def test_nullspace_forced():
    basis, _ = nullspace(gf2_from_dense([[1, 1]]))
    assert basis == [0b11]


def test_nullspace_properties_random():
    rng = random.Random(99)
    M = gf2_from_dense(random_dense(rng, 30, 40))
    basis, rank = nullspace(M)
    assert len(basis) == 40 - rank  # rank + nullity = cols
    for v in basis:
        assert gf2_apply(M, v) == 0
    ech = Echelon()
    for v in basis:
        assert ech.insert(v)  # linearly independent


def test_from_columns_transpose_roundtrip():
    rng = random.Random(3)
    M = gf2_from_dense(random_dense(rng, 6, 9))
    assert gf2_transpose(gf2_transpose(M)) == M
    assert gf2_to_dense(gf2_transpose(M)) == [list(col) for col in zip(*gf2_to_dense(M))]


def test_echelon_contains():
    ech = Echelon()
    ech.insert(0b011)
    ech.insert(0b110)
    assert ech.reduce(0b101) == 0  # the sum of the two rows
    assert ech.reduce(0b001) != 0


def test_tagged_echelon_reports_dependency():
    ech = TaggedEchelon()
    assert ech.insert(0b011, 1 << 0) is None
    assert ech.insert(0b110, 1 << 1) is None
    dep = ech.insert(0b101, 1 << 2)
    assert dep == 0b111  # v0 + v1 + v2 = 0


def test_matrix_rejects_overflow_bits():
    with pytest.raises(InvalidParameter):
        Gf2Matrix([0b100], 2)


def echelon_kernel(rows, ncols):
    ech = Echelon()
    for row in rows:
        bits = 0
        for c in row:
            bits ^= 1 << c
        ech.insert(bits)
    return ech.rank, ech.nullspace(ncols)


def test_sparse_nullspace_matches_echelon_on_random_systems():
    # rows of weight 0 to 7 with repeated columns, over ncols that leave some
    # columns untouched; heavy rows keep the residual Echelon path busy
    rng = random.Random(2024)
    residual_runs = 0
    for _ in range(1500):
        ncols = rng.randint(1, 30)
        used = rng.randint(1, ncols)
        weights = [rng.choice((0, 1, 2, 2, 3, 3, 4, 5, 7)) for _ in range(rng.randint(0, 35))]
        rows = [tuple(rng.randrange(used) for _ in range(w)) for w in weights]
        rank, basis = echelon_kernel(rows, ncols)
        got = sparse_nullspace(rows, ncols)
        assert got.basis == basis, (rows, ncols)
        assert got.rank == rank == ncols - len(basis)
        residual_runs += got.residual_rows > 0
    assert residual_runs > 200


def test_sparse_nullspace_edge_rows():
    # (0,1) merges 0 and 1, then (1,) zeroes the merged class, so (0,2,3)
    # merges 2 and 3; (4,4) cancels; (5,6,7,5) merges 6 and 7, so (6,7,8)
    # zeroes 8 and (7,8,9) merges 9 into {6,7}; column 10 is untouched
    rows = [(0, 1), (1,), (0, 2, 3), (), (4, 4), (5, 6, 7, 5), (6, 7, 8), (7, 8, 9)]
    ncols = 11
    got = sparse_nullspace(rows, ncols)
    rank, basis = echelon_kernel(rows, ncols)
    assert got.basis == basis == [0b1100, 1 << 4, 1 << 5, 0b1011000000, 1 << 10]
    assert got.rank == rank == 6
    assert (got.residual_rows, got.residual_cols) == (0, 5)
    assert sparse_nullspace([], 3).basis == [1, 2, 4]
    assert sparse_nullspace([(0, 1, 2)], 3).residual_rows == 1
    assert sparse_nullspace([], 0).basis == []


def test_sparse_nullspace_rejects_out_of_range_columns():
    for row in [(3,), (0, -1)]:
        with pytest.raises(InvalidParameter):
            sparse_nullspace([row], 3)
