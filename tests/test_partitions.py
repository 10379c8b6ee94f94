import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtend.errors import CapExceeded, DegreeMismatch, InvalidParameter
from spechtend.partitions import (
    Composition,
    Partition,
    enumerate_tables,
    order_compare,
    staircase_families,
    staircase_family,
    transpose,
    unit_exchange,
)

from oracles import conjugate, count_tables_brute, enumerate_tables_reference, partitions_of


small_partitions = st.integers(1, 7).flatmap(
    lambda r: st.sampled_from(partitions_of(r))
)


def test_composition_basics():
    c = Composition((3, 0, 2, 0))
    assert c.degree == 5
    assert c.length == 3
    assert c.width == 4
    assert Composition(()).length == 0


def test_composition_rejects_negative():
    with pytest.raises(InvalidParameter):
        Composition((1, -1))


def test_shifted():
    c = Composition((3, 1, 1))
    assert c.shifted(1, 2, 1).parts == (4, 0, 1)
    with pytest.raises(InvalidParameter):
        c.shifted(1, 2, 2)


def test_partition_validation():
    with pytest.raises(InvalidParameter):
        Partition((1, 2))
    assert Partition((2, 1, 0, 0)).parts == (2, 1)


def test_transpose_fixed_point():
    assert transpose(Partition((1,))).parts == (1,)


def test_transpose_example():
    # cells per column of the diagram of (3,1,1,1)
    assert transpose(Partition((3, 1, 1, 1))).parts == (4, 1, 1)


def test_transpose_staircase_shape():
    for a, m, b in [(3, 2, 3), (5, 3, 2), (6, 4, 2)]:
        f = staircase_family(a, m, b)
        stair = tuple(range(m - 1, 1, -1))
        assert f.lam_t.parts == (f.a_prime,) + stair + (1,) * f.b_prime


@settings(max_examples=60)
@given(small_partitions)
def test_transpose_involution(parts):
    p = Partition(parts)
    assert transpose(transpose(p)) == p
    assert conjugate(parts) == transpose(p).parts


def test_staircase_family_examples():
    f = staircase_family(3, 2, 3)
    assert f.lam.parts == (3, 1, 1, 1)
    assert f.lam_t.parts == (4, 1, 1)
    assert f.alpha.parts == (4, 2)
    assert f.beta.parts == (3, 3)
    assert f.r == 6

    f = staircase_family(2, 2, 1)
    assert f.lam.parts == (2, 1)
    assert f.lam_t.parts == (2, 1)
    assert f.alpha.parts == (2, 1)
    assert f.beta.parts == (2, 1)
    assert f.r == 3

    f = staircase_family(5, 3, 2)
    assert f.lam.parts == (5, 2, 1, 1)
    assert f.lam_t.parts == (4, 2, 1, 1, 1)
    assert f.alpha.parts == (4, 2, 3)
    assert f.beta.parts == (5, 2, 2)
    assert f.r == 9


def test_staircase_family_rejects_bad_params():
    with pytest.raises(InvalidParameter):
        staircase_family(2, 3, 1)
    with pytest.raises(InvalidParameter):
        staircase_family(3, 2, 0)


def test_staircase_families_ordering():
    fams = staircase_families(9)
    keys = [(f.r, f.a, f.m, f.b) for f in fams]
    assert keys == sorted(keys)
    assert all(f.r <= 9 for f in fams)
    # complete as well as sorted: every family of each degree is listed
    small = [staircase_family(a, m, b) for a in range(2, 21) for m in range(2, min(a, 7) + 1)
             for b in range(1, 21)]
    for r in range(21):
        want = sorted((f.a, f.m, f.b) for f in small if f.r <= r)
        assert sorted((f.a, f.m, f.b) for f in staircase_families(r)) == want


def test_enumerate_tables_permutation_case():
    got = enumerate_tables(Composition((1, 1)), Composition((1, 1)))
    assert got == [((0, 1), (1, 0)), ((1, 0), (0, 1))]


def test_enumerate_tables_2x2():
    got = enumerate_tables(Composition((2, 1)), Composition((2, 1)))
    assert set(got) == {((1, 1), (1, 0)), ((2, 0), (0, 1))}


def test_enumerate_tables_count_3():
    got = enumerate_tables(Composition((4, 2)), Composition((3, 3)))
    assert len(got) == 3
    assert ((2, 2), (1, 1)) in got
    # OEIS A000681: 4 x 4 tables with every margin 2
    assert count_tables_brute((2, 2, 2, 2), (2, 2, 2, 2)) == 282


def test_enumerate_tables_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        enumerate_tables(Composition((2,)), Composition((3,)))


def test_enumerate_tables_cap():
    with pytest.raises(CapExceeded):
        enumerate_tables(Composition((2, 2, 2)), Composition((2, 2, 2)), max_tables=2)
    # a single table, whichever margin has one row (or none); a cap of 0
    # refuses it with the text of every other refusal
    for alpha, beta in (((3,), (2, 1)), ((2, 1), (3,)), ((), ())):
        assert len(enumerate_tables(alpha, beta, max_tables=1)) == 1
        with pytest.raises(CapExceeded) as exc:
            enumerate_tables(alpha, beta, max_tables=0)
        assert str(exc.value) == f"more than 0 tables for {alpha}/{beta}"


def _compositions(r, nparts):
    """Every composition of r into the given numbers of parts, zero parts allowed."""
    return [c for k in nparts for c in itertools.product(range(r + 1), repeat=k) if sum(c) == r]


def test_enumerate_tables_matches_reference():
    cases = [(a, b) for r in range(6) for a in _compositions(r, range(1, 5))
             for b in _compositions(r, range(1, 5))]
    cases += [((1,) * n, row) for n in range(9) for row in _compositions(n, range(1, 4))]
    for alpha, beta in cases:
        assert enumerate_tables(alpha, beta) == enumerate_tables_reference(alpha, beta)


def test_enumerate_tables_cap_bounds_the_work():
    # 48,620 fillings of the first row; a refusal must not list them first
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            enumerate_tables((9, 9), (1,) * 18, max_tables=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_tables_leaves_no_reference_cycle():
    # the memo is freed by reference counting, after a full and a refused call
    gc.collect()
    gc.disable()
    try:
        enumerate_tables((3, 3, 3), (3, 3, 3))
        assert gc.collect() == 0
        try:
            enumerate_tables((3, 3, 3), (3, 3, 3), max_tables=5)
        except CapExceeded:
            pass
        else:
            pytest.fail("the cap did not refuse")
        assert gc.collect() == 0
    finally:
        gc.enable()


compositions = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(Composition)


@settings(max_examples=40, deadline=None)
@given(compositions, compositions)
def test_enumerate_tables_properties(alpha, beta):
    if alpha.degree != beta.degree or alpha.degree > 8:
        return
    tabs = enumerate_tables(alpha, beta)
    seqs = [sum(A, ()) for A in tabs]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    for A in tabs:
        assert Composition(map(sum, A)) == alpha
        assert Composition(map(sum, zip(*A))) == beta
    assert len(tabs) == count_tables_brute(alpha.parts, beta.parts)
    # entrywise transposition is a bijection onto the swapped-margin set
    back = enumerate_tables(beta, alpha)
    assert {tuple(zip(*A)) for A in tabs} == set(back)


def test_unit_exchange_noop_when_l_equals_k():
    A = ((1, 2), (2, 1))
    assert unit_exchange(A, "row", 1, 2, 1, 1) == A


def test_unit_exchange_row_example():
    A = ((1, 2), (2, 1))
    assert unit_exchange(A, "row", 1, 2, 1, 2) == ((2, 1), (1, 2))


def test_unit_exchange_col_example():
    A = ((1, 3), (2, 0))
    B = unit_exchange(A, "col", 1, 2, 1, 2)
    assert B == ((2, 2), (1, 1))
    assert tuple(map(sum, B)) == (4, 2)
    assert tuple(map(sum, zip(*B))) == (3, 3)


def test_unit_exchange_inverse_and_margins():
    A = ((1, 3), (2, 0))
    B = unit_exchange(A, "row", 1, 2, 1, 2)
    assert list(map(sum, B)) == list(map(sum, A))
    assert list(map(sum, zip(*B))) == list(map(sum, zip(*A)))
    assert unit_exchange(B, "row", 1, 2, 2, 1) == A


def test_unit_exchange_rejects_negative():
    A = ((1, 0), (0, 1))
    with pytest.raises(InvalidParameter):
        unit_exchange(A, "row", 1, 2, 1, 2)


def test_order_compare_reflexive():
    A = ((1, 1), (1, 0))
    assert order_compare(A, A, "row") == 0
    assert order_compare(A, A, "col") == 0


def test_order_compare_total_order():
    tabs = enumerate_tables(Composition((3, 2, 1)), Composition((2, 2, 2)))
    for mode in ("row", "col"):
        for A in tabs:
            for B in tabs:
                cab = order_compare(A, B, mode)
                cba = order_compare(B, A, mode)
                assert cab == -cba
                assert (cab == 0) == (A == B)
        # transitivity via consistency with a comparator sort
        import functools

        ordered = sorted(
            tabs, key=functools.cmp_to_key(lambda x, y: order_compare(x, y, mode))
        )
        for i in range(len(ordered) - 1):
            assert order_compare(ordered[i], ordered[i + 1], mode) < 0


def test_order_compare_two_element_set():
    tabs = enumerate_tables(Composition((2, 1)), Composition((2, 1)))
    c = order_compare(tabs[0], tabs[1], "row")
    assert c != 0
    assert order_compare(tabs[1], tabs[0], "row") == -c
