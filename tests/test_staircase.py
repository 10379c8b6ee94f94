import dataclasses
import itertools

import pytest

from spechtend import partitions, staircase, tabloids, worked_examples
from spechtend.errors import InternalError, InvalidParameter, ParityError, VerificationError
from spechtend.gf2 import Echelon
from spechtend.partitions import (
    enumerate_tables,
    staircase_families,
    staircase_family,
)
from spechtend.relations import relevance_system, solve_relevance
from spechtend.staircase import (
    check_family,
    classify_structure,
    flat_relevance_system,
    iota_expand,
    iota_table,
    omega_expand,
    pi_expand,
    pi_table,
    structural_lemma_audit,
    tau,
    theorem_matrix,
    verify_parity_theorem,
)

from oracles import distribute_rows_reference, multinomial, omega_lift, row_ints


def test_tau_reverses_rows():
    assert [tau(i, 4) for i in range(1, 5)] == [4, 3, 2, 1]
    assert tau(tau(2, 6), 6) == 2


def test_pi_expand_example():
    fam = staircase_family(3, 2, 3)
    got = pi_expand(((2, 2), (1, 1)), fam)
    assert got == [
        ((2, 2), (0, 1), (1, 0)),
        ((2, 2), (1, 0), (0, 1)),
    ]


def test_iota_expand_example():
    fam = staircase_family(3, 2, 3)
    got = iota_expand(((2, 2), (1, 1)), fam)
    assert len(got) == multinomial(3, (2, 1))
    for A in got:
        assert tuple(map(sum, A)) == (4, 2)
        assert tuple(map(sum, zip(*A))) == (3, 1, 1, 1)


def test_omega_expand_counts():
    fam = staircase_family(3, 2, 3)
    B = ((2, 2), (1, 1))
    got = omega_expand(B, fam)
    assert len(got) == 6
    for A in got:
        assert tuple(map(sum, A)) == fam.lam_t.parts
        assert tuple(map(sum, zip(*A))) == fam.lam.parts


def test_expand_sizes_are_multinomials():
    for fam in staircase_families(8):
        for B in enumerate_tables(fam.alpha, fam.beta):
            assert len(pi_expand(B, fam)) == multinomial(
                fam.b_prime, B[fam.m - 1]
            )
            col_m = tuple(row[fam.m - 1] for row in B)
            assert len(iota_expand(B, fam)) == multinomial(fam.b, col_m)


def test_expand_rejects_wrong_margins():
    fam = staircase_family(3, 2, 3)
    with pytest.raises(InvalidParameter):
        pi_expand(((3, 0), (0, 3)), fam)
    with pytest.raises(InvalidParameter):
        iota_expand(((4, 0), (0, 2)), fam)


def test_pi_iota_table_margins():
    # a table's row and column margins are the domain and codomain of its rho
    fam = staircase_family(3, 2, 3)
    pi, iota = pi_table(fam), iota_table(fam)
    assert (tuple(map(sum, pi)), tuple(map(sum, zip(*pi)))) == ((4, 1, 1), (4, 2))
    assert (tuple(map(sum, iota)), tuple(map(sum, zip(*iota)))) == ((3, 3), (3, 1, 1, 1))


def test_flat_dimension_matches_full_system():
    # flattening preserves the nullspace dimension, parity family or not
    for fam in staircase_families(8):
        flat = solve_relevance(flat_relevance_system(fam)).dim
        full = solve_relevance(relevance_system(fam.lam)).dim
        assert flat == full, (fam.a, fam.m, fam.b)
        if fam.parity_ok:
            assert flat == 1, (fam.a, fam.m, fam.b)


# Rel of every non-parity staircase family with r <= 14, from the flat system
NON_PARITY_REL_R14 = {
    # r = 3
    (2, 2, 1): 1,
    # r = 5
    (2, 2, 3): 1, (3, 2, 2): 2, (4, 2, 1): 1,
    # r = 6
    (3, 3, 1): 1,
    # r = 7
    (2, 2, 5): 1, (3, 2, 4): 2, (4, 2, 3): 2, (5, 2, 2): 2, (6, 2, 1): 1,
    # r = 8
    (3, 3, 3): 1, (4, 3, 2): 2, (5, 3, 1): 1,
    # r = 9
    (2, 2, 7): 1, (3, 2, 6): 2, (4, 2, 5): 2, (5, 2, 4): 3, (6, 2, 3): 2, (7, 2, 2): 2,
    (8, 2, 1): 1,
    # r = 10
    (3, 3, 5): 1, (4, 3, 4): 2, (4, 4, 1): 1, (5, 3, 3): 2, (6, 3, 2): 2, (7, 3, 1): 1,
    # r = 11
    (2, 2, 9): 1, (3, 2, 8): 2, (4, 2, 7): 2, (5, 2, 6): 3, (6, 2, 5): 3, (7, 2, 4): 3,
    (8, 2, 3): 2, (9, 2, 2): 2, (10, 2, 1): 1,
    # r = 12
    (3, 3, 7): 1, (4, 3, 6): 2, (4, 4, 3): 1, (5, 3, 5): 2, (5, 4, 2): 2, (6, 3, 4): 3,
    (6, 4, 1): 1, (7, 3, 3): 2, (8, 3, 2): 2, (9, 3, 1): 1,
    # r = 13
    (2, 2, 11): 1, (3, 2, 10): 2, (4, 2, 9): 2, (5, 2, 8): 3, (6, 2, 7): 3, (7, 2, 6): 4,
    (8, 2, 5): 3, (9, 2, 4): 3, (10, 2, 3): 2, (11, 2, 2): 2, (12, 2, 1): 1,
    # r = 14
    (3, 3, 9): 1, (4, 3, 8): 2, (4, 4, 5): 1, (5, 3, 7): 2, (5, 4, 4): 2, (6, 3, 6): 3,
    (6, 4, 3): 2, (7, 3, 5): 3, (7, 4, 2): 2, (8, 3, 4): 3, (8, 4, 1): 1, (9, 3, 3): 2,
    (10, 3, 2): 2, (11, 3, 1): 1,
}


def test_rel_pinned_for_non_parity_families_r14():
    got = {(f.a, f.m, f.b): solve_relevance(flat_relevance_system(f)).dim
           for f in staircase_families(14) if not f.parity_ok}
    assert got == NON_PARITY_REL_R14
    tally = [sum(1 for v in got.values() if v == d) for d in (1, 2, 3, 4)]
    assert tally == [25, 32, 12, 1]
    assert [k for k, v in got.items() if v == 4] == [(7, 2, 6)]


def test_omega_lift_solves_full_system():
    for fam in [staircase_family(2, 2, 1), staircase_family(3, 2, 3)]:
        flat_sys = flat_relevance_system(fam)
        flat = solve_relevance(flat_sys)
        full_sys = relevance_system(fam.lam)
        ech = Echelon()
        for row in row_ints(full_sys):
            ech.insert(row)
        for v in flat.basis:
            lifted = omega_lift(v, flat_sys, fam, full_sys.tables)
            assert lifted != 0
            for row in row_ints(full_sys):
                assert (lifted & row).bit_count() % 2 == 0


def test_theorem_matrix_examples():
    assert theorem_matrix(staircase_family(3, 2, 3)).to_lists() == [[1, 3], [2, 0]]
    assert theorem_matrix(staircase_family(4, 3, 1)).to_lists() == [
        [1, 1, 1],
        [1, 1, 0],
        [2, 0, 0],
    ]
    assert theorem_matrix(staircase_family(5, 3, 2)).to_lists() == [
        [1, 1, 2],
        [1, 1, 0],
        [3, 0, 0],
    ]


def test_classify_theorem_matrix_top_levels():
    for fam in staircase_families(12):
        rep = classify_structure(theorem_matrix(fam).entries)
        assert rep.in_TR and rep.in_TC
        if fam.m > 2:
            assert rep.tr_level == fam.m - 1
            assert rep.tc_level == fam.m - 1


def test_classify_rejects_nonsquare():
    with pytest.raises(InvalidParameter):
        classify_structure(((1, 1, 1),))


def test_classify_outside_TR():
    # nonzero bottom row past column 1 breaks TR membership
    rep = classify_structure(((1, 1, 1), (1, 1, 0), (1, 0, 1)))
    assert not rep.in_TR
    assert rep.tr_level is None
    # non-unit first column above the bottom row also breaks it
    rep = classify_structure(((0, 2, 1), (1, 1, 0), (3, 0, 0)))
    assert not rep.in_TR


def test_worked_classifier_example():
    rep = classify_structure(worked_examples.CLASSIFIER_MATRIX)
    assert rep.tr_level == 5
    assert rep.k_A == 4
    assert rep.j_A == 4
    assert rep.w_seq[5] == (7, 5)


def test_worked_examples_all_pass():
    results = worked_examples.run_all()
    assert all(v == "pass" for v in results.values())
    assert len(results) >= 3


def test_verify_smallest_parity_family():
    rep = verify_parity_theorem(staircase_family(3, 2, 1))
    assert rep.ok
    assert rep.rel_dim == 1
    assert rep.end_dim == 1
    assert rep.support == [theorem_matrix(staircase_family(3, 2, 1))]
    assert rep.support[0].to_lists() == [[1, 1], [2, 0]]
    assert set(rep.audits.values()) == {"pass"}


def test_verify_hook_family_json():
    rep = verify_parity_theorem(staircase_family(3, 2, 3))
    d = rep.to_json_dict()
    assert d["a"] == 3 and d["m"] == 2 and d["b"] == 3 and d["r"] == 6
    assert d["rel_dim"] == 1 and d["end_dim"] == 1
    assert d["support"] == [[[1, 3], [2, 0]]]
    assert set(d["audits"].values()) == {"pass"}


def test_verify_swapped_family():
    fam = staircase_family(3, 2, 3)
    swapped = fam.swapped()
    assert (swapped.a, swapped.m, swapped.b) == (4, 2, 2)
    assert verify_parity_theorem(swapped).ok


def test_verify_rejects_parity_violation():
    with pytest.raises(ParityError):
        verify_parity_theorem(staircase_family(4, 2, 1))


def test_audit_rejects_empty_support():
    fam = staircase_family(2, 2, 1)
    with pytest.raises(VerificationError):
        structural_lemma_audit(fam, set())


def test_distribute_rows_matches_permutation_reference():
    # every column-count vector with up to 7 unit rows over 1 to 3 columns
    for ncols in range(1, 4):
        for counts in itertools.product(range(5), repeat=ncols):
            nrows = sum(counts)
            if nrows > 7:
                continue
            # pi_expand appends these tables' rows to the head, then sorts
            head = (tuple(range(ncols)),)
            got = sorted(head + T for T in enumerate_tables((1,) * nrows, counts))
            assert got == sorted(distribute_rows_reference(head, counts, nrows)), counts


def test_pi_expand_long_last_row_is_immediate():
    # b' = 13: one class, which the permutation form needed 13! tuples to find
    fam = staircase_family(14, 2, 1)
    A0 = theorem_matrix(fam)
    got = pi_expand(A0.entries, fam)
    assert len(got) == 1
    assert got[0] == ((1, 1),) + ((1, 0),) * 13


def test_invariants_raise_verification_error(monkeypatch):
    # the internal invariants are explicit raises, which survive python -O
    fam = staircase_family(5, 3, 2)
    with pytest.raises(VerificationError):
        theorem_matrix(dataclasses.replace(fam, b=fam.b + 1))
    monkeypatch.setattr(partitions, "transpose", lambda lam: lam)
    with pytest.raises(VerificationError):
        staircase_family(3, 2, 3)


def test_invariants_raise_internal_error(monkeypatch):
    # a broken invariant is a bug, reported apart from a failed claim
    fam = staircase_family(5, 3, 2)
    with pytest.raises(InternalError):
        theorem_matrix(dataclasses.replace(fam, b=fam.b + 1))
    monkeypatch.setattr(tabloids, "tabloid_dim", lambda alpha: 4)
    with pytest.raises(InternalError):
        tabloids.rho_matrix(((2, 0), (0, 1)))
    monkeypatch.setattr(partitions, "transpose", lambda lam: lam)
    with pytest.raises(InternalError):
        staircase_family(3, 2, 3)


def test_check_family_judges_without_raising():
    rep = check_family(staircase_family(3, 2, 3))
    assert rep.failures() == [] and rep.ok
    # (3,2,2) breaks the parity condition and every prediction, without a raise
    rep = check_family(staircase_family(3, 2, 2))
    assert not rep.parity
    assert rep.rel_dim == 2 and rep.end_dim == 2
    assert len(rep.failures()) == 4
    assert check_family(staircase_family(3, 2, 2), max_bits=0).end_dim is None


def test_failures_are_the_one_verdict(monkeypatch):
    fam = staircase_family(3, 2, 1)
    original = staircase.solve_relevance
    monkeypatch.setattr(staircase, "solve_relevance",
                        lambda system: dataclasses.replace(original(system), dim=2))
    rep = check_family(fam)
    assert rep.failures() == ["flat relevance dimension 2 != 1 for (3,2,1)"]
    assert not rep.ok
    with pytest.raises(VerificationError, match="flat relevance dimension 2 != 1"):
        verify_parity_theorem(fam)
    # the other three predictions are judged there too
    audits = dict(rep.audits, no_bottom_right="fail")
    bad = dataclasses.replace(rep, rel_dim=1, end_dim=2, support=[], audits=audits)
    assert [f.split(" ")[0] for f in bad.failures()] == ["support", "oracle", "structural"]
