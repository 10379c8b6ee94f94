"""End-to-end acceptance checks for the staircase-hook endomorphism engine.

Each test prints one [PASS] line on success; run with `pytest -s` to see
them.  A failed assert means the corresponding claim did not reproduce.
"""
import itertools

from spechtend.errors import CapExceeded
from spechtend.gf2 import TaggedEchelon
from spechtend.partitions import (
    Composition,
    Partition,
    TabMatrix,
    enumerate_tables,
    staircase_families,
    staircase_family,
)
from spechtend.relations import relevance_system, solve_relevance
from spechtend.selftest import (
    all_partitions,
    check_composition_closed_form,
    check_eta_duality,
    check_oracle_equivalence,
    check_z_redundancy,
)
from spechtend.staircase import (
    classify_structure,
    flat_relevance_system,
    structural_lemma_audit,
    theorem_matrix,
    verify_parity_theorem,
)
from spechtend.tabloids import _apply, _x0
from spechtend.worked_examples import (
    CLASSIFIER_MATRIX,
    check_classifier,
    check_distribute_matrices,
    check_distribute_sets,
)

from oracles import (
    equivariant_hom_dim,
    partitions_of,
    specht_kernel,
    syt_count,
    tabloid_basis,
)


def _parity_families(max_r):
    return [f for f in staircase_families(max_r) if f.parity_ok]


def test_criterion_01_main_theorem_r12():
    fams = _parity_families(12)
    assert fams
    for fam in fams:
        rep = verify_parity_theorem(fam, run_oracle=False)
        assert rep.rel_dim == 1
        assert rep.support == [theorem_matrix(fam)]
    print(
        f"\n[PASS] criterion 1: flat dimension 1 with the predicted support "
        f"for all {len(fams)} parity families with r <= 12"
    )


def test_criterion_02_murphy_hooks():
    count = 0
    for a in range(2, 14):
        for b in range(1, 15 - a):
            if (a - b) % 2 != 0:
                continue
            fam = staircase_family(a, 2, b)
            res = solve_relevance(flat_relevance_system(fam))
            assert res.dim == 1
            assert res.support == {TabMatrix([[1, b], [a - 1, 0]])}
            count += 1
    print(
        f"\n[PASS] criterion 2: unique support [[1,b],[a-1,0]] for all "
        f"{count} hook families with m=2, a+b <= 14"
    )


def test_criterion_03_worked_expansion_identities():
    check_distribute_sets()
    check_distribute_matrices()
    print(
        "\n[PASS] criterion 3: the frozen expansion example for (3,1,1,1) "
        "reproduces bit-exactly, including the identities of maps at x0"
    )


def test_criterion_04_worked_classifier():
    check_classifier()
    rep = classify_structure(CLASSIFIER_MATRIX)
    assert (rep.k_A, rep.j_A, rep.w_seq[5]) == (4, 4, (7, 5))
    print("\n[PASS] criterion 4: classifier gives k_A=4, j_A=4, w^5=(7,5)")


def test_criterion_05_oracle_equivalence_r6():
    check_oracle_equivalence(6)
    n = len(all_partitions(6))
    print(
        f"\n[PASS] criterion 5: relations-engine and oracle Rel "
        f"dimensions agree, with 1 <= End <= Rel, for all {n} partitions of r <= 6"
    )


def test_criterion_06_rho_basis_claim_r6():
    pairs = 0
    for r in range(1, 7):
        parts = partitions_of(r)
        for pa, pb in itertools.product(parts, parts):
            alpha, beta = Composition(pa), Composition(pb)
            tables = enumerate_tables(alpha, beta)
            assert equivariant_hom_dim(alpha, beta) == len(tables)
            # f -> f(x0) is injective on equivariant maps out of M(alpha), so
            # the maps rho[A] are independent iff the vectors rho[A](x0) are
            index = {y: i for i, y in enumerate(tabloid_basis(beta))}
            ech = TaggedEchelon()
            for c, A in enumerate(tables):
                acc = sum(1 << index[y] for y in _apply(A, [_x0(alpha)]))
                assert ech.insert(acc, 1 << c) is None, (pa, pb, c)
            pairs += 1
    print(
        f"\n[PASS] criterion 6: equivariant dimension = |Tab| and the maps "
        f"rho[A] are independent at x0 for all {pairs} margin pairs with r <= 6"
    )


def test_criterion_07_composition_closed_form_r6():
    check_composition_closed_form(6)
    print(
        "\n[PASS] criterion 7: boundary composition closed forms hold as "
        "identities of maps at x0 for all tables with r <= 6"
    )


def test_criterion_08_specht_dimensions_r8():
    checked, skipped = 0, 0
    for r in range(1, 9):
        for parts in partitions_of(r):
            try:
                dim, _ = specht_kernel(Partition(parts))
            except CapExceeded:
                skipped += 1
                continue
            assert dim == syt_count(parts), parts
            checked += 1
    assert skipped <= 1
    print(
        f"\n[PASS] criterion 8: kernel dimension = standard tableaux count "
        f"for {checked} partitions of r <= 8 ({skipped} over the memory cap)"
    )


def test_criterion_09_duality():
    check_eta_duality(6)
    fams = _parity_families(12)
    for fam in fams:
        swapped = fam.swapped()
        assert swapped.parity_ok
        assert verify_parity_theorem(fam, run_oracle=False).ok
        assert verify_parity_theorem(swapped, run_oracle=False).ok
    print(
        f"\n[PASS] criterion 9: Rel dimensions are transpose-invariant for "
        f"r <= 6 and verification passes for all {len(fams)} swapped families"
    )


def test_criterion_10_z_redundancy_and_ordering():
    check_z_redundancy(12)
    print(
        "\n[PASS] criterion 10: every Z row lies in the R/C row space and "
        "descends in both orders, for parity families with r <= 12"
    )


def test_criterion_11_structural_audits_r12():
    fams = _parity_families(12)
    for fam in fams:
        rel = solve_relevance(flat_relevance_system(fam))
        audits = structural_lemma_audit(fam, rel.support)
        assert set(audits.values()) == {"pass"}, (fam.a, fam.m, fam.b, audits)
    print(
        f"\n[PASS] criterion 11: all five structural audits pass on the "
        f"computed support for all {len(fams)} parity families with r <= 12"
    )
