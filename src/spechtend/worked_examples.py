"""Frozen worked examples used by the `paper-examples` subcommand and tests.

Two checks: the distribution identities for the family (a,m,b) = (3,2,3),
and the structural classifier on a 9x9 table from the family (10,9,1).  The
identities are equations between equivariant maps out of a cyclic module, so
`maps_agree` checks each at the generating tabloid and builds no matrix.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import VerificationError
from .partitions import Composition, Table, staircase_family
from .staircase import (
    classify_structure,
    iota_expand,
    iota_table,
    omega_expand,
    pi_expand,
    pi_table,
)
from .tabloids import maps_agree

DISTRIBUTE_B = ((2, 2), (1, 1))

DISTRIBUTE_PI = [
    ((2, 2), (0, 1), (1, 0)),
    ((2, 2), (1, 0), (0, 1)),
]

DISTRIBUTE_IOTA = [
    ((2, 0, 1, 1), (1, 1, 0, 0)),
    ((2, 1, 0, 1), (1, 0, 1, 0)),
    ((2, 1, 1, 0), (1, 0, 0, 1)),
]

DISTRIBUTE_COMPOSITE = [
    ((2, 0, 1, 1), (0, 1, 0, 0), (1, 0, 0, 0)),
    ((2, 0, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
    ((2, 1, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0)),
    ((2, 1, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)),
    ((2, 1, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)),
    ((2, 1, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1)),
]

# 9x9 table in Tab((9,8,7,6,5,4,3,2,2), (10,8,7,6,5,4,3,2,1)), family (10,9,1)
CLASSIFIER_MATRIX = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 1, 2, 0, 1, 1, 1, 0),
    (1, 1, 1, 1, 1, 2, 0, 0, 0),
    (1, 1, 1, 2, 1, 0, 0, 0, 0),
    (1, 1, 1, 0, 1, 0, 1, 0, 0),
    (1, 1, 1, 0, 1, 0, 0, 0, 0),
    (1, 1, 1, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0, 0, 0, 0),
)

CLASSIFIER_EXPECTED = {"tr_level": 5, "k_A": 4, "j_A": 4, "w5": (7, 5)}


def check_distribute_sets() -> None:
    """The three expansion identities reproduce the listed matrices exactly."""
    fam = staircase_family(3, 2, 3)
    got_pi = pi_expand(DISTRIBUTE_B, fam)
    if got_pi != DISTRIBUTE_PI:
        raise VerificationError(f"pi expansion mismatch: {got_pi}")
    got_iota = iota_expand(DISTRIBUTE_B, fam)
    if got_iota != DISTRIBUTE_IOTA:
        raise VerificationError(f"iota expansion mismatch: {got_iota}")
    got_comp = omega_expand(DISTRIBUTE_B, fam)
    if got_comp != DISTRIBUTE_COMPOSITE:
        raise VerificationError(f"composite expansion mismatch: {got_comp}")


def distribute_cases() -> List[Tuple[str, List[Table], List[Table], Composition]]:
    """The three expansion identities as (name, chain, terms, mu) for
    `maps_agree`: rho[B] . pi, iota . rho[B] and iota . rho[B] . pi."""
    fam = staircase_family(3, 2, 3)
    B, pi, iota = DISTRIBUTE_B, pi_table(fam), iota_table(fam)
    return [
        ("pi", [B, pi], pi_expand(B, fam), fam.lam_t),
        ("iota", [iota, B], iota_expand(B, fam), fam.alpha),
        ("composite", [iota, B, pi], omega_expand(B, fam), fam.lam_t),
    ]


def check_distribute_matrices() -> None:
    """The expansion identities hold as maps, checked at the generating tabloid."""
    for name, chain, terms, mu in distribute_cases():
        if not maps_agree(chain, terms, mu):
            raise VerificationError(f"{name} matrix identity failed")


def check_classifier() -> None:
    """The structural classifier on the frozen 9x9 table."""
    rep = classify_structure(CLASSIFIER_MATRIX)
    exp = CLASSIFIER_EXPECTED
    if rep.tr_level != exp["tr_level"]:
        raise VerificationError(f"tr_level {rep.tr_level} != {exp['tr_level']}")
    if rep.k_A != exp["k_A"]:
        raise VerificationError(f"k_A {rep.k_A} != {exp['k_A']}")
    if rep.j_A != exp["j_A"]:
        raise VerificationError(f"j_A {rep.j_A} != {exp['j_A']}")
    if rep.w_seq is None or rep.w_seq.get(5) != exp["w5"]:
        raise VerificationError(f"w^5 {rep.w_seq} != {exp['w5']}")


def run_all() -> Dict[str, str]:
    check_distribute_sets()
    check_distribute_matrices()
    check_classifier()
    return {
        "distribute_sets": "pass",
        "distribute_matrices": "pass",
        "classifier": "pass",
    }
