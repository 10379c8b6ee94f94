"""Frozen worked examples used by the `paper-examples` subcommand and tests.

Two checks: the distribution identities for the family (a,m,b) = (3,2,3),
and the structural classifier on a 9x9 table from the family (10,9,1).
"""
from __future__ import annotations

from typing import Dict, List

from .errors import VerificationError
from .gf2 import mat_mul
from .partitions import staircase_family
from .staircase import (
    classify_structure,
    iota_expand,
    iota_matrix,
    omega_expand,
    pi_expand,
    pi_matrix,
)
from .tabloids import rho_matrix

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


def check_distribute_matrices() -> None:
    """The expansion identities hold as materialized tabloid-matrix equations."""
    fam = staircase_family(3, 2, 3)
    pi_m = pi_matrix(fam)
    iota_m = iota_matrix(fam)
    rho_B = rho_matrix(DISTRIBUTE_B)

    lhs = mat_mul(rho_B, pi_m)
    rows = [0] * lhs.nrows
    for A in pi_expand(DISTRIBUTE_B, fam):
        rows = [x ^ y for x, y in zip(rows, rho_matrix(A).rows)]
    if list(lhs.rows) != rows:
        raise VerificationError("pi matrix identity failed")

    lhs = mat_mul(iota_m, rho_B)
    rows = [0] * lhs.nrows
    for A in iota_expand(DISTRIBUTE_B, fam):
        rows = [x ^ y for x, y in zip(rows, rho_matrix(A).rows)]
    if list(lhs.rows) != rows:
        raise VerificationError("iota matrix identity failed")

    lhs = mat_mul(iota_m, mat_mul(rho_B, pi_m))
    rows = [0] * lhs.nrows
    for A in omega_expand(DISTRIBUTE_B, fam):
        rows = [x ^ y for x, y in zip(rows, rho_matrix(A).rows)]
    if list(lhs.rows) != rows:
        raise VerificationError("composite matrix identity failed")


def check_classifier() -> Dict[str, object]:
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
    return {
        "tr_level": rep.tr_level,
        "k_A": rep.k_A,
        "j_A": rep.j_A,
        "w5": list(exp["w5"]),
    }


def run_all() -> Dict[str, str]:
    check_distribute_sets()
    check_distribute_matrices()
    check_classifier()
    return {
        "distribute_sets": "pass",
        "distribute_matrices": "pass",
        "classifier": "pass",
    }
