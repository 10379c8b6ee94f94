"""Exact GF(2) computation of Specht-module endomorphism spaces.

Decides dim End(Sp(lambda)) in characteristic 2 by building and solving
relation systems on matrix-indexed homomorphism bases, with a brute-force
permutation-module oracle for cross-checking.
"""

__version__ = "0.1.0"

from .partitions import (  # noqa: F401
    Composition,
    Partition,
    StaircaseFamily,
    TabMatrix,
    enumerate_tables,
    order_compare,
    staircase_family,
    transpose,
    unit_exchange,
)
from .tabloids import end_dimension_oracle  # noqa: F401
from .relations import (  # noqa: F401
    build_Z_row,
    relevance_system,
    solve_relevance,
    transpose_hom,
    z_coefficient,
)
from .staircase import (  # noqa: F401
    classify_structure,
    flat_relevance_system,
    iota_expand,
    pi_expand,
    structural_lemma_audit,
    theorem_matrix,
    verify_parity_theorem,
)
