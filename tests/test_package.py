"""Checks on the package's source as a whole."""
import ast
import sys
import types
from pathlib import Path

import spechtend

SRC = Path(__file__).resolve().parent.parent / "src" / "spechtend"


def test_runtime_imports_only_the_standard_library():
    # every absolute import names a standard-library module or the package
    allowed = set(sys.stdlib_module_names) | {"spechtend"}
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_public_names_are_the_export_list():
    # the names a user imports from the package; helpers that only tests or
    # the benchmark call are imported from their modules instead
    public = {name for name, value in vars(spechtend).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {
        "Composition", "Partition", "StaircaseFamily", "TabMatrix",
        "enumerate_tables", "order_compare", "staircase_family", "transpose",
        "unit_exchange",
        "end_dimension_oracle",
        "build_Z_row", "relevance_system", "solve_relevance", "transpose_hom",
        "z_coefficient",
        "classify_structure", "flat_relevance_system", "iota_expand", "pi_expand",
        "structural_lemma_audit", "theorem_matrix", "verify_parity_theorem",
    }
