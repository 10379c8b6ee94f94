"""Checks on the package's source as a whole."""
import ast
import sys
from pathlib import Path

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
