"""The zero-dependency rule, read off the source with ``ast``: every import in
``src/ordbench/`` is relative, from ``__future__``, or of a standard-library
module."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordbench"


def foreign_imports(source: str) -> list:
    """The top-level names of the modules imported from outside the package
    and the standard library, in the order ``ast.walk`` meets them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [
            top for top in (name.partition(".")[0] for name in names)
            if top != "__future__" and top not in sys.stdlib_module_names
        ]
    return found


def test_the_rule_tells_foreign_imports_apart():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from fractions import Fraction\n"
        "from .posets import Poset\n"
        "from hypothesis.strategies import integers\n"
    )
    assert foreign_imports(source) == ["numpy", "hypothesis"]


def test_the_package_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert {p.name: foreign_imports(p.read_text()) for p in modules} == {
        p.name: [] for p in modules
    }
