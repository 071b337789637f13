"""The integer-kernel rule, read off the source with ``ast``: the valuation
kernels work on integer numerators alone, so none of them reads ``Fraction``
or a valuation's ``weights``, Fractions are scaled to integers in one
place at most, and the upper-set mass kernel does one add per upper set."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordbench"
KERNELS = (
    "_transport_decide", "_upper_masses", "_mass_rows", "_strict_gaps",
    "_grid_masses", "_tight", "_grid_moves",
)


def functions(module: str) -> dict:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_no_kernel_reads_fractions_or_weights():
    defined = functions("valuations")
    for name in KERNELS:
        reads = [
            getattr(node, "id", None) or node.attr
            for node in ast.walk(defined[name])
            if isinstance(node, ast.Name) and node.id == "Fraction"
            or isinstance(node, ast.Attribute) and node.attr == "weights"
        ]
        assert reads == [], name


def test_fractions_are_scaled_in_one_place_at_most():
    calls = [
        node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "_scaled_weights" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(calls) <= 1


def test_the_mass_kernel_steps_along_the_parent_table():
    # one add per upper set: no bit scan to find an element, no dict of columns
    kernel = functions("valuations")["_mass_rows"]
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(kernel)
        if isinstance(node, ast.Call)
    }
    assert called.isdisjoint({"_bits", "next", "dict"})
    assert not any(isinstance(node, (ast.Dict, ast.DictComp)) for node in ast.walk(kernel))
