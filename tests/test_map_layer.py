"""The map layer, read off the source with ``ast``: every map between finite
posets sits on one base, ``posets._Map``, which alone holds the trusted
constructor, the values, calls, equality and hash, and the ``x -> rhs`` line
format has one reader."""

import ast

from test_integer_kernels import SRC, scopes

MAPS = ("MonotoneMap", "FinMap", "QuasiDeflation")
SHARED = {"__eq__", "__hash__", "__call__", "values", "_of"}


def classes() -> dict:
    return {
        node.name: node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }


def test_map_lines_are_split_in_one_place():
    # only the one reader splits a line at its arrow
    assert scopes(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "partition"
        and any(isinstance(a, ast.Constant) and a.value == "->" for a in node.args)
    ) == {"posets._arrows"}


def test_every_map_answers_from_the_one_base():
    defined = classes()
    bases = {name: [ast.unparse(b) for b in defined[name].bases] for name in MAPS}
    assert bases == {"MonotoneMap": ["_Map"], "FinMap": ["_Map"], "QuasiDeflation": ["FinMap"]}
    assert SHARED <= {f.name for f in defined["_Map"].body if isinstance(f, ast.FunctionDef)}
    for name in MAPS:
        body = defined[name].body
        own = {f.name for f in body if isinstance(f, ast.FunctionDef)}
        own |= {t.id for a in body if isinstance(a, ast.Assign) for t in a.targets}
        assert own.isdisjoint(SHARED), name
