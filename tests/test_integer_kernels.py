"""The integer-kernel rule, read off the source with ``ast``: the valuation
kernels work on integer numerators alone, so none of them reads ``Fraction``
or a valuation's ``weights``, a Fraction is taken apart into integers by one
reader only, a table of rationals is read in one place, rationals are
brought to one denominator in two known functions only, and the upper-set
mass kernel does one add per upper set."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordbench"
KERNELS = (
    "_transport_decide", "_mass_rows", "_trace_masses",
    "_strict_gaps", "_grid_masses", "_tight", "_grid_moves",
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


def scopes(match) -> set:
    """The qualified names (module first) of the functions and classes in
    ``src/ordbench/`` whose own code holds a node for which ``match`` holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.add(".".join(scope))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def readers(attrs: set) -> set:
    """The scopes whose own code reads an attribute named in ``attrs``."""
    return scopes(lambda node: isinstance(node, ast.Attribute) and node.attr in attrs)


def callers(name: str) -> set:
    """The scopes whose own code calls a function or method named ``name``."""
    return scopes(
        lambda node: isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_fractions_are_taken_apart_in_one_place():
    # a numerator or denominator is read off a Fraction only by the one
    # reader of given rationals; every kernel works on integers from there on
    assert readers({"numerator", "denominator"}) == {"valuations._ratio"}


def test_tables_of_rationals_are_read_in_one_place():
    # a dict or sequence of values is read by the one table reader that
    # valuations and admissible maps share; the parsers' entries by
    # _ratios; round_down_strict reads its two numbers
    assert callers("_ratio") == {
        "valuations._Exact.__init__", "valuations._ratios", "valuations.round_down_strict",
    }
    # no class built on _Exact has a reader of its own
    classes = [
        node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and "_Exact" in [getattr(base, "id", None) for base in node.bases]
    ]
    assert sorted(node.name for node in classes) == ["AdmissibleMap", "Valuation"]
    for node in classes:
        defined = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        assert "__init__" not in defined, node.name


def test_rationals_are_brought_to_one_denominator_in_two_places():
    # the one scaler reads given rationals onto one D; _common brings values
    # the library already holds over their own D to the lcm of those
    assert callers("lcm") == {"valuations._scaled", "valuations._common"}


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
