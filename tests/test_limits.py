"""The limits rule, read off the source with ``ast``: every enumeration limit
is a module constant read in exactly one function, at call time, and no
function takes a parameter that changes a limit. Read the same way: every
order is closed by one kernel, which only the poset constructors call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordbench"
READERS = {
    "FIN_CAP": "smyth._fin_masks",
    "GRID_CAP": "valuations._grid_points",
    "PATH_CAP": "treeval.path_space",
    "UPPER_MAX_ELEMENTS": "posets.Poset._upper_masks",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class Scopes(ast.NodeVisitor):
    """Each read of one of ``names`` (the limits, unless given), under the
    innermost function (or class, or module) whose body holds it; every
    function with its parameters."""

    def __init__(self, module: str, names=READERS):
        self.path = [module]
        self.names = names
        self.reads = []  # (limit, scope)
        self.params = []  # (scope, parameter names)

    def read(self, name: str) -> None:
        if name in self.names:
            self.reads.append((name, ".".join(self.path)))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.read(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.read(node.attr)
        self.generic_visit(node)

    def visit_ClassDef(self, node):
        self.within(node.name, node.body)

    def visit_function(self, node):
        # decorators and defaults run in the enclosing scope, at definition time
        for child in (*getattr(node, "decorator_list", ()), *node.args.defaults):
            self.visit(child)
        for child in node.args.kw_defaults:
            if child is not None:
                self.visit(child)
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        name = getattr(node, "name", "<lambda>")
        self.params.append((".".join([*self.path, name]), {a.arg for a in every if a}))
        body = node.body if isinstance(node.body, list) else [node.body]
        self.within(name, body)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = visit_function

    def within(self, name: str, body) -> None:
        self.path.append(name)
        for child in body:
            self.visit(child)
        self.path.pop()


def scan(names=READERS) -> Scopes:
    found = Scopes("")
    for path in sorted(SRC.glob("*.py")):
        scopes = Scopes(path.stem, names)
        scopes.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        found.reads += scopes.reads
        found.params += scopes.params
    return found


def test_each_limit_is_read_in_exactly_one_function():
    reads = scan().reads
    for limit, reader in READERS.items():
        assert {scope for name, scope in reads if name == limit} == {reader}, limit


def test_the_closure_kernel_is_named_in_posets_alone():
    """``posets._closure`` closes every order. Its only callers are the two
    constructors that close a relation: ``Poset._relate``, the body that
    ``Poset.__init__`` and ``parse_poset`` share and that only they call,
    and ``Poset._from_covers``; every other builder hands its covers to the
    second, and no other module imports or names the kernel or ``_relate``."""
    fields = ("id", "attr", "name", "asname", "arg")  # every place an identifier is written
    for kernel, callers in (
        ("_closure", ["posets.Poset._from_covers", "posets.Poset._relate"]),
        ("_relate", ["posets.Poset.__init__", "posets.parse_poset"]),
    ):
        named, calls = set(), 0
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if kernel in {getattr(node, field, None) for field in fields}:
                    named.add(path.stem)
                if isinstance(node, ast.Call) and kernel in {getattr(node.func, f, None) for f in ("id", "attr")}:
                    calls += 1
        assert named == {"posets"}, kernel
        reads = sorted(scope for _, scope in scan({kernel}).reads)
        assert reads == callers
        assert calls == len(reads), kernel


def test_no_function_takes_a_limit_parameter():
    bad = [(scope, names & {"cap", "max_elements"}) for scope, names in scan().params]
    assert [(scope, names) for scope, names in bad if names] == []
