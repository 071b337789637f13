"""Path spaces and the coordinate form of valuations on trees.

The path space of a finite pointed poset collects the cover chains starting
at bottom, ordered by prefix; taking the endpoint of a path is a monotone
surjection back onto the poset. Path spaces are trees, and on a tree a
valuation is equivalent to an "admissible" assignment of filter masses:
one rational per node, 1 at the root, each node dominating the sum over its
cover children. Binary least upper bounds of admissible maps are computed
directly, children before parents, and their nonexistence is detected at the
root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .posets import MonotoneMap, Poset, PosetError
from .valuations import Valuation, ValuationError


def path_space(Y: Poset) -> Tuple[Poset, MonotoneMap]:
    """Build the prefix tree of cover chains from bottom, plus the endpoint map.

    Paths are materialized as tuples of elements; the returned poset lists
    them in depth-first order (children visited in element order), so output
    is deterministic. The endpoint map is verified monotone and surjective
    and the result verified to be a tree before returning.
    """
    bot = Y.bottom()
    if bot is None:
        raise PosetError("path space needs a pointed poset")
    children = _cover_children(Y)
    paths: List[tuple] = []

    def walk(path: tuple) -> None:
        paths.append(path)
        for c in children[path[-1]]:
            walk(path + (c,))

    walk((bot,))
    k = len(paths)
    index = {p: i for i, p in enumerate(paths)}
    ups = []
    for p in paths:
        mask = 0
        for q, j in index.items():
            if len(q) >= len(p) and q[: len(p)] == p:
                mask |= 1 << j
        ups.append(mask)
    pi = Poset._from_up_masks(tuple(paths), tuple(ups))
    r = MonotoneMap(pi, Y, lambda p: p[-1])
    assert pi.is_tree()
    assert set(r.values) == set(Y.elements)
    return pi, r


@dataclass(frozen=True)
class AdmissibleMap:
    """Filter-mass coordinates of a valuation on a tree.

    ``values`` is aligned with the tree's element order. Use
    :func:`check_admissible` to examine a candidate without raising.
    """

    tree: Poset
    values: Tuple[Fraction, ...]

    def __call__(self, t) -> Fraction:
        return self.values[self.tree.index(t)]

    def __str__(self) -> str:
        return format_admissible(self)


@dataclass(frozen=True)
class AdmissibleReport:
    valid: bool
    violations: Tuple[str, ...] = ()


def _as_value_tuple(T: Poset, values) -> Tuple[Fraction, ...]:
    if isinstance(values, AdmissibleMap):
        return values.values
    if isinstance(values, dict):
        return tuple(Fraction(values.get(e, 0)) for e in T.elements)
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != len(T.elements):
        raise ValuationError(f"expected {len(T.elements)} values, got {len(vals)}")
    return vals


def _cover_children(T: Poset) -> Dict:
    out: Dict = {e: [] for e in T.elements}
    for a, b in T.covers():
        out[a].append(b)
    return out


def check_admissible(T: Poset, values) -> AdmissibleReport:
    """Check the two admissibility conditions and the value range.

    Conditions: the value at bottom is exactly 1, and every node's value
    dominates the sum of its cover children's values. Values outside [0, 1]
    are also reported.
    """
    if not T.is_tree():
        raise PosetError("admissible maps live on trees")
    vals = _as_value_tuple(T, values)
    bot = T.bottom()
    violations = []
    for e, v in zip(T.elements, vals):
        if not 0 <= v <= 1:
            violations.append(f"value at {e!r} is {v}, outside [0, 1]")
    if vals[T.index(bot)] != 1:
        violations.append(f"value at bottom {bot!r} is {vals[T.index(bot)]}, not 1")
    kids = _cover_children(T)
    for e in T.elements:
        child_sum = sum((vals[T.index(c)] for c in kids[e]), Fraction(0))
        if vals[T.index(e)] < child_sum:
            violations.append(
                f"value at {e!r} is {vals[T.index(e)]}, below its children's sum {child_sum}"
            )
    return AdmissibleReport(valid=not violations, violations=tuple(violations))


def admissible(T: Poset, values) -> AdmissibleMap:
    """Construct and validate an admissible map."""
    report = check_admissible(T, values)
    if not report.valid:
        raise ValuationError("; ".join(report.violations))
    return AdmissibleMap(T, _as_value_tuple(T, values))


def valuation_to_admissible(nu: Valuation) -> AdmissibleMap:
    """Filter masses of a valuation on a tree; bijective with its inverse."""
    T = nu.poset
    if not T.is_tree():
        raise PosetError("admissible coordinates exist only on trees")
    vals = tuple(nu.mass(T.up_closure([t])) for t in T.elements)
    return AdmissibleMap(T, vals)


def admissible_to_valuation(f: AdmissibleMap) -> Valuation:
    """Atom weights from filter masses: node value minus children total."""
    T = f.tree
    kids = _cover_children(T)
    weights = {}
    for e in T.elements:
        w = f(e) - sum((f(c) for c in kids[e]), Fraction(0))
        if w:
            weights[e] = w
    return Valuation(T, weights)


def admissible_lub(f1: AdmissibleMap, f2: AdmissibleMap) -> Optional[AdmissibleMap]:
    """Least upper bound of two admissible maps, or None when unbounded.

    Builds the value at each node as the max of the two inputs and the sum
    over cover children, children first. If the root value stays at 1 the
    result is admissible and is the least upper bound; a root value above 1
    means the pair has no common upper bound at all, reported as None rather
    than an exception so searches can treat it as an empty result.
    """
    if f1.tree != f2.tree:
        raise ValuationError("admissible maps live on different trees")
    T = f1.tree
    kids = _cover_children(T)
    # children-first: deeper nodes have strictly larger predecessor sets
    order = sorted(
        range(len(T.elements)),
        key=lambda i: -bin(T._down[i]).count("1"),
    )
    vals: List[Optional[Fraction]] = [None] * len(T.elements)
    for i in order:
        e = T.elements[i]
        child_sum = sum((vals[T.index(c)] for c in kids[e]), Fraction(0))
        vals[i] = max(f1.values[i], f2.values[i], child_sum)
    root = T.index(T.bottom())
    if vals[root] > 1:
        return None
    return AdmissibleMap(T, tuple(vals))


# -- serialization --------------------------------------------------------------

ADMISSIBLE_HEADER = "kind: admissible"


def format_admissible(f: AdmissibleMap) -> str:
    lines = [ADMISSIBLE_HEADER]
    for e, v in zip(f.tree.elements, f.values):
        if v:
            lines.append(f"{e}:{v}")
    return "\n".join(lines) + "\n"


def parse_admissible(T: Poset, text: str) -> AdmissibleMap:
    """Read the header plus one ``elem:p/q`` line per node; omitted nodes get 0."""
    lines = [
        ln.split("#", 1)[0].strip()
        for ln in text.splitlines()
    ]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ADMISSIBLE_HEADER:
        raise ValuationError(f"expected first line {ADMISSIBLE_HEADER!r}")
    values: Dict = {}
    for ln in lines[1:]:
        name, _, frac = ln.partition(":")
        name = name.strip()
        frac = frac.strip()
        if not name or not frac:
            raise ValuationError(f"malformed line {ln!r}, expected elem:p/q")
        if name not in T:
            raise ValuationError(f"unknown element {name!r}")
        if name in values:
            raise ValuationError(f"repeated element {name!r}")
        try:
            values[name] = Fraction(frac)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValuationError(f"bad fraction in {ln!r}: {exc}") from None
    return admissible(T, values)
