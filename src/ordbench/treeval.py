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
from math import lcm
from typing import Callable, List, Optional, Tuple

from .posets import (
    MonotoneMap, Poset, PosetError, _bits, _closure, _lines, _require_writable, _unreached,
)
from .valuations import Valuation, ValuationError, _checked_ints, _fractions, _ratios

PATH_CAP = 10_000


def path_space(Y: Poset) -> Tuple[Poset, MonotoneMap]:
    """Build the prefix tree of cover chains from bottom, plus the endpoint map.

    Paths are materialized as tuples of elements; the returned poset lists
    them in depth-first order (children visited in element order), so output
    is deterministic. Each element's upper covers are listed once, and a
    path's one-step extensions are exactly its covers in the tree, so the
    tree is handed its cover masks and never walks its own diagram. The
    order itself is still built by :func:`~ordbench.posets._closure`. The
    endpoint map is monotone by construction (the endpoint of a prefix lies
    below the endpoint of each extension), so it is built unchecked from the
    end index each path was walked with; it is asserted surjective and the
    result asserted to be a tree before returning.

    Raises PosetError when there are more than ``PATH_CAP`` paths; their number
    grows exponentially on products.
    """
    bot = Y.bottom()
    if bot is None:
        raise PosetError("path space needs a pointed poset")
    # each element's upper covers, reversed so that they pop in element order
    # and the paths stay in preorder
    ups = [[(Y.elements[c], c) for c in _bits(mask)][::-1] for mask in Y._cover_masks()]
    paths: List[tuple] = []
    succ: List[List[int]] = []  # the index of each path's one-step extensions
    covers: List[int] = []  # the same indices as masks: the tree's upper covers
    ends: List[int] = []  # the index in Y of each path's endpoint
    stack = [((bot,), Y.index(bot), -1)]
    while stack:
        path, end, above = stack.pop()
        here = len(paths)
        if here == PATH_CAP:
            raise PosetError(
                f"path space exceeded the cap of {PATH_CAP} paths at length {len(path)}"
            )
        if here:
            succ[above].append(here)
            covers[above] |= 1 << here
        paths.append(path)
        ends.append(end)
        succ.append([])
        covers.append(0)
        stack += [(path + (e,), c, here) for e, c in ups[end]]
    pi = Poset._from_masks(tuple(paths), *_closure(succ), tuple(covers))
    r = MonotoneMap._of(pi, Y, tuple(ends))
    assert pi.is_tree()
    assert not _unreached(Y, r._idx)
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
        # the text of format_admissible, without its name check
        lines = [ADMISSIBLE_HEADER]
        lines += [f"{e}:{v}" for e, v in zip(self.tree.elements, self.values) if v]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AdmissibleReport:
    valid: bool
    violations: Tuple[str, ...] = ()


def _as_value_tuple(T: Poset, values) -> Tuple[Fraction, ...]:
    """The values of a map on ``T``, an :class:`AdmissibleMap` on ``T``, a
    dict keyed by nodes (missing ones get 0) or a sequence in element order,
    aligned with ``T.elements``; a map or sequence of the wrong length is
    refused."""
    if isinstance(values, AdmissibleMap):
        if values.tree != T:
            raise ValuationError("admissible maps live on different trees")
        vals = values.values
    elif isinstance(values, dict):
        vals = [Fraction(0)] * len(T.elements)
        for e, v in values.items():
            vals[T.index(e)] = Fraction(v)
        return tuple(vals)
    else:
        vals = tuple(Fraction(v) for v in values)
    if len(vals) != len(T.elements):
        raise ValuationError(f"expected {len(T.elements)} values, got {len(vals)}")
    return vals


def _tree_ints(T: Poset, *maps) -> Tuple[list, int, List[List[int]]]:
    """``(rows, D, ints)``: the values of ``maps`` on the tree ``T``, each
    read by :func:`_as_value_tuple`, and the same values as integers over D,
    the lcm of their denominators, with ``ints[r][i] == D * rows[r][i]``.

    Any poset but a tree is refused, so a map built directly, not through
    :func:`admissible`, is held to its shape.
    """
    if not T.is_tree():
        raise PosetError("admissible maps live on trees")
    rows = [_as_value_tuple(T, f) for f in maps]
    D = lcm(*[v.denominator for row in rows for v in row])
    return rows, D, [[v.numerator * (D // v.denominator) for v in row] for row in rows]


def _child_sums(T: Poset, ints: List[int]) -> List[int]:
    """For each node index, the sum of ``ints`` over its cover children."""
    return [sum([ints[c] for c in _bits(children)]) for children in T._cover_masks()]


def _children_first(T: Poset, node: Callable[[int, int], int]) -> List[int]:
    """One value per node of a tree, children before parents: ``node(i, s)``
    gives the value at index ``i`` from the sum ``s`` of its children's values.

    The folds run in integers over one common denominator D (a valuation's
    own, or that of :func:`_tree_ints`); callers build the output Fractions
    over D with :func:`~ordbench.valuations._fractions`, one per distinct value.
    """
    children = T._cover_masks()
    vals = [0] * len(children)
    # x < y gives down[x] a proper subset of down[y], so down[x] < down[y] as
    # integers: the largest masks come first, children before their parents
    for i in sorted(range(len(children)), key=T._down.__getitem__, reverse=True):
        s, kids = 0, children[i]
        while kids:
            low = kids & -kids
            s += vals[low.bit_length() - 1]
            kids ^= low
        vals[i] = node(i, s)
    return vals


def _violations(T: Poset, values) -> Tuple[Tuple[Fraction, ...], Tuple[str, ...]]:
    """The values of :func:`_tree_ints` and the messages of
    :func:`check_admissible` for them, in the order that function lists them."""
    (vals,), D, (ints,) = _tree_ints(T, values)
    root = T.index(T.bottom())
    out = [f"value at {e!r} is {v}, outside [0, 1]"
           for e, v, x in zip(T.elements, vals, ints) if not 0 <= x <= D]
    if ints[root] != D:
        out.append(f"value at bottom {T.elements[root]!r} is {vals[root]}, not 1")
    out += [f"value at {e!r} is {v}, below its children's sum {Fraction(s, D)}"
            for e, v, x, s in zip(T.elements, vals, ints, _child_sums(T, ints)) if x < s]
    return vals, tuple(out)


def check_admissible(T: Poset, values) -> AdmissibleReport:
    """Check the two admissibility conditions and the value range.

    Conditions: the value at bottom is exactly 1, and every node's value
    dominates the sum of its cover children's values. Values outside [0, 1]
    are also reported.
    """
    _, violations = _violations(T, values)
    return AdmissibleReport(valid=not violations, violations=violations)


def admissible(T: Poset, values) -> AdmissibleMap:
    """Construct and validate an admissible map; the values are converted
    and checked once."""
    vals, violations = _violations(T, values)
    if violations:
        raise ValuationError("; ".join(violations))
    return AdmissibleMap(T, vals)


def valuation_to_admissible(nu: Valuation) -> AdmissibleMap:
    """Filter masses of a valuation on a tree; bijective with its inverse."""
    T = nu.poset
    if not T.is_tree():
        raise PosetError("admissible coordinates exist only on trees")
    D, w = nu._den, nu._nums
    vals = _children_first(T, lambda i, s: w[i] + s)
    return AdmissibleMap(T, _fractions(vals, D))


def admissible_to_valuation(f: AdmissibleMap) -> Valuation:
    """Atom weights from filter masses: node value minus children total.

    A map built directly rather than through :func:`admissible` is refused
    when its poset is not a tree (PosetError) or its value count is wrong
    (ValuationError).
    """
    T = f.tree
    _, D, (xs,) = _tree_ints(T, f)
    atoms = [(i, (x - s, D)) for i, (x, s) in enumerate(zip(xs, _child_sums(T, xs)))]
    return Valuation._of(T, *_checked_ints(T, atoms))


def admissible_lub(f1: AdmissibleMap, f2: AdmissibleMap) -> Optional[AdmissibleMap]:
    """Least upper bound of two admissible maps, or None when unbounded.

    Builds the value at each node as the max of the two inputs and the sum
    over cover children, children first. If the root value stays at 1 the
    result is admissible and is the least upper bound; a root value above 1
    means the pair has no common upper bound at all, reported as None rather
    than an exception so searches can treat it as an empty result. Maps on
    different trees, on a non-tree or with the wrong value count are refused,
    as in :func:`admissible_to_valuation`.
    """
    T = f1.tree
    _, D, (v1, v2) = _tree_ints(T, f1, f2)
    vals = _children_first(T, lambda i, s: max(v1[i], v2[i], s))
    if vals[T.index(T.bottom())] > D:
        return None
    return AdmissibleMap(T, _fractions(vals, D))


# -- serialization --------------------------------------------------------------

ADMISSIBLE_HEADER = "kind: admissible"


def format_admissible(f: AdmissibleMap) -> str:
    """Inverse of :func:`parse_admissible`; refuses names it cannot read back
    (see :func:`~ordbench.posets._require_writable`)."""
    _require_writable(f.tree.elements, "admissible")
    return str(f)


def parse_admissible(T: Poset, text: str) -> AdmissibleMap:
    """Read the header plus one ``elem:p/q`` line per node; omitted nodes get 0."""
    lines = list(_lines(text))
    if not lines or lines[0][1] != ADMISSIBLE_HEADER:
        raise ValuationError(f"expected first line {ADMISSIBLE_HEADER!r}")
    entries = ((f"line {ln}: ", line) for ln, line in lines[1:])
    return admissible(T, {e: Fraction(p, q) for e, (p, q) in _ratios(T, entries, "line").items()})
