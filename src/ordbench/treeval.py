"""Path spaces and the coordinate form of valuations on trees.

The path space of a finite pointed poset collects the cover chains starting
at bottom, ordered by prefix; taking the endpoint of a path is a monotone
surjection back onto the poset. Path spaces are trees, and on a tree a
valuation is equivalent to an "admissible" assignment of filter masses:
one rational per node, 1 at the root, each node dominating the sum over its
cover children. Binary least upper bounds of admissible maps are computed
directly, children before parents, and their nonexistence is detected at the
root.

Admissible maps share one representation with valuations: integer
numerators over one denominator in lowest terms, read from given values by
the valuations' one reader and scaler (:func:`~ordbench.valuations._ratio`,
:func:`~ordbench.valuations._scaled`). One children-first fold gives the
filter masses of a valuation, the least upper bound of two maps and the
child sums that :func:`admissible_to_valuation` and
:func:`check_admissible` read, and it visits only the down-closure of the
nodes where an input is nonzero: every other node has an all-zero subtree
and gets 0, so a small support costs little on a large tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_
from typing import Callable, List, Optional, Sequence, Tuple

from .posets import (
    MonotoneMap, Poset, PosetError, _bits, _lines, _require_writable, _unreached,
)
from .valuations import Valuation, ValuationError, _checked_ints, _common, _Exact
from .valuations import _lowest_terms, _ratios, _scaled, _weight_text

PATH_CAP = 10_000


def path_space(Y: Poset) -> Tuple[Poset, MonotoneMap]:
    """Build the prefix tree of cover chains from bottom, plus the endpoint map.

    Paths are materialized as tuples of elements; the returned poset lists
    them in depth-first order (children visited in element order), so output
    is deterministic. Each element's upper covers are listed once, and a
    path's one-step extensions are exactly its covers in the tree. The
    tree is built from those lists alone by
    :meth:`~ordbench.posets.Poset._from_covers`, which closes them into the
    order and keeps them as the tree's diagram. The endpoint map is
    monotone by construction (the endpoint of a prefix lies below the
    endpoint of each extension), so it is built unchecked from the
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
        paths.append(path)
        ends.append(end)
        succ.append([])
        stack += [(path + (e,), c, here) for e, c in ups[end]]
    pi = Poset._from_covers(tuple(paths), succ)
    r = MonotoneMap._of(pi, Y, tuple(ends))
    assert pi.is_tree()
    assert not _unreached(Y, r._cells)
    return pi, r


class AdmissibleMap(_Exact):
    """Filter-mass coordinates of a valuation on a tree.

    ``values`` is aligned with the tree's element order. Use
    :func:`check_admissible` to examine a candidate without raising.

    A map holds integer numerators over one denominator D in lowest terms,
    as :class:`~ordbench.valuations.Valuation` does, and shares its equality,
    hash, entries and table reader (see :class:`~ordbench.valuations._Exact`):
    ``AdmissibleMap(tree, values)`` reads a dict or a sequence once, when
    the map is built, raising the reader's errors there. ``values``, calls
    and ``repr`` give the ``Fraction(k, D)`` of the integers, built on first
    use, and ``str`` and :func:`format_admissible` write them, so equal maps
    answer alike. Maps are immutable: ``tree`` and ``values`` are read-only.
    """

    __slots__ = ()
    _ints, _noun, _parser = staticmethod(_scaled), "values", "parse_admissible"
    tree = property(lambda self: self._poset)
    values = property(_Exact._values)

    def __repr__(self) -> str:
        return f"AdmissibleMap(tree={self._poset!r}, values={self.values!r})"

    def __call__(self, t) -> Fraction:
        return self.values[self._poset.index(t)]

    def __str__(self) -> str:
        # the text of format_admissible, without its name check
        return "\n".join([ADMISSIBLE_HEADER, *self._entries()]) + "\n"


@dataclass(frozen=True)
class AdmissibleReport:
    valid: bool
    violations: Tuple[str, ...] = ()


def _as_map(T: Poset, values) -> AdmissibleMap:
    """A map on ``T``: an :class:`AdmissibleMap` on ``T`` as it is, and any
    other table read as a map built from it."""
    if not isinstance(values, AdmissibleMap):
        return AdmissibleMap(T, values)
    if values.tree != T:
        raise ValuationError("admissible maps live on different trees")
    return values


def _tree_ints(T: Poset, *maps) -> Tuple[int, List[Sequence[int]]]:
    """``(D, ints)``: the values of ``maps`` on the tree ``T``, each read by
    :func:`_as_map`, as integers over D, the lcm of their denominators (see
    :func:`~ordbench.valuations._common`): the integers of a map held over
    D are used as they are.

    Any poset but a tree is refused, so a map built directly, not through
    :func:`admissible`, is held to its shape.
    """
    if not T.is_tree():
        raise PosetError("admissible maps live on trees")
    return _common([_as_map(T, f) for f in maps])


def _children_first(T: Poset, node: Callable[[int, int], int], *rows: Sequence[int]) -> tuple:
    """``(vals, sums)``: one value per node of a tree, children before
    parents, where ``node(i, s)`` gives the value ``vals[i]`` at index ``i``
    from the sum ``sums[i] = s`` of its children's values. With ``node(i, s)
    = x[i]`` the sums are those of ``x`` over each node's children.

    Only the nodes of Z, the down-closure of the nodes where some row of
    ``rows`` is nonzero, are visited; every other node gets 0. A node outside
    Z has only zeros in its subtree, so a fold over every node that gives 0
    from all-zero inputs gives the same values and sums: ``w + s``,
    ``max(a, b, s)`` and ``x[i]`` all do. The folds run in integers over one common denominator D (a
    valuation's own, or that of :func:`_tree_ints`); callers build the output
    Fractions over D with :func:`~ordbench.valuations._fractions`, one per
    distinct value, when ``values`` is first read.
    """
    children, down = T._cover_masks(), T._down
    Z = reduce(or_, [d for row in rows for d in compress(down, row)], 0)
    # the nodes of Z, read off its binary digits in one pass (stepping
    # through a mask bit by bit takes a pass over the mask per bit)
    digits = f"{Z:b}".encode().replace(b"0", b"\0")[::-1]
    vals, sums = [0] * len(children), [0] * len(children)
    # x < y gives down[x] a proper subset of down[y], so down[x] < down[y] as
    # integers: the largest masks come first, children before their parents;
    # a child outside Z holds 0
    for i in sorted(compress(range(len(digits)), digits), key=down.__getitem__, reverse=True):
        s, kids = 0, children[i]
        while kids:
            c = kids.bit_length() - 1
            s += vals[c]
            kids ^= 1 << c
        sums[i], vals[i] = s, node(i, s)
    return vals, sums


def _violations(T: Poset, values) -> Tuple[int, Tuple[int, ...], Tuple[str, ...]]:
    """The ``(D, ints)`` of :func:`_tree_ints` for ``values`` and the messages
    of :func:`check_admissible` for them, in the order that function lists
    them. Each number is written by :func:`~ordbench.valuations._weight_text`,
    so one too long to write is named as such."""
    D, (ints,) = _tree_ints(T, values)
    root = T.index(T.bottom())
    out = [f"value at {e!r} is {_weight_text(x, D)}, outside [0, 1]"
           for e, x in zip(T.elements, ints) if not 0 <= x <= D]
    if ints[root] != D:
        out.append(f"value at bottom {T.elements[root]!r} is {_weight_text(ints[root], D)}, not 1")
    sums = _children_first(T, lambda i, s: ints[i], ints)[1]
    out += [f"value at {e!r} is {_weight_text(x, D)}, below its children's sum {_weight_text(s, D)}"
            for e, x, s in zip(T.elements, ints, sums) if x < s]
    return D, ints, tuple(out)


def check_admissible(T: Poset, values) -> AdmissibleReport:
    """Check the two admissibility conditions and the value range.

    Conditions: the value at bottom is exactly 1, and every node's value
    dominates the sum of its cover children's values. Values outside [0, 1]
    are also reported.
    """
    violations = _violations(T, values)[2]
    return AdmissibleReport(valid=not violations, violations=violations)


def admissible(T: Poset, values) -> AdmissibleMap:
    """Construct and validate an admissible map; the values are converted
    and checked once."""
    D, ints, violations = _violations(T, values)
    if violations:
        raise ValuationError("; ".join(violations))
    return AdmissibleMap._of(T, D, ints)


def valuation_to_admissible(nu: Valuation) -> AdmissibleMap:
    """Filter masses of a valuation on a tree; bijective with its inverse.

    They are held over the valuation's own denominator, which is already in
    lowest terms for them: a factor common to D and every filter mass would
    divide every weight."""
    T = nu.poset
    if not T.is_tree():
        raise PosetError("admissible coordinates exist only on trees")
    w = nu._nums
    return AdmissibleMap._of(T, nu._den, _children_first(T, lambda i, s: w[i] + s, w)[0])


def admissible_to_valuation(f: AdmissibleMap) -> Valuation:
    """Atom weights from filter masses: node value minus children total.

    A map built directly rather than through :func:`admissible` is refused
    when its poset is not a tree (PosetError).
    """
    T = f.tree
    D, (xs,) = _tree_ints(T, f)
    sums = _children_first(T, lambda i, s: xs[i], xs)[1]
    atoms = [(i, (x - s, D)) for i, (x, s) in enumerate(zip(xs, sums)) if x != s]
    return Valuation._of(T, *_checked_ints(T, atoms))


def admissible_lub(f1: AdmissibleMap, f2: AdmissibleMap) -> Optional[AdmissibleMap]:
    """Least upper bound of two admissible maps, or None when unbounded.

    Builds the value at each node as the max of the two inputs and the sum
    over cover children, children first. If the root value stays at 1 the
    result is admissible and is the least upper bound; a root value above 1
    means the pair has no common upper bound at all, reported as None rather
    than an exception so searches can treat it as an empty result. Maps on
    different trees or on a non-tree are refused, as in
    :func:`admissible_to_valuation`.
    """
    T = f1.tree
    D, (v1, v2) = _tree_ints(T, f1, f2)
    vals = _children_first(T, lambda i, s: max(v1[i], v2[i], s), v1, v2)[0]
    if vals[T.index(T.bottom())] > D:
        return None
    return AdmissibleMap._of(T, *_lowest_terms(D, vals))


# -- serialization --------------------------------------------------------------

ADMISSIBLE_HEADER = "kind: admissible"


def format_admissible(f: AdmissibleMap) -> str:
    """Inverse of :func:`parse_admissible`; refuses names it cannot read back
    (see :func:`~ordbench.posets._require_writable`)."""
    _require_writable(f.tree.elements, "admissible", P=f.tree)
    return str(f)


def parse_admissible(T: Poset, text: str) -> AdmissibleMap:
    """Read the header plus one ``elem:p/q`` line per node; omitted nodes get 0."""
    lines = list(_lines(text))
    if not lines or lines[0][1] != ADMISSIBLE_HEADER:
        raise ValuationError(f"expected first line {ADMISSIBLE_HEADER!r}")
    entries = ((f"line {ln}: ", line) for ln, line in lines[1:])
    ratios = _ratios(T, entries, "line")
    # checked as a map held in integers, so no Fraction is built on the way in
    return admissible(T, AdmissibleMap._of(T, *_scaled(T, ratios.items())))
