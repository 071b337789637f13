"""Three finitely presented countable posets with a decidable order.

``n2``
    a least element, two parallel chains of nodes indexed by level, and a
    single point ``omega`` above both chains.
``t``
    a least and a greatest element with node levels in between, where every
    node sits below every node of any strictly higher level (consecutive
    levels form complete bipartite steps).
``nsum``
    two chains of nodes capped by ``omega0`` and ``omega1``, joined only at a
    shared least element.

Elements are small code tuples with a string syntax used by the CLI: ``bot``,
``top``, ``omega``, ``omega0``, ``omega1``, and ``n:J:LEVEL`` for the node on
branch J at the given level. Alongside the orders, this module ships the
standard quasi-deflation families on ``n2`` and ``t``, witness indices showing
the families separate points, finite truncations (with embedding/projection
pairs where such a projection exists), and the branch-swapping maps on
truncations of ``t`` together with their rigidity predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from .posets import MonotoneMap, Poset, PosetError

Code = Tuple
BOT: Code = ("bot",)
TOP: Code = ("top",)
OMEGA: Code = ("omega",)

KINDS = ("n2", "t", "nsum")


def node(j: int, level: int) -> Code:
    return ("n", j, level)


def omega_side(j: int) -> Code:
    return ("omegaside", j)


def format_code(code: Code) -> str:
    tag = code[0]
    if tag == "n":
        return f"n:{code[1]}:{code[2]}"
    if tag == "omegaside":
        return f"omega{code[1]}"
    return tag


def parse_code(text: str) -> Code:
    """Parse the CLI element syntax into a code tuple."""
    text = text.strip()
    if text in ("bot", "top", "omega"):
        return (text,)
    if text in ("omega0", "omega1"):
        return ("omegaside", int(text[-1]))
    if text.startswith("n:"):
        parts = text.split(":")
        if len(parts) == 3:
            try:
                j, level = int(parts[1]), int(parts[2])
            except ValueError:
                raise PosetError(f"malformed element {text!r}") from None
            # only the spelling format_code writes: no sign, padding or underscore
            if j in (0, 1) and level >= 0 and parts[1:] == [str(j), str(level)]:
                return ("n", j, level)
    raise PosetError(
        f"malformed element {text!r}: expected bot, top, omega, omega0, "
        "omega1, or n:J:LEVEL"
    )


class LazyPoset:
    """One of the three countable posets, addressed by its kind tag.

    Each code has a rank ``(branches, (tier, level))``, ``branches`` a mask
    with bit j for branch j: bottom is on no branch at ``(0, 0)``, below
    every level; the node on branch j at level m is on branch j at
    ``(1, m)``; a cap is on the branches it caps at ``(2, 0)``, above every
    level. The order is one rule on the ranks: in ``t`` x <= y iff x == y
    or x's ``(tier, level)`` is below y's; in ``n2`` and ``nsum`` iff x's
    ``(tier, level)`` is at most y's and x's branches lie inside y's.
    """

    __slots__ = ("kind", "_ranks")

    # the elements above every node level, per kind, with the branches each caps
    _CAPS = {"n2": {OMEGA: 3}, "t": {TOP: 3}, "nsum": {omega_side(0): 1, omega_side(1): 2}}

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise PosetError(f"unknown kind {kind!r}, expected one of {KINDS}")
        self.kind = kind
        # the ranks of the codes that are not nodes
        self._ranks = {BOT: (0, (0, 0)), **{c: (b, (2, 0)) for c, b in self._CAPS[kind].items()}}

    def __repr__(self) -> str:
        return f"LazyPoset({self.kind!r})"

    def _rank(self, code: Code) -> tuple:
        """The rank of ``code``; PosetError if it is no element of this kind.

        A node's level and branch, and the branch of ``omega0`` and
        ``omega1``, must be an ``int`` itself, not a bool or a float equal to
        one, so that :func:`format_code` writes what :func:`parse_code`
        reads back.
        """
        if isinstance(code, tuple) and len(code) == 3 and code[0] == "n" and code[1] in (0, 1):
            if type(code[1]) is type(code[2]) is int and code[2] >= 0:
                return 2 if code[1] else 1, (1, code[2])
        # at most three codes; == does not raise on an unhashable code, as a lookup would
        for key, rank in self._ranks.items():
            if code == key and type(code[-1]) is type(key[-1]):
                return rank
        raise PosetError(f"invalid element {code!r} for kind {self.kind!r}")

    def validate(self, code: Code) -> Code:
        self._rank(code)
        return code

    def leq(self, x: Code, y: Code) -> bool:
        bx, hx = self._rank(x)
        by, hy = self._rank(y)
        if self.kind == "t":
            return x == y or hx < hy
        return hx <= hy and not bx & ~by

    def in_up(self, members, y: Code) -> bool:
        """Is y in the upper set spanned by the given elements?"""
        return any(self.leq(m, y) for m in members)

    def smyth_leq(self, E, F) -> bool:
        """Upper-set containment: the span of E contains the span of F."""
        return all(self.in_up(E, f) for f in F)


N2 = LazyPoset("n2")
T = LazyPoset("t")
NSUM = LazyPoset("nsum")


def _level(code: Code) -> int:
    return code[2] if code[0] == "n" else 0


@dataclass(frozen=True)
class LazyFamily:
    """One member of a quasi-deflation family, applied to codes.

    Calling it returns the antichain of minimal elements of the image
    filter, as a tuple of codes.
    """

    poset: LazyPoset
    index: Tuple[int, ...]

    def __call__(self, x: Code) -> Tuple[Code, ...]:
        self.poset.validate(x)
        if x[0] == "bot":
            return (BOT,)
        if self.poset.kind == "n2":
            i, j = self.index
            if x[0] == "omega":
                return (node(0, i), node(1, j))
            if x[1] == 0:
                return (node(0, min(x[2], i)), node(1, j))
            return (node(0, i), node(1, min(x[2], j)))
        (i,) = self.index
        if x[0] == "n" and x[2] < i:
            return (x,)
        return (node(0, i), node(1, i))


def n2_family(i: int, j: int) -> LazyFamily:
    """The map collapsing branch 0 above level i and branch 1 above level j.

    Each index must be an ``int`` itself, not a bool or a float, as a
    node's level must be (see :meth:`LazyPoset._rank`)."""
    if not all(type(n) is int and n >= 0 for n in (i, j)):
        raise PosetError("family indices must be naturals")
    return LazyFamily(N2, (i, j))


def t_family(i: int) -> LazyFamily:
    """The map fixing nodes below level i and collapsing the rest to level i.

    The index must be an ``int`` itself, not a bool or a float, as a node's
    level must be (see :meth:`LazyPoset._rank`)."""
    if type(i) is not int or i < 0:
        raise PosetError("family index must be a natural")
    return LazyFamily(T, (i,))


def family_witness(
    L: LazyPoset, x: Code, y: Code
) -> Union[int, Tuple[int, int]]:
    """An index whose family member separates x from y.

    Requires that x is not below y; the returned index ι then satisfies
    y ∉ ↑φ_ι(x), so the intersection of the image filters over the whole
    family is exactly the filter of x. The choice is deterministic: one more
    than the largest node level occurring in x or y (non-node codes count
    as level 0). Returns an (i, j) pair for ``n2`` and a single integer for
    ``t``; the two-chain poset has no attached family.
    """
    if L.kind == "nsum":
        raise PosetError("no quasi-deflation family is defined for kind 'nsum'")
    if L.leq(x, y):
        raise PosetError(
            f"no witness exists: {format_code(x)} <= {format_code(y)}"
        )
    c = max(_level(x), _level(y)) + 1
    if L.kind == "n2":
        index: Union[int, Tuple[int, int]] = (c, c)
        phi = n2_family(c, c)
    else:
        index = c
        phi = t_family(c)
    assert not L.in_up(phi(x), y)
    return index


@dataclass(frozen=True)
class Truncation:
    """A finite slice of a lazy poset.

    ``poset`` uses the string element syntax. ``embed`` maps element names
    back to codes; ``project`` (when not None) maps arbitrary codes of the
    ambient poset onto element names, satisfying project(embed(e)) = e and
    embed(project(x)) <= x.
    """

    poset: Poset
    embed: Callable[[str], Code]
    project: Optional[Callable[[Code], str]]


def truncate(L: LazyPoset, k: int) -> Truncation:
    """Cut the poset at node level k (``t``: levels 0..k-1), keeping the caps.

    The codes come layer by layer: bottom, the two nodes of each level from
    0 up, then the kind's caps. In all three kinds every relation is a chain
    of relations between adjacent layers, so ``L.leq`` is asked only from
    each element to the next layer: at most twice per element, O(k) queries
    in all. The closure derives the rest. Those relations are exactly the
    covers, so they are handed over as the diagram (see
    :meth:`~ordbench.posets.Poset._from_covers`): each climbs exactly one
    layer, so a chain of them between adjacent layers is one relation, and
    nothing lies strictly between its ends.

    ``n2`` and ``nsum`` truncations come with the level-clamping projection;
    ``t`` has no monotone projection fixing top (that is the point of the
    poset), so its truncation carries project=None and serves as a fixture
    for the branch-swap maps.
    """
    if type(k) is not int or k < 1:
        raise PosetError("truncation depth must be an integer of at least 1")
    levels = range(k) if L.kind == "t" else range(k + 1)
    layers = [(BOT,), *((node(0, m), node(1, m)) for m in levels), L._CAPS[L.kind]]
    succ: List[List[int]] = []
    start = 0
    for low, high in zip(layers, layers[1:] + [()]):
        start += len(low)
        succ += [[start + j for j, d in enumerate(high) if L.leq(c, d)] for c in low]
    names = tuple(format_code(c) for layer in layers for c in layer)
    P = Poset._from_covers(names, succ)

    def embed(name: str) -> Code:
        P.index(name)
        return parse_code(name)

    if L.kind == "t":
        return Truncation(P, embed, None)

    def project(code: Code) -> str:
        L.validate(code)
        if code[0] == "n":
            return format_code(node(code[1], min(code[2], k)))
        return format_code(code)

    return Truncation(P, embed, project)


def _swap_cells(bits) -> tuple:
    """The cells of :func:`hat_f`: for each element of the truncation of
    ``t`` at depth ``len(bits)``, in the order :func:`truncate` lists them
    (bottom, then nodes (0, m) and (1, m) at indices 2m + 1 and 2m + 2, then
    top), the index of its image. Bottom and top stay put, and node (j, m)
    goes to (j XOR bits[m], m)."""
    bits = tuple(bits)
    if not bits or any(b not in (0, 1) for b in bits):
        raise PosetError("bits must be a nonempty 0/1 sequence")
    nodes = [2 * m + 1 + (j ^ b) for m, b in enumerate(bits) for j in (0, 1)]
    return (0, *nodes, len(nodes) + 1)


def hat_f(bits) -> MonotoneMap:
    """The involution of T_k swapping branches at each level where bits is 1.

    ``bits`` is a 0/1 sequence whose length fixes the truncation depth;
    bottom and top stay put and node (j, n) goes to (j XOR bits[n], n). The
    map is built from indices (see :func:`_swap_cells`). It swaps nodes
    within a level only, and the order of ``t`` compares nodes by level, so
    it is monotone.
    """
    cells = _swap_cells(bits)
    Tk = truncate(T, len(cells) // 2 - 1).poset
    return MonotoneMap._of(Tk, Tk, cells)


def hat_f_rigidity_check(g: MonotoneMap, bits) -> bool:
    """Does g being below the swap map and nonzero at level 0 force equality?

    Evaluates the implication (g <= f̂ pointwise, g(0,0) != bot, g(1,0) != bot)
    ⇒ g = f̂ for one concrete g; the suite quantifies it over all monotone g.
    f̂ is read as its cells (see :func:`_swap_cells`), with no truncation.
    g's source and target must be T_k as :func:`truncate` lists it: its
    names, and its up masks in closed form (x <= y iff x == y or x's level
    is below y's, bottom below and top above every level), each element's
    up mask being itself and every index from the next level's first on.
    """
    cells = _swap_cells(bits)
    n = len(cells)
    names = ("bot", *(f"n:{j}:{m}" for m in range(n // 2 - 1) for j in (0, 1)), "top")
    # levels start at the odd indices (top's at n - 1), so the next level
    # above index i starts at the first odd index above i
    up = tuple(1 << i | (1 << n) - 1 >> (i + 1 | 1) << (i + 1 | 1) for i in range(n))
    if {(P.elements, tuple(P._up)) for P in (g.source, g.target)} != {(names, up)}:
        raise PosetError("g must be an endo-map of the matching truncation of T")
    # bottom is cell 0, and the level-0 nodes are cells 1 and 2
    premise = all(up[a] >> b & 1 for a, b in zip(g._cells, cells)) and g._cells[1] and g._cells[2]
    return (not premise) or g._cells == cells
