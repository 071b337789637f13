"""Finite partial orders and their basic combinatorics.

Everything downstream (powerdomain maps, valuations, path spaces) sits on top
of the :class:`Poset` defined here. Orders are stored as per-element bitmasks
over the element list, so all the closure, cover, and comparison operations
are cheap integer arithmetic. Element iteration order is the construction
order and every derived listing (upper sets, covers, antichain enumeration)
is deterministic with respect to it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import nsmallest
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

UPPER_MAX_ELEMENTS = 20


class PosetError(ValueError):
    """Input data violates a partial-order axiom or a stated precondition."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _upper_walk(up: Sequence[int], down: Sequence[int], excluded: int = 0) -> tuple:
    """``(masks, added)``: the masks of every upper set disjoint from
    ``excluded``, increasing, and for each the element whose inclusion
    emitted it (None for the empty set).

    ``up[i]`` and ``down[i]`` are the masks of the elements above and below
    element ``i``; ``excluded`` must be down-closed. The walk decides the
    highest free index first and takes the excluded branch before the
    included one: excluding ``i`` excludes everything below it, including
    ``i`` includes everything above it. A free index has nothing included
    below it and nothing excluded above it, so both branches are live and
    every branch ends in an upper set (Birkhoff's bijection with antichains,
    walked as in Squire, "Enumerating the ideals of a poset", 1995). The two
    branches agree above ``i`` and differ at ``i``, so the masks come out in
    increasing order, one branch point per upper set. Nothing below ``i`` is
    included when it is branched on, so ``added[u]`` is minimal in
    ``masks[u]``: the mask without it is a smaller upper set, listed earlier.
    """
    masks, added = [], []
    # (mask included so far, mask of the indices still free, element added)
    stack = [(0, ((1 << len(up)) - 1) & ~excluded, None)]
    while stack:
        inc, free, x = stack.pop()
        while free:
            i = free.bit_length() - 1
            stack.append((inc | up[i], free & ~up[i], i))
            free &= ~down[i]
        masks.append(inc)
        added.append(x)
    return masks, added


def _first_repeat(names: Iterable):
    """The first name in ``names`` equal to an earlier one; there is one."""
    seen = set()
    return next(x for x in names if x in seen or seen.add(x))


def _points_forward(succ: Sequence[Sequence[int]]) -> bool:
    """True when every j in ``succ[i]`` is above i: element order is then a
    topological order of the relation. One comparison per relation."""
    for i, row in enumerate(succ):
        for j in row:
            if j < i:
                return False
    return True


def _closure(succ: Sequence[Sequence[int]]) -> Optional[Tuple[tuple, tuple]]:
    """The reflexive transitive closure of a relation given by successor lists.

    ``succ[i]`` lists indices j with i <= j (no self-loops; repeats allowed).
    The passes below need an order of the indices in which every relation
    points forward. Element order is one when every relation already points
    forward (see :func:`_points_forward`), as when each ``x < y`` declares x
    before y; otherwise Kahn's algorithm (Kahn, "Topological sorting of
    large networks", 1962) finds one. Then ``up[i]`` is i's bit OR-ed with
    ``up`` of its successors, taken in reverse order, and ``down[j]`` is j's
    bit OR-ed with ``down`` of its predecessors, pushed forward in order: one
    mask OR per element and per relation. Returns ``(up, down)``, or None
    when the relation has a cycle.
    """
    n = len(succ)
    if _points_forward(succ):
        order = range(n)
    else:
        indegree = [0] * n
        for row in succ:
            for j in row:
                indegree[j] += 1
        order = [i for i in range(n) if not indegree[i]]
        for i in order:  # grows while it is walked
            for j in succ[i]:
                indegree[j] -= 1
                if not indegree[j]:
                    order.append(j)
        if len(order) < n:
            return None
    up = [1 << i for i in range(n)]
    for i in reversed(order):
        mask = up[i]
        for j in succ[i]:
            mask |= up[j]
        up[i] = mask
    down = [1 << i for i in range(n)]
    for i in order:
        mask = down[i]
        for j in succ[i]:
            down[j] |= mask
    return tuple(up), tuple(down)


def _cycle_message(elements: tuple, succ: Sequence[Sequence[int]]) -> str:
    """Name the first element, in element order, that lies on a cycle, and the
    first other element on a cycle with it.

    Runs only on cyclic input: one iterative walk for the strongly connected
    components (Tarjan, "Depth-first search and linear graph algorithms",
    1972), O(n + relations), from an extra root n above every index. ``num``
    is an index's place on the component stack while its component is open
    and n + 1 once it is closed. The answer is the least index of a component
    with two or more members, and the next least index of that component.
    """
    n = len(succ)
    succ = [*succ, range(n)]
    num, low = [-1] * n + [0], [0] * (n + 1)
    stack, work, best = [n], [(n, iter(succ[n]))], (n, n)
    while work:
        v, edges = work[-1]
        for w in edges:
            if num[w] < 0:
                num[w] = low[w] = len(stack)
                stack.append(w)
                work.append((w, iter(succ[w])))
                break
            low[v] = min(low[v], num[w])
        else:
            work.pop()
            if low[v] < num[v]:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
                continue
            comp = stack[num[v]:]
            del stack[num[v]:]
            for w in comp:
                num[w] = n + 1
            if len(comp) > 1:
                best = min(best, tuple(nsmallest(2, comp)))
    i, j = best
    return f"cycle detected: {elements[i]!r} <= {elements[j]!r} <= {elements[i]!r}"


class Poset:
    """A finite poset over an ordered list of distinct element identifiers.

    Args:
        elements: the carrier, in the iteration order that all derived
            listings will use. Identifiers must be hashable and unique.
        relations: pairs ``(x, y)`` meaning ``x <= y``. The reflexive
            transitive closure is taken automatically; a relation cycle
            between distinct elements is rejected. Self-loops and repeated
            pairs are allowed.

    Construction costs one dict lookup per name, each pair resolved as it
    is read (:func:`parse_poset` resolves in bulk), and
    O(n + relations) mask ORs (see :func:`_closure`), with no topological
    sort when every relation ``(x, y)`` lists x before y in ``elements``:
    the order is stored as the up-set and down-set mask of each element.
    The relations are kept as successor lists until the covers are first
    asked for, and the covers are derived from them (see
    :meth:`_cover_masks`).

    Raises:
        PosetError: duplicate identifiers, unknown identifiers in a
            relation, or a cycle (antisymmetry failure after closure).
    """

    __slots__ = ("elements", "_index", "_up", "_down", "_succ",
                 "_uppers_cache", "_covers_cache", "_tree_cache")

    def __init__(self, elements: Iterable, relations: Iterable[tuple] = ()):
        elements = tuple(elements)
        index = dict(zip(elements, range(len(elements))))
        if len(index) < len(elements):
            raise PosetError(f"duplicate element: {_first_repeat(elements)!r}")
        low, high = [], []
        for x, y in relations:
            i, j = index.get(x), index.get(y)
            if i is None or j is None:
                name = x if i is None else y
                raise PosetError(f"relation mentions undeclared element: {name!r}")
            low.append(i)
            high.append(j)
        self._relate(elements, index, low, high)

    def _relate(self, elements: tuple, index: dict, low: Sequence, high: Sequence) -> "Poset":
        """Make this the order on ``elements`` generated by ``low[k] <=
        high[k]`` (indices into ``elements``), and return it: the body of
        :meth:`__init__` and of :func:`parse_poset`, which resolve the names.
        ``index`` maps each element to its position and is kept as the
        poset's own."""
        succ: List[List[int]] = [[] for _ in elements]
        for i, j in zip(low, high):
            if i != j:
                succ[i].append(j)
        masks = _closure(succ)
        if masks is None:
            raise PosetError(_cycle_message(elements, succ))
        self.elements, self._index = elements, index
        self._up, self._down, self._succ = *masks, succ
        self._uppers_cache = self._covers_cache = self._tree_cache = None
        return self

    @classmethod
    def _from_masks(cls, elements: tuple, up: tuple, down: tuple, covers=None) -> "Poset":
        """Trusted constructor for already-closed, already-checked mask tuples;
        ``down`` must be the transpose of ``up``. ``covers``, when given, must
        be the masks :meth:`_cover_masks` would derive, and is cached as is;
        without it, :meth:`_cover_masks` reads the strict up-sets as the
        relation the order was closed from."""
        self = object.__new__(cls)
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        self._up, self._down, self._covers_cache = up, down, covers
        self._succ = self._uppers_cache = self._tree_cache = None
        return self

    @classmethod
    def _from_covers(cls, elements: tuple, succ: Sequence[Sequence[int]]) -> "Poset":
        """Trusted constructor for an order given by its covering relation:
        ``succ[i]`` lists the upper covers of element ``i`` (repeats
        allowed), and the relation has no cycle. The order is its closure,
        and the covers are cached as given, each row ORed into a mask."""
        covers = [0] * len(succ)
        for i, row in enumerate(succ):
            for j in row:
                covers[i] |= 1 << j
        return cls._from_masks(elements, *_closure(succ), tuple(covers))

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self) -> int:
        return hash((self.elements, self._up))

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers())} covers)"

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise PosetError(f"unknown element: {x!r}") from None

    def leq(self, x, y) -> bool:
        """Decide ``x <= y``."""
        return bool(self._up[self.index(x)] >> self.index(y) & 1)

    def comparable(self, x, y) -> bool:
        ix, iy = self.index(x), self.index(y)
        return bool((self._up[ix] >> iy | self._up[iy] >> ix) & 1)

    def bottom(self):
        """The least element, or None if there is none."""
        full = (1 << len(self.elements)) - 1
        for i, mask in enumerate(self._up):
            if mask == full:
                return self.elements[i]
        return None

    def top(self):
        full = (1 << len(self.elements)) - 1
        for i, mask in enumerate(self._down):
            if mask == full:
                return self.elements[i]
        return None

    @property
    def is_pointed(self) -> bool:
        return self.bottom() is not None

    # -- closures and upper sets ------------------------------------------

    def _member(self, x):
        """``x`` itself, once checked to be an element."""
        self.index(x)
        return x

    def _mask_of(self, S: Iterable) -> int:
        mask = 0
        for x in S:
            mask |= 1 << self.index(x)
        return mask

    def _up_mask(self, mask: int) -> int:
        """The mask of the upward closure of the members of ``mask``."""
        up, out = self._up, 0
        for i in _bits(mask):
            out |= up[i]
        return out

    def _set_of(self, mask: int) -> frozenset:
        return frozenset(self.elements[i] for i in _bits(mask))

    def _tuple_of(self, mask: int) -> tuple:
        """The elements of ``mask``, in element order."""
        return tuple(self.elements[i] for i in _bits(mask))

    def up_closure(self, S: Iterable) -> frozenset:
        """All elements above something in ``S`` (including ``S`` itself)."""
        return self._set_of(self._up_mask(self._mask_of(S)))

    def down_closure(self, S: Iterable) -> frozenset:
        mask = 0
        for x in S:
            mask |= self._down[self.index(x)]
        return self._set_of(mask)

    def _cover_masks(self) -> tuple:
        """For each element index, the mask of its upper covers, computed once
        per poset (posets are immutable, so the tuple never goes stale).

        The covers of i are the minimal elements of its strict up-set. Let
        ``succ`` be a relation the order was closed from: its closure is
        the order, and it has no self-loops. Every element strictly above i
        is at or above a successor of i, and it is minimal in the strict
        up-set just when it lies strictly above none of them. So the covers
        of i are its successors less everything strictly above one of them
        (Aho, Garey & Ullman, "The transitive reduction of a binary
        relation", 1972): one OR per relation. A poset built from its
        relations keeps them for this, and drops them once the covers are
        made; one built from masks alone reads its strict up-sets as the
        relation, and one built by :meth:`_from_covers` never comes here.
        """
        if self._covers_cache is None:
            up = self._up
            succ = self._succ or [_bits(row ^ 1 << i) for i, row in enumerate(up)]
            out = []
            for row in succ:
                near = far = 0
                for j in row:
                    near |= 1 << j
                    far |= up[j] ^ 1 << j
                out.append(near & ~far)
            self._covers_cache, self._succ = tuple(out), None
        return self._covers_cache

    def covers(self) -> tuple:
        """The transitive reduction, as (lower, upper) pairs.

        A pair (x, y) is a cover when x < y and nothing sits strictly
        between. Pairs come out sorted by (index of x, index of y).
        """
        els = self.elements
        return tuple(
            (els[i], els[j])
            for i, covers in enumerate(self._cover_masks())
            for j in _bits(covers)
        )

    def _upper_masks(self) -> tuple:
        """The listing of :meth:`upper_sets`, made once per poset, as
        ``(masks, parent, added)``: the masks in increasing order, and for
        each upper set ``u`` after the empty one a minimal element
        ``added[u]`` and the index ``parent[u]`` of ``masks[u] ^ 1 << added[u]``
        (see :func:`_upper_walk`), so ``parent[u] < u``. This is the one place
        ``UPPER_MAX_ELEMENTS`` is read: every upper-set consumer obeys it, and
        it is checked before the cached listing is returned."""
        limit = UPPER_MAX_ELEMENTS
        n = len(self.elements)
        if n > limit:
            raise PosetError(
                f"upper-set enumeration on {n} elements may list up to 2^{n} sets, "
                f"above the limit of {limit} elements"
            )
        if self._uppers_cache is None:
            masks, added = _upper_walk(self._up, self._down)
            index = {m: u for u, m in enumerate(masks)}
            parent = [0] + [index[m ^ 1 << x] for m, x in zip(masks[1:], added[1:])]
            self._uppers_cache = masks, parent, added
        return self._uppers_cache

    def upper_sets(self) -> list:
        """Every upward-closed subset, the empty set and the carrier included.

        Listed in increasing bitmask order over element indices, which is
        deterministic for a fixed element order. Each set is built from its
        parent in the listing (see :meth:`_upper_masks`) by one union with
        the singleton of the added element, made once per element, so the
        work is one union per upper set listed, but an antichain of ``n``
        elements has ``2^n`` of them, so posets with more than
        ``UPPER_MAX_ELEMENTS`` elements are refused.
        """
        _, parent, added = self._upper_masks()
        single = [frozenset((x,)) for x in self.elements]
        sets = [frozenset()]
        for p, x in zip(parent[1:], added[1:]):
            sets.append(sets[p] | single[x])
        return sets

    # -- antichains and the Smyth preorder ---------------------------------

    def antichain_normalize(self, S: Iterable) -> tuple:
        """Canonical antichain with the same upward closure as ``S``.

        Keeps the minimal elements of ``S``, sorted by element index. The
        empty set has no upward closure worth naming here and is rejected.
        """
        return self._tuple_of(self._minimal(self._mask_of(S)))

    def _minimal(self, mask: int) -> int:
        """The mask of the minimal members of ``mask``: the canonical antichain
        with the same upward closure. An empty ``mask`` is a PosetError."""
        if not mask:
            raise PosetError("cannot normalize an empty set to an antichain")
        down, out, rest = self._down, mask, mask
        while rest:
            low = rest & -rest
            if down[low.bit_length() - 1] & mask != low:
                out ^= low
            rest ^= low
        return out

    def smyth_leq(self, E: Iterable, F: Iterable) -> bool:
        """Upper-closure containment: every member of F is above some member of E."""
        return not (self._mask_of(F) & ~self._up_mask(self._mask_of(E)))

    # -- constructions ------------------------------------------------------

    def product(self, other: "Poset") -> "Poset":
        """Componentwise order on pairs, carrier in row-major order. Its
        covers come from the factors' covers and are handed over as its
        diagram (see :meth:`_from_covers`)."""
        elements = tuple(itertools.product(self.elements, other.elements))
        m = len(other.elements)
        mine, theirs = self._cover_masks(), other._cover_masks()
        # the covers of (i, j): (a, j) for a covering i and (i, b) for b covering j
        succ = [
            [a * m + j for a in _bits(mine[i])] + [i * m + b for b in _bits(theirs[j])]
            for i in range(len(mine))
            for j in range(m)
        ]
        return Poset._from_covers(elements, succ)

    def is_tree(self) -> bool:
        """True when the strict predecessors of every element form a chain.

        Requires a least element; raises PosetError otherwise. Every element
        above bottom has a lower cover, and it has exactly one just when its
        strict predecessors form a chain, so a tree is a pointed poset with
        exactly n - 1 covers. The answer is kept once known.
        """
        if self._tree_cache is None:
            if not self.is_pointed:
                raise PosetError("is_tree needs a pointed poset")
            self._tree_cache = sum(map(int.bit_count, self._cover_masks())) == len(self.elements) - 1
        return self._tree_cache


# -- monotone maps ---------------------------------------------------------


def _values(source: Poset, mapping, noun: str = "map") -> Iterator:
    """The value of ``mapping`` (a dict or a callable) at each element of
    ``source``, in element order. Every key of a dict is looked up in
    ``source`` first, so a key that names no element is refused, not
    dropped; a missing value is a PosetError."""
    get = mapping.__getitem__ if isinstance(mapping, dict) else mapping
    for x in mapping if isinstance(mapping, dict) else ():
        source.index(x)
    for e in source.elements:
        try:
            v = get(e)
        except KeyError:
            raise PosetError(f"{noun} is missing a value for {e!r}") from None
        yield v


def _failing_pairs(
    source: Poset, target: Poset, marks: Sequence[int], rows: Sequence[int]
) -> Iterator[tuple]:
    """Every pair ``(x, y)`` with ``y`` in the mask ``rows[x]`` at which a map
    is not monotone, in index order of x, then of y.

    ``marks[i]`` is the mask of the target elements that element ``i`` goes
    to: one for a point map, an antichain for a map into the Smyth order. A
    pair fails when some member of the value at ``y`` is above no member of
    the value at ``x``. This is the only monotonicity check.
    """
    ups = [target._up_mask(m) for m in marks]
    for i, row in enumerate(rows):
        for j in _bits(row):
            if marks[j] & ~ups[i]:
                yield source.elements[i], source.elements[j]


def _first_failing_cover(source: Poset, target: Poset, marks: Sequence[int]) -> Optional[tuple]:
    """The first cover ``(x, y)`` of ``source`` at which a map is not monotone
    (see :func:`_failing_pairs`), or None. Both orders are transitive, so the
    covers decide monotonicity."""
    return next(_failing_pairs(source, target, marks, source._cover_masks()), None)


def _unreached(target: Poset, idx: Iterable[int]) -> list:
    """The elements of ``target`` at no index in ``idx``, in element order:
    empty just when a map with these target indices is onto ``target``."""
    hit = set(idx)
    return [e for j, e in enumerate(target.elements) if j not in hit]


def _resolve(source: Poset, target: Poset, mapping) -> tuple:
    """The index in ``target`` of the value of ``mapping`` at each element
    of ``source``. Each value is resolved as it is read, so a value outside
    ``target`` is named before a later missing one."""
    return tuple(map(target.index, _values(source, mapping)))


class _Map:
    """A map from the finite poset ``source`` to ``target``, held as one
    integer cell per source element, in element order: the base of
    :class:`MonotoneMap` (a cell is a target index) and of
    :class:`~ordbench.smyth.FinMap` (a cell is a canonical antichain mask).

    A subclass gives ``_show(cell)``, the value a cell stands for, and
    ``_not_monotone``, the wording of its refusal. ``values`` and calls
    show the cells, so equal maps answer alike. Equality and the hash read
    the two posets and the cells; two maps whose cells are shown alike (a
    ``FinMap`` and a ``QuasiDeflation``) can be equal, two that are not (a
    ``MonotoneMap`` and a ``FinMap``) never are. :meth:`_of` is the trusted
    constructor.
    """

    __slots__ = ("source", "target", "_cells")
    _not_monotone = ""  # formatted with the failing cover x <= y and the values fx, fy

    @classmethod
    def _of(cls, source: Poset, target: Poset, cells: tuple):
        """Trusted constructor: ``cells`` holds one cell per element of
        ``source``; nothing is checked."""
        self = object.__new__(cls)
        self.source, self.target, self._cells = source, target, cells
        return self

    def _check(self, marks: Optional[Sequence[int]] = None) -> None:
        """Refuse a map that is not monotone, naming its first failing cover
        (see :func:`_first_failing_cover`). ``marks`` are the values as
        masks of target elements: the cells themselves unless given."""
        bad = _first_failing_cover(self.source, self.target, marks or self._cells)
        if bad is not None:
            x, y = bad
            raise PosetError(self._not_monotone.format(x=x, y=y, fx=self(x), fy=self(y)))

    @property
    def values(self) -> tuple:
        """The value at each source element, in source element order."""
        return tuple(map(self._show, self._cells))

    def __call__(self, x):
        return self._show(self._cells[self.source.index(x)])

    def _key(self) -> tuple:
        return type(self)._show, self.source, self.target, self._cells

    def __eq__(self, other) -> bool:
        return isinstance(other, _Map) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class MonotoneMap(_Map):
    """A monotone function between two finite posets.

    Its cells are the index in ``target`` of its value at each source
    element (see :class:`_Map`); every check and law reads those. The
    public constructor takes a dict or a callable, evaluates it once on
    every source element (see :func:`_values`), resolves each value in
    ``target`` and rejects a map that is not monotone, naming a violating
    cover.
    """

    __slots__ = ()
    _not_monotone = "not monotone: {x!r} <= {y!r} but {fx!r} !<= {fy!r}"

    def __init__(self, source: Poset, target: Poset, mapping):
        self.source, self.target, self._cells = source, target, _resolve(source, target, mapping)
        self._check([1 << j for j in self._cells])

    def _show(self, j: int):
        return self.target.elements[j]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{e!r}->{v!r}" for e, v in zip(self.source.elements, self.values))
        return f"MonotoneMap({pairs})"

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        """self after inner."""
        if inner.target != self.source:
            raise PosetError("composition mismatch: inner target differs from outer source")
        cells = tuple(self._cells[j] for j in inner._cells)
        return MonotoneMap._of(inner.source, self.target, cells)


@dataclass(frozen=True)
class MapReport:
    """Outcome of the monotone/surjective predicate battery.

    ``monotone_witness`` is the first cover ``(x, y)`` of the source, in
    :meth:`Poset.covers` order, whose images are out of order. It is always
    a cover: on a < c < b, a failure between a and b shows at (a, c) or
    (c, b).
    """

    monotone: bool
    surjective: bool
    monotone_witness: Optional[tuple] = None
    missing: Optional[tuple] = None


def map_predicates(source: Poset, target: Poset, mapping) -> MapReport:
    """Check a raw mapping without raising; see :class:`MapReport`.

    A missing value or a value outside ``target`` is still a PosetError.
    """
    idx = _resolve(source, target, mapping)
    witness = _first_failing_cover(source, target, [1 << j for j in idx])
    missing = tuple(_unreached(target, idx))
    return MapReport(
        monotone=witness is None,
        surjective=not missing,
        monotone_witness=witness,
        missing=missing or None,
    )


# -- parsing and emission ----------------------------------------------------


def _lines(text: str) -> Iterator[Tuple[int, str]]:
    """The numbered non-blank lines of ``text``, ``#`` comments stripped.

    Every line-oriented format reads its text through this; errors then
    name the line as ``line N:``.
    """
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def _arrows(lines: Iterable, source: Poset, shape: str, read: Callable, noun: str) -> dict:
    """The one reader of ``x -> rhs`` lines: a dict from each stripped ``x``
    to ``read(rhs)``, rhs stripped, in line order.

    ``lines`` are numbered lines (see :func:`_lines`). Each line is refused
    if it does not have that ``shape`` (no ``->``, or a side empty), then if
    its ``x`` is a repeated ``noun`` or names no element of ``source``, all
    before its ``rhs`` is read.
    """
    table: dict = {}
    for ln, line in lines:
        lhs, arrow, rhs = line.partition("->")
        x, rhs = lhs.strip(), rhs.strip()
        if not arrow or not x or not rhs:
            raise PosetError(f"line {ln}: expected {shape!r}, got {line!r}")
        if x in table:
            raise PosetError(f"line {ln}: repeated {noun} {x!r}")
        source.index(x)
        table[x] = read(rhs)
    return table


def parse_poset(text: str) -> Poset:
    """Read the line-oriented poset format.

    Recognized lines (after stripping comments introduced by ``#``):

    * ``elements: a b c`` declares identifiers, in order; may repeat.
    * ``order: a < b; b < c`` declares relations among declared identifiers;
      entries are separated by ``;`` and the closure is taken.

    Blank lines are ignored. Anything else is an error, as are duplicate
    declarations, relations over unknown identifiers, and cycles.

    A regular text is read without a Python call per name: each
    ``elements:`` line is indexed by one dict, and each ``order:`` line is
    split into tokens once, ``<`` and ``;`` standing alone, and its names
    are taken from the stride ``x < y ; x < y ...``. A line off that stride
    (an empty entry, a name holding whitespace, a malformed entry) is read
    entry by entry, which also words its errors. The names then resolve
    through the parser's own index, one ``map`` per side, and that index is
    kept as the poset's (see :meth:`Poset._relate`).
    """
    elements: list = []
    index: dict = {}
    lower: list = []
    upper: list = []
    for ln, line in _lines(text):
        if line.startswith("elements:"):
            names = line[len("elements:"):].split()
            index.update(zip(names, range(len(elements), len(elements) + len(names))))
            elements += names
            if len(index) < len(elements):  # earlier lines held none, so it is here
                raise PosetError(f"line {ln}: duplicate element: {_first_repeat(elements)!r}")
        elif line.startswith("order:"):
            body = line[len("order:"):]
            toks = body.replace("<", " < ").replace(";", " ; ").split()
            k = len(toks) + 1 >> 2  # the number of entries, if on the stride
            if (
                len(toks) == 4 * k - 1
                and body.count("<") == toks[1::4].count("<") == k
                and body.count(";") == toks[3::4].count(";") == k - 1
            ):
                lower += toks[::4]
                upper += toks[2::4]
                continue
            for entry in body.split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                parts = entry.split("<")
                if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                    raise PosetError(f"line {ln}: malformed relation: {entry!r}")
                lower.append(parts[0].strip())
                upper.append(parts[1].strip())
        else:
            raise PosetError(f"line {ln}: unrecognized line: {line!r}")
    low, high = list(map(index.get, lower)), list(map(index.get, upper))
    if None in low or None in high:  # the first unknown name, in relation order
        name = next(x if i is None else y for i, j, x, y in zip(low, high, lower, upper)
                    if i is None or j is None)
        raise PosetError(f"relation mentions undeclared element: {name!r}")
    return Poset.__new__(Poset)._relate(tuple(elements), index, low, high)


def format_poset(P: Poset) -> str:
    """Inverse of :func:`parse_poset`, covers only.

    Raises PosetError on a name the format cannot read back: an empty one,
    one holding whitespace, ``<``, ``;`` or ``#``, or one written twice.
    """
    names = [str(e) for e in P.elements]
    seen = set()
    for name in names:
        if not name or any(c.isspace() or c in "<;#" for c in name):
            raise PosetError(f"the poset format cannot write the element name {name!r}")
        if name in seen:
            raise PosetError(f"the poset format cannot write two elements named {name!r}")
        seen.add(name)
    lines = ["elements: " + " ".join(names)]
    cov = P.covers()
    if cov:
        lines.append("order: " + "; ".join(f"{a} < {b}" for a, b in cov))
    return "\n".join(lines) + "\n"


def parse_map(source: Poset, target: Poset, text: str) -> MonotoneMap:
    """Read a monotone map from ``x -> y`` lines (``#`` starts a comment)."""
    table = _arrows(_lines(text), source, "x -> y", target._member, "source element")
    return MonotoneMap(source, target, table)


def _require_writable(names: Iterable, fmt: str, P: Poset, splits: tuple = ()) -> Iterable:
    """``names``, once none is a name that a line format would not read back.

    Every line format strips its names, reads each line alone, ends it at
    ``#`` and splits a map line at its first ``->``; ``splits`` adds what
    else the format splits at. So a name must be nonempty, hold none of
    these and no line break, and have no outer whitespace. ``names`` must be
    elements of ``P`` (else ``unknown element``), and the parsers look each
    written name up in P, so it must name that same element: an element
    that is not a string, such as ``1`` or ``('bot',)``, is refused, as its
    written name names no element of P, or another one.
    """
    for e in names:
        name = str(e)
        if (
            name.splitlines() != [name]
            or name != name.strip()
            or any(s in name for s in ("#", "->", *splits))
            or P._index.get(name) != P.index(e)
        ):
            raise PosetError(f"the {fmt} format cannot write the name {name!r}")
    return names


def _write_arrows(source: Poset, rhs: Callable[[], Iterable], fmt: str) -> str:
    """The one writer of ``x -> rhs`` lines: one line per element of
    ``source``, in element order, its right side taken from ``rhs()``.
    The source names are checked first (see :func:`_require_writable`), and
    only then is ``rhs`` called, so it may check the names it writes."""
    _require_writable(source.elements, fmt, P=source)
    return "\n".join(f"{x} -> {y}" for x, y in zip(source.elements, rhs())) + "\n"


def format_map(f: MonotoneMap) -> str:
    """Inverse of :func:`parse_map`; refuses names it cannot read back
    (see :func:`_require_writable`)."""
    return _write_arrows(f.source, lambda: _require_writable(f.values, "map", P=f.target), "map")


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(P: Poset, name: str = "hasse") -> str:
    """Emit the cover relation as a DOT digraph, stable across runs.

    Nodes appear in element order and edges in cover order, so output for
    equal inputs is byte-identical.
    """
    lines = [f"digraph {name} {{"]
    for e in P.elements:
        lines.append(f"  {_dot_quote(str(e))};")
    for a, b in P.covers():
        lines.append(f"  {_dot_quote(str(a))} -> {_dot_quote(str(b))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- exhaustive generation ----------------------------------------------------


def enumerate_posets(n: int) -> Iterator[Poset]:
    """Yield every labeled partial order on elements 0..n-1 exactly once.

    Works by extending each order on 0..n-2 with the new greatest-index
    element in every consistent way: pick the down-set D of elements that
    will sit below it and an up-set U above it, disjoint, such that
    everything in D is already below everything in U. Each labeled poset
    restricts uniquely to its first n-1 elements, so there are no duplicates.

    Counts for n = 1..6: 1, 3, 19, 219, 4231, 130023.
    """
    if not isinstance(n, int) or not 1 <= n <= 6:
        raise PosetError("enumerate_posets supports 1 <= n <= 6")
    elements = tuple(range(n))

    def extend(ups: list, downs: list) -> Iterator[Tuple[list, list]]:
        k = len(ups)
        zbit = 1 << k
        full = (1 << k) - 1
        # down-sets are the complements of the upper sets, in increasing order
        for up_mask in reversed(_upper_walk(ups, downs)[0]):
            D = full & ~up_mask
            allowed = full
            for i in _bits(D):
                allowed &= ups[i]
            allowed &= ~D
            below = [ups[i] | (zbit if (D >> i) & 1 else 0) for i in range(k)]
            # up-closed subsets of `allowed`, in decreasing order
            for U in reversed(_upper_walk(ups, downs, full & ~allowed)[0]):
                above = [downs[i] | (zbit if (U >> i) & 1 else 0) for i in range(k)]
                yield below + [zbit | U], above + [zbit | D]

    def rec(ups: list, downs: list) -> Iterator[Poset]:
        if len(ups) == n:
            yield Poset._from_masks(elements, tuple(ups), tuple(downs))
            return
        for new_ups, new_downs in extend(ups, downs):
            yield from rec(new_ups, new_downs)

    yield from rec([1], [1])
