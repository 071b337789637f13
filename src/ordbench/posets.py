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
from typing import Callable, Iterable, Iterator, Optional


class PosetError(ValueError):
    """Input data violates a partial-order axiom or a stated precondition."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A finite poset over an ordered list of distinct element identifiers.

    Args:
        elements: the carrier, in the iteration order that all derived
            listings will use. Identifiers must be hashable and unique.
        relations: pairs ``(x, y)`` meaning ``x <= y``. The reflexive
            transitive closure is taken automatically; a relation cycle
            between distinct elements is rejected.

    Raises:
        PosetError: duplicate identifiers, unknown identifiers in a
            relation, or a cycle (antisymmetry failure after closure).
    """

    __slots__ = ("elements", "_index", "_up", "_down", "_uppers_cache")

    def __init__(self, elements: Iterable, relations: Iterable[tuple] = ()):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            seen = set()
            for e in elements:
                if e in seen:
                    raise PosetError(f"duplicate element: {e!r}")
                seen.add(e)
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for x, y in relations:
            ix = self._index.get(x)
            iy = self._index.get(y)
            if ix is None:
                raise PosetError(f"relation mentions undeclared element: {x!r}")
            if iy is None:
                raise PosetError(f"relation mentions undeclared element: {y!r}")
            up[ix] |= 1 << iy
        # Reachability closure over the bit rows.
        for k in range(n):
            bit = 1 << k
            row = up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        for i in range(n):
            for j in _bits(up[i] & ~(1 << i)):
                if up[j] & (1 << i):
                    raise PosetError(
                        f"cycle detected: {elements[i]!r} <= {elements[j]!r} <= {elements[i]!r}"
                    )
        self._up = tuple(up)
        self._finish()

    def _finish(self) -> None:
        n = len(self.elements)
        down = [0] * n
        for i, mask in enumerate(self._up):
            for j in _bits(mask):
                down[j] |= 1 << i
        self._down = tuple(down)
        self._uppers_cache = None

    @classmethod
    def _from_up_masks(cls, elements: tuple, up: tuple) -> "Poset":
        """Trusted constructor for already-closed, already-checked masks."""
        self = object.__new__(cls)
        self.elements = elements
        self._index = {e: i for i, e in enumerate(elements)}
        self._up = tuple(up)
        self._finish()
        return self

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

    def _mask_of(self, S: Iterable) -> int:
        mask = 0
        for x in S:
            mask |= 1 << self.index(x)
        return mask

    def _set_of(self, mask: int) -> frozenset:
        return frozenset(self.elements[i] for i in _bits(mask))

    def up_closure(self, S: Iterable) -> frozenset:
        """All elements above something in ``S`` (including ``S`` itself)."""
        mask = 0
        for x in S:
            mask |= self._up[self.index(x)]
        return self._set_of(mask)

    def down_closure(self, S: Iterable) -> frozenset:
        mask = 0
        for x in S:
            mask |= self._down[self.index(x)]
        return self._set_of(mask)

    def covers(self) -> tuple:
        """The transitive reduction, as (lower, upper) pairs.

        A pair (x, y) is a cover when x < y and nothing sits strictly
        between. Pairs come out sorted by (index of x, index of y).
        """
        out = []
        for i, e in enumerate(self.elements):
            strict_up = self._up[i] & ~(1 << i)
            for j in _bits(strict_up):
                between = self._up[i] & self._down[j] & ~(1 << i) & ~(1 << j)
                if not between:
                    out.append((e, self.elements[j]))
        return tuple(out)

    def _upper_masks(self, max_elements: int = 20) -> list:
        n = len(self.elements)
        if n > max_elements:
            raise PosetError(
                f"upper-set enumeration needs 2^{n} subset checks; "
                f"raise max_elements (currently {max_elements}) to allow it"
            )
        if self._uppers_cache is not None:
            return self._uppers_cache
        up = self._up
        out = []
        for mask in range(1 << n):
            m = mask
            ok = True
            while m:
                low = m & -m
                if up[low.bit_length() - 1] & ~mask:
                    ok = False
                    break
                m ^= low
            if ok:
                out.append(mask)
        self._uppers_cache = out
        return out

    def upper_sets(self, max_elements: int = 20) -> list:
        """Every upward-closed subset, the empty set and the carrier included.

        Listed in increasing bitmask order over element indices, which is
        deterministic for a fixed element order. Guarded by ``max_elements``
        because the scan is over all ``2^n`` subsets.
        """
        return [self._set_of(m) for m in self._upper_masks(max_elements)]

    # -- antichains and the Smyth preorder ---------------------------------

    def antichain_normalize(self, S: Iterable) -> tuple:
        """Canonical antichain with the same upward closure as ``S``.

        Keeps the minimal elements of ``S``, sorted by element index. The
        empty set has no upward closure worth naming here and is rejected.
        """
        mask = self._mask_of(S)
        if not mask:
            raise PosetError("cannot normalize an empty set to an antichain")
        keep = []
        for i in _bits(mask):
            if not (self._down[i] & ~(1 << i) & mask):
                keep.append(i)
        return tuple(self.elements[i] for i in keep)

    def smyth_leq(self, E: Iterable, F: Iterable) -> bool:
        """Upper-closure containment: every member of F is above some member of E."""
        up_e = 0
        for x in E:
            up_e |= self._up[self.index(x)]
        return not (self._mask_of(F) & ~up_e)

    # -- constructions ------------------------------------------------------

    def product(self, other: "Poset") -> "Poset":
        """Componentwise order on pairs, carrier in row-major order."""
        elements = tuple(itertools.product(self.elements, other.elements))
        m = len(other.elements)
        ups = []
        for i, up_i in enumerate(self._up):
            for j, up_j in enumerate(other._up):
                mask = 0
                for a in _bits(up_i):
                    base = a * m
                    for b in _bits(up_j):
                        mask |= 1 << (base + b)
                ups.append(mask)
        return Poset._from_up_masks(elements, tuple(ups))

    def is_tree(self) -> bool:
        """True when the strict predecessors of every element form a chain.

        Requires a least element; raises PosetError otherwise.
        """
        if not self.is_pointed:
            raise PosetError("is_tree needs a pointed poset")
        for i in range(len(self.elements)):
            d = self._down[i]
            for j in _bits(d):
                if d & ~(self._down[j] | self._up[j]):
                    return False
        return True


# -- monotone maps ---------------------------------------------------------


class MonotoneMap:
    """A monotone function between two finite posets.

    The mapping may be given as a dict or a callable; it is evaluated on
    every source element at construction time. With ``check=True`` (the
    default) monotonicity is verified and a violating pair is reported.
    """

    __slots__ = ("source", "target", "values")

    def __init__(self, source: Poset, target: Poset, mapping, *, check: bool = True):
        self.source = source
        self.target = target
        get = mapping.__getitem__ if isinstance(mapping, dict) else mapping
        values = []
        for e in source.elements:
            try:
                v = get(e)
            except KeyError:
                raise PosetError(f"map is missing a value for {e!r}") from None
            target.index(v)
            values.append(v)
        self.values = tuple(values)
        if check:
            bad = self._monotone_witness()
            if bad is not None:
                x, y = bad
                raise PosetError(
                    f"not monotone: {x!r} <= {y!r} but "
                    f"{self(x)!r} !<= {self(y)!r}"
                )

    def _monotone_witness(self) -> Optional[tuple]:
        src, tgt = self.source, self.target
        for x, y in src.covers():
            if not tgt.leq(self(x), self(y)):
                return (x, y)
        return None

    def __call__(self, x):
        return self.values[self.source.index(x)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonotoneMap)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{e!r}->{v!r}" for e, v in zip(self.source.elements, self.values))
        return f"MonotoneMap({pairs})"

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        """self after inner."""
        if inner.target != self.source:
            raise PosetError("composition mismatch: inner target differs from outer source")
        return MonotoneMap(
            inner.source, self.target, lambda x: self(inner(x)), check=False
        )


@dataclass(frozen=True)
class MapReport:
    """Outcome of the monotone/surjective/proper predicate battery.

    ``proper`` coincides with ``monotone`` here: on finite posets a monotone
    map automatically has closed down-images and compact preimages of
    principal filters, so no separate computation is warranted.
    """

    monotone: bool
    surjective: bool
    proper: bool
    monotone_witness: Optional[tuple] = None
    missing: Optional[tuple] = None


def map_predicates(source: Poset, target: Poset, mapping) -> MapReport:
    """Check a raw mapping without raising; see :class:`MapReport`."""
    get = mapping.__getitem__ if isinstance(mapping, dict) else mapping
    values = tuple(get(e) for e in source.elements)
    witness = None
    for x in source.elements:
        for y in source.elements:
            if source.leq(x, y) and not target.leq(
                values[source.index(x)], values[source.index(y)]
            ):
                witness = (x, y)
                break
        if witness:
            break
    monotone = witness is None
    hit = set(values)
    missing = tuple(e for e in target.elements if e not in hit)
    return MapReport(
        monotone=monotone,
        surjective=not missing,
        proper=monotone,
        monotone_witness=witness,
        missing=missing or None,
    )


# -- parsing and emission ----------------------------------------------------


def parse_poset(text: str) -> Poset:
    """Read the line-oriented poset format.

    Recognized lines (after stripping comments introduced by ``#``):

    * ``elements: a b c`` declares identifiers, in order; may repeat.
    * ``order: a < b; b < c`` declares relations among declared identifiers;
      entries are separated by ``;`` and the closure is taken.

    Blank lines are ignored. Anything else is an error, as are duplicate
    declarations, relations over unknown identifiers, and cycles.
    """
    elements: list = []
    seen = set()
    relations: list = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            for tok in line[len("elements:"):].split():
                if tok in seen:
                    raise PosetError(f"line {ln}: duplicate element: {tok!r}")
                seen.add(tok)
                elements.append(tok)
        elif line.startswith("order:"):
            for entry in line[len("order:"):].split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                parts = entry.split("<")
                if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                    raise PosetError(f"line {ln}: malformed relation: {entry!r}")
                relations.append((parts[0].strip(), parts[1].strip()))
        else:
            raise PosetError(f"line {ln}: unrecognized line: {line!r}")
    return Poset(elements, relations)


def format_poset(P: Poset) -> str:
    """Inverse of :func:`parse_poset`, covers only."""
    lines = ["elements: " + " ".join(str(e) for e in P.elements)]
    cov = P.covers()
    if cov:
        lines.append("order: " + "; ".join(f"{a} < {b}" for a, b in cov))
    return "\n".join(lines) + "\n"


def parse_map(source: Poset, target: Poset, text: str) -> MonotoneMap:
    """Read a monotone map from ``x -> y`` lines (``#`` starts a comment)."""
    table: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, arrow, rhs = line.partition("->")
        if not arrow or not lhs.strip() or not rhs.strip():
            raise PosetError(f"line {ln}: expected 'x -> y', got {line!r}")
        x, y = lhs.strip(), rhs.strip()
        if x in table:
            raise PosetError(f"line {ln}: repeated source element {x!r}")
        source.index(x)
        target.index(y)
        table[x] = y
    return MonotoneMap(source, target, table)


def format_map(f: MonotoneMap) -> str:
    """Inverse of :func:`parse_map`."""
    lines = [f"{x} -> {y}" for x, y in zip(f.source.elements, f.values)]
    return "\n".join(lines) + "\n"


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

    def extend(ups: list) -> Iterator[list]:
        k = len(ups)
        downs = [0] * k
        for i in range(k):
            for j in _bits(ups[i]):
                downs[j] |= 1 << i
        zbit = 1 << k
        full = (1 << k) - 1
        for D in range(full + 1):
            ok = True
            allowed = full
            m = D
            while m:
                low = m & -m
                i = low.bit_length() - 1
                if downs[i] & ~D:
                    ok = False
                    break
                allowed &= ups[i]
                m ^= low
            if not ok:
                continue
            allowed &= ~D
            # up-closed subsets of `allowed`, enumerated by descending submask
            U = allowed
            while True:
                good = True
                m = U
                while m:
                    low = m & -m
                    if ups[low.bit_length() - 1] & ~U:
                        good = False
                        break
                    m ^= low
                if good:
                    new = []
                    for i in range(k):
                        new.append(ups[i] | (zbit if (D >> i) & 1 else 0))
                    new.append(zbit | U)
                    yield new
                if U == 0:
                    break
                U = (U - 1) & allowed

    def rec(ups: list) -> Iterator[Poset]:
        if len(ups) == n:
            yield Poset._from_up_masks(elements, tuple(ups))
            return
        for new in extend(ups):
            yield from rec(new)

    yield from rec([1])
