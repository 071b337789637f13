"""Upper powerspace machinery on finite posets.

An antichain E stands for the upward closure of E; the collection of all such
closures, ordered by reverse inclusion of closures, is the demonic
nondeterminism order. This module provides the unit (point to singleton), the
extension of an antichain-valued map to antichains, the induced action on
antichains of an ordinary monotone map, the multiplication, law checking for
all of these, quasi-retraction law checking with canonical sections, and the
stage-chain extraction used when a point survives a descending sequence of
antichain stages.

Inside the module an antichain is the bitmask of its members over the
poset's element order, always in canonical form (the minimal members, see
:meth:`Poset._minimal`). Every decision is mask arithmetic; element tuples
are read at the API edge and built only for results, values asked for and
witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from .posets import (
    MonotoneMap, Poset, PosetError, _arrow, _bits, _first_failing_cover, _lines,
    _require_writable, _unreached, _values,
)

FIN_CAP = 100_000


class FinMap:
    """A monotone map from a poset into the antichains of a target poset.

    Each value is stored as one mask over the target's elements: the
    canonical antichain (minimal members) of the value given, made at
    construction. ``values``, calling the map, :meth:`as_dict`, ``repr`` and
    the text formats build element tuples from the masks on demand; equality
    and hashing compare the masks. Monotonicity means: x <= y implies the
    upward closure of the value at x contains the closure of the value at y.
    """

    __slots__ = ("source", "target", "_masks")

    def __init__(self, source: Poset, target: Poset, table, *, check: bool = True):
        self.source, self.target = source, target
        masks = []
        for x, v in zip(source.elements, _values(source, table, "antichain map")):
            mask = target._mask_of(v)
            if not mask:
                raise PosetError(f"antichain map has an empty value for {x!r}")
            masks.append(target._minimal(mask))
        self._masks = tuple(masks)
        if check:
            self._check()

    @classmethod
    def _from_masks(cls, source: Poset, target: Poset, masks: tuple):
        """Trusted constructor: ``masks`` holds one canonical antichain mask
        of ``target`` per element of ``source``; nothing is checked."""
        self = object.__new__(cls)
        self.source, self.target, self._masks = source, target, masks
        return self

    def _check(self) -> None:
        bad = _first_failing_cover(self.source, self.target, self._masks)
        if bad is not None:
            x, y = bad
            raise PosetError(
                f"not monotone into the antichain order: {x!r} <= {y!r} "
                f"but {self(x)!r} does not refine to {self(y)!r}"
            )

    @property
    def values(self) -> tuple:
        """The value at each source element, as element tuples in source order."""
        return tuple(map(self.target._tuple_of, self._masks))

    def __call__(self, x) -> tuple:
        return self.target._tuple_of(self._masks[self.source.index(x)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinMap)
            and self.source == other.source
            and self.target == other.target
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self._masks))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{e!r}->{{{', '.join(map(repr, v))}}}"
            for e, v in zip(self.source.elements, self.values)
        )
        return f"FinMap({body})"

    def as_dict(self) -> dict:
        return dict(zip(self.source.elements, self.values))


def _extend(Q: Poset, values: Sequence[int], mask: int) -> int:
    """Extend a map with value masks ``values`` (antichains of ``Q``) to the
    antichain ``mask`` of its source: the minimal members of the OR of the
    members' values. This is the one extension to antichains."""
    union = 0
    for i in _bits(mask):
        union |= values[i]
    return Q._minimal(union)


def eta(P: Poset, x) -> tuple:
    """The unit: a point becomes the singleton antichain at that point."""
    P.index(x)
    return (x,)


def eta_map(P: Poset) -> FinMap:
    return FinMap._from_masks(P, P, tuple(1 << i for i in range(len(P))))


def dagger(h: FinMap) -> Callable[[Iterable], tuple]:
    """Extend an antichain-valued map from points to antichains.

    The extension applied to E is the normalized union of the values over
    the members of E. Monotonicity of ``h`` makes restricting to the members
    (rather than the whole upward closure) sound.
    """
    src, tgt, masks = h.source, h.target, h._masks
    return lambda E: tgt._tuple_of(_extend(tgt, masks, src._mask_of(E)))


def smyth_map(r: MonotoneMap) -> Callable[[Iterable], tuple]:
    """The antichain action of a monotone map: the extension (see
    :func:`dagger`) of the unit after ``r``, so image, then normalize."""
    return dagger(FinMap._from_masks(r.source, r.target, tuple(1 << j for j in r._idx)))


def mu(P: Poset, Q2: Iterable[Iterable]) -> tuple:
    """Flatten an antichain of antichains to a single antichain.

    ``Q2`` must be an antichain in the refinement order itself (pairwise
    incomparable members); the result is the normalized union.
    """
    members = [P._minimal(P._mask_of(E)) for E in Q2]
    for i, A in enumerate(members):
        for B in members[i + 1:]:
            # one refines the other just when it holds the minimal members of both
            if A != B and P._minimal(A | B) in (A, B):
                raise PosetError(
                    f"mu expects pairwise incomparable antichains; "
                    f"{P._tuple_of(A)!r} and {P._tuple_of(B)!r} are comparable"
                )
    return P._tuple_of(_extend(P, members, (1 << len(members)) - 1))


def _fin_masks(P: Poset) -> List[int]:
    """The masks of all nonempty antichains of P, in lexicographic index order.

    Raises PosetError when more than ``FIN_CAP`` antichains would be
    produced; the count grows exponentially on wide posets. This is the one
    reader of ``FIN_CAP``.
    """
    cap = FIN_CAP
    up, down = P._up, P._down
    found: List[int] = []
    # (mask of the antichain so far, mask of the elements that may still extend it)
    stack = [(0, (1 << len(P.elements)) - 1)]
    while stack:
        chosen, free = stack.pop()
        if not free:
            continue
        low = free & -free
        i = low.bit_length() - 1
        grown = chosen | low
        found.append(grown)
        if len(found) > cap:
            raise PosetError(f"antichain enumeration exceeded the cap of {cap}")
        # the antichains without i come after every antichain that extends grown
        stack.append((chosen, free ^ low))
        stack.append((grown, free & ~(up[i] | down[i])))
    return found


def fin_antichains(P: Poset) -> List[tuple]:
    """All nonempty canonical antichains of P, in lexicographic index order.

    Raises PosetError when more than ``FIN_CAP`` antichains would be
    produced; the count grows exponentially on wide posets. Element tuples
    are built only once the cap has held.
    """
    return [P._tuple_of(mask) for mask in _fin_masks(P)]


def fin_poset(P: Poset) -> Poset:
    """The antichains of P as a poset under the refinement order.

    E sits below F iff the closure of F lies inside the closure of E, and
    every nonempty upper set is the closure of one antichain. So the upper
    covers of E are the antichains whose closure is E's less one member of
    E, when that is nonempty; their closure is the order, with no pair of
    antichains compared, and they are handed over as the diagram (see
    :meth:`~ordbench.posets.Poset._from_covers`). The antichains come from
    :func:`fin_antichains`, so more than ``FIN_CAP`` of them raise
    PosetError.
    """
    masks = _fin_masks(P)
    closure = [P._up_mask(E) for E in masks]
    index = {up: i for i, up in enumerate(closure)}
    succ = [
        [index[up ^ 1 << x] for x in _bits(E) if up ^ 1 << x]
        for E, up in zip(masks, closure)
    ]
    return Poset._from_covers(tuple(map(P._tuple_of, masks)), succ)


# -- monad laws ---------------------------------------------------------------


@dataclass(frozen=True)
class MonadLawsReport:
    """Results of checking the three extension laws on all antichains.

    ``unit_identity``: extending the unit gives the identity.
    ``extension_identity``: the extension of h agrees with h on singletons.
    ``associativity``: extending (extended g after h) equals composing the
    two extensions.

    The first two hold for every :class:`FinMap`, checked or not, and
    associativity fails only when g is not monotone; see
    :func:`check_monad_laws` for the proof. ``witness`` holds the first
    antichain at which associativity fails, or None.
    """

    unit_identity: bool
    extension_identity: bool
    associativity: bool
    witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.unit_identity and self.extension_identity and self.associativity


def check_monad_laws(
    P: Poset,
    h: Optional[FinMap] = None,
    g: Optional[FinMap] = None,
) -> MonadLawsReport:
    """Decide the three laws on every antichain of P.

    ``h`` maps P into antichains of some poset Y, and ``g`` maps Y into
    antichains of some poset Z; both default to the unit on P. More than
    ``FIN_CAP`` antichains of P raise PosetError, whatever the maps.

    The decision rests on one proof. The unit law compares an antichain of
    P with its minimal members, and the antichains come canonical from
    :func:`_fin_masks`. The extension law compares the minimal members of
    h's value at a point with that value, which :class:`FinMap` stores
    canonical. So both always hold. For associativity at an antichain E,
    let U be the union of h's values over the members of E. The left side
    is the minimal members of the union of g(y) over y in U (minima taken
    inside a union do not change its minimal members), the right side the
    same over y in min U. Every y in U lies above some y' in min U; if g
    is monotone, g(y) then lies in the upward closure of g(y'), so both
    unions have the same minimal members. Only g's monotonicity matters,
    and h may be anything, checked or not.

    So a monotone g gives an all-true report at once. Otherwise the
    antichains are scanned for associativity alone, on masks, and the first
    failure is the witness: ``{"law": "associativity", "at": E, "lhs": ...,
    "rhs": ...}``, with element tuples built only for it. Map files are read
    with the check on, so ``ordbench monad-laws`` never exits 1 on them.
    """
    if h is None:
        h = eta_map(P)
    if g is None:
        g = eta_map(h.target)
    if h.source != P:
        raise PosetError("h must have source P")
    if g.source != h.target:
        raise PosetError("g must have source equal to h's target poset")
    fin = _fin_masks(P)
    Y, Z = h.target, g.target
    hv, gv = h._masks, g._masks
    if _first_failing_cover(Y, Z, gv) is None:
        return MonadLawsReport(True, True, True)
    gh = [_extend(Z, gv, m) for m in hv]  # the extension of g after h, pointwise
    for m in fin:
        lhs, rhs = _extend(Z, gh, m), _extend(Z, gv, _extend(Y, hv, m))
        if lhs != rhs:
            witness = {"law": "associativity", "at": P._tuple_of(m),
                       "lhs": Z._tuple_of(lhs), "rhs": Z._tuple_of(rhs)}
            return MonadLawsReport(True, True, False, witness)
    return MonadLawsReport(True, True, True)


# -- quasi-retractions --------------------------------------------------------


@dataclass(frozen=True)
class QuasiSectionReport:
    """Law results for a candidate section of a monotone map.

    ``retraction_law``: pushing the section's antichain through the map gives
    back exactly the singleton at each target point.
    ``projection_law``: every source point is above its section-of-image
    antichain.
    ``canonical`` is True when the candidate coincides with the minimal
    preimage section, None when that section does not exist (map not
    surjective). ``witness`` holds the first violation, element first.
    """

    retraction_law: bool
    projection_law: bool
    canonical: Optional[bool]
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.retraction_law and self.projection_law


def canonical_quasi_section(r: MonotoneMap) -> FinMap:
    """Minimal elements of the preimage of each principal filter.

    Defined whenever ``r`` is surjective; raises otherwise. The result is
    monotone into the antichain order and satisfies both section laws: the
    preimage of the filter of y holds the preimage of every filter above it.
    """
    X, Y = r.source, r.target
    missing = _unreached(Y, r._idx)
    if missing:
        raise PosetError(
            f"canonical section needs a surjective map; unreached: {missing!r}"
        )
    fibre = [0] * len(Y)
    for i, j in enumerate(r._idx):
        fibre[j] |= 1 << i
    # the preimage of a filter is the union of the fibres of its members
    return FinMap._from_masks(Y, X, tuple(_extend(X, fibre, up) for up in Y._up))


def check_quasi_retraction(r: MonotoneMap, qs: FinMap) -> QuasiSectionReport:
    """Check both section laws for ``qs`` against ``r``.

    A law that fails is reported, not raised. Violations are reported in
    element order, retraction law first, so a failing input always produces
    the same witness. Raises PosetError only when ``qs`` does not map the
    target of ``r`` into antichains of its source.
    """
    X, Y = r.source, r.target
    if qs.source != Y or qs.target != X:
        raise PosetError("qs must map the target of r into antichains of its source")
    act, sec = [1 << j for j in r._idx], qs._masks
    # each scan yields the message of its law's first violation, or None
    retraction = next(
        (f"retraction law fails at {y!r}: image antichain {Y._tuple_of(got)!r} is not {{{y!r}}}"
         for j, y in enumerate(Y.elements) for got in [_extend(Y, act, sec[j])] if got != 1 << j),
        None,
    )
    projection = next(
        (f"projection law fails at {x!r}: {x!r} is not above {X._tuple_of(sec[j])!r}"
         for x, j, down in zip(X.elements, r._idx, X._down) if not sec[j] & down),
        None,
    )
    canonical = None if _unreached(Y, r._idx) else canonical_quasi_section(r)._masks == sec
    return QuasiSectionReport(
        retraction is None, projection is None, canonical, retraction or projection
    )


# -- stage chains -------------------------------------------------------------


class StagePreconditionError(PosetError):
    """A stage list violates nesting or membership; carries the failing index."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def koenig_chain(P: Poset, stages: List[Iterable], y) -> List:
    """Extract a nondecreasing chain through descending antichain stages.

    Given stages whose upward closures shrink (each refines the previous) and
    a point ``y`` inside every closure, returns elements y_0 <= y_1 <= ...
    <= y_d with y_i drawn from stage i and y_d <= y. The search walks the
    candidate tree depth first in element order, so the answer is the
    lexicographically least branch.

    Each distinct stage, keyed by the tuple of its members, is normalised to
    its antichain mask and upward-closure mask once; a repeated stage reuses
    the pair, and the nesting check reads the shared closures. The search
    still recurses once per stage. Whether a pick at stage i extends to a
    full chain depends only on the pick, so a pick that does not is dropped
    from its stage (per stage index, not from the shared pair) and never
    tried again: O(d * w) picks for d stages of width at most w.
    """
    up, below = P._up, P._down[P.index(y)]
    table: dict = {}  # stage tuple -> (antichain mask, upward-closure mask)
    norm, ups = [], []
    for E in stages:
        E = tuple(E)
        try:
            pair = table.get(E)
        except TypeError:  # an unhashable member: _mask_of names the first bad one
            pair = None
        if pair is None:
            mask = P._minimal(P._mask_of(E))
            pair = table[E] = (mask, P._up_mask(mask))
        norm.append(pair[0])
        ups.append(pair[1])
    if not norm:
        raise StagePreconditionError("at least one stage is required", 0)
    for i, E in enumerate(norm):
        if not E & below:
            raise StagePreconditionError(
                f"stage {i}: {y!r} is not in the upward closure of {P._tuple_of(E)!r}", i
            )
    for i in range(len(ups) - 1):
        if ups[i + 1] & ~ups[i]:
            raise StagePreconditionError(
                f"stage {i + 1}: upward closure is not contained in stage {i}'s", i + 1
            )
    chain: List[int] = []

    def rec(i: int, above: int) -> bool:
        # ``above``: the mask of the elements above the previous pick
        if i == len(norm):
            return True
        rest = norm[i] & below & above
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            chain.append(c)
            if rec(i + 1, up[c]):
                return True
            chain.pop()
            norm[i] ^= low  # c extends to no chain: drop it from its stage
        return False

    if not rec(0, below):
        # Unreachable when the preconditions hold: a chain can always be
        # grown backwards from a stage-d element below y.
        raise StagePreconditionError("no chain exists; preconditions violated", len(norm) - 1)
    return [P.elements[c] for c in chain]


# -- serialization --------------------------------------------------------------


def parse_antichain(P: Poset, text: str) -> tuple:
    """Read one antichain: elements separated by commas, braces optional.

    The input need not be an antichain; it is normalized to the minimal
    elements of its upward closure.
    """
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    names = [tok.strip() for tok in body.split(",") if tok.strip()]
    if not names:
        raise PosetError(f"empty antichain in {text!r}")
    return P.antichain_normalize(names)


def format_antichain(E, P: Poset) -> str:
    """Inverse of :func:`parse_antichain` on ``P``, the poset ``E`` lives
    in; refuses names it cannot read back (see :func:`_require_writable`),
    which here also means names holding ``,``, ``{`` or ``}``."""
    _require_writable(E, "antichain", P, (",", "{", "}"))
    return "{" + ", ".join(str(x) for x in E) + "}"


def parse_finmap(source: Poset, target: Poset, text: str) -> FinMap:
    """Read an antichain-valued map from ``x -> {y1, y2}`` lines."""
    table: dict = {}
    for ln, line in _lines(text):
        x, rhs = _arrow(ln, line, table, "x -> {y1, y2}")
        source.index(x)
        table[x] = parse_antichain(target, rhs)
    return FinMap(source, target, table)


def format_finmap(h: FinMap) -> str:
    """Inverse of :func:`parse_finmap`, values in canonical form; refuses
    names it cannot read back. A value's names are checked as antichain
    members of the target (see :func:`format_antichain`)."""
    _require_writable(h.source.elements, "finmap", P=h.source)
    lines = [
        f"{x} -> {format_antichain(E, h.target)}"
        for x, E in zip(h.source.elements, h.values)
    ]
    return "\n".join(lines) + "\n"
