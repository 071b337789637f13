"""Probability valuations on finite posets, in exact rational arithmetic.

A valuation is a nonnegative weight on each element summing to one; the mass
of an upper set is the sum over its members. Valuations are ordered by
comparing masses on every upper set, which on finite posets is decidable
either by quantifying over the upper sets directly or by solving an exact
mass-transport problem. This module also hosts grid discretizations (weights
on a fixed denominator), minimal upper bounds and maximal lower
approximations over a grid, and three deliberately broken rounding schemes
whose failures (non-modularity, non-monotonicity, non-uniqueness) are found
automatically by witness search.

No floating point is used anywhere. A valuation holds integer numerators
over one denominator, and every kernel works on those integers; a
`fractions.Fraction` is built only for a public result (weights, masses,
transport plans, reports). A given rational, text or number, is read by one
reader (:func:`_ratio`) and brought to one denominator by one scaler
(:func:`_scaled`), and valuations share their representation and their one
table reader with the admissible maps of :mod:`ordbench.treeval`
(:class:`_Exact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement, compress, repeat
from math import comb, gcd, lcm
from operator import add, and_, le, mul, or_, sub
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .posets import MonotoneMap, Poset, PosetError, _bits, _unreached

GRID_CAP = 100_000


class ValuationError(ValueError):
    """Malformed valuation data or an unsatisfied precondition."""


class _Exact:
    """Rationals, one per element of a poset, held as integer numerators
    over one denominator D in lowest terms: no factor divides D and every
    numerator, so equal rationals give equal integers. The base of
    :class:`Valuation` and of :class:`~ordbench.treeval.AdmissibleMap`.

    ``cls(poset, table)`` is the one reader of a table of rationals: a dict
    keyed by elements (every key is looked up first; a missing element is
    0) or a sequence in element order, whose length is checked after its
    values are read. A text is refused, as it would be read one character
    per element, and so is any other table, such as a set, which has no
    element order, or a generator; the refusal names its type. Each value
    is read by :func:`_ratio`, in element order, with its errors, and the
    subclass's ``_ints(poset, ratios)`` makes ``(D, nums)`` from the
    ``(index, (p, q))`` pairs.

    Equality reads D, the numerators and then the poset; the hash reads D
    and the numerators only, so equal values hash equal and hashing never
    hashes the poset, which :meth:`Poset.__hash__` would rebuild on every
    call (a grid hashes one valuation per point). The ``name:p/q`` entries
    of the nonzero values are written from the integers (see
    :func:`_spelled`). ``_shown`` caches the public values, a
    tuple of ``Fraction(k, D)`` built on first use with one Fraction per
    distinct numerator (see :func:`_fractions`).
    """

    __slots__ = ("_poset", "_den", "_nums", "_shown")

    def __init__(self, poset: Poset, table):
        text = isinstance(table, (str, bytes))
        if text or not isinstance(table, (dict, Sequence)):
            kind = f"text; read a text with {self._parser}" if text else type(table).__name__
            raise ValuationError(f"{type(self).__name__} takes a dict or a sequence, not a {kind}")
        if isinstance(table, dict):
            given = sorted((poset.index(e), v) for e, v in table.items())
        else:
            given = list(enumerate(table))
        ratios = [(i, _ratio(v)) for i, v in given]
        if not isinstance(table, dict) and len(ratios) != len(poset.elements):
            raise ValuationError(f"expected {len(poset.elements)} {self._noun}, got {len(ratios)}")
        self._poset, self._shown = poset, None
        self._den, self._nums = self._ints(poset, ratios)

    @classmethod
    def _of(cls, poset: Poset, D: int, nums):
        """Trusted constructor for integer values ``nums`` over ``D`` in
        lowest terms, already checked for what the subclass requires."""
        self = object.__new__(cls)
        self._poset, self._den, self._nums, self._shown = poset, D, tuple(nums), None
        return self

    def _values(self) -> tuple:
        if self._shown is None:
            self._shown = _fractions(self._nums, self._den)
        return self._shown

    def _entries(self) -> List[str]:
        D = self._den
        return [f"{e}:{_spelled(k, D)}" for e, k in zip(self._poset.elements, self._nums) if k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return False
        return self._den == other._den and self._nums == other._nums and self._poset == other._poset

    def __hash__(self) -> int:
        return hash((self._den, self._nums))


def _fractions(nums: Sequence[int], D: int) -> Tuple[Fraction, ...]:
    """``tuple(Fraction(k, D) for k in nums)`` with one Fraction per distinct
    k: Fractions are immutable, so equal values can share one object, and a
    tuple of them compares and prints the same."""
    made = {k: Fraction(k, D) for k in set(nums)}
    # from a list, whose length tuple() reads: from a map it would start at
    # 10 slots and resize, and each call would leave one more tuple of the
    # result's size on CPython's tuple free lists
    return tuple([made[k] for k in nums])


def _spelled(k: int, D: int) -> str:
    """``str(Fraction(k, D))`` for any k and D > 0, without building the Fraction."""
    g = gcd(k, D)
    return f"{k // g}" if g == D else f"{k // g}/{D // g}"


def _ratio(value) -> Tuple[int, int]:
    """The one reader of a given rational, text or number: a ``(p, q)``,
    q > 0, read as ``Fraction(value)`` reads it, with its errors. It is the
    one function that takes a Fraction apart.

    A plain ASCII ``p`` or ``p/q`` text with q nonzero is read by ``int``
    alone, and left unreduced: :func:`_scaled` reduces the whole tuple.
    ``Fraction`` reads the same digit strings with ``int``, p first, so a
    number past ``sys.get_int_max_str_digits()`` gets the same error either
    way. Every other value goes to ``Fraction``: numbers, and texts with
    signs, decimals, exponents, underscores, non-ASCII digits, a zero
    denominator or garbage.
    """
    if isinstance(value, str):
        p, slash, q = value.partition("/")
        if value.isascii() and p.isdigit() and (not slash or q.isdigit() and q.strip("0")):
            return int(p), int(q or 1)
    f = value if type(value) is Fraction else Fraction(value)
    return f.numerator, f.denominator


def _scaled(P: Poset, ratios: Collection[Tuple[int, Tuple[int, int]]]) -> Tuple[int, Tuple[int, ...]]:
    """The one scaler: ``(D, nums)``, the values of ``(i, (p, q))`` pairs on
    P, p/q (q > 0) the value at index ``i`` and zero at every other index,
    as integers over D in lowest terms (see :func:`_lowest_terms`)."""
    D = lcm(*[q for _, (p, q) in ratios if p])
    nums = [0] * len(P.elements)
    for i, (p, q) in ratios:
        nums[i] = p * (D // q)
    return _lowest_terms(D, nums)


def _checked_ints(P: Poset, ratios: Collection[Tuple[int, Tuple[int, int]]]) -> tuple:
    """``(D, nums)``: the weights of ``(i, (p, q))`` pairs on P, scaled by
    :func:`_scaled`. Refuses a negative weight, naming the first in element
    order, then a total other than one."""
    D, nums = _scaled(P, ratios)
    if min(nums, default=0) < 0:
        e, k = next((e, k) for e, k in zip(P.elements, nums) if k < 0)
        raise ValuationError(f"negative weight at {e!r}: {_weight_text(k, D)}")
    total = sum(nums)
    if total != D:
        raise ValuationError(f"weights sum to {_weight_text(total, D)}, not 1")
    return D, nums


def _weight_text(k: int, D: int) -> str:
    """The weight k/D as ``Fraction`` writes it, or words that say it cannot
    be written: a part with more digits than ``sys.get_int_max_str_digits()``."""
    try:
        return _spelled(k, D)
    except ValueError:
        return "a fraction too long to write"


def _lowest_terms(D: int, nums: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """``D`` and the numerators ``nums`` over it, both divided by their gcd:
    D is then the lcm of the reduced denominators of the nonzero weights,
    so equal weights give equal integers."""
    g = gcd(D, *nums)
    if g == 1:
        return D, tuple(nums)
    return D // g, tuple([k // g for k in nums])


class Valuation(_Exact):
    """Exact-rational probability weights on the elements of a poset.

    ``Valuation(poset, weights)`` reads a dict or a sequence by the one
    table reader (see :class:`_Exact`). Each weight must be nonnegative;
    together they must sum to exactly one. Only the given entries of a dict
    are read, and only nonzero weights are checked and summed; every other
    element shares one zero.

    The weights are stored as integer numerators over one denominator D,
    the lcm of the reduced denominators of the nonzero weights. ``weights``,
    a tuple of ``Fraction(k, D)``, is built on first use. ``poset`` is
    read-only.
    """

    __slots__ = ()
    _ints, _noun, _parser = staticmethod(_checked_ints), "weights", "parse_valuation"
    poset = property(lambda self: self._poset)
    weights = property(_Exact._values)

    def weight(self, x) -> Fraction:
        return Fraction(self._nums[self._poset.index(x)], self._den)

    @property
    def support(self) -> tuple:
        return tuple(e for e, k in zip(self._poset.elements, self._nums) if k)

    def _support_mask(self) -> int:
        return sum([1 << i for i, k in enumerate(self._nums) if k])

    def mass(self, U: Iterable) -> Fraction:
        """Total weight of a set of elements (typically an upper set)."""
        return Fraction(sum(self._nums[self._poset.index(x)] for x in U), self._den)

    def __str__(self) -> str:
        # the text of format_valuation, without its name check
        return " ".join(self._entries())

    def __repr__(self) -> str:
        return f"Valuation({str(self)!r})"


def dirac(P: Poset, x) -> Valuation:
    """Unit mass at a single element."""
    return Valuation(P, {x: Fraction(1)})


def _ratios(P: Poset, entries: Iterable[Tuple[str, str]], kind: str) -> Dict[int, Tuple[int, int]]:
    """Read ``(where, entry)`` pairs of ``name:fraction`` entries into a dict
    from the element's index in P to the ``(p, q)`` of :func:`_ratio`, in
    entry order. Each name is looked up once.

    Errors are prefixed by ``where`` and call the entry a ``kind``. Names
    split at the last colon, as a fraction never holds one.
    """
    out: dict = {}
    index = P._index
    for where, entry in entries:
        name, colon, frac = entry.rpartition(":")
        name, frac = name.strip(), frac.strip()
        if not colon or not name or not frac:
            raise ValuationError(f"{where}malformed {kind} {entry!r}, expected elem:p/q")
        i = index.get(name)
        if i is None:
            raise ValuationError(f"{where}unknown element {name!r}")
        if i in out:
            raise ValuationError(f"{where}repeated element {name!r}")
        try:
            out[i] = _ratio(frac)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValuationError(f"{where}bad fraction in {entry!r}: {exc}") from None
    return out


def parse_valuation(P: Poset, text: str) -> Valuation:
    """Read space-separated ``elem:p/q`` entries; omitted elements get 0.

    The parser insists on known elements, no repeats, nonnegative fractions,
    and a total of exactly one.
    """
    entries = (("", token) for token in text.split())
    return Valuation._of(P, *_checked_ints(P, _ratios(P, entries, "entry").items()))


def format_valuation(v: Valuation) -> str:
    """Inverse of :func:`parse_valuation`: nonzero entries in element order.

    Raises PosetError on a name it writes that the parser, which splits at
    whitespace and looks names up in the poset, cannot read back: an empty
    one, one holding whitespace, or one that is not the name of that same
    element (see :func:`~ordbench.posets._require_writable`).
    """
    index = v.poset._index
    for e in v.support:
        name = str(e)
        if name.split() != [name] or index.get(name) != index[e]:
            raise PosetError(f"the valuation format cannot write the name {name!r}")
    return str(v)


def _require_same_poset(nu: Valuation, mu: Valuation) -> Poset:
    if nu.poset is not mu.poset and nu.poset != mu.poset:
        raise ValuationError("valuations live on different posets")
    return nu.poset


def _common(vals: Sequence[Valuation], D: int = 1) -> Tuple[int, List[Sequence[int]]]:
    """``(L, ints)``: L the lcm of ``D`` and the denominators of ``vals``, and
    ``ints[v][i] == L * vals[v].weights[i]``, with one multiply per entry of
    a valuation held over a smaller denominator. Admissible maps, which hold
    their values as ``_den`` and ``_nums`` too, are read the same way."""
    D = lcm(D, *[v._den for v in vals])
    return D, [v._nums if v._den == D else [k * (D // v._den) for k in v._nums] for v in vals]


def _mass_rows(ints: Sequence[Sequence[int]], listing: tuple) -> List[tuple]:
    """The one upper-set mass kernel. ``rows[v][u]``: the sum of the integer
    weights ``ints[v]`` on the ``u``-th upper set of ``listing``.

    ``listing`` is ``(masks, parent, added)`` from
    :meth:`~Poset._upper_masks`: the empty set comes first, and upper set
    ``u`` is upper set ``parent[u] < u`` plus the element ``added[u]``. So
    ``mass[u] = mass[parent[u]] + w[added[u]]`` in listing order: one add
    per row and upper set, whatever the upper sets' sizes. A row only has
    its entries added, so it may hold any integers that add as wanted: the
    valuations' numerators over one denominator (see :func:`_common`), for
    the order, strict-approximation and rounding queries, or the grid's
    packed columns, one integer per element with a field per grid point
    (see :func:`_grid_masses`), where each add sums every point at once.
    """
    _, parent, added = listing
    rows = []
    for w in ints:
        mass = [0] * len(parent)
        for u in range(1, len(mass)):
            mass[u] = mass[parent[u]] + w[added[u]]
        rows.append(tuple(mass))
    return rows


# P|S is listed afresh on every query, while P's own listing is made once
# and shared by every query on P: the subposet route pays only when its
# listing is this many times shorter (with a factor of 1 the tall posets,
# whose subposets are barely shorter, got slower queries)
TRACE_FACTOR = 8


def _trace_masses(nu: Valuation, mu: Valuation) -> tuple:
    """``(D, (a, b), masks, proper)``: the mass rows of ``nu`` and ``mu``
    over D, the lcm of their denominators (see :func:`_common` and
    :func:`_mass_rows`), on the traces U ∩ S of the upper sets U of P,
    S = supp nu ∪ supp mu, with the traces as P-masks ``masks``; the
    first ``proper`` of them stand for proper upper sets.

    Both masses on U depend only on its trace, and the traces are the upper
    sets of the subposet P|S: a set T up-closed in S is the trace of ↑T.
    Every trace but S itself is that of a proper upper set (↑T misses S ∖ T),
    and S is that of P ∖ {m} for each minimal element m of P outside S, and
    of no other proper one (a proper upper set misses a minimal element).
    P|S has at most 2^|S| upper sets, listed by :meth:`~Poset._upper_masks`
    on :meth:`~Poset._from_masks` over the indices of S, with a third row,
    the bit of each index of S, that adds up to each trace's P-mask. The
    route is taken when ``TRACE_FACTOR * 2^|S|`` is below the number #U of
    upper sets of P; otherwise the traces are the upper sets of P's own
    listing, and all but the carrier are proper. P's listing is made first
    either way, so ``UPPER_MAX_ELEMENTS`` refuses the same inputs. |S| is at
    least the larger support, which is counted without listing S, so S is
    listed only when that count leaves the subposet route open.
    """
    P = nu.poset
    listing = P._upper_masks()
    D, ints = _common((nu, mu))
    U, n, (a, b) = len(listing[0]), len(P.elements), ints
    whole = TRACE_FACTOR << n - min(a.count(0), b.count(0)) >= U
    idx = [] if whole else list(compress(range(n), map(or_, a, b)))
    if whole or TRACE_FACTOR << len(idx) >= U:
        return D, _mass_rows(ints, listing), listing[0], U - 1
    # element k of P|S is element idx[k] of P, with its masks over the k
    up, down = (
        tuple([sum([1 << k for k, j in enumerate(idx) if r[i] >> j & 1]) for i in idx])
        for r in (P._up, P._down)
    )
    rows = [*([w[i] for i in idx] for w in ints), [1 << i for i in idx]]
    *rows, masks = _mass_rows(rows, Poset._from_masks(tuple(idx), up, down)._upper_masks())
    outside = any(P._down[i] == 1 << i for i in _bits(listing[0][-1] ^ masks[-1]))
    return D, rows, masks, len(masks) - (not outside)


# -- the pointwise order ------------------------------------------------------


@dataclass(frozen=True)
class StochasticOrderReport:
    """Decision plus certificate for one order comparison.

    When the comparison holds, ``transport`` carries an exact coupling: a
    positive flow on pairs (x, y) with x <= y whose row sums are the left
    weights and column sums the right weights, keyed in element order of x,
    then of y. When it fails, ``violating_upper`` is the up-closure of the
    left support on the source side of the minimal minimum cut: an upper set
    where the left mass exceeds the right. ``augmentations`` counts the
    augmenting paths the flow found, the one-hop paths that a linear scan
    takes before the first search included; it is work done, not part of
    the answer.
    """

    result: bool
    transport: Optional[Dict[tuple, Fraction]] = None
    violating_upper: Optional[frozenset] = None
    augmentations: int = 0


def _transport_decide(nu: Valuation, mu: Valuation) -> tuple:
    """Strassen's transport problem as an integer max flow on the supports.

    Returns ``(D, plan, cut, augmentations)``, D the lcm of the two
    denominators. When nu <= mu, ``plan`` maps each index pair
    (i, j) with positive flow to D times that flow, in element order of i,
    then of j, and ``cut`` is 0; otherwise ``plan`` is None and ``cut`` is
    the mask of the left support on the source side of the minimal minimum
    cut.

    The graph is bipartite: left node k is the k-th element of nu's
    support and right node L + k the k-th of mu's, L the size of nu's
    support, both in element order, and each left is joined to each right
    above it. ``free`` holds what each left still sends and each right
    still takes, over D; ``flow`` holds one integer per joined pair, keyed
    in node order; ``adj`` lists each node's neighbours in node order.
    Each search is the breadth-first search Edmonds-Karp makes in the
    residual graph with a source before the lefts and a sink after the
    rights, but without either: it starts from every left that still
    sends, in order; a left reaches every right above it; a right reaches
    the lefts that send it flow, then ends the search if it still takes
    mass, as its sink edge comes last.

    The one-hop paths, left to right, are taken first, by one greedy scan
    that builds ``flow``: for each left k in order and each right r in
    ``adj[k]`` in order, it pushes the least of what k still sends and r
    still takes. This is what the searches do. While some left that still
    sends is joined to a right that still takes mass, a search ends at the
    first such right r in ``adj[k]``, k the least such left: every left
    before k reaches only full rights, and r is reached from k, so the path
    is k -> r and its bottleneck the least of the two. And Edmonds-Karp's
    path lengths never decrease (Edmonds and Karp 1972), so no one-hop path
    opens once the scan ends. The searches then run from where the scan
    left off, and each positive push counts in ``augmentations``.

    The pair edges need no capacity. Give each one capacity D, as the
    residual graph does: while a search runs the total flow is below D
    (else no left still sends and the search is empty), and no pair
    carries more than the total, so every pair edge is open forward when
    a left is searched. And its residual never sets a bottleneck: that is
    at most what the path's first left still sends, at most D minus the
    total flow, at most D minus the pair's flow. So the paths, bottlenecks,
    plan, cut and ``augmentations`` (the number of paths) are those of the
    residual-graph flow, which ``tests/oracles.py`` keeps as the reference.
    """
    P = nu.poset
    D, (a, b) = _common((nu, mu))
    left = [i for i, x in enumerate(a) if x]
    right = [j for j, y in enumerate(b) if y]
    L = len(left)
    node = {j: L + k for k, j in enumerate(right)}
    free = [a[i] for i in left] + [b[j] for j in right]
    right_mask = mu._support_mask()
    adj = [[node[j] for j in _bits(P._up[i] & right_mask)] for i in left] + [[] for _ in right]
    flow = {}
    for k in range(L):
        for r in adj[k]:
            adj[r].append(k)
            f = flow[k, r] = min(free[k], free[r])
            free[k] -= f
            free[r] -= f
    augmentations = sum(map(bool, flow.values()))
    while True:
        # the lefts that still send are reached from the source, the other
        # nodes from the node in ``via``, -1 while unreached
        queue = [k for k in range(L) if free[k]]
        via = [-1] * len(free)
        for u in queue:
            if u < L:
                for r in adj[u]:
                    if via[r] == -1:
                        via[r] = u
                        queue.append(r)
                continue
            for k in adj[u]:
                if via[k] == -1 and not free[k] and flow[k, u]:
                    via[k] = u
                    queue.append(k)
            if free[u]:
                break
        else:  # no augmenting path: the flow is maximum
            break
        # the path, walked back from u: right r was reached from left via[r],
        # and a left k from right via[k], or from the source if that is -1
        bottleneck, r = free[u], u
        while r >= 0:
            k, r = via[r], via[via[r]]
            bottleneck = min(bottleneck, flow[k, r] if r >= 0 else free[k])
        free[u] -= bottleneck
        free[k] -= bottleneck
        r = u
        while r >= 0:
            k = via[r]
            flow[k, r] += bottleneck
            r = via[k]
            if r >= 0:
                flow[k, r] -= bottleneck
        augmentations += 1
    if any(free[:L]):
        cut = sum([1 << i for k, i in enumerate(left) if free[k] or via[k] != -1])
        return D, None, cut, augmentations
    plan = {(left[k], right[r - L]): f for (k, r), f in flow.items() if f}
    return D, plan, 0, augmentations


def _oracle_leq(nu: Valuation, mu: Valuation) -> bool:
    return all(map(le, *_trace_masses(nu, mu)[1]))


def stochastic_leq(nu: Valuation, mu: Valuation, *, mode: str = "flow") -> bool:
    """Decide whether ``nu`` sits below ``mu`` in the upper-set-mass order.

    ``mode="flow"`` solves the exact transport problem (works at any poset
    size): by Strassen's theorem ``nu <= mu`` iff a coupling moves nu's mass
    only upward onto mu, i.e. iff a max flow carries all of nu's mass. The
    flow is Edmonds-Karp in integers, on the two valuations' numerators
    brought to D, the lcm of their denominators, with one multiply per
    entry, on the bipartite support graph: supp(nu) on the left, supp(mu)
    on the right, and an edge from i to each j >= i. The one-hop augmenting
    paths, i -> j, are found by one linear scan before the first
    breadth-first search, in the order the searches would take them, and
    still count in the report's ``augmentations``. It allocates nothing
    of size n x n and builds no ``Fraction``. ``mode="oracle"``
    quantifies over all upper sets (needs the upper-set enumeration to be
    feasible), each through its trace on the union S of the two supports,
    which holds both masses: over the upper sets of the subposet P|S when P
    has more than ``TRACE_FACTOR * 2^|S|`` upper sets, and over P's own
    otherwise (see :func:`_trace_masses`); ``mode="both"`` runs the two and
    insists they agree.
    :func:`stochastic_leq_report` gives the certificate, the plan turned
    into Fractions.
    """
    _require_same_poset(nu, mu)
    if mode == "flow":
        return _transport_decide(nu, mu)[1] is not None
    if mode == "oracle":
        return _oracle_leq(nu, mu)
    if mode == "both":
        fast = _transport_decide(nu, mu)[1] is not None
        slow = _oracle_leq(nu, mu)
        if fast != slow:
            raise RuntimeError(
                f"transport and upper-set decisions disagree on {str(nu)!r} vs {str(mu)!r}"
            )
        return fast
    raise ValuationError(f"unknown mode {mode!r}")


def stochastic_leq_report(nu: Valuation, mu: Valuation) -> StochasticOrderReport:
    """Like :func:`stochastic_leq` but returns the certificate as well."""
    P = _require_same_poset(nu, mu)
    D, plan, cut, augmentations = _transport_decide(nu, mu)
    if plan is None:
        return StochasticOrderReport(False, None, P._set_of(P._up_mask(cut)), augmentations)
    names = P.elements
    transport = dict(zip([(names[i], names[j]) for i, j in plan], _fractions(plan.values(), D)))
    return StochasticOrderReport(True, transport, None, augmentations)


# -- strict approximation -----------------------------------------------------


def _strict_gaps(nu: Valuation, mu: Valuation) -> Tuple[List[int], int, List[tuple], list]:
    """The one strict-approximation scan: ``(masks, D, (a, b), kinds)``.

    Checks that both valuations live on one pointed poset, and takes the
    traces ``masks`` of its upper sets on S = supp nu ∪ supp mu with the
    integer mass rows ``a`` of ``nu`` and ``b`` of ``mu`` over ``D`` (see
    :func:`_trace_masses`): the masses of an upper set are those of its
    trace, so the scan runs over the upper sets of the subposet P|S when
    P has more than ``TRACE_FACTOR * 2^|S|`` upper sets, and over P's own
    otherwise. On a pointed poset S itself stands for a proper upper set,
    P ∖ {bottom}, exactly when bottom is outside S. ``kinds[u]`` labels
    the trace ``masks[u]`` of a proper upper set by how it breaks nu << mu:
    ``support_on_null`` (left mass where the right has none),
    ``mass_exceeds`` (left mass above right) or ``equal_mass`` (masses equal
    and positive, which strictness forbids); None when it does not.
    """
    P = _require_same_poset(nu, mu)
    if not P.is_pointed:
        raise ValuationError("strict approximation needs a pointed poset")
    D, (a, b), masks, proper = _trace_masses(nu, mu)
    kinds = [
        "support_on_null" if x and not y
        else "mass_exceeds" if x > y
        else "equal_mass" if x == y > 0
        else None
        for x, y in zip(a[:proper], b[:proper])
    ]
    return masks, D, (a, b), kinds


@dataclass(frozen=True)
class WayBelowReport:
    """Strict-approximation decision with per-upper-set diagnostics.

    ``violations`` lists every proper upper set breaking the criterion, in
    upper-set order, as a dict of its ``kind`` (one of the labels of
    :func:`_strict_gaps`), the ``upper`` set and the masses ``lhs`` of the
    left and ``rhs`` of the right valuation.
    """

    result: bool
    violations: Tuple[dict, ...] = ()


def way_below(nu: Valuation, mu: Valuation) -> bool:
    """Strict approximation: on every proper upper set the right side keeps
    strictly more mass, and the left side vanishes wherever the right does.

    Requires a pointed poset. Equivalent to the existence of a rational
    epsilon in (0, 1] with nu below the epsilon-mix of mu with the unit mass
    at bottom (see :func:`mixing_oracle`); derived necessity: the mixes form
    a directed family with supremum mu. Both masses on an upper set depend
    only on its trace on the two supports, so the criterion is decided on
    the traces (see :func:`_strict_gaps`), and a failing answer lists no
    violation.
    """
    return not any(_strict_gaps(nu, mu)[3])


def way_below_report(nu: Valuation, mu: Valuation) -> WayBelowReport:
    """:func:`way_below` with every violating proper upper set of P listed.

    The scan of :func:`_strict_gaps` labels traces; a failing report then
    walks P's own listing once and keeps each proper upper set whose trace
    on the supports, ``m & S``, was labelled, so the violations come in P's
    listing order whichever listing the scan ran over. Their sets are made
    from the parent table, each from its parent's set, along the parent
    chains of the violations only (see :meth:`~Poset._frozensets`), and
    their masses with one Fraction per distinct numerator.
    """
    masks, D, (a, b), kinds = _strict_gaps(nu, mu)
    found = {m: (kind, x, y) for kind, m, x, y in zip(kinds, masks, a, b) if kind}
    if not found:
        return WayBelowReport(True)
    P, S = nu.poset, masks[-1]
    uppers, parent, _ = P._upper_masks()
    hits = list(compress(range(len(uppers) - 1), map(found.__contains__, map(S.__and__, uppers))))
    chains = set()
    for u in hits:
        while u and u not in chains:
            chains.add(u)
            u = parent[u]
    sets = P._frozensets(sorted(chains))
    made = {k: Fraction(k, D) for k in {k for _, x, y in found.values() for k in (x, y)}}
    return WayBelowReport(False, tuple(
        {"kind": kind, "upper": sets[u], "lhs": made[x], "rhs": made[y]}
        for u in hits for kind, x, y in [found[uppers[u] & S]]
    ))


@dataclass(frozen=True)
class MixingReport:
    """Outcome of :func:`mixing_oracle`.

    ``epsilon`` is 1/k for the first feasible k, or None when no mix works.
    ``searched_up_to`` is the bound 2 * #U * D, with #U the number of upper
    sets of the poset and D the common denominator of both valuations.
    Nothing is searched: k comes in closed form and always falls within
    this bound, which is reported as a measure of the problem's size.
    """

    exists: bool
    epsilon: Optional[Fraction] = None
    searched_up_to: int = 0


def mixing_oracle(nu: Valuation, mu: Valuation) -> MixingReport:
    """Largest epsilon = 1/k with nu below (1-eps) mu + eps (bottom mass), if any.

    It refuses exactly where :func:`way_below` fails, on the same scan
    (:func:`_strict_gaps`): on a proper upper set U the mix has mass
    (1 - 1/k) mu(U), so k works iff k * (mu(U) - nu(U)) >= mu(U) on every
    such U; no k works if some U has nu(U) > mu(U), or nu(U) = mu(U) > 0.
    Otherwise the first feasible k is computed in closed form: max(1, max
    over mu(U) > 0 of ceil(mu(U) / (mu(U) - nu(U)))). It is at most D, the
    common denominator of the weights, by the gap argument: every strict
    mass gap is at least 1/D while the mix concedes at most eps, so k = D
    works whenever any k does. Both the refusal and k depend on the masses
    alone, so they are read off the traces of the upper sets on the two
    supports, which :func:`_strict_gaps` lists on the subposet they span
    when that is much shorter than P's own listing.
    """
    _, D, (a, b), kinds = _strict_gaps(nu, mu)
    bound = 2 * len(nu.poset._upper_masks()[0]) * D
    if any(kinds):
        return MixingReport(False, None, bound)
    # kinds has one entry per trace of a proper upper set, and so stops the zip
    k = max((-(-y // (y - x)) for x, y, _ in zip(a, b, kinds) if y), default=1)
    return MixingReport(True, Fraction(1, k), bound)


# -- pushforward --------------------------------------------------------------


def pushforward(r: MonotoneMap, nu: Valuation) -> Valuation:
    """Transport weights along a monotone map: mass lands on the image point."""
    if nu.poset != r.source:
        raise ValuationError("valuation does not live on the map's source")
    nums = [0] * len(r.target)
    for j, k in zip(r._cells, nu._nums):
        nums[j] += k
    return Valuation._of(r.target, *_lowest_terms(nu._den, nums))


def pushforward_preimage(r: MonotoneMap, nu: Valuation) -> Valuation:
    """Exact one-sided inverse of :func:`pushforward` for surjective maps.

    Every target atom is lifted to the least-index source element mapping
    onto it, so the answer is deterministic and pushing it forward returns
    the input exactly.
    """
    if nu.poset != r.target:
        raise ValuationError("valuation does not live on the map's target")
    missing = _unreached(r.target, r._cells)
    if missing:
        raise ValuationError(f"map is not surjective; unreached: {missing!r}")
    # the index of each target's first preimage: later entries of a dict win
    section = {j: i for i, j in reversed(list(enumerate(r._cells)))}
    nums = [0] * len(r.source)
    for j, k in enumerate(nu._nums):
        nums[section[j]] = k
    # distinct target atoms land on distinct sources: the same weights, in lowest terms
    return Valuation._of(r.source, nu._den, nums)


# -- grids ---------------------------------------------------------------------


def _require_denominator(N: int) -> None:
    if not isinstance(N, int) or N < 1:
        raise ValuationError("grid denominator must be a positive integer")


def _cuts(total: int, parts: int) -> List[tuple]:
    """Every ``parts``-tuple of naturals summing to ``total``,
    lexicographically, in stars-and-bars form: ``cuts[k][i]`` is the sum of
    the first k parts of tuple i, so ``cuts[0]`` is all 0, ``cuts[parts]``
    all ``total``, and part k of tuple i is ``cuts[k + 1][i] - cuts[k][i]``.

    The inner cuts of a tuple are a nondecreasing sequence in [0, total],
    and ``combinations_with_replacement`` lists those sequences in the
    lexicographic order of the tuples; they are read column by column. No
    recursion, and no Python object is kept per tuple: its row of parts is
    made only by :func:`_compositions`, for callers that need every tuple,
    and by :func:`_point`, for the ones a caller returns or visits.
    """
    count = comb(total + parts - 1, parts - 1)
    inner = zip(*combinations_with_replacement(range(total + 1), parts - 1))
    return [(0,) * count, *inner, (total,) * count]


def _grid_points(P: Poset, N: int) -> List[tuple]:
    """The grid of :func:`grid` as the cut columns of the compositions of
    ``N`` into one part per element (the weights times N, see
    :func:`_cuts`), once ``N``, ``P`` and the count pass. This is the one
    place ``GRID_CAP`` is read: every grid consumer obeys it."""
    _require_denominator(N)
    n = len(P.elements)
    if n == 0:
        raise ValuationError("grid needs a nonempty poset")
    count = comb(N + n - 1, n - 1)
    if count > GRID_CAP:
        raise ValuationError(
            f"grid would hold {count} valuations, above the cap of {GRID_CAP}"
        )
    return _cuts(N, n)


def _compositions(cuts: Sequence[Sequence[int]]) -> List[tuple]:
    """Every tuple of the cut columns ``cuts`` (see :func:`_cuts`) as a row
    of parts, in their order: part column k is cut column k + 1 minus cut
    column k, and the rows are those columns transposed. No Python loop per
    tuple."""
    return list(zip(*map(map, repeat(sub), cuts[1:], cuts)))


def _point(cuts: Sequence[Sequence[int]], i: int) -> tuple:
    """Point ``i`` of the cut columns ``cuts`` as a row of counts."""
    return tuple([b[i] - a[i] for a, b in zip(cuts, cuts[1:])])


def _grid_moves(P: Poset, N: int, cuts: Sequence[Sequence[int]]) -> tuple:
    """``(find, moves)`` on the points of the cut columns ``cuts`` (see
    :func:`_grid_points`), grid points closed upward (the whole grid or an
    upper set of it): ``find(p)`` is the index of the grid point p, a row
    of counts, among them, and ``moves(i)`` the indices of the points one
    unit move above point i, made when asked for. This is the one place
    grid points are keyed and moved. A caller that asks for a point's moves
    more than once keeps them itself: making a ``functools.cache`` takes
    microseconds, which shows on small grids.

    A move takes one unit (1/N) from an element x that holds some to an
    upper cover y of x. The moves generate the grid order: a point p sits
    below q iff an integer coupling carries p to q along x <= z pairs (by
    Strassen's theorem, and max flow has integral solutions); one unit's
    route x -> z with x < z can be cut to x -> y with x covered by y <= z,
    and the point after that move still lies below q. Each point is keyed
    by its counts read as digits in base N + 1, so a move adds
    (N+1)^y - (N+1)^x to the key. Summed by parts, with c_k the k-th cut
    column and d_k = (N+1)^k, the key is N * d_(n-1) plus c_k * (d_(k-1) -
    d_k) over the n - 1 inner cuts: one bulk pass per inner cut keys every
    point, and no row is made. O(M * n) for the keys of M points, then
    O(covers) per point moved.
    """
    digit = [(N + 1) ** x for x in range(len(P.elements))]
    up = P._cover_masks()
    # a move from x to y is open to point i iff cut columns x and x + 1 differ at i
    steps = [(cuts[x], cuts[x + 1], digit[y] - digit[x]) for x in range(len(up)) for y in _bits(up[x])]
    keys = [N * digit[-1]] * len(cuts[0])
    for c, d in zip(cuts[1:-1], map(sub, digit, digit[1:])):
        keys = list(map(add, keys, map(mul, c, repeat(d))))
    index = dict(zip(keys, range(len(keys))))

    def find(p: Sequence[int]) -> int:
        return index[sum(map(mul, p, digit))]

    def moves(i: int) -> List[int]:
        key = keys[i]
        return [index[key + step] for lo, hi, step in steps if hi[i] != lo[i]]

    return find, moves


def _grid_valuations(P: Poset, N: int, points: Iterable[tuple]) -> List[Valuation]:
    """The valuations of grid points: their counts over N in lowest terms."""
    return [Valuation._of(P, *_lowest_terms(N, p)) for p in points]


def _grid_masses(P: Poset, N: int, vals: Sequence[Valuation]) -> tuple:
    """``(cuts, tops, W, ones, X, S)``: the grid of ``P`` and ``N`` as cut
    columns (see :func:`_grid_points`), the integer upper-set mass rows
    ``tops`` of ``vals``, and the masses and supports of every point,
    packed. All masses are over one denominator D, the lcm of N and of the
    denominators of ``vals``. The upper-set limit is checked first.

    The points are held column by column: for each element, one integer
    with a field of B = 8W bits per point, point i in bits B * i up to
    B * i + B - 1. ``X[u]`` holds in field i D times the mass of point i on
    the ``u``-th upper set, and ``S[u]`` the number of elements of that set
    where point i is positive. Both come from one :func:`_mass_rows` pass
    that takes the packed columns as one row each, so one add per upper set
    sums the field of every point at once. No field carries into the next:
    a mass is at most D, and a support count at most N <= D, as each
    element of a support holds a unit at least.

    W is the least with D + 1 < 2^(B - 1). With ``ones`` the integer
    holding 1 in every field and G = ``ones << B - 1`` its guard bits,
    ``((X[u] | G) - y * ones) & G`` has the guard bit of point i set iff
    field i of ``X[u]`` is at least y, for 0 <= y <= D + 1. Proof: let
    h = 2^(B - 1). A field value x is at most D < h, so its guard bit is
    clear and ``| G`` makes the field x + h. Then (x + h) - y lies in
    [h - y, 2h), a range inside (0, 2^B) since y < h: each field's
    difference fits in its own B bits, so subtracting ``y * ones`` borrows
    nothing across fields, and the top bit of the difference is set iff
    x + h - y >= h, that is iff x >= y.

    The columns come straight from the cuts, with no row per point: each
    inner cut column is packed once, the count column of element k is
    packed cut k + 1 minus packed cut k (a point's cuts never decrease, so
    no field borrows), and its support column is the guard test at y = 1
    on the counts, shifted down to the field's low bit.
    """
    listing = P._upper_masks()
    cuts = _grid_points(P, N)
    D, ints = _common(vals, N)
    W = (D + 1).bit_length() // 8 + 1
    V = (N.bit_length() + 7) // 8  # the bytes of a count, at most W
    B, M = 8 * W, len(cuts[0])

    def packed(column) -> int:
        raw = bytes(column) if V == 1 else b"".join(map(int.to_bytes, column, repeat(V), repeat("little")))
        fields = bytearray(M * W)
        for j in range(V):
            fields[j::W] = raw[j::V]
        return int.from_bytes(fields, "little")

    ones = int.from_bytes((1).to_bytes(W, "little") * M, "little")
    guard = ones << B - 1
    packs = [0, *map(packed, cuts[1:-1]), N * ones]
    counts = list(map(sub, packs[1:], packs))
    supports = [((c | guard) - ones & guard) >> B - 1 for c in counts]
    *tops, X, S = _mass_rows([*ints, [c * (D // N) for c in counts], supports], listing)
    return cuts, tops, W, ones, X, S


def grid(P: Poset, N: int) -> List[Valuation]:
    """All valuations whose weights are multiples of 1/N, lexicographic order.

    The count is M = C(N + n - 1, n - 1) for n elements; more than
    ``GRID_CAP`` raises ValuationError before any point is built. Costs
    O(M * n).
    """
    return _grid_valuations(P, N, _compositions(_grid_points(P, N)))


def grid_poset(P: Poset, N: int) -> Poset:
    """The grid ordered by upper-set-mass comparison, as a poset.

    Elements are the :class:`Valuation` objects themselves (in grid order);
    covers of the result give the Hasse diagram of the discretized order.
    The order is the closure of the unit moves along covers (see
    :func:`_grid_moves`), so no two points are compared: O(M * (n + covers))
    to list the points and moves, then O(M + moves) ORs of M-bit masks.
    Held to ``GRID_CAP`` points.

    The unit moves are exactly the covers of the grid order, so they are
    handed over as its diagram (:meth:`~ordbench.posets.Poset._from_covers`).
    Proof: let y cover x in P and q = p + e_y - e_x. A chain of moves from p
    to q moves one unit along one cover of P per move, so the moves, read as
    edges of P's diagram, carry a net flow of one unit from x to y. Covers
    only go up, so the diagram has no cycle and no part of the chain can
    cancel: the moves form a single up-path x -> y along covers. As y covers
    x, that path is the one step x -> y, so the chain is one move and no
    grid point lies strictly between p and q. Distinct covers give distinct
    moves, so no move is listed twice.
    """
    cuts = _grid_points(P, N)
    _, moves = _grid_moves(P, N, cuts)
    succ = list(map(moves, range(len(cuts[0]))))
    return Poset._from_covers(tuple(_grid_valuations(P, N, _compositions(cuts))), succ)


def minimal_upper_bounds_grid(v1: Valuation, v2: Valuation, N: int) -> List[Valuation]:
    """Minimal grid valuations dominating both inputs; possibly empty.

    Domination and minimality are both with respect to the upper-set-mass
    order; results come back in grid enumeration order. The upper bounds are
    found on the packed masses of :func:`_grid_masses`: one add per upper
    set covers every point, then one guarded subtract per upper set, ANDed
    into one mask, tests them all against the larger of the two input
    masses. The bounds form an upper set of the grid, so a bound is minimal
    iff no other bound reaches it in one unit move, and the moves of the
    bounds alone land on bounds (see :func:`_grid_moves`): O(K * (n +
    covers)) for K bounds, and no pairwise scan. The bounds' cut columns
    are picked out of the grid's, and only the bounds get rows. Held to
    ``GRID_CAP`` points.
    """
    P = _require_same_poset(v1, v2)
    cuts, (lo1, lo2), W, ones, X, _ = _grid_masses(P, N, (v1, v2))
    guard = bound = ones << 8 * W - 1
    for x, y in zip(X, map(max, lo1, lo2)):
        bound &= (x | guard) - y * ones
    # a guard bit is the top bit of its field's last byte
    picked = bound.to_bytes(len(cuts[0]) * W, "little")[W - 1 :: W]
    bounds = [list(compress(c, picked)) for c in cuts]
    _, moves = _grid_moves(P, N, bounds)
    beaten = {j for i in range(len(bounds[0])) for j in moves(i)}
    return _grid_valuations(P, N, [p for j, p in enumerate(_compositions(bounds)) if j not in beaten])


def tightly_below(mu: Valuation, nu: Valuation) -> bool:
    """Dominated by ``nu``, with single-point support on every tight upper set.

    ``mu`` must sit below ``nu`` in the upper-set-mass order, and on every
    proper upper set where it already spends nu's full (positive) mass, its
    support inside that set must be a single element. The second condition
    is what lets several distinct maximal grid approximants sit below a grid
    valuation: under plain domination the valuation itself would be the one
    maximum of its grid lower set, and the multi-witness behavior the demos
    document (four distinct maximal approximants on the diamond) could never
    appear.

    Both conditions read only the masses of the two valuations and the lower
    support, so they are decided on the traces of the upper sets on the
    union S of the two supports (see :func:`_trace_masses`): on the upper
    sets of the subposet P|S when P has more than ``TRACE_FACTOR * 2^|S|``
    upper sets, with S itself counted when a minimal element of P lies
    outside it, and on P's own upper sets otherwise.
    """
    _require_same_poset(mu, nu)
    _, (a, b), masks, proper = _trace_masses(mu, nu)
    return _tight(a[:proper], b, mu._support_mask(), masks)


def _tight(a: tuple, b: tuple, supp: int, masks: List[int]) -> bool:
    """:func:`tightly_below` on kernel rows; ``supp`` is the lower support,
    and ``a`` holds the rows of the proper upper sets alone."""
    return all(
        x < y or (x == y and (x == 0 or bin(supp & m).count("1") == 1))
        for m, x, y in zip(masks, a, b)
    )


def maximal_below_grid(nu: Valuation, N: int) -> List[Valuation]:
    """Maximal grid valuations tightly below ``nu`` (see :func:`tightly_below`).

    Always nonempty on a pointed poset, since the unit mass at bottom is
    tightly below everything. Results come back in grid enumeration order.
    The tight set is found on the packed masses of :func:`_grid_masses`,
    O(#U) big-integer operations for #U upper sets, and its maximal points
    by a climb, O(#U) more per tight point visited, with no pairwise scan
    (see :func:`_maximal_below`). Held to ``GRID_CAP`` points.
    """
    return next(_maximal_below(nu.poset, N, [nu]))


def _maximal_below(P: Poset, N: int, targets: Sequence[Valuation]) -> Iterator[List[Valuation]]:
    """For each valuation of ``targets`` on P in turn, lazily, the answer of
    :func:`maximal_below_grid`. The grid points and their packed masses and
    supports are built once for all the targets (see :func:`_grid_masses`),
    so a scan over many targets (the whole grid, in the demo's attempt c)
    costs one :func:`_mass_rows` pass, then per target O(#U) big-integer
    operations for the tight set and O(#U) more per tight point visited.

    The rule of :func:`_tight`, on every point at once: a point fails a
    proper upper set where the target holds y if its mass x there exceeds
    y, or if x == y > 0 and its support meets the set in two or more
    elements (one at least, as x > 0).

    The maximal points come from a climb over the tight points ``left``:
    from the first point left, step to the first other point left at least
    as heavy on every upper set (one AND of guard tests per upper set)
    until there is none, keep the point reached, and drop from ``left``
    every point at most as heavy as it, itself included. Distinct points
    have distinct mass rows, so each step climbs strictly, and the point
    reached is maximal among the points left. A tight point above a point
    left is left too: a dropped point lies below a kept one, and so would
    every point below it. So each point kept is maximal among all the tight
    points. Every point dropped lies below a kept one, so every maximal
    point is kept; and the points a climb visits are dropped after it, so
    each tight point is visited once at most. Only the maximal points get
    rows (see :func:`_point`).
    """
    cuts, tops, W, ones, X, S = _grid_masses(P, N, targets)
    B = 8 * W
    guard, low = ones << B - 1, (1 << B - 1) - 1
    # the empty set and the carrier hold the same masses for every point
    XG = [x | guard for x in X[1:-1]]
    crowded = [(s | guard) - 2 * ones & guard for s in S[1:-1]]
    for top in tops:
        left, maximal = guard, []
        for xg, many, y in zip(XG, crowded, top[1:-1]):
            left &= ~(xg - (y + 1) * ones | (xg - y * ones & many if y else 0))
        while left:
            heavier = left & -left
            while heavier:  # climb from the first point left to a maximal one
                i = (heavier & -heavier).bit_length() - 1
                row = [xg >> i - B + 1 & low for xg in XG]
                heavier = reduce(and_, [xg - y * ones for xg, y in zip(XG, row)], left ^ 1 << i)
            maximal.append(i // B)
            # keep the points left that are heavier than i somewhere
            left &= reduce(or_, [xg - (y + 1) * ones for xg, y in zip(XG, row)], 0)
        yield _grid_valuations(P, N, [_point(cuts, i) for i in sorted(maximal)])


# -- deliberately broken rounding schemes --------------------------------------


def _units_below(xs: Iterable[int], D: int, N: int) -> List[int]:
    """The one strict round-down: for each x, the number of whole 1/N units
    strictly below x/D, floored at 0. ``D`` and ``N`` are positive; a
    positive multiple of 1/N loses one unit."""
    return [max(-(-x * N // D) - 1, 0) for x in xs]


def round_down_strict(v: Fraction, step: Fraction) -> Fraction:
    """Largest multiple of ``step`` that is zero or strictly below ``v``.

    In particular a positive multiple of the step maps to the next multiple
    down (round_down_strict(1/2, 1/2) == 0), never to itself.
    """
    (p, q), (s, t) = _ratio(v), _ratio(step)
    if s <= 0:
        raise ValuationError("step must be positive")
    # v / step = p * t / (q * s)
    (k,) = _units_below((p,), q * s, t)
    return Fraction(k * s, t)


def _require_pointed(P: Poset) -> None:
    if not P.is_pointed:
        raise ValuationError("this construction needs a pointed poset")


@dataclass(frozen=True)
class SetFunctionRounding:
    """Upper-set masses rounded strictly down to a grid, plus a witness.

    ``values`` maps each upper set to its rounded mass. ``witness``, when
    present, is a pair of upper sets (U, V) on which the rounded function
    fails modularity: f(U or V) + f(U and V) differs from f(U) + f(V).
    """

    values: Dict[frozenset, Fraction]
    witness: Optional[Tuple[frozenset, frozenset]] = None


def failed_deflation_a(nu: Valuation, N: int) -> SetFunctionRounding:
    """Round every upper-set mass strictly down to multiples of 1/N.

    The result is monotone but in general not modular; the witness search
    scans upper-set pairs in enumeration order and reports the first failure.
    The rounded masses are compared as integer counts of 1/N units.
    """
    P = nu.poset
    _require_pointed(P)
    _require_denominator(N)
    masks = P._upper_masks()[0]
    (row,) = _mass_rows([nu._nums], P._upper_masks())
    units = dict(zip(masks, _units_below(row, nu._den, N)))
    sets = dict(zip(masks, P.upper_sets()))
    witness = next(
        (
            (sets[u], sets[v])
            for u, v in combinations(masks, 2)
            if units[u | v] + units[u & v] != units[u] + units[v]
        ),
        None,
    )
    return SetFunctionRounding(
        values={sets[m]: Fraction(k, N) for m, k in units.items()}, witness=witness
    )


@dataclass(frozen=True)
class WeightRounding:
    """Weights rounded strictly down with the residue dumped on bottom.

    ``witness``, when present, is a pair of grid valuations ordered by the
    upper-set-mass order whose roundings are not (a monotonicity failure of
    the scheme, not of the inputs).
    """

    rounded: Valuation
    witness: Optional[Tuple[Valuation, Valuation]] = None


def _reach(succ: Callable[[int], List[int]], i: int) -> set:
    """The indices reachable from ``i`` along ``succ``, ``i`` included."""
    seen = {i}
    stack = [i]
    while stack:
        for j in succ(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def failed_deflation_b(nu: Valuation, N: int) -> WeightRounding:
    """Round non-bottom weights strictly down to 1/N, residue to bottom.

    The output is always dominated by the input, but the scheme is not
    monotone; the witness search runs over ordered grid pairs in enumeration
    order and reports the first order-violating image pair. The input and
    every grid point are rounded by :func:`_units_below`; on the grid a
    count c off bottom becomes max(c - 1, 0).

    Whether a witness exists is decided first, by the move rule: a unit
    move from p to q, one unit from x to an upper cover y (see
    :func:`_grid_moves`), breaks the rounded order iff x is not bottom,
    p[x] >= 2 and p[y] = 0. Then the image loses a unit on x, y's image
    stays 0 and the unit goes to bottom; in every other case the image
    moves a unit from x to y, or y gains one from bottom, or the image
    stays. The moves generate the grid order and the image order is
    transitive, so a witness exists iff some move breaks: iff N >= 2 and
    some non-bottom element has an upper cover (2 units on it, the rest on
    bottom). Without one the answer costs the listing of the points, O(M *
    n).

    With one, the points are taken in turn. The points above point i are
    walked along the unit moves, and i is skipped unless one of them is the
    source of a breaking move. If none is, every move among them keeps the
    image order, and as the moves generate the grid order, every point
    above i has its image above i's: i has no witness. Otherwise the points
    above i's image are walked too, and the least j above i whose image is
    not above i's image closes the search. That is O(M) per point until the
    first witness, in O(M * covers) memory. Where the element order extends
    P's order, a move lowers a point's place in the listing, so the points
    before the first breaking source are all skipped and that source is
    the first point tested, which has a witness: the image is walked once.
    A point's image, unit moves and source test are made when the search
    first reaches it, and kept, so the points it never reaches cost only
    their cut columns and their keys (see :func:`_grid_moves`), and no row.
    Held to ``GRID_CAP`` points.
    """
    P = nu.poset
    _require_pointed(P)
    _require_denominator(N)
    bot = P.index(P.bottom())

    def to_bottom(xs: Sequence[int], D: int) -> tuple:
        image = _units_below(xs, D, N)
        image[bot] = N - (sum(image) - image[bot])
        return tuple(image)

    rounded = _grid_valuations(P, N, [to_bottom(nu._nums, nu._den)])[0]
    cuts = _grid_points(P, N)
    # the move rule reads the cut columns of x off bottom and of its upper cover y
    arcs = [(x, y) for x, c in enumerate(P._cover_masks()) if x != bot for y in _bits(c)]
    rules = [(cuts[x], cuts[x + 1], cuts[y], cuts[y + 1]) for x, y in arcs]
    if N < 2 or not rules:
        return WeightRounding(rounded=rounded, witness=None)
    find, moves = _grid_moves(P, N, cuts)
    moves = cache(moves)
    image = cache(lambda i: find(to_bottom(_point(cuts, i), N)))
    # point i is the source of a breaking move: p[x] >= 2 and p[y] = 0
    breaks = cache(lambda i: any(b[i] - a[i] > 1 and c[i] == d[i] for a, b, c, d in rules))
    for i in range(len(cuts[0])):
        up = _reach(moves, i)
        if any(map(breaks, up)):
            above = _reach(moves, image(i))
            failed = [j for j in up if image(j) not in above]
            if failed:
                witness = _grid_valuations(P, N, (_point(cuts, i), _point(cuts, min(failed))))
                return WeightRounding(rounded=rounded, witness=tuple(witness))
    return WeightRounding(rounded=rounded, witness=None)


@dataclass(frozen=True)
class LargestBelowReport:
    """Maximal grid approximants of a valuation, counted.

    ``unique`` is False precisely when "the largest grid valuation below"
    is ill-defined for this input.
    """

    members: Tuple[Valuation, ...]
    cardinality: int
    unique: bool


def failed_deflation_c(nu: Valuation, N: int) -> LargestBelowReport:
    """Count the maximal grid approximants; more than one breaks uniqueness."""
    _require_pointed(nu.poset)
    members = tuple(maximal_below_grid(nu, N))
    return LargestBelowReport(members, len(members), len(members) == 1)
