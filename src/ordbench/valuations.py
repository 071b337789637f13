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
transport plans, reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, compress, repeat
from math import comb, gcd, lcm
from operator import and_, le, or_, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .posets import MonotoneMap, Poset, PosetError, _bits, _closure, _unreached

GRID_CAP = 100_000


class ValuationError(ValueError):
    """Malformed valuation data or an unsatisfied precondition."""


class Valuation:
    """Exact-rational probability weights on the elements of a poset.

    Accepts a dict (missing elements default to weight zero) or a sequence
    aligned with the element order. Weights must be nonnegative and sum to
    exactly one. Only the given entries of a dict are converted, and only
    nonzero weights are checked and summed; every other element shares one
    zero.

    The weights are stored as integer numerators over one denominator D,
    the lcm of the reduced denominators of the nonzero weights, so equal
    valuations have equal numerators. ``weights``, a tuple of
    ``Fraction(k, D)``, is built on first use.
    """

    __slots__ = ("poset", "_den", "_nums", "_weights")

    def __init__(self, poset: Poset, weights):
        if isinstance(weights, dict):
            given = sorted((poset.index(e), w) for e, w in weights.items())
        else:
            given = list(enumerate(weights))
        fracs = [(i, w if type(w) is Fraction else Fraction(w)) for i, w in given]
        if not isinstance(weights, dict) and len(fracs) != len(poset.elements):
            raise ValuationError(f"expected {len(poset.elements)} weights, got {len(fracs)}")
        ratios = [(i, (f.numerator, f.denominator)) for i, f in fracs]
        self.poset = poset
        self._den, self._nums = _checked_ints(poset, ratios)
        self._weights = None

    @classmethod
    def _of(cls, poset: Poset, D: int, nums) -> "Valuation":
        """Trusted constructor for integer weights ``nums`` over ``D`` already
        checked and in lowest terms: nonnegative, summing to D, and D the lcm
        of the reduced denominators of the nonzero ones."""
        self = object.__new__(cls)
        self.poset, self._den, self._nums, self._weights = poset, D, tuple(nums), None
        return self

    @property
    def weights(self) -> Tuple[Fraction, ...]:
        if self._weights is None:
            self._weights = tuple(Fraction(k, self._den) for k in self._nums)
        return self._weights

    def weight(self, x) -> Fraction:
        return Fraction(self._nums[self.poset.index(x)], self._den)

    @property
    def support(self) -> tuple:
        return tuple(e for e, k in zip(self.poset.elements, self._nums) if k)

    def _support_mask(self) -> int:
        return sum([1 << i for i, k in enumerate(self._nums) if k])

    def mass(self, U: Iterable) -> Fraction:
        """Total weight of a set of elements (typically an upper set)."""
        return Fraction(sum(self._nums[self.poset.index(x)] for x in U), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Valuation):
            return False
        return self._den == other._den and self._nums == other._nums and self.poset == other.poset

    def __hash__(self) -> int:
        return hash((self.poset, self._den, self._nums))

    def __str__(self) -> str:
        # the text of format_valuation, without its name check
        D, names = self._den, self.poset.elements
        return " ".join(f"{e}:{_spelled(k, D)}" for e, k in zip(names, self._nums) if k)

    def __repr__(self) -> str:
        return f"Valuation({str(self)!r})"


def _spelled(k: int, D: int) -> str:
    """``str(Fraction(k, D))`` for k > 0, without building the Fraction."""
    g = gcd(k, D)
    return f"{k // g}" if g == D else f"{k // g}/{D // g}"


def _lcm(denominators: Iterable[int], D: int = 1) -> int:
    """The lcm of ``D`` and ``denominators``, folded one at a time."""
    for q in denominators:
        D = lcm(D, q)
    return D


def _checked_ints(P: Poset, ratios: Sequence[Tuple[int, Tuple[int, int]]]) -> tuple:
    """``(D, nums)``: the weights of ``(i, (p, q))`` pairs, p/q (q > 0) the
    weight of element ``i`` and zero that of every other, as integers over
    D in lowest terms (see :func:`_lowest_terms`). Refuses a negative weight,
    naming the first in element order, then a total other than one."""
    D = _lcm(q for _, (p, q) in ratios if p)
    nums = [0] * len(P.elements)
    for i, (p, q) in ratios:
        nums[i] = p * (D // q)
    if min(nums, default=0) < 0:
        e, k = next((e, k) for e, k in zip(P.elements, nums) if k < 0)
        raise ValuationError(f"negative weight at {e!r}: {Fraction(k, D)}")
    total = sum(nums)
    if total != D:
        raise ValuationError(f"weights sum to {Fraction(total, D)}, not 1")
    return _lowest_terms(D, nums)


def _lowest_terms(D: int, nums: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """``D`` and the numerators ``nums`` over it, both divided by their gcd:
    D is then the lcm of the reduced denominators of the nonzero weights,
    so equal weights give equal integers."""
    g = D
    for k in nums:
        if g == 1:
            return D, tuple(nums)
        g = gcd(g, k)
    return D // g, tuple([k // g for k in nums])


def dirac(P: Poset, x) -> Valuation:
    """Unit mass at a single element."""
    return Valuation(P, {x: Fraction(1)})


def _ratio(frac: str) -> Tuple[int, int]:
    """A ``(p, q)``, q > 0, of a fraction text, read as ``Fraction`` reads it,
    with its errors.

    A plain ASCII ``p`` or ``p/q`` with q nonzero is read by ``int`` alone,
    and left unreduced: :func:`_checked_ints` reduces the whole valuation.
    ``Fraction`` reads the same digit strings with ``int``, p first, so a
    number past ``sys.get_int_max_str_digits()`` gets the same error either
    way. Every other spelling goes to ``Fraction``: signs, decimals,
    exponents, underscores, non-ASCII digits, a zero denominator, garbage.
    """
    p, slash, q = frac.partition("/")
    if frac.isascii() and p.isdigit() and (not slash or q.isdigit() and q.strip("0")):
        return int(p), int(q or 1)
    f = Fraction(frac)
    return f.numerator, f.denominator


def _ratios(P: Poset, entries: Iterable[Tuple[str, str]], kind: str) -> Dict[str, Tuple[int, int]]:
    """Read ``(where, entry)`` pairs of ``name:fraction`` entries into a dict
    from name to the ``(p, q)`` of :func:`_ratio`.

    Errors are prefixed by ``where`` and call the entry a ``kind``. Names
    split at the last colon, as a fraction never holds one.
    """
    out: dict = {}
    for where, entry in entries:
        name, colon, frac = entry.rpartition(":")
        name, frac = name.strip(), frac.strip()
        if not colon or not name or not frac:
            raise ValuationError(f"{where}malformed {kind} {entry!r}, expected elem:p/q")
        if name not in P:
            raise ValuationError(f"{where}unknown element {name!r}")
        if name in out:
            raise ValuationError(f"{where}repeated element {name!r}")
        try:
            out[name] = _ratio(frac)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValuationError(f"{where}bad fraction in {entry!r}: {exc}") from None
    return out


def parse_valuation(P: Poset, text: str) -> Valuation:
    """Read space-separated ``elem:p/q`` entries; omitted elements get 0.

    The parser insists on known elements, no repeats, nonnegative fractions,
    and a total of exactly one.
    """
    entries = (("", token) for token in text.split())
    ratios = [(P.index(name), r) for name, r in _ratios(P, entries, "entry").items()]
    return Valuation._of(P, *_checked_ints(P, ratios))


def format_valuation(v: Valuation) -> str:
    """Inverse of :func:`parse_valuation`: nonzero entries in element order.

    Raises PosetError on a name it writes that the parser, which splits at
    whitespace, cannot read back: an empty one, or one holding whitespace.
    """
    for e in v.support:
        if str(e).split() != [str(e)]:
            raise PosetError(f"the valuation format cannot write the name {str(e)!r}")
    return str(v)


def _require_same_poset(nu: Valuation, mu: Valuation) -> Poset:
    if nu.poset is not mu.poset and nu.poset != mu.poset:
        raise ValuationError("valuations live on different posets")
    return nu.poset


def _common(vals: Sequence[Valuation], D: int = 1) -> Tuple[int, List[Sequence[int]]]:
    """``(L, ints)``: L the lcm of ``D`` and the denominators of ``vals``, and
    ``ints[v][i] == L * vals[v].weights[i]``, with one multiply per entry of
    a valuation held over a smaller denominator."""
    D = _lcm([v._den for v in vals], D)
    return D, [v._nums if v._den == D else [k * (D // v._den) for k in v._nums] for v in vals]


def _upper_masses(vals: Sequence[Valuation]) -> Tuple[int, List[tuple]]:
    """The one upper-set mass kernel: integer masses over a common denominator.

    Brings the numerators of ``vals``, valuations on one poset, to one
    denominator ``D``, the lcm of theirs (see :func:`_common`). Returns
    ``(D, rows)`` where ``rows[v][u]`` is ``D`` times the mass of ``vals[v]``
    on the ``u``-th upper set of the poset's listing (see
    :meth:`~Poset._upper_masks`). The carrier is last, so ``rows[v][:-1]``
    are the masses of the proper upper sets.
    """
    D, ints = _common(vals)
    return D, _mass_rows(ints, vals[0].poset._upper_masks())


def _mass_rows(ints: Sequence[Sequence[int]], listing: tuple) -> List[tuple]:
    """``rows[v][u]``: the sum of the integer weights ``ints[v]`` on the
    ``u``-th upper set of ``listing``.

    ``listing`` is ``(masks, parent, added)`` from
    :meth:`~Poset._upper_masks`: the empty set comes first, and upper set
    ``u`` is upper set ``parent[u] < u`` plus the element ``added[u]``. So
    ``mass[u] = mass[parent[u]] + w[added[u]]`` in listing order: one add
    per row and upper set, whatever the upper sets' sizes. A row only has
    its entries added, so it may hold any integers that add as wanted: the
    valuations' numerators (the order and strict-approximation queries), or
    the grid's packed columns, one integer per element with a field per
    grid point (see :func:`_grid_masses`), where each add sums every point
    at once.
    """
    _, parent, added = listing
    rows = []
    for w in ints:
        mass = [0] * len(parent)
        for u in range(1, len(mass)):
            mass[u] = mass[parent[u]] + w[added[u]]
        rows.append(tuple(mass))
    return rows


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
    augmenting paths the flow found; it is work done, not part of the answer.
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

    Nodes are the left support, the right support (same element order), the
    source and the sink, numbered in that order. Source edges carry the left
    numerators, sink edges the right ones, both over D; a middle edge joins
    i to every j above it in the right support, with capacity D, which
    never binds as the total flow is at most D. Residuals sit in flat lists:
    edge ``e`` and its reverse ``e ^ 1``. Every adjacency list is in node
    order, so the breadth-first searches, and with them the plan, are fixed
    by the input alone.
    """
    P = nu.poset
    D, (a, b) = _common((nu, mu))
    left = [i for i, x in enumerate(a) if x]
    right = [j for j, y in enumerate(b) if y]
    L = len(left)
    node = {j: L + k for k, j in enumerate(right)}
    src = L + len(right)
    snk = src + 1
    adj: List[List[int]] = [[] for _ in range(snk + 1)]
    head: List[int] = []
    res: List[int] = []

    def edge(u: int, v: int, c: int) -> None:
        adj[u].append(len(head))
        head.append(v)
        res.append(c)
        adj[v].append(len(head))
        head.append(u)
        res.append(0)

    pairs = []
    right_mask = mu._support_mask()
    for k, i in enumerate(left):
        for j in _bits(P._up[i] & right_mask):
            edge(k, node[j], D)
            pairs.append((i, j))
    for k, i in enumerate(left):
        edge(src, k, a[i])
    for j in right:
        edge(node[j], snk, b[j])

    total = augmentations = 0
    while True:
        via = [-1] * (snk + 1)  # the edge each reached node was reached by
        via[src] = -2
        queue = [src]
        for u in queue:
            for e in adj[u]:
                v = head[e]
                if via[v] == -1 and res[e]:
                    via[v] = e
                    queue.append(v)
            if via[snk] != -1:  # sink edges come last, so u is done anyway
                break
        if via[snk] == -1:
            break
        path = []
        v = snk
        while v != src:
            e = via[v]
            path.append(e)
            v = head[e ^ 1]
        bottleneck = min([res[e] for e in path])
        for e in path:
            res[e] -= bottleneck
            res[e ^ 1] += bottleneck
        total += bottleneck
        augmentations += 1
    if total == D:
        plan = {pair: res[2 * m + 1] for m, pair in enumerate(pairs) if res[2 * m + 1]}
        return D, plan, 0, augmentations
    cut = sum([1 << i for k, i in enumerate(left) if via[k] != -1])
    return D, None, cut, augmentations


def _oracle_leq(nu: Valuation, mu: Valuation) -> bool:
    return all(map(le, *_upper_masses((nu, mu))[1]))


def stochastic_leq(nu: Valuation, mu: Valuation, *, mode: str = "flow") -> bool:
    """Decide whether ``nu`` sits below ``mu`` in the upper-set-mass order.

    ``mode="flow"`` solves the exact transport problem (works at any poset
    size): by Strassen's theorem ``nu <= mu`` iff a coupling moves nu's mass
    only upward onto mu, i.e. iff a max flow carries all of nu's mass. The
    flow is Edmonds-Karp in integers, on the two valuations' numerators
    brought to D, the lcm of their denominators, with one multiply per
    entry, on the support graph: nodes for supp(nu), supp(mu), a source and
    a sink, and an edge from i to each j >= i in supp(mu). It allocates
    nothing of size n x n and builds no ``Fraction``. ``mode="oracle"``
    quantifies over all upper sets (needs the upper-set enumeration to be
    feasible); ``mode="both"`` runs the two and insists they agree.
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
    transport = {(P.elements[i], P.elements[j]): Fraction(k, D) for (i, j), k in plan.items()}
    return StochasticOrderReport(True, transport, None, augmentations)


# -- strict approximation -----------------------------------------------------


def _strict_gaps(nu: Valuation, mu: Valuation) -> Tuple[List[int], int, List[tuple], list]:
    """The one strict-approximation scan: ``(masks, D, (a, b), kinds)``.

    Checks that both valuations live on one pointed poset, lists its upper
    sets ``masks`` and the integer mass rows ``a`` of ``nu`` and ``b`` of
    ``mu`` over ``D`` (see :func:`_upper_masses`). ``kinds[u]`` labels the
    proper upper set ``masks[u]`` by how it breaks nu << mu:
    ``support_on_null`` (left mass where the right has none),
    ``mass_exceeds`` (left mass above right) or ``equal_mass`` (masses equal
    and positive, which strictness forbids); None when it does not.
    """
    P = _require_same_poset(nu, mu)
    if not P.is_pointed:
        raise ValuationError("strict approximation needs a pointed poset")
    D, (a, b) = _upper_masses((nu, mu))
    kinds = [
        "support_on_null" if x and not y
        else "mass_exceeds" if x > y
        else "equal_mass" if x == y > 0
        else None
        for x, y in zip(a[:-1], b[:-1])
    ]
    return P._upper_masks()[0], D, (a, b), kinds


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
    a directed family with supremum mu.
    """
    return way_below_report(nu, mu).result


def way_below_report(nu: Valuation, mu: Valuation) -> WayBelowReport:
    masks, D, (a, b), kinds = _strict_gaps(nu, mu)
    P = nu.poset
    violations = tuple(
        {"kind": kind, "upper": P._set_of(m), "lhs": Fraction(x, D), "rhs": Fraction(y, D)}
        for kind, m, x, y in zip(kinds, masks, a, b)
        if kind
    )
    return WayBelowReport(not violations, violations)


@dataclass(frozen=True)
class MixingReport:
    """Outcome of :func:`mixing_oracle`.

    ``epsilon`` is 1/k for the first feasible k, or None when no mix works.
    ``searched_up_to`` is the bound 2 * #U * D, with #U the number of upper
    sets and D the common denominator of both valuations. Nothing is
    searched: k comes in closed form and always falls within this bound,
    which is reported as a measure of the problem's size.
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
    works whenever any k does.
    """
    masks, D, (a, b), kinds = _strict_gaps(nu, mu)
    bound = 2 * len(masks) * D
    if any(kinds):
        return MixingReport(False, None, bound)
    k = max((-(-y // (y - x)) for x, y in zip(a[:-1], b[:-1]) if y), default=1)
    return MixingReport(True, Fraction(1, k), bound)


# -- pushforward --------------------------------------------------------------


def pushforward(r: MonotoneMap, nu: Valuation) -> Valuation:
    """Transport weights along a monotone map: mass lands on the image point."""
    if nu.poset != r.source:
        raise ValuationError("valuation does not live on the map's source")
    Y = r.target
    nums = [0] * len(Y.elements)
    for y, k in zip(r.values, nu._nums):
        nums[Y.index(y)] += k
    return Valuation._of(Y, *_lowest_terms(nu._den, nums))


def pushforward_preimage(r: MonotoneMap, nu: Valuation) -> Valuation:
    """Exact one-sided inverse of :func:`pushforward` for surjective maps.

    Every target atom is lifted to the least-index source element mapping
    onto it, so the answer is deterministic and pushing it forward returns
    the input exactly.
    """
    if nu.poset != r.target:
        raise ValuationError("valuation does not live on the map's target")
    X = r.source
    missing = _unreached(r.target, r.values)
    if missing:
        raise ValuationError(f"map is not surjective; unreached: {missing!r}")
    # the index of each target's first preimage: later entries of a dict win
    section = {y: i for i, y in reversed(list(enumerate(r.values)))}
    nums = [0] * len(X.elements)
    for y, k in zip(r.target.elements, nu._nums):
        nums[section[y]] = k
    # distinct target atoms land on distinct sources: the same weights, in lowest terms
    return Valuation._of(X, nu._den, nums)


# -- grids ---------------------------------------------------------------------


def _compositions(total: int, parts: int) -> List[tuple]:
    """Every ``parts``-tuple of naturals summing to ``total``, lexicographically.

    Stars and bars: the partial sums of the first ``parts - 1`` parts are a
    nondecreasing sequence in [0, total], and ``combinations_with_replacement``
    lists those sequences in the lexicographic order the parts need. The
    sequences are read column by column: with a column of ``total`` after
    them, part k is cut column k minus cut column k - 1 (zero for k = 0),
    and the points are the rows of the part columns. No recursion, and no
    Python loop per point.
    """
    count = comb(total + parts - 1, parts - 1)
    cuts = [*zip(*combinations_with_replacement(range(total + 1), parts - 1)), (total,) * count]
    return list(zip(*map(map, repeat(sub), cuts, [(0,) * count, *cuts])))


def _require_denominator(N: int) -> None:
    if not isinstance(N, int) or N < 1:
        raise ValuationError("grid denominator must be a positive integer")


def _grid_points(P: Poset, N: int) -> List[tuple]:
    """The grid of :func:`grid` as integer compositions of ``N`` (the weights
    times N), lexicographically, once ``N``, ``P`` and the count pass. This
    is the one place ``GRID_CAP`` is read: every grid consumer obeys it."""
    cap = GRID_CAP
    _require_denominator(N)
    n = len(P.elements)
    if n == 0:
        raise ValuationError("grid needs a nonempty poset")
    count = comb(N + n - 1, n - 1)
    if count > cap:
        raise ValuationError(
            f"grid would hold {count} valuations, above the cap of {cap}"
        )
    return _compositions(N, n)


def _grid_moves(P: Poset, N: int, points: List[tuple]) -> List[List[int]]:
    """For each of ``points``, grid points closed upward (the whole grid or
    an upper set of it), the indices of those one unit move above it.

    A move takes one unit (1/N) from an element x that holds some to an
    upper cover y of x. The moves generate the grid order: a point p sits
    below q iff an integer coupling carries p to q along x <= z pairs (by
    Strassen's theorem, and max flow has integral solutions); one unit's
    route x -> z with x < z can be cut to x -> y with x covered by y <= z,
    and the point after that move still lies below q. Each point is keyed
    by its counts read as digits in base N + 1, so a move adds
    (N+1)^y - (N+1)^x to the key. O(M * (n + covers)) for M points.
    """
    digit = [(N + 1) ** x for x in range(len(P.elements))]
    keys = [sum([k * d for k, d in zip(p, digit)]) for p in points]
    index = {key: i for i, key in enumerate(keys)}
    steps = [
        (x, digit[y] - digit[x])
        for x, covers in enumerate(P._cover_masks())
        for y in _bits(covers)
    ]
    return [[index[key + step] for x, step in steps if p[x]] for p, key in zip(points, keys)]


def _grid_valuations(P: Poset, N: int, points: Iterable[tuple]) -> List[Valuation]:
    """The valuations of grid points: their counts over N in lowest terms."""
    return [Valuation._of(P, *_lowest_terms(N, p)) for p in points]


def _grid_masses(P: Poset, N: int, vals: Sequence[Valuation]) -> tuple:
    """``(points, tops, W, ones, X, S)``: the grid points of ``P`` and ``N``
    (see :func:`_grid_points`), the integer upper-set mass rows ``tops`` of
    ``vals``, and the masses and supports of every point, packed. All masses
    are over one denominator D, the lcm of N and of the denominators of
    ``vals``. The upper-set limit is checked first.

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
    """
    listing = P._upper_masks()
    points = _grid_points(P, N)
    D, ints = _common(vals, N)
    W = (D + 1).bit_length() // 8 + 1
    V = (N.bit_length() + 7) // 8  # the bytes of a count, at most W

    def packed(column) -> int:
        raw = bytes(column) if V == 1 else b"".join(map(int.to_bytes, column, repeat(V), repeat("little")))
        fields = bytearray(len(points) * W)
        for j in range(V):
            fields[j::W] = raw[j::V]
        return int.from_bytes(fields, "little")

    columns = list(zip(*points))
    supports = [packed(map(bool, c)) for c in columns]
    *tops, X, S = _mass_rows([*ints, [packed(c) * (D // N) for c in columns], supports], listing)
    return points, tops, W, packed([1] * len(points)), X, S


def grid(P: Poset, N: int) -> List[Valuation]:
    """All valuations whose weights are multiples of 1/N, lexicographic order.

    The count is M = C(N + n - 1, n - 1) for n elements; more than
    ``GRID_CAP`` raises ValuationError before any point is built. Costs
    O(M * n).
    """
    return _grid_valuations(P, N, _grid_points(P, N))


def grid_poset(P: Poset, N: int) -> Poset:
    """The grid ordered by upper-set-mass comparison, as a poset.

    Elements are the :class:`Valuation` objects themselves (in grid order);
    covers of the result give the Hasse diagram of the discretized order.
    The order is the closure of the unit moves along covers (see
    :func:`_grid_moves`), so no two points are compared: O(M * (n + covers))
    to list the points and moves, then O(M + moves) ORs of M-bit masks.
    Held to ``GRID_CAP`` points.
    """
    points = _grid_points(P, N)
    masks = _closure(_grid_moves(P, N, points))
    return Poset._from_masks(tuple(_grid_valuations(P, N, points)), *masks)


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
    covers)) for K bounds, and no pairwise scan. Held to ``GRID_CAP``
    points.
    """
    P = _require_same_poset(v1, v2)
    points, (lo1, lo2), W, ones, X, _ = _grid_masses(P, N, (v1, v2))
    guard = bound = ones << 8 * W - 1
    for x, y in zip(X, map(max, lo1, lo2)):
        bound &= (x | guard) - y * ones
    # a guard bit is the top bit of its field's last byte
    bounds = list(compress(points, bound.to_bytes(len(points) * W, "little")[W - 1 :: W]))
    beaten = {j for succ in _grid_moves(P, N, bounds) for j in succ}
    return _grid_valuations(P, N, [p for j, p in enumerate(bounds) if j not in beaten])


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
    """
    P = _require_same_poset(mu, nu)
    _, (a, b) = _upper_masses((mu, nu))
    return _tight(a, b, mu._support_mask(), P._upper_masks()[0])


def _tight(a: tuple, b: tuple, supp: int, masks: List[int]) -> bool:
    """:func:`tightly_below` on kernel rows; ``supp`` is the lower support."""
    return all(
        x < y or (x == y and (x == 0 or bin(supp & m).count("1") == 1))
        for m, x, y in zip(masks[:-1], a, b)
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
    each tight point is visited once at most.
    """
    points, tops, W, ones, X, S = _grid_masses(P, N, targets)
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
            maximal.append(points[i // B])
            # keep the points left that are heavier than i somewhere
            left &= reduce(or_, [xg - (y + 1) * ones for xg, y in zip(XG, row)], 0)
        yield _grid_valuations(P, N, sorted(maximal))


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
    v = Fraction(v)
    step = Fraction(step)
    if step <= 0:
        raise ValuationError("step must be positive")
    # v / step = v.numerator * step.denominator / (v.denominator * step.numerator)
    (k,) = _units_below((v.numerator,), v.denominator * step.numerator, step.denominator)
    return k * step


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
    D, (row,) = _upper_masses((nu,))
    masks = P._upper_masks()[0]
    units = dict(zip(masks, _units_below(row, D, N)))
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


def _reach(succ: List[List[int]], i: int) -> set:
    """The indices reachable from ``i`` along ``succ``, ``i`` included."""
    seen = {i}
    stack = [i]
    while stack:
        for j in succ[stack.pop()]:
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
    n). With one, for each point i in turn, the points above i and above
    its image are walked along the unit moves, and the least j above i
    whose image is not above i's image closes the search: O(M) per point
    until the first witness, in O(M * covers) memory. Held to ``GRID_CAP``
    points.
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
    points = _grid_points(P, N)
    if N < 2 or not any(c for x, c in enumerate(P._cover_masks()) if x != bot):
        return WeightRounding(rounded=rounded, witness=None)
    moves = _grid_moves(P, N, points)
    index = {p: i for i, p in enumerate(points)}
    images = [index[to_bottom(p, N)] for p in points]
    witness = None
    for i in range(len(points)):
        above = _reach(moves, images[i])
        failed = [j for j in _reach(moves, i) if images[j] not in above]
        if failed:
            witness = tuple(_grid_valuations(P, N, (points[i], points[min(failed)])))
            break
    return WeightRounding(rounded=rounded, witness=witness)


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
