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

No floating point is used anywhere; weights are `fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .posets import MonotoneMap, Poset, PosetError, _bits

GRID_CAP = 100_000


class ValuationError(ValueError):
    """Malformed valuation data or an unsatisfied precondition."""


class Valuation:
    """Exact-rational probability weights on the elements of a poset.

    Accepts a dict (missing elements default to weight zero) or a sequence
    aligned with the element order. Weights must be nonnegative and sum to
    exactly one.
    """

    __slots__ = ("poset", "weights")

    def __init__(self, poset: Poset, weights):
        self.poset = poset
        if isinstance(weights, dict):
            for e in weights:
                poset.index(e)
            vals = [Fraction(weights.get(e, 0)) for e in poset.elements]
        else:
            vals = [Fraction(w) for w in weights]
            if len(vals) != len(poset.elements):
                raise ValuationError(
                    f"expected {len(poset.elements)} weights, got {len(vals)}"
                )
        for e, w in zip(poset.elements, vals):
            if w < 0:
                raise ValuationError(f"negative weight at {e!r}: {w}")
        total = sum(vals)
        if total != 1:
            raise ValuationError(f"weights sum to {total}, not 1")
        self.weights = tuple(vals)

    def weight(self, x) -> Fraction:
        return self.weights[self.poset.index(x)]

    @property
    def support(self) -> tuple:
        return tuple(
            e for e, w in zip(self.poset.elements, self.weights) if w
        )

    def _support_mask(self) -> int:
        mask = 0
        for i, w in enumerate(self.weights):
            if w:
                mask |= 1 << i
        return mask

    def mass(self, U: Iterable) -> Fraction:
        """Total weight of a set of elements (typically an upper set)."""
        return sum((self.weights[self.poset.index(x)] for x in U), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Valuation)
            and self.poset == other.poset
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.weights))

    def __str__(self) -> str:
        return format_valuation(self)

    def __repr__(self) -> str:
        return f"Valuation({format_valuation(self)!r})"


def dirac(P: Poset, x) -> Valuation:
    """Unit mass at a single element."""
    P.index(x)
    return Valuation(P, {x: Fraction(1)})


def parse_valuation(P: Poset, text: str) -> Valuation:
    """Read space-separated ``elem:p/q`` entries; omitted elements get 0.

    The parser insists on known elements, no repeats, nonnegative fractions,
    and a total of exactly one.
    """
    weights: Dict = {}
    for token in text.split():
        if ":" not in token:
            raise ValuationError(f"malformed entry {token!r}, expected elem:p/q")
        name, _, frac = token.partition(":")
        if not name or not frac:
            raise ValuationError(f"malformed entry {token!r}, expected elem:p/q")
        if name not in P:
            raise ValuationError(f"unknown element {name!r}")
        if name in weights:
            raise ValuationError(f"repeated element {name!r}")
        try:
            weights[name] = Fraction(frac)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValuationError(f"bad fraction in {token!r}: {exc}") from None
    return Valuation(P, weights)


def format_valuation(v: Valuation) -> str:
    """Inverse of :func:`parse_valuation`: nonzero entries in element order."""
    return " ".join(
        f"{e}:{w}" for e, w in zip(v.poset.elements, v.weights) if w
    )


def _require_same_poset(nu: Valuation, mu: Valuation) -> Poset:
    if nu.poset != mu.poset:
        raise ValuationError("valuations live on different posets")
    return nu.poset


def _upper_masses(
    vals: Sequence[Valuation], masks: List[int]
) -> Tuple[int, List[tuple]]:
    """The one upper-set mass kernel: integer masses over a common denominator.

    Scales every weight of ``vals`` to an integer over ``D``, the lcm of all
    their denominators, once. Returns ``(D, rows)`` where ``rows[v][u]`` is
    ``D`` times the mass of ``vals[v]`` on ``masks[u]``. When ``masks`` is a
    poset's upper-set listing, the carrier is last, so ``masks[:-1]`` are the
    proper upper sets.
    """
    D = lcm(*(w.denominator for v in vals for w in v.weights))
    members = [tuple(_bits(m)) for m in masks]
    rows = []
    for v in vals:
        a = [w.numerator * (D // w.denominator) for w in v.weights]
        rows.append(tuple(sum([a[i] for i in ix]) for ix in members))
    return D, rows


def _dominated(lo: tuple, hi: tuple) -> bool:
    """Mass vector ``lo`` is at most ``hi`` on every upper set."""
    return all(x <= y for x, y in zip(lo, hi))


# -- the pointwise order ------------------------------------------------------


@dataclass(frozen=True)
class StochasticOrderReport:
    """Decision plus certificate for one order comparison.

    When the comparison holds, ``transport`` carries an exact coupling: a
    nonnegative flow on pairs (x, y) with x <= y whose row sums are the left
    weights and column sums the right weights. When it fails,
    ``violating_upper`` is an upper set where the left mass exceeds the right.
    """

    result: bool
    transport: Optional[Dict[tuple, Fraction]] = None
    violating_upper: Optional[frozenset] = None


def _transport_decide(nu: Valuation, mu: Valuation) -> StochasticOrderReport:
    P = nu.poset
    n = len(P.elements)
    src, snk = 2 * n, 2 * n + 1
    size = 2 * n + 2
    zero = Fraction(0)
    cap = [[zero] * size for _ in range(size)]
    for i, w in enumerate(nu.weights):
        cap[src][i] = w
    for j, w in enumerate(mu.weights):
        cap[n + j][snk] = w
    for i in range(n):
        if nu.weights[i]:
            row = P._up[i]
            for j in _bits(row):
                if mu.weights[j]:
                    cap[i][n + j] = Fraction(2)  # never binding: total mass is 1
    flow = [[zero] * size for _ in range(size)]
    total = zero
    reachable: set = set()
    while True:
        parent = [-1] * size
        parent[src] = src
        queue = [src]
        for u in queue:
            for v in range(size):
                if parent[v] < 0 and cap[u][v] - flow[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[snk] < 0:
            reachable = {v for v in range(size) if parent[v] >= 0}
            break
        bottleneck = None
        v = snk
        while v != src:
            u = parent[v]
            slack = cap[u][v] - flow[u][v]
            bottleneck = slack if bottleneck is None else min(bottleneck, slack)
            v = u
        v = snk
        while v != src:
            u = parent[v]
            flow[u][v] += bottleneck
            flow[v][u] -= bottleneck
            v = u
        total += bottleneck
    if total == 1:
        plan = {}
        for i in range(n):
            for j in range(n):
                f = flow[i][n + j]
                if f > 0:
                    plan[(P.elements[i], P.elements[j])] = f
        return StochasticOrderReport(True, transport=plan)
    witness_seed = [
        P.elements[i] for i in range(n) if i in reachable and nu.weights[i]
    ]
    violating = frozenset(P.up_closure(witness_seed))
    return StochasticOrderReport(False, violating_upper=violating)


def _oracle_leq(nu: Valuation, mu: Valuation, max_elements: int = 20) -> bool:
    _, (a, b) = _upper_masses((nu, mu), nu.poset._upper_masks(max_elements))
    return _dominated(a, b)


def stochastic_leq(nu: Valuation, mu: Valuation, *, mode: str = "flow") -> bool:
    """Decide whether ``nu`` sits below ``mu`` in the upper-set-mass order.

    ``mode="flow"`` solves the exact transport problem (works at any poset
    size); ``mode="oracle"`` quantifies over all upper sets (needs the
    upper-set enumeration to be feasible); ``mode="both"`` runs the two and
    insists they agree.
    """
    _require_same_poset(nu, mu)
    if mode == "flow":
        return _transport_decide(nu, mu).result
    if mode == "oracle":
        return _oracle_leq(nu, mu)
    if mode == "both":
        fast = _transport_decide(nu, mu).result
        slow = _oracle_leq(nu, mu)
        if fast != slow:
            raise RuntimeError(
                f"transport and upper-set decisions disagree on "
                f"{format_valuation(nu)!r} vs {format_valuation(mu)!r}"
            )
        return fast
    raise ValuationError(f"unknown mode {mode!r}")


def stochastic_leq_report(nu: Valuation, mu: Valuation) -> StochasticOrderReport:
    """Like :func:`stochastic_leq` but returns the certificate as well."""
    _require_same_poset(nu, mu)
    return _transport_decide(nu, mu)


# -- strict approximation -----------------------------------------------------


@dataclass(frozen=True)
class WayBelowReport:
    """Strict-approximation decision with per-upper-set diagnostics.

    ``violations`` lists every proper upper set breaking the criterion,
    labeled ``mass_exceeds`` (left mass above right), ``equal_mass`` (masses
    equal and positive, which strictness forbids), or ``support_on_null``
    (left puts mass where the right has none).
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
    P = _require_same_poset(nu, mu)
    if not P.is_pointed:
        raise ValuationError("strict approximation needs a pointed poset")
    masks = P._upper_masks()
    D, (a, b) = _upper_masses((nu, mu), masks)
    violations = []
    for mask, x, y in zip(masks[:-1], a, b):
        if y == 0 and x > 0:
            kind = "support_on_null"
        elif y > 0 and x > y:
            kind = "mass_exceeds"
        elif y > 0 and x == y:
            kind = "equal_mass"
        else:
            continue
        upper = frozenset(P.elements[i] for i in _bits(mask))
        violations.append(
            {
                "kind": kind,
                "upper": upper,
                "lhs": Fraction(x, D),
                "rhs": Fraction(y, D),
            }
        )
    return WayBelowReport(not violations, tuple(violations))


@dataclass(frozen=True)
class MixingReport:
    """Outcome of :func:`mixing_oracle`.

    ``epsilon`` is 1/k for the first feasible k, or None when no mix works.
    ``searched_up_to`` is the bound 2 * (#upper sets) * D, with D the common
    denominator of both valuations; the closed-form k always falls within it.
    """

    exists: bool
    epsilon: Optional[Fraction] = None
    searched_up_to: int = 0


def mixing_oracle(nu: Valuation, mu: Valuation) -> MixingReport:
    """Largest epsilon = 1/k with nu below (1-eps) mu + eps (bottom mass), if any.

    On a proper upper set U the mix has mass (1 - 1/k) mu(U), so k works iff
    k * (mu(U) - nu(U)) >= mu(U) on every such U. No k works if some U has
    nu(U) > mu(U), or nu(U) = mu(U) > 0. Otherwise the first feasible k is
    computed in closed form: max(1, max over mu(U) > 0 of
    ceil(mu(U) / (mu(U) - nu(U)))). It is at most D, the common denominator
    of the weights, by the gap argument: every strict mass gap is at least
    1/D while the mix concedes at most eps, so k = D works whenever any k
    does.
    """
    P = _require_same_poset(nu, mu)
    if not P.is_pointed:
        raise ValuationError("mixing oracle needs a pointed poset")
    masks = P._upper_masks()
    D, (a, b) = _upper_masses((nu, mu), masks)
    bound = 2 * len(masks) * D
    k = 1
    for x, y in zip(a[:-1], b[:-1]):
        if x > y or (x == y > 0):
            return MixingReport(False, None, bound)
        if y > 0:
            k = max(k, -(-y // (y - x)))
    return MixingReport(True, Fraction(1, k), bound)


# -- pushforward --------------------------------------------------------------


def pushforward(r: MonotoneMap, nu: Valuation) -> Valuation:
    """Transport weights along a monotone map: mass lands on the image point."""
    if nu.poset != r.source:
        raise ValuationError("valuation does not live on the map's source")
    out: Dict = {}
    for x, w in zip(r.source.elements, nu.weights):
        if w:
            y = r(x)
            out[y] = out.get(y, Fraction(0)) + w
    return Valuation(r.target, out)


def pushforward_preimage(r: MonotoneMap, nu: Valuation) -> Valuation:
    """Exact one-sided inverse of :func:`pushforward` for surjective maps.

    Every target atom is lifted to the least-index source element mapping
    onto it, so the answer is deterministic and pushing it forward returns
    the input exactly.
    """
    if nu.poset != r.target:
        raise ValuationError("valuation does not live on the map's target")
    X = r.source
    image = set(r.values)
    missing = [y for y in r.target.elements if y not in image]
    if missing:
        raise ValuationError(f"map is not surjective; unreached: {missing!r}")
    section = {}
    for x in X.elements:  # element order, so the first hit is least-index
        y = r(x)
        if y not in section:
            section[y] = x
    out: Dict = {}
    for y, w in zip(r.target.elements, nu.weights):
        if w:
            x = section[y]
            out[x] = out.get(x, Fraction(0)) + w
    return Valuation(X, out)


# -- grids ---------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid(P: Poset, N: int, *, cap: int = GRID_CAP) -> List[Valuation]:
    """All valuations whose weights are multiples of 1/N, lexicographic order.

    The count is C(N + n - 1, n - 1) for n elements; a cap guards against
    accidental explosions.
    """
    if not isinstance(N, int) or N < 1:
        raise ValuationError("grid denominator must be a positive integer")
    n = len(P.elements)
    if n == 0:
        raise ValuationError("grid needs a nonempty poset")
    count = comb(N + n - 1, n - 1)
    if count > cap:
        raise ValuationError(
            f"grid would hold {count} valuations, above the cap of {cap}"
        )
    out = []
    for tup in _compositions(N, n):
        out.append(Valuation(P, [Fraction(k, N) for k in tup]))
    return out


def grid_poset(P: Poset, N: int, *, cap: int = GRID_CAP) -> Poset:
    """The grid ordered by upper-set-mass comparison, as a poset.

    Elements are the :class:`Valuation` objects themselves (in grid order);
    covers of the result give the Hasse diagram of the discretized order.
    """
    vals = grid(P, N, cap=cap)
    _, vecs = _upper_masses(vals, P._upper_masks())
    ups = []
    for vi in vecs:
        mask = 0
        for j, vj in enumerate(vecs):
            if _dominated(vi, vj):
                mask |= 1 << j
        ups.append(mask)
    return Poset._from_up_masks(tuple(vals), tuple(ups))


def minimal_upper_bounds_grid(
    v1: Valuation, v2: Valuation, N: int, *, cap: int = GRID_CAP
) -> List[Valuation]:
    """Minimal grid valuations dominating both inputs; possibly empty.

    Domination and minimality are both with respect to the upper-set-mass
    order; results come back in grid enumeration order.
    """
    P = _require_same_poset(v1, v2)
    masks = P._upper_masks()
    vals = grid(P, N, cap=cap)
    _, (lo1, lo2, *vecs) = _upper_masses([v1, v2] + vals, masks)
    ub = [
        i for i, vec in enumerate(vecs) if _dominated(lo1, vec) and _dominated(lo2, vec)
    ]
    return [
        vals[i]
        for i in ub
        if not any(vecs[j] != vecs[i] and _dominated(vecs[j], vecs[i]) for j in ub)
    ]


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
    masks = P._upper_masks()
    _, (a, b) = _upper_masses((mu, nu), masks)
    return _tight(a, b, mu._support_mask(), masks)


def _tight(a: tuple, b: tuple, supp: int, masks: List[int]) -> bool:
    """:func:`tightly_below` on kernel rows; ``supp`` is the lower support."""
    return all(
        x < y or (x == y and (x == 0 or bin(supp & m).count("1") == 1))
        for m, x, y in zip(masks[:-1], a, b)
    )


def maximal_below_grid(
    nu: Valuation, N: int, *, cap: int = GRID_CAP
) -> List[Valuation]:
    """Maximal grid valuations tightly below ``nu`` (see :func:`tightly_below`).

    Always nonempty on a pointed poset, since the unit mass at bottom is
    tightly below everything. Results come back in grid enumeration order.
    """
    P = nu.poset
    masks = P._upper_masks()
    vals = grid(P, N, cap=cap)
    _, (nu_row, *vecs) = _upper_masses([nu] + vals, masks)
    below = [
        i
        for i, v in enumerate(vals)
        if _tight(vecs[i], nu_row, v._support_mask(), masks)
    ]
    return [
        vals[i]
        for i in below
        if not any(vecs[j] != vecs[i] and _dominated(vecs[i], vecs[j]) for j in below)
    ]


# -- deliberately broken rounding schemes --------------------------------------


def round_down_strict(v: Fraction, step: Fraction) -> Fraction:
    """Largest multiple of ``step`` that is zero or strictly below ``v``.

    In particular a positive multiple of the step maps to the next multiple
    down (round_down_strict(1/2, 1/2) == 0), never to itself.
    """
    v = Fraction(v)
    step = Fraction(step)
    if step <= 0:
        raise ValuationError("step must be positive")
    if v <= 0:
        return Fraction(0)
    q = v / step
    ceil_q = -((-q.numerator) // q.denominator)
    k = ceil_q - 1
    if k <= 0:
        return Fraction(0)
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
    step: Fraction = Fraction(1)


def failed_deflation_a(nu: Valuation, N: int) -> SetFunctionRounding:
    """Round every upper-set mass strictly down to multiples of 1/N.

    The result is monotone but in general not modular; the witness search
    scans upper-set pairs in enumeration order and reports the first failure.
    """
    P = nu.poset
    _require_pointed(P)
    step = Fraction(1, N)
    masks = P._upper_masks()
    D, (row,) = _upper_masses((nu,), masks)
    rounded = {m: round_down_strict(Fraction(x, D), step) for m, x in zip(masks, row)}
    sets = {m: frozenset(P.elements[i] for i in _bits(m)) for m in masks}
    witness = None
    for ai in range(len(masks)):
        for bi in range(ai + 1, len(masks)):
            u, v = masks[ai], masks[bi]
            lhs = rounded[u | v] + rounded[u & v]
            rhs = rounded[u] + rounded[v]
            if lhs != rhs:
                witness = (sets[u], sets[v])
                break
        if witness:
            break
    return SetFunctionRounding(
        values={sets[m]: rounded[m] for m in masks}, witness=witness, step=step
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


def _round_weights_to_bottom(nu: Valuation, N: int) -> Valuation:
    P = nu.poset
    bot = P.bottom()
    step = Fraction(1, N)
    out: Dict = {}
    kept = Fraction(0)
    for e, w in zip(P.elements, nu.weights):
        if e == bot:
            continue
        r = round_down_strict(w, step)
        if r:
            out[e] = r
            kept += r
    out[bot] = 1 - kept
    return Valuation(P, out)


def failed_deflation_b(nu: Valuation, N: int) -> WeightRounding:
    """Round non-bottom weights strictly down to 1/N, residue to bottom.

    The output is always dominated by the input, but the scheme is not
    monotone; the witness search runs over ordered grid pairs in enumeration
    order and reports the first order-violating image pair.
    """
    P = nu.poset
    _require_pointed(P)
    rounded = _round_weights_to_bottom(nu, N)
    masks = P._upper_masks()
    vals = grid(P, N)
    images = [_round_weights_to_bottom(v, N) for v in vals]
    _, rows = _upper_masses(vals + images, masks)
    vecs, img_vecs = rows[: len(vals)], rows[len(vals) :]
    witness = None
    for i in range(len(vals)):
        for j in range(len(vals)):
            if (
                i != j
                and _dominated(vecs[i], vecs[j])
                and not _dominated(img_vecs[i], img_vecs[j])
            ):
                witness = (vals[i], vals[j])
                break
        if witness:
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
    return LargestBelowReport(
        members=members, cardinality=len(members), unique=len(members) == 1
    )
