"""Strict approximation, tight domination and the order oracle decided on the
traces of the upper sets on the two supports (``valuations._trace_masses``),
against the routes of ``oracles`` that scan every upper set of the poset.

The masses of two valuations on an upper set U depend only on U ∩ S, S the
union of their supports, and those traces are the upper sets of the subposet
on S; the trace S itself stands for a proper upper set exactly when a minimal
element lies outside S. The inputs below take both routes of the selection
rule, put the bottom outside both supports (so that P minus the bottom is an
``equal_mass`` violation) and leave a minimal element of a poset without a
bottom outside S.
"""

import random
from fractions import Fraction

import pytest

from ordbench import (
    MixingReport,
    Poset,
    Valuation,
    mixing_oracle,
    stochastic_leq,
    tightly_below,
    way_below_report,
)
from ordbench import valuations

from oracles import (
    brute_stochastic_leq,
    random_pointed_poset,
    random_poset,
    reference_tightly_below,
    reference_way_below,
)


def bottom_antichain(w: int, bottom: bool = True) -> Poset:
    """A width-w antichain, under a bottom when ``bottom``: 2^w + 1 upper
    sets, or 2^w without it."""
    atoms = [f"a{i}" for i in range(w)]
    if not bottom:
        return Poset(atoms)
    return Poset(["bot", *atoms], [("bot", a) for a in atoms])


def shuffled(rng, P: Poset) -> Poset:
    """``P`` with its elements listed in a random order."""
    elements = list(P.elements)
    rng.shuffle(elements)
    return Poset(elements, P.covers())


def weights(rng, P: Poset, points) -> tuple:
    """Random positive Fraction weights on ``points``, zero elsewhere."""
    D = rng.choice([1, 2, 3, 4, 6, 12])
    cuts = sorted(rng.randint(0, D) for _ in points[1:])
    parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, D])]
    if 0 in parts:
        parts = [1] * len(points)
        D = len(points)
    at = dict(zip(points, parts))
    return tuple(Fraction(at.get(e, 0), D) for e in P.elements)


def supports(rng, P: Poset, avoid=()) -> list:
    """1 to 4 points of ``P`` outside ``avoid``."""
    pool = [e for e in P.elements if e not in avoid]
    return rng.sample(pool, rng.randint(1, min(4, len(pool))))


def subposet_route(P: Poset, a: tuple, b: tuple) -> bool:
    size = sum(1 for x, y in zip(a, b) if x or y)
    return valuations.TRACE_FACTOR << size < len(P.upper_sets())


def check(P: Poset, a: tuple, b: tuple) -> None:
    nu, mu = Valuation(P, a), Valuation(P, b)
    if P.is_pointed:
        violations, mixing = reference_way_below(P, a, b)
        assert list(way_below_report(nu, mu).violations) == violations
        assert mixing_oracle(nu, mu) == MixingReport(*mixing)
    assert tightly_below(nu, mu) == reference_tightly_below(P, a, b)
    assert stochastic_leq(nu, mu, mode="oracle") == brute_stochastic_leq(nu, mu)


def cases(seed: int, widths=range(6, 13)):
    """``(P, a, b)`` triples: wide posets, where small supports take the
    subposet route, and random posets of up to 9 elements, where most take
    P's own listing. Each wide poset gets an unrelated pair and a pair
    whose lower side sits below its upper one, more of them when narrow."""
    rng = random.Random(seed)
    for w in widths:
        for bottom in (True, False):
            P = shuffled(rng, bottom_antichain(w, bottom))
            for _ in range(1 if w > 9 else 3):
                avoid = ("bot",) if rng.random() < 0.5 else ()
                yield P, weights(rng, P, supports(rng, P, avoid)), weights(rng, P, supports(rng, P, avoid))
                # a lower valuation: part of the upper one's mass moved down
                b = weights(rng, P, supports(rng, P, avoid))
                down = [e for e, x in zip(P.elements, b) if x or e == "bot"]
                yield P, weights(rng, P, rng.sample(down, rng.randint(1, min(4, len(down))))), b
    for _ in range(60):
        n = rng.randint(1, 9)
        P = shuffled(rng, random_pointed_poset(rng, n) if rng.random() < 0.6 else random_poset(rng, n))
        avoid = (P.bottom(),) if P.is_pointed and n > 1 and rng.random() < 0.5 else ()
        yield P, weights(rng, P, supports(rng, P, avoid)), weights(rng, P, supports(rng, P, avoid))


@pytest.mark.parametrize("seed", range(2))
def test_the_trace_route_matches_the_whole_poset_scan(seed):
    routes = set()
    for P, a, b in cases(seed):
        routes.add(subposet_route(P, a, b))
        check(P, a, b)
    assert routes == {True, False}


@pytest.mark.parametrize("factor", [0, 1, 10**9])
def test_every_rule_gives_the_same_answers(monkeypatch, factor):
    # factor 0 takes the subposet route on every input, 10**9 never
    monkeypatch.setattr(valuations, "TRACE_FACTOR", factor)
    for P, a, b in cases(10 + factor % 7, range(6, 10)):
        check(P, a, b)


def test_the_full_trace_stands_for_the_upper_set_that_misses_bottom():
    P = bottom_antichain(9)
    a = weights(random.Random(1), P, ["a0", "a1"])
    nu = mu = Valuation(P, a)
    assert subposet_route(P, a, a)
    report = way_below_report(nu, mu)
    assert report.violations[-1] == {
        "kind": "equal_mass", "upper": frozenset(P.elements) - {"bot"},
        "lhs": Fraction(1), "rhs": Fraction(1),
    }
    assert list(report.violations) == reference_way_below(P, a, a)[0]
    assert not mixing_oracle(nu, mu).exists


def test_a_minimal_element_outside_the_supports_makes_the_full_trace_proper():
    # no bottom; c sits above a0 and a1, and a2..a7 are minimal outside S
    atoms = [f"a{i}" for i in range(8)]
    P = Poset([*atoms, "c"], [("a0", "c"), ("a1", "c")])
    half = Valuation(P, {"a0": Fraction(1, 2), "a1": Fraction(1, 2)})
    assert subposet_route(P, half.weights, half.weights)
    # {a0, a1, c} is proper, holds all of both masses and two support points
    assert not tightly_below(half, half)
    assert not reference_tightly_below(P, half.weights, half.weights)
    top = Valuation(P, {"c": Fraction(1)})
    # one support point is tight wherever it is full
    assert tightly_below(Valuation(P, {"a0": Fraction(1)}), Valuation(P, {"a0": Fraction(1)}))
    assert stochastic_leq(half, top, mode="oracle") and not stochastic_leq(top, half, mode="oracle")


def test_the_queries_list_no_more_upper_sets_than_the_supports_span(monkeypatch):
    # bottom_antichain(13) has 8,193 upper sets; supports of at most 4
    # points each span at most 2^8
    seen = []
    kernel = valuations._mass_rows

    def counted(ints, listing):
        seen.append(len(listing[1]))
        return kernel(ints, listing)

    monkeypatch.setattr(valuations, "_mass_rows", counted)
    rng = random.Random(13)
    P = bottom_antichain(13)
    for _ in range(12):
        a = weights(rng, P, supports(rng, P))
        b = weights(rng, P, supports(rng, P))
        span = 2 ** sum(1 for x, y in zip(a, b) if x or y)
        nu, mu = Valuation(P, a), Valuation(P, b)
        for query in (way_below_report, mixing_oracle, tightly_below):
            del seen[:]
            query(nu, mu)
            assert seen and max(seen) <= span, query.__name__
        del seen[:]
        stochastic_leq(nu, mu, mode="oracle")
        assert seen and max(seen) <= span


def test_the_route_is_chosen_by_the_union_of_the_supports(monkeypatch):
    # the larger support is counted first, and S is listed only when that
    # count leaves the subposet route open; the route is still the one
    # |S| gives. On a width-6 antichain under a bottom (65 upper sets), one
    # support of 4 closes the route at once (8 * 2^4 >= 65); two disjoint
    # supports of 3 pass the first count (8 * 2^3 < 65) but their union of
    # 6 closes it; two equal supports of 3 take it.
    kernel, taken = valuations._mass_rows, []

    def spy(ints, listing):
        taken.append(listing is not P._upper_masks())
        return kernel(ints, listing)

    monkeypatch.setattr(valuations, "_mass_rows", spy)
    rng = random.Random(6)
    P = bottom_antichain(6)
    crafted = [
        (P, weights(rng, P, ["a0", "a1", "a2", "a3"]), weights(rng, P, ["a0"])),
        (P, weights(rng, P, ["a0", "a1", "a2"]), weights(rng, P, ["a3", "a4", "a5"])),
        (P, weights(rng, P, ["a0", "a1", "a2"]), weights(rng, P, ["a2", "a1", "a0"])),
    ]
    routes = []
    for P, a, b in [*crafted, *cases(3)]:
        del taken[:]
        valuations._trace_masses(Valuation(P, a), Valuation(P, b))
        assert taken == [subposet_route(P, a, b)], (P, a, b)
        routes.append(taken[0])
    assert routes[:3] == [False, False, True] and set(routes[3:]) == {True, False}


def test_violations_match_the_reference_under_shuffled_element_orders():
    # in a shuffled element order the parent of an upper set in the listing
    # is not the walk's include branch, and a violation's set is made along
    # its parent chain; n <= 7, pointed, with failing and holding pairs
    rng = random.Random(34)
    outcomes = []
    for _ in range(400):
        P = shuffled(rng, random_pointed_poset(rng, rng.randint(1, 7)))
        b = weights(rng, P, supports(rng, P))
        if rng.random() < 0.5:
            a = weights(rng, P, supports(rng, P))
        else:
            # half of b's mass, the other half on bottom: strictly below b
            a = tuple(x / 2 + (Fraction(1, 2) if e == P.bottom() else 0) for e, x in zip(P.elements, b))
        violations, _ = reference_way_below(P, a, b)
        report = way_below_report(Valuation(P, a), Valuation(P, b))
        assert report == valuations.WayBelowReport(not violations, tuple(violations))
        assert all(type(v[side]) is Fraction for v in report.violations for side in ("lhs", "rhs"))
        outcomes.append(report.result)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 100
