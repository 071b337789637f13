"""The grid kernel against the pairwise dominance route of ``oracles``.

The library builds the grid order from unit moves along covers and answers
minimal upper bounds, maximal approximants and the rounding witness from
integer counts; the oracle compares every pair of grid points on every
upper set. Both must agree exactly: masks, lists in grid order, and the
first witness.
"""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ordbench import (
    Poset,
    Valuation,
    dirac,
    enumerate_posets,
    failed_deflation_b,
    grid,
    grid_poset,
    maximal_below_grid,
    minimal_upper_bounds_grid,
    parse_poset,
    stochastic_leq,
)
from ordbench.valuations import _compositions, _grid_moves, _grid_points, _maximal_below

from oracles import (
    bottom_rounding,
    brute_posets,
    dominance_grid_order,
    dominance_maximal_below,
    dominance_minimal_upper_bounds,
    dominance_rounding_witness,
)

DIAMOND = parse_poset("elements: bot a b top\norder: bot < a; bot < b; a < top; b < top")


def _chain(n):
    return Poset(range(n), [(i, i + 1) for i in range(n - 1)])


def _valuation(rng, P, denominator):
    raw = [rng.randrange(denominator + 1) for _ in P.elements]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    return Valuation(P, [Fraction(w, sum(raw)) for w in raw])


def _agree(P, N, v1, v2):
    G = grid_poset(P, N)
    assert (G._up, G._down) == dominance_grid_order(P, N)
    assert minimal_upper_bounds_grid(v1, v2, N) == dominance_minimal_upper_bounds(v1, v2, N)
    assert maximal_below_grid(v1, N) == dominance_maximal_below(v1, N)
    if P.is_pointed:
        out = failed_deflation_b(v1, N)
        assert out.rounded == bottom_rounding(v1, N)
        assert out.witness == dominance_rounding_witness(P, N)


def test_kernel_matches_dominance_on_every_small_poset():
    rng = random.Random(8)
    for n in range(1, 5):
        for Q in brute_posets(n):
            for elements in (Q.elements, Q.elements[::-1]):
                P = Poset(elements, Q.covers())
                for N in (1, 2, 3):
                    # denominators 5 and 7 never divide N
                    _agree(P, N, _valuation(rng, P, 5), _valuation(rng, P, 7))


@st.composite
def shuffled_posets(draw):
    """A random order on range(n), in shuffled element order; half of them
    get 0 as their bottom, so the rounding witness is checked too."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pointed = draw(st.booleans())
    elements = draw(st.permutations(range(n)))
    return Poset(elements, [p for p, k in zip(pairs, keep) if k or (pointed and p[0] == 0)])


@given(shuffled_posets(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_dominance_on_random_posets(P, N, seed):
    rng = random.Random(seed)
    v1 = _valuation(rng, P, rng.choice((4, 5, 7)))
    v2 = _valuation(rng, P, rng.choice((4, 5, 7)))
    _agree(P, N, v1, v2)


def test_grid_poset_of_a_three_by_three_product_at_denominator_five():
    C = _chain(3)
    P = C.product(C)
    G = grid_poset(P, 5)
    assert len(G.elements) == 1287
    # one move per cover of P and per way to place the other N - 1 units,
    # and here every move is a cover
    assert len(G.covers()) == 5940
    rng = random.Random(5)
    for _ in range(300):
        x, y = rng.sample(G.elements, 2)
        assert G.leq(x, y) == stochastic_leq(x, y)


def test_rounding_witness_on_a_large_grid():
    # 5,456 grid points; the dominance route takes about a second here
    out = failed_deflation_b(dirac(DIAMOND, "a"), 30)
    assert out.witness == dominance_rounding_witness(DIAMOND, 30)


def _pointed_posets(n_max):
    return [P for n in range(1, n_max + 1) for P in enumerate_posets(n) if P.is_pointed]


def test_a_unit_move_breaks_the_bottom_rounding_exactly_by_the_move_rule():
    # a move p -> q takes one unit from x to an upper cover y; the rounded
    # images fall out of order iff x is not bottom, p[x] >= 2 and p[y] == 0
    moves = broken = 0
    for P in _pointed_posets(4):
        n, bot, masks = len(P.elements), P.index(P.bottom()), P._upper_masks()[0]
        for N in range(1, 5):

            def image_masses(p):
                image = [max(c - 1, 0) for c in p]
                image[bot] = N - (sum(image) - image[bot])
                return [sum(image[i] for i in range(n) if m >> i & 1) for m in masks]

            points = _grid_points(P, N)
            for p, above in zip(points, _grid_moves(P, N, points)):
                for q in map(points.__getitem__, above):
                    x = next(i for i in range(n) if q[i] < p[i])
                    y = next(i for i in range(n) if q[i] > p[i])
                    kept = all(map(int.__le__, image_masses(p), image_masses(q)))
                    rule = x != bot and p[x] >= 2 and p[y] == 0
                    assert kept == (not rule), (P, N, p, q)
                    moves += 1
                    broken += rule
    assert (moves, broken) == (8780, 1236)


def test_the_rounding_has_a_witness_iff_the_move_rule_can_fire():
    # the moves generate the grid order, so a witness exists iff some move
    # breaks the rule: N >= 2 and a non-bottom element has an upper cover;
    # the library decides by that rule, so up to 4 elements the pairwise
    # dominance route decides too
    cases = witnesses = 0
    for P in _pointed_posets(5):
        bot = P.index(P.bottom())
        covered = any(c for i, c in enumerate(P._cover_masks()) if i != bot)
        for N in range(1, 4):
            found = failed_deflation_b(dirac(P, P.bottom()), N).witness is not None
            assert found == (N >= 2 and covered), (P, N)
            if len(P.elements) <= 4:
                assert found == (dominance_rounding_witness(P, N) is not None), (P, N)
            cases += 1
            witnesses += found
    assert (cases, witnesses) == (3549, 2336)


def test_the_rounding_without_a_witness_walks_no_moves():
    # on the 2-chain only bottom has an upper cover: 3,001 grid points, and
    # no walk; walking from every point took seconds
    P = _chain(2)
    nu = Valuation(P, [Fraction(1, 3), Fraction(2, 3)])
    start = time.perf_counter()
    out = failed_deflation_b(nu, 3000)
    assert time.perf_counter() - start < 0.5
    assert out.witness is None
    assert out.rounded == bottom_rounding(nu, 3000)


def test_compositions_match_a_filtered_product():
    for n in range(1, 6):
        for N in range(6):
            want = sorted(t for t in itertools.product(range(N + 1), repeat=n) if sum(t) == N)
            assert _compositions(N, n) == want, (n, N)


# D + 1 on either side of a byte or word boundary, D the common denominator
# of the grid and the inputs: the packed fields widen there
FIELD_DENOMINATORS = (126, 127, 128, 255, 256, 65535, 65536, 2**64 - 1, 2**64)


def _over(P, q, rng):
    """A valuation on P whose weights have lcm denominator exactly q (on
    one element, the unit mass)."""
    i, j = rng.sample(range(len(P.elements)), 2) if len(P.elements) > 1 else (0, 0)
    nums = [0] * len(P.elements)
    nums[i] += 1
    nums[j] += q - 1
    return Valuation(P, [Fraction(k, q) for k in nums])


def test_packed_grid_fields_at_every_width():
    rng = random.Random(19)
    posets = (
        Poset(["x"], []),  # n = 1
        _chain(3),
        DIAMOND,
        Poset(["a", "b", "c"], [("a", "c"), ("b", "c")]),  # two minimal elements: not pointed
    )
    for P in posets:
        for q in FIELD_DENOMINATORS:
            for N in (1, 2, 3):
                v1, v2 = _over(P, q, rng), _over(P, q, rng)
                assert minimal_upper_bounds_grid(v1, v2, N) == dominance_minimal_upper_bounds(v1, v2, N)
                assert maximal_below_grid(v1, N) == dominance_maximal_below(v1, N)
                targets = grid(P, N) + [v1, v2]
                assert list(_maximal_below(P, N, targets)) == [
                    dominance_maximal_below(t, N) for t in targets
                ], (P, q, N)


def test_upper_bounds_and_approximants_take_memory_linear_in_the_grid():
    N = 48  # C(51, 3) = 20,825 grid points on the diamond, 6 upper sets
    points = 20825
    nu = Valuation(DIAMOND, {"bot": Fraction(1, 2), "a": Fraction(1, 3), "top": Fraction(1, 6)})
    tracemalloc.start()
    try:
        mubs = minimal_upper_bounds_grid(nu, dirac(DIAMOND, "b"), N)
        _, mub_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        below = maximal_below_grid(nu, N)
        _, below_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [str(v) for v in mubs] == ["b:1/2 top:1/2"]
    assert all(stochastic_leq(v, nu) for v in below)
    # one bit per pair of points would already take points**2 / 8 = 54 MB
    for peak in (mub_peak, below_peak):
        assert peak < 1000 * points, peak
