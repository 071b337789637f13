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

import pytest
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
from ordbench.valuations import (
    _compositions,
    _cuts,
    _grid_masses,
    _grid_moves,
    _grid_points,
    _maximal_below,
    _point,
)

from oracles import (
    bottom_rounding,
    brute_covers,
    brute_posets,
    dominance_grid,
    dominance_grid_order,
    dominance_maximal_below,
    dominance_minimal_upper_bounds,
    dominance_rounding_witness,
    grid_point_masses,
    lex_compositions,
    reference_rounding_witness,
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


def test_unit_moves_are_the_covers_of_the_dominance_order():
    # grid_poset hands its unit moves over as its diagram: they must be the
    # covers of the order that pairwise dominance gives
    for n in range(1, 5):
        for P in brute_posets(n):
            for N in (1, 2, 3) if n < 4 else (1, 2):
                cuts = _grid_points(P, N)
                points = _compositions(cuts)
                assert points == [tuple(int(w * N) for w in v.weights) for v in dominance_grid(P, N)]
                _, moves = _grid_moves(P, N, cuts)
                slow = Poset._from_masks(tuple(range(len(points))), *dominance_grid_order(P, N))
                want = [(i, j) for i in range(len(points)) for j in sorted(moves(i))]
                assert brute_covers(slow) == want
                G = grid_poset(P, N)
                assert G.covers() == tuple((G.elements[i], G.elements[j]) for i, j in want)


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

            cuts = _grid_points(P, N)
            points = _compositions(cuts)
            find, above = _grid_moves(P, N, cuts)
            for i, p in enumerate(points):
                assert find(p) == i and _point(cuts, i) == p
                for q in map(points.__getitem__, above(i)):
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
    # dominance route gives the same first witness, also where the element
    # order does not extend the order
    cases = witnesses = 0
    for P in _pointed_posets(5):
        bot = P.index(P.bottom())
        covered = any(c for i, c in enumerate(P._cover_masks()) if i != bot)
        for N in range(1, 4):
            witness = failed_deflation_b(dirac(P, P.bottom()), N).witness
            found = witness is not None
            assert found == (N >= 2 and covered), (P, N)
            if len(P.elements) <= 4:
                assert witness == dominance_rounding_witness(P, N), (P, N)
            cases += 1
            witnesses += found
    assert (cases, witnesses) == (3549, 2336)


@pytest.mark.parametrize("N", range(1, 6))
def test_the_rounding_witness_matches_the_per_point_search(N):
    # the search skips every point with no breaking move above it; the
    # per-point search walks them all, on grids the dominance route cannot
    # reach, with each poset in its own element order and in a shuffled one
    rng = random.Random(N)
    cases = witnesses = 0
    for Q in _pointed_posets(5):
        elements = list(Q.elements)
        rng.shuffle(elements)
        for P in (Q, Poset(elements, Q.covers())):
            witness = failed_deflation_b(dirac(P, P.bottom()), N).witness
            got = witness and tuple(tuple(int(w * N) for w in v.weights) for v in witness)
            assert got == reference_rounding_witness(P, N), (P, N)
            cases += 1
            witnesses += witness is not None
    # 1,183 pointed posets, twice; from N = 2 all but the 15 bottoms under an
    # antichain have a witness
    assert (cases, witnesses) == (2366, 0 if N == 1 else 2336)


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
            cuts = _cuts(N, n)
            # the cut columns are the partial sums of the parts, 0 first
            assert cuts == [tuple(sum(t[:k]) for t in want) for k in range(n + 1)], (n, N)
            assert _compositions(cuts) == want, (n, N)
            assert [_point(cuts, i) for i in range(len(want))] == want, (n, N)
            if N:
                assert _grid_points(Poset(range(n), []), N) == cuts, (n, N)


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


def _fields(x, M, W):
    """The M fields of W bytes of the packed integer ``x``, low field first."""
    raw = x.to_bytes(M * W, "little")
    return [int.from_bytes(raw[i : i + W], "little") for i in range(0, M * W, W)]


def _check_packed_masses(P, N, vals):
    """``_grid_masses`` field by field against the per-point oracle."""
    D, want = grid_point_masses(P, N, vals)
    cuts, tops, W, ones, X, S = _grid_masses(P, N, vals)
    M = len(cuts[0])
    assert _compositions(cuts) == list(lex_compositions(N, len(P.elements)))
    # W is the least width whose fields hold D + 1 below their guard bit
    assert D + 1 < 2 ** (8 * W - 1) and (W == 1 or D + 1 >= 2 ** (8 * W - 9)), (D, W)
    assert _fields(ones, M, W) == [1] * M
    masks = P._upper_masks()[0]
    assert sorted(masks) == sorted(want)
    for u, m in enumerate(masks):
        assert tuple(top[u] for top in tops) == want[m][0], (P, N, m)
        assert list(zip(_fields(X[u], M, W), _fields(S[u], M, W))) == want[m][1], (P, N, m)
    return W


def test_packed_masses_match_a_per_point_oracle():
    rng = random.Random(33)
    for P in _pointed_posets(4):
        elements = list(P.elements)
        rng.shuffle(elements)
        P = Poset(elements, P.covers())
        for N in range(1, 5):
            vals = [_valuation(rng, P, rng.choice((4, 5, 7))) for _ in range(2)]
            _check_packed_masses(P, N, vals)


def test_packed_masses_with_two_byte_counts():
    # at N = 256 a count needs two bytes; at 255 one byte, in two-byte fields
    P = Poset(["a", "bot", "b"], [("bot", "a"), ("bot", "b")])
    rng = random.Random(256)
    for N in (255, 256):
        vals = [_valuation(rng, P, 5), dirac(P, "a")]
        assert _check_packed_masses(P, N, vals) == 2
        assert len(_grid_points(P, N)[0]) == (N + 1) * (N + 2) // 2


def test_bounds_and_approximants_with_two_byte_counts():
    P = _chain(2)
    N = 256
    rng = random.Random(2)
    for _ in range(3):
        v1, v2 = _valuation(rng, P, 7), _valuation(rng, P, 5)
        assert minimal_upper_bounds_grid(v1, v2, N) == dominance_minimal_upper_bounds(v1, v2, N)
        assert maximal_below_grid(v1, N) == dominance_maximal_below(v1, N)


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
