import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    MixingReport,
    MonotoneMap,
    Poset,
    PosetError,
    Valuation,
    ValuationError,
    dirac,
    failed_deflation_a,
    failed_deflation_b,
    failed_deflation_c,
    format_valuation,
    grid,
    grid_poset,
    maximal_below_grid,
    minimal_upper_bounds_grid,
    mixing_oracle,
    parse_poset,
    parse_valuation,
    path_space,
    pushforward,
    pushforward_preimage,
    round_down_strict,
    stochastic_leq,
    stochastic_leq_report,
    tightly_below,
    way_below,
    way_below_report,
)
from ordbench import posets, valuations
from ordbench.valuations import _compositions, _cuts, _oracle_leq

from oracles import (
    brute_stochastic_leq,
    brute_upper_sets,
    random_pointed_poset,
    random_poset,
    random_valuation,
    strict_round_down,
    transpose,
)

DIAMOND = parse_poset("elements: bot a b top\norder: bot < a; bot < b; a < top; b < top")
F = Fraction
H = F(1, 2)


def val(**weights):
    return Valuation(DIAMOND, {k: F(v) for k, v in weights.items()})


# -- construction and arithmetic ------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(ValuationError, match="sum"):
        Valuation(DIAMOND, {"a": H})
    with pytest.raises(ValuationError, match="negative"):
        Valuation(DIAMOND, {"a": F(3, 2), "b": F(-1, 2)})


def test_dict_errors_name_the_first_bad_entry_in_element_order():
    # a dict is read in element order, whatever order its keys were given in
    with pytest.raises(ValuationError, match="negative weight at 'a': -1/2"):
        Valuation(DIAMOND, {"top": F(-1, 2), "a": F(-1, 2), "b": F(2)})
    with pytest.raises(ValueError, match="'x'"):
        Valuation(DIAMOND, {"top": "y", "a": "x"})


@pytest.mark.parametrize("text, message", [
    ("bot:1e-100000 a:1", "weights sum to a fraction too long to write, not 1"),
    ("bot:-1e-100000 a:1", "negative weight at 'bot': a fraction too long to write"),
    ("bot:1e-4000 a:1", f"weights sum to {F(10**4000 + 1, 10**4000)}, not 1"),
    ("bot:-1e-4000 a:1", f"negative weight at 'bot': {F(-1, 10**4000)}"),
])
def test_weight_refusals_write_the_number_when_they_can(text, message):
    # past the interpreter's digit limit the number is named, not written
    with pytest.raises(ValuationError) as err:
        parse_valuation(DIAMOND, text)
    assert type(err.value) is ValuationError and str(err.value) == message


def test_dirac_masses():
    d = dirac(DIAMOND, "bot")
    assert d.weight("bot") == 1
    assert d.mass(DIAMOND.up_closure(["bot"])) == 1
    da = dirac(DIAMOND, "a")
    assert da.mass(DIAMOND.up_closure(["a"])) == 1
    assert da.mass(DIAMOND.up_closure(["b"])) == 0


def test_dirac_at_bottom_is_least():
    d = dirac(DIAMOND, "bot")
    for other in grid(DIAMOND, 2):
        assert stochastic_leq(d, other)


def test_mass_of_upper_set():
    v = val(bot=H, a=F(1, 4), top=F(1, 4))
    assert v.mass(DIAMOND.up_closure(["a"])) == H
    assert v.mass(DIAMOND.elements) == 1


# -- stochastic order --------------------------------------------------------------


def test_half_bottom_half_a_below_half_a_half_top():
    assert stochastic_leq(val(bot=H, a=H), val(a=H, top=H))


def test_branch_valuations_are_incomparable():
    lo, hi = val(bot=H, a=H), val(bot=H, b=H)
    assert not stochastic_leq(lo, hi)
    assert not stochastic_leq(hi, lo)


def test_order_is_reflexive():
    v = val(bot=F(1, 3), a=F(1, 3), top=F(1, 3))
    assert stochastic_leq(v, v)


def test_transport_certificate_moves_mass_upward():
    rep = stochastic_leq_report(val(bot=H, a=H), val(a=H, top=H))
    assert rep.result
    assert sum(rep.transport.values()) == 1
    for (x, y), amount in rep.transport.items():
        assert DIAMOND.leq(x, y)
        assert amount > 0


def test_violating_upper_certificate():
    rep = stochastic_leq_report(val(bot=H, a=H), val(bot=H, b=H))
    assert not rep.result
    U = rep.violating_upper
    assert val(bot=H, a=H).mass(U) > val(bot=H, b=H).mass(U)


def test_modes_must_agree():
    v, w = val(bot=H, a=H), val(a=H, top=H)
    assert stochastic_leq(v, w, mode="oracle") == stochastic_leq(v, w, mode="flow")
    assert stochastic_leq(v, w, mode="both")


def test_poset_mismatch_rejected():
    other = parse_poset("elements: z\norder:")
    with pytest.raises(ValuationError):
        stochastic_leq(val(bot=1), Valuation(other, {"z": F(1)}))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_flow_decision_matches_upper_set_quantification(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 6))
    nu = random_valuation(rng, P, rng.choice([2, 3, 4]))
    mu = random_valuation(rng, P, rng.choice([2, 3, 4]))
    assert stochastic_leq(nu, mu) == brute_stochastic_leq(nu, mu)


def _coupling_problem(P, plan, nu, mu):
    """None if ``plan`` is an exact coupling of nu and mu on x <= y pairs."""
    rows = {x: F(0) for x in P.elements}
    cols = {y: F(0) for y in P.elements}
    for (x, y), w in plan.items():
        if type(w) is not Fraction or w <= 0:
            return f"weight {w!r} on {x}->{y}"
        if not P.leq(x, y):
            return f"{x}->{y} is not an order pair"
        rows[x] += w
        cols[y] += w
    if [rows[x] for x in P.elements] != list(nu.weights):
        return "row sums are not the left weights"
    if [cols[y] for y in P.elements] != list(mu.weights):
        return "column sums are not the right weights"
    return None


def _check_certificate(nu, mu, rep):
    P = nu.poset
    if rep.result:
        assert rep.violating_upper is None
        assert _coupling_problem(P, rep.transport, nu, mu) is None
    else:
        assert rep.transport is None
        U = rep.violating_upper
        assert P.up_closure(U) == U
        assert nu.mass(U) > mu.mass(U)


def _moved_up(rng, nu):
    """``nu`` with a random share of each weight moved to an element above."""
    P = nu.poset
    w = list(nu.weights)
    for i, x in enumerate(P.elements):
        if nu.weights[i]:
            j = P.index(rng.choice(sorted(P.up_closure([x]), key=P.index)))
            part = nu.weights[i] * F(rng.randint(0, 12), 12)
            w[i] -= part
            w[j] += part
    return Valuation(P, w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_flow_certificate_on_mixed_denominators(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 8))
    nu = random_valuation(rng, P, rng.randint(1, 12))
    if rng.random() < 0.5:
        mu = _moved_up(rng, nu)
    else:
        mu = random_valuation(rng, P, rng.randint(1, 12))
    rep = stochastic_leq_report(nu, mu)
    assert rep.result == _oracle_leq(nu, mu)
    if len(P) <= 5:
        assert rep.result == brute_stochastic_leq(nu, mu)
    _check_certificate(nu, mu, rep)


def test_augmentations_count_the_augmenting_paths():
    # bot -> a carries the first half, a -> top the second: two paths.
    assert stochastic_leq_report(val(bot=H, a=H), val(a=H, top=H)).augmentations == 2
    # Each of the three left supports is drained by a path of its own.
    t = F(1, 3)
    rep = stochastic_leq_report(val(bot=t, a=t, b=t), val(a=t, b=t, top=t))
    assert rep.result and rep.augmentations == 3
    assert stochastic_leq_report(val(top=1), val(top=1)).augmentations == 1
    assert stochastic_leq_report(val(top=1), val(bot=1)).augmentations == 0
    # The second path x2 -> y1 -> x1 -> y2 cancels the first path's x1 -> y1.
    Z = parse_poset("elements: x1 x2 y1 y2\norder: x1 < y1; x1 < y2; x2 < y1")
    nu, mu = parse_valuation(Z, "x1:1/2 x2:1/2"), parse_valuation(Z, "y1:1/2 y2:1/2")
    rep = stochastic_leq_report(nu, mu)
    assert list(rep.transport.items()) == [(("x1", "y2"), H), (("x2", "y1"), H)]
    assert rep.augmentations == 2


def test_flow_decides_both_directions_on_a_thousand_elements():
    rng = random.Random(7)
    rows, cols = 40, 25
    P = Poset(
        [(r, c) for r in range(rows) for c in range(cols)],
        [((r, c), (r + 1, c)) for r in range(rows - 1) for c in range(cols)]
        + [((r, c), (r, c + 1)) for r in range(rows) for c in range(cols - 1)],
    )
    points = rng.sample([(r, c) for r in range(rows - 4) for c in range(cols - 4)], 60)
    raw = [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in points]
    weights = [w / sum(raw) for w in raw]
    nu = Valuation(P, dict(zip(points, weights)))
    moved = {}
    for (r, c), w in zip(points, weights):
        up = (r + rng.randint(1, 4), c + rng.randint(0, 4))
        half = w / 2
        moved[(r, c)] = moved.get((r, c), F(0)) + half
        moved[up] = moved.get(up, F(0)) + w - half
    mu = Valuation(P, moved)
    up_rep = stochastic_leq_report(nu, mu)
    assert up_rep.result
    _check_certificate(nu, mu, up_rep)
    down_rep = stochastic_leq_report(mu, nu)
    assert not down_rep.result
    _check_certificate(mu, nu, down_rep)


def test_the_flow_report_and_the_covers_make_no_down_masks():
    """Deciding nu <= mu reads only up masks: a parsed poset, two valuations
    read on it and the flow report both ways leave its down masks unmade,
    and so do the covers of a parsed poset. The first upper-set listing
    makes them: the transpose of the up masks."""
    text = "elements: bot a b c top\norder: bot < a; bot < b; a < c; b < c; c < top\n"
    P = parse_poset(text)
    nu, mu = parse_valuation(P, "bot:1/2 a:1/2"), parse_valuation(P, "b:1/2 top:1/2")
    assert stochastic_leq_report(nu, mu).result and not stochastic_leq_report(mu, nu).result
    Q = parse_poset(text)
    assert Q.covers() == (("bot", "a"), ("bot", "b"), ("a", "c"), ("b", "c"), ("c", "top"))
    for R in (P, Q):
        assert R._down_cache is None
        assert len(R.upper_sets()) == 7
        assert R._down_cache == transpose(R._up)


# -- way-below -----------------------------------------------------------------------


def test_bottom_dirac_way_below_top_dirac():
    assert way_below(dirac(DIAMOND, "bot"), dirac(DIAMOND, "top"))


def test_bottom_dirac_way_below_itself():
    assert way_below(dirac(DIAMOND, "bot"), dirac(DIAMOND, "bot"))


def test_equality_on_an_upper_set_blocks_way_below():
    nu = val(bot=F(1, 3), a=F(2, 3))
    mu = val(a=F(1, 3), b=F(1, 3), top=F(1, 3))
    rep = way_below_report(nu, mu)
    assert not rep.result
    kinds = {v["kind"] for v in rep.violations}
    assert "equal_mass" in kinds


def test_a_failing_way_below_lists_no_violation(monkeypatch):
    # bottom below a 14-element antichain: 16,385 upper sets, and a failing
    # report lists 10,240 violations; the bool answer builds none of them
    P = Poset(["bot", *(f"a{i}" for i in range(14))], [("bot", f"a{i}") for i in range(14)])
    nu = parse_valuation(P, "a0:1/2 a1:1/2")
    mu = parse_valuation(P, "a0:1/2 a2:1/2")
    assert len(way_below_report(nu, mu).violations) == 10_240

    def listed(self, mask):
        raise AssertionError("way_below built an upper set")

    monkeypatch.setattr(Poset, "_set_of", listed)
    assert not way_below(nu, mu) and not way_below(mu, nu)
    assert way_below(dirac(P, "bot"), mu)


def test_way_below_implies_order():
    rng = random.Random(11)
    found = 0
    for _ in range(200):
        nu = random_valuation(rng, DIAMOND, 4)
        mu = random_valuation(rng, DIAMOND, 4)
        if way_below(nu, mu):
            found += 1
            assert stochastic_leq(nu, mu)
    assert found  # the sweep must actually exercise some positive cases


def test_way_below_requires_pointed_poset():
    """Strict approximation and the mixing oracle share one refusal, made
    before any upper set is listed: the 21-element antichain is refused for
    having no bottom, not by the upper-set guard."""
    for P in (parse_poset("elements: u v\norder:"), Poset(range(21), [])):
        one = dirac(P, P.elements[0])
        for call in (way_below, way_below_report, mixing_oracle):
            with pytest.raises(ValuationError) as err:
                call(one, one)
            assert str(err.value) == "strict approximation needs a pointed poset"


def test_way_below_matches_mixing_oracle():
    """Strict domination on proper upper sets is the same as mixing in some bottom mass."""
    rng = random.Random(23)
    for _ in range(120):
        P = random_poset(rng, rng.randint(2, 5))
        if P.bottom() is None:
            continue
        nu = random_valuation(rng, P, 3)
        mu = random_valuation(rng, P, 3)
        rep = mixing_oracle(nu, mu)
        assert way_below(nu, mu) == rep.exists
        if rep.exists:
            k = 1 / rep.epsilon
            assert stochastic_leq(nu, _bottom_mix(mu, rep.epsilon))
            if k > 1:  # the reported epsilon is the largest of the form 1/k
                assert not stochastic_leq(nu, _bottom_mix(mu, F(1, k - 1)))


def _bottom_mix(mu, eps):
    """(1 - eps) * mu + eps * (unit mass at bottom)."""
    bot = mu.poset.bottom()
    weights = {x: (1 - eps) * w for x, w in zip(mu.poset.elements, mu.weights)}
    weights[bot] += eps
    return Valuation(mu.poset, weights)


def test_mixing_oracle_at_a_large_prime_denominator():
    """The first feasible k near D / 2 and the infeasible case come out directly."""
    D = 100003
    nu = val(bot=H + F(1, D), top=H - F(1, D))
    mu = val(bot=H, top=H)
    # six upper sets on the diamond, common denominator 2D
    assert mixing_oracle(nu, mu) == MixingReport(True, F(1, 50002), 2400072)
    assert not stochastic_leq(nu, _bottom_mix(mu, F(1, 50001)))
    unrelated = val(bot=1 - F(1, D), a=F(1, D))
    assert mixing_oracle(unrelated, dirac(DIAMOND, "b")) == MixingReport(
        False, None, 1200036
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_upper_mass_queries_match_fraction_sums(seed):
    """Violation lists, tight domination, rounded masses and the first
    modularity witness agree with summing Fractions over brute-force upper
    sets, in increasing-bitmask order."""
    rng = random.Random(seed)
    P = random_pointed_poset(rng, rng.randint(1, 7))
    nu = random_valuation(rng, P, rng.randint(1, 12))
    mu = nu if rng.random() < 0.2 else random_valuation(rng, P, rng.randint(1, 12))
    uppers = sorted(
        brute_upper_sets(P), key=lambda U: sum(1 << P.index(x) for x in U)
    )
    proper = uppers[:-1]
    want = []
    for U in proper:
        a, b = nu.mass(U), mu.mass(U)
        if b == 0 and a > 0:
            kind = "support_on_null"
        elif b > 0 and a > b:
            kind = "mass_exceeds"
        elif b > 0 and a == b:
            kind = "equal_mass"
        else:
            continue
        want.append({"kind": kind, "upper": U, "lhs": a, "rhs": b})
    assert list(way_below_report(nu, mu).violations) == want

    supp = set(nu.support)
    assert tightly_below(nu, mu) == all(
        nu.mass(U) < mu.mass(U)
        or (nu.mass(U) == mu.mass(U) and (nu.mass(U) == 0 or len(supp & U) == 1))
        for U in proper
    )

    N = rng.randint(1, 5)
    f = {U: strict_round_down(nu.mass(U), F(1, N)) for U in uppers}
    pairs = itertools.combinations(uppers, 2)
    witness = next(((U, V) for U, V in pairs if f[U | V] + f[U & V] != f[U] + f[V]), None)
    out = failed_deflation_a(nu, N)
    assert (list(out.values.items()), out.witness) == (list(f.items()), witness)


# -- pushforward -----------------------------------------------------------------------


def test_pushforward_along_identity():
    v = val(bot=H, top=H)
    ident = MonotoneMap(DIAMOND, DIAMOND, lambda x: x)
    assert pushforward(ident, v) == v


def test_pushforward_of_path_masses():
    Pi, r = path_space(DIAMOND)
    nu = Valuation(Pi, {("bot", "a"): H, ("bot", "b", "top"): H})
    assert pushforward(r, nu) == val(a=H, top=H)


def test_pushforward_to_constant():
    const = MonotoneMap(DIAMOND, DIAMOND, {x: "bot" for x in DIAMOND.elements})
    assert pushforward(const, val(a=H, top=H)) == dirac(DIAMOND, "bot")


def test_pushforward_satisfies_preimage_equation():
    Pi, r = path_space(DIAMOND)
    nu = Valuation(Pi, {("bot",): F(1, 4), ("bot", "a"): F(1, 4), ("bot", "b", "top"): H})
    out = pushforward(r, nu)
    for U in DIAMOND.upper_sets():
        pre = frozenset(p for p in Pi.elements if r(p) in U)
        assert out.mass(U) == nu.mass(pre)


def test_preimage_picks_lexicographically_least_representative():
    Pi, r = path_space(DIAMOND)
    back = pushforward_preimage(r, val(bot=H, top=H))
    assert back.weight(("bot",)) == H
    assert back.weight(("bot", "a", "top")) == H
    assert pushforward(r, back) == val(bot=H, top=H)


def test_preimage_of_identity_is_identity():
    ident = MonotoneMap(DIAMOND, DIAMOND, lambda x: x)
    v = val(a=F(1, 3), b=F(2, 3))
    assert pushforward_preimage(ident, v) == v


def test_preimage_requires_surjectivity():
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    inj = MonotoneMap(chain, DIAMOND, {"z0": "bot", "z1": "top"})
    with pytest.raises(ValuationError, match="surjective"):
        pushforward_preimage(inj, val(a=F(1)))


def test_pushforward_is_functorial():
    rng = random.Random(3)
    from oracles import random_monotone_map

    for _ in range(30):
        X = random_poset(rng, rng.randint(1, 5))
        Y = random_poset(rng, rng.randint(1, 5))
        Z = random_poset(rng, rng.randint(1, 5))
        f = MonotoneMap(X, Y, random_monotone_map(rng, X, Y))
        g = MonotoneMap(Y, Z, random_monotone_map(rng, Y, Z))
        nu = random_valuation(rng, X, 4)
        assert pushforward(g, pushforward(f, nu)) == pushforward(g.compose(f), nu)


# -- grids ---------------------------------------------------------------------------


def test_grid_of_denominator_one_is_diracs():
    vals = grid(DIAMOND, 1)
    assert len(vals) == 4
    assert dirac(DIAMOND, "a") in vals


def test_grid_counts_follow_stars_and_bars():
    assert len(grid(DIAMOND, 2)) == 10
    for N in (1, 2, 3, 4):
        assert len(grid(DIAMOND, N)) == comb(N + 3, 3)


def test_grid_lists_compositions_lexicographically():
    P = Poset(range(3), [])
    expected = sorted(t for t in itertools.product(range(4), repeat=3) if sum(t) == 3)
    assert [tuple(v.weights[i] * 3 for i in range(3)) for v in grid(P, 3)] == expected


def test_grid_compositions_need_no_recursion():
    # grid(P, 1) on an 1100-element P is within GRID_CAP; its compositions
    # have one part per element
    n = 1100
    units = [tuple(int(i == j) for j in range(n)) for i in reversed(range(n))]
    assert _compositions(_cuts(1, n)) == units


def test_grid_of_a_long_chain_at_denominator_one():
    n = 1100
    P = Poset(range(n), [(i, i + 1) for i in range(n - 1)])
    G = grid(P, 1)
    # one Dirac per element, lexicographic: the last element's comes first
    assert [v.support for v in G] == [(e,) for e in reversed(P.elements)]
    assert all(v.weight(v.support[0]) == 1 for v in G)


def test_grid_cap():
    with pytest.raises(ValuationError, match="cap"):
        grid(DIAMOND, 200)


def test_grid_cap_holds_at_the_count_and_trips_one_below(monkeypatch):
    # the diamond's grid at N = 2 has C(5, 3) = 10 points; every consumer
    # reads the one GRID_CAP
    nu = parse_valuation(DIAMOND, "a:1/2 b:1/2")
    consumers = (
        lambda: grid(DIAMOND, 2),
        lambda: grid_poset(DIAMOND, 2),
        lambda: minimal_upper_bounds_grid(dirac(DIAMOND, "a"), dirac(DIAMOND, "b"), 2),
        lambda: maximal_below_grid(nu, 2),
        lambda: failed_deflation_b(nu, 2),
        lambda: failed_deflation_c(nu, 2),
    )
    monkeypatch.setattr(valuations, "GRID_CAP", 10)
    assert len(grid(DIAMOND, 2)) == len(grid_poset(DIAMOND, 2)) == 10
    for consumer in consumers:
        consumer()
    monkeypatch.setattr(valuations, "GRID_CAP", 9)
    for consumer in consumers:
        with pytest.raises(ValuationError) as err:
            consumer()
        assert str(err.value) == "grid would hold 10 valuations, above the cap of 9"


def test_upper_max_elements_holds_at_the_count_and_trips_one_below(monkeypatch):
    # every upper-set consumer reads the one UPPER_MAX_ELEMENTS, and it is
    # checked before the diamond's cached listing is returned
    nu = parse_valuation(DIAMOND, "a:1/2 b:1/2")
    lo = dirac(DIAMOND, "bot")
    consumers = (
        DIAMOND.upper_sets,
        lambda: way_below_report(lo, nu),
        lambda: mixing_oracle(lo, nu),
        lambda: tightly_below(lo, nu),
        lambda: stochastic_leq(lo, nu, mode="oracle"),
        lambda: minimal_upper_bounds_grid(dirac(DIAMOND, "a"), dirac(DIAMOND, "b"), 2),
        lambda: maximal_below_grid(nu, 2),
        lambda: failed_deflation_a(nu, 2),
    )
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 4)
    assert len(DIAMOND.upper_sets()) == 6
    for consumer in consumers:
        consumer()
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 3)
    for consumer in consumers:
        with pytest.raises(PosetError) as err:
            consumer()
        assert str(err.value) == (
            "upper-set enumeration on 4 elements may list up to 2^4 sets, "
            "above the limit of 3 elements"
        )


def test_grid_poset_orders_by_stochastic_leq():
    G = grid_poset(DIAMOND, 1)
    assert G.leq(dirac(DIAMOND, "bot"), dirac(DIAMOND, "top"))
    assert not G.leq(dirac(DIAMOND, "a"), dirac(DIAMOND, "b"))


# -- bounds in the grid ------------------------------------------------------------------


def test_minimal_upper_bounds_of_the_branch_pair():
    mubs = minimal_upper_bounds_grid(val(bot=H, a=H), val(bot=H, b=H), 2)
    assert set(mubs) == {val(a=H, b=H), val(bot=H, top=H)}


def test_minimal_upper_bound_of_a_point_is_itself():
    d = dirac(DIAMOND, "bot")
    assert minimal_upper_bounds_grid(d, d, 2) == [d]


def test_minimal_upper_bounds_can_be_empty():
    vee = parse_poset("elements: r p q\norder: r < p; r < q")
    assert minimal_upper_bounds_grid(dirac(vee, "p"), dirac(vee, "q"), 1) == []


def test_upper_bound_region_inequalities():
    """Bounding both branch valuations constrains the a-to-top and b-to-top masses."""
    lo_a, lo_b = val(bot=H, a=H), val(bot=H, b=H)
    for N in range(1, 7):
        for mu in grid(DIAMOND, N):
            bound = stochastic_leq(lo_a, mu) and stochastic_leq(lo_b, mu)
            ineq = (
                mu.weight("a") + mu.weight("top") >= H
                and mu.weight("b") + mu.weight("top") >= H
            )
            assert bound == ineq


def test_four_largest_below_the_uniform_valuation():
    nu = val(a=F(1, 3), b=F(1, 3), top=F(1, 3))
    third = F(1, 3)
    got = maximal_below_grid(nu, 3)
    assert set(got) == {
        val(bot=third, a=2 * third),
        val(bot=third, a=third, b=third),
        val(bot=2 * third, top=third),
        val(bot=third, b=2 * third),
    }


def test_grid_point_is_its_own_maximal_below():
    v = val(bot=H, a=H)
    assert maximal_below_grid(v, 2) == [v]


def test_coarse_grid_below_collapses_to_bottom():
    nu = val(a=F(1, 3), b=F(1, 3), top=F(1, 3))
    assert maximal_below_grid(nu, 1) == [dirac(DIAMOND, "bot")]


def test_bounds_families_are_antichains_and_cover():
    rng = random.Random(5)
    for _ in range(25):
        nu = random_valuation(rng, DIAMOND, 6)
        below = maximal_below_grid(nu, 3)
        assert below
        for m in below:
            assert stochastic_leq(m, nu)
            assert tightly_below(m, nu)
        for m in below:
            for m2 in below:
                if m != m2:
                    assert not stochastic_leq(m, m2)
        for g in grid(DIAMOND, 3):
            if tightly_below(g, nu):
                assert any(stochastic_leq(g, m) for m in below)


# -- the three failed roundings -------------------------------------------------------


def test_strict_rounding():
    assert round_down_strict(H, H) == 0
    assert round_down_strict(F(3, 4), H) == H
    assert round_down_strict(F(0), H) == 0
    assert round_down_strict(F(1, 5), H) == 0


@given(st.integers(-20, 40), st.integers(1, 12), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_strict_rounding_matches_the_ceiling_definition(num, den, snum, sden):
    v, step = F(num, den), F(snum, sden)
    assert round_down_strict(v, step) == strict_round_down(v, step)


@pytest.mark.parametrize("N", [0, -1, 2.0, "2", F(2)])
def test_rounding_schemes_check_the_denominator_first(N):
    for scheme in (failed_deflation_a, failed_deflation_b):
        with pytest.raises(ValuationError, match="^grid denominator must be a positive integer$"):
            scheme(val(a=H, b=H), N)


def test_set_function_rounding_breaks_modularity():
    out = failed_deflation_a(val(a=H, b=H), 2)
    U, V = DIAMOND.up_closure(["a"]), DIAMOND.up_closure(["b"])
    assert out.values[U] == 0
    assert out.values[V] == 0
    assert out.values[U | V] == H
    assert out.witness is not None
    W1, W2 = out.witness
    f = out.values
    assert f[W1 | W2] + f[W1 & W2] != f[W1] + f[W2]


def test_set_function_rounding_of_bottom_dirac_is_modular():
    out = failed_deflation_a(dirac(DIAMOND, "bot"), 2)
    assert out.witness is None
    for U in DIAMOND.upper_sets():
        if U and U != frozenset(DIAMOND.elements):
            assert out.values[U] == 0


def test_weight_rounding_is_not_monotone():
    out = failed_deflation_b(dirac(DIAMOND, "a"), 2)
    assert out.rounded == val(bot=H, a=H)
    assert out.witness is not None
    lo, hi = out.witness
    assert stochastic_leq(lo, hi)
    assert not stochastic_leq(
        failed_deflation_b(lo, 2).rounded, failed_deflation_b(hi, 2).rounded
    )


def test_weight_rounding_names_the_half_mass_pair():
    out = failed_deflation_b(dirac(DIAMOND, "a"), 2)
    lo, hi = out.witness
    assert failed_deflation_b(hi, 2).rounded == dirac(DIAMOND, "bot")


def test_weight_rounding_fixes_bottom_and_stays_below():
    assert failed_deflation_b(dirac(DIAMOND, "bot"), 3).rounded == dirac(DIAMOND, "bot")
    rng = random.Random(17)
    for _ in range(40):
        nu = random_valuation(rng, DIAMOND, 5)
        assert stochastic_leq(failed_deflation_b(nu, 2).rounded, nu)


def test_largest_below_is_not_unique():
    rep = failed_deflation_c(val(a=F(1, 3), b=F(1, 3), top=F(1, 3)), 3)
    assert rep.cardinality == 4
    assert not rep.unique


def test_largest_below_unique_on_grid_points():
    rep = failed_deflation_c(val(bot=H, a=H), 2)
    assert rep.cardinality == 1 and rep.unique
    rep2 = failed_deflation_c(dirac(DIAMOND, "top"), 1)
    assert rep2.members == (dirac(DIAMOND, "top"),)


# -- text format ---------------------------------------------------------------------


def test_valuation_format_round_trip():
    v = val(bot=F(1, 6), a=F(1, 3), top=H)
    assert parse_valuation(DIAMOND, format_valuation(v)) == v


def test_valuation_parser_checks_total_mass():
    with pytest.raises(ValuationError):
        parse_valuation(DIAMOND, "a:1/2")
    with pytest.raises(ValuationError):
        parse_valuation(DIAMOND, "a:1/2 zed:1/2")


def test_valuation_format_omits_zero_weights():
    text = format_valuation(val(a=F(1), b=F(0)))
    assert "b" not in text


def test_valuations_are_immutable():
    # a valuation is hashable, so its poset and weights stay as built
    nu = val(a=F(1, 2), b=F(1, 2))
    other = parse_poset("elements: x y\norder: x < y")
    for attr, value in (("poset", other), ("weights", (F(1), F(0))), ("anything", 1)):
        with pytest.raises(AttributeError):
            setattr(nu, attr, value)
    assert nu.poset is DIAMOND and nu == val(a=F(1, 2), b=F(1, 2))


# -- refusals -------------------------------------------------------------------

ANTICHAIN2 = Poset(["p", "q"], [])
ONTO_CHAIN = MonotoneMap(DIAMOND, parse_poset("elements: z0 z1\norder: z0 < z1"),
                         {"bot": "z0", "a": "z0", "b": "z1", "top": "z1"})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Valuation(DIAMOND, [1]), "expected 4 weights, got 1"),
        (lambda: parse_valuation(DIAMOND, "a:"), "malformed entry 'a:', expected elem:p/q"),
        (lambda: stochastic_leq(dirac(DIAMOND, "a"), dirac(DIAMOND, "a"), mode="x"),
         "unknown mode 'x'"),
        (lambda: pushforward(ONTO_CHAIN, dirac(ONTO_CHAIN.target, "z0")),
         "valuation does not live on the map's source"),
        (lambda: pushforward_preimage(ONTO_CHAIN, dirac(DIAMOND, "a")),
         "valuation does not live on the map's target"),
        (lambda: grid(Poset([], []), 1), "grid needs a nonempty poset"),
        (lambda: round_down_strict(1, 0), "step must be positive"),
        *((lambda f=f: f(dirac(ANTICHAIN2, "p"), 2), "this construction needs a pointed poset")
          for f in (failed_deflation_a, failed_deflation_b, failed_deflation_c)),
    ],
)
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(ValuationError) as err:
        call()
    assert type(err.value) is ValuationError and str(err.value) == message
