"""Integer valuations against the Fraction route of ``oracles``.

A valuation is stored as integer numerators over one denominator, and the
parser reads plain ``p/q`` texts without building a Fraction. Every public
result must equal what the Fraction route gives: the same weights, the same
errors, the same plans, cuts and reports.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    MixingReport,
    Poset,
    PosetError,
    Valuation,
    ValuationError,
    admissible,
    admissible_to_valuation,
    failed_deflation_c,
    grid,
    mixing_oracle,
    parse_admissible,
    parse_poset,
    parse_valuation,
    path_space,
    pushforward,
    pushforward_preimage,
    stochastic_leq_report,
    tightly_below,
    valuation_to_admissible,
    way_below_report,
)
from ordbench.cli import main
from ordbench.posets import MonotoneMap
from ordbench.valuations import _maximal_below, _spelled, _weight_text

from oracles import (
    SPELLINGS,
    brute_posets,
    dominance_grid,
    fraction_children_first,
    fraction_entries,
    random_monotone_map,
    random_pointed_poset,
    random_poset,
    reference_parse_valuation,
    reference_pushforward,
    reference_preimage,
    reference_tightly_below,
    reference_transport,
    reference_way_below,
    reference_weights,
)

CHAIN = parse_poset("elements: a b\norder: a < b")
FORK = parse_poset("elements: r x y\norder: r < x; r < y")

def outcome(call):
    """The result of ``call``, or the type and text of the error it raised."""
    try:
        return call()
    except (PosetError, ValuationError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("spelling, error", SPELLINGS, ids=[s[:8] for s, _ in SPELLINGS])
def test_spellings_read_as_the_fraction_route_reads_them(spelling, error):
    text = f"a:{spelling} b:1/2"
    got = outcome(lambda: parse_valuation(CHAIN, text).weights)
    assert got == outcome(lambda: reference_parse_valuation(CHAIN, text))
    if error is None:
        assert got == (Fraction(1, 2), Fraction(1, 2))
    else:
        assert got[0] is ValuationError and got[1].startswith(error)

    lines = ["kind: admissible", "r:1", f"x:{spelling}"]
    text = "\n".join(lines) + "\n"
    entries = ((f"line {ln}: ", line) for ln, line in enumerate(lines[1:], 2))
    got = outcome(lambda: parse_admissible(FORK, text).values)
    assert got == outcome(lambda: admissible(FORK, fraction_entries(FORK, entries, "line")).values)


def test_an_over_long_numerator_is_a_usage_error(capsys, tmp_path):
    poset = tmp_path / "chain.poset"
    poset.write_text("elements: a b\norder: a < b\n")
    code = main(["val-order", str(poset), "a:" + "1" * 5000, "b:1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: bad fraction in 'a:111")


@pytest.mark.parametrize("D", [1, 2, 6, 12, 35, 10**30])
def test_weights_are_spelled_as_fraction_writes_them(D):
    # negative numerators appear in error messages, zero and positive ones in output
    for k in (-3 * D - 1, -2 * D, -D, -7, -1, 0, 1, 3, D - 1, D, 4 * D, 4 * D + 5, 10**25):
        assert _spelled(k, D) == _weight_text(k, D) == str(Fraction(k, D))
    assert _weight_text(10**5000, D) == _weight_text(-(10**5000), D) == "a fraction too long to write"


def random_weights(rng, P):
    """Random weights with mixed denominators: a random support, random
    positive parts over random denominators, normalized to sum to one."""
    n = len(P.elements)
    support = rng.sample(range(n), rng.randint(1, n))
    parts = {i: Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 6, 7, 12))) for i in support}
    total = sum(parts.values())
    return tuple(parts.get(i, Fraction(0)) / total for i in range(n))


def spell(rng, P, weights):
    """A text of ``weights`` in shuffled order, each fraction in lowest
    terms or scaled up by a random factor, with a zero entry now and then."""
    entries = []
    for e, w in zip(P.elements, weights):
        if w or rng.random() < 0.2:
            k = rng.choice((1, 1, 2, 7))
            entries.append(f"{e}:{w.numerator * k}/{w.denominator * k}" if k > 1 else f"{e}:{w}")
    rng.shuffle(entries)
    return " ".join(entries)


def assert_reference_flow(P, a, b, rep):
    """``rep`` has the plan, in the same key order, and the cut of
    ``reference_transport`` on the weight tuples ``a`` and ``b``."""
    plan, upper = reference_transport(P, a, b)
    assert list((rep.transport or {}).items()) == list((plan or {}).items())
    assert (rep.result, rep.violating_upper) == (plan is not None, upper)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_integer_valuations_match_the_fraction_route(seed):
    rng = random.Random(seed)
    # some large posets, so the plans below cover long augmenting paths
    # that cancel flow; the checks that list every upper set stay small
    n = rng.randint(1, 7) if rng.random() < 0.8 else rng.randint(8, 40)
    P = random_pointed_poset(rng, n) if rng.random() < 0.7 else random_poset(rng, n)
    P = parse_poset("elements: " + " ".join(map(str, P.elements)) + "\norder: "
                    + "; ".join(f"{a} < {b}" for a, b in P.covers()))
    a, b = random_weights(rng, P), random_weights(rng, P)
    nu, mu = parse_valuation(P, spell(rng, P, a)), parse_valuation(P, spell(rng, P, b))
    assert nu.weights == reference_parse_valuation(P, spell(rng, P, a)) == a
    assert mu.weights == b
    assert str(nu) == " ".join(f"{e}:{w}" for e, w in zip(P.elements, a) if w)

    # equality and hashing do not see the spelling or the constructor
    again = parse_valuation(P, spell(rng, P, a))
    built = Valuation(P, dict(zip(P.elements, a)))
    assert nu == again == built and hash(nu) == hash(again) == hash(built)
    assert (nu == mu) == (a == b)

    assert_reference_flow(P, a, b, stochastic_leq_report(nu, mu))

    if P.is_pointed and n <= 7:
        violations, mixing = reference_way_below(P, a, b)
        assert list(way_below_report(nu, mu).violations) == violations
        assert mixing_oracle(nu, mu) == MixingReport(*mixing)
        assert tightly_below(nu, mu) == reference_tightly_below(P, a, b)

    Q = random_poset(rng, rng.randint(1, 3))
    r = MonotoneMap(P, Q, random_monotone_map(rng, P, Q))
    pushed = pushforward(r, nu)
    assert pushed.weights == reference_pushforward(r, a)
    rebuilt = Valuation(Q, pushed.weights)
    assert pushed == rebuilt and hash(pushed) == hash(rebuilt)
    if set(r.values) == set(Q.elements):
        c = random_weights(rng, Q)
        lifted = pushforward_preimage(r, Valuation(Q, c))
        assert lifted.weights == reference_preimage(r, c)
        assert lifted == Valuation(P, lifted.weights) and pushforward(r, lifted).weights == c

    N = rng.randint(1, 3)
    if len(P.elements) <= 5:
        points, reference = grid(P, N), dominance_grid(P, N)
        assert [v.weights for v in points] == [v.weights for v in reference]
        assert points == reference and list(map(hash, points)) == list(map(hash, reference))

    if P.is_pointed and n <= 7:
        T, _ = path_space(P)
        w = random_weights(rng, T)
        tv = Valuation(T, w)
        f = valuation_to_admissible(tv)
        assert f.values == fraction_children_first(T, lambda i, s: w[i] + s)
        back = admissible_to_valuation(f)
        assert back == tv and hash(back) == hash(tv)
        assert back.weights == tuple(reference_weights(T, f.values).get(e, 0) for e in T.elements)


def test_plans_match_the_residual_graph_flow_on_sparse_posets():
    # Sparse orders on up to 40 elements, named in shuffled order, give long
    # augmenting paths with several backward steps.
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 40)
        order = rng.sample(range(n), n)
        p = rng.choice((0.05, 0.1, 0.2))
        rels = [(x, y) for k, x in enumerate(order) for y in order[k + 1:] if rng.random() < p]
        P = Poset(tuple(rng.sample(range(n), n)), rels)
        a = random_weights(rng, P)
        b = random_weights(rng, P)
        if rng.random() < 0.5:  # move each weight up, so that a sits below b
            b = [Fraction(0)] * n
            for x, w in zip(P.elements, a):
                b[P.index(rng.choice([y for y in P.elements if P.leq(x, y)]))] += w
        rep = stochastic_leq_report(Valuation(P, a), Valuation(P, b))
        assert_reference_flow(P, a, tuple(b), rep)


def test_the_shared_scan_matches_attempt_c_per_target():
    for n in range(1, 5):
        for P in brute_posets(n):
            if not P.is_pointed:
                continue
            for N in range(1, 4):
                targets = grid(P, N)
                shared = list(_maximal_below(P, N, targets))
                assert shared == [list(failed_deflation_c(v, N).members) for v in targets]
