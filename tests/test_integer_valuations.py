"""Integer valuations against the Fraction route of ``oracles``.

A valuation is stored as integer numerators over one denominator, and the
parser reads plain ``p/q`` texts without building a Fraction. Every public
result must equal what the Fraction route gives: the same weights, the same
errors, the same plans, cuts and reports.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    AdmissibleMap,
    MixingReport,
    Poset,
    PosetError,
    Valuation,
    ValuationError,
    admissible,
    admissible_to_valuation,
    check_admissible,
    failed_deflation_c,
    format_admissible,
    format_map,
    grid,
    mixing_oracle,
    parse_admissible,
    parse_poset,
    parse_valuation,
    path_space,
    pushforward,
    pushforward_preimage,
    round_down_strict,
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
    reference_admissible_ints,
    reference_parse_valuation,
    reference_pushforward,
    reference_preimage,
    reference_round_down_strict,
    reference_tightly_below,
    reference_transport,
    reference_valuation_ints,
    reference_valuation_repr,
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
    """``rep`` has the plan, in the same key order and as Fractions, the cut
    and the number of augmenting paths of ``reference_transport`` on the
    weight tuples ``a`` and ``b``. Returns that number."""
    plan, upper, paths = reference_transport(P, a, b)
    assert list((rep.transport or {}).items()) == list((plan or {}).items())
    assert all(type(w) is Fraction for w in (rep.transport or {}).values())
    assert (rep.result, rep.violating_upper) == (plan is not None, upper)
    assert rep.augmentations == paths
    return paths


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


def one_hop_pushes(P, a, b):
    """The pushes of a left-to-right scan on the weight tuples ``a`` and
    ``b``: for each element in order and each element above it in order,
    the least of what the first still sends and the second still takes,
    counted when positive."""
    send, take, pushes = list(a), list(b), 0
    for i, x in enumerate(P.elements):
        for j, y in enumerate(P.elements):
            f = min(send[i], take[j])
            if f and P.leq(x, y):
                send[i] -= f
                take[j] -= f
                pushes += 1
    return pushes


def test_plans_match_the_residual_graph_flow_on_the_benchmark_shapes():
    # Chain products and pointed posets with about 3n random edges, as the
    # order-flow benchmark draws them, on 16-100 elements named in shuffled
    # order; nu moved up to mu, then the same pair reversed. The library
    # takes the one-hop paths by a scan before its first search: on some
    # pairs that scan finishes the flow, on others a longer path must cancel
    # flow the scan placed (the first path after the one-hop ones always
    # cancels some, as it is the only flow there is).
    rng = random.Random(37)
    finished = cancelled = 0
    for t in range(40):
        n = rng.randint(16, 100)
        if t % 2:
            rows = rng.randint(2, 8)
            cols = max(2, n // rows)
            rels = [((i, j), (i + di, j + dj)) for i in range(rows) for j in range(cols)
                    for di, dj in ((1, 0), (0, 1)) if i + di < rows and j + dj < cols]
            names = [(i, j) for i in range(rows) for j in range(cols)]
        else:
            pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
            rels = [(0, j) for j in range(1, n)] + rng.sample(pairs, round(min(0.5, 3 / n) * len(pairs)))
            names = list(range(n))
        rng.shuffle(rels)
        P = Poset(tuple(rng.sample(names, len(names))), rels)
        n, d = len(names), rng.randint(6, 60)
        low = [0] * n
        slots = rng.sample(range(n), rng.randint(2, min(d, n, 24)))
        for k in range(d):
            low[slots[k] if k < len(slots) else rng.choice(slots)] += 1
        high = list(low)
        for i, c in enumerate(low):
            above = [j for j, y in enumerate(P.elements) if j != i and P.leq(P.elements[i], y)]
            if above and c >= 2:
                high[i] -= c // 2
                high[rng.choice(above)] += c // 2
        for x, y in ((low, high), (high, low)):
            a, b = (tuple(Fraction(k, d) for k in w) for w in (x, y))
            paths = assert_reference_flow(P, a, b, stochastic_leq_report(Valuation(P, a), Valuation(P, b)))
            pushes = one_hop_pushes(P, a, b)
            assert pushes <= paths
            finished += pushes == paths
            cancelled += pushes < paths
    assert finished and cancelled


def test_the_shared_scan_matches_attempt_c_per_target():
    for n in range(1, 5):
        for P in brute_posets(n):
            if not P.is_pointed:
                continue
            for N in range(1, 4):
                targets = grid(P, N)
                shared = list(_maximal_below(P, N, targets))
                assert shared == [list(failed_deflation_c(v, N).members) for v in targets]


# -- the one reader of given rationals against Fraction ------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
TINY = Fraction(1, 10**5000)  # its denominator has more digits than str() writes
BAD = [
    "x", "1/0", "0/0", "1/2/3", "", None, float("nan"), float("inf"), 1j, [1],
    "1" * 5000, "1/" + "1" * 5000,
    "\u00b2", "1/\u00b2",  # digits to str.isdigit, but not decimal digits
]


def attempt(call):
    """The result of ``call``, or the type and text of any error it raised."""
    try:
        return call()
    except Exception as err:  # the reader must raise what Fraction raises
        return type(err), str(err)


def spelled(rng, r):
    """The rational ``r`` as a number or text that ``Fraction`` reads as r."""
    p, q = r.numerator, r.denominator
    if q.bit_length() > 10_000:  # no text: str() refuses so many digits
        return r
    k = rng.randint(2, 5)
    ways = [r, f"{p * k}/{q * k}", str(r).translate(ARABIC_INDIC), f" {r} ", f"{p}_0/{q}_0"]
    if p >= 0:
        ways.append(f"+{p}/{q}")
    if q == 1:
        ways += [p, str(p)]
    if p in (0, 1) and q == 1:
        ways.append(bool(p))
    if q & (q - 1) == 0:
        ways.append(float(r))
    m = next((m for m in range(12) if 10**m % q == 0), None)
    if m is not None:
        n = p * 10**m // q
        ways += [f"{n}e-{m}", str(Decimal(n).scaleb(-m)), Decimal(n).scaleb(-m)]
    return rng.choice(ways)


def rationals(rng, n):
    """``n`` Fractions summing to one, over a random common denominator or
    over mixed ones, zeros among them."""
    if rng.random() < 0.5:
        D = rng.choice((1, 2, 4, 5, 8, 10, 20, 40, 3, 6, 12))
        cuts = sorted(rng.randint(0, D) for _ in range(n - 1))
        return [Fraction(b - a, D) for a, b in zip([0, *cuts], [*cuts, D])]
    parts = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3, 7, 10))) for _ in range(n)]
    total = sum(parts)
    return [x / total for x in parts] if total else [Fraction(1)] + [Fraction(0)] * (n - 1)


def given_values(rng, n):
    """``n`` values as a caller might give them: spelled sums to one, now and
    then broken by a negative, a tiny part, a wrong total or bad values."""
    rs = rationals(rng, n)
    i, j = rng.randrange(n), rng.randrange(n)
    roll = rng.random()
    if roll < 0.1:
        rs[i], rs[j] = rs[i] - Fraction(1, 4), rs[j] + Fraction(1, 4)
    elif roll < 0.2:
        rs[i], rs[j] = rs[i] - TINY, rs[j] + TINY
    elif roll < 0.25:
        rs[i] += Fraction(1, 3)
    vals = [spelled(rng, r) for r in rs]
    for k in rng.sample(range(n), min(n, rng.choice((0, 0, 0, 1, 2)))):
        vals[k] = rng.choice(BAD)
    return vals


def read_valuation(P, weights):
    v = Valuation(P, weights)
    return (v._den, v._nums), v.weights, attempt(lambda: repr(v))


def reference_valuation(P, weights):
    D, nums = reference_valuation_ints(P, weights)
    shown = tuple(Fraction(k, D) for k in nums)
    return (D, nums), shown, attempt(lambda: reference_valuation_repr(P, D, nums))


def read_map(T, values):
    f = AdmissibleMap(T, values)
    return (f._den, f._nums), f.values, tuple(map(f, T.elements)), attempt(lambda: repr(f))


def reference_map(T, values):
    D, nums = reference_admissible_ints(T, values)
    shown = tuple(Fraction(k, D) for k in nums)
    return (D, nums), shown, shown, attempt(lambda: f"AdmissibleMap(tree={T!r}, values={shown!r})")


@pytest.mark.parametrize("seed", range(6))
def test_the_one_reader_reads_as_fraction_does(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        P = random_poset(rng, n)
        vals = given_values(rng, n)
        roll = rng.random()
        if roll < 0.5:  # a dict, listed out of element order, zeros left out now and then
            weights = {e: w for e, w in zip(P.elements, vals) if w != 0 or rng.random() < 0.5}
            items = list(weights.items())
            rng.shuffle(items)
            if rng.random() < 0.1:
                items.insert(rng.randint(0, len(items)), ("zz", rng.choice([*BAD, "1/2"])))
            weights = dict(items)
        elif roll < 0.6:  # a sequence of the wrong length
            weights = vals + [rng.choice(("0", 0, "1/2"))] if rng.random() < 0.5 else vals[:-1]
        else:
            weights = tuple(vals) if rng.random() < 0.5 else vals
        got = attempt(lambda: read_valuation(P, weights))
        assert got == attempt(lambda: reference_valuation(P, weights)), weights
        seen.add(got[0] if isinstance(got[0], type) else "valid")

        for values in (weights, vals):  # maps read the tables valuations read
            got = attempt(lambda: read_map(P, values))
            assert got == attempt(lambda: reference_map(P, values)), values
            seen.add(got[0] if isinstance(got[0], type) else "valid map")

        v, step = rng.choice(vals), rng.choice([*vals, "1/3", 0, "-1/2", Fraction(1, 7)])
        got = attempt(lambda: round_down_strict(v, step))
        assert got == attempt(lambda: reference_round_down_strict(v, step)), (v, step)
        assert type(got) in (Fraction, tuple)
    # every kind of outcome came up
    assert seen >= {"valid", "valid map", ValuationError, PosetError, ValueError, TypeError}


def test_the_one_reader_names_the_same_bad_value_first():
    P = parse_poset("elements: a b c d\norder: a < b")
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    cases = [
        {"d": "x", "b": "1/0", "a": "1"},          # b comes first in element order
        {"c": None, "zz": "1/2", "a": "y"},         # an unknown element comes first of all
        {"c": "1/" + "7" * 4500, "b": "1" * 5000},  # b, first in element order, is refused
        {"d": -TINY, "b": TINY, "a": 1},            # a negative weight too long to write
        {"a": 1 - TINY},                            # a total too long to write
        {"a": 1 - TINY, "b": TINY},                 # valid, with a D too long to write
    ]
    for weights in cases:
        got = attempt(lambda: read_valuation(P, weights))
        assert got == attempt(lambda: reference_valuation(P, weights)), weights
        assert attempt(lambda: read_map(P, weights)) == attempt(lambda: reference_map(P, weights))
    assert attempt(lambda: read_valuation(P, cases[1]))[0] is PosetError
    assert "5000 digits" in attempt(lambda: read_valuation(P, cases[2]))[1]
    assert attempt(lambda: repr(Valuation(P, cases[-1])))[0] is ValueError
    for values in ((1, TINY, -TINY), ("1", "x", "1/0"), ("1", "1/0", "x"), (1, 0.5)):
        assert attempt(lambda: read_map(T, values)) == attempt(lambda: reference_map(T, values))
    # a dict of node values looks every node up first, as a dict of weights does
    for values in ({"zz": "x"}, {"zz": "1"}, {"a": "x", "zz": "1/0"}):
        assert attempt(lambda: admissible(T, values)) == (PosetError, "unknown element: 'zz'")
        assert attempt(lambda: AdmissibleMap(T, values)) == attempt(lambda: Valuation(T, values))
    assert attempt(lambda: admissible(T, {"b": "x", "a": "1/0"})) == attempt(lambda: Fraction("1/0"))


@pytest.mark.parametrize("text", ["100", "1/2", "abc", b"\x01\x00\x00"])
def test_a_text_given_as_a_table_is_refused(text):
    # read one character per element, "100" would be the Dirac at the root
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    refusals = (
        (lambda: Valuation(T, text), "Valuation", "parse_valuation"),
        (lambda: AdmissibleMap(T, text), "AdmissibleMap", "parse_admissible"),
        (lambda: admissible(T, text), "AdmissibleMap", "parse_admissible"),
        (lambda: check_admissible(T, text), "AdmissibleMap", "parse_admissible"),
    )
    for call, kind, parser in refusals:
        assert attempt(call) == (
            ValuationError,
            f"{kind} takes a dict or a sequence, not a text; read a text with {parser}",
        )
    assert parse_valuation(T, "r:1") == Valuation(T, (1, 0, 0))
    assert parse_admissible(T, "kind: admissible\nr:1") == AdmissibleMap(T, (1, 0, 0))


@pytest.mark.parametrize(
    "table, kind",
    [
        (lambda: {"1", "0"}, "set"),  # read in hash order, it put the mass on r or on a
        (lambda: frozenset({"1"}), "frozenset"),
        (lambda: (v for v in ("1", "0", "0")), "generator"),
        (lambda: {"r": "1", "a": "0", "b": "0"}.values(), "dict_values"),
    ],
)
def test_a_table_without_an_element_order_is_refused(table, kind):
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    refusals = (
        (lambda: Valuation(T, table()), "Valuation"),
        (lambda: AdmissibleMap(T, table()), "AdmissibleMap"),
        (lambda: admissible(T, table()), "AdmissibleMap"),
        (lambda: check_admissible(T, table()), "AdmissibleMap"),
    )
    for call, cls in refusals:
        assert attempt(call) == (
            ValuationError, f"{cls} takes a dict or a sequence, not a {kind}"
        )
    # a sequence of any kind is read in element order
    for seq in (["1", "0", "0"], ("1", "0", "0"), [1, 0, 0]):
        assert Valuation(T, seq) == Valuation(T, {"r": 1})
        assert AdmissibleMap(T, seq) == AdmissibleMap(T, {"r": 1})


def answers(f, writer):
    """What a map answers: its values, its calls, its repr, str and text."""
    source = f.source if isinstance(f, MonotoneMap) else f.tree
    return (f.values, tuple(map(f, source.elements)), repr(f), str(f), attempt(lambda: writer(f)))


def assert_equal_maps_answer_alike(maps, writer):
    for f in maps:
        assert f == maps[0] and hash(f) == hash(maps[0])
        assert answers(f, writer) == answers(maps[0], writer)


def test_equal_monotone_maps_answer_alike():
    P = parse_poset("elements: a b\norder: a < b")
    Q = Poset([1, 2], [(1, 2)])  # True == 1 and 2.0 == 2 name its elements too
    ident = MonotoneMap(P, P, {"a": "a", "b": "b"})
    maps = [
        MonotoneMap(P, Q, {"a": True, "b": 2.0}),
        MonotoneMap(P, Q, {"a": 1, "b": 2}),
        MonotoneMap(P, Q, lambda x: Fraction(1 if x == "a" else 2)),
        MonotoneMap(P, Q, {"a": 1, "b": 2}).compose(ident),
    ]
    assert_equal_maps_answer_alike(maps, format_map)
    # each answers with the target's elements
    assert maps[0].values == (1, 2) and type(maps[0]("a")) is int
    assert repr(maps[0]) == "MonotoneMap('a'->1, 'b'->2)"


def test_equal_admissible_maps_answer_alike():
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    H = Fraction(1, 2)
    maps = [
        AdmissibleMap(T, ("1", "0.5", "0")),
        admissible(T, ("1", "0.5", "0")),
        AdmissibleMap(T, (True, 0.5, False)),
        AdmissibleMap(T, {"a": "1/2", "r": 1}),
        admissible(T, {"r": Decimal("1.0"), "a": H}),
        valuation_to_admissible(Valuation(T, {"r": H, "a": H})),
        parse_admissible(T, "kind: admissible\nr:2/2\na:0.5"),
    ]
    assert_equal_maps_answer_alike(maps, format_admissible)
    # each answers with the Fractions of its integers
    assert maps[0]("a") == H and all(type(x) is Fraction for x in maps[2].values)
    assert answers(maps[0], format_admissible)[2:] == (
        f"AdmissibleMap(tree={T!r}, values={(Fraction(1), H, Fraction(0))!r})",
        "kind: admissible\nr:1\na:1/2\n",
        "kind: admissible\nr:1\na:1/2\n",
    )


def test_the_hash_reads_the_integers_and_never_the_poset(monkeypatch):
    # equal valuations on equal but distinct posets compare and hash equal,
    # and the hash is made without Poset.__hash__, which a grid would
    # otherwise call once per point
    P = parse_poset("elements: a b\norder: a < b")
    Q = Poset(["a", "b"], [("a", "b")])
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    assert P == Q and P is not Q
    pairs = [
        (Valuation(P, {"a": "1/3", "b": "2/3"}), Valuation(Q, (Fraction(1, 3), Fraction(2, 3)))),
        (AdmissibleMap(T, ("1", "1/2", "0")), AdmissibleMap(Poset(T.elements, T.covers()), (1, 0.5, 0))),
    ]
    hashes = [tuple(map(hash, pair)) for pair in pairs]

    def refuse(self):
        raise AssertionError("Poset.__hash__ called")

    monkeypatch.setattr(Poset, "__hash__", refuse)
    for (x, y), before in zip(pairs, hashes):
        assert x == y and hash(x) == hash(y) == before[0] == before[1]
    assert len({*grid(P, 4), *grid(Q, 4)}) == 5
    assert len(set(grid(T, 3))) == 10
