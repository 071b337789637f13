"""One map, two constructions.

A ``MonotoneMap`` holds the target index of each value. The public
constructor resolves the values a mapping returns; ``MonotoneMap._of``,
``compose`` and ``path_space`` build the indices directly. Here every map
between posets with at most 3 elements, and seeded random maps between
posets with at most 6, is built both ways. The two must agree on ``values``,
calls, ``==``, ``hash``, ``repr`` and ``format_map``, and on every consumer
of maps, which must also match the references in ``tests/oracles.py`` or,
where there is none, a short reference here that reads only the values.
"""

import itertools
import random

import pytest

from ordbench import (
    ControlledQuasiDeflation,
    ControlledReport,
    FinMap,
    MonotoneMap,
    Poset,
    PosetError,
    QuasiDeflation,
    T,
    canonical_quasi_section,
    check_controlled,
    check_quasi_retraction,
    enumerate_posets,
    fin_antichains,
    format_code,
    format_map,
    hat_f,
    hat_f_rigidity_check,
    node,
    parse_code,
    parse_map,
    parse_poset,
    parse_quasi_deflation,
    path_space,
    pushforward,
    pushforward_preimage,
    separating_set_from_controlled,
    smyth_map,
    truncate,
)

from oracles import (
    monotone_maps,
    random_finmap,
    random_monotone_map,
    random_pointed_poset,
    random_poset,
    random_valuation,
    reference_canonical_section,
    reference_normalize,
    reference_preimage,
    reference_pushforward,
    reference_quasi_retraction,
)


def renamed(P):
    """``P`` with element i named ``y{n-1-i}``, so that no name is its index."""
    name = {e: f"y{len(P) - 1 - i}" for i, e in enumerate(P.elements)}
    return Poset([name[e] for e in P.elements], [(name[a], name[b]) for a, b in P.covers()])


SMALL = [P for n in range(1, 4) for P in enumerate_posets(n)]


def small_cases():
    """Every monotone map between posets with at most 3 elements, the
    target renamed: ``(X, Y, values)``."""
    for X in SMALL:
        for Y in map(renamed, SMALL):
            for values in monotone_maps(X, Y):
                yield X, Y, values


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        X, Y = random_poset(rng, rng.randint(1, 6)), renamed(random_poset(rng, rng.randint(1, 6)))
        table = random_monotone_map(rng, X, Y)
        yield X, Y, tuple(table[x] for x in X.elements)


def both_ways(X, Y, values):
    """The map with these values, from the public constructor, then from
    indices by ``_of`` and by composing with either identity."""
    public = MonotoneMap(X, Y, dict(zip(X.elements, values)))
    return public, [
        MonotoneMap._of(X, Y, tuple(Y.elements.index(v) for v in values)),
        MonotoneMap(Y, Y, lambda y: y).compose(public),
        public.compose(MonotoneMap(X, X, lambda x: x)),
    ]


def assert_same_map(f, g):
    assert g.values == f.values
    assert [g(x) for x in g.source.elements] == [f(x) for x in f.source.elements]
    assert g == f and f == g and hash(g) == hash(f)
    assert repr(g) == repr(f)
    # the text, or the refusal of a source or value name that is no string
    assert outcome(lambda: format_map(g)) == outcome(lambda: format_map(f))


def outcome(call):
    """The result of ``call``, or the message of the PosetError or
    ValuationError it raises."""
    try:
        return call()
    except ValueError as err:
        return str(err)


def draw_inputs(rng, X, Y):
    """The random inputs the consumers are read on: antichains of X,
    valuations on X and on Y, a candidate section, and, for an endomap, an
    assignment to pair with it as its control."""
    antichains = fin_antichains(X) if len(X) <= 4 else [
        X.antichain_normalize(rng.sample(X.elements, rng.randint(1, 3))) for _ in range(8)
    ]
    nu, lam = random_valuation(rng, X, 6), random_valuation(rng, Y, 6)
    qs = FinMap(Y, X, random_finmap(rng, Y, X), check=False)
    phi = QuasiDeflation(X, random_finmap(rng, X, X), check=False) if X == Y else None
    return antichains, nu, lam, qs, phi


def readings(r, inputs):
    """What every consumer of maps makes of ``r`` on ``inputs``."""
    antichains, nu, lam, qs, phi = inputs
    act = smyth_map(r)
    section = outcome(lambda: canonical_quasi_section(r))
    candidates = [qs] if isinstance(section, str) else [qs, section]
    controlled = None
    if phi is not None:
        c = ControlledQuasiDeflation(r, phi)
        rep = check_controlled(c, require_deflating=True)
        controlled = rep, outcome(lambda: separating_set_from_controlled(c))
    return (
        [act(E) for E in antichains],
        pushforward(r, nu).weights,
        outcome(lambda: pushforward_preimage(r, lam).weights),
        section if isinstance(section, str) else section.values,
        [
            (rep.retraction_law, rep.projection_law, rep.canonical, rep.witness)
            for rep in (check_quasi_retraction(r, s) for s in candidates)
        ],
        controlled,
    )


def references(r, inputs):
    """:func:`readings` from the references, which read only the values of ``r``."""
    antichains, nu, lam, qs, phi = inputs
    X, Y = r.source, r.target
    value = dict(zip(X.elements, r.values))
    section = reference_canonical_section(r)
    candidates = [qs.as_dict()]
    if not isinstance(section, str):
        candidates.append(dict(zip(Y.elements, section)))
    unreached = [y for y in Y.elements if y not in r.values]
    return (
        [reference_normalize(Y, [value[x] for x in E]) for E in antichains],
        reference_pushforward(r, nu.weights),
        f"map is not surjective; unreached: {unreached!r}" if unreached
        else reference_preimage(r, lam.weights),
        section,
        [reference_quasi_retraction(r, s) for s in candidates],
        None if phi is None else reference_controlled(X, value, phi.as_dict()),
    )


def reference_controlled(P, f, phi):
    """``check_controlled(require_deflating=True)`` and
    ``separating_set_from_controlled`` from the values of ``f`` and ``phi``."""
    containment = tuple(x for x in P.elements if not all(P.leq(f[x], m) for m in phi[x]))
    deflating = tuple(x for x in P.elements if not P.leq(f[x], x))
    valid = not containment and not deflating
    rep = ControlledReport(valid, containment, deflating)
    if not valid:
        return rep, f"invalid controlled pair: {rep}"
    M = tuple(e for e in P.elements if any(e in phi[x] for x in P.elements))
    for x in P.elements:
        if not any(P.leq(f[x], m) and P.leq(m, x) for m in M):
            return rep, f"separation postcondition failed at {x!r}; input pair is inconsistent"
    return rep, M


def assert_both_ways_agree(cases, seed):
    """Check each case both ways; return the number of cases."""
    count = 0
    for k, (X, Y, values) in enumerate(cases):
        public, built = both_ways(X, Y, values)
        assert public.values == tuple(values)
        inputs = draw_inputs(random.Random(seed + k), X, Y)
        expected = references(public, inputs)
        assert readings(public, inputs) == expected
        for g in built:
            assert_same_map(public, g)
            assert readings(g, inputs) == expected
        count += 1
    return count


def test_every_small_map_reads_the_same_both_ways():
    assert assert_both_ways_agree(small_cases(), 0) == 4818


def test_random_maps_read_the_same_both_ways():
    assert assert_both_ways_agree(random_cases(25, 150), 10**6) == 150


def test_random_endomaps_read_the_same_both_ways():
    # controlled pairs need the control to be an endomap
    rng = random.Random(7)
    cases = []
    for _ in range(150):
        P = random_pointed_poset(rng, rng.randint(1, 6))
        table = random_monotone_map(rng, P, P) if rng.random() < 0.7 else {x: x for x in P.elements}
        cases.append((P, P, tuple(table[x] for x in P.elements)))
    assert assert_both_ways_agree(cases, 2 * 10**6) == 150


@pytest.mark.parametrize("seed", range(4))
def test_the_endpoint_map_is_the_map_its_paths_name(seed):
    rng = random.Random(seed)
    posets = [P for P in SMALL if P.is_pointed] + [
        random_pointed_poset(rng, rng.randint(4, 6)) for _ in range(10)
    ]
    for Y in posets:
        pi, r = path_space(Y)
        public = MonotoneMap(pi, Y, lambda p: p[-1])
        assert_same_map(public, r)
        inputs = draw_inputs(rng, pi, Y)
        assert readings(r, inputs) == readings(public, inputs) == references(public, inputs)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 10])
def test_the_swap_map_is_the_swap_its_names_spell(depth):
    # the public constructor checks monotonicity, which hat_f does not
    rng = random.Random(depth)
    Tk = truncate(T, depth).poset
    patterns = itertools.product((0, 1), repeat=depth) if depth <= 4 else (
        [rng.randrange(2) for _ in range(depth)] for _ in range(20)
    )
    for bits in patterns:
        def swap(name):
            code = parse_code(name)
            return format_code(node(code[1] ^ bits[code[2]], code[2])) if code[0] == "n" else name

        assert_same_map(MonotoneMap(Tk, Tk, swap), hat_f(bits))


def test_rigidity_reads_the_same_both_ways():
    # every monotone endomap g of T_2: g <= f̂ and nonzero at level 0 force g = f̂
    Tk = truncate(T, 2).poset
    tables = monotone_maps(Tk, Tk)
    assert len(tables) == 477
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        f = hat_f(bits)
        fv = dict(zip(Tk.elements, f.values))
        for values in tables:
            public, built = both_ways(Tk, Tk, values)
            g = dict(zip(Tk.elements, values))
            below = all(Tk.leq(g[x], fv[x]) for x in Tk.elements)
            keeps = g["n:0:0"] != "bot" and g["n:1:0"] != "bot"
            expected = not (below and keeps) or values == f.values
            assert expected
            assert [hat_f_rigidity_check(h, bits) for h in [public, *built]] == [expected] * 4


# -- the readers still name an unknown target before a missing value -------------


CHAIN2 = parse_poset("elements: a b\norder: a < b")


@pytest.mark.parametrize(
    "call",
    [
        lambda: MonotoneMap(CHAIN2, CHAIN2, {"a": "zz"}),
        lambda: parse_map(CHAIN2, CHAIN2, "a -> zz\n"),
        lambda: parse_quasi_deflation(CHAIN2, "a -> {a}\nb -> {b}\ncontrol: a -> zz\n"),
    ],
)
def test_an_unknown_target_is_named_before_a_missing_value(call):
    with pytest.raises(PosetError) as err:
        call()
    assert str(err.value) == "unknown element: 'zz'"
