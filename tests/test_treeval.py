import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import treeval
from ordbench import (
    PATH_CAP,
    AdmissibleMap,
    AdmissibleReport,
    Poset,
    PosetError,
    Valuation,
    ValuationError,
    admissible,
    admissible_lub,
    admissible_to_valuation,
    check_admissible,
    dirac,
    format_admissible,
    grid,
    map_predicates,
    parse_admissible,
    parse_poset,
    path_space,
    pushforward,
    pushforward_preimage,
    stochastic_leq,
    valuation_to_admissible,
)

from oracles import (
    random_pointed_poset,
    random_poset,
    random_valuation,
    reference_filter_masses,
    reference_lub,
    reference_violations,
    reference_weights,
    rooted_trees,
    saturated_chain_count,
    tree_poset,
)

DIAMOND = parse_poset("elements: bot a b top\norder: bot < a; bot < b; a < top; b < top")
F = Fraction
H = F(1, 2)

BOT = ("bot",)
A = ("bot", "a")
B = ("bot", "b")
AT = ("bot", "a", "top")
BT = ("bot", "b", "top")


@pytest.fixture
def diamond_paths():
    return path_space(DIAMOND)


# -- path spaces -----------------------------------------------------------------


def test_two_chain_path_space_is_isomorphic(diamond_paths):
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    Pi, r = path_space(chain)
    assert Pi.elements == (("z0",), ("z0", "z1"))
    assert r(("z0", "z1")) == "z1"
    assert Pi.leq(("z0",), ("z0", "z1"))


def test_diamond_path_space(diamond_paths):
    Pi, r = diamond_paths
    assert set(Pi.elements) == {BOT, A, B, AT, BT}
    assert r(AT) == "top" and r(BT) == "top"
    assert Pi.is_tree()
    assert Pi.leq(A, AT)
    assert not Pi.leq(A, BT)


def test_path_space_requires_pointed():
    with pytest.raises(PosetError):
        path_space(Poset("ab", []))


def _chain(n):
    return Poset(range(n), [(i, i + 1) for i in range(n - 1)])


def test_path_space_cap_trips_on_a_chain_product(monkeypatch):
    # an a x b chain product has C(a + b, a) - 1 cover chains from bottom
    with pytest.raises(PosetError, match=f"cap of {PATH_CAP} paths at length"):
        path_space(_chain(8).product(_chain(8)))  # 12,869 paths
    grid44 = _chain(4).product(_chain(4))  # 69 paths
    monkeypatch.setattr(treeval, "PATH_CAP", 69)
    assert len(path_space(grid44)[0]) == 69
    monkeypatch.setattr(treeval, "PATH_CAP", 68)
    with pytest.raises(PosetError, match="cap of 68 paths at length 7"):
        path_space(grid44)


def test_path_space_of_a_chain_product_under_the_default_cap():
    Pi, r = path_space(_chain(7).product(_chain(7)))
    assert len(Pi) == comb(14, 7) - 1 <= PATH_CAP
    assert Pi.is_tree() and r(Pi.elements[-1]) == (6, 6)


def test_path_count_equals_saturated_chain_count():
    rng = random.Random(19)
    from oracles import random_pointed_poset

    for _ in range(40):
        Y = random_pointed_poset(rng, rng.randint(1, 5))
        Pi, r = path_space(Y)
        assert len(Pi.elements) == saturated_chain_count(Y)
        assert set(r.values) == set(Y.elements)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_path_space_endpoint_map_is_monotone(seed):
    # path_space builds its endpoint map unchecked; check it from the outside
    rng = random.Random(seed)
    Pi, r = path_space(random_pointed_poset(rng, rng.randint(1, 7)))
    rep = map_predicates(Pi, r.target, r)
    assert rep.monotone and rep.surjective


def test_path_space_of_tree_is_isomorphic_to_it():
    for shape in rooted_trees(5):
        T = tree_poset(shape)
        Pi, r = path_space(T)
        assert len(Pi.elements) == len(T.elements)
        f = {p: r(p) for p in Pi.elements}
        for p in Pi.elements:
            for q in Pi.elements:
                assert Pi.leq(p, q) == T.leq(f[p], f[q])


def shuffled(rng, P):
    """P with its elements listed in a random order."""
    elements = list(P.elements)
    rng.shuffle(elements)
    return Poset(elements, P.covers())


def cover_chains(Y):
    """Every cover chain from the bottom of Y, by direct recursion."""
    kids = {e: [b for a, b in Y.covers() if a == e] for e in Y.elements}

    def walk(path):
        yield path
        for c in kids[path[-1]]:
            yield from walk(path + (c,))

    return list(walk((Y.bottom(),)))


def test_path_space_matches_the_prefix_order_built_afresh():
    # path_space hands the tree its one-step extensions as its covers; Poset
    # closes the prefix pairs itself and derives its own covers from them
    rng = random.Random(23)
    Ys = [shuffled(rng, random_pointed_poset(rng, rng.randint(1, 8))) for _ in range(150)]
    Ys += [tree_poset(shape) for n in range(1, 6) for shape in rooted_trees(n)]
    Ys.append(_chain(7).product(_chain(7)))
    for Y in Ys:
        Pi, r = path_space(Y)
        # preorder with children in element order is the lexicographic order
        # of the chains read as element indices
        want = sorted(cover_chains(Y), key=lambda p: [Y.index(x) for x in p])
        assert Pi.elements == tuple(want)
        slow = Poset(want, [(p[:-1], p) for p in want if len(p) > 1])
        assert slow._covers_cache is None
        assert (Pi._up, Pi._down) == (slow._up, slow._down)
        assert Pi._cover_masks() == slow._cover_masks()
        assert r.source is Pi and r.target is Y
        assert r.values == tuple(p[-1] for p in want)
    assert len(Pi) == comb(14, 7) - 1


# -- valuation/admissible correspondence ----------------------------------------------


def test_bottom_dirac_becomes_indicator(diamond_paths):
    Pi, _ = diamond_paths
    f = valuation_to_admissible(dirac(Pi, BOT))
    assert f(BOT) == 1
    assert all(f(p) == 0 for p in Pi.elements if p != BOT)


def test_upward_mass_values(diamond_paths):
    Pi, _ = diamond_paths
    nu = Valuation(Pi, {A: H, BT: H})
    f = valuation_to_admissible(nu)
    assert [f(p) for p in (BOT, A, B, AT, BT)] == [1, H, H, 0, H]
    assert admissible_to_valuation(f) == nu


def test_round_trip_is_identity(diamond_paths):
    Pi, _ = diamond_paths
    rng = random.Random(29)
    for _ in range(50):
        nu = random_valuation(rng, Pi, 6)
        assert admissible_to_valuation(valuation_to_admissible(nu)) == nu


def test_correspondence_is_an_order_isomorphism():
    for shape in rooted_trees(4):
        T = tree_poset(shape)
        vals = grid(T, 2)
        fs = [valuation_to_admissible(v) for v in vals]
        for i, v in enumerate(vals):
            for j, w in enumerate(vals):
                pointwise = all(
                    fs[i](t) <= fs[j](t) for t in T.elements
                )
                assert stochastic_leq(v, w) == pointwise


def test_correspondence_needs_a_tree():
    nu = dirac(DIAMOND, "bot")
    with pytest.raises(PosetError, match="tree"):
        valuation_to_admissible(nu)


# -- admissibility checking --------------------------------------------------------


def test_full_mass_chain_is_admissible():
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    rep = check_admissible(chain, {"z0": F(1), "z1": F(1)})
    assert rep.valid


def test_overcommitted_children_rejected(diamond_paths):
    Pi, _ = diamond_paths
    values = {BOT: F(1), A: F(3, 4), B: F(3, 4), AT: F(0), BT: F(0)}
    rep = check_admissible(Pi, values)
    assert not rep.valid
    assert any("below its children's sum" in v for v in rep.violations)


def test_root_must_carry_unit_mass(diamond_paths):
    Pi, _ = diamond_paths
    values = {BOT: H, A: F(0), B: F(0), AT: F(0), BT: F(0)}
    rep = check_admissible(Pi, values)
    assert not rep.valid
    with pytest.raises(ValuationError):
        admissible(Pi, values)


def test_values_outside_unit_interval_rejected(diamond_paths):
    Pi, _ = diamond_paths
    values = {BOT: F(1), A: F(3, 2), B: F(0), AT: F(0), BT: F(0)}
    assert not check_admissible(Pi, values).valid


def test_admissible_maps_on_another_tree_are_refused(diamond_paths):
    Pi, _ = diamond_paths
    chain = parse_poset("elements: r s\norder: r < s")
    small = admissible(chain, {"r": F(1), "s": H})
    big = admissible(Pi, {BOT: F(1), A: H, B: H, AT: H})
    for T, f in ((Pi, small), (chain, big)):
        for call in (check_admissible, admissible):
            with pytest.raises(ValuationError) as err:
                call(T, f)
            assert str(err.value) == "admissible maps live on different trees"
    # an equal tree built apart is the same tree
    same, _ = path_space(DIAMOND)
    assert same is not Pi
    assert check_admissible(same, big).valid
    assert admissible(same, big).values == big.values


def test_admissible_dict_keys_must_be_nodes():
    chain = parse_poset("elements: r s\norder: r < s")
    for call in (check_admissible, admissible):
        with pytest.raises(PosetError) as err:
            call(chain, {"r": 1, "zzz": 5})
        assert str(err.value) == "unknown element: 'zzz'"


# -- binary least upper bounds ---------------------------------------------------------


def fmap(Pi, seq):
    return admissible(Pi, dict(zip((BOT, A, B, AT, BT), map(F, seq))))


def test_lub_is_idempotent(diamond_paths):
    Pi, _ = diamond_paths
    f = fmap(Pi, (1, H, H, H, 0))
    assert admissible_lub(f, f).values == f.values


def test_lub_worked_instance(diamond_paths):
    Pi, _ = diamond_paths
    f1 = fmap(Pi, (1, H, H, H, 0))
    f2 = fmap(Pi, (1, F(1, 4), H, F(1, 4), H))
    lub = admissible_lub(f1, f2)
    assert [lub(p) for p in (BOT, A, B, AT, BT)] == [1, H, H, H, H]


def test_unbounded_pair_returns_none(diamond_paths):
    Pi, _ = diamond_paths
    f1 = fmap(Pi, (1, H, H, H, 0))
    f2 = fmap(Pi, (1, F(1, 4), F(3, 4), 0, H))
    assert admissible_lub(f1, f2) is None


def test_lub_is_least_among_grid_upper_bounds():
    for shape in rooted_trees(4):
        T = tree_poset(shape)
        els = T.elements
        vals = grid(T, 2)
        fs = [valuation_to_admissible(v) for v in vals]
        for i in range(len(fs)):
            for j in range(i, len(fs)):
                lub = admissible_lub(fs[i], fs[j])
                uppers = [
                    g
                    for g in fs
                    if all(g(t) >= fs[i](t) and g(t) >= fs[j](t) for t in els)
                ]
                if lub is None:
                    assert not uppers
                else:
                    for t in els:
                        assert lub(t) >= fs[i](t) and lub(t) >= fs[j](t)
                    for g in uppers:
                        assert all(g(t) >= lub(t) for t in els)


def test_lub_requires_matching_trees(diamond_paths):
    Pi, _ = diamond_paths
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    f = admissible(chain, {"z0": F(1), "z1": F(0)})
    g = fmap(Pi, (1, 0, 0, 0, 0))
    with pytest.raises(ValuationError):
        admissible_lub(f, g)


def test_maps_built_directly_on_a_non_tree_are_refused():
    f = AdmissibleMap(DIAMOND, (F(1), H, H, F(1, 4)))
    for call in (lambda: admissible_lub(f, f), lambda: admissible_to_valuation(f)):
        with pytest.raises(PosetError, match="^admissible maps live on trees$"):
            call()


def test_maps_built_directly_with_too_few_values_are_refused():
    # refused when built, as are too many, and by every function that reads a table
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    full = admissible(chain, {"z0": F(1)})
    for seq in ((F(1),), (F(1), 0, 0)):
        calls = (
            lambda: AdmissibleMap(chain, seq),
            lambda: admissible_lub(full, seq),
            lambda: admissible(chain, seq),
            lambda: check_admissible(chain, seq),
        )
        for call in calls:
            with pytest.raises(ValuationError, match=f"^expected 2 values, got {len(seq)}$"):
                call()


# -- the integer folds against the Fraction folds ---------------------------------------


def outcome(call):
    """The result of ``call``, or the type and text of the error it raised."""
    try:
        return call()
    except (PosetError, ValuationError) as err:
        return type(err), str(err)


def assert_folds_match(rng, T):
    """Run the folds on random maps on the tree T against the Fraction folds."""
    d = rng.randint(1, 12)
    nus = [random_valuation(rng, T, d) for _ in range(2)]
    # Diracs at two nodes have no lub when the nodes are incomparable
    nus += [dirac(T, rng.choice(T.elements)) for _ in range(2)]
    fs = [valuation_to_admissible(nu) for nu in nus]
    for nu, f in zip(nus, fs):
        assert f.values == reference_filter_masses(nu)
        assert admissible_to_valuation(f).weights == nu.weights
        assert check_admissible(T, f).valid
    # values on the grid 1/d, some outside [0, 1], most not admissible
    raw = tuple(F(rng.randint(-d, 2 * d), d) for _ in T.elements)
    direct = AdmissibleMap(T, raw)
    for f1, f2 in ((fs[0], fs[1]), (fs[2], fs[3]), (direct, fs[0]), (fs[1], direct)):
        lub = admissible_lub(f1, f2)
        want = reference_lub(T, f1.values, f2.values)
        assert (None if lub is None else lub.values) == want
    assert outcome(lambda: admissible_to_valuation(direct).weights) == outcome(
        lambda: Valuation(T, reference_weights(T, raw)).weights
    )
    want = reference_violations(T, raw)
    assert check_admissible(T, raw).violations == want
    assert admissible(T, list(fs[0].values)).values == fs[0].values
    if want:
        with pytest.raises(ValuationError) as err:
            admissible(T, raw)
        assert str(err.value) == "; ".join(want)
    else:
        assert admissible(T, raw).values == raw
    # valuations on 1-3 points, whose support's down-closure is most often
    # a proper part of the tree
    sparse = []
    for _ in range(2):
        picks = rng.sample(T.elements, rng.randint(1, min(3, len(T))))
        ks = [rng.randint(1, d) for _ in picks]
        sparse.append(Valuation(T, {e: F(k, sum(ks)) for e, k in zip(picks, ks)}))
    gs = [valuation_to_admissible(nu) for nu in sparse]
    for nu, g in zip(sparse, gs):
        assert g.values == reference_filter_masses(nu)
        assert admissible_to_valuation(g) == nu
    for g1, g2 in ((gs[0], gs[1]), (gs[0], fs[0]), (direct, gs[1])):
        lub = admissible_lub(g1, g2)
        assert (None if lub is None else lub.values) == reference_lub(T, g1.values, g2.values)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_integer_folds_match_the_fraction_folds(seed):
    rng = random.Random(seed)
    T, _ = path_space(random_pointed_poset(rng, rng.randint(1, 7)))
    assert_folds_match(rng, T)


def test_folds_match_the_fraction_folds_on_trees_out_of_preorder():
    # path_space and tree_poset list nodes depth-first; the folds must not
    # depend on that
    rng = random.Random(31)
    for n in range(1, 7):
        for shape in rooted_trees(n):
            assert_folds_match(rng, shuffled(rng, tree_poset(shape)))


def test_folds_build_one_fraction_per_distinct_value(monkeypatch):
    from ordbench import valuations

    T, _ = path_space(_chain(6).product(_chain(7)))
    assert len(T) == comb(13, 6) - 1
    rng = random.Random(37)

    def half_at_root(nu):
        # the lub of two maps is at most their sum below the root, so two
        # valuations with half their mass at the root have one
        w = {e: x / 2 for e, x in zip(T.elements, nu.weights)}
        w[T.bottom()] += H
        return Valuation(T, w)

    fs = [valuation_to_admissible(half_at_root(random_valuation(rng, T, 6))) for _ in range(2)]
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(treeval, "Fraction", counted)
    monkeypatch.setattr(valuations, "Fraction", counted)

    def built(call):
        """The result of ``call`` and how many Fractions the library made for it."""
        made.clear()
        return call(), len(made)

    for f in fs:
        nu, made_nu = built(lambda: admissible_to_valuation(f))
        assert made_nu == 0
        g, made_g = built(lambda: valuation_to_admissible(nu))
        assert g.values == f.values and made_g <= len(set(g.values)) <= 13
        weights, made_w = built(lambda: nu.weights)
        assert made_w <= len(set(weights)) <= 13
        assert built(lambda: check_admissible(T, f)) == (AdmissibleReport(True), 0)
    lub, made_lub = built(lambda: admissible_lub(*fs))
    assert lub is not None and made_lub <= len(set(lub.values)) <= 13


def test_folds_visit_only_the_down_closure_of_the_support(monkeypatch):
    # white box: the fold calls its node function once per node of Z, the
    # down-closure of the nodes where an input is nonzero, and on no other
    from ordbench.posets import _bits

    T, _ = path_space(_chain(6).product(_chain(7)))
    assert len(T) == 1715
    visited = []
    fold = treeval._children_first

    def counted(T, node, *rows):
        def counting(i, s):
            visited.append(i)
            return node(i, s)

        return fold(T, counting, *rows)

    monkeypatch.setattr(treeval, "_children_first", counted)
    nodes = [T.elements[-1], T.elements[len(T) // 2]]
    fs = []
    for x in nodes:
        visited.clear()
        fs.append(valuation_to_admissible(dirac(T, x)))
        assert sorted(visited) == list(_bits(T._down[T.index(x)]))
        assert fs[-1].values == reference_filter_masses(dirac(T, x))
    Z = T._down[T.index(nodes[0])] | T._down[T.index(nodes[1])]
    visited.clear()
    lub = admissible_lub(*fs)
    assert len(visited) == Z.bit_count() and set(visited) == set(_bits(Z))
    assert (None if lub is None else lub.values) == reference_lub(T, fs[0].values, fs[1].values)


def test_maps_built_by_the_library_or_directly_are_one_value():
    T = parse_poset("elements: r a b c\norder: r < a; r < b; a < c")
    Q = F(1, 4)
    built = [
        valuation_to_admissible(Valuation(T, {"a": H, "c": Q, "b": Q})),
        admissible(T, {"r": 1, "a": H, "b": H, "c": Q}),
        admissible_lub(admissible(T, {"r": 1, "a": H, "c": Q}), admissible(T, {"r": 1, "b": H})),
        # over the common D = 4, every mass of this lub is even
        admissible_lub(admissible(T, {"r": 1, "a": Q}), admissible(T, {"r": 1, "a": H, "b": H})),
        parse_admissible(T, "kind: admissible\nr:2/2\na:6/8\nb:1/4\nc:1/4\n"),
    ]
    assert built[0] == built[4] and built[0] != built[1]
    assert built[2].values == (1, H, H, Q) and built[3].values == (1, H, H, 0)
    for f in built:
        g = AdmissibleMap(T, f.values)
        assert f == g and hash(f) == hash(g)
        assert repr(f) == repr(g) == f"AdmissibleMap(tree={T!r}, values={f.values!r})"
        assert str(f) == str(g) == format_admissible(f)
        assert parse_admissible(T, format_admissible(g)) == f
        assert format_admissible(parse_admissible(T, format_admissible(f))) == format_admissible(g)
        assert AdmissibleMap(T, list(f.values)) == f != AdmissibleMap(T, f.values[::-1])
        for attr in ("tree", "values", "anything"):
            with pytest.raises(AttributeError):
                setattr(f, attr, f.values)
            with pytest.raises(AttributeError):
                setattr(g, attr, f.values)
    assert len({built[0], built[4], AdmissibleMap(T, built[0].values)}) == 1


def test_admissibility_refusals_name_numbers_too_long_to_write():
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    big = F(1, 10**5000)  # its denominator has more digits than str() writes
    cases = [
        ({"r": 1, "a": -big}, [
            "value at 'a' is a fraction too long to write, outside [0, 1]",
            "value at 'a' is a fraction too long to write, below its children's sum 0",
        ]),
        ({"r": 1, "a": H + big, "b": H},
         ["value at 'r' is 1, below its children's sum a fraction too long to write"]),
        ({"r": 1 - big}, ["value at bottom 'r' is a fraction too long to write, not 1"]),
    ]
    for values, want in cases:
        assert check_admissible(T, values) == AdmissibleReport(False, tuple(want))
        with pytest.raises(ValuationError) as err:
            admissible(T, values)
        assert str(err.value) == "; ".join(want)


def test_maps_built_directly_read_their_values_as_a_sequence_is_read():
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    for seq in ((1, 0.5, 0.5), ("1", "1/2", "1/2"), [F(1), H, H], (1, 0.75, 0.5), (1, "-1/4", 0)):
        f = AdmissibleMap(T, seq)
        assert f.values == tuple(map(F, seq)) == tuple(map(f, T.elements))
        assert all(type(x) is F for x in f.values)
        assert check_admissible(T, f) == check_admissible(T, seq)
        assert outcome(lambda: admissible(T, f)) == outcome(lambda: admissible(T, seq))
        assert outcome(lambda: admissible_to_valuation(f)) == outcome(
            lambda: admissible_to_valuation(AdmissibleMap(T, tuple(map(F, seq))))
        )
        lub = admissible_lub(f, f)
        assert (None if lub is None else lub.values) == reference_lub(T, *[tuple(map(F, seq))] * 2)
        assert f == AdmissibleMap(T, tuple(map(F, seq)))
        assert hash(f) == hash(AdmissibleMap(T, tuple(map(F, seq))))
    assert admissible_to_valuation(AdmissibleMap(T, (1, 0.5, 0.5))) == Valuation(T, {"a": H, "b": H})


def test_maps_built_directly_are_written_from_their_integers():
    # the text of a map built from floats or texts is exact p/q with no
    # zero entry, so it reads back as the same map
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    for seq in ((1, 0.1, 0.1), ("1", "0.5", "0")):
        f = AdmissibleMap(T, seq)
        exact = tuple(map(F, seq))
        assert f.values == exact and repr(f) == f"AdmissibleMap(tree={T!r}, values={exact!r})"
        assert parse_admissible(T, format_admissible(f)) == f
        assert format_admissible(f) == format_admissible(admissible(T, f.values)) == str(f)
    assert str(AdmissibleMap(T, ("1", "0.5", "0"))) == "kind: admissible\nr:1\na:1/2\n"


def test_maps_built_directly_read_their_values_when_built():
    T = parse_poset("elements: r a b\norder: r < a; r < b")
    for seq, error in (((1, "x", 0), ValueError), ((1, "1/0", 0), ZeroDivisionError),
                       ((1, None, 0), TypeError), ((1, float("inf"), 0), OverflowError)):
        with pytest.raises(error) as err:
            AdmissibleMap(T, seq)
        with pytest.raises(error) as want:
            F(seq[1])
        assert str(err.value) == str(want.value)


# -- covering Val1(Y) through the path space ---------------------------------------------


def test_every_grid_valuation_lifts_through_the_endpoint_map():
    rng = random.Random(43)
    for _ in range(20):
        Y = random_pointed_poset(rng, rng.randint(1, 4))
        Pi, r = path_space(Y)
        for nu in grid(Y, 3):
            lifted = pushforward_preimage(r, nu)
            assert pushforward(r, lifted) == nu


# -- text format ---------------------------------------------------------------------------


def test_admissible_serialization_round_trip():
    T = tree_poset(rooted_trees(4)[0])
    values = {e: F(0) for e in T.elements}
    values[T.bottom()] = F(1)
    values[T.elements[1]] = F(2, 3)
    f = admissible(T, values)
    text = format_admissible(f)
    assert text.startswith("kind: admissible")
    assert parse_admissible(T, text).values == f.values


def test_admissible_parser_requires_header():
    T = tree_poset(rooted_trees(2)[0])
    with pytest.raises(ValuationError, match="admissible"):
        parse_admissible(T, "r:1")
