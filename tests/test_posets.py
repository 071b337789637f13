import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    FinMap,
    LazyPoset,
    MonotoneMap,
    Poset,
    PosetError,
    enumerate_posets,
    fin_poset,
    format_map,
    format_poset,
    grid_poset,
    map_predicates,
    parse_map,
    parse_poset,
    path_space,
    poset_to_dot,
    truncate,
)
from ordbench import posets
from ordbench.cli import _relabel
from ordbench.lazy import KINDS
from ordbench.valuations import _mass_rows

from oracles import (
    LABELED_POSET_COUNTS,
    brute_covers,
    brute_posets,
    brute_relations,
    brute_upper_sets,
    reference_closure,
    reference_cycle_message,
    reference_parent_table,
    reference_parse_poset,
    transpose,
)

DIAMOND = "elements: bot a b top\norder: bot < a; bot < b; a < top; b < top\n"


@pytest.fixture
def diamond():
    return parse_poset(DIAMOND)


# -- construction and basic queries ---------------------------------------


def test_transitive_closure_is_taken():
    P = Poset("abc", [("a", "b"), ("b", "c")])
    assert P.leq("a", "c")
    assert not P.leq("c", "a")


def test_duplicate_elements_rejected():
    with pytest.raises(PosetError, match="duplicate"):
        Poset(["x", "x"], [])
    # the first element that repeats an earlier one is named, as it is met
    for elements, name in (("abcba", "'b'"), ((1, 2.0, True, 2), "True")):
        with pytest.raises(PosetError) as err:
            Poset(elements, [])
        assert str(err.value) == f"duplicate element: {name}"


def test_unknown_relation_endpoint_rejected():
    with pytest.raises(PosetError, match="undeclared"):
        Poset(["x"], [("x", "y")])
    # the first unknown name in relation order, the lower one of a pair first
    for relations, name in (([("x", "y"), ("z", "x")], "'y'"), ([("u", "v")], "'u'")):
        with pytest.raises(PosetError) as err:
            Poset(["x"], relations)
        assert str(err.value) == f"relation mentions undeclared element: {name}"
    # each pair resolves as it is read, so an unknown name is named before a
    # later entry that is not a pair is reached
    with pytest.raises(PosetError) as err:
        Poset(["x"], [("x", "y"), (1, 2, 3)])
    assert str(err.value) == "relation mentions undeclared element: 'y'"
    with pytest.raises(ValueError):
        Poset(["x"], [("x", "x"), (1, 2, 3)])


def test_cycles_rejected():
    with pytest.raises(PosetError, match="cycle"):
        Poset("ab", [("a", "b"), ("b", "a")])


def test_bottom_top_pointed(diamond):
    assert diamond.bottom() == "bot"
    assert diamond.top() == "top"
    assert diamond.is_pointed
    two = Poset("ab", [])
    assert two.bottom() is None
    assert two.top() is None
    assert not two.is_pointed


def test_covers_diamond(diamond):
    assert diamond.covers() == (
        ("bot", "a"),
        ("bot", "b"),
        ("a", "top"),
        ("b", "top"),
    )


def test_cover_masks_are_computed_once_per_poset(diamond):
    import pathlib

    assert diamond._covers_cache is None
    first = diamond._cover_masks()
    assert isinstance(first, tuple) and diamond._cover_masks() is first
    assert diamond.covers() == (("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top"))
    golden = pathlib.Path(__file__).parent / "golden" / "diamond_hasse.dot"
    assert poset_to_dot(diamond) == golden.read_text()
    # a poset built from another's masks alone derives its own diagram
    rebuilt = Poset._from_masks(diamond.elements, diamond._up, diamond._down)
    assert rebuilt._covers_cache is None
    assert rebuilt._cover_masks() == first and rebuilt._cover_masks() is not first
    # a renamed copy keeps the indices, so it keeps the diagram already derived
    named = _relabel(diamond, str.upper)
    assert named._cover_masks() is first
    assert named.covers() == (("BOT", "A"), ("BOT", "B"), ("A", "TOP"), ("B", "TOP"))
    assert _relabel(Poset("ab", [("a", "b")]), str.upper)._covers_cache is None
    # a renamed copy of a poset that has not derived its diagram yet derives
    # the same diagram from its own masks
    user = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b")])
    copy = _relabel(user, str.upper)
    assert copy._covers_cache is None
    assert copy.covers() == (("A", "B"), ("B", "C"))
    assert user.covers() == (("a", "b"), ("b", "c"))
    # it keeps the relation too, so it makes no down masks until they are read
    assert copy._down_cache is None and (copy._low, copy._high) == (user._low, user._high)
    assert copy._down == user._down == reference_closure("abc", [("a", "b"), ("b", "c")])[1]
    # a covering relation listed with repeats gives the same diagram
    twice = Poset._from_covers(diamond.elements, [[1, 2, 1], [3, 3], [3], []])
    assert twice == diamond and twice._cover_masks() == first


def test_the_empty_poset_closes_and_prints():
    """No elements: no masks, no covers, and every printer writes the empty
    order, as built, parsed from an empty or comment-only text, or read
    from masks alone."""
    built = Poset([], [])
    for P in (built, parse_poset(""), parse_poset("# nothing\n"),
              Poset._from_masks((), (), ()), Poset._from_covers((), [])):
        assert P == built and (P._up, P._down) == ((), ())
        assert P.covers() == () and P._cover_masks() == ()
        assert P.bottom() is None and P.top() is None
        assert repr(P) == "Poset(0 elements, 0 covers)"
        assert format_poset(P) == "elements: \n"
        assert poset_to_dot(P) == "digraph hasse {\n}\n"
        assert P.upper_sets() == [frozenset()]


def test_covers_skip_transitive_edges():
    P = Poset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert P.covers() == (("a", "b"), ("b", "c"))


def test_closures(diamond):
    assert diamond.up_closure(["a"]) == frozenset({"a", "top"})
    assert diamond.down_closure(["a"]) == frozenset({"bot", "a"})
    assert diamond.up_closure(["a", "b"]) == frozenset({"a", "b", "top"})


# -- upper sets -------------------------------------------------------------


def test_diamond_has_six_upper_sets(diamond):
    assert len(diamond.upper_sets()) == 6


def test_upper_sets_match_brute_force():
    for P in brute_posets(3):
        assert sorted(P.upper_sets(), key=sorted) == sorted(
            brute_upper_sets(P), key=sorted
        )


def test_upper_sets_guard(monkeypatch):
    big = Poset(range(21), [])
    with pytest.raises(PosetError) as err:
        big.upper_sets()
    assert str(err.value) == (
        "upper-set enumeration on 21 elements may list up to 2^21 sets, "
        "above the limit of 20 elements"
    )
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 21)
    assert len(big.upper_sets()) == 2**21


def _check_upper_masks(P):
    """``_upper_masks`` lists the brute-force upper sets in strictly
    increasing mask order, from the empty set to the carrier, with the
    limit set to the size of ``P``. Each upper set after the empty one is
    an earlier one, its parent, plus one of its minimal elements, and
    ``upper_sets`` gives the same sets in the same order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posets, "UPPER_MAX_ELEMENTS", len(P))
        listing = masks, parent, added = P._upper_masks()
        sets = P.upper_sets()
    assert masks == sorted({sum(1 << P.index(x) for x in U) for U in brute_upper_sets(P)})
    assert masks[0] == 0 and masks[-1] == (1 << len(P)) - 1
    assert len(parent) == len(added) == len(masks) and added[0] is None
    for u in range(1, len(masks)):
        m, x = masks[u], added[u]
        assert parent[u] < u
        assert P._down[x] & m == 1 << x
        assert masks[parent[u]] == m ^ 1 << x
    assert sets == [P._set_of(m) for m in masks]
    return listing


def _check_mass_rows(P, listing, rng, counts):
    """``_mass_rows`` gives, for each random integer row, its sum on every
    upper set of ``listing``, each set summed directly."""
    masks, n = listing[0], len(P)
    for k in counts:
        ints = [[rng.randrange(-5, 50) for _ in range(n)] for _ in range(k)]
        want = [tuple(sum(w[i] for i in range(n) if m >> i & 1) for m in masks) for w in ints]
        assert _mass_rows(ints, listing) == want


def test_upper_masks_match_brute_force_up_to_5():
    rng = random.Random(5)
    for n in range(1, 6):
        for P in enumerate_posets(n):
            listing = _check_upper_masks(P)
            _check_mass_rows(P, listing, rng, (0, 1, 2, 300) if n <= 3 else (0, 1, 2))


def random_posets(top, orders=("kept", "shuffled", "reversed")):
    """Draws ``(n, pairs, order, rng)`` for :func:`_random_poset`, n <= top,
    with the element order one of ``orders``."""
    return st.integers(1, top).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
            st.sampled_from(orders),
            st.randoms(use_true_random=False),
        )
    )


def _random_poset(case):
    n, pairs, order, rng = case
    els = list(range(n))
    if order == "shuffled":
        rng.shuffle(els)
    elif order == "reversed":
        els.reverse()
    # i < j in the drawn pairs keeps the relation acyclic, whatever the order
    return Poset(els, [(i, j) for i, j in pairs if i < j])


@given(random_posets(12))
@settings(max_examples=60, deadline=None)
def test_upper_masks_match_brute_force_on_random_posets(case):
    _check_upper_masks(_random_poset(case))


@given(random_posets(8))
@settings(max_examples=60, deadline=None)
def test_parent_table_and_mass_rows_on_random_posets(case):
    P = _random_poset(case)
    _check_mass_rows(P, _check_upper_masks(P), case[3], (0, 1, 2, 300))


_mend = posets._mend_parents


def _check_parent_table(P):
    """The listing's parent table is the one derived from its masks alone,
    the walk's own parents are right just when no element sits above one
    listed later, and the mend step runs just when they are not."""
    mended = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posets, "UPPER_MAX_ELEMENTS", len(P))
        mp.setattr(posets, "_mend_parents", lambda *a: mended.append(_mend(*a)))
        masks, parent, added = P._upper_masks()
    assert parent == reference_parent_table(masks, added)
    index = P.index
    forward = all(index(x) <= index(y) for x in P.elements for y in P.elements if P.leq(x, y))
    walk_masks, walk_added, walk_parent = posets._upper_walk(P._up, P._down)
    assert (walk_masks, walk_added) == (masks, added)
    assert (walk_parent == parent) is forward
    assert len(mended) == (not forward)


def _shuffled(P, rng):
    """The same order with its elements listed in a random order."""
    els = list(P.elements)
    rng.shuffle(els)
    return Poset(els, P.covers())


def test_parent_table_matches_the_reference_on_every_poset_up_to_5():
    rng = random.Random(35)
    for n in range(1, 6):
        for P in enumerate_posets(n):
            _check_parent_table(P)
            _check_parent_table(_shuffled(P, rng))


@given(random_posets(12, orders=("shuffled", "reversed")))
@settings(max_examples=80, deadline=None)
def test_parent_table_matches_the_reference_on_shuffled_and_reversed_posets(case):
    _check_parent_table(_random_poset(case))


def _never_mended(*args):
    raise AssertionError("the parent table was mended after the walk")


def _chain(n, tag=""):
    return Poset([f"{tag}{i}" for i in range(n)], [(f"{tag}{i}", f"{tag}{i + 1}") for i in range(n - 1)])


def test_forward_element_orders_take_every_parent_from_the_walk(monkeypatch):
    # chains, chain products and a bottom under an antichain, each declared
    # with every relation pointing forward: no include step gains more than
    # its branch element, so the mask -> index dict is never built
    monkeypatch.setattr(posets, "_mend_parents", _never_mended)
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 60)
    fan = lambda w: Poset(["b", *range(w)], [("b", i) for i in range(w)])
    grid = lambda a, b: Poset(
        [(i, j) for i in range(a) for j in range(b)],
        [((i, j), (i + 1, j)) for i in range(a - 1) for j in range(b)]
        + [((i, j), (i, j + 1)) for i in range(a) for j in range(b - 1)],
    )
    forward = [_chain(n) for n in (1, 2, 7, 60)]
    forward += [_chain(a, "x").product(_chain(b, "y")) for a, b in ((2, 3), (4, 4), (3, 6))]
    forward += [grid(3, 4), grid(5, 5)]
    forward += [fan(w) for w in (1, 5, 12, 13)]
    for P in forward:
        masks, parent, added = P._upper_masks()
        assert parent == reference_parent_table(masks, added)
        assert len(masks) == len(P.upper_sets())
    # the same fan listed top first does mend: the patch above is live
    with pytest.raises(AssertionError, match="mended"):
        Poset([*range(5), "b"], [("b", i) for i in range(5)])._upper_masks()


def test_upper_sets_reads_the_listing_once(monkeypatch):
    P = Poset(["b", *range(6)], [("b", i) for i in range(6)])
    reads = []
    listing = posets.Poset._upper_masks
    monkeypatch.setattr(posets.Poset, "_upper_masks", lambda self: reads.append(1) or listing(self))
    sets = P.upper_sets()
    assert len(reads) == 1 and len(sets) == 2**6 + 1
    assert sets == [P._set_of(m) for m in listing(P)[0]]


def test_upper_sets_of_a_long_chain(monkeypatch):
    chain = Poset(range(60), [(i, i + 1) for i in range(59)])
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 60)
    ups = chain.upper_sets()
    assert len(ups) == 61
    assert ups[0] == frozenset() and ups[-1] == frozenset(range(60))


def test_antichain_normalize(diamond):
    assert diamond.antichain_normalize(["top", "a", "bot"]) == ("bot",)
    assert diamond.antichain_normalize(["b", "a"]) == ("a", "b")
    with pytest.raises(PosetError):
        diamond.antichain_normalize([])


def test_smyth_leq(diamond):
    # refinement means the upward closure shrinks
    assert diamond.smyth_leq(["bot"], ["a", "b"])
    assert diamond.smyth_leq(["a", "b"], ["top"])
    assert not diamond.smyth_leq(["a"], ["b"])


def test_product_row_major():
    C = Poset("01", [("0", "1")])
    P = C.product(C)
    assert P.elements == (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"))
    assert P.leq(("0", "0"), ("1", "1"))
    assert not P.leq(("0", "1"), ("1", "0"))


def test_product_is_the_componentwise_order():
    small = [P for n in range(1, 4) for P in brute_posets(n)]
    small += [Poset(P.elements[::-1], P.covers()) for P in small]
    for A in small:
        for B in small:
            P = A.product(B)
            pairs = [
                (x, y)
                for x in P.elements
                for y in P.elements
                if A.leq(x[0], y[0]) and B.leq(x[1], y[1])
            ]
            assert (P._up, P._down) == reference_closure(P.elements, pairs)


def test_is_tree(diamond):
    assert not diamond.is_tree()
    chain = Poset("abc", [("a", "b"), ("b", "c")])
    assert chain._tree_cache is None
    assert chain.is_tree()
    # the answer is kept: posets are immutable
    assert chain._tree_cache is True and chain.is_tree() and diamond._tree_cache is False
    free = Poset("ab", [])
    for _ in range(2):
        with pytest.raises(PosetError):
            free.is_tree()
    assert free._tree_cache is None


def test_covers_and_is_tree_match_brute_force():
    """On every poset with at most 5 elements, in every element order: covers
    are the transitive reduction of ``leq``, and a pointed poset is a tree
    just when the strict predecessors of each element form a chain."""
    for n in range(1, 6):
        for P in enumerate_posets(n):
            els = P.elements
            lt = {(x, y) for x in els for y in els if x != y and P.leq(x, y)}
            reduction = tuple(
                (x, y) for x in els for y in els
                if (x, y) in lt and not any((x, z) in lt and (z, y) in lt for z in els)
            )
            assert P.covers() == reduction
            if P.is_pointed:
                chains = all(
                    P.comparable(a, b)
                    for y in els for a in els for b in els
                    if (a, y) in lt and (b, y) in lt
                )
                assert P.is_tree() == chains


def test_covers_match_brute_force_however_the_order_is_built():
    """On every poset with at most 5 elements: built by ``Poset`` from a
    random relation that generates it, with transitive, repeated and
    reflexive pairs and the elements shuffled, and built from its masks
    alone, its covers are the pairs x < y with nothing strictly between."""
    rng = random.Random(28)
    for n in range(1, 6):
        for P in enumerate_posets(n):
            els = P.elements
            order = [(x, y) for x in els for y in els if x != y and P.leq(x, y)]
            relation = [*P.covers(), *(p for p in order if rng.random() < 0.3)]
            relation += rng.choices(relation, k=2) if relation else []
            relation.append((els[0], els[0]))
            rng.shuffle(relation)
            elements = list(els)
            rng.shuffle(elements)
            built = Poset(elements, relation)
            masks_only = Poset._from_masks(built.elements, built._up, built._down)
            want = tuple(brute_covers(built))
            assert built._covers_cache is None and masks_only._covers_cache is None
            assert built.covers() == masks_only.covers() == want
            assert set(want) == set(P.covers())


def _builder_outputs() -> dict:
    """The outputs of each builder that closes a covering relation, by
    builder: products of posets with n <= 3, ``fin_poset`` and grids of
    n <= 4, path spaces of pointed n <= 5 and truncations of k <= 7."""
    small = [P for n in range(1, 4) for P in enumerate_posets(n)]
    upto4 = [P for n in range(1, 5) for P in enumerate_posets(n)]
    return {
        "product": [P.product(Q) for P in small for Q in small],
        "fin": [fin_poset(P) for P in upto4],
        "path": [path_space(P)[0] for n in range(1, 6) for P in enumerate_posets(n) if P.is_pointed],
        "grid": [grid_poset(P, N) for P in upto4 for N in ((1, 2, 3) if len(P) < 4 else (1, 2))],
        "truncate": [truncate(LazyPoset(kind), k).poset for kind in KINDS for k in range(1, 8)],
    }


def test_builders_hand_over_exactly_the_covers():
    """Each builder that closes a covering relation hands it over as the
    diagram, and it is the brute-force one of the order it closed."""
    for B in (B for built in _builder_outputs().values() for B in built):
        assert B._covers_cache is not None
        assert B.covers() == tuple(brute_covers(B))


# -- monotone maps ----------------------------------------------------------


def test_monotone_map_rejects_violations(diamond):
    chain = parse_poset("elements: lo hi\norder: lo < hi")
    with pytest.raises(PosetError, match="not monotone"):
        MonotoneMap(diamond, chain, {"bot": "hi", "a": "lo", "b": "lo", "top": "lo"})


def test_monotone_map_compose(diamond):
    ident = MonotoneMap(diamond, diamond, lambda x: x)
    swap = MonotoneMap(
        diamond, diamond, {"bot": "bot", "a": "b", "b": "a", "top": "top"}
    )
    assert swap.compose(swap) == ident
    assert swap.compose(ident) == swap


def test_map_predicates(diamond):
    chain = parse_poset("elements: lo hi\norder: lo < hi")
    rep = map_predicates(
        diamond, chain, {"bot": "lo", "a": "lo", "b": "lo", "top": "hi"}
    )
    assert rep.monotone and rep.surjective
    rep2 = map_predicates(diamond, chain, {x: "lo" for x in diamond.elements})
    assert rep2.monotone and not rep2.surjective
    assert rep2.missing == ("hi",)
    rep3 = map_predicates(
        diamond, chain, {"bot": "hi", "a": "lo", "b": "lo", "top": "lo"}
    )
    assert not rep3.monotone
    assert rep3.monotone_witness == ("bot", "a")


def test_map_predicates_witness_is_a_cover():
    # listed a, b, c with a < c < b: the failure between a and b shows at (a, c)
    P = parse_poset("elements: a b c\norder: a < c; c < b")
    chain = parse_poset("elements: lo hi\norder: lo < hi")
    rep = map_predicates(P, chain, {"a": "hi", "b": "lo", "c": "lo"})
    assert rep.monotone_witness == ("a", "c")


def test_map_predicates_missing_value_is_a_poset_error():
    P = parse_poset("elements: a b")
    with pytest.raises(PosetError, match="map is missing a value for 'b'"):
        map_predicates(P, P, {"a": "a"})


SMALL_POSETS = [P for n in range(1, 5) for P in enumerate_posets(n)]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cover_monotonicity_matches_all_pairs(seed):
    """The cover check agrees with every pair x <= y, for point maps and for
    maps into antichains, on every poset with at most 4 elements."""
    rng = random.Random(seed)
    for P in SMALL_POSETS:
        Q = rng.choice(SMALL_POSETS)
        table = {x: rng.choice(Q.elements) for x in P.elements}
        pairs = [(x, y) for x in P.elements for y in P.elements if P.leq(x, y)]
        monotone = all(Q.leq(table[x], table[y]) for x, y in pairs)
        rep = map_predicates(P, Q, table)
        assert rep.monotone == monotone
        if not monotone:
            x, y = rep.monotone_witness
            assert (x, y) in P.covers() and not Q.leq(table[x], table[y])
        sets = {x: rng.sample(Q.elements, rng.randint(1, len(Q))) for x in P.elements}
        refines = all(Q.smyth_leq(sets[x], sets[y]) for x, y in pairs)
        try:
            FinMap(P, Q, sets)
        except PosetError:
            assert not refines
        else:
            assert refines


# -- text formats -------------------------------------------------------------


def test_parse_format_round_trip(diamond):
    assert parse_poset(format_poset(diamond)) == diamond


def test_parse_ignores_comments_and_blank_lines():
    P = parse_poset("# a diamond\n\nelements: x y\n order: x < y # trailing\n")
    assert P.leq("x", "y")


@pytest.mark.parametrize(
    "text",
    [
        "elements: a a",
        "order: a < b",
        "elements: a\nwhatever",
        "elements: a b\norder: a <",
        "elements: a b\norder: a < b; b < a",
    ],
)
def test_parse_errors(text):
    with pytest.raises(PosetError):
        parse_poset(text)


# Spaces the reader must treat as one: str.split() and str.strip() split at
# each, and none of them ends a line.
SPACES = ["", " ", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f"]
NAMES = ["a", "b", "c", "x1", "ß", "é", "n\u200bm", "d_e", "0", "ab", "Ω"]


def random_poset_text(rng):
    """A poset text over a few of ``NAMES``: several ``elements:`` and
    ``order:`` lines in shuffled order, so that relations may come before
    their elements; Unicode spaces and tabs; comments, blank lines and
    empty entries; self-loops, repeated pairs and pairs against element
    order. Now and then it also holds a cycle, a duplicate element, an
    undeclared name, a malformed entry, a name holding a space or an
    unrecognized line."""
    def sp():
        return rng.choice(SPACES)

    def often(p):
        return rng.random() < p

    names = rng.sample(NAMES, rng.randint(1, 8))
    declared = names + [rng.choice(names)] * often(0.04)
    rng.shuffle(declared)
    cuts = sorted(rng.sample(range(len(declared) + 1), rng.randint(0, 2)))
    groups = [declared[i:j] for i, j in zip([0, *cuts], [*cuts, len(declared)])]
    lines = [sp() + "elements:" + sp() + "".join(x + rng.choice(SPACES[1:]) for x in g) for g in groups]
    # pairs along a hidden linear order: element order itself, most of the time
    rank = names if often(0.6) else rng.sample(names, len(names))
    pairs = []
    for _ in range(rng.randint(0, 2 * len(names))):
        i, j = sorted(rng.choices(range(len(rank)), k=2))
        pairs.append((rank[i], rank[j]))
    pairs += rng.choices(pairs, k=2) if pairs and often(0.3) else []
    pairs += [(y, x) for x, y in pairs if x != y][:1] if often(0.1) else []
    pairs += [(rng.choice(names), "zz")] if often(0.04) else []
    entries = [sp() + x + sp() + "<" + sp() + y + sp() for x, y in pairs]
    for bad in ("{x}", "<{y}", "{x}<{y}<{x}", "{x} <", "{x} {y} < {x}", "{x} < {y}\u00a0{x}"):
        if often(0.02):
            entries.insert(rng.randint(0, len(entries)), bad.format(x=rng.choice(names), y=rng.choice(names)))
    for _ in range(rng.randint(0, 2) if often(0.2) else 0):
        entries.insert(rng.randint(0, len(entries)), sp())
    while entries:
        k = rng.randint(1, len(entries))
        lines.append(sp() + "order:" + sp() + ";".join(entries[:k]))
        del entries[:k]
    lines += rng.choices(["", sp(), "# a < b; c", "elements a", "order a < b"], weights=(4, 4, 4, 1, 1), k=rng.randint(0, 3))
    lines = [line + "  # x < y ; z" if often(0.1) else line for line in lines]
    rng.shuffle(lines)
    return rng.choice(["\n", "\r\n"]).join(lines)


REFUSALS = ("duplicate", "undeclared", "malformed", "unrecognized", "cycle")


def _read(parse, text):
    try:
        P = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return P.elements, P._up, P._down, P.covers()


def test_reader_matches_the_entry_by_entry_reference():
    """On seeded random texts (see :func:`random_poset_text`), the bulk reader
    gives the elements, masks and covers the reference reader gives, or the
    same exception class and message; the index it keeps is the poset's."""
    rng = random.Random(29)
    outcomes = []
    for _ in range(3000):
        text = random_poset_text(rng)
        got = _read(parse_poset, text)
        assert got == _read(reference_parse_poset, text), text
        if len(got) == 4:
            P = parse_poset(text)
            assert P._index == {e: i for i, e in enumerate(P.elements)}
        outcomes.append("ok" if len(got) == 4 else next(k for k in REFUSALS if k in got[1]))
    counts = {k: outcomes.count(k) for k in ("ok", *REFUSALS)}
    assert counts["ok"] > 1500 and min(counts.values()) >= 20, counts


@pytest.mark.parametrize(
    "order",
    [
        "a<b;b<c",
        "a < b;",
        ";a < b;;b < c",
        "a\u00a0<\u3000b\t;\x1fb <c",
        "; < a ; b < c",  # separators where the stride wants names
        "a < b ; c < ;",
        "< < a ; b < c",
        "< a < ; b c a",
        "a < b ; ; < c",
        "a < b < c",
        "a b < c",
        "a < b c ; c < a",
        "a <",
        "b < a",
        "c < a ; a < c",
        "a < zz",
    ],
)
def test_reader_matches_the_reference_on_lines_near_the_stride(order):
    text = f"elements: a b c\norder: {order}\n"
    assert _read(parse_poset, text) == _read(reference_parse_poset, text)


def test_map_file_round_trip(diamond):
    chain = parse_poset("elements: lo hi\norder: lo < hi")
    f = parse_map(diamond, chain, "bot -> lo\na -> lo\nb -> hi\ntop -> hi\n")
    assert parse_map(diamond, chain, format_map(f)) == f
    with pytest.raises(PosetError, match="repeated"):
        parse_map(diamond, chain, "bot -> lo\nbot -> hi")


def test_dot_output_matches_golden(diamond):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "diamond_hasse.dot"
    assert poset_to_dot(diamond) == golden.read_text()


def test_dot_output_is_stable(diamond):
    assert poset_to_dot(diamond) == poset_to_dot(parse_poset(DIAMOND))


def test_dot_quotes_awkward_names():
    P = Poset(['he said "hi"', "b"], [('he said "hi"', "b")])
    out = poset_to_dot(P)
    assert '"he said \\"hi\\""' in out


# -- the closure kernel against the textbook closure ----------------------------


def _masks_or_message(elements, relations):
    try:
        P = Poset(elements, relations)
    except PosetError as exc:
        return str(exc)
    return P._up, P._down


def test_closure_matches_reference_on_every_small_relation():
    for n in range(1, 6):
        for rel in brute_relations(n):
            rel = sorted(rel)  # the diagonal pairs are self-loops
            cyclic = rel + [(j, i) for i, j in rel if i != j][:1]
            for elements in (tuple(range(n)), tuple(reversed(range(n)))):
                for relations in (rel, cyclic):
                    assert _masks_or_message(elements, relations) == reference_closure(
                        elements, relations
                    )


@st.composite
def labeled_relations(draw):
    """Elements kept, shuffled or reversed, and relations along a hidden
    linear order, with self-loops, repeats and sometimes one reversed pair."""
    n = draw(st.integers(1, 40))
    names = [f"v{i}" for i in range(n)]
    rank = draw(st.permutations(range(n)))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    pairs = [(a, b) if rank[a] <= rank[b] else (b, a) for a, b in pairs]
    pairs += pairs[: draw(st.integers(0, 3))]
    if draw(st.booleans()):
        pairs += [(b, a) for a, b in pairs if a != b][:1]
    order = draw(st.sampled_from(["kept", "shuffled", "reversed"]))
    if order == "shuffled":
        elements = draw(st.permutations(names))
    else:
        elements = names[::-1] if order == "reversed" else names
    return tuple(elements), [(names[a], names[b]) for a, b in pairs]


@given(labeled_relations())
@settings(max_examples=200, deadline=None)
def test_closure_matches_reference_on_random_relations(case):
    elements, relations = case
    assert _masks_or_message(elements, relations) == reference_closure(elements, relations)


def _closures_by_both_routes(succs, monkeypatch) -> tuple:
    """The masks each relation of successor lists closes to as ``_closure``
    runs, and by Kahn's pass alone (no pair taken to point forward), read
    from the poset ``Poset._from_covers`` builds on it."""

    def close(succ):
        P = Poset._from_covers(tuple(range(len(succ))), succ)
        return P._up, P._down

    either = [close(succ) for succ in succs]
    monkeypatch.setattr(posets, "lt", lambda a, b: False)
    kahn = [close(succ) for succ in succs]
    monkeypatch.undo()
    return either, kahn


def test_forward_route_and_kahns_pass_close_alike(monkeypatch):
    """Every poset with n <= 5, its covers given over a linear extension
    (every pair forward), over its reverse (every pair backward) and over a
    shuffle: element order is taken as the rank just when every pair points
    forward, and then the pairs, listed row by row, are kept as given; both
    routes give the order's masks."""
    rng = random.Random(29)
    succs, wants = [], []
    for n in range(1, 6):
        for P in enumerate_posets(n):
            extension = sorted(range(n), key=lambda i: P._down[i].bit_count())
            shuffled = rng.sample(range(n), n)
            for kind, perm in (("forward", extension), ("backward", extension[::-1]), ("", shuffled)):
                at = {i: k for k, i in enumerate(perm)}
                succ, up = [[] for _ in perm], [0] * n
                for i, covers in enumerate(P._cover_masks()):
                    succ[at[i]] = [at[j] for j in posets._bits(covers)]
                    up[at[i]] = sum(1 << at[j] for j in posets._bits(P._up[i]))
                forward = all(i < j for i, row in enumerate(succ) for j in row)
                low = [i for i, row in enumerate(succ) for _ in row]
                high = [j for row in succ for j in row]
                assert (posets._closure(n, low, high)[1] is low) == forward
                if kind:
                    assert forward == (kind == "forward" or not any(succ))
                succs.append(succ)
                wants.append((tuple(up), transpose(up)))
    either, kahn = _closures_by_both_routes(succs, monkeypatch)
    assert either == kahn == wants


def test_every_builder_closes_alike_by_both_routes(monkeypatch):
    """Each builder's covering relation closes to its masks by either route.
    Over a poset whose element order is a linear extension, a grid's unit
    moves all point backward, so such grids take Kahn's pass."""
    outputs = [B for group in _builder_outputs().values() for B in group]
    succs = [[list(posets._bits(m)) for m in B._cover_masks()] for B in outputs]
    either, kahn = _closures_by_both_routes(succs, monkeypatch)
    assert either == kahn == [(B._up, B._down) for B in outputs]
    moved = 0
    for P in (P for n in range(1, 5) for P in enumerate_posets(n)):
        if all(m >> i << i == m for i, m in enumerate(P._up)):
            for N in (1, 2):
                moves = [list(posets._bits(m)) for m in grid_poset(P, N)._cover_masks()]
                assert all(j < i for i, row in enumerate(moves) for j in row)
                moved += any(moves)
    assert moved > 50


def test_one_backward_pair_closes_and_a_cycle_is_refused():
    n = 200
    chain = [(i, i + 1) for i in range(n - 1)]
    # n sits last in element order and below 0: one pair against element order
    P = Poset(range(n + 1), [*chain, (n, 0)])
    # Kahn's pass ranks n first, then the chain: the pairs are kept that way
    assert (P._low, P._high) == ([n, *range(n - 1)], list(range(n)))
    assert (P._up, P._down) == reference_closure(range(n + 1), [*chain, (n, 0)])
    assert P.bottom() == n and P.top() == n - 1
    for back in ((n - 1, 0), (150, 20), (1, 0)):
        elements = list(range(n))
        succ = [[i + 1] for i in range(n - 1)] + [[]]
        succ[back[0]].append(back[1])
        with pytest.raises(PosetError) as err:
            Poset(elements, [*chain, back])
        assert str(err.value) == reference_cycle_message(elements, succ)


@st.composite
def dag_relations(draw):
    """Relations with n <= 12 along element order, with repeats, sometimes
    self-loops and sometimes one pair reversed into a cycle."""
    n = draw(st.integers(1, 12))
    index = st.integers(0, n - 1)
    pairs = [(min(p), max(p)) for p in draw(st.lists(st.tuples(index, index), max_size=3 * n))]
    if not draw(st.booleans()):
        pairs = [(a, b) for a, b in pairs if a != b]
    pairs += pairs[: draw(st.integers(0, 3))]
    if draw(st.booleans()):
        pairs += [(b, a) for a, b in pairs if a != b][:1]
    return n, pairs, draw(st.randoms(use_true_random=False))


@given(dag_relations())
@settings(max_examples=150, deadline=None)
def test_every_relation_order_closes_alike(case):
    """Each relation, its pairs sorted by the element order of their ends,
    shuffled and reversed, over elements kept and reversed: the up masks,
    the down masks and the covers are the reference closure's and the
    transitive reduction, and the top is the brute-force one, or the cycle
    is refused with the reference message. Forward pairs listed by lower
    end are kept as given, and no poset makes its down masks before they
    are read."""
    n, pairs, rng = case
    names = [f"v{i}" for i in range(n)]
    for elements in (names, names[::-1]):
        at = {e: k for k, e in enumerate(elements)}
        relation = sorted(((names[a], names[b]) for a, b in pairs),
                          key=lambda pair: (at[pair[0]], at[pair[1]]))
        shuffled = rng.sample(relation, len(relation))
        for relations in (relation, shuffled, relation[::-1]):
            want = reference_closure(elements, relations)
            try:
                P = Poset(elements, relations)
            except PosetError as exc:
                assert str(exc) == want
                continue
            assert P._down_cache is None
            assert (P._up, P._down) == want
            assert list(P.covers()) == brute_covers(P)
            tops = [t for t in elements if all(P.leq(x, t) for x in elements)]
            assert P.top() == (tops[0] if tops else None)
            loops = any(x == y for x, y in relations)
            if relations is relation and elements is names and not loops:
                assert P._low == [at[x] for x, _ in relation]
                assert P._high == [at[y] for _, y in relation]


def test_cycle_message_matches_the_warshall_reference():
    """Seeded cyclic relations with n <= 12: several cycles, self-loops and
    repeated pairs, elements in shuffled order."""
    rng = random.Random(26)
    for _ in range(1500):
        n = rng.randint(2, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        for k in [rng.randint(2, n)] + [rng.randint(1, n) for _ in range(rng.randint(0, 2))]:
            cycle = rng.sample(range(n), k)
            pairs += zip(cycle, cycle[1:] + cycle[:1])
        pairs += rng.choices(pairs, k=rng.randint(0, 4))
        rng.shuffle(pairs)
        elements = rng.sample([f"v{i}" for i in range(n)], n)
        relations = [(f"v{a}", f"v{b}") for a, b in pairs]
        succ = [[] for _ in elements]
        for x, y in relations:
            if x != y:
                succ[elements.index(x)].append(elements.index(y))
        message = _masks_or_message(elements, relations)
        assert message == reference_cycle_message(elements, succ)
        assert message == reference_closure(elements, relations)


def test_a_long_cycle_is_refused_in_linear_time():
    n = 20_000
    relations = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    start = time.perf_counter()
    message = _masks_or_message(range(n), relations)
    assert time.perf_counter() - start < 1
    assert message == "cycle detected: 0 <= 1 <= 0"


def test_every_constructor_stores_the_transpose_as_down_masks():
    chain = Poset(range(3), [(0, 1), (1, 2)])
    pair = Poset("vw", [])
    D = parse_poset(DIAMOND)
    tree, _ = path_space(chain.product(chain))
    built = [chain.product(pair), pair.product(chain), chain.product(chain), tree]
    built += [_relabel(tree, str), grid_poset(D, 2), fin_poset(D)]
    built += [truncate(LazyPoset(kind), k).poset for kind in KINDS for k in (1, 3)]
    built += list(enumerate_posets(5))
    for P in built:
        assert P._down == transpose(P._up)


# -- exhaustive enumeration ----------------------------------------------------


def test_enumeration_matches_brute_force_up_to_4():
    for n in range(1, 5):
        expected = {
            frozenset((a, b) for a in P.elements for b in P.elements if P.leq(a, b))
            for P in brute_posets(n)
        }
        got = [
            frozenset((a, b) for a in P.elements for b in P.elements if P.leq(a, b))
            for P in enumerate_posets(n)
        ]
        assert len(got) == len(set(got)), "enumeration repeated a poset"
        assert set(got) == expected


def test_enumeration_counts_pinned():
    for n, count in LABELED_POSET_COUNTS.items():
        if n <= 5:
            assert sum(1 for _ in enumerate_posets(n)) == count


def test_enumeration_order_pinned():
    """The sequence of up-mask tuples for n <= 5, as a SHA-256 digest."""
    h = hashlib.sha256()
    for n in range(1, 6):
        for P in enumerate_posets(n):
            h.update((repr(P._up) + "\n").encode())
    assert h.hexdigest() == (
        "01cac34e4fcf7cc1683b0e9d24ddc7c1ed10db58990cf1d8e31c3de4374a0a4f"
    )


def test_enumeration_count_n6():
    assert sum(1 for _ in enumerate_posets(6)) == LABELED_POSET_COUNTS[6]


def test_enumeration_range_checks():
    with pytest.raises(PosetError):
        list(enumerate_posets(0))
    with pytest.raises(PosetError):
        list(enumerate_posets(7))


# -- properties ---------------------------------------------------------------

relation_lists = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] < p[1]),
    max_size=8,
)


@given(relation_lists)
def test_order_is_transitive_and_antisymmetric(rels):
    P = Poset(range(5), rels)
    for a in P.elements:
        assert P.leq(a, a)
        for b in P.elements:
            if P.leq(a, b) and P.leq(b, a):
                assert a == b
            for c in P.elements:
                if P.leq(a, b) and P.leq(b, c):
                    assert P.leq(a, c)


@given(relation_lists)
def test_covers_regenerate_the_order(rels):
    P = Poset(range(5), rels)
    assert Poset(P.elements, P.covers()) == P


@given(relation_lists)
@settings(max_examples=50)
def test_upper_sets_are_upward_closed(rels):
    P = Poset(range(5), rels)
    for U in P.upper_sets():
        for x in U:
            assert all(y in U for y in P.elements if P.leq(x, y))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MonotoneMap(Poset(["x"], []), Poset(["x"], []), {"x": "x"}).compose(
            MonotoneMap(Poset(["w"], []), Poset(["y"], []), {"w": "y"})),
         "composition mismatch: inner target differs from outer source"),
    ],
)
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(PosetError) as err:
        call()
    assert type(err.value) is PosetError and str(err.value) == message
