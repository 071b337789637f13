import itertools
import random

import pytest

from ordbench import (
    BOT,
    N2,
    NSUM,
    OMEGA,
    T,
    TOP,
    LazyPoset,
    MonotoneMap,
    PosetError,
    canonical_quasi_section,
    check_quasi_retraction,
    family_witness,
    format_code,
    hat_f,
    hat_f_rigidity_check,
    n2_family,
    node,
    omega_side,
    parse_code,
    parse_poset,
    t_family,
    truncate,
)

from ordbench import lazy
from ordbench.lazy import KINDS
from ordbench.posets import Poset

from oracles import (
    LAZY_CAPS,
    all_pairs_truncation,
    lazy_codes,
    monotone_maps,
    reference_lazy_leq,
    reference_rigidity_check,
    transpose,
)


# -- codes ------------------------------------------------------------------


def test_code_syntax_round_trip():
    for code in (BOT, TOP, OMEGA, node(0, 3), node(1, 17), omega_side(1)):
        assert parse_code(format_code(code)) == code
    assert format_code(node(0, 3)) == "n:0:3"
    assert format_code(omega_side(0)) == "omega0"


def test_malformed_codes_rejected():
    for bad in ("n:2:1", "n:0", "omegax", "", "n:0:-1"):
        with pytest.raises(PosetError):
            parse_code(bad)
    with pytest.raises(PosetError):
        N2.validate(("top",))
    with pytest.raises(PosetError):
        N2.validate(("n", 0, -1))


NODE_SPELLING = "expected bot, top, omega, omega0, omega1, or n:J:LEVEL"


@pytest.mark.parametrize(
    "text", ["n:0:1_0", "n:+0:1", "n: 0:1", "n:0:01", "n:00:1", "n:0:-0", "n:1:\u0661"]
)
def test_parse_code_reads_only_what_format_code_writes(text):
    # int() reads each of these numbers, but format_code never writes them
    with pytest.raises(PosetError) as err:
        parse_code(text)
    assert str(err.value) == f"malformed element {text!r}: {NODE_SPELLING}"


def test_parse_code_keeps_its_messages():
    for text, message in [
        ("n:0:x", "malformed element 'n:0:x'"),
        ("n:2:1", f"malformed element 'n:2:1': {NODE_SPELLING}"),
        ("n:0:-1", f"malformed element 'n:0:-1': {NODE_SPELLING}"),
    ]:
        with pytest.raises(PosetError) as err:
            parse_code(text)
        assert str(err.value) == message


def test_node_codes_round_trip_through_their_spelling():
    for level in range(1001):
        for j in (0, 1):
            text = f"n:{j}:{level}"
            assert format_code(parse_code(text)) == text
            assert parse_code(format_code(node(j, level))) == node(j, level)


def test_unknown_kind_rejected():
    with pytest.raises(PosetError, match="kind"):
        LazyPoset("plotkin")


# -- order rules ---------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_leq_matches_the_closure_of_the_covers(kind):
    # every ordered pair of codes up to level 6
    L, ref = LazyPoset(kind), reference_lazy_leq(kind, 6)
    codes = lazy_codes(kind, 7)
    got = [[L.leq(x, y) for y in codes] for x in codes]
    assert got == [[ref(x, y) for y in codes] for x in codes]
    assert sum(map(sum, got)) == {"n2": 87, "t": 129, "nsum": 89}[kind]


MALFORMED = [
    ("n", 2, 0), ("n", 0, -1), ("n", 0, 1.5), ("n", 0, "1"), ("n", [], 0), ("n", 0, []),
    ("n", 0), ("n", 0, 1, 2), ("bot", []), ("bot", 0), ("omega", []), ("omegaside", 2),
    (), ["n", 0, 1], ["bot"], "bot", "n:0:1", None, 0,
]


@pytest.mark.parametrize("kind", KINDS)
def test_malformed_codes_get_the_invalid_element_message(kind):
    # the caps of the other kinds are no elements of this one; a code with
    # an unhashable part gets the same PosetError as any other
    L = LazyPoset(kind)
    foreign = [c for k in KINDS if k != kind for c in LAZY_CAPS[k] if c not in LAZY_CAPS[kind]]
    for code in MALFORMED + foreign:
        message = f"invalid element {code!r} for kind {kind!r}"
        for call in (lambda: L.validate(code), lambda: L.leq(code, BOT), lambda: L.leq(BOT, code)):
            with pytest.raises(PosetError) as err:
                call()
            assert type(err.value) is PosetError and str(err.value) == message


# parts that equal an int without being one: format_code would write them as
# n:True:1, n:1.0:3 or omegaTrue, which parse_code refuses
NEAR_INTS = [
    ("n", True, 1), ("n", 1.0, 3), ("n", 0, True), ("n", False, 0), ("n", 0, 2.0),
    ("omegaside", True), ("omegaside", 0.0),
]


@pytest.mark.parametrize("kind", KINDS)
def test_codes_with_bool_or_float_parts_are_refused(kind):
    L = LazyPoset(kind)
    for code in NEAR_INTS:
        with pytest.raises(PosetError) as err:
            L.validate(code)
        assert str(err.value) == f"invalid element {code!r} for kind {kind!r}"
        with pytest.raises(PosetError):
            L.leq(code, code)
    # every code the kind accepts reads back from its spelling
    for code in lazy_codes(kind, 4):
        assert parse_code(format_code(L.validate(code))) == code


def test_two_ladders_under_omega():
    assert N2.leq(node(0, 3), OMEGA)
    assert N2.leq(node(0, 1), node(0, 4))
    assert not N2.leq(node(0, 4), node(0, 1))
    assert not N2.leq(node(0, 2), node(1, 2))
    assert not N2.leq(OMEGA, node(0, 3))
    assert N2.leq(BOT, OMEGA)


def test_level_rule_crosses_branches():
    assert T.leq(node(0, 2), node(1, 3))
    assert not T.leq(node(0, 2), node(1, 2))
    assert T.leq(node(0, 2), node(0, 2))
    assert T.leq(node(1, 0), TOP)
    assert not T.leq(TOP, node(1, 0))
    assert T.leq(BOT, node(0, 0))


def test_disjoint_chains_have_no_cross_relations():
    assert NSUM.leq(node(0, 2), omega_side(0))
    assert not NSUM.leq(node(0, 2), omega_side(1))
    assert not NSUM.leq(node(0, 2), node(1, 5))
    assert not NSUM.leq(omega_side(0), omega_side(1))
    assert NSUM.leq(BOT, omega_side(1))


def sample_codes(L, max_level):
    out = [BOT]
    for j in (0, 1):
        out.extend(node(j, m) for m in range(max_level))
    if L.kind == "n2":
        out.append(OMEGA)
    elif L.kind == "t":
        out.append(TOP)
    else:
        out.extend([omega_side(0), omega_side(1)])
    return out


@pytest.mark.parametrize("kind", ["n2", "t", "nsum"])
def test_order_axioms_on_sampled_codes(kind):
    L = LazyPoset(kind)
    codes = sample_codes(L, 6)
    for x in codes:
        assert L.leq(x, x)
        for y in codes:
            if L.leq(x, y) and L.leq(y, x):
                assert x == y
            for z in codes:
                if L.leq(x, y) and L.leq(y, z):
                    assert L.leq(x, z)


# -- quasi-deflation families --------------------------------------------------


def test_ladder_family_values():
    phi = n2_family(2, 3)
    assert phi(OMEGA) == (node(0, 2), node(1, 3))
    assert phi(node(0, 5)) == (node(0, 2), node(1, 3))
    assert phi(node(0, 1)) == (node(0, 1), node(1, 3))
    assert phi(BOT) == (BOT,)


def test_level_family_values():
    phi = t_family(2)
    assert phi(node(0, 1)) == (node(0, 1),)
    assert phi(node(0, 5)) == (node(0, 2), node(1, 2))
    assert phi(TOP) == (node(0, 2), node(1, 2))
    assert phi(BOT) == (BOT,)


@pytest.mark.parametrize(
    "family,L,indices",
    [
        (
            n2_family,
            N2,
            [(i, j) for i in (0, 1, 2, 5, 20) for j in (0, 1, 3, 20)],
        ),
        (t_family, T, [(i,) for i in (0, 1, 2, 7, 20)]),
    ],
)
def test_families_obey_quasi_deflation_laws(family, L, indices):
    codes = sample_codes(L, 41)
    for idx in indices:
        phi = family(*idx)
        for x in codes:
            assert L.in_up(phi(x), x)
            for y in codes:
                if L.leq(x, y):
                    assert L.smyth_leq(phi(x), phi(y))


def test_families_grow_with_their_indices():
    codes = sample_codes(N2, 15)
    for (i1, j1), (i2, j2) in [((1, 1), (3, 2)), ((0, 4), (2, 4)), ((2, 2), (2, 2))]:
        lo, hi = n2_family(i1, j1), n2_family(i2, j2)
        for x in codes:
            assert N2.smyth_leq(lo(x), hi(x))
    tcodes = sample_codes(T, 15)
    for i1, i2 in [(0, 1), (1, 4), (3, 3)]:
        lo, hi = t_family(i1), t_family(i2)
        for x in tcodes:
            assert T.smyth_leq(lo(x), hi(x))


# -- witnesses -------------------------------------------------------------------


def test_witness_excludes_a_point_below_omega():
    idx = family_witness(N2, OMEGA, node(0, 7))
    assert idx == (8, 8)
    phi = n2_family(*idx)
    assert not N2.in_up(phi(OMEGA), node(0, 7))


def test_witness_separates_level_twins():
    idx = family_witness(T, node(0, 3), node(1, 3))
    assert idx == 4
    assert t_family(idx)(node(0, 3)) == (node(0, 3),)
    assert not T.in_up(t_family(idx)(node(0, 3)), node(1, 3))


def test_witness_excludes_bottom():
    idx = family_witness(N2, node(0, 2), BOT)
    assert idx == (3, 3)
    assert not N2.in_up(n2_family(*idx)(node(0, 2)), BOT)


def test_witness_rejects_comparable_pairs():
    with pytest.raises(PosetError, match="witness"):
        family_witness(N2, node(0, 1), OMEGA)


def test_witness_not_defined_for_the_chain_sum():
    with pytest.raises(PosetError):
        family_witness(NSUM, node(0, 1), node(1, 1))


def test_witness_valid_across_sampled_pairs():
    for L, fam in ((N2, n2_family), (T, t_family)):
        codes = sample_codes(L, 12)
        for x, y in itertools.product(codes, repeat=2):
            if L.leq(x, y):
                continue
            idx = family_witness(L, x, y)
            phi = fam(*idx) if isinstance(idx, tuple) else fam(idx)
            assert L.in_up(phi(x), x)
            assert not L.in_up(phi(x), y)


def test_opposite_ladder_never_reaches_across():
    for m in range(41):
        for n in range(41):
            assert not N2.leq(node(0, m), node(1, n))


# -- truncations --------------------------------------------------------------------


def test_ladder_truncation_carrier():
    t1 = truncate(N2, 1)
    assert len(t1.poset.elements) == 6
    assert set(t1.poset.elements) == {"bot", "n:0:0", "n:0:1", "n:1:0", "n:1:1", "omega"}
    assert t1.poset.leq("n:0:0", "omega")
    assert not t1.poset.leq("n:0:1", "n:1:1")


def test_level_truncation_at_depth_one_is_a_diamond():
    t1 = truncate(T, 1)
    diamond = parse_poset(
        "elements: bot a b top\norder: bot < a; bot < b; a < top; b < top"
    )
    assert len(t1.poset.elements) == 4
    relabel = dict(zip(t1.poset.elements, diamond.elements))
    for x in t1.poset.elements:
        for y in t1.poset.elements:
            assert t1.poset.leq(x, y) == diamond.leq(relabel[x], relabel[y])
    assert t1.project is None


def test_chain_sum_truncation_carrier():
    t1 = truncate(NSUM, 1)
    assert len(t1.poset.elements) == 7
    assert t1.poset.leq("n:1:0", "omega1")
    assert not t1.poset.leq("n:1:0", "omega0")


@pytest.mark.parametrize("kind", ["n2", "t", "nsum"])
def test_truncation_matches_the_all_pairs_order(kind):
    L = LazyPoset(kind)
    for k in range(1, 61):
        P = truncate(L, k).poset
        assert (P.elements, P._up, P._down) == all_pairs_truncation(L, k)


@pytest.mark.parametrize("kind", ["n2", "t", "nsum"])
def test_truncation_asks_the_order_only_between_adjacent_layers(kind, monkeypatch):
    calls = []
    leq = LazyPoset.leq

    def counted(self, x, y):
        calls.append((x, y))
        return leq(self, x, y)

    monkeypatch.setattr(LazyPoset, "leq", counted)
    P = truncate(LazyPoset(kind), 200).poset
    assert 0 < len(calls) <= 2 * len(P.elements)


def test_truncation_depth_must_be_positive():
    with pytest.raises(PosetError):
        truncate(N2, 0)


@pytest.mark.parametrize("kind", ["n2", "nsum"])
def test_projection_laws_up_to_depth_ten(kind):
    L = LazyPoset(kind)
    for k in range(1, 11):
        tr = truncate(L, k)
        for name in tr.poset.elements:
            assert tr.project(tr.embed(name)) == name
        for code in sample_codes(L, k + 6):
            back = tr.embed(tr.project(code))
            assert L.leq(back, code)


def test_embed_rejects_names_outside_the_carrier():
    tr = truncate(N2, 1)
    with pytest.raises(PosetError):
        tr.embed("n:0:2")


def test_chain_sum_retracts_onto_the_ladder():
    """Collapsing the two chain tops to the limit point admits a two-sided section."""
    src = truncate(NSUM, 2).poset
    dst = truncate(N2, 2).poset
    table = {x: ("omega" if x.startswith("omega") else x) for x in src.elements}
    r = MonotoneMap(src, dst, table)
    qs = canonical_quasi_section(r)
    assert set(qs("omega")) == {"omega0", "omega1"}
    rep = check_quasi_retraction(r, qs)
    assert rep.ok and rep.canonical


# -- branch swaps and rigidity ----------------------------------------------------------


def test_all_zero_bits_is_the_identity():
    f = hat_f([0, 0])
    assert all(f(x) == x for x in f.source.elements)


def test_single_swap_on_depth_one():
    f = hat_f([1])
    assert f("n:0:0") == "n:1:0"
    assert f("n:1:0") == "n:0:0"
    assert f("bot") == "bot" and f("top") == "top"


@pytest.mark.parametrize("bits", [[0], [1], [0, 1], [1, 1], [1, 0, 1]])
def test_swaps_are_involutions(bits):
    f = hat_f(bits)
    assert f.compose(f) == MonotoneMap(f.source, f.source, lambda x: x)


def test_bits_must_be_binary():
    with pytest.raises(PosetError):
        hat_f([2])
    with pytest.raises(PosetError):
        hat_f([])


def test_rigidity_trivial_cases():
    bits = [1, 0]
    f = hat_f(bits)
    assert hat_f_rigidity_check(f, bits)
    const = MonotoneMap(f.source, f.source, {x: "bot" for x in f.source.elements})
    assert hat_f_rigidity_check(const, bits)


def test_rigidity_holds_for_every_monotone_endomap_at_depth_two():
    for bits in ([0, 0], [0, 1], [1, 0], [1, 1]):
        f = hat_f(bits)
        Tk = f.source
        for table in monotone_maps(Tk, Tk):
            g = MonotoneMap(Tk, Tk, dict(zip(Tk.elements, table)))
            assert hat_f_rigidity_check(g, bits)
            below = all(Tk.leq(g(x), f(x)) for x in Tk.elements)
            keeps = g("n:0:0") != "bot" and g("n:1:0") != "bot"
            if below and keeps:
                assert g == f


DEPTH_TWO_BITS = ([0, 0], [0, 1], [1, 0], [1, 1])


def _verdict(check, g, bits):
    try:
        return check(g, bits)
    except PosetError as err:
        return str(err)


def test_rigidity_reads_as_the_full_swap_map_did():
    # every monotone endomap of T_2; every map below f̂ cell by cell, built
    # without the monotonicity check so that the premise can hold with g
    # != f̂; and random cell tables, at several bit patterns
    rng = random.Random(11)
    Tk = truncate(T, 2).poset
    tables = monotone_maps(Tk, Tk)
    assert len(tables) == 477
    downs = [[a for a in range(6) if Tk._up[a] >> b & 1] for b in range(6)]
    for bits in DEPTH_TWO_BITS:
        f = hat_f(bits)
        maps = [MonotoneMap(Tk, Tk, dict(zip(Tk.elements, t))) for t in tables]
        maps += [MonotoneMap._of(Tk, Tk, c) for c in itertools.product(*(downs[b] for b in f._cells))]
        maps += [MonotoneMap._of(Tk, Tk, tuple(rng.randrange(6) for _ in range(6))) for _ in range(300)]
        verdicts = [hat_f_rigidity_check(g, bits) for g in maps]
        assert verdicts == [reference_rigidity_check(g, bits) for g in maps]
        assert False in verdicts and True in verdicts


def test_rigidity_accepts_t_as_the_reference_order_spells_it():
    # T_k rebuilt from the reference order on the codes, not from truncate,
    # is the poset the check takes, at every depth and several bit patterns
    rng = random.Random(7)
    for k in range(1, 8):
        leq = reference_lazy_leq("t", k - 1)
        codes = lazy_codes("t", k)
        up = tuple(sum(1 << j for j, d in enumerate(codes) if leq(c, d)) for c in codes)
        P = Poset._from_masks(tuple(map(format_code, codes)), up, transpose(up))
        assert P == truncate(T, k).poset
        for bits in ([0] * k, [rng.randrange(2) for _ in range(k)]):
            swap = MonotoneMap(P, P, dict(zip(P.elements, hat_f(bits).values)))
            for g in (hat_f(bits), swap, MonotoneMap._of(P, P, (0,) * len(P))):
                assert hat_f_rigidity_check(g, bits) is reference_rigidity_check(g, bits) is True


def _renamed(P, names):
    """P with each element renamed by the dict ``names`` (others kept), each at its own index."""
    return Poset._from_masks(tuple(names.get(x, x) for x in P.elements), P._up, P._down)


def test_rigidity_refuses_g_on_any_other_poset():
    # T at other depths, the n2 truncation with as many elements, T_2
    # renamed, with two names swapped across a level or within one, and
    # T_2 with its elements listed in another order
    T2 = truncate(T, 2).poset
    others = [
        truncate(T, 1).poset,
        truncate(T, 3).poset,
        truncate(N2, 1).poset,
        _renamed(T2, {x: x.upper() for x in T2.elements}),
        _renamed(T2, {"n:0:0": "n:0:1", "n:0:1": "n:0:0"}),
        _renamed(T2, {"n:0:0": "n:1:0", "n:1:0": "n:0:0"}),
        Poset(reversed(T2.elements), T2.covers()),
    ]
    assert len(others[2]) == len(T2) and all(set(P.elements) == set(T2.elements) for P in others[4:])
    message = "g must be an endo-map of the matching truncation of T"
    for P in others:
        assert P != T2
        for g in (MonotoneMap._of(P, P, (0,) * len(P)), MonotoneMap._of(P, T2, (0,) * len(P)),
                  MonotoneMap._of(T2, P, (0,) * len(T2))):
            for bits in DEPTH_TWO_BITS:
                assert _verdict(hat_f_rigidity_check, g, bits) == message
                assert _verdict(reference_rigidity_check, g, bits) == message


def test_rigidity_check_truncates_nothing(monkeypatch):
    gs = [(hat_f(bits), bits) for bits in ([1], [0, 1], [1, 0, 1, 1], [1] * 9)]

    def no_truncation(*args):
        raise AssertionError("truncate was called")

    monkeypatch.setattr(lazy, "truncate", no_truncation)
    for g, bits in gs:
        assert hat_f_rigidity_check(g, bits)
        with pytest.raises(AssertionError, match="truncate was called"):
            hat_f(bits)


T3 = truncate(T, 3).poset


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: n2_family(-1, 0), "family indices must be naturals"),
        (lambda: t_family(-1), "family index must be a natural"),
        (lambda: hat_f_rigidity_check(MonotoneMap(T3, T3, lambda x: x), (0, 1)),
         "g must be an endo-map of the matching truncation of T"),
    ],
)
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(PosetError) as err:
        call()
    assert type(err.value) is PosetError and str(err.value) == message


NOT_INTS = [2.0, True, False, "2", None, 1 + 0j]


@pytest.mark.parametrize("bad", NOT_INTS)
def test_family_indices_must_be_ints(bad):
    # an index equal to an int is refused too: it would build codes that
    # format_code writes and validate refuses
    for call, message in (
        (lambda: n2_family(bad, 1), "family indices must be naturals"),
        (lambda: n2_family(1, bad), "family indices must be naturals"),
        (lambda: t_family(bad), "family index must be a natural"),
    ):
        with pytest.raises(PosetError) as err:
            call()
        assert type(err.value) is PosetError and str(err.value) == message
    assert t_family(2)(TOP) == (node(0, 2), node(1, 2))
    assert n2_family(1, 0)(OMEGA) == (node(0, 1), node(1, 0))


@pytest.mark.parametrize("bad", [*NOT_INTS, 0, -1])
def test_truncation_depths_must_be_ints_of_at_least_one(bad):
    for L in (N2, T, NSUM):
        with pytest.raises(PosetError) as err:
            truncate(L, bad)
        assert str(err.value) == "truncation depth must be an integer of at least 1"
    # the projection of a depth-1 truncation names one of its elements
    trunc = truncate(N2, 1)
    assert trunc.project(node(0, 5)) == "n:0:1" and "n:0:1" in trunc.poset.elements
