import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    FinMap,
    MonotoneMap,
    Poset,
    PosetError,
    StagePreconditionError,
    canonical_quasi_section,
    check_monad_laws,
    check_quasi_retraction,
    dagger,
    enumerate_posets,
    eta,
    eta_map,
    fin_antichains,
    fin_poset,
    format_antichain,
    format_finmap,
    koenig_chain,
    mu,
    parse_antichain,
    parse_finmap,
    parse_poset,
    path_space,
    smyth_map,
)
from ordbench import smyth

from oracles import (
    random_finmap, random_monotone_map, random_poset, reference_koenig, reference_monad_laws,
    repeated_stages, transpose,
)

DIAMOND = parse_poset("elements: bot a b top\norder: bot < a; bot < b; a < top; b < top")
CHAIN3 = parse_poset("elements: x0 x1 x2\norder: x0 < x1; x1 < x2")


def test_eta_is_singleton():
    assert eta(DIAMOND, "bot") == ("bot",)
    assert eta(DIAMOND, "a") == ("a",)
    assert eta(CHAIN3, "x1") == ("x1",)
    with pytest.raises(PosetError):
        eta(DIAMOND, "zed")


def test_finmap_normalizes_values():
    h = FinMap(DIAMOND, DIAMOND, {x: ("top", "a", "bot") for x in DIAMOND.elements})
    assert h("a") == ("bot",)


def test_finmap_rejects_non_monotone_tables():
    table = {"bot": ("top",), "a": ("a",), "b": ("b",), "top": ("top",)}
    with pytest.raises(PosetError, match="monotone"):
        FinMap(DIAMOND, DIAMOND, table)
    unchecked = FinMap(DIAMOND, DIAMOND, table, check=False)
    assert unchecked("bot") == ("top",)


def test_dagger_of_unit_is_identity():
    ext = dagger(eta_map(DIAMOND))
    for E in [("bot",), ("a", "b"), ("top",)]:
        assert ext(E) == E


def test_dagger_constant_bottom():
    h = FinMap(DIAMOND, DIAMOND, {x: ("bot",) for x in DIAMOND.elements})
    ext = dagger(h)
    assert ext(("a", "b")) == ("bot",)
    assert ext(("top",)) == ("bot",)


def test_dagger_union_then_normalize():
    h = FinMap(
        DIAMOND,
        DIAMOND,
        {"bot": ("bot",), "a": ("top",), "b": ("top",), "top": ("top",)},
    )
    assert dagger(h)(("a", "b")) == ("top",)


def test_smyth_map_of_identity():
    ident = MonotoneMap(DIAMOND, DIAMOND, lambda x: x)
    lifted = smyth_map(ident)
    assert lifted(("a", "b")) == ("a", "b")


def test_smyth_map_collapses_path_space_maxima():
    # the endpoint map sends both saturated chains through the middle to top
    Pi, r = path_space(DIAMOND)
    lifted = smyth_map(r)
    two_paths = [p for p in Pi.elements if len(p) == 3]
    assert lifted(two_paths) == ("top",)


def test_smyth_map_constant():
    const = MonotoneMap(DIAMOND, DIAMOND, {x: "bot" for x in DIAMOND.elements})
    assert smyth_map(const)(("top",)) == ("bot",)


def test_smyth_map_agrees_with_dagger_of_unit_composition():
    rng = random.Random(7)
    for _ in range(25):
        X = random_poset(rng, rng.randint(1, 5))
        Y = random_poset(rng, rng.randint(1, 5))
        r = MonotoneMap(X, Y, random_monotone_map(rng, X, Y))
        h = FinMap(X, Y, {x: eta(Y, r(x)) for x in X.elements})
        for E in fin_poset(X).elements:
            assert smyth_map(r)(E) == dagger(h)(E)


def test_mu_flattens():
    assert mu(DIAMOND, [("a",)]) == ("a",)
    assert mu(DIAMOND, [("top",)]) == ("top",)
    assert mu(DIAMOND, [("a",), ("b",)]) == ("a", "b")


def test_mu_on_upper_intersection():
    """Meets of principal compacts agree with plain intersection of upward closures."""
    meet = DIAMOND.up_closure(["a"]) & DIAMOND.up_closure(["b"])
    assert mu(DIAMOND, [("top",)]) == DIAMOND.antichain_normalize(meet)


def test_fin_poset_of_diamond():
    F = fin_poset(DIAMOND)
    assert len(F.elements) == 5  # one per nonempty upper set
    assert F.leq(("bot",), ("a", "b"))
    assert F.leq(("a", "b"), ("top",))
    assert not F.leq(("a",), ("b",))


def test_fin_poset_matches_the_pairwise_refinement_order():
    """On every poset with at most 4 elements, in kept and reversed element
    order."""
    for n in range(1, 5):
        for P in enumerate_posets(n):
            for Q in (P, Poset(P.elements[::-1], P.covers())):
                chains = fin_antichains(Q)
                F = fin_poset(Q)
                assert F.elements == tuple(chains)
                up = tuple(
                    sum(1 << j for j, G in enumerate(chains) if Q.smyth_leq(E, G))
                    for E in chains
                )
                assert (F._up, F._down) == (up, transpose(up))


def test_fin_poset_cap():
    wide = Poset(range(17), [])
    with pytest.raises(PosetError, match="cap"):
        fin_poset(wide)


def test_fin_antichains_cap_trips_before_any_depth_limit(monkeypatch):
    # the first 1,200 antichains grow one element at a time
    monkeypatch.setattr(smyth, "FIN_CAP", 1500)
    with pytest.raises(PosetError, match="exceeded the cap of 1500"):
        fin_antichains(Poset(range(1200), []))


def test_fin_antichains_cap_trips_before_the_tuples_are_built(monkeypatch):
    # 5,000 antichains of the 1200-element antichain hold about 5.5 M
    # element references as tuples, but only 5,000 masks
    wide = Poset(range(1200), [])
    monkeypatch.setattr(smyth, "FIN_CAP", 5000)
    tracemalloc.start()
    try:
        with pytest.raises(PosetError, match="exceeded the cap of 5000"):
            fin_antichains(wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_fin_cap_holds_at_the_count_and_trips_one_below(monkeypatch):
    # the diamond has five antichains; every consumer reads the one FIN_CAP
    consumers = (fin_antichains, fin_poset, check_monad_laws)
    monkeypatch.setattr(smyth, "FIN_CAP", 5)
    assert len(fin_antichains(DIAMOND)) == len(fin_poset(DIAMOND)) == 5
    assert check_monad_laws(DIAMOND).ok
    monkeypatch.setattr(smyth, "FIN_CAP", 4)
    for consumer in consumers:
        with pytest.raises(PosetError) as err:
            consumer(DIAMOND)
        assert str(err.value) == "antichain enumeration exceeded the cap of 4"


# -- monad laws ---------------------------------------------------------------


def test_monad_laws_hold_for_unit():
    rep = check_monad_laws(DIAMOND)
    assert rep.ok
    assert rep.unit_identity and rep.extension_identity and rep.associativity


def test_monad_laws_hold_for_constant_map():
    h = FinMap(DIAMOND, DIAMOND, {x: ("bot",) for x in DIAMOND.elements})
    rep = check_monad_laws(DIAMOND, h=h, g=eta_map(DIAMOND))
    assert rep.ok


def test_monad_laws_report_carries_witness_for_broken_map():
    """A non-monotone outer map breaks associativity on a two-point antichain."""
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    h = FinMap(
        DIAMOND,
        chain,
        {"bot": ("z0",), "a": ("z0",), "b": ("z1",), "top": ("z1",)},
    )
    g = FinMap(chain, chain, {"z0": ("z1",), "z1": ("z0",)}, check=False)
    rep = check_monad_laws(DIAMOND, h=h, g=g)
    assert not rep.ok
    assert (rep.unit_identity, rep.extension_identity, rep.associativity) == (True, True, False)
    assert rep.witness == {
        "law": "associativity",
        "at": ("a", "b"),
        "lhs": ("z0",),
        "rhs": ("z1",),
    }


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_monad_laws_hold_on_random_instances(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 5))
    h = FinMap(P, P, random_finmap(rng, P, P))
    g = FinMap(P, P, random_finmap(rng, P, P))
    assert check_monad_laws(P, h=h, g=g).ok


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_unit_and_extension_laws_hold_for_any_unchecked_table(seed):
    # FinMap normalizes every value and fin_antichains yields canonical
    # antichains, so only associativity can fail, and only off a non-monotone g
    rng = random.Random(seed)
    P, Y, Z = (random_poset(rng, rng.randint(1, 4)) for _ in range(3))

    def table(X, T):
        return {x: rng.sample(T.elements, rng.randint(1, len(T.elements))) for x in X.elements}

    h = FinMap(P, Y, table(P, Y), check=False)
    g = FinMap(Y, Z, table(Y, Z), check=False)
    rep = check_monad_laws(P, h=h, g=g)
    assert rep.unit_identity and rep.extension_identity


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_mask_law_scan_matches_the_element_tuple_scan(seed):
    # about a quarter of these maps are not monotone and break associativity;
    # the checked g is monotone, so its report is decided without a scan
    rng = random.Random(seed)
    P, Y, Z = (random_poset(rng, rng.randint(lo, 6)) for lo in (3, 3, 2))

    def table(X, T):
        return {x: rng.sample(T.elements, rng.randint(1, min(3, len(T)))) for x in X.elements}

    h = FinMap(P, Y, table(P, Y), check=False)
    g = FinMap(Y, Z, table(Y, Z), check=False)
    g_checked = FinMap(Y, Z, random_finmap(rng, Y, Z))
    for args in ((h, g), (h, g_checked), (h, eta_map(Y)), (eta_map(P), eta_map(P))):
        rep = check_monad_laws(P, *args)
        flags, witness = reference_monad_laws(P, *args)
        assert (rep.unit_identity, rep.extension_identity, rep.associativity) == flags
        assert rep.witness == witness


def test_monotone_outer_map_decides_the_laws_without_extending(monkeypatch):
    # 4,095 antichains on the 12-element antichain; a monotone g satisfies
    # every law, so no antichain is extended
    P = Poset(range(12), [])
    rng = random.Random(12)
    h = FinMap(P, DIAMOND, random_finmap(rng, P, DIAMOND))
    g = FinMap(DIAMOND, CHAIN3, random_finmap(rng, DIAMOND, CHAIN3))
    calls = []
    extend = smyth._extend

    def counted(*args):
        calls.append(args)
        return extend(*args)

    monkeypatch.setattr(smyth, "_extend", counted)
    assert check_monad_laws(P, h=h, g=g) == smyth.MonadLawsReport(True, True, True)
    assert calls == []


def test_mask_checks_make_no_index_calls_per_antichain(monkeypatch):
    # a chain and an antichain of 7 elements: 7 against 127 antichains
    from ordbench import QuasiDeflation, qd_self_compose

    calls = []
    index = Poset.index

    def counted(self, x):
        calls.append(x)
        return index(self, x)

    counts = []
    for P in (Poset(range(7), [(i, i + 1) for i in range(6)]), Poset(range(7), [])):
        h = FinMap(P, P, {x: (x,) for x in P.elements})
        phi = QuasiDeflation(P, h)
        r = MonotoneMap(P, P, lambda x: x)
        qs = canonical_quasi_section(r)
        monkeypatch.setattr(Poset, "index", counted)
        row = []
        for call, *args in ((check_monad_laws, P, h, h), (qd_self_compose, phi),
                            (check_quasi_retraction, r, qs)):
            calls.clear()
            call(*args)
            row.append(len(calls))
        monkeypatch.setattr(Poset, "index", index)
        counts.append(row)
    # the retraction check reads the point map's target indices, not its values
    assert counts == [[0, 0, 0], [0, 0, 0]]


# -- refusals -------------------------------------------------------------------

ANTICHAIN2 = Poset(["p", "q"], [])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: mu(DIAMOND, [("a",), ("top",)]), PosetError,
         "mu expects pairwise incomparable antichains; ('a',) and ('top',) are comparable"),
        (lambda: check_monad_laws(DIAMOND, h=eta_map(CHAIN3)), PosetError, "h must have source P"),
        (lambda: check_monad_laws(DIAMOND, g=eta_map(CHAIN3)), PosetError,
         "g must have source equal to h's target poset"),
        (lambda: check_quasi_retraction(MonotoneMap(DIAMOND, DIAMOND, lambda x: x),
                                        eta_map(ANTICHAIN2)),
         PosetError, "qs must map the target of r into antichains of its source"),
        (lambda: koenig_chain(DIAMOND, [], "top"), StagePreconditionError,
         "at least one stage is required"),
    ],
)
def test_refusals_keep_their_messages(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
    if error is StagePreconditionError:
        assert err.value.index == 0


# -- quasi-retraction ----------------------------------------------------------


def test_identity_with_unit_section_satisfies_both_laws():
    ident = MonotoneMap(DIAMOND, DIAMOND, lambda x: x)
    rep = check_quasi_retraction(ident, eta_map(DIAMOND))
    assert rep.ok
    assert rep.retraction_law and rep.projection_law
    assert rep.canonical


def test_lopsided_section_fails_projection_law():
    """A section reaching top only through one branch strands the other branch."""
    Pi, r = path_space(DIAMOND)
    apath = ("bot", "a", "top")
    qs = FinMap(
        DIAMOND,
        Pi,
        {
            "bot": (("bot",),),
            "a": (("bot", "a"),),
            "b": (("bot", "b"), apath),
            "top": (apath,),
        },
    )
    rep = check_quasi_retraction(r, qs)
    assert rep.retraction_law
    assert not rep.projection_law
    assert "('bot', 'b', 'top')" in rep.witness
    assert rep.canonical is False


def test_section_failing_both_laws_reports_the_retraction_witness():
    """Swapping the two points breaks retraction at u and projection at p;
    the witness is the retraction failure."""
    X = Poset(("p", "q"), [])
    Y = Poset(("u", "v"), [])
    r = MonotoneMap(X, Y, {"p": "u", "q": "v"})
    qs = FinMap(Y, X, {"u": ("q",), "v": ("p",)})
    rep = check_quasi_retraction(r, qs)
    assert (rep.retraction_law, rep.projection_law, rep.canonical) == (False, False, False)
    assert rep.witness == "retraction law fails at 'u': image antichain ('v',) is not {'u'}"


def test_canonical_section_of_path_space():
    Pi, r = path_space(DIAMOND)
    qs = canonical_quasi_section(r)
    assert set(qs("top")) == {("bot", "a", "top"), ("bot", "b", "top")}
    assert check_quasi_retraction(r, qs).ok


def test_canonical_section_of_identity_is_unit():
    ident = MonotoneMap(CHAIN3, CHAIN3, lambda x: x)
    qs = canonical_quasi_section(ident)
    assert all(qs(y) == eta(CHAIN3, y) for y in CHAIN3.elements)


def test_canonical_section_of_collapse_picks_least_preimage():
    point = Poset(["pt"], [])
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    collapse = MonotoneMap(chain, point, {"z0": "pt", "z1": "pt"})
    assert canonical_quasi_section(collapse)("pt") == ("z0",)


def test_canonical_section_requires_surjectivity():
    chain = parse_poset("elements: z0 z1\norder: z0 < z1")
    inj = MonotoneMap(chain, DIAMOND, {"z0": "bot", "z1": "top"})
    with pytest.raises(PosetError, match="surjective"):
        canonical_quasi_section(inj)


def test_retraction_composed_with_section_extension_is_identity():
    Pi, r = path_space(DIAMOND)
    qs = canonical_quasi_section(r)
    lifted = smyth_map(r)
    ext = dagger(qs)
    for E in fin_poset(DIAMOND).elements:
        assert lifted(ext(E)) == E


# -- chain extraction ------------------------------------------------------------


def test_chain_extraction_on_diamond():
    stages = [("bot",), ("a", "b"), ("top",)]
    assert koenig_chain(DIAMOND, stages, "top") == ["bot", "a", "top"]


def test_chain_extraction_single_stage():
    assert koenig_chain(DIAMOND, [("bot",)], "bot") == ["bot"]


def test_chain_extraction_rejects_broken_nesting():
    with pytest.raises(StagePreconditionError) as exc:
        koenig_chain(DIAMOND, [("a",), ("b",)], "top")
    assert exc.value.index == 1


def test_chain_extraction_rejects_bad_membership():
    with pytest.raises(StagePreconditionError) as exc:
        koenig_chain(DIAMOND, [("a",)], "b")
    assert exc.value.index == 0
    assert str(exc.value) == "stage 0: 'b' is not in the upward closure of ('a',)"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_chain_extraction_satisfies_postcondition(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 6))
    y = rng.choice(P.elements)
    below = [x for x in P.elements if P.leq(x, y)]
    # build stages from the top down so each earlier stage is coarser
    depth = rng.randint(1, 6)
    stages = [None] * depth
    current = (y,)
    for i in range(depth - 1, -1, -1):
        stages[i] = current
        coarser = list(current) + rng.sample(below, rng.randint(0, len(below)))
        current = P.antichain_normalize(
            [rng.choice([z for z in below if P.leq(z, w)]) for w in coarser]
        )
    chain = koenig_chain(P, stages, y)
    assert chain == reference_koenig(P, stages, y)
    assert len(chain) == depth
    assert P.leq(chain[-1], y)
    for i in range(depth):
        assert chain[i] in P.antichain_normalize(stages[i])
        if i:
            assert P.leq(chain[i - 1], chain[i])


def _late_dead_ends(d):
    """Stages {q_i, r_i, p_i} for i < d, then {p_d}, all below y: q_i and r_i
    sit below q_{i+1} and r_{i+1}, p_i below all of stage i + 1. Every q/r
    branch dies at the last stage, and there are 2^d of them."""
    els = [f"{x}{i}" for i in range(d) for x in "qrp"] + [f"p{d}", "y"]
    rel = [(f"p{d}", "y")]
    for i in range(d):
        qr = "qr" if i + 1 < d else ""
        rel += [(f"{x}{i}", f"{z}{i + 1}") for x in "qr" for z in qr]
        rel += [(f"p{i}", f"{z}{i + 1}") for z in qr + "p"]
        rel += [(f"{x}{i}", "y") for x in "qr"]
    stages = [[f"{x}{i}" for x in "qrp"] for i in range(d)] + [[f"p{d}"]]
    return Poset(els, rel), stages


def test_chain_extraction_skips_known_dead_picks():
    P, stages = _late_dead_ends(8)
    want = [f"p{i}" for i in range(9)]
    assert koenig_chain(P, stages, "y") == want == reference_koenig(P, stages, "y")
    P, stages = _late_dead_ends(60)
    start = time.perf_counter()
    chain = koenig_chain(P, stages, "y")
    assert time.perf_counter() - start < 0.1
    assert chain == [f"p{i}" for i in range(61)]


def test_chain_extraction_through_runs_of_equal_stages():
    # every q/r pick dies at the last stage, whatever the runs before it
    rng = random.Random(26)
    for d in range(1, 7):
        P, stages = _late_dead_ends(d)
        for _ in range(6):
            spelled = repeated_stages(rng, stages, most=4)
            want = [next(x for x in P.elements if x in S and x[0] == "p") for S in spelled]
            assert koenig_chain(P, spelled, "y") == want == reference_koenig(P, spelled, "y")


def test_chain_extraction_through_one_stage_repeated_800_times():
    P = Poset(["bot", "s0", "s1", "s2", "y"],
              [("bot", "s0"), ("bot", "s1"), ("bot", "s2"), ("s1", "y"), ("s2", "y")])
    E = ("s0", "s1", "s2")
    chain = koenig_chain(P, [E] * 800, "y")
    assert chain == ["s1"] * 800 == reference_koenig(P, [E] * 800, "y")


def test_the_reference_chain_search_answers_1200_stages():
    # past the default recursion limit: the least element of E below y, repeated
    P = Poset(["bot", "s0", "s1", "s2", "y"],
              [("bot", "s0"), ("bot", "s1"), ("bot", "s2"), ("s1", "y"), ("s2", "y")])
    E = ("s0", "s1", "s2")
    assert reference_koenig(P, [E] * 1200, "y") == ["s1"] * 1200


@pytest.mark.parametrize("stages, message", [
    ([("a",), ()], "cannot normalize an empty set to an antichain"),
    ([("a",), ("a",), ("zz",)], "unknown element: 'zz'"),
    ([("top",), ("a",), ["a", "zz"]], "unknown element: 'zz'"),
    ([("a",), ["zz", ["a"]]], "unknown element: 'zz'"),  # before the unhashable member
])
def test_stage_errors_come_before_membership_and_nesting(stages, message):
    # 'b' is above no stage-0 member, and some stages do not nest, but a bad stage comes first
    with pytest.raises(PosetError) as err:
        koenig_chain(DIAMOND, stages, "b")
    assert type(err.value) is PosetError and str(err.value) == message


# -- text formats -----------------------------------------------------------------


def test_antichain_format_round_trip():
    E = ("a", "b")
    assert parse_antichain(DIAMOND, format_antichain(E, DIAMOND)) == E
    assert parse_antichain(DIAMOND, "b, a") == E
    assert parse_antichain(DIAMOND, "{ top, a }") == ("a",)
    with pytest.raises(PosetError):
        parse_antichain(DIAMOND, "")


def test_finmap_format_round_trip():
    h = FinMap(
        DIAMOND,
        DIAMOND,
        {"bot": ("bot",), "a": ("top",), "b": ("top",), "top": ("top",)},
    )
    assert parse_finmap(DIAMOND, DIAMOND, format_finmap(h)) == h


def test_finmap_parse_errors():
    with pytest.raises(PosetError, match="repeated"):
        parse_finmap(DIAMOND, DIAMOND, "a -> {a}\na -> {top}")
    with pytest.raises(PosetError):
        parse_finmap(DIAMOND, DIAMOND, "a -> {zed}")
