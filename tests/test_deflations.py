import random

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    ControlledQuasiDeflation,
    FinMap,
    MonotoneMap,
    Poset,
    PosetError,
    QuasiDeflation,
    QuasiDeflationReport,
    StagePreconditionError,
    canonical_quasi_section,
    check_controlled,
    check_quasi_deflation,
    check_quasi_retraction,
    enumerate_posets,
    eta_map,
    format_quasi_deflation,
    koenig_chain,
    parse_poset,
    parse_quasi_deflation,
    product_qd,
    qd_self_compose,
    qfs_separator,
    separating_set_from_controlled,
)

from oracles import (
    random_monotone_map,
    random_pointed_poset,
    random_poset,
    reference_canonical_section,
    reference_finmap_error,
    reference_koenig,
    reference_normalize,
    reference_product_qd,
    reference_quasi_deflation,
    reference_quasi_retraction,
    reference_self_compose,
    repeated_stages,
)

DIAMOND = parse_poset("elements: bot a b top\norder: bot < a; bot < b; a < top; b < top")
CHAIN2 = parse_poset("elements: c0 c1\norder: c0 < c1")


def const_bottom(P):
    return QuasiDeflation(P, {x: (P.bottom(),) for x in P.elements})


# -- validity checking -------------------------------------------------------


def test_monotonicity_violations_are_every_failing_pair():
    """Every pair x < y whose antichains fail to refine, x then y in element
    order, on every poset with at most 4 elements in kept and reversed
    element order."""
    rng = random.Random(9)
    for n in range(1, 5):
        for P in enumerate_posets(n):
            for Q in (P, Poset(P.elements[::-1], P.covers())):
                table = {x: rng.sample(Q.elements, rng.randint(1, len(Q))) for x in Q.elements}
                want = tuple(
                    (x, y)
                    for x in Q.elements
                    for y in Q.elements
                    if x != y and Q.leq(x, y) and not Q.smyth_leq(table[x], table[y])
                )
                assert check_quasi_deflation(Q, table).monotonicity_violations == want


def test_unit_table_is_valid():
    rep = check_quasi_deflation(DIAMOND, {x: (x,) for x in DIAMOND.elements})
    assert rep.valid
    assert rep.membership_violations == ()
    assert rep.monotonicity_violations == ()


def test_constant_bottom_table_is_valid():
    rep = check_quasi_deflation(
        DIAMOND, {x: ("bot",) for x in DIAMOND.elements}
    )
    assert rep.valid


def test_membership_violation_is_reported():
    table = {"bot": ("bot",), "a": ("top",), "b": ("b",), "top": ("top",)}
    rep = check_quasi_deflation(DIAMOND, table)
    assert not rep.valid
    assert "a" in rep.membership_violations


def test_monotonicity_violation_is_reported():
    table = {"bot": ("bot",), "a": ("a",), "b": ("b",), "top": ("a", "b")}
    rep = check_quasi_deflation(DIAMOND, table)
    assert not rep.valid
    assert rep.monotonicity_violations


def test_constructor_rejects_what_the_checker_flags():
    with pytest.raises(PosetError):
        QuasiDeflation(
            DIAMOND, {"bot": ("bot",), "a": ("top",), "b": ("b",), "top": ("top",)}
        )


# -- self-composition ----------------------------------------------------------


def test_self_compose_fixes_unit():
    e = QuasiDeflation(DIAMOND, eta_map(DIAMOND))
    assert qd_self_compose(e).values == e.values


def test_self_compose_fixes_constant_bottom():
    phi = const_bottom(DIAMOND)
    assert qd_self_compose(phi).values == phi.values


def test_self_compose_spreads_through_images():
    phi = QuasiDeflation(
        DIAMOND,
        {"bot": ("bot",), "a": ("a",), "b": ("b",), "top": ("a", "b")},
        check=False,
    )
    assert qd_self_compose(phi)("top") == ("a", "b")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_self_compose_preserves_validity(seed):
    rng = random.Random(seed)
    P = random_poset(rng, rng.randint(1, 5))
    # grow a valid table downward from the unit
    table = {}
    for x in P.elements:
        below = [z for z in P.elements if P.leq(z, x)]
        table[x] = P.antichain_normalize(rng.sample(below, 1))
    if not check_quasi_deflation(P, table).valid:
        table = {x: (x,) for x in P.elements}
    phi = QuasiDeflation(P, table, check=False)
    if check_quasi_deflation(P, phi.as_dict()).valid:
        again = qd_self_compose(phi)
        assert check_quasi_deflation(P, again.as_dict()).valid


# -- products --------------------------------------------------------------------


def test_product_of_units_is_unit():
    unit = QuasiDeflation(CHAIN2, eta_map(CHAIN2))
    chi = product_qd(unit, unit)
    prod = CHAIN2.product(CHAIN2)
    assert chi.values == QuasiDeflation(prod, eta_map(prod)).values


def test_product_of_constant_bottoms():
    chi = product_qd(const_bottom(CHAIN2), const_bottom(CHAIN2))
    for x in chi.source.elements:
        assert chi(x) == (("c0", "c0"),)


def test_product_is_a_valid_deflation():
    phi = QuasiDeflation(DIAMOND, {"bot": ("bot",), "a": ("bot",), "b": ("b",), "top": ("b",)})
    chi = product_qd(phi, QuasiDeflation(CHAIN2, eta_map(CHAIN2)))
    rep = check_quasi_deflation(chi.source, chi.as_dict())
    assert rep.valid
    assert chi(("a", "c1")) == (("bot", "c1"),)


def test_unit_products_recover_principal_filters():
    """Intersecting the product-unit images over all points gives back each up-set."""
    prod = DIAMOND.product(CHAIN2)
    chi = product_qd(
        QuasiDeflation(DIAMOND, eta_map(DIAMOND)), QuasiDeflation(CHAIN2, eta_map(CHAIN2))
    )
    for p in prod.elements:
        assert prod.up_closure(chi(p)) == prod.up_closure([p])


# -- separation -------------------------------------------------------------------


def test_separator_returns_unit_for_one_pair():
    psi = qfs_separator(DIAMOND, [(("bot",), "a")])
    assert psi.values == QuasiDeflation(DIAMOND, eta_map(DIAMOND)).values


def test_separator_handles_several_pairs():
    psi = qfs_separator(DIAMOND, [(("a", "b"), "top"), (("bot",), "b")])
    for E, x in [(("a", "b"), "top"), (("bot",), "b")]:
        assert DIAMOND.smyth_leq(E, psi(x))
        assert x in DIAMOND.up_closure(psi(x))


def test_separator_rejects_pairs_outside_the_cone():
    with pytest.raises(PosetError):
        qfs_separator(DIAMOND, [(("top",), "a")])


def test_separator_rejects_an_unknown_point():
    with pytest.raises(PosetError) as err:
        qfs_separator(DIAMOND, [(("bot",), "zz")])
    assert str(err.value) == "unknown element: 'zz'"


def test_an_empty_value_is_refused_by_name():
    table = {"bot": ["bot"], "a": ["a"], "b": [], "top": ["top"]}
    for make in (lambda: FinMap(DIAMOND, DIAMOND, table), lambda: QuasiDeflation(DIAMOND, table)):
        with pytest.raises(PosetError) as err:
            make()
        assert str(err.value) == "antichain map has an empty value for 'b'"
    with pytest.raises(PosetError) as err:
        DIAMOND.antichain_normalize([])
    assert str(err.value) == "cannot normalize an empty set to an antichain"


def test_separator_search_mode_picks_first_fit():
    coarse = const_bottom(DIAMOND)
    fine = QuasiDeflation(DIAMOND, eta_map(DIAMOND))
    psi = qfs_separator(DIAMOND, [(("a",), "a")], candidates=[coarse, fine])
    assert psi.values == fine.values
    psi2 = qfs_separator(DIAMOND, [(("bot",), "a")], candidates=[coarse, fine])
    assert psi2.values == coarse.values


def test_separator_search_mode_exhausted():
    with pytest.raises(PosetError, match="separat"):
        qfs_separator(DIAMOND, [(("a",), "a")], candidates=[const_bottom(DIAMOND)])


# -- controlled deflations ----------------------------------------------------------


def ident(P):
    return MonotoneMap(P, P, lambda x: x)


def test_unit_controlled_by_identity():
    c = ControlledQuasiDeflation(ident(DIAMOND), QuasiDeflation(DIAMOND, eta_map(DIAMOND)))
    rep = check_controlled(c)
    assert rep.valid


def test_constant_bottom_controls_itself():
    f = MonotoneMap(DIAMOND, DIAMOND, {x: "bot" for x in DIAMOND.elements})
    c = ControlledQuasiDeflation(f, const_bottom(DIAMOND))
    assert check_controlled(c, require_deflating=True).valid


def test_containment_violation_reported():
    phi = QuasiDeflation(
        DIAMOND, {"bot": ("bot",), "a": ("a",), "b": ("b",), "top": ("a", "b")},
        check=False,
    )
    c = ControlledQuasiDeflation(ident(DIAMOND), phi)
    rep = check_controlled(c)
    assert not rep.valid
    assert "top" in rep.containment_violations


def test_deflating_flag_checks_f_below_identity():
    f = MonotoneMap(DIAMOND, DIAMOND, {"bot": "bot", "a": "a", "b": "b", "top": "top"})
    up = MonotoneMap(DIAMOND, DIAMOND, {"bot": "bot", "a": "top", "b": "b", "top": "top"})
    phi = QuasiDeflation(DIAMOND, eta_map(DIAMOND))
    ok = ControlledQuasiDeflation(f, phi)
    assert check_controlled(ok, require_deflating=True).valid
    bad = ControlledQuasiDeflation(up, QuasiDeflation(
        DIAMOND, {"bot": ("bot",), "a": ("top",), "b": ("b",), "top": ("top",)},
        check=False,
    ))
    rep = check_controlled(bad, require_deflating=True)
    assert "a" in rep.deflating_violations


def test_separating_set_of_unit_family():
    c = ControlledQuasiDeflation(ident(DIAMOND), QuasiDeflation(DIAMOND, eta_map(DIAMOND)))
    assert separating_set_from_controlled(c) == ("bot", "a", "b", "top")


def test_separating_set_of_constant_family():
    f = MonotoneMap(DIAMOND, DIAMOND, {x: "bot" for x in DIAMOND.elements})
    c = ControlledQuasiDeflation(f, const_bottom(DIAMOND))
    assert separating_set_from_controlled(c) == ("bot",)


def test_separating_set_interpolates():
    f = MonotoneMap(
        DIAMOND, DIAMOND, {"bot": "bot", "a": "a", "b": "bot", "top": "a"}
    )
    phi = QuasiDeflation(
        DIAMOND, {"bot": ("bot",), "a": ("a",), "b": ("bot",), "top": ("a",)}
    )
    M = separating_set_from_controlled(ControlledQuasiDeflation(f, phi))
    assert M == ("bot", "a")
    for x in DIAMOND.elements:
        assert any(
            DIAMOND.leq(f(x), m) and DIAMOND.leq(m, x) for m in M
        )


def test_separating_set_rejects_invalid_input():
    phi = QuasiDeflation(
        DIAMOND, {"bot": ("bot",), "a": ("a",), "b": ("b",), "top": ("a", "b")},
        check=False,
    )
    with pytest.raises(PosetError):
        separating_set_from_controlled(
            ControlledQuasiDeflation(ident(DIAMOND), phi)
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_separating_set_condition_holds_for_random_controlled_pairs(seed):
    rng = random.Random(seed)
    P = random_pointed_poset(rng, rng.randint(2, 6))
    bot = P.bottom()
    fx = {}
    for x in P.elements:
        below = [z for z in P.elements if P.leq(z, x)]
        fx[x] = rng.choice([bot] + below)
    # force monotonicity by collapsing to bottom where it fails; a collapse
    # can break a pair already checked, so repeat until none fails
    changed = True
    while changed:
        changed = False
        for x in P.elements:
            for y in P.elements:
                if P.leq(x, y) and not P.leq(fx[x], fx[y]):
                    fx[x] = bot
                    changed = True
    f = MonotoneMap(P, P, fx)
    phi = QuasiDeflation(P, {x: (fx[x],) for x in P.elements}, check=False)
    if not check_quasi_deflation(P, phi.as_dict()).valid:
        return
    c = ControlledQuasiDeflation(f, phi)
    M = separating_set_from_controlled(c)
    for x in P.elements:
        assert any(P.leq(f(x), m) and P.leq(m, x) for m in M)


# -- text format ---------------------------------------------------------------------


def test_deflation_file_round_trip():
    phi = QuasiDeflation(
        DIAMOND, {"bot": ("bot",), "a": ("a",), "b": ("b",), "top": ("a", "b")},
        check=False,
    )
    text = format_quasi_deflation(phi)
    back = parse_quasi_deflation(DIAMOND, text, check=False)
    assert back.values == phi.values


def test_controlled_file_round_trip():
    c = ControlledQuasiDeflation(ident(DIAMOND), QuasiDeflation(DIAMOND, eta_map(DIAMOND)))
    text = format_quasi_deflation(c)
    assert "control:" in text
    back = parse_quasi_deflation(DIAMOND, text)
    assert isinstance(back, ControlledQuasiDeflation)
    assert back.deflation.values == c.deflation.values
    assert back.control.values == c.control.values


def test_deflation_parse_errors():
    with pytest.raises(PosetError, match="repeated"):
        parse_quasi_deflation(DIAMOND, "a -> {a}\na -> {a}")
    with pytest.raises(PosetError):
        parse_quasi_deflation(DIAMOND, "a -> {zed}")


# -- the mask layer against element-tuple references ---------------------------------


def _message(call, *args):
    """The result of ``call``, or the message of the PosetError it raises."""
    try:
        return call(*args)
    except PosetError as err:
        return str(err)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_mask_layer_matches_the_element_tuple_references(seed):
    # unchecked random tables: about two thirds fail monotonicity or membership
    rng = random.Random(seed)
    P, Q, Y = (random_poset(rng, rng.randint(1, n)) for n in (7, 3, 4))

    def table(S, T):
        return {x: rng.sample(T.elements, rng.randint(1, min(3, len(T)))) for x in S.elements}

    tab, small = table(P, P), table(Q, Q)
    assert check_quasi_deflation(P, tab) == QuasiDeflationReport(*reference_quasi_deflation(P, tab))
    phi, psi = QuasiDeflation(P, tab, check=False), QuasiDeflation(Q, small, check=False)
    assert phi.values == tuple(reference_normalize(P, tab[x]) for x in P.elements)
    error = reference_finmap_error(P, P, phi.as_dict(), deflation=True)
    assert _message(QuasiDeflation, P, tab) == (error or phi)
    assert qd_self_compose(phi).values == reference_self_compose(P, phi.as_dict())
    want = reference_product_qd(P, Q, phi.as_dict(), psi.as_dict())
    assert _message(lambda: product_qd(phi, psi).values) == want

    r = MonotoneMap(P, Y, random_monotone_map(rng, P, Y))
    qs = FinMap(Y, P, table(Y, P), check=False)
    section = _message(lambda: canonical_quasi_section(r).values)
    assert section == reference_canonical_section(r)
    for s in [qs] + ([] if isinstance(section, str) else [canonical_quasi_section(r)]):
        rep = check_quasi_retraction(r, s)
        got = (rep.retraction_law, rep.projection_law, rep.canonical, rep.witness)
        assert got == reference_quasi_retraction(r, s.as_dict())

    y = rng.choice(P.elements)
    stages = [rng.sample(P.elements, rng.randint(1, len(P))) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.5:  # nest them, so that the search runs too
        stages = [[z for z in P.elements if P.leq(z, y) and rng.random() < 0.5] or [y]]
        for _ in range(rng.randint(0, 4)):
            above = [w for w in P.elements if P.leq(w, y) and P.smyth_leq(stages[-1], [w])]
            stages.append([w for w in above if rng.random() < 0.5] or [y])
    if rng.random() < 0.5:
        stages = repeated_stages(rng, stages)
    try:
        got = koenig_chain(P, stages, y)
    except StagePreconditionError as err:
        got = (str(err), err.index)
    assert got == reference_koenig(P, stages, y)


# -- refusals -------------------------------------------------------------------


def _controlled(control, table):
    return ControlledQuasiDeflation(control, QuasiDeflation(CHAIN2, table, check=False))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_controlled(_controlled(
            MonotoneMap(CHAIN2, DIAMOND, {"c0": "bot", "c1": "top"}),
            {"c0": ("c0",), "c1": ("c1",)})),
         "control must be an endomap of the deflation's poset"),
        (lambda: separating_set_from_controlled(_controlled(
            MonotoneMap(CHAIN2, CHAIN2, lambda x: x), {"c0": ("c1",), "c1": ("c1",)})),
         "separation postcondition failed at 'c0'; input pair is inconsistent"),
    ],
)
def test_refusals_keep_their_messages(call, message):
    with pytest.raises(PosetError) as err:
        call()
    assert type(err.value) is PosetError and str(err.value) == message
