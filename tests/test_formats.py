"""Round trips through the shared line reader, one per line-oriented format.

Element names are drawn from an alphabet with ``:``, ``.``, ``_`` and
digits, so a name may look like part of a ``name:fraction`` entry; the
truncations of the lazy posets add their codes (``n:0:1``, ``omega0``,
``bot``). The poset format also meets names with whitespace, ``<``, ``;``
and ``#``, and two elements with one name; the map, finmap, antichain,
quasi-deflation and admissible formats meet empty names, names with outer
whitespace or a line break or holding ``#`` or ``->``, and for antichains
``,``, ``{`` or ``}``; the quasi-deflation format also meets names that
begin with ``control:``. The valuation format meets empty names and names
holding whitespace, and writes names holding ``#``, ``->`` and ``:``. Each
must refuse to write a name it cannot read back, and so must the map,
finmap, quasi-deflation, admissible and valuation writers on an element
that is no string and whose written name names no element, or another one.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordbench import (
    ControlledQuasiDeflation,
    FinMap,
    MonotoneMap,
    Poset,
    PosetError,
    QuasiDeflation,
    Valuation,
    dirac,
    eta_map,
    format_admissible,
    format_antichain,
    format_finmap,
    format_map,
    format_poset,
    format_quasi_deflation,
    format_valuation,
    parse_admissible,
    parse_antichain,
    parse_finmap,
    parse_map,
    parse_poset,
    parse_quasi_deflation,
    parse_valuation,
    path_space,
    valuation_to_admissible,
)
from ordbench import lazy
from ordbench.cli import _relabel

SAFE = "abxyz019_.:"
NAMES = st.lists(
    st.text(alphabet=SAFE, min_size=1, max_size=4),
    min_size=1,
    max_size=6,
    unique=True,
)
UNWRITABLE = " \t<;#"  # characters the poset format cannot carry in a name
# names the poset format must refuse: empty, or holding an unwritable character
BAD_POSET_NAME = st.just("") | st.builds(
    lambda a, c, b: a + c + b,
    st.text(alphabet=SAFE + UNWRITABLE, max_size=2),
    st.sampled_from(UNWRITABLE),
    st.text(alphabet=SAFE + UNWRITABLE, max_size=2),
)
# names no line format can read back: empty, with outer whitespace or a line
# break, or holding "#" or "->"
BAD_LINE_NAME = (
    st.just("")
    | st.builds(
        lambda a, c, b: a + c + b,
        st.text(alphabet=SAFE, max_size=2),
        st.sampled_from(["#", "->", "\n", "\r", "\u2028"]),
        st.text(alphabet=SAFE, max_size=2),
    )
    | st.builds(
        lambda ws, a, left: ws + a if left else a + ws,
        st.sampled_from(" \t"),
        st.text(alphabet=SAFE, min_size=1, max_size=3),
        st.booleans(),
    )
)
# names an antichain cannot carry, though a map line can
BAD_ANTICHAIN_NAME = st.builds(
    lambda a, c, b: a + c + b,
    st.text(alphabet=SAFE, max_size=2),
    st.sampled_from(",{}"),
    st.text(alphabet=SAFE, max_size=2),
)
# names the valuation format must refuse: it splits its entries at whitespace
BAD_VALUATION_NAME = st.just("") | st.builds(
    lambda a, c, b: a + c + b,
    st.text(alphabet=SAFE + "#->", max_size=2),
    st.sampled_from([" ", "\t", "\n", "\u2028"]),
    st.text(alphabet=SAFE + "#->", max_size=2),
)
# names a valuation entry carries, though no line format can
SEPARATOR_NAME = st.builds(
    lambda a, seps, b: a + "".join(seps) + b,
    st.text(alphabet=SAFE, max_size=2),
    st.permutations(["#", "->", ":"]),
    st.text(alphabet=SAFE, max_size=2),
)
# names the quasi-deflation format must refuse: they read back as control lines
CONTROL_NAME = st.text(alphabet=SAFE, max_size=3).map("control:".__add__)


@st.composite
def posets(draw, tree: bool = False):
    """A random poset on random names; with ``tree``, a rooted tree."""
    names = draw(NAMES)
    n = len(names)
    if tree:
        parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
        relations = [(names[p], names[i]) for i, p in enumerate(parents, start=1)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        relations = [(names[i], names[j]) for (i, j), k in zip(pairs, keep) if k]
    return Poset(names, relations)


@st.composite
def threshold_maps(draw, P: Poset) -> dict:
    """A monotone endomap of P: x goes to b on an upper set U, else to a <= b."""
    pairs = [(a, b) for a in P.elements for b in P.elements if P.leq(a, b)]
    a, b = draw(st.sampled_from(pairs))
    U = P.up_closure(draw(st.sets(st.sampled_from(P.elements))))
    return {x: b if x in U else a for x in P.elements}


@st.composite
def valuations(draw, P: Poset) -> Valuation:
    raw = draw(st.lists(st.integers(0, 5), min_size=len(P), max_size=len(P)))
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return Valuation(P, [Fraction(w, total) for w in raw])


@st.composite
def with_name(draw, P: Poset, name) -> Poset:
    """P with one more element, drawn from ``name``, at a random position,
    below a random upper set of P."""
    extra = draw(name)
    at = draw(st.integers(0, len(P)))
    above = P.up_closure(draw(st.sets(st.sampled_from(P.elements))))
    elements = P.elements[:at] + (extra,) + P.elements[at:]
    return Poset(elements, [*P.covers(), *((extra, y) for y in above)])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_poset_and_map_round_trip(data):
    P = data.draw(posets())
    assert parse_poset(format_poset(P)) == P
    f = MonotoneMap(P, P, data.draw(threshold_maps(P)))
    assert parse_map(P, P, format_map(f)) == f


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_finmap_and_quasi_deflation_round_trip(data):
    P = data.draw(posets())
    f = data.draw(threshold_maps(P))
    g = data.draw(threshold_maps(P))
    # the union of monotone point maps with the identity is a quasi-deflation
    phi = QuasiDeflation(P, {x: {x, f[x]} for x in P.elements})
    h = parse_finmap(P, P, format_finmap(phi))
    assert h.values == phi.values
    assert parse_quasi_deflation(P, format_quasi_deflation(phi)) == phi
    control = MonotoneMap(P, P, g)
    both = ControlledQuasiDeflation(control, phi)
    back = parse_quasi_deflation(P, format_quasi_deflation(both))
    assert back.control == control and back.deflation == phi


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_poset_format_refuses_names_it_cannot_read_back(data):
    P = data.draw(with_name(data.draw(posets()), BAD_POSET_NAME))
    bad = next(e for e in P.elements if not e or set(e) & set(UNWRITABLE))
    with pytest.raises(PosetError) as err:
        format_poset(P)
    assert str(err.value) == f"the poset format cannot write the element name {bad!r}"


class Alias:
    """An element that is not equal to ``name`` but prints as it."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return self.name


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_poset_format_refuses_two_elements_with_one_name(data):
    P = data.draw(posets())
    name = data.draw(st.sampled_from(P.elements))
    P = data.draw(with_name(P, st.just(Alias(name))))
    with pytest.raises(PosetError) as err:
        format_poset(P)
    assert str(err.value) == f"the poset format cannot write two elements named {name!r}"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_line_formats_refuse_names_they_cannot_read_back(data):
    bad = data.draw(BAD_LINE_NAME)
    P = data.draw(with_name(data.draw(posets()), st.just(bad)))
    f = data.draw(threshold_maps(P))
    phi = QuasiDeflation(P, {x: {x, f[x]} for x in P.elements})
    both = ControlledQuasiDeflation(MonotoneMap(P, P, data.draw(threshold_maps(P))), phi)
    T = data.draw(posets(tree=True))
    T = Poset((*T.elements, bad), [*T.covers(), (data.draw(st.sampled_from(T.elements)), bad)])
    for fmt, write, obj in (
        ("map", format_map, MonotoneMap(P, P, f)),
        ("finmap", format_finmap, phi),
        ("quasi-deflation", format_quasi_deflation, phi),
        ("quasi-deflation", format_quasi_deflation, both),
        ("antichain", lambda E: format_antichain(E, P), (bad,)),
        ("admissible", format_admissible, valuation_to_admissible(data.draw(valuations(T)))),
    ):
        with pytest.raises(PosetError) as err:
            write(obj)
        assert str(err.value) == f"the {fmt} format cannot write the name {bad!r}"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_antichain_values_refuse_separators_in_names(data):
    bad = data.draw(BAD_ANTICHAIN_NAME)
    P = data.draw(with_name(data.draw(posets()), st.just(bad)))
    unit = QuasiDeflation(P, eta_map(P))  # every element is in its own value
    for write, obj in (
        (lambda E: format_antichain(E, P), (bad,)),
        (format_finmap, unit),
        (format_quasi_deflation, unit),
    ):
        with pytest.raises(PosetError) as err:
            write(obj)
        assert str(err.value) == f"the antichain format cannot write the name {bad!r}"
    # a map line carries the same name
    identity = MonotoneMap(P, P, {x: x for x in P.elements})
    assert parse_map(P, P, format_map(identity)) == identity


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_quasi_deflation_format_refuses_control_names(data):
    P = data.draw(with_name(data.draw(posets()), CONTROL_NAME))
    bad = next(e for e in P.elements if e.startswith("control:"))
    f = data.draw(threshold_maps(P))
    phi = QuasiDeflation(P, {x: {x, f[x]} for x in P.elements})
    both = ControlledQuasiDeflation(MonotoneMap(P, P, data.draw(threshold_maps(P))), phi)
    for obj in (phi, both):
        with pytest.raises(PosetError) as err:
            format_quasi_deflation(obj)
        assert str(err.value) == f"the quasi-deflation format cannot write the name {bad!r}"


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_valuation_and_admissible_round_trip(data):
    P = data.draw(posets())
    nu = data.draw(valuations(P))
    assert parse_valuation(P, format_valuation(nu)).weights == nu.weights
    T = data.draw(posets(tree=True))
    f = valuation_to_admissible(data.draw(valuations(T)))
    assert parse_admissible(T, format_admissible(f)).values == f.values


DIAMOND = parse_poset("elements: bot a b top\norder: bot < a; bot < b; a < top; b < top\n")


def writers(P: Poset, x) -> list:
    """Each writer that looks names up in P, with an object on P for it to
    write, as ``(format, writer, object)``; the valuation is the unit mass
    at ``x``."""
    unit = QuasiDeflation(P, eta_map(P))
    return [
        ("map", format_map, MonotoneMap(P, P, {e: e for e in P.elements})),
        ("finmap", format_finmap, eta_map(P)),
        ("quasi-deflation", format_quasi_deflation, unit),
        ("admissible", format_admissible, valuation_to_admissible(dirac(P, P.bottom()))),
        ("valuation", format_valuation, dirac(P, x)),
    ]


def test_writers_refuse_elements_whose_names_read_back_as_no_element():
    Pi, r = path_space(DIAMOND)
    with pytest.raises(PosetError) as err:
        format_map(r)
    assert str(err.value) == "the map format cannot write the name \"('bot',)\""
    chain = Poset([1, 2], [(1, 2)])
    for P, bad in ((Pi, "('bot',)"), (chain, "1")):
        for fmt, write, obj in writers(P, P.elements[0]):
            with pytest.raises(PosetError) as err:
                write(obj)
            assert str(err.value) == f"the {fmt} format cannot write the name {bad!r}"
    # a value is looked up in the target: a string-named source does not help
    one = Poset(["a"])
    for write, obj in (
        (format_map, MonotoneMap(one, chain, {"a": 2})),
        (format_finmap, FinMap(one, chain, {"a": [2]})),
    ):
        with pytest.raises(PosetError, match="cannot write the name '2'"):
            write(obj)
    # a value's name is still checked as an antichain member first
    with pytest.raises(PosetError) as err:
        format_finmap(FinMap(one, Poset(["x#"]), {"a": ["x#"]}))
    assert str(err.value) == "the antichain format cannot write the name 'x#'"
    # the name "1" is the string's, so the integer 1 cannot be written as it
    mixed = Poset(["1", 1], [])
    assert parse_valuation(mixed, format_valuation(dirac(mixed, "1"))) == dirac(mixed, "1")
    with pytest.raises(PosetError) as err:
        format_valuation(dirac(mixed, 1))
    assert str(err.value) == "the valuation format cannot write the name '1'"


def test_antichains_are_written_only_in_names_that_read_back():
    """The reader looks each name up in the poset, so a member must be
    written in a name that names it there: members that are not strings are
    refused."""
    ints = Poset([1, 2], [])
    with pytest.raises(PosetError) as err:
        format_antichain((1, 2), ints)
    assert str(err.value) == "the antichain format cannot write the name '1'"
    named = Poset(["1", "2"], [])
    assert format_antichain(("1", "2"), named) == "{1, 2}"
    assert parse_antichain(named, format_antichain(("1", "2"), named)) == ("1", "2")
    mixed = Poset(["1", 1], [])
    assert parse_antichain(mixed, format_antichain(("1",), mixed)) == ("1",)
    with pytest.raises(PosetError) as err:
        format_antichain((1,), mixed)
    assert str(err.value) == "the antichain format cannot write the name '1'"
    with pytest.raises(PosetError) as err:
        format_antichain(("zz",), named)
    assert str(err.value) == "unknown element: 'zz'"


def test_writers_read_back_on_string_named_posets():
    Pi, _ = path_space(DIAMOND)
    # the path space renamed, and a chain that names its elements "1" and "2"
    for P in (_relabel(Pi, "/".join), Poset(["1", "2"], [("1", "2")])):
        f, h, phi, g, nu = (obj for _, _, obj in writers(P, P.elements[-1]))
        assert parse_map(P, P, format_map(f)) == f
        assert parse_finmap(P, P, format_finmap(h)) == h
        assert parse_quasi_deflation(P, format_quasi_deflation(phi)) == phi
        assert parse_admissible(P, format_admissible(g)).values == g.values
        assert parse_valuation(P, format_valuation(nu)) == nu


def with_mass(data, name) -> tuple:
    """A drawn poset with one more element drawn from ``name``, and a drawn
    valuation on it with mass 1/2 on that element: ``(element, valuation)``."""
    Q = data.draw(posets())
    extra = data.draw(name)
    nu = data.draw(valuations(Q))
    P = data.draw(with_name(Q, st.just(extra)))
    half = {x: w / 2 for x, w in zip(Q.elements, nu.weights)}
    return extra, Valuation(P, {extra: Fraction(1, 2), **half})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_valuation_format_refuses_names_it_cannot_read_back(data):
    bad, nu = with_mass(data, BAD_VALUATION_NAME)
    with pytest.raises(PosetError) as err:
        format_valuation(nu)
    assert str(err.value) == f"the valuation format cannot write the name {bad!r}"
    # str and repr write any name
    assert f"{bad}:1/2" in str(nu) and repr(nu) == f"Valuation({str(nu)!r})"
    # an element without mass is not written, so its name is not refused
    P = nu.poset
    light = Valuation(P, {x: 2 * w for x, w in zip(P.elements, nu.weights) if x != bad})
    assert parse_valuation(P, format_valuation(light)) == light


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_valuation_format_writes_names_with_separators(data):
    # entries split at whitespace only, so "#", "->" and ":" are read back
    _, nu = with_mass(data, SEPARATOR_NAME)
    assert parse_valuation(nu.poset, format_valuation(nu)) == nu


@pytest.mark.parametrize("kind", lazy.KINDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_lazy_truncations_round_trip(kind, k):
    # lazy codes such as n:0:1, omega0 and bot hold colons and digits
    P = lazy.truncate(lazy.LazyPoset(kind), k).poset
    assert parse_poset(format_poset(P)) == P
    n = len(P)
    nu = Valuation(P, {x: Fraction(i + 1, n * (n + 1) // 2) for i, x in enumerate(P.elements)})
    assert parse_valuation(P, format_valuation(nu)).weights == nu.weights
    unit = QuasiDeflation(P, eta_map(P))
    assert parse_quasi_deflation(P, format_quasi_deflation(unit)) == unit
