import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from ordbench import cli, lazy as lz, posets, smyth
from ordbench.cli import main
from ordbench.valuations import format_valuation, grid

from oracles import (
    SPELLINGS, random_monotone_map, random_pointed_poset, random_poset, reference_koenig,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

DIAMOND = "elements: bot a b top\norder: bot < a; bot < b; a < top; b < top\n"
CHAIN = "elements: z0 z1\norder: z0 < z1\n"


@pytest.fixture
def diamond_file(tmp_path):
    p = tmp_path / "diamond.poset"
    p.write_text(DIAMOND)
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain.poset"
    p.write_text(CHAIN)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- posets -----------------------------------------------------------------


def test_check_poset_summary(capsys, diamond_file):
    code, out, err = run(capsys, "check-poset", diamond_file)
    assert code == 0
    assert "elements: 4" in out
    assert "pointed: true" in out
    assert err == ""


def test_check_poset_json(capsys, diamond_file):
    code, out, _ = run(capsys, "check-poset", diamond_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["bottom"] == "bot" and data["covers"] == 4


def test_missing_file_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check-poset", "/nonexistent.poset")
    assert code == 2
    assert err.startswith("error:")


def test_cyclic_input_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("elements: a b\norder: a < b; b < a\n")
    code, _, err = run(capsys, "check-poset", str(bad))
    assert code == 2
    assert "cycle" in err


@pytest.mark.parametrize("text", ["", "# nothing\n"])
def test_an_empty_poset_is_checked_and_drawn(capsys, tmp_path, text):
    empty = tmp_path / "empty.poset"
    empty.write_text(text)
    assert run(capsys, "check-poset", str(empty)) == (
        0, "elements: 0\ncovers: 0\npointed: false\nbottom: none\ntop: none\n", "")
    assert run(capsys, "hasse", str(empty)) == (0, "", "")
    assert run(capsys, "hasse", str(empty), "--dot") == (0, "digraph hasse {\n}\n", "")


def test_hasse_dot_matches_golden(capsys, diamond_file):
    code, out, _ = run(capsys, "hasse", diamond_file, "--dot")
    assert code == 0
    assert out == (GOLDEN / "diamond_hasse.dot").read_text()


def test_hasse_output_is_deterministic(capsys, diamond_file):
    _, first, _ = run(capsys, "hasse", diamond_file, "--dot")
    _, second, _ = run(capsys, "hasse", diamond_file, "--dot")
    assert first == second


def test_upper_sets_match_golden(capsys, diamond_file):
    code, out, _ = run(capsys, "upper-sets", diamond_file)
    assert code == 0
    assert out == (GOLDEN / "upper_sets_diamond.txt").read_text()


def test_upper_sets_guard(capsys, tmp_path):
    wide = tmp_path / "wide.poset"
    wide.write_text("elements: " + " ".join(f"e{i}" for i in range(21)) + "\norder:\n")
    code, _, err = run(capsys, "upper-sets", str(wide))
    assert code == 2 and err == (
        "error: upper-set enumeration on 21 elements may list up to 2^21 sets, "
        "above the limit of 20 elements\n"
    )


def test_upper_sets_limit_holds_at_the_count_and_trips_one_below(capsys, diamond_file, monkeypatch):
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 4)
    code, out, _ = run(capsys, "upper-sets", diamond_file)
    assert code == 0 and out == (GOLDEN / "upper_sets_diamond.txt").read_text()
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 3)
    code, out, err = run(capsys, "upper-sets", diamond_file)
    assert code == 2 and out == "" and err == (
        "error: upper-set enumeration on 4 elements may list up to 2^4 sets, "
        "above the limit of 3 elements\n"
    )


def test_upper_sets_of_a_tall_chain(capsys, tmp_path, monkeypatch):
    tall = tmp_path / "tall.poset"
    names = [f"c{i}" for i in range(30)]
    tall.write_text(
        "elements: " + " ".join(names) + "\norder: "
        + "; ".join(f"{a} < {b}" for a, b in zip(names, names[1:])) + "\n"
    )
    monkeypatch.setattr(posets, "UPPER_MAX_ELEMENTS", 30)
    code, out, _ = run(capsys, "upper-sets", str(tall))
    assert code == 0 and len(out.splitlines()) == 31


def test_pathspace_text_lists_endpoints(capsys, diamond_file):
    code, out, _ = run(capsys, "pathspace", diamond_file)
    assert code == 0
    assert "bot/a/top -> top" in out
    assert "bot/b -> b" in out


def test_pathspace_dot_matches_golden(capsys, diamond_file):
    _, out, _ = run(capsys, "pathspace", diamond_file, "--dot")
    assert out == (GOLDEN / "pathspace_diamond.dot").read_text()


SLASHED = "elements: bot a b a/b\norder: bot < a; a < b; bot < a/b\n"


@pytest.mark.parametrize("dot", [[], ["--dot"]], ids=["text", "dot"])
def test_pathspace_refuses_two_paths_with_one_label(capsys, tmp_path, dot):
    """The paths bot<a<b and bot<a/b both read "bot/a/b"."""
    poset = tmp_path / "slashed.poset"
    poset.write_text(SLASHED)
    code, out, err = run(capsys, "pathspace", str(poset), *dot)
    assert (code, out) == (2, "")
    assert err == "error: two elements share the label 'bot/a/b'\n"


def test_relabel_refuses_a_shared_label():
    P = posets.parse_poset(DIAMOND)
    assert cli._relabel(P, str.upper).elements == ("BOT", "A", "B", "TOP")
    with pytest.raises(posets.PosetError, match="two elements share the label 'x'"):
        cli._relabel(P, lambda e: "x" if e in ("a", "b") else e)


def test_pathspace_walks_a_long_chain(capsys, tmp_path):
    n = 1200
    poset = tmp_path / "chain.poset"
    poset.write_text(
        "elements: " + " ".join(f"c{i}" for i in range(n)) + "\n"
        "order: " + "; ".join(f"c{i} < c{i + 1}" for i in range(n - 1)) + "\n"
    )
    code, out, _ = run(capsys, "pathspace", str(poset))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == n
    assert lines[-1].endswith(f"c{n - 2}/c{n - 1} -> c{n - 1}")


def test_internal_error_exits_3_with_one_line(capsys, monkeypatch, diamond_file):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_check_poset", crash)
    code, out, err = run(capsys, "check-poset", diamond_file)
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


def test_fin_matches_golden(capsys, diamond_file):
    code, out, _ = run(capsys, "fin", diamond_file)
    assert code == 0
    assert out == (GOLDEN / "fin_diamond.txt").read_text()


def test_fin_cap(capsys, diamond_file, monkeypatch):
    monkeypatch.setattr(smyth, "FIN_CAP", 2)
    code, _, err = run(capsys, "fin", diamond_file)
    assert code == 2 and "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fin", "{poset}", "--cap", "2"),
        ("monad-laws", "{poset}", "--cap", "2"),
        ("val-mub", "{poset}", "a:1", "b:1", "--grid", "2", "--cap", "5"),
        ("val-maxbelow", "{poset}", "a:1", "--grid", "2", "--cap", "5"),
        ("val-grid", "{poset}", "--grid", "2", "--cap", "5"),
        ("upper-sets", "{poset}", "--max-elements", "30"),
    ],
)
def test_cap_flags_are_usage_errors(capsys, diamond_file, argv):
    # the limits are module constants; no command takes a flag that changes one
    with pytest.raises(SystemExit) as exc:
        main([a.format(poset=diamond_file) for a in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate-posets", "3")
    assert code == 0
    assert out.strip() == "19"


def test_enumerate_list(capsys):
    code, out, _ = run(capsys, "enumerate-posets", "2", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "0 1 | 0 < 1" in lines


def test_enumerate_out_of_range(capsys):
    code, _, err = run(capsys, "enumerate-posets", "7")
    assert code == 2


# -- powerspace commands ----------------------------------------------------------


def test_monad_laws_default_unit(capsys, diamond_file):
    code, out, _ = run(capsys, "monad-laws", diamond_file)
    assert code == 0
    assert "unit_identity: true" in out
    assert "witness: none" in out


def test_monad_laws_with_map_files(capsys, tmp_path, diamond_file):
    h = tmp_path / "h.finmap"
    h.write_text(
        "bot -> {bot}\na -> {top}\nb -> {top}\ntop -> {top}\n"
    )
    code, out, _ = run(capsys, "monad-laws", diamond_file, str(h))
    assert code == 0
    assert "associativity: true" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_monad_laws_refuses_a_map_file_that_is_not_monotone(capsys, tmp_path, chain_file, fmt):
    """The swap of the two-point chain breaks associativity as a library map;
    as a map file it is refused before any law is checked."""
    g = tmp_path / "g.finmap"
    g.write_text("z0 -> {z1}\nz1 -> {z0}\n")
    code, out, err = run(capsys, "monad-laws", chain_file, str(g), "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (
        "error: not monotone into the antichain order: 'z0' <= 'z1' "
        "but ('z1',) does not refine to ('z0',)\n"
    )


def test_monad_laws_json(capsys, diamond_file):
    _, out, _ = run(capsys, "monad-laws", diamond_file, "--format", "json")
    data = json.loads(out)
    assert data == {
        "unit_identity": True,
        "extension_identity": True,
        "associativity": True,
        "witness": None,
    }


def test_quasi_retraction_identity(capsys, chain_file, tmp_path):
    m = tmp_path / "ident.map"
    m.write_text("z0 -> z0\nz1 -> z1\n")
    code, out, _ = run(capsys, "quasi-retraction", chain_file, chain_file, str(m))
    assert code == 0
    assert out == (
        "retraction_law: true\nprojection_law: true\ncanonical: true\nwitness: none\n"
    )
    code, out, _ = run(
        capsys, "quasi-retraction", chain_file, chain_file, str(m), "--format", "json"
    )
    assert code == 0
    assert out == (
        '{\n  "retraction_law": true,\n  "projection_law": true,\n'
        '  "canonical": true,\n  "witness": null\n}\n'
    )


def test_quasi_retraction_reports_failing_section(capsys, chain_file, tmp_path):
    m = tmp_path / "collapse.map"
    m.write_text("z0 -> z0\nz1 -> z0\n")
    point = tmp_path / "point.poset"
    point.write_text("elements: z0\norder:\n")
    qs = tmp_path / "qs.finmap"
    qs.write_text("z0 -> {z1}\n")
    argv = ["quasi-retraction", chain_file, str(point), str(m), str(qs)]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == (
        "retraction_law: true\nprojection_law: false\ncanonical: false\n"
        "witness: projection law fails at 'z0': 'z0' is not above ('z1',)\n"
    )
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert out == (
        '{\n  "retraction_law": true,\n  "projection_law": false,\n'
        '  "canonical": false,\n'
        '  "witness": "projection law fails at \'z0\': \'z0\' is not above (\'z1\',)"\n}\n'
    )


def test_koenig_prints_the_chain(capsys, diamond_file):
    code, out, _ = run(capsys, "koenig", diamond_file, "top", "bot", "a,b", "top")
    assert code == 0
    assert out.strip() == "bot a top"


def test_koenig_reads_repeated_stages_by_value(capsys, diamond_file):
    stages = ["bot", "bot", *["a,b"] * 40, "b,a", "top", "top"]
    code, out, _ = run(capsys, "koenig", diamond_file, "top", *stages)
    P = posets.parse_poset(DIAMOND)
    want = reference_koenig(P, [smyth.parse_antichain(P, s) for s in stages], "top")
    assert code == 0
    assert out == " ".join(want) + "\n"
    assert want == ["bot", "bot", *["a"] * 41, "top", "top"]


def test_koenig_rejects_broken_stages(capsys, diamond_file):
    code, _, err = run(capsys, "koenig", diamond_file, "top", "a", "b")
    assert code == 2
    assert "1" in err


# -- valuation commands --------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("bot:1e-100000 a:1", "weights sum to a fraction too long to write, not 1"),
    ("bot:-1e-100000 a:1", "negative weight at 'bot': a fraction too long to write"),
])
def test_weights_too_long_to_write_exit_2(capsys, diamond_file, text, message):
    code, out, err = run(capsys, "val-order", diamond_file, text, "top:1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_val_order_true_with_transport(capsys, diamond_file):
    code, out, _ = run(
        capsys, "val-order", diamond_file, "bot:1/2 a:1/2", "a:1/2 top:1/2"
    )
    assert code == 0
    assert "result: true" in out
    assert "transport: bot->a:1/2 a->top:1/2" in out


def test_val_order_false_with_violating_upper(capsys, diamond_file):
    code, out, _ = run(
        capsys, "val-order", diamond_file, "bot:1/2 a:1/2", "bot:1/2 b:1/2"
    )
    assert code == 1
    assert "violating_upper: {a, top}" in out


GRID33 = (
    "elements: p00 p01 p02 p10 p11 p12 p20 p21 p22\n"
    "order: p00 < p01; p01 < p02; p10 < p11; p11 < p12; p20 < p21; p21 < p22; "
    "p00 < p10; p10 < p20; p01 < p11; p11 < p21; p02 < p12; p12 < p22\n"
)
GRID33_LOW = "p00:1/4 p01:1/6 p10:1/6 p02:1/12 p11:1/6 p20:1/6"
GRID33_HIGH = "p01:1/12 p11:1/4 p12:1/6 p21:1/6 p22:1/6 p20:1/6"


def test_val_order_pins_the_plan_among_many_couplings(capsys, tmp_path):
    grid_file = tmp_path / "grid33.poset"
    grid_file.write_text(GRID33)
    code, out, _ = run(capsys, "val-order", str(grid_file), GRID33_LOW, GRID33_HIGH)
    assert code == 0
    assert out == (
        "result: true\n"
        "transport: p00->p01:1/12 p00->p11:1/6 p01->p11:1/12 p01->p12:1/12 "
        "p02->p12:1/12 p10->p20:1/6 p11->p21:1/6 p20->p22:1/6\n"
    )
    code, out, _ = run(capsys, "val-order", str(grid_file), GRID33_HIGH, GRID33_LOW)
    assert code == 1
    assert out == "result: false\nviolating_upper: {p11, p12, p21, p22}\n"


def test_val_order_modes_agree(capsys, diamond_file):
    for mode in ("flow", "oracle", "both"):
        code, out, _ = run(
            capsys,
            "val-order",
            diamond_file,
            "bot:1/2 a:1/2",
            "a:1/2 top:1/2",
            "--mode",
            mode,
        )
        assert code == 0


def test_val_order_json_carries_certificate(capsys, diamond_file):
    _, out, _ = run(
        capsys,
        "val-order",
        diamond_file,
        "bot:1/2 a:1/2",
        "a:1/2 top:1/2",
        "--format",
        "json",
    )
    data = json.loads(out)
    assert data["result"] is True
    assert "transport" in data


def test_one_parser_serves_every_call_without_leaking_flags(capsys, diamond_file):
    nu, mu = "bot:1/2 a:1/2", "a:1/2 top:1/2"
    code, out, _ = run(capsys, "val-order", diamond_file, nu, mu, "--format", "json")
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run(capsys, "hasse", diamond_file, "--dot")
    assert code == 0 and out.startswith("digraph hasse {")
    code, out, _ = run(capsys, "val-order", diamond_file, nu, mu)
    assert (code, out) == (0, "result: true\ntransport: bot->a:1/2 a->top:1/2\n")
    assert cli.build_parser() is cli.build_parser()


def test_val_order_rejects_bad_mass(capsys, diamond_file):
    code, _, err = run(capsys, "val-order", diamond_file, "a:1/2", "a:1/2 top:1/2")
    assert code == 2 and "error:" in err


def test_val_waybelow_reports_the_tangency(capsys, diamond_file):
    code, out, _ = run(
        capsys,
        "val-waybelow",
        diamond_file,
        "bot:1/3 a:2/3",
        "a:1/3 b:1/3 top:1/3",
    )
    assert code == 1
    assert "result: false" in out
    assert "kind=equal_mass" in out
    assert "upper={a, top}" in out


def test_val_waybelow_renders_one_violation_list_both_ways(capsys, diamond_file):
    nu, mu = "bot:1/4 a:3/4", "bot:1/2 b:1/2"
    code, out, _ = run(capsys, "val-waybelow", diamond_file, nu, mu, "--format", "json")
    assert code == 1
    assert out == (
        '{\n  "result": false,\n  "violations": [\n'
        '    {\n      "kind": "support_on_null",\n      "upper": [\n        "a",\n'
        '        "top"\n      ],\n      "lhs": "3/4",\n      "rhs": "0"\n    },\n'
        '    {\n      "kind": "mass_exceeds",\n      "upper": [\n        "a",\n'
        '        "b",\n        "top"\n      ],\n      "lhs": "3/4",\n      "rhs": "1/2"\n'
        "    }\n  ]\n}\n"
    )
    code, out, _ = run(capsys, "val-waybelow", diamond_file, nu, mu)
    assert code == 1
    assert out == (
        "result: false\n"
        "violation: kind=support_on_null upper={a, top} lhs=3/4 rhs=0\n"
        "violation: kind=mass_exceeds upper={a, b, top} lhs=3/4 rhs=1/2\n"
    )
    code, out, _ = run(capsys, "val-waybelow", diamond_file, "bot:1", "top:1", "--format", "json")
    assert code == 0
    assert out == '{\n  "result": true,\n  "violations": []\n}\n'


def test_val_waybelow_positive(capsys, diamond_file):
    code, out, _ = run(capsys, "val-waybelow", diamond_file, "bot:1", "top:1")
    assert code == 0
    assert "result: true" in out


def test_val_mub_lists_both_bounds(capsys, diamond_file):
    code, out, _ = run(
        capsys,
        "val-mub",
        diamond_file,
        "bot:1/2 a:1/2",
        "bot:1/2 b:1/2",
        "--grid",
        "2",
    )
    assert code == 0
    assert out.splitlines() == ["a:1/2 b:1/2", "bot:1/2 top:1/2"]


def test_val_maxbelow_matches_golden(capsys, diamond_file):
    code, out, _ = run(
        capsys, "val-maxbelow", diamond_file, "a:1/3 b:1/3 top:1/3", "--grid", "3"
    )
    assert code == 0
    assert out == (GOLDEN / "val_maxbelow_thirds.txt").read_text()


def test_val_grid_counts(capsys, diamond_file):
    code, out, _ = run(capsys, "val-grid", diamond_file, "--grid", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_val_grid_dot_matches_golden(capsys, diamond_file):
    _, out, _ = run(capsys, "val-grid", diamond_file, "--grid", "1", "--dot")
    assert out == (GOLDEN / "val_grid_diracs.dot").read_text()


def test_val_push_and_preimage_round_trip(capsys, diamond_file, chain_file, tmp_path):
    m = tmp_path / "tochain.map"
    m.write_text("bot -> z0\na -> z0\nb -> z0\ntop -> z1\n")
    code, out, _ = run(
        capsys,
        "val-push",
        diamond_file,
        chain_file,
        str(m),
        "bot:1/2 a:1/4 top:1/4",
    )
    assert code == 0
    assert out.strip() == "z0:3/4 z1:1/4"
    code, out, _ = run(
        capsys, "val-push", diamond_file, chain_file, str(m), "z0:3/4 z1:1/4",
        "--preimage",
    )
    assert code == 0
    assert out.strip() == "bot:3/4 top:1/4"


def test_demo_matches_golden_and_signals_witnesses(capsys, diamond_file):
    code, out, _ = run(capsys, "demo-failed-deflations", diamond_file, "--grid", "2")
    assert code == 1
    assert out == (GOLDEN / "demo_failed_deflations.txt").read_text()


def test_demo_with_explicit_valuation(capsys, diamond_file):
    code, out, _ = run(
        capsys, "demo-failed-deflations", diamond_file, "a:1/2 b:1/2", "--grid", "2"
    )
    assert code == 1
    assert out == (
        "attempt a: modularity fails at nu=a:1/2 b:1/2: U={a, top} V={b, top}\n"
        "attempt b: monotonicity fails: b:1 <= b:1/2 top:1/2 but the rounded images "
        "are not ordered\n"
        "attempt c: no largest grid valuation below nu=a:1/2 b:1/2: 2 maximal members\n"
    )


def test_demo_is_quiet_on_a_chain(capsys, chain_file):
    code, out, _ = run(capsys, "demo-failed-deflations", chain_file, "--grid", "2")
    assert code == 0
    assert out == (
        "attempt a: no modularity witness\n"
        "attempt b: no monotonicity witness\n"
        "attempt c: every valuation scanned has a unique largest approximant\n"
    )


def test_demo_scans_the_whole_grid_of_thirds(capsys, diamond_file):
    code, out, _ = run(capsys, "demo-failed-deflations", diamond_file, "--grid", "3")
    assert code == 1
    assert out == (
        "attempt a: modularity fails at nu=a:1/3 b:2/3: U={a, top} V={b, top}\n"
        "attempt b: monotonicity fails: b:1 <= b:1/3 top:2/3 but the rounded images "
        "are not ordered\n"
        "attempt c: no largest grid valuation below nu=b:1/3 top:2/3: 2 maximal members\n"
    )


def test_a_failing_demo_prints_nothing(capsys, tmp_path):
    # attempt a finds no witness here; attempt b's grid of 352,716 points
    # is above the cap
    names = [f"x{i}" for i in range(12)]
    w12 = tmp_path / "w12.poset"
    w12.write_text(
        f"elements: {' '.join(names)}\norder: " + "; ".join(f"x0 < {x}" for x in names[1:]) + "\n"
    )
    code, out, err = run(
        capsys, "demo-failed-deflations", str(w12), "x0:1/2 x1:1/2", "--grid", "10"
    )
    assert (code, out) == (2, "")
    assert err == "error: grid would hold 352716 valuations, above the cap of 100000\n"


def test_demo_rejects_a_zero_grid_with_an_explicit_valuation(capsys, diamond_file):
    code, out, err = run(capsys, "demo-failed-deflations", diamond_file, "a:1", "--grid", "0")
    assert (code, out) == (2, "")
    assert err == "error: grid denominator must be a positive integer\n"


# -- lazy commands ----------------------------------------------------------------------


def test_lazy_leq_exit_codes(capsys):
    code, out, _ = run(capsys, "lazy", "n2", "leq", "n:0:3", "omega")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "lazy", "t", "leq", "n:0:2", "n:1:2")
    assert code == 1 and out.strip() == "false"


def test_lazy_family_values(capsys):
    code, out, _ = run(capsys, "lazy", "n2", "family", "2", "3", "omega")
    assert code == 0
    assert out.strip() == "{n:0:2, n:1:3}"
    code, out, _ = run(capsys, "lazy", "t", "family", "2", "top")
    assert out.strip() == "{n:0:2, n:1:2}"


def test_lazy_witness_values(capsys):
    code, out, _ = run(capsys, "lazy", "t", "witness", "n:0:3", "n:1:3")
    assert code == 0
    assert out.strip() == "i=4"
    code, out, _ = run(capsys, "lazy", "n2", "witness", "omega", "n:0:7")
    assert out.strip() == "i=8 j=8"


def test_lazy_witness_errors(capsys):
    code, _, err = run(capsys, "lazy", "nsum", "witness", "n:0:1", "n:1:1")
    assert code == 2
    code, _, err = run(capsys, "lazy", "n2", "witness", "n:0:1", "omega")
    assert code == 2 and "witness" in err


def test_lazy_truncate_dot_matches_golden(capsys):
    code, out, _ = run(capsys, "lazy", "t", "truncate", "1", "--dot")
    assert code == 0
    assert out == (GOLDEN / "t_trunc_depth1.dot").read_text()


def test_val_order_reads_names_with_colons_from_a_truncation(capsys, tmp_path):
    code, out, _ = run(capsys, "lazy", "t", "truncate", "1")
    assert code == 0 and "n:0:0" in out
    poset = tmp_path / "t.poset"
    poset.write_text(out)
    code, out, _ = run(capsys, "val-order", str(poset), "n:0:0:1/2 top:1/2", "top:1")
    assert code == 0
    assert "transport: n:0:0->top:1/2 top->top:1/2" in out


def test_lazy_rejects_malformed_codes(capsys):
    code, _, err = run(capsys, "lazy", "n2", "leq", "n:0:x", "omega")
    assert code == 2
    # int() reads the level 1_0 as 10, but no code is spelled that way
    code, out, err = run(capsys, "lazy", "n2", "leq", "n:0:1_0", "n:0:10")
    assert (code, out) == (2, "") and err.startswith("error: malformed element 'n:0:1_0'")
    code, _, err = run(capsys, "lazy", "t", "family", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lazy", "n2", "family", "1", "n:0:0"), "error: lazy n2 family takes indices I J and an element"),
        (("lazy", "t", "truncate"), "error: lazy truncate takes a depth"),
        (("lazy", "t", "family", "x", "n:0:0"), "error: expected a natural number, got 'x'"),
    ],
)
def test_lazy_refusals_keep_their_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err.strip()) == (2, "", message)


# -- console entry point -------------------------------------------------------------------


def child_env() -> dict:
    # the child does not inherit pytest's sys.path, so give it the src dir
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# the CLI commands behind the golden files: (file, argv, exit code), with
# {d} for the diamond's poset file
GOLDENS = (
    ("diamond_hasse.dot", ["hasse", "{d}", "--dot"], 0),
    ("upper_sets_diamond.txt", ["upper-sets", "{d}"], 0),
    ("pathspace_diamond.dot", ["pathspace", "{d}", "--dot"], 0),
    ("fin_diamond.txt", ["fin", "{d}"], 0),
    ("val_maxbelow_thirds.txt", ["val-maxbelow", "{d}", "a:1/3 b:1/3 top:1/3", "--grid", "3"], 0),
    ("val_grid_diracs.dot", ["val-grid", "{d}", "--grid", "1", "--dot"], 0),
    ("demo_failed_deflations.txt", ["demo-failed-deflations", "{d}", "--grid", "2"], 1),
    ("t_trunc_depth1.dot", ["lazy", "t", "truncate", "1", "--dot"], 0),
)


@pytest.mark.parametrize("seed", ["1", "987654"])
def test_goldens_replay_byte_for_byte_under_a_fixed_hash_seed(tmp_path, seed):
    # the eight commands run side by side, each in its own interpreter
    poset = tmp_path / "diamond.poset"
    poset.write_text(DIAMOND)
    env = dict(child_env(), PYTHONHASHSEED=seed)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "ordbench.cli", *(str(poset) if a == "{d}" else a for a in argv)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _, argv, _ in GOLDENS
    ]
    for (name, _, code), proc in zip(GOLDENS, procs):
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (code, b""), name
        assert out == (GOLDEN / name).read_bytes(), name


def test_installed_script_emits_identical_dot(tmp_path):
    poset = tmp_path / "d.poset"
    poset.write_text(DIAMOND)
    proc = subprocess.run(
        [sys.executable, "-m", "ordbench.cli", "hasse", str(poset), "--dot"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "diamond_hasse.dot").read_text()


def test_a_reader_that_closes_stdout_gets_141_and_no_error(tmp_path):
    # 65,536 upper sets: far more than a pipe holds, so the writer is still
    # writing when the reader goes, as with `ordbench upper-sets ... | head -1`
    poset = tmp_path / "wide.poset"
    poset.write_text("elements: " + " ".join(f"e{k}" for k in range(16)) + "\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordbench.cli", "upper-sets", str(poset)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"{}\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")

    # a pipe closed before the start: the short output waits in the buffer
    # (buffered, whatever the environment says), so the broken pipe shows
    # only when it is flushed
    small = tmp_path / "d.poset"
    small.write_text(DIAMOND)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.run(
        [sys.executable, "-m", "ordbench.cli", "upper-sets", str(small)],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# -- the exit protocol on random inputs ------------------------------------------


def sweep_argv(rng, files, P):
    """One argument list per subcommand on the poset ``P`` in ``files["p"]``,
    drawn from valid and invalid valuation texts, grid sizes, stages, maps
    and files."""
    names = list(P.elements)
    rest = f" {names[1]}:1/2" if len(names) > 1 else ""
    spelled = [f"{names[0]}:{s}{rest}" for s, _ in SPELLINGS]
    wrong = ["zz:1", "", f"{names[0]}:1 {names[0]}:0", f"{names[-1]}:1/3"]

    def val():
        if rng.random() < 0.5:
            return format_valuation(rng.choice(grid(P, 2)))
        return rng.choice(spelled + wrong)

    def grid_flag():
        return ["--grid", str(rng.randint(-1, 3))]

    def some(*flags):
        return [f for f in flags if rng.random() < 0.5]

    def element():
        return rng.choice(names + ["zz"])

    fmt = ["--format", rng.choice(("text", "json"))]
    p, q, m, h = files["p"], files["q"], files["map"], files["finmap"]
    stages = [",".join(rng.sample(names, rng.randint(1, len(names)))) for _ in range(2)]
    stages = [s for s in stages for _ in range(rng.randint(1, 3))]
    kind, action = rng.choice(lz.KINDS), rng.choice(("leq", "family", "witness", "truncate"))
    # numbers then elements, one more or fewer now and then
    numbers = {"family": 2 if kind == "n2" else 1, "truncate": 1}.get(action, 0)
    elements = {"leq": 2, "witness": 2, "family": 1}.get(action, 0) + rng.choice((-1, 0, 0, 0, 1))
    codes = ["bot", "top", "omega", "omega1", "n:0:1", "n:1:2", "n:2:0", "x"]
    lazy_args = [str(rng.randint(-1, 3)) for _ in range(numbers)]
    lazy_args += [rng.choice(codes) for _ in range(max(elements, 0))]
    return [
        ["check-poset", p, *fmt],
        ["hasse", p, *some("--dot")],
        ["upper-sets", p],
        ["pathspace", p, *some("--dot")],
        ["fin", p, *some("--dot")],
        ["monad-laws", p, *rng.choice([[], [h], [h, h], [files["missing"]]]), *fmt],
        ["quasi-retraction", p, q, m, *rng.choice([[], [h]]), *fmt],
        ["koenig", p, element(), *stages],
        ["val-order", p, val(), val(), "--mode", rng.choice(("flow", "oracle", "both")), *fmt],
        ["val-waybelow", p, val(), val(), *fmt],
        ["val-mub", p, val(), val(), *grid_flag()],
        ["val-maxbelow", p, val(), *grid_flag()],
        ["val-grid", p, *grid_flag(), *some("--dot")],
        ["val-push", p, q, m, val(), *some("--preimage")],
        ["demo-failed-deflations", p, *rng.choice([[], [val()]]), *grid_flag()],
        ["lazy", kind, action, *lazy_args, *some("--dot")],
        ["enumerate-posets", str(rng.randint(-1, 3)), *some("--list")],
    ]


def test_every_subcommand_keeps_the_exit_protocol(capsys, tmp_path):
    """Every exit is 0, 1 or 2, never 3, and an exit 2 prints nothing."""
    rng = random.Random(17)
    for trial in range(12):
        orders = [random_pointed_poset(rng, rng.randint(1, 4)) if rng.random() < 0.7
                  else random_poset(rng, rng.randint(1, 4)) for _ in range(2)]
        P, Q = (posets.parse_poset(posets.format_poset(o)) for o in orders)
        if rng.random() < 0.4:
            Q = P
            map_text = "".join(f"{x} -> {x}\n" for x in P.elements)
        elif rng.random() < 0.5:
            values = random_monotone_map(rng, P, Q)
            map_text = "".join(f"{x} -> {y}\n" for x, y in values.items())
        else:
            map_text = "".join(f"{x} -> {rng.choice(Q.elements + ('zz',))}\n" for x in P.elements)
        finmap_text = rng.choice(["garbage\n", "".join(
            f"{x} -> {{{', '.join(rng.sample(P.elements, rng.randint(1, len(P))))}}}\n"
            for x in P.elements
        )])
        files = {"missing": str(tmp_path / "missing.txt")}
        for key, text in [("p", posets.format_poset(P)), ("q", posets.format_poset(Q)),
                          ("map", map_text), ("finmap", finmap_text)]:
            files[key] = str(tmp_path / f"{trial}-{key}.txt")
            pathlib.Path(files[key]).write_text(text)
        for argv in sweep_argv(rng, files, P):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses its input
                code = exc.code
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (argv, err)
            if code == 2:
                assert out == "", argv
