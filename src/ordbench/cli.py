"""Command-line front end.

Every subcommand but one is a thin wrapper over one library call plus
formatting. ``demo-failed-deflations`` scans the grid with three: attempt a
once per scanned valuation (the whole grid when none is given), attempt b
once, and attempt c over all of them from one grid. Nothing is computed
here that a library user could not reproduce.

Exit codes: 0 for success (or a true answer), 1 for a false answer or a found
counterexample witness, 2 for usage, file, or input format errors, 3 for an
internal error (any other exception), reported as one ``internal error:
<Type>: <message>`` line on stderr so that a crash never reads as "false",
and 141 with nothing on stderr when the reader closes stdout early (the
status a shell gives a writer killed by SIGPIPE, as in ``| head -1``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import lazy as lz
from .posets import (
    Poset,
    PosetError,
    enumerate_posets,
    format_poset,
    parse_map,
    parse_poset,
    poset_to_dot,
)
from .smyth import (
    canonical_quasi_section,
    check_monad_laws,
    check_quasi_retraction,
    fin_antichains,
    fin_poset,
    format_antichain,
    koenig_chain,
    parse_antichain,
    parse_finmap,
)
from .treeval import path_space
from .valuations import (
    ValuationError,
    failed_deflation_a,
    failed_deflation_b,
    format_valuation,
    grid,
    grid_poset,
    maximal_below_grid,
    minimal_upper_bounds_grid,
    parse_valuation,
    pushforward,
    pushforward_preimage,
    stochastic_leq,
    stochastic_leq_report,
    way_below_report,
    _maximal_below,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_poset(path: str) -> Poset:
    return parse_poset(_read(path))


def _fmt_upper(P: Poset, U) -> str:
    members = sorted(U, key=P.index)
    return "{" + ", ".join(str(x) for x in members) + "}"


def _json_value(P: Poset, v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, frozenset):
        return [str(x) for x in sorted(v, key=P.index)]
    return v


def _emit(fmt: str, P: Poset, pairs) -> None:
    """Print key/value pairs as `key: value` lines or one JSON object."""
    if fmt == "json":
        obj = {k: _json_value(P, v) for k, v in pairs}
        print(json.dumps(obj, indent=2))
    else:
        for k, v in pairs:
            if isinstance(v, frozenset):
                v = _fmt_upper(P, v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif v is None:
                v = "none"
            print(f"{k}: {v}")


# -- handlers ------------------------------------------------------------------


def _cmd_check_poset(args) -> int:
    P = _load_poset(args.poset)
    pairs = [
        ("elements", len(P.elements)),
        ("covers", len(P.covers())),
        ("pointed", P.is_pointed),
        ("bottom", None if P.bottom() is None else str(P.bottom())),
        ("top", None if P.top() is None else str(P.top())),
    ]
    _emit(args.format, P, pairs)
    return 0


def _cmd_hasse(args) -> int:
    P = _load_poset(args.poset)
    if args.dot:
        sys.stdout.write(poset_to_dot(P))
    else:
        for a, b in P.covers():
            print(f"{a} < {b}")
    return 0


def _cmd_upper_sets(args) -> int:
    P = _load_poset(args.poset)
    for U in P.upper_sets():
        print(_fmt_upper(P, U))
    return 0


def _relabel(P: Poset, rename) -> Poset:
    """P with each element renamed; refuses two elements given one label, so
    that no output line or DOT node stands for two elements. The indices stay,
    so the copy keeps P's down and cover masks when P has them, and the
    relation P keeps to make them from when it has not."""
    named = Poset._from_masks(tuple(map(rename, P.elements)), P._up, P._down_cache,
                              P._covers_cache, P._low, P._high)
    if len(named._index) < len(named.elements):
        # the index keeps the last position of a label, so its first one differs
        clash = next(e for i, e in enumerate(named.elements) if named._index[e] != i)
        raise PosetError(f"two elements share the label {clash!r}")
    return named


def _cmd_pathspace(args) -> int:
    P = _load_poset(args.poset)
    pi, r = path_space(P)
    named = _relabel(pi, lambda p: "/".join(str(x) for x in p))
    if args.dot:
        sys.stdout.write(poset_to_dot(named, name="pathspace"))
    else:
        for label, end in zip(named.elements, r.values):
            print(f"{label} -> {end}")
    return 0


def _cmd_fin(args) -> int:
    P = _load_poset(args.poset)
    if args.dot:
        F = fin_poset(P)
        named = _relabel(F, lambda E: format_antichain(E, P))
        sys.stdout.write(poset_to_dot(named, name="fin"))
    else:
        for E in fin_antichains(P):
            print(format_antichain(E, P))
    return 0


def _cmd_monad_laws(args) -> int:
    P = _load_poset(args.poset)
    h = parse_finmap(P, P, _read(args.h)) if args.h else None
    g_source = h.target if h is not None else P
    g = parse_finmap(g_source, g_source, _read(args.g)) if args.g else None
    rep = check_monad_laws(P, h, g)
    witness = rep.witness and " ".join(f"{k}={v}" for k, v in rep.witness.items())
    _emit(args.format, P, {**vars(rep), "witness": witness}.items())
    return 0 if rep.ok else 1


def _cmd_quasi_retraction(args) -> int:
    X = _load_poset(args.source)
    Y = _load_poset(args.target)
    r = parse_map(X, Y, _read(args.map))
    qs = parse_finmap(Y, X, _read(args.qs)) if args.qs else canonical_quasi_section(r)
    rep = check_quasi_retraction(r, qs)
    _emit(args.format, X, vars(rep).items())  # the report's fields are the output keys
    return 0 if rep.ok else 1


def _cmd_koenig(args) -> int:
    P = _load_poset(args.poset)
    stages = [parse_antichain(P, s) for s in args.stage]
    chain = koenig_chain(P, stages, args.element)
    print(" ".join(str(x) for x in chain))
    return 0


def _cmd_val_order(args) -> int:
    P = _load_poset(args.poset)
    nu = parse_valuation(P, args.nu)
    mu = parse_valuation(P, args.mu)
    if args.mode != "flow":
        result = stochastic_leq(nu, mu, mode=args.mode)
        _emit(args.format, P, [("result", result)])
        return 0 if result else 1
    rep = stochastic_leq_report(nu, mu)
    pairs = [("result", rep.result)]
    if rep.transport is not None:
        plan = " ".join(f"{x}->{y}:{w}" for (x, y), w in rep.transport.items())
        pairs.append(("transport", plan))
    if rep.violating_upper is not None:
        pairs.append(("violating_upper", rep.violating_upper))
    _emit(args.format, P, pairs)
    return 0 if rep.result else 1


def _cmd_val_waybelow(args) -> int:
    P = _load_poset(args.poset)
    nu = parse_valuation(P, args.nu)
    mu = parse_valuation(P, args.mu)
    rep = way_below_report(nu, mu)
    if args.format == "json":
        violations = [{k: _json_value(P, w) for k, w in v.items()} for v in rep.violations]
        print(json.dumps({"result": rep.result, "violations": violations}, indent=2))
    else:
        violations = [
            f"kind={v['kind']} upper={_fmt_upper(P, v['upper'])} lhs={v['lhs']} rhs={v['rhs']}"
            for v in rep.violations
        ]
        _emit("text", P, [("result", rep.result)] + [("violation", v) for v in violations])
    return 0 if rep.result else 1


def _cmd_val_mub(args) -> int:
    P = _load_poset(args.poset)
    v1 = parse_valuation(P, args.nu1)
    v2 = parse_valuation(P, args.nu2)
    for m in minimal_upper_bounds_grid(v1, v2, args.grid):
        print(format_valuation(m))
    return 0


def _cmd_val_maxbelow(args) -> int:
    P = _load_poset(args.poset)
    nu = parse_valuation(P, args.nu)
    for m in maximal_below_grid(nu, args.grid):
        print(format_valuation(m))
    return 0


def _cmd_val_grid(args) -> int:
    P = _load_poset(args.poset)
    if args.dot:
        G = grid_poset(P, args.grid)
        named = _relabel(G, format_valuation)
        sys.stdout.write(poset_to_dot(named, name="grid"))
    else:
        for v in grid(P, args.grid):
            print(format_valuation(v))
    return 0


def _cmd_val_push(args) -> int:
    X = _load_poset(args.source)
    Y = _load_poset(args.target)
    r = parse_map(X, Y, _read(args.map))
    if args.preimage:
        nu = parse_valuation(Y, args.nu)
        print(format_valuation(pushforward_preimage(r, nu)))
    else:
        nu = parse_valuation(X, args.nu)
        print(format_valuation(pushforward(r, nu)))
    return 0


def _cmd_demo_failed_deflations(args) -> int:
    P = _load_poset(args.poset)
    N = args.grid
    targets = [parse_valuation(P, args.nu)] if args.nu else grid(P, N)
    # every attempt runs, and every line is formatted, before anything is
    # printed, so a failing one prints nothing
    a = next(
        ((v, *rep.witness) for v in targets for rep in [failed_deflation_a(v, N)] if rep.witness),
        None,
    )
    b = failed_deflation_b(targets[0], N).witness
    c = next(
        ((v, len(m)) for v, m in zip(targets, _maximal_below(P, N, targets)) if len(m) != 1),
        None,
    )
    print(
        f"attempt a: modularity fails at nu={format_valuation(a[0])}: "
        f"U={_fmt_upper(P, a[1])} V={_fmt_upper(P, a[2])}"
        if a else "attempt a: no modularity witness",
        f"attempt b: monotonicity fails: {format_valuation(b[0])} <= "
        f"{format_valuation(b[1])} but the rounded images are not ordered"
        if b else "attempt b: no monotonicity witness",
        f"attempt c: no largest grid valuation below nu={format_valuation(c[0])}: "
        f"{c[1]} maximal members"
        if c else "attempt c: every valuation scanned has a unique largest approximant",
        sep="\n",
    )
    return 1 if a or b or c else 0


def _cmd_lazy(args) -> int:
    L = lz.LazyPoset(args.kind)
    action = args.action
    rest: List[str] = args.args
    if action == "leq":
        if len(rest) != 2:
            raise PosetError("lazy leq takes two elements")
        ok = L.leq(lz.parse_code(rest[0]), lz.parse_code(rest[1]))
        print("true" if ok else "false")
        return 0 if ok else 1
    if action == "family":
        if args.kind == "n2":
            if len(rest) != 3:
                raise PosetError("lazy n2 family takes indices I J and an element")
            phi = lz.n2_family(_nat(rest[0]), _nat(rest[1]))
            x = lz.parse_code(rest[2])
        elif args.kind == "t":
            if len(rest) != 2:
                raise PosetError("lazy t family takes an index I and an element")
            phi = lz.t_family(_nat(rest[0]))
            x = lz.parse_code(rest[1])
        else:
            raise PosetError("no quasi-deflation family is defined for kind 'nsum'")
        print("{" + ", ".join(lz.format_code(c) for c in phi(x)) + "}")
        return 0
    if action == "witness":
        if len(rest) != 2:
            raise PosetError("lazy witness takes two elements")
        idx = lz.family_witness(L, lz.parse_code(rest[0]), lz.parse_code(rest[1]))
        print(f"i={idx[0]} j={idx[1]}" if isinstance(idx, tuple) else f"i={idx}")
        return 0
    # "truncate": the parser's choices allow no other action
    if len(rest) != 1:
        raise PosetError("lazy truncate takes a depth")
    Tk = lz.truncate(L, _nat(rest[0])).poset
    sys.stdout.write(poset_to_dot(Tk, name=f"{args.kind}_trunc") if args.dot else format_poset(Tk))
    return 0


def _nat(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise PosetError(f"expected a natural number, got {text!r}") from None
    if n < 0:
        raise PosetError(f"expected a natural number, got {n}")
    return n


def _cmd_enumerate_posets(args) -> int:
    count = 0
    for P in enumerate_posets(args.n):
        count += 1
        if args.list:
            cov = "; ".join(f"{a} < {b}" for a, b in P.covers())
            print(" ".join(str(e) for e in P.elements) + (" | " + cov if cov else ""))
    if not args.list:
        print(count)
    return 0


# -- parser --------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; ``parse_args``
    leaves it unchanged, so every call of :func:`main` shares it."""
    ap = argparse.ArgumentParser(
        prog="ordbench",
        description="Exact-arithmetic workbench for finite posets, antichain "
        "powerspaces, and probability valuations.",
    )
    # `main` runs the command `x-y` through the handler `_cmd_x_y`
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def fmt_flag(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output style (default: text)",
        )

    p = sub.add_parser("check-poset", help="validate a poset file, print a summary")
    p.add_argument("poset")
    fmt_flag(p)

    p = sub.add_parser("hasse", help="print cover pairs, or DOT with --dot")
    p.add_argument("poset")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("upper-sets", help="list every upper set")
    p.add_argument("poset")

    p = sub.add_parser("pathspace", help="cover-chain tree and endpoint map")
    p.add_argument("poset")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("fin", help="list the antichains (canonical finitary compacts)")
    p.add_argument("poset")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("monad-laws", help="check the three extension laws")
    p.add_argument("poset")
    p.add_argument("h", nargs="?", help="antichain-valued map file (default: unit)")
    p.add_argument("g", nargs="?", help="second map file (default: unit)")
    fmt_flag(p)

    p = sub.add_parser(
        "quasi-retraction",
        help="check section laws for a map, canonical section by default",
    )
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map", help="file of 'x -> y' lines")
    p.add_argument("qs", nargs="?", help="section file of 'y -> {x1, x2}' lines")
    fmt_flag(p)

    p = sub.add_parser("koenig", help="chain through descending antichain stages")
    p.add_argument("poset")
    p.add_argument("element")
    p.add_argument("stage", nargs="+", help="antichains, innermost last, e.g. 'a,b'")

    p = sub.add_parser("val-order", help="decide nu <= mu in the pointwise order")
    p.add_argument("poset")
    p.add_argument("nu")
    p.add_argument("mu")
    p.add_argument("--mode", choices=("flow", "oracle", "both"), default="flow")
    fmt_flag(p)

    p = sub.add_parser("val-waybelow", help="decide strict approximation")
    p.add_argument("poset")
    p.add_argument("nu")
    p.add_argument("mu")
    fmt_flag(p)

    p = sub.add_parser("val-mub", help="minimal common upper bounds on a grid")
    p.add_argument("poset")
    p.add_argument("nu1")
    p.add_argument("nu2")
    p.add_argument("--grid", type=int, required=True, metavar="N")

    p = sub.add_parser("val-maxbelow", help="maximal grid approximants from below")
    p.add_argument("poset")
    p.add_argument("nu")
    p.add_argument("--grid", type=int, required=True, metavar="N")

    p = sub.add_parser("val-grid", help="list grid valuations, or their order as DOT")
    p.add_argument("poset")
    p.add_argument("--grid", type=int, required=True, metavar="N")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("val-push", help="transport a valuation along a map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map", help="file of 'x -> y' lines")
    p.add_argument("nu")
    p.add_argument(
        "--preimage", action="store_true",
        help="lift from the target instead (needs a surjective map)",
    )

    p = sub.add_parser(
        "demo-failed-deflations",
        help="run the three rounding schemes, exit 1 when witnesses appear",
    )
    p.add_argument("poset")
    p.add_argument("nu", nargs="?", help="valuation (default: scan the whole grid)")
    p.add_argument("--grid", type=int, required=True, metavar="N")

    p = sub.add_parser("lazy", help="countable-poset queries: leq, family, witness, truncate")
    p.add_argument("kind", choices=lz.KINDS)
    p.add_argument("action", choices=("leq", "family", "witness", "truncate"))
    p.add_argument("args", nargs="*")
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("enumerate-posets", help="count (or list) labeled posets")
    p.add_argument("n", type=int)
    p.add_argument("--list", action="store_true")

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a handler replaced after start-up still runs
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
        sys.stdout.flush()  # inside the guard, so a pipe closed late is caught too
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, so the flush at
        # exit does not fail again, and exit as a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (PosetError, ValuationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
