"""The three seeded workloads, as fixed op lists.

Sizes follow a fixed schedule per workload, so every seed has the same mix of
op classes and input sizes; the seed draws the poset structures, supports,
masses and maps. The library only ever receives the generated texts and
files. Every op's ``run`` parses its text inputs and makes the call under the
clock; its ``check`` compares the result with the independent computations
in ``checks`` afterwards.

Why these three:

``order-flow``
    decides nu <= mu with a certificate. The transport (max-flow) kernel does
    nearly all the work and no upper set is enumerated, so a flow change
    shows here and an upper-set change shows nothing. Half the pairs hold
    (mu moves nu's mass upward; a full flow is needed), half fail (the same
    pair reversed; the flow stops at a cut).
``upper-mass``
    one cold upper-set listing per poset, then warm queries on the same
    object. Tall posets are dominated by the 2^n scan, wide ones by Fraction
    mass summation, so an enumeration change and a mass-kernel change each
    show on their own half. Grid dominance and the rounding schemes ride
    along on tiny pointed posets.
``structure``
    closure, covers, path spaces, law checkers, antichain enumeration and the
    CLI golden replays: no valuation kernel runs outside the goldens' CLI
    calls, so a closure or path-space change shows here only.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction
from typing import Dict, List, Tuple

import checks as ck
from checks import Order
from harness import Op

WORKLOADS = ("order-flow", "upper-mass", "structure")


class CliRefused(Exception):
    """``cli.main`` exited 2 (usage, parse or precondition error)."""


def cli_call(tr, cli, argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tr.call("cli.main", cli.main, argv)
        except SystemExit as exc:  # argparse rejects its input by exiting
            code = exc.code if isinstance(exc.code, int) else 2
    if code == 2:
        raise CliRefused(err.getvalue().strip())
    return code, out.getvalue()


def spread(lo: int, hi: int, count: int) -> List[int]:
    """``count`` sizes evenly from lo to hi: the fixed size schedule."""
    if count == 1:
        return [lo]
    return [lo + round((hi - lo) * k / (count - 1)) for k in range(count)]


def make_order(rng, kind: str, size) -> Order:
    """A generated poset: ``size`` is a pair for chain products."""
    if kind == "chain":
        return ck.chain(size)
    if kind == "prod":
        return ck.chain_product(*size)
    if kind == "sparse":
        return ck.random_sparse(rng, size, 3.0 / size)
    if kind == "diamond":
        return ck.diamond_power(size)
    if kind == "anti":
        return ck.antichain(size)
    return pinned_pointed(rng, size)


# Upper-set count of the random pointed posets at edge density 0.4, per
# size: a common count, so the seed draws where the edges go but hardly how
# many upper sets (and antichains) the mass loops and enumerations meet.
# Counts within a tenth of it are taken; an exact match would need dozens of
# draws, and their number would make set-up time vary with the seed.
RAND_UPPERS = {4: 7, 5: 11, 6: 13, 8: 23, 10: 37, 12: 41, 14: 49, 16: 58, 18: 75}


def pinned_pointed(rng, n: int, prefix: str = "e") -> Order:
    while True:
        order = ck.random_pointed(rng, n, 0.4, prefix)
        if abs(len(order.upper_masks()) - RAND_UPPERS[n]) <= RAND_UPPERS[n] // 10:
            return order


def grid_shape(n: int) -> Tuple[int, int]:
    a = max(2, round(n**0.5))
    return a, max(2, round(n / a))


def composition(rng, total: int, slots: List[int], size: int) -> List[int]:
    """``total`` units spread over the given slots, each slot at least one."""
    counts = [0] * size
    for i in slots:
        counts[i] = 1
    for _ in range(total - len(slots)):
        counts[rng.choice(slots)] += 1
    return counts


def move_up(rng, order: Order, counts: List[int]) -> List[int]:
    """Move half of each support point's mass, rounded down, to one random
    element strictly above it, and at least one unit in all, so the result
    sits strictly above the input on at most twice its support."""
    out = list(counts)
    moved = False
    for i, c in enumerate(counts):
        above = list(ck.bits(order.up[i] & ~(1 << i)))
        if above and c >= 2:
            out[i] -= c // 2
            out[rng.choice(above)] += c // 2
            moved = True
    if not moved:
        i = next(i for i, c in enumerate(counts) if c and order.up[i] != 1 << i)
        out[i] -= 1
        out[next(ck.bits(order.up[i] & ~(1 << i)))] += 1
    return out


def move_down(rng, order: Order, counts: List[int]) -> List[int]:
    out = [0] * len(order)
    for i, c in enumerate(counts):
        below = list(ck.bits(order.down[i]))
        for _ in range(c):
            out[rng.choice(below)] += 1
    return out


# -- order-flow -------------------------------------------------------------------

# Library decisions per pass, with poset sizes and common denominators
# spread geometrically from the first to the last value of each pair: the
# sizes form a continuum, so the median and the tail each fall among ops of
# neighbouring sizes, whatever the seed draws. Supports cycle through the
# shares of n in FLOW_SHARES (0 stands for two points), capped at
# FLOW_POINTS / n points: the dense flow costs (2n+2)^2 per augmenting path,
# so wide supports at n = 100 would cost a second per op and let a few ops
# decide the whole pass time.
FLOW_OPS = 92
FLOW_N = (16, 100)
FLOW_D = (6, 60)
FLOW_SHARES = (0, 1 / 4, 1 / 2, 1)
FLOW_POINTS = 300
FLOW_CLI = (12, (16, 32), (6, 24))


def geometric(lo: float, hi: float, count: int) -> List[int]:
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]


def flow_inputs(rng, n: int, d: int, support: int, kind: int):
    if kind % 2:
        a, b = grid_shape(n)
        order = ck.chain_product(a, b)
    else:
        order = ck.random_pointed(rng, n, min(0.5, 3.0 / n))
    n = len(order)
    support = max(2, min(support, d, n, FLOW_POINTS // n))
    slots = [0] + rng.sample(range(1, n), support - 1)
    low = composition(rng, d, slots, n)
    high = move_up(rng, order, low)
    return order, low, high


def flow_check(order, nu, mu, d, holds):
    def check(rep):
        if rep.result != holds:
            return f"decided {rep.result}, expected {holds}"
        if holds:
            if rep.transport is None:
                return "no transport plan for a pair that holds"
            return ck.coupling_problem(order, rep.transport.items(), nu, mu, d)
        if rep.violating_upper is None:
            return "no violating upper set for a pair that fails"
        return ck.violation_problem(order, rep.violating_upper, nu, mu)

    return check


def flow_report_op(ob, order, nu, mu, d, holds) -> Op:
    text, t_nu, t_mu = order.text(), ck.val_text(order, nu, d), ck.val_text(order, mu, d)

    def run(tr):
        P = tr.call("posets.parse", ob.parse_poset, text)
        a = tr.call("valuations.parse", ob.parse_valuation, P, t_nu)
        b = tr.call("valuations.parse", ob.parse_valuation, P, t_mu)
        rep = tr.call("valuations.flow", ob.stochastic_leq_report, a, b)
        tr.add("valuations.flow.true", int(rep.result))
        tr.add("valuations.flow.plan_pairs_out", len(rep.transport or ()))
        return rep

    return Op("flow.report", f"{text}|{t_nu}|{t_mu}", run, flow_check(order, nu, mu, d, holds), len(order) * d)


def flow_cli_op(cli, path, order, nu, mu, d, holds) -> Op:
    argv = ["val-order", path, ck.val_text(order, nu, d), ck.val_text(order, mu, d)]

    def run(tr):
        return cli_call(tr, cli, argv)

    def check(res):
        code, out = res
        if code != (0 if holds else 1):
            return f"exit {code}, expected {0 if holds else 1}"
        fields = dict(line.split(": ", 1) for line in out.splitlines())
        if fields.get("result") != ("true" if holds else "false"):
            return f"printed result {fields.get('result')!r}"
        if holds:
            return ck.coupling_problem(order, ck.parse_plan_text(fields.get("transport", "")), nu, mu, d)
        upper = [x.strip() for x in fields.get("violating_upper", "{}").strip("{}").split(",") if x.strip()]
        return ck.violation_problem(order, upper, nu, mu)

    return Op("flow.cli", " ".join(argv[2:]) + "|" + order.text(), run, check, len(order) * d)


def build_order_flow(ob, cli, rng, workdir: str) -> List[List[Op]]:
    ops: List[Op] = []
    for k, (n, d) in enumerate(zip(geometric(*FLOW_N, FLOW_OPS), geometric(*FLOW_D, FLOW_OPS))):
        support = round(n * FLOW_SHARES[k // 4 % len(FLOW_SHARES)])
        order, low, high = flow_inputs(rng, n, d, support, k // 2)
        holds = k % 2 == 0
        nu, mu = (low, high) if holds else (high, low)
        ops.append(flow_report_op(ob, order, nu, mu, d, holds))
    count, (n_lo, n_hi), (d_lo, d_hi) = FLOW_CLI
    for j, (n, d) in enumerate(zip(spread(n_lo, n_hi, count), spread(d_lo, d_hi, count))):
        order, low, high = flow_inputs(rng, n, d, (2, n // 3, n)[j % 3], j // 2)
        holds = j % 2 == 0
        nu, mu = (low, high) if holds else (high, low)
        path = write(workdir, f"flow{j}.poset", order.text())
        ops.append(flow_cli_op(cli, path, order, nu, mu, d, holds))
    rng.shuffle(ops)  # small and large decisions alternate within a pass
    return [[op] for op in ops]


def write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# -- upper-mass -------------------------------------------------------------------

WIDE = (12, 13)
# Each shape twice: the median op falls among the tall queries, whose costs
# follow the masses a seed draws, so more of them keep the median steady.
TALL = 2 * (
    ("chain", 12), ("chain", 14), ("chain", 16), ("chain", 18), ("chain", 20),
    ("prod", (3, 4)), ("prod", (3, 5)), ("prod", (4, 4)), ("prod", (3, 6)), ("prod", (4, 4)),
    ("rand", 12), ("rand", 14), ("rand", 14), ("rand", 16), ("rand", 16), ("rand", 18),
)
# (elements, grid denominator, ops): grid_poset only where the grid stays
# small, since its dominance pass is quadratic in the grid size.
GRID = (
    (4, 4, "PMXabc"), (4, 6, "PMXabc"), (4, 8, "MXabc"), (4, 10, "MXac"),
    (5, 4, "PMXabc"), (5, 6, "MXabc"), (5, 8, "MXac"), (6, 4, "PMXabc"), (6, 6, "MXac"),
)
# Known failure: strict approximation refuses posets above 20 elements.
WAYBELOW_TALL = ("chain", 21), ("prod", (3, 7)), ("chain", 23), ("prod", (5, 5))


def mass_pair(rng, order: Order, d: int, kind: str):
    """mu with wide support and nu of the given kind: ``below`` mu, its
    mass moved down and part of it to bottom; ``strict``ly below mu, every
    support point of mu sending at least one unit to bottom, so the mixing
    search stops at a small k; or ``unrelated``, with its own support."""
    n = len(order)
    mu = composition(rng, d, rng.sample(range(n), max(1, min(d, n) // 2)), n)
    if kind == "strict":
        nu = [rng.randrange(c) if c and i else 0 for i, c in enumerate(mu)]
        nu[0] = d - sum(nu)
    elif kind == "below":
        nu = move_down(rng, order, mu)
        for i in range(n):
            if nu[i] and i and rng.random() < 0.5:
                nu[0] += nu[i]
                nu[i] = 0
    else:
        nu = composition(rng, d, rng.sample(range(n), min(3, n)), n)
    return nu, mu


class Group:
    """Ops sharing one Poset object within a pass, cold listing first."""

    def __init__(self, order: Order):
        self.order = order
        self.P = None
        self.results: Dict[str, object] = {}
        self._uppers = None

    @property
    def uppers(self):
        if self._uppers is None:
            self._uppers = self.order.upper_masks()
        return self._uppers


def consume(tr, P) -> None:
    """Count an upper-set-consuming call, and whether the library already
    holds a listing for ``P`` (its ``_uppers_cache``), so the call is warm."""
    if tr.enabled:
        tr.add("posets.upper_sets.consumers", 1)
        tr.add("posets.upper_sets.warm", int(getattr(P, "_uppers_cache", None) is not None))


def upper_group_ops(ob, rng, order: Order, d: int, kinds: Tuple[str, str, str]) -> List[Op]:
    """A cold listing, then warm queries. ``kinds`` are the mass_pair kinds
    of the strict-approximation queries, the order query and the
    tightly-below query."""
    g = Group(order)
    text = order.text()
    n = len(order)

    def cold(tr):
        g.P = tr.call("posets.parse", ob.parse_poset, text)
        consume(tr, g.P)
        sets = tr.call("posets.upper_sets", g.P.upper_sets)
        tr.add("posets.upper_sets.sets_out", len(sets))
        return sets

    def cold_check(sets):
        want = {order.names_of(U) for U in g.uppers}
        if len(sets) != len(want) or set(sets) != want:
            return f"listed {len(sets)} upper sets, expected {len(want)}"
        return None

    ops = [Op("upper.cold", text, cold, cold_check, 2**n)]

    def query(cls, layer, fn, nu, mu, record, expect, **kw):
        t_nu, t_mu = ck.val_text(order, nu, d), ck.val_text(order, mu, d)

        def run(tr):
            a = tr.call("valuations.parse", ob.parse_valuation, g.P, t_nu)
            b = tr.call("valuations.parse", ob.parse_valuation, g.P, t_mu)
            consume(tr, g.P)
            res = tr.call(layer, fn, a, b, **kw)
            record(tr, res)
            return res

        ops.append(Op(cls, f"{text}|{t_nu}|{t_mu}", run, lambda res: expect(res, nu, mu), 2**n))

    def rec_wb(tr, rep):
        g.results["way_below"] = rep.result
        tr.add("valuations.upper_mass.violations_out", len(rep.violations))

    def check_wb(rep, nu, mu):
        kinds = ck.way_below_kinds(order, g.uppers, nu, mu)
        if rep.result != (not kinds):
            return f"way_below {rep.result}, criterion says {not kinds}"
        got = sorted(v["kind"] for v in rep.violations)
        if got != kinds:
            return f"violation kinds {got} != {kinds}"
        return None

    def rec_mix(tr, rep):
        k = rep.epsilon.denominator if rep.exists else rep.searched_up_to
        tr.add("valuations.upper_mass.mixing_k_tried", k)

    def check_mix(rep, nu, mu):
        k = ck.first_mixing_k(order, g.uppers, nu, mu)
        if rep.exists != (k is not None):
            return f"mixing exists={rep.exists}, closed form says {k is not None}"
        if rep.exists != g.results.get("way_below"):
            return "mixing_oracle disagrees with way_below_report"
        if k is not None and rep.epsilon != Fraction(1, k):
            return f"first epsilon {rep.epsilon}, closed form 1/{k}"
        return None

    def rec_flow(tr, res):
        tr.add("valuations.flow.true", int(res))

    def check_leq(res, nu, mu):
        want = ck.leq_on(g.uppers, nu, mu)
        return None if res == want else f"stochastic_leq {res}, expected {want}"

    def check_tight(res, nu, mu):
        want = ck.tightly_below(order, g.uppers, nu, mu)
        return None if res == want else f"tightly_below {res}, expected {want}"

    nothing = lambda tr, res: None  # noqa: E731
    nu, mu = mass_pair(rng, order, d, kinds[0])
    query("upper.way_below", "valuations.upper_mass", ob.way_below_report, nu, mu, rec_wb, check_wb)
    query("upper.mixing", "valuations.upper_mass", ob.mixing_oracle, nu, mu, rec_mix, check_mix)
    nu, mu = mass_pair(rng, order, d, kinds[1])
    query("upper.leq_both", "valuations.flow", ob.stochastic_leq, nu, mu, rec_flow, check_leq, mode="both")
    nu, mu = mass_pair(rng, order, d, kinds[2])
    query("upper.tightly_below", "valuations.upper_mass", ob.tightly_below, nu, mu, nothing, check_tight)
    return ops


def grid_ops(ob, n: int, N: int, which: str) -> List[Op]:
    """Grid and rounding ops on one pointed poset and two valuations per
    size and denominator, the same for every seed: how far the dominance
    and rounding searches go depends on the poset's shape and on where the
    valuations sit in the grid, and a few of these ops set the tail."""
    rng = random.Random(f"grid/{n}/{N}")
    order = pinned_pointed(rng, n, prefix="g")
    uppers = order.upper_masks()
    text = order.text()
    points = ck.compositions(N, n)
    k = len(points)
    vecs = {p: tuple(ck.mass(U, p) for U in uppers) for p in points}

    def below(a, b):
        return all(x <= y for x, y in zip(vecs[a], vecs[b]))

    def counts(v) -> Tuple[int, ...]:
        return tuple(int(w * N) for w in v.weights)

    v1 = tuple(composition(rng, N, rng.sample(range(n), 2), n))
    v2 = tuple(composition(rng, N, rng.sample(range(n), 2), n))
    ops: List[Op] = []

    def op(cls, layer, call, check, vals=()):
        texts = [ck.val_text(order, v, N) for v in vals]

        def run(tr):
            P = tr.call("posets.parse", ob.parse_poset, text)
            args = [tr.call("valuations.parse", ob.parse_valuation, P, t) for t in texts]
            consume(tr, P)
            res = tr.call(layer, call, *([P] if not vals else args), N)
            if layer == "valuations.grid":
                tr.add("valuations.grid.points_out", k)
                tr.add("valuations.grid.pairs_out", k * k)
            return res

        ops.append(Op(cls, f"{text}|{N}|{'|'.join(texts)}", run, check, k * len(uppers)))

    def minimal_set(got, candidates, lower_is_minimal):
        """got must be exactly the extreme elements of candidates."""
        got = [counts(v) for v in got]
        cand = set(candidates)
        for g_ in got:
            if g_ not in cand:
                return f"{g_} is not a candidate"
            for c in candidates:
                if c != g_ and vecs[c] != vecs[g_]:
                    if (below(c, g_) if lower_is_minimal else below(g_, c)):
                        return f"{g_} is not extreme: {c} beats it"
        for c in candidates:
            if not any((below(g_, c) if lower_is_minimal else below(c, g_)) for g_ in got):
                return f"candidate {c} is not covered by any returned element"
        return None

    def check_poset(G):
        got = [counts(v) for v in G.elements]
        if got != points:
            return f"grid has {len(got)} points, expected {k} in lexicographic order"
        step = max(1, k * k // 400)
        for idx in range(0, k * k, step):
            i, j = divmod(idx, k)
            if G.leq(G.elements[i], G.elements[j]) != below(points[i], points[j]):
                return f"grid order wrong at {points[i]} vs {points[j]}"
        return None

    def check_mub(got):
        ubs = [p for p in points if below(v1, p) and below(v2, p)]
        return minimal_set(got, ubs, True)

    def tight(p, nu):
        return ck.tightly_below(order, uppers, p, nu)

    def check_maxbelow(got):
        return minimal_set(got, [p for p in points if tight(p, v1)], False)

    def check_a(rep):
        for U in uppers:
            if rep.values.get(order.names_of(U)) != ck.strict_round(ck.mass(U, v1), N, N):
                return f"rounded mass of {sorted(order.names_of(U))} is wrong"
        f = {U: ck.strict_round(ck.mass(U, v1), N, N) for U in uppers}
        failing = [(U, V) for U in uppers for V in uppers if f[U | V] + f[U & V] != f[U] + f[V]]
        if rep.witness is None:
            return f"missed modularity failure {failing[0]}" if failing else None
        U, V = (order.mask(s) for s in rep.witness)
        return None if (U, V) in failing else "reported pair is modular"

    def rounded(p):
        out = [0] * n
        for i in range(1, n):
            out[i] = int(ck.strict_round(p[i], N, N) * N)
        out[0] = N - sum(out)
        return tuple(out)

    def check_b(rep):
        if counts(rep.rounded) != rounded(v1):
            return f"rounded {counts(rep.rounded)}, expected {rounded(v1)}"
        if rep.witness is None:
            return None
        lo, hi = (counts(v) for v in rep.witness)
        if not below(lo, hi) or below(rounded(lo), rounded(hi)):
            return "reported pair is no monotonicity failure"
        return None

    def check_c(rep):
        problem = check_maxbelow(rep.members)
        if problem:
            return problem
        if rep.cardinality != len(rep.members) or rep.unique != (len(rep.members) == 1):
            return "cardinality or uniqueness flag inconsistent"
        return None

    if "P" in which:
        op("grid.poset", "valuations.grid", ob.grid_poset, check_poset)
    if "M" in which:
        op("grid.mub", "valuations.grid", ob.minimal_upper_bounds_grid, check_mub, (v1, v2))
    if "X" in which:
        op("grid.maxbelow", "valuations.grid", ob.maximal_below_grid, check_maxbelow, (v1,))
    if "a" in which:
        op("rounding.a", "valuations.rounding", ob.failed_deflation_a, check_a, (v1,))
    if "b" in which:
        op("rounding.b", "valuations.rounding", ob.failed_deflation_b, check_b, (v1,))
    if "c" in which:
        op("rounding.c", "valuations.rounding", ob.failed_deflation_c, check_c, (v1,))
    return ops


def waybelow_tall_op(ob, rng, kind, size) -> Op:
    order = make_order(rng, kind, size)
    text = order.text()
    d = 12
    nu, mu = mass_pair(rng, order, d, "unrelated")
    t_nu, t_mu = ck.val_text(order, nu, d), ck.val_text(order, mu, d)

    def run(tr):
        P = tr.call("posets.parse", ob.parse_poset, text)
        a = tr.call("valuations.parse", ob.parse_valuation, P, t_nu)
        b = tr.call("valuations.parse", ob.parse_valuation, P, t_mu)
        consume(tr, P)
        return tr.call("valuations.upper_mass", ob.way_below_report, a, b)

    def check(rep):
        kinds = ck.way_below_kinds(order, order.upper_masks(), nu, mu)
        return None if rep.result == (not kinds) else f"way_below {rep.result}, expected {not kinds}"

    return Op("upper.way_below_tall", f"{text}|{t_nu}|{t_mu}", run, check, len(order), "PosetError")


def build_upper_mass(ob, cli, rng, workdir: str) -> List[List[Op]]:
    groups: List[List[Op]] = []
    # The pair kinds fix how much of its search each query makes, so the
    # masses a seed draws hardly move an op's cost: strict pairs stop the
    # mixing search at a small k and keep tightly_below from stopping at a
    # first violation; pairs below keep the oracle of leq_both from stopping
    # at one; unrelated pairs run the mixing search to its end, 2 * #upper
    # sets * denominator steps. A below pair's mixing search would stop at a
    # k its masses decide. On wide posets a search to the end is about 2e5
    # steps at width 13, so they get strict pairs only.
    for w in WIDE:
        groups.append(upper_group_ops(ob, rng, ck.bottom_antichain(w), 12, ("strict", "below", "strict")))
    for j, (kind, size) in enumerate(TALL):
        kinds = ("unrelated" if j % 2 else "strict", "below", "strict")
        groups.append(upper_group_ops(ob, rng, make_order(rng, kind, size), 12, kinds))
    singles = [op for n, N, which in GRID for op in grid_ops(ob, n, N, which)]
    singles.extend(waybelow_tall_op(ob, rng, kind, size) for kind, size in WAYBELOW_TALL)
    # Groups stay contiguous (cold listing, then its warm queries); groups
    # and single ops are shuffled among each other.
    units = groups + [[op] for op in singles]
    rng.shuffle(units)
    return units


# -- structure --------------------------------------------------------------------

COVERS = (
    ("chain", 150), ("chain", 300), ("chain", 600), ("chain", 900),
    ("prod", (10, 10)), ("prod", (15, 20)), ("prod", (20, 30)),
    ("sparse", 100), ("sparse", 200), ("sparse", 300), ("sparse", 400),
)
PATHS = (
    ("prod", (3, 4)), ("prod", (4, 4)), ("prod", (4, 5)), ("prod", (5, 5)), ("prod", (3, 6)), ("prod", (4, 6)),
    ("diamond", 2), ("diamond", 2), ("diamond", 3),
)
FIN = (
    ("prod", (3, 3)), ("prod", (3, 5)), ("prod", (4, 4)), ("prod", (4, 5)), ("prod", (5, 5)),
    ("anti", 6), ("anti", 7), ("anti", 8), ("anti", 9), ("rand", 8), ("rand", 10), ("rand", 12),
)
SECTIONS = ((8, 2), (12, 2), (16, 3), (20, 2), (24, 3), (10, 3), (14, 2), (18, 3))
DEFLATIONS = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6), (3, 5))
LAZY = (
    ("n2", 4), ("t", 3), ("nsum", 6), ("n2", 12), ("t", 8), ("n2", 25), ("t", 14), ("nsum", 30),
    ("n2", 40), ("t", 20), ("nsum", 50), ("t", 30),
)
KOENIG = (50, 120, 250, 400, 550, 700, 800)
# Known failure: the stage search recurses once per stage.
KOENIG_DEEP = (1001, 1100, 1200)

DIAMOND = "elements: bot a b top\norder: bot < a; bot < b; a < top; b < top\n"
# CLI commands behind the golden files: (file, argv after the poset, exit code).
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


def covers_op(ob, rng, kind, size) -> Op:
    order = make_order(rng, kind, size)
    text = order.text()
    n = len(order)
    want = None

    def run(tr):
        P = tr.call("posets.parse", ob.parse_poset, text)
        return len(P), tr.call("posets.covers", P.covers)

    def check(res):
        nonlocal want
        size_, cov = res
        if size_ != n:
            return f"{size_} elements, expected {n}"
        if kind == "prod" and len(cov) != ck.chain_product_covers(*size):
            return f"{len(cov)} covers, closed form {ck.chain_product_covers(*size)}"
        if kind == "chain" and len(cov) != n - 1:
            return f"{len(cov)} covers on a chain of {n}"
        if want is None:
            want = sorted(order.covers_from_edges())
        got = [(order.index[a], order.index[b]) for a, b in cov]
        return None if got == want else "cover pairs differ from the generated reduction"

    return Op("struct.covers", text, run, check, n * n)


def tree_paths(order: Order) -> List[Tuple[str, ...]]:
    """Cover chains from the bottom in depth-first order, children in element
    order, built from the generated edges."""
    kids: List[List[int]] = [[] for _ in range(len(order))]
    for i, j in sorted(order.covers_from_edges()):
        kids[i].append(j)
    out = []
    stack = [(0,)]
    while stack:
        path = stack.pop()
        out.append(tuple(order.names[i] for i in path))
        for c in reversed(kids[path[-1]]):
            stack.append(path + (c,))
    return out


def path_ops(ob, rng, kind, size) -> List[Op]:
    order = make_order(rng, kind, size)
    text = order.text()
    want = ck.chain_product_paths(*size) if kind == "prod" else ck.diamond_power_paths(size)
    paths = tree_paths(order)
    state: Dict[str, object] = {}

    def run(tr):
        Y = tr.call("posets.parse", ob.parse_poset, text)
        tree, end = tr.call("treeval.path_space", ob.path_space, Y)
        state["tree"] = tree
        tr.add("treeval.path_space.paths_out", len(tree))
        return tree, end

    def check(res):
        tree, end = res
        if len(tree) != want:
            return f"{len(tree)} paths, closed form {want}"
        if list(tree.elements) != paths:
            return "paths differ from the generated cover chains"
        if any(end(p) != p[-1] for p in paths):
            return "endpoint map is wrong"
        return None

    ops = [Op("struct.path_space", text, run, check, want)]
    # Two valuations on the tree, by path index, and their filter masses.
    weights = []
    for _ in range(2):
        picks = rng.sample(range(len(paths)), min(4, len(paths)))
        counts = composition(rng, 12, picks, len(paths))
        weights.append({paths[i]: Fraction(c, 12) for i, c in enumerate(counts) if c})
    prefix_of = {p: i for i, p in enumerate(paths)}
    parent = [prefix_of.get(p[:-1], -1) for p in paths]

    def filter_mass(w):
        f = [Fraction(0)] * len(paths)
        for p, m in w.items():
            i = prefix_of[p]
            while i >= 0:
                f[i] += m
                i = parent[i]
        return f

    def run_adm(tr):
        tree = state["tree"]
        maps = []
        for w in weights:
            v = tr.call("valuations.parse", ob.Valuation, tree, w)
            maps.append(tr.call("treeval.admissible", ob.valuation_to_admissible, v))
        return maps, tr.call("treeval.admissible", ob.admissible_lub, *maps)

    def check_adm(res):
        maps, lub = res
        fs = [filter_mass(w) for w in weights]
        for f, m in zip(fs, maps):
            if list(m.values) != f:
                return "filter masses differ from the path-prefix sums"
        vals = [Fraction(0)] * len(paths)
        kids_sum = [Fraction(0)] * len(paths)
        for i in range(len(paths) - 1, -1, -1):  # children come after parents
            vals[i] = max(fs[0][i], fs[1][i], kids_sum[i])
            if parent[i] >= 0:
                kids_sum[parent[i]] += vals[i]
        want_lub = None if vals[0] > 1 else vals
        got = None if lub is None else list(lub.values)
        return None if got == want_lub else "least upper bound differs from the children-first fold"

    ops.append(Op("struct.admissible", text + repr(weights), run_adm, check_adm, want))
    return ops


def up_min_map(rng, order: Order) -> Dict[str, List[str]]:
    """h(x) = minimal elements of (up x) & R, with R holding every maximal
    element: monotone into the antichain order, so the laws must hold."""
    R = sum(1 << i for i in range(len(order)) if order.up[i] == 1 << i or rng.random() < 0.4)
    return {order.names[i]: [order.names[j] for j in ck.bits(order.minimal(order.up[i] & R))] for i in range(len(order))}


def finmap_text(table: Dict[str, List[str]]) -> str:
    return "".join(f"{x} -> {{{', '.join(v)}}}\n" for x, v in table.items())


def fin_op(ob, rng, kind, size) -> Op:
    order = make_order(rng, kind, size)
    text = order.text()
    h_text = finmap_text(up_min_map(rng, order))
    g_text = finmap_text(up_min_map(rng, order))
    if kind == "prod":
        want = ck.chain_product_upper_sets(*size) - 1
    elif kind == "anti":
        want = 2**size - 1
    else:
        want = len(order.antichains()) - 1

    def run(tr):
        P = tr.call("posets.parse", ob.parse_poset, text)
        fin = tr.call("smyth.fin_antichains", ob.fin_antichains, P)
        tr.add("smyth.fin_antichains.antichains_out", len(fin))
        h = tr.call("smyth.laws", ob.parse_finmap, P, P, h_text)
        g = tr.call("smyth.laws", ob.parse_finmap, P, P, g_text)
        return fin, tr.call("smyth.laws", ob.check_monad_laws, P, h, g)

    def check(res):
        fin, rep = res
        if len(fin) != want:
            return f"{len(fin)} antichains, expected {want}"
        problem = ck.antichain_family_problem(order, fin)
        if problem:
            return problem
        return None if rep.ok and rep.witness is None else f"law violated: {rep.witness}"

    return Op("struct.fin_laws", text + h_text + g_text, run, check, want)


def section_op(ob, rng, n, k) -> Op:
    Y = ck.random_pointed(rng, n, 0.3, prefix="y")
    names = [f"{y}.{c}" for y in Y.names for c in range(k)]
    edges = [(i * k + c, j * k + c) for i, j in Y.edges for c in range(k)]
    edges += [(i * k + c, i * k + c + 1) for i in range(n) for c in range(k - 1)]
    X = Order(names, edges)
    x_text, y_text = X.text(), Y.text()
    m_text = "".join(f"{y}.{c} -> {y}\n" for y in Y.names for c in range(k))

    def run(tr):
        Xp = tr.call("posets.parse", ob.parse_poset, x_text)
        Yp = tr.call("posets.parse", ob.parse_poset, y_text)
        r = tr.call("posets.parse", ob.parse_map, Xp, Yp, m_text)
        qs = tr.call("smyth.laws", ob.canonical_quasi_section, r)
        return qs, tr.call("smyth.laws", ob.check_quasi_retraction, r, qs)

    def check(res):
        qs, rep = res
        if any(qs(y) != (f"{y}.0",) for y in Y.names):
            return "canonical section is not the bottom layer"
        return None if rep.ok and rep.canonical else f"section laws fail: {rep.witness}"

    return Op("struct.quasi_section", x_text + m_text, run, check, n * k)


def deflation_ops(ob, rng, a, b) -> List[Op]:
    order = ck.chain_product(a, b)
    text = order.text()
    c1, c2 = rng.randrange(a), rng.randrange(b)

    def clamp(i, j):
        return {f"p{min(i, c1)}_{j}", f"p{i}_{min(j, c2)}"}

    table = {}
    for i in range(a):
        for j in range(b):
            S = order.mask(clamp(i, j))
            table[f"p{i}_{j}"] = [order.names[t] for t in ck.bits(order.minimal(S))]
    broken = dict(table)
    bad = rng.choice([x for x in order.names if order.up[order.index[x]] != 1 << order.index[x]])
    i_bad = order.index[bad]
    broken[bad] = [order.names[next(ck.bits(order.up[i_bad] & ~(1 << i_bad)))]]
    small = ck.chain_product(2, 3, prefix="q")
    small_text = small.text()
    small_table = {f"q{i}_{j}": [f"q0_{j}"] for i in range(2) for j in range(3)}
    ops = []

    def expected_report(tab):
        vals = {x: order.mask(v) for x, v in tab.items()}
        up_of = {x: 0 for x in vals}
        for x, m in vals.items():
            for i in ck.bits(m):
                up_of[x] |= order.up[i]
        member = tuple(x for x in order.names if not up_of[x] >> order.index[x] & 1)
        mono = tuple(
            (x, y)
            for x in order.names
            for y in order.names
            if x != y and order.leq(order.index[x], order.index[y]) and vals[y] & ~up_of[x]
        )
        return member, mono

    for cls, tab in (("struct.qd_check", table), ("struct.qd_check_broken", broken)):
        qd_text = finmap_text(tab)
        member, mono = expected_report(tab)

        def run(tr, qd_text=qd_text):
            P = tr.call("posets.parse", ob.parse_poset, text)
            phi = tr.call("deflations", ob.parse_quasi_deflation, P, qd_text, check=False)
            return tr.call("deflations", ob.check_quasi_deflation, P, phi.as_dict())

        def check(rep, member=member, mono=mono):
            want = (not member and not mono, member, mono)
            got = (rep.valid, tuple(rep.membership_violations), tuple(rep.monotonicity_violations))
            return None if got == want else f"report {got[:1]} differs from the independent check"

        ops.append(Op(cls, text + qd_text, run, check, len(order) ** 2))

    qd_text = finmap_text(table)
    small_qd = finmap_text(small_table)

    def run_compose(tr):
        P = tr.call("posets.parse", ob.parse_poset, text)
        Q = tr.call("posets.parse", ob.parse_poset, small_text)
        phi = tr.call("deflations", ob.parse_quasi_deflation, P, qd_text)
        psi = tr.call("deflations", ob.parse_quasi_deflation, Q, small_qd)
        sc = tr.call("deflations", ob.qd_self_compose, phi)
        return sc, tr.call("deflations", ob.product_qd, phi, psi)

    def check_compose(res):
        sc, prod = res
        for x in order.names:
            union = 0
            for z in table[x]:
                union |= order.mask(table[z])
            if set(sc(x)) != order.names_of(order.minimal(union)):
                return f"self-composite at {x} is {sc(x)}"
        if len(prod.poset) != len(order) * len(small):
            return "product has the wrong size"
        for x in order.names:
            for y in small.names:
                if set(prod((x, y))) != {(m, k) for m in table[x] for k in small_table[y]}:
                    return f"product value at {(x, y)} is wrong"
        return None

    ops.append(Op("struct.qd_compose", text + qd_text, run_compose, check_compose, len(order) ** 2))
    return ops


def lazy_op(ob, rng, kind, k) -> Op:
    sizes = {"n2": 2 * (k + 1) + 2, "t": 2 * k + 2, "nsum": 2 * (k + 1) + 3}
    la, lb = rng.randrange(k), rng.randrange(k)
    if kind == "t":
        la, lb = max(la, lb), min(la, lb)  # level(y) <= level(x): x is not below y
        x, y = f"n:{rng.randrange(2)}:{la}", f"n:{rng.randrange(2)}:{lb}"
        if x == y:
            y = f"n:{1 - int(x[2])}:{lb}"
    else:
        x, y = f"n:0:{la}", f"n:1:{lb}"
    bits = [rng.randrange(2) for _ in range(min(k, 8))]
    witness = kind != "nsum"

    def run(tr):
        L = tr.call("lazy", ob.LazyPoset, kind)
        trunc = tr.call("lazy", ob.truncate, L, k)
        w = None
        if witness:
            cx = tr.call("lazy", ob.parse_code, x)
            cy = tr.call("lazy", ob.parse_code, y)
            w = tr.call("lazy", ob.family_witness, L, cx, cy)
        g = tr.call("lazy", ob.hat_f, bits)
        return len(trunc.poset), w, tr.call("lazy", ob.hat_f_rigidity_check, g, bits)

    def check(res):
        size, w, rigid = res
        if size != sizes[kind]:
            return f"truncation has {size} elements, expected {sizes[kind]}"
        c = max(la, lb) + 1
        if witness and w != ((c, c) if kind == "n2" else c):
            return f"witness index {w}, expected level {c}"
        return None if rigid else "rigidity check failed on the swap map itself"

    return Op("struct.lazy", f"{kind}|{k}|{x}|{y}|{bits}", run, check, k)


def koenig_op(ob, rng, depth: int, known: str = "") -> Op:
    m = 6
    below_y = [i for i in range(m) if rng.random() < 0.5] or [0]
    names = ["bot"] + [f"s{i}" for i in range(m)] + ["y"]
    edges = [(0, i + 1) for i in range(m)] + [(i + 1, m + 1) for i in below_y]
    text = Order(names, edges).text()
    stage = sorted(set(rng.sample(range(m), 3)) | {rng.choice(below_y)})
    stage_text = ",".join(f"s{i}" for i in stage)
    want = [f"s{next(i for i in stage if i in below_y)}"] * depth

    def run(tr):
        P = tr.call("posets.parse", ob.parse_poset, text)
        E = tr.call("smyth.koenig", ob.parse_antichain, P, stage_text)
        return tr.call("smyth.koenig", ob.koenig_chain, P, [E] * depth, "y")

    def check(chain):
        return None if list(chain) == want else "chain is not the least branch"

    cls = "struct.koenig_deep" if known else "struct.koenig"
    return Op(cls, f"{text}|{stage_text}|{depth}", run, check, depth, known)


def golden_ops(cli, diamond_path: str, golden_dir: str) -> List[Op]:
    ops = []
    for name, argv, code in GOLDENS:
        with open(os.path.join(golden_dir, name), encoding="utf-8") as fh:
            want = fh.read()
        args = [diamond_path if a == "{d}" else a for a in argv]

        def run(tr, args=args):
            return cli_call(tr, cli, args)

        def check(res, want=want, code=code):
            got_code, out = res
            if got_code != code:
                return f"exit {got_code}, expected {code}"
            return ck.text_problem(out, want)

        ops.append(Op("struct.golden", name, run, check, len(want)))
    return ops


def build_structure(ob, cli, rng, workdir: str, golden_dir: str) -> List[List[Op]]:
    units: List[List[Op]] = []
    units += [[covers_op(ob, rng, kind, size)] for kind, size in COVERS]
    units += [path_ops(ob, rng, kind, size) for kind, size in PATHS]
    units += [[fin_op(ob, rng, kind, size)] for kind, size in FIN]
    units += [[section_op(ob, rng, n, k)] for n, k in SECTIONS]
    units += [deflation_ops(ob, rng, a, b) for a, b in DEFLATIONS]
    units += [[lazy_op(ob, rng, kind, k)] for kind, k in LAZY]
    units += [[koenig_op(ob, rng, depth)] for depth in KOENIG]
    units += [[koenig_op(ob, rng, depth, "RecursionError")] for depth in KOENIG_DEEP]
    diamond = write(workdir, "diamond.poset", DIAMOND)
    units += [[op] for op in golden_ops(cli, diamond, golden_dir)]
    rng.shuffle(units)
    return units


def build(name: str, ob, cli, rng, workdir: str, golden_dir: str) -> List[List[Op]]:
    """The workload's op list as units: an op together with the ops that
    use its state within a pass (a cold listing and its warm queries, a path
    space and its tree valuations), in run order."""
    if name == "order-flow":
        return build_order_flow(ob, cli, rng, workdir)
    if name == "upper-mass":
        return build_upper_mass(ob, cli, rng, workdir)
    return build_structure(ob, cli, rng, workdir, golden_dir)
