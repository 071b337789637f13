"""End-to-end acceptance sweep.

Each test covers one advertised guarantee, prints a single PASS line with its
measurements (run pytest with ``-s`` to see them), and enforces the stated
wall-clock budget where one exists. Exhaustive sweeps run through independent
bitmask or numpy routes built here in the tests, with the library asserted
against them on systematic samples, so a library bug cannot hide in its own
oracle.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from ordbench import (
    FinMap,
    MonotoneMap,
    N2,
    T,
    Valuation,
    admissible,
    admissible_lub,
    canonical_quasi_section,
    check_monad_laws,
    check_quasi_retraction,
    dagger,
    enumerate_posets,
    failed_deflation_a,
    failed_deflation_b,
    failed_deflation_c,
    family_witness,
    fin_poset,
    grid,
    hat_f,
    hat_f_rigidity_check,
    maximal_below_grid,
    minimal_upper_bounds_grid,
    mixing_oracle,
    n2_family,
    node,
    parse_poset,
    path_space,
    pushforward,
    pushforward_preimage,
    smyth_map,
    stochastic_leq,
    t_family,
    valuation_to_admissible,
    way_below,
    way_below_report,
)
from ordbench.lazy import BOT, OMEGA, TOP

from oracles import (
    brute_stochastic_leq,
    monotone_maps,
    random_finmap,
    random_poset,
    random_valuation,
    rooted_trees,
    tree_poset,
)

F = Fraction
H = F(1, 2)
DIAMOND = parse_poset("elements: bot a b top\norder: bot < a; bot < b; a < top; b < top")


def _val(P, **weights):
    return Valuation(P, {k: F(v) for k, v in weights.items()})


def _report(num, message):
    print(f"PASS criterion {num}: {message}")


# -- helpers independent of the library's set machinery -----------------------------


def _leq_matrix(P):
    els = P.elements
    return [[P.leq(a, b) for b in els] for a in els]


def _up_masks(leq):
    n = len(leq)
    return [sum(1 << j for j in range(n) if leq[i][j]) for i in range(n)]


def _upper_set_masks(leq):
    """All upward-closed subsets as bitmasks, ascending."""
    n = len(leq)
    ups = _up_masks(leq)
    out = []
    for mask in range(1 << n):
        if all((ups[i] & mask) == ups[i] for i in range(n) if mask >> i & 1):
            out.append(mask)
    return out


def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _compositions(total, parts):
    """All ways to split ``total`` into ``parts`` nonnegative summands."""
    if parts == 1:
        yield (total,)
        return
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


# -- criteria 1-4: the diamond valuation stories -------------------------------------


def test_c01_four_largest_grid_approximants():
    start = time.monotonic()
    third = F(1, 3)
    nu = _val(DIAMOND, a=third, b=third, top=third)
    got = maximal_below_grid(nu, 3)
    expected = {
        _val(DIAMOND, bot=third, a=2 * third),
        _val(DIAMOND, bot=third, a=third, b=third),
        _val(DIAMOND, bot=2 * third, top=third),
        _val(DIAMOND, bot=third, b=2 * third),
    }
    assert set(got) == expected and len(got) == 4
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"4 maximal 1/3-grid approximants reproduced exactly in {elapsed:.3f}s")


def test_c02_minimal_upper_bound_family_shape():
    start = time.monotonic()
    nu1 = _val(DIAMOND, bot=H, a=H)
    nu2 = _val(DIAMOND, bot=H, b=H)
    total = 0
    for N in (2, 4, 6):
        expected = set()
        for k in range(N // 2 + 1):
            alpha = F(k, N)
            expected.add(
                Valuation(
                    DIAMOND,
                    {"bot": alpha, "a": H - alpha, "b": H - alpha, "top": alpha},
                )
            )
        got = minimal_upper_bounds_grid(nu1, nu2, N)
        assert set(got) == expected and len(got) == len(expected)
        total += len(got)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, f"one-parameter bound family exact at N=2,4,6 ({total} members, {elapsed:.3f}s)")


def test_c03_upper_bound_region_is_cut_out_by_two_inequalities():
    start = time.monotonic()
    nu1 = _val(DIAMOND, bot=H, a=H)
    nu2 = _val(DIAMOND, bot=H, b=H)
    checked = 0
    for N in range(1, 7):
        for mu in grid(DIAMOND, N):
            is_bound = stochastic_leq(nu1, mu) and stochastic_leq(nu2, mu)
            ineq = (
                mu.weight("a") + mu.weight("top") >= H
                and mu.weight("b") + mu.weight("top") >= H
            )
            assert is_bound == ineq
            checked += 1
    elapsed = time.monotonic() - start
    _report(3, f"region iff-condition exact over {checked} grid points, N<=6 ({elapsed:.3f}s)")


def test_c04_failed_deflations_are_falsified_automatically():
    start = time.monotonic()
    third = F(1, 3)

    out_a = failed_deflation_a(_val(DIAMOND, a=H, b=H), 2)
    assert out_a.witness is not None
    U, V = out_a.witness
    f = out_a.values
    assert f[U | V] + f[U & V] != f[U] + f[V]

    out_b = failed_deflation_b(_val(DIAMOND, a=F(1)), 2)
    assert out_b.witness is not None
    lo, hi = out_b.witness
    assert stochastic_leq(lo, hi)
    assert not stochastic_leq(
        failed_deflation_b(lo, 2).rounded, failed_deflation_b(hi, 2).rounded
    )

    out_c = failed_deflation_c(_val(DIAMOND, a=third, b=third, top=third), 3)
    assert out_c.cardinality == 4 and not out_c.unique

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(4, f"modularity, monotonicity, and non-uniqueness witnesses found ({elapsed:.3f}s)")


# -- criterion 5: monad laws ----------------------------------------------------------


def _monotone_finmap_tables(leq, nonempty_uppers):
    """All Smyth-monotone antichain-valued endomaps, as tuples of upper masks."""
    n = len(leq)
    out = []
    vals = [0] * n

    def rec(i):
        if i == n:
            out.append(tuple(vals))
            return
        for U in nonempty_uppers:
            ok = True
            for j in range(i):
                if leq[j][i] and (vals[j] & U) != U:
                    ok = False
                    break
                if leq[i][j] and (U & vals[j]) != vals[j]:
                    ok = False
                    break
            if ok:
                vals[i] = U
                rec(i + 1)

    rec(0)
    return out


def _mask_to_antichain(P, mask):
    return P.antichain_normalize([P.elements[i] for i in _bits(mask)])


def test_c05_monad_laws_exhaustive_small_and_random():
    start = time.monotonic()
    rng = random.Random(1405)
    pair_count = 0
    lib_checked = 0

    for n in (1, 2, 3):
        for P in enumerate_posets(n):
            leq = _leq_matrix(P)
            ups = _up_masks(leq)
            uppers = [m for m in _upper_set_masks(leq) if m]
            maps = _monotone_finmap_tables(leq, uppers)

            # unit law: extending the unit changes no upper set
            for U in uppers:
                got = 0
                for x in _bits(U):
                    got |= ups[x]
                assert got == U

            dags = []
            for h in maps:
                dag = {}
                for U in uppers:
                    m = 0
                    for x in _bits(U):
                        m |= h[x]
                    dag[U] = m
                dags.append(dag)
                # extension law: the lift restricted to points is the table
                for x in range(n):
                    assert dag[ups[x]] == h[x]

            for hi, h in enumerate(maps):
                dag_h = dags[hi]
                for gi in range(len(maps)):
                    g, dag_g = maps[gi], dags[gi]
                    for U in uppers:
                        m = 0
                        for x in _bits(U):
                            m |= dag_g[h[x]]
                        assert dag_g[dag_h[U]] == m
                    pair_count += 1

                    # library route: full at n <= 2, sampled at n = 3
                    if n <= 2 or pair_count % 997 == 0:
                        hmap = FinMap(
                            P, P, {P.elements[i]: _mask_to_antichain(P, h[i]) for i in range(n)}
                        )
                        gmap = FinMap(
                            P, P, {P.elements[i]: _mask_to_antichain(P, g[i]) for i in range(n)}
                        )
                        assert check_monad_laws(P, h=hmap, g=gmap).ok
                        lib_checked += 1

    random_count = 0
    for _ in range(1000):
        X = random_poset(rng, rng.randint(1, 6))
        Y = random_poset(rng, rng.randint(1, 6))
        Z = random_poset(rng, rng.randint(1, 6))
        h = FinMap(X, Y, random_finmap(rng, X, Y))
        g = FinMap(Y, Z, random_finmap(rng, Y, Z))
        assert check_monad_laws(X, h=h, g=g).ok
        random_count += 1

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        5,
        f"monad laws: {pair_count} exhaustive endomap pairs at n<=3 "
        f"({lib_checked} re-run through the library), {random_count} random "
        f"heterogeneous instances at n<=6, zero violations ({elapsed:.1f}s)",
    )


# -- criteria 6 and 7: section laws ----------------------------------------------------


def _surjective_monotone_tables(leqX, leqY):
    """All monotone surjections as value tuples (indices into Y)."""
    nX, nY = len(leqX), len(leqY)
    if nY > nX:
        return []
    out = []
    vals = [0] * nX
    seen = [0] * nY

    def rec(i, missing):
        if nX - i < missing:
            return
        if i == nX:
            out.append(tuple(vals))
            return
        for y in range(nY):
            ok = True
            for j in range(i):
                if leqX[j][i] and not leqY[vals[j]][y]:
                    ok = False
                    break
                if leqX[i][j] and not leqY[y][vals[j]]:
                    ok = False
                    break
            if ok:
                vals[i] = y
                was = seen[y]
                seen[y] += 1
                rec(i + 1, missing - (was == 0))
                seen[y] = was

    rec(0, nY)
    return out


def _section_upper_masks(leqY, r, nX):
    """Canonical section: the preimage upper mask of each principal filter."""
    return [
        sum(1 << x for x in range(nX) if leqY[y][r[x]])
        for y in range(len(leqY))
    ]


def _check_section_laws(r, pre, upsY, uppersY):
    """Both section laws plus the lifted-identity law, in mask arithmetic."""
    nX, nY = len(r), len(upsY)
    for y in range(nY):
        img = 0
        for x in _bits(pre[y]):
            img |= upsY[r[x]]
        if img != upsY[y]:
            return False
    for x in range(nX):
        if not pre[r[x]] >> x & 1:
            return False
    for V in uppersY:
        if not V:
            continue
        W = 0
        for y in _bits(V):
            W |= pre[y]
        img = 0
        for x in _bits(W):
            img |= upsY[r[x]]
        if img != V:
            return False
    return True


def test_c06_canonical_sections_satisfy_all_three_laws():
    start = time.monotonic()
    tables = [
        (P, _leq_matrix(P)) for n in (1, 2, 3, 4) for P in enumerate_posets(n)
    ]
    map_count = 0
    lib_checked = 0
    for X, leqX in tables:
        nX = len(X.elements)
        for Y, leqY in tables:
            if len(Y.elements) > nX:
                continue
            upsY = _up_masks(leqY)
            uppersY = _upper_set_masks(leqY)
            for r in _surjective_monotone_tables(leqX, leqY):
                pre = _section_upper_masks(leqY, r, nX)
                assert _check_section_laws(r, pre, upsY, uppersY)
                map_count += 1

                if map_count % 977 == 0:
                    rmap = MonotoneMap(
                        X, Y, {X.elements[i]: Y.elements[r[i]] for i in range(nX)}
                    )
                    qs = canonical_quasi_section(rmap)
                    rep = check_quasi_retraction(rmap, qs)
                    assert rep.ok and rep.canonical
                    ext = dagger(qs)
                    act = smyth_map(rmap)
                    for E in fin_poset(Y).elements:
                        assert act(ext(E)) == E
                    lib_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(
        6,
        f"canonical sections: {map_count} surjective monotone maps at n<=4 pass "
        f"retraction, projection, and lifted-identity laws "
        f"({lib_checked} re-run through the library) ({elapsed:.1f}s)",
    )


def _monotone_section_candidates(leqY, nonempty_uppersX):
    """All Smyth-monotone maps from Y into upper masks of X."""
    nY = len(leqY)
    out = []
    vals = [0] * nY

    def rec(i):
        if i == nY:
            out.append(tuple(vals))
            return
        for U in nonempty_uppersX:
            ok = True
            for j in range(i):
                if leqY[j][i] and (vals[j] & U) != U:
                    ok = False
                    break
                if leqY[i][j] and (U & vals[j]) != vals[j]:
                    ok = False
                    break
            if ok:
                vals[i] = U
                rec(i + 1)

    rec(0)
    return out


def test_c07_law_satisfying_sections_are_unique():
    start = time.monotonic()
    tables = [(P, _leq_matrix(P)) for n in (1, 2, 3) for P in enumerate_posets(n)]
    r_count = 0
    for X, leqX in tables:
        nX = len(X.elements)
        uppersX = [m for m in _upper_set_masks(leqX) if m]
        for Y, leqY in tables:
            if len(Y.elements) > nX:
                continue
            upsY = _up_masks(leqY)
            uppersY = _upper_set_masks(leqY)
            candidates = None
            for r in _surjective_monotone_tables(leqX, leqY):
                if candidates is None:
                    candidates = _monotone_section_candidates(leqY, uppersX)
                canonical = tuple(_section_upper_masks(leqY, r, nX))
                survivors = [
                    qs for qs in candidates if _check_section_laws(r, qs, upsY, uppersY)
                ]
                assert survivors == [canonical]
                r_count += 1
    elapsed = time.monotonic() - start
    _report(
        7,
        f"section uniqueness: for {r_count} surjective monotone maps at n<=3, "
        f"the only law-satisfying section is the minimal-preimage one ({elapsed:.1f}s)",
    )


# -- criterion 8: covering grid valuations through the path space ----------------------


def test_c08_every_small_grid_valuation_lifts_through_its_path_space():
    start = time.monotonic()
    pointed = [
        P for n in (1, 2, 3, 4) for P in enumerate_posets(n) if P.is_pointed
    ]
    assert len(pointed) == 88
    trips = 0
    for Y in pointed:
        Pi, r = path_space(Y)
        for N in (1, 2, 3):
            for nu in grid(Y, N):
                lifted = pushforward_preimage(r, nu)
                assert pushforward(r, lifted) == nu
                trips += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        8,
        f"pushforward surjectivity: {trips} grid valuations on all 88 pointed "
        f"posets (n<=4, N<=3) round-trip exactly ({elapsed:.1f}s)",
    )


# -- criterion 9: bounded-complete lubs of tree valuations ------------------------------


def _tree_tables(Tp):
    """leq matrix (numpy), children lists, children-first order, root index."""
    n = len(Tp.elements)
    idx = {e: i for i, e in enumerate(Tp.elements)}
    leq = np.zeros((n, n), dtype=np.int64)
    for a in Tp.elements:
        for b in Tp.elements:
            if Tp.leq(a, b):
                leq[idx[a], idx[b]] = 1
    children = [[] for _ in range(n)]
    for a, b in Tp.covers():
        children[idx[a]].append(idx[b])
    depth = leq.sum(axis=0)
    order = sorted(range(n), key=lambda i: -depth[i])
    return leq, children, order, idx[Tp.bottom()]


def _grid_coords(leq, N):
    """Integer filter-mass coordinates of every grid valuation, one row each."""
    n = leq.shape[0]
    atoms = np.array(list(_compositions(N, n)), dtype=np.int64)
    return atoms @ leq.T


def _pairwise_lub_coords(A, children, order):
    """``L[i, j]``: the least map above rows i and j that dominates child
    sums, for every i and j at once."""
    L = np.zeros((A.shape[0],) + A.shape, dtype=A.dtype)
    for t in order:
        best = np.maximum(A[:, None, t], A[None, :, t])
        if children[t]:
            best = np.maximum(best, L[:, :, children[t]].sum(axis=2))
        L[:, :, t] = best
    return L


def test_c09_binary_lubs_are_least_grid_upper_bounds():
    start = time.monotonic()
    Pi, _ = path_space(DIAMOND)
    B0, PA, PAT = ("bot",), ("bot", "a"), ("bot", "a", "top")
    PB, PBT = ("bot", "b"), ("bot", "b", "top")

    g1 = admissible(Pi, {B0: 1, PA: H, PAT: H, PB: H, PBT: 0})
    g2 = admissible(Pi, {B0: 1, PA: F(1, 4), PAT: F(1, 4), PB: H, PBT: H})
    lub = admissible_lub(g1, g2)
    assert lub is not None
    assert {p: lub(p) for p in Pi.elements} == {B0: 1, PA: H, PAT: H, PB: H, PBT: H}

    rng = random.Random(1409)
    trees = [Pi] + [tree_poset(s) for n in range(1, 8) for s in rooted_trees(n)]
    assert len(trees) == 86
    pair_count = 0
    lib_checked = 0
    for Tp in trees:
        leq, children, order, root = _tree_tables(Tp)
        for N in (1, 2, 3, 4):
            A = _grid_coords(leq, N)
            M = A.shape[0]
            # G[k, j]: A[k] >= A[j]; A[k] >= max(A[j], A[i]) iff G[k, j] and G[k, i]
            G = (A[:, None, :] >= A[None, :, :]).all(axis=2)
            fs = perm = None
            lubs = _pairwise_lub_coords(A, children, order)
            bounded = lubs[:, :, root] <= N  # [i, j]
            # some A[k] dominates rows i and j iff (G^T G)[i, j] > 0
            Gi = G.astype(np.int64)
            assert ((Gi.T @ Gi > 0) == bounded).all()
            # for each bounded pair (i, j), every A[k] that dominates rows i and
            # j dominates their lub L, whose coordinates lie in 0..N. Sets of
            # points k are packed bits: ge[t, v] holds the k with A[k, t] >= v,
            # so the k above L are the AND over t of ge[t, L[t]]
            ge = np.packbits(A.T[:, None, :] >= np.arange(N + 1)[None, :, None], axis=2)
            ups = np.packbits(G.T, axis=1)  # ups[i]: the k with A[k] >= A[i]
            ii, jj = np.nonzero(bounded)
            above = np.bitwise_and.reduce(ge[np.arange(A.shape[1]), lubs[ii, jj]], axis=1)
            least_ok = ~(ups[ii] & ups[jj]) | above
            assert (least_ok == 255).all()
            pair_count += M * M
            for i in range(M):
                if rng.random() < 2.0 / M:
                    if fs is None:
                        fs = [valuation_to_admissible(v) for v in grid(Tp, N)]
                        rows = {
                            tuple(int(f(t) * N) for t in Tp.elements): k
                            for k, f in enumerate(fs)
                        }
                        perm = [rows[tuple(int(c) for c in row)] for row in A]
                    j = rng.randrange(M)
                    got = admissible_lub(fs[perm[i]], fs[perm[j]])
                    if bounded[i, j]:
                        assert got is not None
                        assert [int(got(t) * N) for t in Tp.elements] == list(lubs[i, j])
                    else:
                        assert got is None
                    lib_checked += 1
    elapsed = time.monotonic() - start
    _report(
        9,
        f"bounded completeness: {pair_count} grid pairs on 86 trees (N<=4) have "
        f"least upper bounds exactly when the child-sum recursion stays within "
        f"mass ({lib_checked} pairs re-run through the library) ({elapsed:.1f}s)",
    )


# -- criterion 10: the two order decision procedures agree ------------------------------


def test_c10_flow_decision_matches_upper_set_quantification():
    start = time.monotonic()
    rng = random.Random(1410)
    agreements = 0
    for _ in range(2000):
        P = random_poset(rng, rng.randint(1, 8))
        nu = random_valuation(rng, P, rng.choice([2, 3, 4, 5]))
        mu = random_valuation(rng, P, rng.choice([2, 3, 4, 5]))
        fast = stochastic_leq(nu, mu, mode="flow")
        slow = stochastic_leq(nu, mu, mode="oracle")
        assert fast == slow
        if len(P.elements) <= 5:
            assert fast == brute_stochastic_leq(nu, mu)
        agreements += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        10,
        f"stochastic order: flow and quantification agree on {agreements} "
        f"random pairs at n<=8 ({elapsed:.1f}s)",
    )


# -- criterion 11: the countable-poset families -----------------------------------------


def test_c11_lazy_families_laws_witnesses_and_rigidity():
    start = time.monotonic()

    def codes(L, max_level):
        out = [BOT]
        for j in (0, 1):
            out.extend(node(j, m) for m in range(max_level + 1))
        out.append(OMEGA if L.kind == "n2" else TOP)
        return out

    law_checks = 0
    witness_checks = 0
    for L, fam, indices in (
        (N2, n2_family, [(i, j) for i in range(0, 21, 4) for j in range(0, 21, 4)]),
        (T, t_family, [(i,) for i in range(21)]),
    ):
        cs = codes(L, 40)
        comparable = [(x, y) for x in cs for y in cs if L.leq(x, y)]
        incomparable = [(x, y) for x in cs for y in cs if not L.leq(x, y)]
        for idx in indices:
            phi = fam(*idx)
            table = {x: phi(x) for x in cs}
            for x in cs:
                assert L.in_up(table[x], x)
            for x, y in comparable:
                assert L.smyth_leq(table[x], table[y])
            law_checks += len(cs) + len(comparable)
        step = max(1, len(indices) // 6)
        for idx1 in indices[::step]:
            for idx2 in indices[::step]:
                if all(a <= b for a, b in zip(idx1, idx2)):
                    lo, hi = fam(*idx1), fam(*idx2)
                    for x in cs[::7]:
                        assert L.smyth_leq(lo(x), hi(x))
        for x, y in incomparable:
            idx = family_witness(L, x, y)
            phi = fam(*idx) if isinstance(idx, tuple) else fam(idx)
            assert L.in_up(phi(x), x) and not L.in_up(phi(x), y)
            witness_checks += 1

    for m in range(41):
        for n in range(41):
            assert not N2.leq(node(0, m), node(1, n))

    rigidity = 0
    for bits in itertools.product((0, 1), repeat=2):
        f = hat_f(list(bits))
        Tk = f.source
        for table in monotone_maps(Tk, Tk):
            g = MonotoneMap(Tk, Tk, dict(zip(Tk.elements, table)))
            assert hat_f_rigidity_check(g, list(bits))
            below = all(Tk.leq(g(x), f(x)) for x in Tk.elements)
            keeps = g("n:0:0") != "bot" and g("n:1:0") != "bot"
            if below and keeps:
                assert g == f
            rigidity += 1

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        11,
        f"lazy families: {law_checks} law evaluations at levels<=40, "
        f"{witness_checks} separating witnesses, branch-swap rigidity over "
        f"{rigidity} monotone endomaps of the depth-2 truncation ({elapsed:.1f}s)",
    )


# -- criterion 12: way-below is exactly bottom-mixing ------------------------------------


def test_c12_way_below_criterion_equals_mixing_oracle():
    start = time.monotonic()
    D = 12  # common denominator of the 1/1 .. 1/4 grids
    rng = random.Random(1412)
    pointed = 0
    pair_checks = 0
    lib_checks = 0
    for n in (1, 2, 3, 4, 5):
        for P in enumerate_posets(n):
            if not P.is_pointed:
                continue
            pointed += 1
            leq = _leq_matrix(P)
            full = (1 << n) - 1
            uppers = [m for m in _upper_set_masks(leq) if m not in (0, full)]
            vecs = sorted(
                {
                    tuple(c * (D // N) for c in comp)
                    for N in (1, 2, 3, 4)
                    for comp in _compositions(N, n)
                }
            )
            V = np.array(vecs, dtype=np.int64).reshape(len(vecs), n)
            U = np.array(
                [[mask >> i & 1 for i in range(n)] for mask in uppers],
                dtype=np.int64,
            ).reshape(len(uppers), n)
            masses = V @ U.T
            lhs = masses[:, None, :]
            rhs = masses[None, :, :]
            violation = ((rhs == 0) & (lhs > 0)) | ((rhs > 0) & (lhs >= rhs))
            W = ~violation.any(axis=2)
            X = (lhs * D <= rhs * (D - 1)).all(axis=2)
            assert (W == X).all()
            pair_checks += W.size

            for _ in range(2):
                i, j = rng.randrange(len(vecs)), rng.randrange(len(vecs))
                nu = Valuation(P, {e: F(vecs[i][k], D) for k, e in enumerate(P.elements)})
                mu = Valuation(P, {e: F(vecs[j][k], D) for k, e in enumerate(P.elements)})
                assert way_below(nu, mu) == bool(W[i, j])
                # the kind of every nonempty proper upper set, from the numpy masses
                kinds = {v["upper"]: v["kind"] for v in way_below_report(nu, mu).violations}
                for u, mask in enumerate(uppers):
                    x, y = masses[i, u], masses[j, u]
                    if y == 0:
                        want = "support_on_null" if x > 0 else None
                    elif x >= y:
                        want = "mass_exceeds" if x > y else "equal_mass"
                    else:
                        want = None
                    upper = frozenset(e for k, e in enumerate(P.elements) if mask >> k & 1)
                    assert kinds.pop(upper, None) == want
                assert not kinds  # nothing on the empty set or the carrier
                mix = mixing_oracle(nu, mu)
                assert mix.exists == bool(X[i, j])
                if mix.exists:
                    assert mix.epsilon > 0
                    k = next(
                        k
                        for k in range(1, D + 1)
                        if (masses[i] * k <= masses[j] * (k - 1)).all()
                    )
                    assert mix.epsilon == F(1, k)
                lib_checks += 1

    assert pointed == 1183

    third = F(1, 3)
    nu_star = _val(DIAMOND, a=third, b=third, top=third)
    candidate = _val(DIAMOND, bot=third, a=2 * third)
    rep = way_below_report(candidate, nu_star)
    assert rep.result is False
    assert any(v["kind"] == "equal_mass" for v in rep.violations)
    assert mixing_oracle(candidate, nu_star).exists is False

    elapsed = time.monotonic() - start
    _report(
        12,
        f"way-below == mixing on all {pointed} pointed posets n<=5 "
        f"({pair_checks} vectorized pairs, {lib_checks} library spot checks); "
        f"the tangent largest-approximant pair is correctly refused ({elapsed:.1f}s)",
    )
