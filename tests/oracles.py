"""Brute-force reference implementations the test suite checks against.

Everything here is deliberately naive and independent of the library's own
algorithms: posets as explicit relation sets over range(n), upper sets by
subset scan, the pointwise order on valuations by quantifying over those
subsets, and rooted trees by canonical nested-tuple enumeration. Slow is
fine; these only run at desk scale.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import ceil, gcd, lcm

from ordbench import BOT, OMEGA, TOP, Poset, PosetError, format_code, hat_f, node, omega_side

# Labeled partial orders on n elements, n = 1..6. The first four values are
# recomputed here by brute force; the last two pin the library's enumerator.
LABELED_POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}

# Rooted trees on n nodes up to isomorphism, n = 1..7.
ROOTED_TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48}


def brute_relations(n):
    """Every reflexive-transitive-antisymmetric relation on range(n).

    Yields frozensets of ordered pairs including the diagonal. Exponential
    in n*(n-1); intended for n <= 4.
    """
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    diag = [(i, i) for i in range(n)]
    for bits in product((False, True), repeat=len(offdiag)):
        rel = set(diag)
        rel.update(p for p, b in zip(offdiag, bits) if b)
        if any((j, i) in rel for (i, j) in rel if i != j):
            continue
        if any(
            (i, k) not in rel
            for (i, j) in rel
            for (j2, k) in rel
            if j == j2
        ):
            continue
        yield frozenset(rel)


def brute_posets(n):
    """Brute-force labeled posets as library objects, deterministic order."""
    elems = tuple(range(n))
    for rel in sorted(brute_relations(n), key=sorted):
        yield Poset(elems, [(i, j) for (i, j) in rel if i != j])


def brute_upper_sets(P):
    """All upper sets by scanning every subset against leq."""
    out = []
    elems = P.elements
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            S = set(combo)
            if all(y in S for x in S for y in elems if P.leq(x, y)):
                out.append(frozenset(S))
    return out


def reference_parent_table(masks, added):
    """The parent table of an upper-set listing, derived from the masks
    alone: ``parent[u]`` is the index of ``masks[u] ^ 1 << added[u]``, found
    in a mask -> index dict, and 0 for the empty set at index 0."""
    index = {m: u for u, m in enumerate(masks)}
    return [0] + [index[m ^ 1 << x] for m, x in zip(masks[1:], added[1:])]


def reference_closure(elements, relations):
    """The order masks a relation list generates, by the textbook route.

    Warshall's O(n^2) closure over bit rows, then a bit-by-bit transpose for
    the down masks. Returns ``(up, down)`` as tuples, or, when the closure
    has a cycle, the message naming its first element in element order and
    the first other element on a cycle with it.
    """
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    up = [1 << i for i in range(n)]
    for x, y in relations:
        up[index[x]] |= 1 << index[y]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in range(n):
            if j != i and up[i] >> j & 1 and up[j] >> i & 1:
                x, y = elements[i], elements[j]
                return f"cycle detected: {x!r} <= {y!r} <= {x!r}"
    return tuple(up), transpose(up)


def reference_cycle_message(elements, succ):
    """The library's cycle message from its successor lists (``succ[i]``:
    the indices j != i with i <= j, repeats allowed), by a Warshall closure
    over bit rows: the first index in element order that reaches another
    index reaching it back, and the first such other index."""
    up = [1 << i | sum(1 << j for j in set(row)) for i, row in enumerate(succ)]
    for k in range(len(up)):
        up = [row | up[k] if row >> k & 1 else row for row in up]
    i, j = next((i, j) for i, r in enumerate(up) for j in range(len(up))
                if j != i and r >> j & 1 and up[j] >> i & 1)
    return f"cycle detected: {elements[i]!r} <= {elements[j]!r} <= {elements[i]!r}"


def reference_parse_poset(text):
    """The poset reader as it was before it tokenised order lines in bulk:
    each ``order:`` entry split at ``<`` and stripped on its own, every name
    checked against the declared ones, and the order closed by
    ``reference_closure``. Gives a Poset with the elements, masks and covers
    ``parse_poset`` gives, or raises the PosetError it raises."""
    elements, seen, relations = [], set(), []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            for tok in line[len("elements:"):].split():
                if tok in seen:
                    raise PosetError(f"line {ln}: duplicate element: {tok!r}")
                seen.add(tok)
                elements.append(tok)
        elif line.startswith("order:"):
            for entry in line[len("order:"):].split(";"):
                entry = entry.strip()
                if not entry:
                    continue
                parts = entry.split("<")
                if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                    raise PosetError(f"line {ln}: malformed relation: {entry!r}")
                relations.append((parts[0].strip(), parts[1].strip()))
        else:
            raise PosetError(f"line {ln}: unrecognized line: {line!r}")
    for name in (name for pair in relations for name in pair):
        if name not in seen:
            raise PosetError(f"relation mentions undeclared element: {name!r}")
    masks = reference_closure(elements, relations)
    if isinstance(masks, str):
        raise PosetError(masks)
    return Poset._from_masks(tuple(elements), *masks)


def transpose(up):
    """The down masks of an order given by its up masks, one bit at a time."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for j in range(len(up)):
            if mask >> j & 1:
                down[j] |= 1 << i
    return tuple(down)


LAZY_CAPS = {"n2": [OMEGA], "t": [TOP], "nsum": [omega_side(0), omega_side(1)]}


def lazy_codes(kind, levels):
    """The codes of a lazy poset below node level ``levels``: bottom, the two
    nodes of each level from 0 up, then the kind's caps."""
    codes = [BOT]
    for m in range(levels):
        codes += [node(0, m), node(1, m)]
    return codes + LAZY_CAPS[kind]


def all_pairs_truncation(L, k):
    """The truncation of a lazy poset at depth k, asking ``L.leq`` on every
    ordered pair of its codes (bottom, the nodes level by level, the caps).

    Returns ``(elements, up, down)``: the element names and the order masks.
    """
    codes = lazy_codes(L.kind, k if L.kind == "t" else k + 1)
    up = tuple(sum(1 << j for j, d in enumerate(codes) if L.leq(c, d)) for c in codes)
    return tuple(format_code(c) for c in codes), up, transpose(up)


def reference_lazy_leq(kind, k):
    """The order of a lazy poset on its codes up to node level k, as a
    function ``leq(x, y)``, without asking the library's order.

    The covering relations are those the ``lazy`` docstring describes:
    bottom below both level-0 nodes; a node below the next node of its
    branch (``n2``, ``nsum``) or below both nodes of the next level
    (``t``); the level-k nodes below the caps, in ``nsum`` each below the
    cap of its own branch. :func:`reference_closure` closes them: every
    relation between codes up to level k is a chain of those covers.
    """
    codes = lazy_codes(kind, k + 1)
    caps = LAZY_CAPS[kind]
    covers = [(BOT, node(j, 0)) for j in (0, 1)]
    for j in (0, 1):
        above = (0, 1) if kind == "t" else (j,)
        covers += [(node(j, m), node(i, m + 1)) for m in range(k) for i in above]
        covers += [(node(j, k), c) for c in (caps[j:j + 1] if kind == "nsum" else caps)]
    up, _ = reference_closure(codes, covers)
    index = {c: i for i, c in enumerate(codes)}
    return lambda x, y: bool(up[index[x]] >> index[y] & 1)


def reference_rigidity_check(g, bits):
    """``hat_f_rigidity_check`` as it read with f̂ built in full: truncate
    ``t`` again, compare g's source and target with that truncation as
    posets, and ask the order and the maps through their public calls."""
    fhat = hat_f(bits)
    Tk = fhat.source
    if g.source != Tk or g.target != Tk:
        raise PosetError("g must be an endo-map of the matching truncation of T")
    premise = (
        all(Tk.leq(g(x), fhat(x)) for x in Tk.elements)
        and g("n:0:0") != "bot"
        and g("n:1:0") != "bot"
    )
    return not premise or g == fhat


def brute_stochastic_leq(nu, mu):
    """nu below mu iff no upper set carries more nu-mass than mu-mass."""
    return all(nu.mass(U) <= mu.mass(U) for U in brute_upper_sets(nu.poset))


def random_poset(rng, n):
    """A random labeled poset: random edges over a random linear order."""
    perm = list(range(n))
    rng.shuffle(perm)
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rels.append((perm[i], perm[j]))
    return Poset(tuple(range(n)), rels)


def random_pointed_poset(rng, n):
    """Like random_poset but with element 0 forced below everything."""
    P = random_poset(rng, n - 1) if n > 1 else None
    rels = [("bot", e) for e in range(n - 1)]
    if P is not None:
        rels += [(a, b) for a, b in P.covers()]
    return Poset(("bot",) + tuple(range(n - 1)), rels)


def random_valuation(rng, P, denom):
    """Uniformly random composition of denom into len(P) parts, as weights."""
    from ordbench import Valuation

    n = len(P.elements)
    if n == 1:
        return Valuation(P, [Fraction(1)])
    cuts = sorted(rng.sample(range(denom + n - 1), n - 1))
    parts = []
    prev = -1
    for c in cuts:
        parts.append(c - prev - 1)
        prev = c
    parts.append(denom + n - 2 - prev)
    return Valuation(P, [Fraction(p, denom) for p in parts])


def monotone_maps(X, Y):
    """All monotone maps X -> Y as value tuples aligned with X.elements.

    Backtracking over element-index order; each candidate value is checked
    against every already-assigned comparable element, so the order need not
    be a linear extension.
    """
    xe, ye = X.elements, Y.elements
    n = len(xe)
    out = []
    vals = [None] * n

    def rec(i):
        if i == n:
            out.append(tuple(vals))
            return
        for y in ye:
            ok = True
            for j in range(i):
                if X.leq(xe[j], xe[i]) and not Y.leq(vals[j], y):
                    ok = False
                    break
                if X.leq(xe[i], xe[j]) and not Y.leq(y, vals[j]):
                    ok = False
                    break
            if ok:
                vals[i] = y
                rec(i + 1)
        vals[i] = None

    rec(0)
    return out


def surjective_monotone_maps(X, Y):
    full = set(Y.elements)
    return [v for v in monotone_maps(X, Y) if set(v) == full]


def random_monotone_map(rng, X, Y, tries=200):
    """A random monotone map by repeated candidate assignment."""
    xe = list(X.elements)
    for _ in range(tries):
        vals = {}
        dead = False
        for x in rng.sample(xe, len(xe)):
            cands = [
                y
                for y in Y.elements
                if all(
                    (not X.leq(a, x) or Y.leq(va, y))
                    and (not X.leq(x, a) or Y.leq(y, va))
                    for a, va in vals.items()
                )
            ]
            if not cands:
                dead = True
                break
            vals[x] = rng.choice(cands)
        if not dead:
            return {x: vals[x] for x in xe}
    raise RuntimeError("could not build a random monotone map")


def random_finmap(rng, X, Y, width=3):
    """A random antichain-valued monotone map as an {x: antichain} table.

    Pointwise unions of monotone point maps are Smyth-monotone, so a union
    of 1..width of them is always a legal table.
    """
    k = rng.randint(1, width)
    maps = [random_monotone_map(rng, X, Y) for _ in range(k)]
    return {
        x: Y.antichain_normalize([m[x] for m in maps]) for x in X.elements
    }


def rooted_trees(n):
    """Canonical rooted trees with n nodes, as sorted nested tuples."""
    table = {1: [()]}
    for size in range(2, n + 1):
        shapes = set()
        for part in _partitions(size - 1):
            groups = {}
            for s in part:
                groups[s] = groups.get(s, 0) + 1
            choices = [
                list(combinations_with_replacement(table[s], m))
                for s, m in sorted(groups.items())
            ]
            for pick in product(*choices):
                children = tuple(sorted(t for grp in pick for t in grp))
                shapes.add(children)
        table[size] = sorted(shapes)
    return table[n]


def _partitions(n, upper=None):
    if upper is None:
        upper = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, upper), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def tree_poset(shape):
    """Turn a nested-tuple tree into a poset rooted at the bottom.

    Elements are dotted path strings ("r", "r.0", "r.0.1", ...), listed in
    depth-first order.
    """
    elements = []
    covers = []

    def walk(node, name):
        elements.append(name)
        for i, child in enumerate(node):
            covers.append((name, f"{name}.{i}"))
            walk(child, f"{name}.{i}")

    walk(shape, "r")
    return Poset(tuple(elements), covers)


def saturated_chain_count(P):
    """Number of maximal-step chains from the bottom, by direct DFS."""
    bot = P.bottom()
    kids = {e: [] for e in P.elements}
    for a, b in P.covers():
        kids[a].append(b)

    def count(x):
        return 1 + sum(count(c) for c in kids[x])

    return count(bot)


# -- the grid by pairwise dominance -------------------------------------------


def dominance_grid(P, N):
    """Every valuation with weights in (1/N)N, lexicographic in the counts,
    each built and checked by the public constructor."""
    from ordbench import Valuation

    n = len(P.elements)
    return [
        Valuation(P, [Fraction(k, N) for k in counts])
        for counts in product(range(N + 1), repeat=n)
        if sum(counts) == N
    ]


def lex_compositions(N, n):
    """The n-tuples of naturals summing to N, lexicographically, by
    recursion on the first part."""
    if n == 1:
        yield (N,)
        return
    for k in range(N + 1):
        for rest in lex_compositions(N - k, n - 1):
            yield (k, *rest)


def grid_point_masses(P, N, vals):
    """``(D, rows)``: D the lcm of N and the denominators of ``vals``, and
    for each brute-force upper set of P, keyed by its mask of element
    indices, the masses over D of ``vals`` on it, then for each grid point
    (lexicographic in its counts) its mass over D on the set and the number
    of the set's elements where it is positive, each read from the point's
    row of counts."""
    D = lcm(N, *(w.denominator for v in vals for w in v.weights))
    points = list(lex_compositions(N, len(P.elements)))
    rows = {}
    for U in brute_upper_sets(P):
        idx = [P.index(x) for x in U]
        tops = tuple(int(sum(v.weights[i] for i in idx) * D) for v in vals)
        each = [(sum(p[i] for i in idx) * (D // N), sum(1 for i in idx if p[i])) for p in points]
        rows[sum(1 << i for i in idx)] = (tops, each)
    return D, rows


def _dominance_rows(vals):
    """Each valuation's mass on every brute-force upper set of their poset,
    each set summed directly, in integers over the lcm of all denominators."""
    P = vals[0].poset
    uppers = [[P.index(x) for x in U] for U in brute_upper_sets(P)]
    D = lcm(*(w.denominator for v in vals for w in v.weights))
    ints = [[w.numerator * (D // w.denominator) for w in v.weights] for v in vals]
    return [tuple(sum([row[i] for i in U]) for U in uppers) for row in ints]


def _dominated(lo, hi):
    return all(x <= y for x, y in zip(lo, hi))


def dominance_grid_order(P, N):
    """``(up, down)`` masks of the grid order, every pair compared on every
    upper set: O(M^2 * #U)."""
    vecs = _dominance_rows(dominance_grid(P, N))
    up = [sum(1 << j for j, b in enumerate(vecs) if _dominated(a, b)) for a in vecs]
    return tuple(up), transpose(up)


def dominance_minimal_upper_bounds(v1, v2, N):
    """Grid points above both inputs that no other such point lies below."""
    vals = dominance_grid(v1.poset, N)
    lo1, lo2, *vecs = _dominance_rows([v1, v2] + vals)
    ub = [i for i, v in enumerate(vecs) if _dominated(lo1, v) and _dominated(lo2, v)]
    return [
        vals[i]
        for i in ub
        if not any(vecs[j] != vecs[i] and _dominated(vecs[j], vecs[i]) for j in ub)
    ]


def dominance_maximal_below(nu, N):
    """Grid points tightly below ``nu`` that no other such point lies above."""
    from ordbench import tightly_below

    vals = dominance_grid(nu.poset, N)
    nu_row, *vecs = _dominance_rows([nu] + vals)
    below = [i for i, v in enumerate(vals) if tightly_below(v, nu)]
    return [
        vals[i]
        for i in below
        if not any(vecs[j] != vecs[i] and _dominated(vecs[i], vecs[j]) for j in below)
    ]


def strict_round_down(v, step):
    """The largest multiple of ``step`` strictly below ``v``, or 0, by the
    ceiling of the exact quotient."""
    v, step = Fraction(v), Fraction(step)
    return max(ceil(v / step) - 1, 0) * step


def bottom_rounding(v, N):
    """Every weight of ``v`` off bottom strictly rounded down to 1/N, the
    residue on bottom."""
    from ordbench import Valuation

    P = v.poset
    bot = P.bottom()
    out = {e: strict_round_down(w, Fraction(1, N)) for e, w in zip(P.elements, v.weights) if e != bot}
    out[bot] = 1 - sum(out.values())
    return Valuation(P, out)


def dominance_rounding_witness(P, N):
    """The first grid pair (i, j), i then j in grid order, with i below j and
    the bottom-rounded image of i not below that of j; None if none."""
    vals = dominance_grid(P, N)
    rows = _dominance_rows(vals + [bottom_rounding(v, N) for v in vals])
    vecs, imgs = rows[: len(vals)], rows[len(vals) :]
    for i, a in enumerate(vecs):
        for j, b in enumerate(vecs):
            if i != j and _dominated(a, b) and not _dominated(imgs[i], imgs[j]):
                return vals[i], vals[j]
    return None


def reference_rounding_witness(P, N):
    """The first witness of :func:`dominance_rounding_witness` by the
    per-point search over unit moves, as a pair of count tuples, or None.
    For each grid point p in lexicographic order, the points above p and the
    points above its bottom-rounded image are the ones reached from them by
    moving one unit from an element to an upper cover; the first p with a
    point above it whose image is not above p's image gives p and the least
    such point. Each point's up-set is made once, as the union of the
    up-sets one move above it."""
    n, bot = len(P.elements), P.index(P.bottom())
    covers = [(P.index(x), P.index(y)) for x, y in P.covers()]
    ups = {}

    def step(p, x, y):
        q = list(p)
        q[x] -= 1
        q[y] += 1
        return tuple(q)

    def above(p):
        if p not in ups:
            ups[p] = frozenset([p]).union(*(above(step(p, x, y)) for x, y in covers if p[x]))
        return ups[p]

    def image(p):
        out = [max(c - 1, 0) for c in p]
        out[bot] = N - (sum(out) - out[bot])
        return tuple(out)

    for p in lex_compositions(N, n):
        up = above(image(p))
        failed = [q for q in above(p) if image(q) not in up]
        if failed:
            return p, min(failed)
    return None


# -- tree folds in Fractions and the element-tuple law scan ----------------------


def _cover_children(T):
    """For each node index of T, the indices of its cover children."""
    kids = [[] for _ in T.elements]
    for a, b in T.covers():
        kids[T.index(a)].append(T.index(b))
    return kids


def fraction_child_sums(T, vals):
    """For each node index, the Fraction sum of ``vals`` over its cover children."""
    return [sum((vals[c] for c in kids), Fraction(0)) for kids in _cover_children(T)]


def fraction_children_first(T, node):
    """One Fraction per node of a tree, children before parents: ``node(i, s)``
    gives the value at index ``i`` from the sum ``s`` of its children's values.
    Nodes are visited deepest first, by the size of their down-closure."""
    kids = _cover_children(T)
    vals = [Fraction(0)] * len(kids)
    depth = [len(T.down_closure([e])) for e in T.elements]
    for i in sorted(range(len(kids)), key=lambda i: -depth[i]):
        vals[i] = node(i, sum((vals[c] for c in kids[i]), Fraction(0)))
    return tuple(vals)


def reference_filter_masses(nu):
    """The admissible values of a valuation on a tree, by the Fraction fold."""
    return fraction_children_first(nu.poset, lambda i, s: nu.weights[i] + s)


def reference_lub(T, v1, v2):
    """The children-first lub of two value tuples on T, None when the root
    value exceeds 1."""
    vals = fraction_children_first(T, lambda i, s: max(v1[i], v2[i], s))
    return None if vals[T.index(T.bottom())] > 1 else vals


def reference_weights(T, vals):
    """Atom weights from filter masses: each node's value less its children's sum."""
    return {e: v - s for e, v, s in zip(T.elements, vals, fraction_child_sums(T, vals)) if v != s}


def reference_violations(T, vals):
    """The messages ``check_admissible`` gives for ``vals`` on the tree T, in order."""
    bot = T.bottom()
    root = vals[T.index(bot)]
    out = [
        f"value at {e!r} is {v}, outside [0, 1]"
        for e, v in zip(T.elements, vals)
        if not 0 <= v <= 1
    ]
    if root != 1:
        out.append(f"value at bottom {bot!r} is {root}, not 1")
    out += [
        f"value at {e!r} is {v}, below its children's sum {s}"
        for e, v, s in zip(T.elements, vals, fraction_child_sums(T, vals))
        if v < s
    ]
    return tuple(out)


def reference_monad_laws(P, h, g):
    """The three extension laws scanned on element tuples, in the order of
    ``check_monad_laws``: returns the three flags and the first violation's
    witness dict (None when all hold). Antichains are listed by subset scan,
    lexicographic in index order, and normalized by ``leq`` alone."""
    Y, Z = h.target, g.target

    def norm(Q, S):
        return tuple(e for e in Q.elements if e in S and not any(d != e and Q.leq(d, e) for d in S))

    def ext(Q, f, E):
        return norm(Q, {y for x in E for y in f(x)})

    els = P.elements
    fin = [
        tuple(els[i] for i in idx)
        for idx in sorted(
            idx
            for r in range(1, len(els) + 1)
            for idx in combinations(range(len(els)), r)
            if not any(P.comparable(els[a], els[b]) for a, b in combinations(idx, 2))
        )
    ]
    laws = (
        ("unit_identity", fin, lambda E: norm(P, set(E)), lambda E: E),
        ("extension_identity", els, lambda x: ext(Y, h, (x,)), h),
        ("associativity", fin, lambda E: ext(Z, lambda x: ext(Z, g, h(x)), E),
         lambda E: ext(Z, g, ext(Y, h, E))),
    )
    for law, domain, lhs_of, rhs_of in laws:
        for at in domain:
            lhs, rhs = lhs_of(at), rhs_of(at)
            if lhs != rhs:
                flags = tuple(name != law for name, *_ in laws)
                return flags, {"law": law, "at": at, "lhs": lhs, "rhs": rhs}
    return (True, True, True), None


# -- the Smyth layer on element tuples ------------------------------------------
#
# Antichains are tuples in element order, normalized and compared by ``leq``
# alone; each reference returns what the library function returns, or the
# message of the PosetError it raises.


def reference_normalize(Q, S):
    """The minimal members of S, in element order."""
    S = set(S)
    return tuple(e for e in Q.elements if e in S and not any(d != e and Q.leq(d, e) for d in S))


def _refines(Q, E, F):
    """Every member of F is above some member of E."""
    return all(any(Q.leq(e, f) for e in E) for f in F)


def brute_covers(Q):
    """The pairs x < y of Q with nothing strictly between, in element order
    of x, then of y, each decided by ``leq`` alone."""
    els = Q.elements
    span = range(len(els))
    lt = [[i != j and Q.leq(x, y) for j, y in enumerate(els)] for i, x in enumerate(els)]
    return [
        (els[i], els[j])
        for i in span
        for j in span
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in span)
    ]


def reference_finmap_error(S, T, values, deflation=False):
    """The message of the PosetError a checked FinMap (a QuasiDeflation with
    ``deflation``) with these value tuples raises, or None."""
    for x, y in brute_covers(S):
        if not _refines(T, values[x], values[y]):
            return (
                f"not monotone into the antichain order: {x!r} <= {y!r} "
                f"but {values[x]!r} does not refine to {values[y]!r}"
            )
    for x in S.elements if deflation else ():
        if not _refines(S, values[x], (x,)):
            return f"not a quasi-deflation: {x!r} is not above its value {values[x]!r}"
    return None


def reference_quasi_deflation(P, table):
    """``check_quasi_deflation`` as (valid, membership, monotonicity)."""
    vals = {x: reference_normalize(P, table[x]) for x in P.elements}
    member = tuple(x for x in P.elements if not _refines(P, vals[x], (x,)))
    mono = tuple(
        (x, y)
        for x in P.elements
        for y in P.elements
        if x != y and P.leq(x, y) and not _refines(P, vals[x], vals[y])
    )
    return (not member and not mono, member, mono)


def reference_self_compose(P, values):
    """``qd_self_compose(phi).values`` from phi's values as a dict."""
    return tuple(
        reference_normalize(P, [z for y in values[x] for z in values[y]]) for x in P.elements
    )


def reference_product_qd(P, Q, phi, psi):
    """``product_qd`` of the maps with value dicts ``phi`` and ``psi``: the
    value tuples on the row-major product, or the construction's message."""

    class Product:
        elements = tuple((a, b) for a in P.elements for b in Q.elements)

        @staticmethod
        def leq(s, t):
            return P.leq(s[0], t[0]) and Q.leq(s[1], t[1])

    values = {
        (a, b): reference_normalize(Product, [(m, k) for m in phi[a] for k in psi[b]])
        for a, b in Product.elements
    }
    error = reference_finmap_error(Product, Product, values, deflation=True)
    return error or tuple(values[s] for s in Product.elements)


def reference_canonical_section(r):
    """``canonical_quasi_section(r).values``, or its message."""
    X, Y = r.source, r.target
    missing = [y for y in Y.elements if y not in set(r.values)]
    if missing:
        return f"canonical section needs a surjective map; unreached: {missing!r}"
    return tuple(
        reference_normalize(X, [x for x in X.elements if Y.leq(y, r(x))]) for y in Y.elements
    )


def reference_quasi_retraction(r, qs):
    """``check_quasi_retraction`` as (retraction, projection, canonical,
    witness), with ``qs`` a dict of value tuples."""
    X, Y = r.source, r.target
    retraction = [
        f"retraction law fails at {y!r}: image antichain {got!r} is not {{{y!r}}}"
        for y in Y.elements
        for got in [reference_normalize(Y, [r(x) for x in qs[y]])]
        if got != (y,)
    ]
    projection = [
        f"projection law fails at {x!r}: {x!r} is not above {qs[r(x)]!r}"
        for x in X.elements
        if not _refines(X, qs[r(x)], (x,))
    ]
    section = reference_canonical_section(r)
    canonical = None if isinstance(section, str) else section == tuple(qs[y] for y in Y.elements)
    witness = (retraction + projection + [None])[0]
    return not retraction, not projection, canonical, witness


def repeated_stages(rng, stages, most=3):
    """``stages`` with each stage repeated 1 to ``most`` times in a row, each
    copy the first copy's tuple object, an equal new tuple, a list or a set."""
    out = []
    for S in stages:
        t = tuple(S)
        out += [rng.choice((t, tuple(list(t)), list(t), set(t))) for _ in range(rng.randint(1, most))]
    return out


def reference_koenig(P, stages, y):
    """``koenig_chain`` by depth-first search over element tuples: the chain,
    or (message, index) of the StagePreconditionError. The search walks with
    an explicit stack, so any number of stages is answered."""
    norm = [reference_normalize(P, E) for E in stages]
    if not norm:
        return "at least one stage is required", 0
    for i, E in enumerate(norm):
        if not any(P.leq(e, y) for e in E):
            return f"stage {i}: {y!r} is not in the upward closure of {E!r}", i
    for i in range(len(norm) - 1):
        if not _refines(P, norm[i], norm[i + 1]):
            return f"stage {i + 1}: upward closure is not contained in stage {i}'s", i + 1

    # depth-first in element order, with one chain and, per stage reached,
    # the position in its stage of the next pick to try: O(d) space
    chain, tried = [], [0]
    while len(chain) < len(norm):
        stage, k = norm[len(chain)], tried[-1]
        while k < len(stage) and not (
            P.leq(stage[k], y) and (not chain or P.leq(chain[-1], stage[k]))
        ):
            k += 1
        if k < len(stage):
            tried[-1] = k + 1
            chain.append(stage[k])
            tried.append(0)
            continue
        tried.pop()
        if not chain:
            return "no chain exists; preconditions violated", len(norm) - 1
        chain.pop()
    return chain


# -- the Fraction route for valuations --------------------------------------------
#
# Weights as tuples of Fractions, read by ``Fraction(text)`` and checked, summed
# and moved in Fraction arithmetic: the library keeps integer numerators over
# one denominator, and these give what every public result must equal.


# Fraction texts as ``a:<spelling> b:1/2`` reads them on the chain a < b: each
# reads as 1/2 or is refused with a message starting as given. The negative
# one passes the reader and is refused by the weight check.
SPELLINGS = [
    ("1/2", None),
    ("2/4", None),
    ("+1/2", None),
    ("0.5", None),
    ("5e-1", None),
    ("1_0/20", None),
    ("\u0663/6", None),
    ("-1/2", "negative weight at 'a': -1/2"),
    ("1/0", "bad fraction in 'a:1/0': Fraction(1, 0)"),
    ("0/0", "bad fraction in 'a:0/0': Fraction(0, 0)"),
    ("x", "bad fraction in 'a:x'"),
    ("1/2/3", "bad fraction in 'a:1/2/3'"),
    ("1" * 5000, "bad fraction in 'a:111"),
    ("1/" + "1" * 5000, "bad fraction in 'a:1/111"),
]


def fraction_entries(P, entries, kind):
    """``(where, entry)`` pairs of ``name:fraction`` entries read into a dict
    of Fractions, every fraction by ``Fraction(text)``, with the library
    parser's messages."""
    from ordbench import ValuationError

    out = {}
    for where, entry in entries:
        name, colon, frac = entry.rpartition(":")
        name, frac = name.strip(), frac.strip()
        if not colon or not name or not frac:
            raise ValuationError(f"{where}malformed {kind} {entry!r}, expected elem:p/q")
        if name not in P:
            raise ValuationError(f"{where}unknown element {name!r}")
        if name in out:
            raise ValuationError(f"{where}repeated element {name!r}")
        try:
            out[name] = Fraction(frac)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValuationError(f"{where}bad fraction in {entry!r}: {exc}") from None
    return out


def fraction_weights(P, weights):
    """The weight tuple of a dict of Fractions, refused as the library's
    constructor refuses it: the first negative weight in element order, then
    a total other than one."""
    from ordbench import ValuationError

    vals = [Fraction(0)] * len(P.elements)
    for e, w in weights.items():
        vals[P.index(e)] = w
    for e, w in zip(P.elements, vals):
        if w < 0:
            raise ValuationError(f"negative weight at {e!r}: {w}")
    total = sum(vals, Fraction(0))
    if total != 1:
        raise ValuationError(f"weights sum to {total}, not 1")
    return tuple(vals)


def reference_parse_valuation(P, text):
    """The weight tuple of a valuation text, by the Fraction route."""
    return fraction_weights(P, fraction_entries(P, (("", t) for t in text.split()), "entry"))


def reference_transport(P, a, b):
    """Strassen's transport problem on the Fraction weight tuples ``a`` and
    ``b``, by Edmonds-Karp on the generic residual graph: a source, a sink,
    paired reverse edges and capacity D on every pair edge, D the lcm of
    every denominator. The library's bipartite search reproduces this
    graph's breadth-first searches, so its paths, plan and cut are these.
    Returns ``(plan, violating_upper, paths)``: a dict of positive Fraction
    flows keyed by element pairs and None when ``a`` sits below ``b``,
    otherwise None and the up-closure of the left support on the source
    side of the minimal minimum cut; and the number of augmenting paths
    the loop took."""
    D = 1
    for w in a + b:
        D = D * w.denominator // gcd(D, w.denominator)
    a = [int(w * D) for w in a]
    b = [int(w * D) for w in b]
    n = len(P.elements)
    left = [i for i in range(n) if a[i]]
    right = [j for j in range(n) if b[j]]
    L = len(left)
    node = {j: L + k for k, j in enumerate(right)}
    src, snk = L + len(right), L + len(right) + 1
    adj = [[] for _ in range(snk + 1)]
    head, res = [], []

    def edge(u, v, c):
        adj[u].append(len(head))
        head.append(v)
        res.append(c)
        adj[v].append(len(head))
        head.append(u)
        res.append(0)

    pairs = []
    for k, i in enumerate(left):
        for j in right:
            if P.leq(P.elements[i], P.elements[j]):
                edge(k, node[j], D)
                pairs.append((i, j))
    for k, i in enumerate(left):
        edge(src, k, a[i])
    for j in right:
        edge(node[j], snk, b[j])
    total = paths = 0
    while True:
        via = [-1] * (snk + 1)
        via[src] = -2
        queue = [src]
        for u in queue:
            for e in adj[u]:
                if via[head[e]] == -1 and res[e]:
                    via[head[e]] = e
                    queue.append(head[e])
            if via[snk] != -1:
                break
        if via[snk] == -1:
            break
        path, v = [], snk
        while v != src:
            path.append(via[v])
            v = head[via[v] ^ 1]
        bottleneck = min(res[e] for e in path)
        for e in path:
            res[e] -= bottleneck
            res[e ^ 1] += bottleneck
        total += bottleneck
        paths += 1
    names = P.elements
    if total == D:
        plan = {
            (names[i], names[j]): Fraction(res[2 * m + 1], D)
            for m, (i, j) in enumerate(pairs)
            if res[2 * m + 1]
        }
        return plan, None, paths
    return None, P.up_closure([names[i] for k, i in enumerate(left) if via[k] != -1]), paths


def fraction_mass(P, w, U):
    return sum((w[P.index(x)] for x in U), Fraction(0))


def reference_way_below(P, a, b):
    """``(violations, mixing)`` for the Fraction weight tuples ``a`` and
    ``b`` on a pointed poset: the ``way_below_report`` violations as dicts,
    and the ``mixing_oracle`` triple (exists, epsilon, bound), from the
    masses of every proper upper set in listing order, each set read from
    the bits of its mask."""
    uppers = [frozenset(e for i, e in enumerate(P.elements) if m >> i & 1) for m in P._upper_masks()[0]]
    violations = []
    k = 1
    for U in uppers[:-1]:
        x, y = fraction_mass(P, a, U), fraction_mass(P, b, U)
        kind = (
            "support_on_null" if x and not y
            else "mass_exceeds" if x > y
            else "equal_mass" if x == y > 0
            else None
        )
        if kind:
            violations.append({"kind": kind, "upper": U, "lhs": x, "rhs": y})
        elif y:
            k = max(k, ceil(y / (y - x)))
    D = 1
    for w in a + b:
        D = D * w.denominator // gcd(D, w.denominator)
    bound = 2 * len(uppers) * D
    mixing = (False, None, bound) if violations else (True, Fraction(1, k), bound)
    return violations, mixing


def reference_tightly_below(P, a, b):
    """``a`` below ``b`` on every upper set, with a single support point of
    ``a`` inside every proper upper set where its positive mass is ``b``'s."""
    for U in P.upper_sets()[:-1]:
        x, y = fraction_mass(P, a, U), fraction_mass(P, b, U)
        if x > y or (x == y > 0 and sum(1 for e in U if a[P.index(e)]) != 1):
            return False
    return True


def reference_pushforward(r, w):
    """The Fraction weights of the image of ``w`` along the map ``r``."""
    out = [Fraction(0)] * len(r.target.elements)
    for x, m in zip(r.source.elements, w):
        out[r.target.index(r(x))] += m
    return tuple(out)


def reference_preimage(r, w):
    """Each target weight of ``w`` moved to the least-index source element
    mapping onto its element."""
    out = [Fraction(0)] * len(r.source.elements)
    for y, m in zip(r.target.elements, w):
        if m:
            out[next(i for i, x in enumerate(r.source.elements) if r(x) == y)] += m
    return tuple(out)


# -- given rationals read by Fraction, one value at a time ------------------------
#
# How ``Valuation(P, weights)``, ``AdmissibleMap(tree, values)`` and
# ``round_down_strict`` read their arguments when each took its own Fractions
# apart: every value by ``Fraction(value)``, brought to the lcm of the reduced
# denominators. Kept as references for the library's one reader and scaler.


def _written(k, D):
    """``str(Fraction(k, D))``, or the words the library uses for a number
    with more digits than ``str`` writes."""
    try:
        return str(Fraction(k, D))
    except ValueError:
        return "a fraction too long to write"


def reference_table_ints(P, table, noun):
    """``(D, nums)``: a dict keyed by elements of P (missing ones are 0) or a
    sequence in element order, every value read by ``Fraction``, over the
    lcm of the reduced denominators of the nonzero values, in lowest terms.
    Its refusals come in this order: unknown elements of a dict,
    then the first value ``Fraction`` refuses in element order (in the
    given order for a sequence), then a wrong length, which calls the
    values ``noun``."""
    from ordbench import ValuationError

    if isinstance(table, dict):
        given = sorted((P.index(e), w) for e, w in table.items())
    else:
        given = list(enumerate(table))
    fracs = [(i, w if type(w) is Fraction else Fraction(w)) for i, w in given]
    if not isinstance(table, dict) and len(fracs) != len(P.elements):
        raise ValuationError(f"expected {len(P.elements)} {noun}, got {len(fracs)}")
    D = lcm(*[f.denominator for _, f in fracs if f])
    nums = [0] * len(P.elements)
    for i, f in fracs:
        nums[i] = f.numerator * (D // f.denominator)
    g = gcd(D, *nums)
    return D // g, tuple(k // g for k in nums)


def reference_valuation_ints(P, weights):
    """``(D, nums)`` of ``Valuation(P, weights)``, with the refusals of
    :func:`reference_table_ints`, then the first negative weight, then a
    wrong total."""
    from ordbench import ValuationError

    D, nums = reference_table_ints(P, weights, "weights")
    if min(nums, default=0) < 0:
        e, k = next((e, k) for e, k in zip(P.elements, nums) if k < 0)
        raise ValuationError(f"negative weight at {e!r}: {_written(k, D)}")
    total = sum(nums)
    if total != D:
        raise ValuationError(f"weights sum to {_written(total, D)}, not 1")
    return D, nums


def reference_valuation_repr(P, D, nums):
    """``repr`` of the valuation ``(D, nums)`` on P, written by ``Fraction``."""
    text = " ".join(f"{e}:{Fraction(k, D)}" for e, k in zip(P.elements, nums) if k)
    return f"Valuation({text!r})"


def reference_admissible_ints(T, values):
    """``(D, nums)`` of ``AdmissibleMap(T, values)``, with the refusals of
    :func:`reference_table_ints`."""
    return reference_table_ints(T, values, "values")


def reference_round_down_strict(v, step):
    """``round_down_strict`` with both arguments read by ``Fraction``."""
    from ordbench import ValuationError

    v, step = Fraction(v), Fraction(step)
    if step <= 0:
        raise ValuationError("step must be positive")
    k = -(-v.numerator * step.denominator // (v.denominator * step.numerator))
    return max(k - 1, 0) * step
