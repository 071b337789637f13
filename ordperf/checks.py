"""Independent reference computations for the benchmark's output checks.

Nothing here calls ordbench, so no check trusts the library route it checks.
Posets are the generator's own edge lists, closed by a reverse-topological
sweep (the library closes by a Warshall pass); upper sets come from
antichains (the library scans all 2^n subsets); masses are integer counts at
a common denominator (the library sums Fractions or rescales its own way).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, factorial
from typing import Iterable, List, Optional, Sequence, Tuple


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Order:
    """A generated poset: element names plus edges ``i -> j`` with ``i < j``.

    Element order is the generation order, which is also the order of the
    ``elements:`` line the library reads, so indices agree on both sides.
    """

    def __init__(self, names: Sequence[str], edges: Iterable[Tuple[int, int]]):
        self.names = tuple(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.edges = sorted(set(edges))
        self.succ: List[List[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            if not i < j:
                raise ValueError(f"edge {i}->{j} is not increasing")
            self.succ[i].append(j)
        up = [0] * n
        for i in range(n - 1, -1, -1):
            m = 1 << i
            for j in self.succ[i]:
                m |= up[j]
            up[i] = m
        self.up = up
        down = [0] * n
        for i in range(n):
            for j in bits(up[i]):
                down[j] |= 1 << i
        self.down = down
        self.full = (1 << n) - 1

    def __len__(self) -> int:
        return len(self.names)

    def text(self) -> str:
        lines = ["elements: " + " ".join(self.names)]
        if self.edges:
            lines.append(
                "order: " + "; ".join(f"{self.names[i]} < {self.names[j]}" for i, j in self.edges)
            )
        return "\n".join(lines) + "\n"

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def mask(self, names: Iterable) -> int:
        m = 0
        for x in names:
            m |= 1 << self.index[x]
        return m

    def is_upper(self, mask: int) -> bool:
        return all(not (self.up[i] & ~mask) for i in bits(mask))

    def minimal(self, mask: int) -> int:
        """Minimal members of a set, as a mask."""
        return sum(1 << i for i in bits(mask) if not (self.down[i] & mask & ~(1 << i)))

    def covers_from_edges(self) -> set:
        """Covers are the generated edges with no other route between the ends."""
        out = set()
        for i, j in self.edges:
            if not any(self.up[k] >> j & 1 for k in self.succ[i] if k != j):
                out.add((i, j))
        return out

    def antichains(self) -> List[int]:
        """Every antichain as a mask, the empty one first (depth <= width)."""
        out = [0]
        n = len(self.names)

        def rec(start: int, chosen: int, allowed: int) -> None:
            for i in range(start, n):
                if allowed >> i & 1:
                    m = chosen | 1 << i
                    out.append(m)
                    rec(i + 1, m, allowed & ~(self.up[i] | self.down[i]))

        rec(0, 0, self.full)
        return out

    def upper_masks(self) -> List[int]:
        """Upper sets by Birkhoff: the up-closure of each antichain."""
        out = []
        for a in self.antichains():
            m = 0
            for i in bits(a):
                m |= self.up[i]
            out.append(m)
        return out

    def names_of(self, mask: int) -> frozenset:
        return frozenset(self.names[i] for i in bits(mask))


# -- generated posets ----------------------------------------------------------


def chain(n: int, prefix: str = "c") -> Order:
    return Order([f"{prefix}{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def chain_product(a: int, b: int, prefix: str = "p") -> Order:
    names = [f"{prefix}{i}_{j}" for i in range(a) for j in range(b)]
    edges = []
    for i in range(a):
        for j in range(b):
            k = i * b + j
            if i + 1 < a:
                edges.append((k, k + b))
            if j + 1 < b:
                edges.append((k, k + 1))
    return Order(names, edges)


def random_pointed(rng, n: int, p: float, prefix: str = "e") -> Order:
    """A least element ``e0`` plus ``round(p * pairs)`` random edges over the
    index order: the edge count is fixed, only their places vary."""
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    edges = [(0, j) for j in range(1, n)] + rng.sample(pairs, round(p * len(pairs)))
    return Order([f"{prefix}{i}" for i in range(n)], edges)


def random_sparse(rng, n: int, p: float, prefix: str = "s") -> Order:
    """``round(p * pairs)`` random edges over the index order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = rng.sample(pairs, round(p * len(pairs)))
    return Order([f"{prefix}{i}" for i in range(n)], edges)


def antichain(w: int, prefix: str = "a") -> Order:
    return Order([f"{prefix}{i}" for i in range(w)], [])


def bottom_antichain(w: int) -> Order:
    """A bottom below a width-w antichain: the wide posets of upper-mass."""
    return Order(["bot"] + [f"a{i}" for i in range(w)], [(0, j) for j in range(1, w + 1)])


DIAMOND_COVERS = ((0, 1), (0, 2), (1, 3), (2, 3))  # bot < a, b < top


def diamond_power(k: int) -> Order:
    """The k-fold product of the diamond, coordinates bot=0 a=1 b=2 top=3."""
    n = 4**k
    names = []
    edges = []
    for idx in range(n):
        digits = [(idx // 4 ** (k - 1 - c)) % 4 for c in range(k)]
        names.append("d" + "".join(map(str, digits)))
        for c in range(k):
            for lo, hi in DIAMOND_COVERS:
                if digits[c] == lo:
                    edges.append((idx, idx + (hi - lo) * 4 ** (k - 1 - c)))
    return Order(names, edges)


# -- closed forms ----------------------------------------------------------------


def chain_product_upper_sets(a: int, b: int) -> int:
    return comb(a + b, a)


def chain_product_covers(a: int, b: int) -> int:
    return a * (b - 1) + b * (a - 1)


def chain_product_paths(a: int, b: int) -> int:
    """Cover chains from the bottom of an a x b grid: sum of C(i+j, i)."""
    return comb(a + b, a) - 1


def diamond_power_paths(k: int) -> int:
    """Cover chains from bottom in diamond^k: an interleaving of k diamond
    chains, each with e.g.f. 1 + 2x + x^2 = (1 + x)^2."""
    return sum(factorial(m) * comb(2 * k, m) for m in range(2 * k + 1))


# -- valuations as integer counts ----------------------------------------------


def mass(mask: int, counts: Sequence[int]) -> int:
    return sum(counts[i] for i in bits(mask))


def val_text(order: Order, counts: Sequence[int], d: int) -> str:
    return " ".join(
        f"{order.names[i]}:{Fraction(c, d)}" for i, c in enumerate(counts) if c
    )


def leq_on(uppers: Iterable[int], a: Sequence[int], b: Sequence[int]) -> bool:
    """a below b in the upper-set-mass order (same denominator)."""
    return all(mass(U, a) <= mass(U, b) for U in uppers)


def way_below_kinds(order: Order, uppers, a, b) -> List[str]:
    kinds = []
    for U in uppers:
        if U == order.full:
            continue
        sa, sb = mass(U, a), mass(U, b)
        if sb == 0 and sa > 0:
            kinds.append("support_on_null")
        elif sb > 0 and sa > sb:
            kinds.append("mass_exceeds")
        elif sb > 0 and sa == sb:
            kinds.append("equal_mass")
    return sorted(kinds)


def first_mixing_k(order: Order, uppers, a, b) -> Optional[int]:
    """Least k with a <= (1 - 1/k) b on proper upper sets, in closed form:
    max over them of ceil(b(U) / (b(U) - a(U))); None when none exists."""
    k = 1
    for U in uppers:
        if U == order.full:
            continue
        sa, sb = mass(U, a), mass(U, b)
        if sb == 0:
            if sa > 0:
                return None
            continue
        if sa >= sb:
            return None
        k = max(k, ceil(sb / (sb - sa)))
    return k


def tightly_below(order: Order, uppers, a, b) -> bool:
    supp = sum(1 << i for i, c in enumerate(a) if c)
    for U in uppers:
        if U == order.full:
            continue
        sa, sb = mass(U, a), mass(U, b)
        if sa > sb:
            return False
        if sa == sb and sa > 0 and bin(supp & U).count("1") != 1:
            return False
    return True


def compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """All grid points, in lexicographic order (iterative stars and bars)."""
    out = []
    stack = [((), total)]
    while stack:
        prefix, left = stack.pop()
        if len(prefix) == parts - 1:
            out.append(prefix + (left,))
            continue
        for first in range(left, -1, -1):
            stack.append((prefix + (first,), left - first))
    return out


def strict_round(count: int, d: int, N: int) -> Fraction:
    """Largest multiple of 1/N that is 0 or strictly below count/d."""
    v = Fraction(count, d)
    if v <= 0:
        return Fraction(0)
    k = ceil(v * N) - 1
    return Fraction(max(k, 0), N)


def antichain_family_problem(order: Order, members: Sequence[Sequence]) -> Optional[str]:
    """The listed antichains must be distinct antichains of the order."""
    seen = set()
    for A in members:
        m = order.mask(A)
        if m in seen:
            return f"antichain {A!r} listed twice"
        seen.add(m)
        if order.minimal(m) != m or bin(m).count("1") != len(A):
            return f"{A!r} is not an antichain"
    return None


# -- certificates ----------------------------------------------------------------


def coupling_problem(order: Order, plan, nu: Sequence[int], mu: Sequence[int], d: int) -> Optional[str]:
    """A transport plan must be an exact coupling of nu and mu on x <= y pairs."""
    rows = [Fraction(0)] * len(order)
    cols = [Fraction(0)] * len(order)
    for (x, y), w in plan:
        i, j = order.index.get(x), order.index.get(y)
        if i is None or j is None:
            return f"plan names unknown element in {x}->{y}"
        if not isinstance(w, Fraction) or w <= 0:
            return f"plan weight {w!r} on {x}->{y} is not a positive Fraction"
        if not order.leq(i, j):
            return f"plan moves mass down: {x}->{y}"
        rows[i] += w
        cols[j] += w
    for i in range(len(order)):
        if rows[i] != Fraction(nu[i], d):
            return f"plan row {order.names[i]} sums to {rows[i]}, not {Fraction(nu[i], d)}"
        if cols[i] != Fraction(mu[i], d):
            return f"plan column {order.names[i]} sums to {cols[i]}, not {Fraction(mu[i], d)}"
    return None


def violation_problem(order: Order, upper, nu: Sequence[int], mu: Sequence[int]) -> Optional[str]:
    """A refutation must be an upper set with more nu-mass than mu-mass."""
    try:
        U = order.mask(upper)
    except KeyError as exc:
        return f"violating set names unknown element {exc}"
    if not order.is_upper(U):
        return f"violating set {sorted(upper)} is not upward closed"
    if not mass(U, nu) > mass(U, mu):
        return f"violating set {sorted(upper)} does not carry more left mass"
    return None


def parse_plan_text(line: str):
    """``x->y:p/q`` entries of the CLI ``transport:`` line."""
    out = []
    for token in line.split():
        pair, _, w = token.rpartition(":")
        x, _, y = pair.partition("->")
        out.append(((x, y), Fraction(w)))
    return out


def text_problem(got: str, want: str) -> Optional[str]:
    """Byte-for-byte comparison, naming the first differing offset."""
    a, b = got.encode(), want.encode()
    if a == b:
        return None
    k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"output differs from golden at byte {k} ({len(a)} vs {len(b)} bytes)"

