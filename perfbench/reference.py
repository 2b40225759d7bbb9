"""Counts computed apart from the library, used to check its outputs.

Nothing here imports motzkinperm.  The numbers come from recurrences
(Motzkin and Catalan numbers), from a transfer-matrix count over
Motzkin paths, and from brute force over permutation classes that this
module generates itself at small n.

A polynomial is a dict from exponent tuples to integer counts; a table
over sizes is a list indexed by n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

# ---------------------------------------------------------------------------
# recurrences


def motzkin_numbers(nmax: int) -> list[int]:
    """M_0..M_nmax from M_n = M_(n-1) + sum_k M_k M_(n-2-k)."""
    ms = [1, 1]
    for n in range(2, nmax + 1):
        ms.append(ms[n - 1] + sum(ms[k] * ms[n - 2 - k] for k in range(n - 1)))
    return ms[: nmax + 1]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def h_step_marginal(n: int) -> dict[int, int]:
    """Motzkin paths of length n by number of H steps: C(n,k) Cat((n-k)/2)."""
    return {k: comb(n, k) * catalan((n - k) // 2) for k in range(n + 1) if (n - k) % 2 == 0}


def tunnel_marginal(n: int) -> dict[int, int]:
    """Motzkin paths of length n by (tunnels - 1) = #U + #H - 1, with the
    empty path at 0: C(n,2u) Cat(u) paths have n-u tunnels."""
    if n == 0:
        return {0: 1}
    return {n - u - 1: comb(n, 2 * u) * catalan(u) for u in range(n // 2 + 1)}


# ---------------------------------------------------------------------------
# transfer matrix over Motzkin paths

_DELTA = {"U": 1, "D": -1, "H": 0}


def path_series(order: int, memory: int, width: int, weight) -> list[dict[tuple, int]]:
    """Sum over Motzkin words of each length n <= order of the monomial whose
    exponent vector adds up ``weight(height, suffix, step)`` over the steps.

    The state is (height, last ``memory`` steps), so any statistic that is
    a sum of local weights over windows of memory+1 steps is counted
    exactly, at every n, without listing a single path.
    """
    states: dict[tuple[int, str], dict[tuple, int]] = {(0, ""): {(0,) * width: 1}}
    out: list[dict[tuple, int]] = []
    for n in range(order + 1):
        level: dict[tuple, int] = {}
        for (h, _), poly in states.items():
            if h == 0:
                for e, c in poly.items():
                    level[e] = level.get(e, 0) + c
        out.append(level)
        if n == order:
            break
        nxt: dict[tuple[int, str], dict[tuple, int]] = {}
        for (h, suffix), poly in states.items():
            for step in "UDH":
                h2 = h + _DELTA[step]
                if h2 < 0 or h2 > order - n - 1:
                    continue
                inc = weight(h, suffix, step)
                key = (h2, (suffix + step)[-memory:] if memory else "")
                target = nxt.setdefault(key, {})
                for e, c in poly.items():
                    e2 = tuple(a + b for a, b in zip(e, inc))
                    target[e2] = target.get(e2, 0) + c
        states = nxt
    return out


_DESCENT_PAIRS = {"UU", "DD", "UH", "HD", "UD"}
_WEAK_VALLEY_PAIRS = {"HH", "HU", "DH", "DU"}


def inv_des_fix_paths(order: int) -> list[dict[tuple, int]]:
    """(inv, des, fix) as path statistics: inv = 2*area - #U (a U or H step
    from height h adds 2h, a D step from h adds 2h-1), des = step pairs
    UU, DD, UH, HD, UD, fix = #H."""

    def weight(h, suffix, step):
        y = 2 * h - 1 if step == "D" else 2 * h
        return (y, int(suffix[-1:] + step in _DESCENT_PAIRS), int(step == "H"))

    return path_series(order, 1, 3, weight)


def weak_valley_paths(order: int) -> list[dict[tuple, int]]:
    """Motzkin paths by weak valleys, the factors HH, HU, DH, DU."""
    return path_series(order, 1, 1, lambda h, s, step: (int(s[-1:] + step in _WEAK_VALLEY_PAIRS),))


def area_tunnel_paths(order: int) -> list[dict[tuple, int]]:
    """Motzkin paths by (area, tunnels - 1), the images of (coinv, des)
    over the class avoiding 132 and consecutive 123."""

    def weight(h, suffix, step):
        doubled_area = 2 * h + 1 if step == "U" else 2 * h - 1 if step == "D" else 2 * h
        return (doubled_area, int(step != "D"))

    out = []
    for n, poly in enumerate(path_series(order, 0, 2, weight)):
        out.append({(a // 2, max(t - 1, 0)): c for (a, t), c in poly.items()} if n else {(0, 0): 1})
    return out


def factor_count_paths(order: int, factors: tuple[str, ...]) -> list[dict[tuple, int]]:
    """Motzkin paths by (occurrences of any factor, #H)."""
    memory = max(len(f) for f in factors) - 1

    def weight(h, suffix, step):
        window = suffix + step
        return (sum(window.endswith(f) for f in factors), int(step == "H"))

    return path_series(order, memory, 2, weight)


def evaluate(poly: dict[tuple, int], names: tuple[str, ...], values: dict[str, Fraction]) -> dict[tuple, Fraction]:
    """Set some variables of a polynomial to rationals; the exponents of the
    others are kept in order."""
    keep = [i for i, v in enumerate(names) if v not in values]
    out: dict[tuple, Fraction] = {}
    for exps, c in poly.items():
        term = Fraction(c)
        for i, v in enumerate(names):
            if v in values:
                term *= values[v] ** exps[i]
        key = tuple(exps[i] for i in keep)
        out[key] = out.get(key, 0) + term
    return {k: v for k, v in out.items() if v}


def marginal(poly: dict[tuple, int], index: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for exps, c in poly.items():
        if c:
            out[exps[index]] = out.get(exps[index], 0) + c
    return out


# ---------------------------------------------------------------------------
# brute force over permutation classes


def involutions(n: int):
    """Every involution of 1..n as a tuple, by pairing the least free value."""

    def pair(free: tuple[int, ...], word: dict[int, int]):
        if not free:
            yield tuple(word[i] for i in range(1, n + 1))
            return
        first, rest = free[0], free[1:]
        yield from pair(rest, {**word, first: first})
        for k, partner in enumerate(rest):
            yield from pair(rest[:k] + rest[k + 1 :], {**word, first: partner, partner: first})

    yield from pair(tuple(range(1, n + 1)), {})


def _order_type(values) -> tuple[int, ...]:
    ranks = sorted(values)
    return tuple(ranks.index(v) + 1 for v in values)


def contains_classical(p, pattern: tuple[int, ...]) -> bool:
    k = len(pattern)
    return any(_order_type(sub) == pattern for sub in itertools.combinations(p, k))


def contains_132(p) -> bool:
    """Some i < j < k with p_i < p_k < p_j."""
    low = None
    for j in range(len(p)):
        if low is not None and low < p[j]:
            if any(low < p[k] < p[j] for k in range(j + 1, len(p))):
                return True
        low = p[j] if low is None else min(low, p[j])
    return False


def contains_consecutive_123(p) -> bool:
    return any(p[i] < p[i + 1] < p[i + 2] for i in range(len(p) - 2))


def contains_1_32(p) -> bool:
    """Some i < j with p_i < p_(j+1) < p_j."""
    low = None
    for j in range(len(p) - 1):
        if low is not None and low < p[j + 1] < p[j]:
            return True
        low = p[j] if low is None else min(low, p[j])
    return False


def contains_1_23(p) -> bool:
    """Some i < j with p_i < p_j < p_(j+1)."""
    low = None
    for j in range(len(p) - 1):
        if low is not None and low < p[j] < p[j + 1]:
            return True
        low = p[j] if low is None else min(low, p[j])
    return False


def s132_class(n: int):
    """Permutations of 1..n avoiding 132 and consecutive 123, grown by
    appending values and cutting every prefix that already contains one."""

    def grow(prefix: list[int], free: set[int]):
        if not free:
            yield tuple(prefix)
            return
        for v in sorted(free):
            prefix.append(v)
            if not (contains_132(prefix) or contains_consecutive_123(prefix[-3:])):
                yield from grow(prefix, free - {v})
            prefix.pop()

    yield from grow([], set(range(1, n + 1)))


def inv(p) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j])


def coinv(p) -> int:
    return comb(len(p), 2) - inv(p)


def des(p) -> int:
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def fix(p) -> int:
    return sum(1 for i, v in enumerate(p, start=1) if i == v)


def consecutive(p, pattern: tuple[int, ...]) -> int:
    m = len(pattern)
    return sum(1 for i in range(len(p) - m + 1) if _order_type(p[i : i + m]) == pattern)


def tabulate(members, stats) -> dict[tuple, int]:
    out: dict[tuple, int] = {}
    for p in members:
        key = tuple(f(p) for f in stats)
        out[key] = out.get(key, 0) + 1
    return out


def i3412_class(n: int):
    return (p for p in involutions(n) if not contains_classical(p, (3, 4, 1, 2)))


# ---------------------------------------------------------------------------
# per-object facts for the maps


def standard_cycles(p) -> tuple[tuple[int, ...], ...]:
    """Cycles led by their least element, in decreasing order of it."""
    seen, cycles = set(), []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        cycle, v = [], start
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = p[v - 1]
        cycles.append(tuple(cycle))
    return tuple(sorted(cycles, key=lambda c: -c[0]))


def run_steps(p) -> str:
    """Step i of the history of p: the role of the value i in its ascending
    run (U head, D tail, H a run of one, T inside a run)."""
    role = {}
    start = 0
    for end in range(1, len(p) + 1):
        if end == len(p) or p[end] < p[end - 1]:
            run = p[start:end]
            if len(run) == 1:
                role[run[0]] = "H"
            else:
                role[run[0]], role[run[-1]] = "U", "D"
                for v in run[1:-1]:
                    role[v] = "T"
            start = end
    return "".join(role[v] for v in range(1, len(p) + 1))


def heights(word: str) -> list[int]:
    """Height of each step: end height for D, start height otherwise."""
    out, y = [], 0
    for step in word:
        if step == "D":
            y -= 1
            out.append(y)
        else:
            out.append(y)
            y += 1 if step == "U" else 0
    return out
