"""Permutations in one-line notation, cycle forms, ascending runs, and
elementary statistics.

Positions and values are 1-based throughout, matching the usual
combinatorial conventions: a permutation of size n is a word containing
each of 1..n exactly once.  The empty permutation (n = 0) is allowed and
counts as an involution with no fixed points, no inversions and no
descents.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from .errors import BoundExceededError

#: Ceiling on n for every exhaustive enumerator; 12! is already half a
#: billion.  It bounds n, not work; ``WALK_BUDGET`` bounds the work of the
#: prefix walks.
ENUMERATION_BOUND = 12
#: Ceiling on the prefixes one walk of ``_walk`` tests.  It admits every
#: class walk of ``verify --nmax 12``, the largest being S_12(1_32,1_23) at
#: 6456936 prefixes, and all of S_10 (9864100).  ``table --class "S()"
#: --n 12`` is refused after 19 s and ``S(4321)`` after 44 s (2 CPUs,
#: Python 3.11), where the whole walk would take about 50 min.
WALK_BUDGET = 10**7
#: Ceiling for the series order of ``gf --N`` and ``verify --N``, set where
#: the slowest named series took about 10 s.  ``gf --name inv_des_fix --N
#: 30`` takes about 3 s and ``verify genfun --N 30``, which adds the path
#: transfer matrix and the cluster series, about 8 s on a 2-CPU machine
#: (Python 3.11); ``coinv_des`` is next at 0.9 s.  Exponents
#: stay far below ``series.MAX_EXPONENT``: inv and coinv are at most C(30, 2).
SERIES_ORDER_BOUND = 30

CycleForm = tuple[tuple[int, ...], ...]


def refuse_negative(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")


def check_size(n: int, what: str, bound: int = ENUMERATION_BOUND) -> None:
    """Refuse a negative size, and a size past the bound before any work."""
    refuse_negative(n)
    if n > bound:
        raise BoundExceededError(n, bound, what)


class Permutation(tuple):
    """A permutation as an immutable 1-based one-line word.

    >>> Permutation([2, 1, 3])
    Permutation(2 1 3)
    >>> Permutation.parse("8 2 6 9 1 3 5 4 7")[0]
    8
    """

    def __new__(cls, values: Iterable[int]) -> "Permutation":
        word = tuple(values)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word!r}")
        return super().__new__(cls, word)

    @classmethod
    def _trusted(cls, word: Iterable[int]) -> "Permutation":
        """The permutation ``word`` without the check of ``Permutation``,
        for a builder that has placed each of 1..n exactly once."""
        return tuple.__new__(cls, word)

    @property
    def n(self) -> int:
        return len(self)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse space-separated values; a compact digit string is accepted
        for n <= 9 ("826913547")."""
        text = text.strip()
        parts = text.replace(",", " ").split() if any(ch in text for ch in " ,") else text
        return cls(_parse_ints(parts, "permutation", text))

    def __str__(self) -> str:
        return " ".join(str(v) for v in self)

    def __repr__(self) -> str:
        return f"Permutation({self})"


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def inv_count(p: Permutation) -> int:
    """Number of pairs i < j with p_i > p_j: one pass that counts, for each
    value, the larger values already seen in a bitmask.

    >>> inv_count(Permutation.parse("2 1"))
    1
    """
    count = seen = 0
    for v in p:
        count += (seen >> v).bit_count()
        seen |= 1 << v
    return count


def coinv_count(p: Permutation) -> int:
    """Number of pairs i < j with p_i < p_j: C(n, 2) - inv_count(p)."""
    return len(p) * (len(p) - 1) // 2 - inv_count(p)


def des_count(p: Permutation) -> int:
    """Number of positions i with p_i > p_{i+1}."""
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def asc_count(p: Permutation) -> int:
    """Number of positions i with p_i < p_{i+1}."""
    return sum(1 for i in range(len(p) - 1) if p[i] < p[i + 1])


def fix_count(p: Permutation) -> int:
    """Number of fixed points p_i = i."""
    return sum(1 for i, v in enumerate(p, start=1) if v == i)


def reverse_complement(p: Permutation) -> Permutation:
    """The word whose i-th letter is n+1-p_{n+1-i}; an involution on S_n.

    >>> reverse_complement(Permutation.parse("3 1 2"))
    Permutation(2 3 1)
    """
    n = len(p)
    return Permutation(n + 1 - p[n - i] for i in range(1, n + 1))


def is_involution(p: Permutation) -> bool:
    """True iff p composed with itself is the identity."""
    return all(p[v - 1] == i for i, v in enumerate(p, start=1))


def standard_cycles(p: Permutation) -> CycleForm:
    """Cycle form with each cycle led by its least element and cycles in
    decreasing order of their least elements.

    >>> format_cycles(standard_cycles(Permutation.parse("47318625")))
    '(6)(5,8)(3)(2,7)(1,4)'
    """
    seen = [False] * len(p)
    cycles = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cycle = []
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            cycle.append(v)
            v = p[v - 1]
        cycles.append(tuple(cycle))
    cycles.sort(key=lambda c: -c[0])
    return tuple(cycles)


def cycles_to_permutation(cycles: CycleForm) -> Permutation:
    """Rebuild the one-line word from any disjoint cycle decomposition."""
    n = sum(len(c) for c in cycles)
    word = [0] * n
    for cycle in cycles:
        for i, v in enumerate(cycle):
            if not 1 <= v <= n:
                raise ValueError(f"cycle entry {v} outside 1..{n}")
            word[v - 1] = cycle[(i + 1) % len(cycle)]
    return Permutation(word)


def validate_standard_cycles(cycles: CycleForm) -> None:
    """Raise ValueError unless the cycle form is standard: least element
    first in each cycle, cycles by decreasing least element, contents a
    partition of 1..n."""
    for cycle in cycles:
        if not cycle:
            raise ValueError("empty cycle")
        if min(cycle) != cycle[0]:
            raise ValueError(f"cycle {cycle} does not start with its least element")
    leasts = [c[0] for c in cycles]
    if leasts != sorted(leasts, reverse=True):
        raise ValueError("cycles are not in decreasing order of least elements")
    support = sorted(itertools.chain.from_iterable(cycles))
    if support != list(range(1, len(support) + 1)):
        raise ValueError("cycle contents do not partition 1..n")


def format_cycles(cycles: CycleForm) -> str:
    return "".join("(" + ",".join(str(v) for v in c) + ")" for c in cycles)


def parse_cycles(text: str) -> CycleForm:
    """Parse "(6)(5,8)(3)(2,7)(1,4)"."""
    text = text.strip().replace(" ", "")
    if not text:
        return ()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"cannot parse cycle form from {text!r}")
    parts = text[1:-1].split(")(")
    return tuple(_parse_ints(part.split(","), "cycle form", text) for part in parts)


def _parse_ints(parts: Iterable[str], what: str, text: str) -> tuple[int, ...]:
    """The parts as integers; a part that is not one raises a ValueError
    naming the whole input."""
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ValueError(f"cannot parse {what} from {text!r}") from None


def ascending_runs(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """Maximal increasing factors of the one-line word.

    >>> ascending_runs(Permutation.parse("346512"))
    ((3, 4, 6), (5,), (1, 2))
    """
    runs = []
    current: list[int] = []
    for v in p:
        if current and v < current[-1]:
            runs.append(tuple(current))
            current = []
        current.append(v)
    if current:
        runs.append(tuple(current))
    return tuple(runs)


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations, in lexicographic order."""
    check_size(n, "permutation enumeration")
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation._trusted(word)


def enumerate_involutions(n: int) -> Iterator[Permutation]:
    """All involutions of size n, in lexicographic order; more than
    ``WALK_BUDGET`` prefixes raise ``BoundExceededError``."""
    yield from _walk(n, True)


def _walk(
    n: int, involutions: bool, prune: Callable[[list[int], int], bool] | None = None
) -> Iterator[Permutation]:
    """The permutations of size n, or with ``involutions`` the involutions,
    with no prefix that ``prune`` rejects, in lexicographic order.

    Positions are filled left to right and each prefix is passed to
    ``prune`` once, right after its last letter is placed, together with
    the bitmask of the values not yet placed (bit v for value v); every
    completion places those values right of the prefix.  An involution
    whose position j < i holds i must hold j at position i; otherwise
    position i takes i itself or a free value above it.

    One loop over an explicit stack, which holds per filled position the
    bitmask of the values still to try there, tries the least bit first and
    yields every member; a walk past ``WALK_BUDGET`` prefixes raises
    ``BoundExceededError``."""
    what = "involution enumeration" if involutions else "class enumeration"
    check_size(n, what)
    if n == 0:
        yield Permutation._trusted(())
        return
    budget = WALK_BUDGET
    nodes = 0
    word: list[int] = []
    free = (1 << (n + 1)) - 2
    # position 1 may take every value, in either base
    stack = [free]
    while stack:
        untried = stack[-1]
        if not untried:
            stack.pop()
            if word:
                free |= 1 << word.pop()
            continue
        bit = untried & -untried
        stack[-1] = untried ^ bit
        nodes += 1
        if nodes > budget:
            raise BoundExceededError(n, budget, what, "prefixes")
        word.append(bit.bit_length() - 1)
        free ^= bit
        if prune is None or not prune(word, free):
            i = len(word)
            if i < n:
                if not involutions:
                    stack.append(free)
                elif free >> (i + 1) & 1:
                    stack.append(free >> (i + 1) << (i + 1))
                else:  # value i + 1 stands at position j, so j goes here
                    stack.append(2 << word.index(i + 1))
                continue
            yield Permutation._trusted(word)
        word.pop()
        free ^= bit


def involution_number(n: int) -> int:
    """Count of involutions in S_n via I(n) = I(n-1) + (n-1) I(n-2)."""
    refuse_negative(n)
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n >= 1 else 1
