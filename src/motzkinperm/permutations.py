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
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BoundExceededError

#: Default ceiling for exhaustive enumeration; 12! is already half a billion.
ENUMERATION_BOUND = 12
#: Ceiling for the series order of ``gf --N`` and ``verify --N``.  The
#: slowest named series (``inv_des_fix``, ``weak_valley``) take 7.5-9.7 s
#: at order 22, 15 s at 23 and 18 s at 24 on a 2-CPU machine (Python 3.11).
SERIES_ORDER_BOUND = 22

CycleForm = tuple[tuple[int, ...], ...]


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

    @property
    def n(self) -> int:
        return len(self)

    def image(self, i: int) -> int:
        """Value at 1-based position i."""
        return self[i - 1]

    def position(self, v: int) -> int:
        """1-based position of value v."""
        return self.index(v) + 1

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse space-separated values; a compact digit string is accepted
        for n <= 9 ("826913547")."""
        text = text.strip()
        if not text:
            return cls(())
        if any(ch in text for ch in " ,"):
            return cls(int(part) for part in text.replace(",", " ").split())
        if not text.isdigit():
            raise ValueError(f"cannot parse permutation from {text!r}")
        return cls(int(ch) for ch in text)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self)

    def __repr__(self) -> str:
        return f"Permutation({self})"


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def inv_count(p: Permutation) -> int:
    """Number of pairs i < j with p_i > p_j.

    >>> inv_count(Permutation.parse("2 1"))
    1
    """
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def coinv_count(p: Permutation) -> int:
    """Number of pairs i < j with p_i < p_j; complements inv_count to C(n, 2)."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] < p[j])


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
    return tuple(tuple(int(v) for v in part.split(",")) for part in parts)


ROLE_HEAD = "head"
ROLE_TAIL = "tail"
ROLE_HEAD_TAIL = "head-tail"
ROLE_BOARDER = "boarder"


@dataclass(frozen=True)
class RunAnatomy:
    """Decomposition into maximal increasing factors plus per-position roles.

    A run of length 1 contributes a single head-tail; a longer run
    contributes a head, a tail, and boarders in between.
    """

    runs: tuple[tuple[int, ...], ...]
    roles: tuple[str, ...]


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


def run_anatomy(p: Permutation) -> RunAnatomy:
    runs = ascending_runs(p)
    roles: list[str] = []
    for run in runs:
        if len(run) == 1:
            roles.append(ROLE_HEAD_TAIL)
        else:
            roles.append(ROLE_HEAD)
            roles.extend([ROLE_BOARDER] * (len(run) - 2))
            roles.append(ROLE_TAIL)
    return RunAnatomy(runs, tuple(roles))


def enumerate_permutations(n: int, bound: int = ENUMERATION_BOUND) -> Iterator[Permutation]:
    """All n! permutations, in lexicographic order."""
    if n > bound:
        raise BoundExceededError(n, bound, "permutation enumeration")
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def enumerate_involutions(n: int, bound: int = ENUMERATION_BOUND) -> Iterator[Permutation]:
    """All involutions of size n, generated directly by choosing, for the
    least unplaced element, either a fixed point or a partner."""
    if n > bound:
        raise BoundExceededError(n, bound, "involution enumeration")
    word = [0] * n

    def fill(free: list[int]) -> Iterator[Permutation]:
        if not free:
            yield Permutation(word)
            return
        i = free[0]
        word[i - 1] = i
        yield from fill(free[1:])
        for k in range(1, len(free)):
            j = free[k]
            word[i - 1], word[j - 1] = j, i
            yield from fill(free[1:k] + free[k + 1 :])

    yield from fill(list(range(1, n + 1)))


def involution_number(n: int) -> int:
    """Count of involutions in S_n via I(n) = I(n-1) + (n-1) I(n-2)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n >= 1 else 1
