"""Classical, vincular, and consecutive pattern containment, occurrence
counting, and avoidance-class enumeration.

A pattern is a small permutation together with a set of adjacency
constraints: adjacency at i means that the letters matching pattern
positions i and i+1 must sit next to each other in the host word.  No
constraints gives a classical pattern; constraints everywhere gives a
consecutive pattern (occurrences are contiguous windows).

Text grammar: digit blocks separated by "_".  Letters inside a
multi-letter block are glued; separate blocks are unconstrained.  A string
without "_" is a classical pattern.  Examples: "3412" is classical,
"1_32" has letters 1,3,2 with 3,2 glued, "_123" is the consecutive
pattern on 1,2,3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .permutations import Permutation, _walk


@dataclass(frozen=True)
class PatternSpec:
    letters: Permutation
    adjacency: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "letters", Permutation(self.letters))
        object.__setattr__(self, "adjacency", frozenset(self.adjacency))
        m = len(self.letters)
        if not all(1 <= i <= m - 1 for i in self.adjacency):
            raise ValueError(f"adjacency indices must lie in 1..{m - 1}")
        # The matcher places letters right to left.  For letter k it needs:
        # whether k is glued to letter k + 1, its value, and the values of
        # the letters right of k nearest below and above it (0 and m + 1
        # when there are none).  Order isomorphism with the letters placed
        # so far holds exactly when the candidate lies between those two.
        letters = self.letters

        def plan(stop: int) -> tuple:
            return tuple(
                (
                    k + 1 in self.adjacency,
                    v,
                    max((u for u in letters[k + 1 : stop] if u < v), default=0),
                    min((u for u in letters[k + 1 : stop] if u > v), default=m + 1),
                )
                for k, v in enumerate(letters[:stop])
            )

        object.__setattr__(self, "_plan", plan(m))
        # A last letter that is not glued may stand anywhere right of the
        # others, so enumerate_class looks one letter ahead: it matches
        # letters 1..m-1 alone (against each other only), and letter m then
        # needs a value strictly between the host values of pattern values
        # last - 1 and last + 1.
        lookahead = m >= 2 and m - 1 not in self.adjacency
        object.__setattr__(self, "_lookahead", plan(m - 1) if lookahead else None)
        # got[v] is the host value matched to pattern value v.  got[0] lies
        # below every host value (they start at 1); got[m + 1] is unbounded
        # because the partial words of enumerate_class hold values larger
        # than their length.
        object.__setattr__(self, "_got", [0] * (m + 1) + [math.inf])

    @classmethod
    def classical(cls, letters: Iterable[int]) -> "PatternSpec":
        return cls(Permutation(letters), frozenset())

    @classmethod
    def consecutive(cls, letters: Iterable[int]) -> "PatternSpec":
        word = Permutation(letters)
        return cls(word, frozenset(range(1, len(word))))

    @classmethod
    def parse(cls, text: str) -> "PatternSpec":
        text = text.strip()
        if not text:
            raise ValueError("empty pattern")
        if "_" not in text:
            if not text.isdecimal():
                raise ValueError(f"cannot parse pattern from {text!r}")
            return cls.classical(int(ch) for ch in text)
        blocks = text.split("_")
        if blocks[0] == "":
            blocks = blocks[1:]
        if not blocks or any(not b.isdecimal() for b in blocks):
            raise ValueError(f"cannot parse pattern from {text!r}")
        letters: list[int] = []
        adjacency: set[int] = set()
        for block in blocks:
            start = len(letters) + 1
            letters.extend(int(ch) for ch in block)
            adjacency.update(range(start, start + len(block) - 1))
        return cls(Permutation(letters), frozenset(adjacency))

    def __str__(self) -> str:
        if len(self.letters) > 9:
            raise ValueError("text form only supports single-digit letters")
        if not self.adjacency:
            return "".join(str(v) for v in self.letters)
        blocks = []
        current = [str(self.letters[0])]
        for i in range(1, len(self.letters)):
            if i in self.adjacency:
                current.append(str(self.letters[i]))
            else:
                blocks.append("".join(current))
                current = [str(self.letters[i])]
        blocks.append("".join(current))
        text = "_".join(blocks)
        return "_" + text if len(blocks[0]) > 1 else text


def _count(values: Sequence, spec: PatternSpec, ends: Iterable, first: bool = False) -> int:
    """Number of occurrences of the pattern in values whose last letter sits
    at one of the 0-based indices in ``ends``; with ``first``, stop at the
    first one found (the result is then 0 or 1).

    Letters are placed right to left from that anchor.  A letter glued to
    its right neighbour has one candidate position, a free letter scans
    leftwards, and each candidate is compared only with the placed letters
    nearest to it in value (see ``PatternSpec._plan``)."""
    plan = spec._plan
    m = len(plan)
    if m == 0:
        return 1
    got = spec._got[:]
    last = plan[-1][1]
    found = 0
    for end in ends:
        if end >= m - 1:
            got[last] = values[end]
            found += _extend(values, plan, got, m - 2, end, first, None, 0)
            if found and first:
                break
    return found


def _extend(
    values: Sequence, plan: tuple, got: list, k: int, right: int, first: bool, free: int | None, gap: int
) -> int:
    """Ways to place letters k, k-1, ..., 0 of a plan left of index right,
    where right > k leaves each of them room.  With ``free``, the bitmask
    of ``enumerate_class``'s values not yet placed, a way counts only if
    one of them lies strictly between the host values of pattern values
    gap - 1 and gap + 1.  Not a closure: a self-recursive closure is a
    reference cycle, which only the cyclic garbage collector frees."""
    if k < 0:
        if free is None:
            return 1
        # the least free value above got[gap - 1] must lie below got[gap + 1]
        over = free & -(2 << got[gap - 1])
        return 1 if over and (over & -over).bit_length() - 1 < got[gap + 1] else 0
    glued, value, below, above = plan[k]
    low, high = got[below], got[above]
    if glued:  # one candidate, right - 1
        if low < values[right - 1] < high:
            got[value] = values[right - 1]
            return _extend(values, plan, got, k - 1, right - 1, first, free, gap)
        return 0
    found = 0
    for pos in range(right - 1, k - 1, -1):
        v = values[pos]
        if low < v < high:
            got[value] = v
            found += _extend(values, plan, got, k - 1, pos, first, free, gap)
            if found and first:
                break
    return found


def occurrences(p: Permutation, t: PatternSpec) -> int:
    """Number of index tuples i_1 < ... < i_m whose letters are order
    isomorphic to the pattern and satisfy every adjacency constraint.

    >>> occurrences(Permutation.parse("431256"), PatternSpec.parse("2_13"))
    2
    """
    return _count(p, t, range(len(p)))


def contains(p: Permutation, t: PatternSpec) -> bool:
    """Early-exit containment test; equivalent to occurrences(p, t) > 0."""
    return _count(p, t, range(len(p)), first=True) > 0


def avoids(p: Permutation, t: PatternSpec) -> bool:
    return not contains(p, t)


def avoids_all(p: Permutation, ts: Iterable[PatternSpec]) -> bool:
    return all(avoids(p, t) for t in ts)


def consecutive_occurrences(p: Permutation, t: Permutation) -> int:
    """Number of length-m windows of p order isomorphic to t.  Hot callers
    pass a prebuilt ``PatternSpec.consecutive(t)`` to ``occurrences``.

    >>> consecutive_occurrences(Permutation.parse("321"), Permutation.parse("321"))
    1
    """
    return occurrences(p, PatternSpec.consecutive(t))


def enumerate_class(
    n: int, patterns: Iterable[PatternSpec], base: str = "all"
) -> Iterator[Permutation]:
    """Members of the avoidance class within S_n (base="all") or within the
    involutions of size n (base="involutions"), in lexicographic order.

    Both bases walk one prefix tree of partial words and prune a prefix as
    soon as every completion of it contains a pattern, so a class far
    smaller than its base is enumerated without touching all of the base.
    For a pattern whose last letter is glued, or of length 1, that is when
    the prefix completes an occurrence.  Otherwise it is when the prefix
    completes an occurrence of letters 1..m-1 and a free value, which every
    completion places later, lies in the interval letter m needs; no prefix
    that completes the whole pattern is reached, since a shorter one is
    dead.  A walk that tests more than ``permutations.WALK_BUDGET``
    prefixes raises ``BoundExceededError``.

    >>> len(list(enumerate_class(4, [PatternSpec.parse("132"), PatternSpec.parse("_123")])))
    9
    """
    if base not in ("all", "involutions"):
        raise ValueError(f"unknown base {base!r}")
    # each pattern once: its plan, a got buffer of this call's own, the
    # index k of the letter left of the anchor (a prefix shorter than k + 2
    # holds no occurrence), the pattern value anchored at the new letter,
    # and for a look-ahead plan the value of the last letter, else 0
    tests = []
    for s in patterns:
        plan = s._lookahead or s._plan
        gap = s.letters[-1] if s._lookahead else 0
        tests.append((plan, s._got[:], len(plan) - 2, plan[-1][1] if plan else 0, gap))

    def dead(word: list[int], free: int) -> bool:
        end = len(word) - 1
        for plan, got, k, last, gap in tests:
            if end > k:
                got[last] = word[end]
                if _extend(word, plan, got, k, end, True, free if gap else None, gap):
                    return True
        return False

    yield from _walk(n, base == "involutions", dead if tests else None)
