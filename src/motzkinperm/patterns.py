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

Each spec is matched by Python source generated from its plan and compiled
the first time a count, a containment test or a class walk needs it: one
nested loop per free letter, one fixed index per glued letter, and each
letter's value bounds as comparisons with local variables.  The spec keeps
the three functions it compiles, one each behind ``occurrences``,
``contains`` and the prune of ``enumerate_class``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

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

    @cached_property
    def _occurrences(self) -> Callable[[Sequence[int]], int]:
        return _compile(self._plan, len(self.letters), "count")

    @cached_property
    def _contains(self) -> Callable[[Sequence[int]], bool]:
        return _compile(self._plan, len(self.letters), "first")

    @cached_property
    def _dead(self) -> Callable[[Sequence[int], int], bool]:
        if self._lookahead is None:
            return _compile(self._plan, len(self.letters), "dead")
        return _compile(self._lookahead, len(self.letters), "dead", self.letters[-1])

    @classmethod
    def classical(cls, letters: Iterable[int]) -> "PatternSpec":
        return cls(Permutation(letters), frozenset())

    @classmethod
    def consecutive(cls, letters: Iterable[int]) -> "PatternSpec":
        """The pattern whose occurrences are windows of adjacent letters;
        build it once per pattern and pass it to ``occurrences``.

        >>> occurrences(Permutation.parse("321"), PatternSpec.consecutive((3, 2, 1)))
        1
        """
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


def _compile(plan: tuple, m: int, mode: str, gap: int = 0) -> Callable:
    """The matcher of ``plan`` (see ``PatternSpec``), for a pattern of
    length m, as a function compiled from generated source.

    Mode "count" gives ``match(w)``, the number of occurrences in w, and
    "first" gives ``match(w)``, whether w holds one.  Mode "dead" gives
    ``match(w, free)``, whether an occurrence ends at the last letter of w;
    with ``gap``, the value of the pattern's last letter, it also needs a
    value of the bitmask ``free`` strictly between the host values of
    pattern values gap - 1 and gap + 1.

    Letters are placed right to left from an anchor.  Letter k stands at
    index ``p<k>`` and pattern value u is matched to host value ``v<u>``.
    A glued letter has one index, its right neighbour's less one.  A free
    letter scans leftwards from there to index k, which leaves room for the
    k letters left of it.  Each candidate is compared only with the placed
    letters nearest to it in value; pattern values 0 and m + 1 stand for no
    bound.  The source holds only names, keywords and the ints of the plan
    (the ``:d`` formats refuse anything else)."""
    # the statement run when every letter is placed, and the last return
    hit, end = ("found += 1", "return found") if mode == "count" else ("return True", "return False")
    code = [(1, "found = 0")] if mode == "count" else []
    depth = 1
    if plan:
        top = len(plan) - 1
        if mode == "dead":
            code.append((1, f"p{top:d} = len(w) - 1"))
            if top:
                code += [(1, f"if p{top:d} < {top:d}:"), (2, "return False")]
        else:
            code.append((1, f"for p{top:d} in range({top:d}, len(w)):"))
            depth = 2
        code.append((depth, f"v{plan[top][1]:d} = w[p{top:d}]"))
        # letter k + 1 stands at index p<anchor> - shift
        anchor, shift = top, 0
        for k in range(top - 1, -1, -1):
            glued, value, below, above = plan[k]
            if glued:
                shift += 1
                code.append((depth, f"v{value:d} = w[p{anchor:d} - {shift:d}]"))
            else:
                code.append((depth, f"for p{k:d} in range(p{anchor:d} - {shift + 1:d}, {k - 1:d}, -1):"))
                depth += 1
                code.append((depth, f"v{value:d} = w[p{k:d}]"))
                anchor, shift = k, 0
            lower = f"v{below:d} < " if below else ""
            upper = f" < v{above:d}" if above <= m else ""
            code.append((depth, f"if {lower}v{value:d}{upper}:"))
            depth += 1
        if gap:
            # bits v<gap - 1> + 1 up to v<gap + 1> - 1
            lower = f"(2 << v{gap - 1:d})" if gap > 1 else "2"
            mask = f"(1 << v{gap + 1:d}) - {lower}" if gap < m else f"-{lower}"
            code.append((depth, f"if free & ({mask}):"))
            depth += 1
    code += [(depth, hit), (1, end)]
    source = "def match(w, free):\n" if mode == "dead" else "def match(w):\n"
    source += "".join("    " * d + line + "\n" for d, line in code)
    # the namespace keeps no reference to the function, so the function's
    # globals do not refer back to it
    namespace: dict = {}
    exec(compile(source, "<pattern matcher>", "exec"), namespace)
    return namespace.pop("match")


def occurrences(p: Permutation, t: PatternSpec) -> int:
    """Number of index tuples i_1 < ... < i_m whose letters are order
    isomorphic to the pattern and satisfy every adjacency constraint.

    >>> occurrences(Permutation.parse("431256"), PatternSpec.parse("2_13"))
    2
    """
    return t._occurrences(p)


def contains(p: Permutation, t: PatternSpec) -> bool:
    """Early-exit containment test; equivalent to occurrences(p, t) > 0."""
    return t._contains(p)


def avoids(p: Permutation, t: PatternSpec) -> bool:
    return not contains(p, t)


def avoids_all(p: Permutation, ts: Iterable[PatternSpec]) -> bool:
    return all(avoids(p, t) for t in ts)


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
    dead.  Each prefix costs one call of each pattern's compiled prune,
    anchored at the prefix's last letter (see ``_compile``).  A walk that
    tests more than ``permutations.WALK_BUDGET`` prefixes raises
    ``BoundExceededError``.

    >>> len(list(enumerate_class(4, [PatternSpec.parse("132"), PatternSpec.parse("_123")])))
    9
    """
    if base not in ("all", "involutions"):
        raise ValueError(f"unknown base {base!r}")
    tests = [s._dead for s in patterns]
    if len(tests) > 1:

        def dead(word: list[int], free: int) -> bool:
            for test in tests:
                if test(word, free):
                    return True
            return False

    else:
        dead = tests[0] if tests else None
    yield from _walk(n, base == "involutions", dead)
