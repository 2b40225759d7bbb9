"""The correspondences between permutations, involutions, and Motzkin-type
paths, together with statistic transport along them.

Maps provided:

* ``perm_to_history`` sends any permutation to a Laguerre history by
  reading the role (head / tail / head-tail / boarder) of each value in
  the ascending-run decomposition and attaching crossing labels.
* ``history_to_perm`` inverts it by construction at every size: values
  enter in increasing order, and each label names the open run that a
  value joins or that a new run follows (Francon-Viennot).
* ``foata`` erases the parentheses of the standard cycle form of an
  involution; its image is the class avoiding the vincular patterns 1_32
  and 1_23.
* ``involution_to_path`` sends an involution to a labeled Motzkin path
  (fixed point -> H, cycle opener -> U, cycle closer -> D with a crossing
  label).
* ``motzkin_to_perm`` rebuilds, from a plain Motzkin word, the unique
  member of the class avoiding 132 and consecutive 123 whose history has
  that word and all labels zero, by reading tunnels in decreasing order
  of their left endpoint.

Each forward map is one left-to-right sweep that keeps the same list as
its inverse (the open runs for Gamma, the open cycles for Psi) and finds
each crossing label by one binary search in it, so both directions run
in near-linear time.  ``foata_inverse`` reads its domain off the cut at
left-to-right minima instead of searching for patterns.

The statistic transports live in one table, ``TRANSPORTS``, one row per
statistic and class, and ``joint_path`` joins the path steps of rows.
``CONSECUTIVE_OF_WINDOW`` translates every three-step window of a path
into the consecutive pattern realized by the corresponding involution.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import InvariantError
from .paths import (
    BicoloredMotzkinWord,
    LabeledMotzkinPath,
    LaguerreHistory,
    MotzkinWord,
    area,
    enumerate_labeled,
    enumerate_motzkin,
    labeled_to_history,
    named_statistic,
    tunnels,
)
from .patterns import PatternSpec, avoids, enumerate_class, occurrences
from .permutations import (
    CycleForm,
    Permutation,
    asc_count,
    coinv_count,
    des_count,
    enumerate_involutions,
    enumerate_permutations,
    fix_count,
    inv_count,
    is_involution,
    validate_standard_cycles,
)

#: Patterns whose avoidance characterizes the image of ``foata``.
VINCULAR_132 = PatternSpec.parse("1_32")
VINCULAR_123 = PatternSpec.parse("1_23")
CLASSICAL_132 = PatternSpec.parse("132")
CLASSICAL_3412 = PatternSpec.parse("3412")


def perm_to_history(p: Permutation) -> LaguerreHistory:
    """History of a permutation: step i is the role of the value i, and the
    label of i counts runs straddling i whose tail precedes i in the word.

    Values enter in increasing order, as in ``history_to_perm``, while the
    head positions of the open runs (head entered, tail not yet) are kept
    in word order.  A value is a head when it is first or follows a larger
    letter, and a tail when it precedes a smaller one, or the 0 put after
    the word.  The open runs before its own run are exactly the runs it
    counts, so its label is the index of its run's head in that list.  Its
    length is the height the step starts from, and a T or D step's own run
    is in it, so every label is within its bound and the history is built
    without re-checking it.

    >>> str(perm_to_history(Permutation.parse("826913547")))
    'UUTUDTDHD | l=0,0,1,2,1,0,1,0,0'
    """
    n = len(p)
    pos = [0] * (n + 1)
    head_of = [0] * n
    head = prev = 0
    for k, v in enumerate(p):
        if v < prev:
            head = k
        pos[v] = k
        head_of[k] = head
        prev = v
    after = (*p[1:], 0)
    steps = []
    labels = []
    opened: list[int] = []
    for v in range(1, n + 1):
        k = pos[v]
        head = head_of[k]
        label = bisect_left(opened, head)
        if head == k:
            if after[k] < v:
                steps.append("H")
            else:
                steps.append("U")
                opened.insert(label, k)
        elif after[k] < v:
            steps.append("D")
            del opened[label]
        else:
            steps.append("T")
        labels.append(label)
    word = str.__new__(BicoloredMotzkinWord, "".join(steps))
    return LaguerreHistory._trusted(word, tuple(labels))


def history_to_perm(h: LaguerreHistory) -> Permutation:
    """Constructive inverse of ``perm_to_history``.

    Values enter in increasing order, each linked into the word by a
    successor array, ``after[v]`` the value after v and ``after[0]`` the
    first; ``last`` keeps each open run (head placed, tail not yet), in
    word order, as its last value so far.  A U or H step labeled l starts a
    new run right after open run l - 1 (at the front when l = 0); a U run
    also joins the open runs at index l.  A T or D step labeled l appends
    its value to open run l (0-based), and D closes that run.  The label
    bounds of ``LaguerreHistory`` keep every index in range, so every
    history has a preimage, and each value is linked in once, so the word
    is a permutation without re-checking it.

    >>> str(history_to_perm(LaguerreHistory.parse("UUTUDTDHD | l=0,0,1,2,1,0,1,0,0")))
    '8 2 6 9 1 3 5 4 7'
    """
    after = [0] * (len(h.word) + 1)
    last: list[int] = []
    for value, (step, label) in enumerate(zip(h.word, h.labels), start=1):
        if step in "UH":
            prev = last[label - 1] if label else 0
            if step == "U":
                last.insert(label, value)
        else:
            prev = last[label]
            if step == "T":
                last[label] = value
            else:
                del last[label]
        after[value] = after[prev]
        after[prev] = value
    word, value = [], after[0]
    while value:
        word.append(value)
        value = after[value]
    return Permutation._trusted(word)


def foata(cycles: CycleForm) -> Permutation:
    """Erase the parentheses of a standard cycle form of an involution.

    >>> from .permutations import parse_cycles
    >>> str(foata(parse_cycles("(6)(5,8)(3)(2,7)(1,4)")))
    '6 5 8 3 2 7 1 4'
    """
    validate_standard_cycles(cycles)
    if any(len(c) > 2 for c in cycles):
        raise ValueError("cycle form is not an involution (cycle longer than 2)")
    return Permutation(v for cycle in cycles for v in cycle)


def foata_of(p: Permutation) -> Permutation:
    """``foata`` applied to the standard cycle form of an involution, in
    one sweep down from n: each value that leads its cycle (a fixed point,
    or the smaller value of a 2-cycle) is written, then its partner."""
    if not is_involution(p):
        raise ValueError(f"{p} is not an involution")
    word = []
    for i in range(len(p), 0, -1):
        j = p[i - 1]
        if j >= i:
            word.append(i)
            if j > i:
                word.append(j)
    return Permutation._trusted(word)


def foata_inverse(p: Permutation) -> CycleForm:
    """Cut the word before every left-to-right minimum and read the pieces
    as cycles.  Defined exactly on the avoidance class of 1_32 and 1_23.

    Each piece starts with its minimum, so two adjacent letters after it in
    the piece, with that minimum before them, are an occurrence of 1_32 or
    1_23; the word is in the class exactly when no piece has three letters.
    """
    cycles: list[list[int]] = []
    for v in p:
        if cycles and v > cycles[-1][0]:
            cycles[-1].append(v)
        else:
            cycles.append([v])
    long = [c for c in cycles if len(c) > 2]
    if long:
        descent = any(c[k] > c[k + 1] for c in long for k in range(1, len(c) - 1))
        spec = VINCULAR_132 if descent else VINCULAR_123
        raise ValueError(f"{p} contains the vincular pattern {spec}")
    return tuple(map(tuple, cycles))


def involution_to_path(p: Permutation) -> LabeledMotzkinPath:
    """Labeled Motzkin path of an involution: H at fixed points, U at cycle
    openers, D at cycle closers; a closer of (j, i) is labeled with the
    number of cycles (x, y) satisfying j < x < i < y.

    The open openers are kept in increasing order, as in
    ``path_to_involution``; those after j are the ones counted, and the
    closer then removes j, so the label is at most the closer's height.

    >>> str(involution_to_path(Permutation.parse("65382174")))
    'UUHUD1D1HD0'
    """
    if not is_involution(p):
        raise ValueError(f"{p} is not an involution")
    steps = []
    labels = []
    opens: list[int] = []
    for i, j in enumerate(p, start=1):
        if j == i:
            steps.append("H")
        elif j > i:
            steps.append("U")
            opens.append(i)
        else:
            steps.append("D")
            k = bisect_left(opens, j)
            labels.append(len(opens) - 1 - k)
            del opens[k]
    word = str.__new__(MotzkinWord, "".join(steps))
    return LabeledMotzkinPath._trusted(word, tuple(labels))


def path_to_involution(m: LabeledMotzkinPath) -> Permutation:
    """Constructive inverse of ``involution_to_path``: scanning left to
    right, U opens a cycle, H fixes its position, and a D labeled h closes
    the (h+1)-th largest open opener.  The label bounds keep that opener in
    range and every position is written once, so the word is a permutation
    without re-checking it."""
    word = [0] * m.n
    opens: list[int] = []
    labels = iter(m.labels)
    for i, ch in enumerate(str(m.word), start=1):
        if ch == "H":
            word[i - 1] = i
        elif ch == "U":
            opens.append(i)
        else:
            j = opens.pop(-(next(labels) + 1))
            word[i - 1], word[j - 1] = j, i
    return Permutation._trusted(word)


def motzkin_to_perm(w: MotzkinWord) -> Permutation:
    """The member of the class avoiding 132 and consecutive 123 whose
    history is (w, all labels zero): tunnels in decreasing order of their
    left endpoint become ascending runs (left+1, right), trivial tunnels
    becoming one-letter runs.  A tunnel's left endpoint is where its U or
    H step starts, so one pass matches each U with its D and a second
    reads the U and H steps from right to left.

    >>> str(motzkin_to_perm(MotzkinWord("UUUDDUHDDUD")))
    '10 11 7 6 8 3 4 2 5 1 9'
    """
    steps = str(w)
    closer = [0] * len(steps)
    opens: list[int] = []
    for i, ch in enumerate(steps, start=1):
        if ch == "U":
            opens.append(i)
        elif ch == "D":
            closer[opens.pop() - 1] = i
    word: list[int] = []
    for i in range(len(steps), 0, -1):
        ch = steps[i - 1]
        if ch == "U":
            word += (i, closer[i - 1])
        elif ch != "D":
            word.append(i)
    return Permutation(word)


#: The consecutive pattern realized by an involution across each
#: three-step window of its path.
CONSECUTIVE_OF_WINDOW = {
    "HHH": "123", "HHU": "123", "HHD": "231",
    "HUH": "132", "HUU": "132", "HUD": "132",
    "HDH": "213", "HDU": "213", "HDD": "321",
    "UHH": "312", "UHU": "312", "UHD": "321",
    "UUH": "321", "UUU": "321", "UUD": "321",
    "UDH": "213", "UDU": "213", "UDD": "321",
    "DHH": "123", "DHU": "123", "DHD": "231",
    "DUH": "132", "DUU": "132", "DUD": "132",
    "DDH": "213", "DDU": "213", "DDD": "321",
}

CONSECUTIVE_PATTERNS = ("123", "132", "213", "231", "312", "321")
#: The occurrences of each consecutive pattern, its spec built once for
#: the rows of both classes.
_OCCURRENCES = {name: lambda p, spec=PatternSpec.parse(f"_{name}"): occurrences(p, spec)
                for name in CONSECUTIVE_PATTERNS}


def _windows(pattern: str) -> list[str]:
    return [w for w, p in CONSECUTIVE_OF_WINDOW.items() if p == pattern]


def _factor_occurrences(words: Sequence[str]):
    """t per factor ending at the step; the state is the longest suffix read
    that is a proper prefix of a factor."""
    prefixes = {w[:i] for w in words for i in range(len(w))}

    def step(suffix: str, h: int, c: str):
        read = suffix + c
        count = sum(read.endswith(w) for w in words)
        while read not in prefixes:
            read = read[1:]
        return read, (count,)

    return step


def _before_non_d(mark):
    """t per step that ``mark(state, letter)`` picks out and that is not
    followed exclusively by D's: the mark waits in the state until a non-D."""

    def step(state, h: int, c: str):
        inner, waiting = state
        inner, marked = mark(inner, c)
        return (inner, marked or (waiting and c == "D")), (int(waiting and c != "D"),)

    return step


def _factor_row(perm: Callable[[Permutation], int], words: Sequence[str]) -> tuple:
    """The row of a statistic that counts the factors ``words`` of the path.
    The factors of a row have one length, so at most one starts at each
    position, and one look-ahead scan counts them all, overlaps included."""
    starts = re.compile(f"(?=(?:{'|'.join(words)}))")
    return perm, lambda w: len(starts.findall(w)), ("", _factor_occurrences(words))


def joint_path(pairs: Sequence[tuple[Hashable, Callable]]) -> tuple[tuple, Callable]:
    """The (start, step) pair of several statistics at once: the state is
    the tuple of their states, and the exponents are theirs, in order."""
    steps = [step for _, step in pairs]

    def step(states: tuple, h: int, c: str):
        moves = [f(s, h, c) for f, s in zip(steps, states)]
        return tuple(s for s, _ in moves), tuple(e for _, inc in moves for e in inc)

    return tuple(start for start, _ in pairs), step


#: Class -> statistic, named as ``table --stats`` names it -> (its count on
#: a member, its count on the member's path, and the ``path_series``
#: (start, step) that weighs each letter by its share of the path count).
#: The path is the image under Psi in I(3412), and under Gamma, a plain
#: zero-labeled word, in S(132,_123).  The area is the sum of the step
#: heights plus #U.
TRANSPORTS: dict[str, dict[str, tuple]] = {
    "I(3412)": {
        # inv = 2*area - (non-trivial tunnels, one per U): 2h + [U] per step
        "inv": (inv_count, lambda w: 2 * area(w) - w.count("U"),
                (None, lambda s, h, c: (s, (2 * h + (c == "U"),)))),
        "des": _factor_row(des_count, ("UU", "DD", "UH", "HD", "UD")),
        # the other four of the nine two-letter factors: the weak valleys
        "asc": _factor_row(asc_count, ("HH", "HU", "DH", "DU")),
        "fix": (fix_count, lambda w: w.count("H"), (None, lambda s, h, c: (s, (int(c == "H"),)))),
        **{f"occ:_{p}": _factor_row(_OCCURRENCES[p], _windows(p)) for p in CONSECUTIVE_PATTERNS},
    },
    "S(132,_123)": {
        "coinv": (coinv_count, area, (None, lambda s, h, c: (s, (h + (c == "U"),)))),
        # des = tunnels - 1 = #U + #H - 1, one per U or H after the first step
        "des": (des_count, lambda w: max(len(tunnels(w)) - 1, 0),
                (False, lambda started, h, c: (True, (int(started and c != "D"),)))),
        # a tunnel is long unless its D comes right after its U
        "occ:_213": _factor_row(_OCCURRENCES["213"], ("UU", "UH")),
        # an up step is non-initial when a step comes before it
        "occ:_231": _factor_row(_OCCURRENCES["231"], ("UU", "DU", "HU")),
        "occ:_312": (_OCCURRENCES["312"], lambda w: named_statistic(w, "nonfinal_peaks"),
                     (("", False), _before_non_d(lambda s, c: (c, s + c == "UD")))),
        "occ:_321": (_OCCURRENCES["321"], lambda w: named_statistic(w, "distinguished_H"),
                     (("", False), _before_non_d(lambda s, c: (c, c == "H" and s != "")))),
    },
}


@dataclass(frozen=True)
class TransportRecord:
    """Statistics of a 3412-avoiding involution computed two ways: directly
    on the word and through its path."""

    direct: dict[str, int]
    via_path: dict[str, int]


def transport_statistics(p: Permutation) -> TransportRecord:
    """Compute every statistic of the ``I(3412)`` rows of ``TRANSPORTS``
    (inv, des, asc, fix and the six consecutive patterns of length three)
    both directly and on the path image, raising InvariantError on any
    disagreement."""
    if not is_involution(p):
        raise ValueError(f"{p} is not an involution")
    if not avoids(p, CLASSICAL_3412):
        raise ValueError(f"{p} does not avoid 3412")
    word = involution_to_path(p).word
    direct = {name: perm(p) for name, (perm, _, _) in TRANSPORTS["I(3412)"].items()}
    via = {name: path_statistic(word) for name, (_, path_statistic, _) in TRANSPORTS["I(3412)"].items()}
    if direct != via:
        raise InvariantError(f"statistic transport mismatch for {p}: direct={direct} via_path={via}")
    return TransportRecord(direct, via)


@dataclass(frozen=True)
class DiagramReport:
    """Outcome of the commuting-diagram checks at one size."""

    n: int
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_diagram(n: int, *, path_map=involution_to_path) -> DiagramReport:
    """Verify, exhaustively at size n, that the triangle of maps commutes
    and that each image characterization holds as a set equality against
    a class enumerator:

    1. path_map = perm_to_history after foata_of on involutions;
    2. the permutations whose history has the labeled-path shape (no T,
       labels only on D) are the class avoiding 1_32 and 1_23, and their
       histories are exactly the labeled Motzkin paths;
    3. those whose history labels all vanish are the class avoiding 132;
    4. the involutions whose path labels all vanish are the class avoiding
       3412, and their paths are exactly the Motzkin words.

    A failed equality names the least permutation on one side only.
    ``path_map`` is the one injection point: a test feeds in a broken map
    to confirm the checker reports it.
    """
    failures: list[str] = []
    checked = 0

    def compare(found: set, patterns: tuple, base: str, what: str) -> None:
        expected = set(enumerate_class(n, patterns, base))
        if found != expected:
            failures.append(f"{what} characterization fails for {min(found ^ expected)}")

    labeled_shape: set[Permutation] = set()
    zero_labels: set[Permutation] = set()
    class_histories: set[LaguerreHistory] = set()
    for p in enumerate_permutations(n):
        checked += 1
        h = perm_to_history(p)
        if "T" not in h.word and all(
            label == 0 or ch == "D" for ch, label in zip(h.word, h.labels)
        ):
            labeled_shape.add(p)
            class_histories.add(h)
        if not any(h.labels):
            zero_labels.add(p)
    compare(labeled_shape, (VINCULAR_132, VINCULAR_123), "all", "history-shape")
    compare(zero_labels, (CLASSICAL_132,), "all", "zero-label")

    all_labeled = {labeled_to_history(m) for m in enumerate_labeled(n)}
    if class_histories != all_labeled:
        failures.append(
            f"class histories differ from labeled paths at n={n}: "
            f"{len(class_histories)} vs {len(all_labeled)}"
        )

    zero_involutions: set[Permutation] = set()
    zero_paths = set()
    for p in enumerate_involutions(n):
        checked += 1
        direct = path_map(p)
        if labeled_to_history(direct) != perm_to_history(foata_of(p)):
            failures.append(f"triangle does not commute for involution {p}")
        if not any(direct.labels):
            zero_involutions.add(p)
            zero_paths.add(direct.word)
    compare(zero_involutions, (CLASSICAL_3412,), "involutions", "3412 / zero-label")
    if zero_paths != set(enumerate_motzkin(n)):
        failures.append(f"restricted image differs from Motzkin words at n={n}")

    return DiagramReport(n, checked, tuple(failures))
