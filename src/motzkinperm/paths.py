"""Motzkin words, bicolored Motzkin words, labeled paths, Laguerre
histories, tunnels, and path statistics.

A Motzkin word is a word over {U, D, H} with as many U's as D's and no
prefix containing more D's than U's; it encodes a lattice path from (0, 0)
to (n, 0) staying weakly above the x-axis.  Bicolored words additionally
allow a second horizontal color, written T in ASCII, which may not occur
at height zero.

The height of a step is the y-coordinate of its endpoint for D steps and
of its start point otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .permutations import _parse_ints, check_size, refuse_negative
from .series import SeriesRing, TruncatedSeries, _series

_DELTA = {"U": 1, "D": -1, "H": 0, "T": 0}


def _scan_heights(steps: str, word_type: type[BicoloredMotzkinWord]) -> tuple[int, ...]:
    """Validate a step word as a ``word_type`` and return its height list."""
    heights = []
    y = 0
    for i, ch in enumerate(steps, start=1):
        if ch not in _DELTA or (ch == "T" and not word_type._second_color):
            raise ValueError(f"invalid step {ch!r} at position {i} in {steps!r}")
        if ch == "D":
            y -= 1
            if y < 0:
                raise ValueError(f"path goes below the axis at position {i} in {steps!r}")
            heights.append(y)
        else:
            if ch == "T" and y == 0:
                raise ValueError(
                    f"second-color horizontal step at height 0 (position {i}) in {steps!r}"
                )
            heights.append(y)
            y += _DELTA[ch]
    if y != 0:
        raise ValueError(f"path does not return to the axis: {steps!r}")
    return tuple(heights)


class BicoloredMotzkinWord(str):
    """Step word over {U, D, H, T}; T is the second horizontal color."""

    #: Whether the word may take T steps.
    _second_color = True

    def __new__(cls, steps: str | Iterable[str]) -> "BicoloredMotzkinWord":
        steps = steps if isinstance(steps, str) else "".join(steps)
        _scan_heights(steps, cls)
        return super().__new__(cls, steps)

    @property
    def n(self) -> int:
        return len(self)


class MotzkinWord(BicoloredMotzkinWord):
    """Plain Motzkin word over {U, D, H}."""

    _second_color = False


def height_list(word: str) -> tuple[int, ...]:
    """Per-step heights: end y for D steps, start y otherwise.

    >>> height_list(BicoloredMotzkinWord("UUDTDH"))
    (0, 1, 1, 1, 0, 0)
    """
    return _scan_heights(str(word), BicoloredMotzkinWord)


class Tunnel(NamedTuple):
    """Horizontal segment weakly below the path touching it in exactly its
    two endpoint lattice points; trivial tunnels are the H steps."""

    left: int
    right: int
    trivial: bool


def tunnels(word: MotzkinWord) -> tuple[Tunnel, ...]:
    """All tunnels, one per H step and one per matched U-D pair, sorted by
    decreasing x-coordinate of the left endpoint.

    >>> tunnels(MotzkinWord("UD"))
    (Tunnel(left=0, right=2, trivial=False),)
    """
    found = []
    stack: list[int] = []
    for i, ch in enumerate(str(word), start=1):
        if ch == "U":
            stack.append(i - 1)
        elif ch == "D":
            found.append(Tunnel(stack.pop(), i, trivial=False))
        else:
            found.append(Tunnel(i - 1, i, trivial=True))
    found.sort(key=lambda t: -t.left)
    return tuple(found)


def area(word: MotzkinWord) -> int:
    """Area between the path and the x-axis, as a trapezoid sum: a step at
    height h adds h, and h + 1/2 if it is a U or a D.  As #U = #D, that is
    the sum of the heights plus #U.

    >>> area(MotzkinWord("UHD"))
    2
    """
    return sum(height_list(word)) + word.count("U")


def subword_count(word: str, pattern: str) -> int:
    """Occurrences of ``pattern`` as a factor (consecutive letters),
    counting overlaps.

    >>> subword_count("HHH", "HH")
    2
    """
    m = len(pattern)
    return sum(1 for i in range(len(word) - m + 1) if word[i : i + m] == pattern)


WEAK_VALLEY_FACTORS = ("HH", "HU", "DH", "DU")
DESCENT_FACTORS = ("UU", "DD", "UH", "HD", "UD")


def _long_tunnels(word: str) -> int:
    # one tunnel per U, and a tunnel is long unless its D comes right after its U
    return word.count("U") - word.count("UD")


def _noninitial_up(word: str) -> int:
    return word.count("U") - (1 if word.startswith("U") else 0)


def _nonfinal_peaks(word: str) -> int:
    # a peak UD is final when everything after its D is a (possibly empty) run of D's
    return sum(
        1
        for i in range(len(word) - 1)
        if word[i : i + 2] == "UD" and any(ch != "D" for ch in word[i + 2 :])
    )


def _distinguished_h(word: str) -> int:
    # H steps not in first position and not followed exclusively by down
    # steps (an H in last position is followed by the empty run of D's)
    return sum(
        1
        for i, ch in enumerate(word)
        if ch == "H" and i > 0 and any(c != "D" for c in word[i + 1 :])
    )


def _weakly_descending_subpaths(word: str) -> int:
    return sum(1 for flat, _ in itertools.groupby(word, key=lambda c: c in "HD") if flat)


_NAMED_STATISTICS = {
    # the pairs of an H or D followed by an H or U (WEAK_VALLEY_FACTORS):
    # each H or U after the first letter makes one unless it follows a U; a
    # nonempty Motzkin word starts with H or U and ends in H or D, so that
    # is #H + #U - 1 - (#U - #UD)
    "weak_valleys": lambda w: w.count("H") + w.count("UD") - (w != ""),
    # UD cannot overlap itself, so str.count counts every occurrence
    "peaks": lambda w: w.count("UD"),
    "long_tunnels": _long_tunnels,
    "noninitial_up": _noninitial_up,
    "nonfinal_peaks": _nonfinal_peaks,
    "distinguished_H": _distinguished_h,
    "weakly_descending_subpaths": _weakly_descending_subpaths,
}


def named_statistic(word: MotzkinWord | str, name: str) -> int:
    """Evaluate one of the named path statistics.

    Known names: weak_valleys, peaks, long_tunnels, noninitial_up,
    nonfinal_peaks, distinguished_H, weakly_descending_subpaths.
    A long tunnel is a U not directly followed by D, which opens a matched
    U-D pair with at least one step strictly between them; a non-final peak
    is a UD factor not followed exclusively by D's; a distinguished
    horizontal step is an H not in first position and not followed
    exclusively by D's; a weakly descending subpath is a maximal factor
    over {H, D}.  A word that is not a ``MotzkinWord`` is validated as
    one, so a malformed word raises ValueError.
    """
    try:
        stat = _NAMED_STATISTICS[name]
    except KeyError:
        raise ValueError(f"unknown path statistic {name!r}") from None
    if not isinstance(word, MotzkinWord):
        word = MotzkinWord(word)
    return stat(str(word))


PATH_STATISTIC_NAMES = tuple(_NAMED_STATISTICS)


class _LabeledWord:
    """A step word with a tuple of labels: what a labeled Motzkin path and
    a Laguerre history share.  Each subclass, a frozen dataclass, validates
    its own labels and names its word type in ``_word_type``, which checks
    the steps of ``from_json_dict`` before its labels are read."""

    def _scan(self) -> tuple[int, ...]:
        """Store the word as an exact ``_word_type`` and the labels as a tuple,
        and return the heights from the one scan that validates the steps."""
        steps = self.word if isinstance(self.word, str) else "".join(self.word)
        heights = _scan_heights(steps, self._word_type)
        object.__setattr__(self, "word", str.__new__(self._word_type, steps))
        object.__setattr__(self, "labels", tuple(self.labels))
        return heights

    @classmethod
    def _trusted(cls, word: BicoloredMotzkinWord, labels: tuple[int, ...]):
        """The record (word, labels) without the scan and the label checks,
        for a builder whose word is an exact ``cls._word_type`` and whose
        labels are a tuple that ``__post_init__`` would accept."""
        record = object.__new__(cls)
        object.__setattr__(record, "word", word)
        object.__setattr__(record, "labels", labels)
        return record

    @property
    def n(self) -> int:
        return len(self.word)

    def to_json_dict(self) -> dict:
        return {"steps": str(self.word), "labels": list(self.labels)}

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls(cls._word_type(data["steps"]), tuple(data["labels"]))


@dataclass(frozen=True)
class LabeledMotzkinPath(_LabeledWord):
    """Motzkin word whose D steps carry labels not exceeding their heights."""

    _word_type = MotzkinWord
    word: MotzkinWord
    labels: tuple[int, ...]

    def __post_init__(self):
        heights = self._scan()
        d_heights = [h for ch, h in zip(self.word, heights) if ch == "D"]
        if len(self.labels) != len(d_heights):
            raise ValueError(
                f"expected {len(d_heights)} labels (one per D), got {len(self.labels)}"
            )
        for k, (label, h) in enumerate(zip(self.labels, d_heights)):
            if not 0 <= label <= h:
                raise ValueError(f"label {label} of D #{k + 1} exceeds its height {h}")

    def __str__(self) -> str:
        """Inline form with each label right after its D, e.g. "UUHUD1D1HD0"."""
        out = []
        it = iter(self.labels)
        for ch in self.word:
            out.append(ch)
            if ch == "D":
                out.append(str(next(it)))
        return "".join(out)

    @classmethod
    def parse(cls, text: str) -> "LabeledMotzkinPath":
        """Read the inline form of ``__str__``.  Every D carries its label;
        a D without one is refused by its 1-based position in the text."""
        steps = []
        labels = []
        unlabeled = []
        i = 0
        text = text.strip()
        while i < len(text):
            ch = text[i]
            steps.append(ch)
            i += 1
            if ch == "D":
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                if j > i:
                    labels.append(int(text[i:j]))
                else:
                    unlabeled.append(i)
                i = j
        word = MotzkinWord("".join(steps))
        if unlabeled:
            raise ValueError(f"missing label on D at position {unlabeled[0]} in {text!r}")
        return cls(word, tuple(labels))


def history_label_bound(step: str, height: int) -> int:
    """Largest admissible label for a step of the given height.

    U, D and H steps admit labels up to their height.  A second-color
    horizontal step at height h has only h - 1 other runs straddling it in
    the permutation picture, so its bound is h - 1; this is what makes the
    number of histories of length n equal to n!.
    """
    return height - 1 if step == "T" else height


@dataclass(frozen=True)
class LaguerreHistory(_LabeledWord):
    """Bicolored Motzkin word plus one non-negative label per step, with
    every label bounded per ``history_label_bound``."""

    _word_type = BicoloredMotzkinWord
    word: BicoloredMotzkinWord
    labels: tuple[int, ...]

    def __post_init__(self):
        heights = self._scan()
        if len(self.labels) != len(self.word):
            raise ValueError(f"expected {len(self.word)} labels, got {len(self.labels)}")
        for i, (ch, label, h) in enumerate(zip(self.word, self.labels, heights), start=1):
            if not 0 <= label <= history_label_bound(ch, h):
                raise ValueError(
                    f"label {label} on step {ch} at position {i} exceeds "
                    f"the bound {history_label_bound(ch, h)} (height {h})"
                )

    def __str__(self) -> str:
        """Pipe form, e.g. "UUTUDTDHD | l=0,0,1,2,1,0,1,0,0"."""
        if not self.word:
            return "| l="
        return f"{self.word} | l={','.join(str(v) for v in self.labels)}"

    @classmethod
    def parse(cls, text: str) -> "LaguerreHistory":
        word_part, _, label_part = text.partition("|")
        word = BicoloredMotzkinWord(word_part.strip())
        label_part = label_part.strip()
        if label_part.startswith("l="):
            label_part = label_part[2:]
        parts = label_part.split(",") if label_part else ()
        labels = _parse_ints(parts, "history", text.strip())
        return cls(word, labels)


def history_to_labeled(h: LaguerreHistory) -> LabeledMotzkinPath:
    """Identify a history with no second-color steps and labels only on D
    steps with the labeled Motzkin path carrying those D labels."""
    if "T" in h.word:
        raise ValueError("history has second-color horizontal steps")
    for ch, label in zip(h.word, h.labels):
        if label > 0 and ch != "D":
            raise ValueError("history has a positive label on a non-D step")
    d_labels = tuple(label for ch, label in zip(h.word, h.labels) if ch == "D")
    return LabeledMotzkinPath(str(h.word), d_labels)


def labeled_to_history(m: LabeledMotzkinPath) -> LaguerreHistory:
    """The history of a labeled path: its word, its D labels, 0 elsewhere.
    A D's history bound is its height, as on the path."""
    labels = []
    it = iter(m.labels)
    for ch in m.word:
        labels.append(next(it) if ch == "D" else 0)
    return LaguerreHistory._trusted(str.__new__(BicoloredMotzkinWord, m.word), tuple(labels))


def _grow(walks: list[tuple[str, int]], letters, length: int, room: int) -> list[tuple[str, int]]:
    """The walks (word, height) extended by ``length`` letters, each letter
    in the order of ``letters``, its (letter, height change) pairs.  With
    ``room`` letters to come after the words, a walk is kept while the
    letters left can bring it back to 0 and it takes no T at height 0."""
    for _ in range(length):
        room -= 1
        walks = [(w + ch, y + dy) for w, y in walks for ch, dy in letters
                 if 0 <= y + dy <= room and (y or ch != "T")]
    return walks


def _words(n: int, alphabet: str, cls: type[str]) -> Iterator:
    """All height-valid words of length n over the alphabet, lexicographic,
    as instances of cls, which skip the scan of its validating constructor.
    Each word joins a prefix of length n // 2 that can still be completed
    with one of the suffixes from its end height back to 0; both halves
    are listed once, in order, so the words come in order."""
    letters = tuple((ch, _DELTA[ch]) for ch in alphabet)
    rest = n - n // 2
    suffixes = {y: [w for w, _ in _grow([("", y)], letters, rest, rest)] for y in range(rest + 1)}
    for prefix, y in _grow([("", 0)], letters, n // 2, n):
        for suffix in suffixes[y]:
            yield str.__new__(cls, prefix + suffix)


def enumerate_motzkin(n: int) -> Iterator[MotzkinWord]:
    check_size(n, "Motzkin word enumeration")
    yield from _words(n, "DHU", MotzkinWord)


def enumerate_bicolored(n: int) -> Iterator[BicoloredMotzkinWord]:
    check_size(n, "bicolored Motzkin word enumeration")
    yield from _words(n, "DHTU", BicoloredMotzkinWord)


def enumerate_labeled(n: int) -> Iterator[LabeledMotzkinPath]:
    """All labeled Motzkin paths: every Motzkin word with every admissible
    assignment of D labels."""
    for word in enumerate_motzkin(n):
        d_heights = [h for ch, h in zip(word, height_list(word)) if ch == "D"]
        for labels in itertools.product(*(range(h + 1) for h in d_heights)):
            yield LabeledMotzkinPath._trusted(word, labels)


def enumerate_histories(n: int) -> Iterator[LaguerreHistory]:
    """All Laguerre histories of length n (there are n! of them)."""
    for word in enumerate_bicolored(n):
        heights = height_list(word)
        ranges = (range(history_label_bound(ch, h) + 1) for ch, h in zip(word, heights))
        for labels in itertools.product(*ranges):
            yield LaguerreHistory._trusted(word, labels)


def path_series(ring: SeriesRing, step: Callable, start: Hashable = "") -> TruncatedSeries:
    """Sum over Motzkin words of length n <= ring.order of x^n times the
    product of their step weights, by transfer matrix: no word is listed.
    From the state ``start``, each letter calls ``step(state, height,
    letter)``, with the height ``height_list`` gives, for the next state and
    the weight's exponents, one per auxiliary variable.  By H steps:

    >>> print(path_series(SeriesRing(3, ("z",)), lambda s, h, c: (s, (int(c == "H"),))))
    [n=0] 1
    [n=1] z
    [n=2] z^2 + 1
    [n=3] z^3 + 3*z
    """
    # a term's key is its packed exponents with x at the word's length, and
    # each step adds the packed (1, weight), which _pack refuses when negative
    # or too large; the guard bits are checked after every layer, before a
    # field past MAX_EXPONENT could carry into the next one
    packed: dict = {}
    layer = {(0, start): {0: 1}}
    terms: dict[int, int] = {}
    for n in range(ring.order + 1):
        following: dict = {}
        for (y, state), poly in layer.items():
            for e, c in poly.items() if y == 0 else ():
                terms[e] = terms.get(e, 0) + c
            for letter, y2 in (("U", y + 1), ("D", y - 1), ("H", y)):
                if 0 <= y2 < ring.order - n:
                    state2, inc = step(state, min(y, y2), letter)
                    d = packed.get(inc)
                    if d is None:
                        d = packed[inc] = ring._pack((1, *inc))
                    target = following.setdefault((y2, state2), {})
                    for e, c in poly.items():
                        e2 = e + d
                        target[e2] = target.get(e2, 0) + c
        for poly in following.values():
            ring._checked(poly)
        layer = following
    return _series(ring, terms)


def motzkin_number(n: int) -> int:
    """M_0, M_1, ... = 1, 1, 2, 4, 9, 21, 51, ... by the standard recurrence."""
    refuse_negative(n)
    ms = [1, 1]
    while len(ms) <= n:
        k = len(ms)
        ms.append(ms[k - 1] + sum(ms[i] * ms[k - 2 - i] for i in range(k - 1)))
    return ms[n]


def catalan_number(n: int) -> int:
    refuse_negative(n)
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c
