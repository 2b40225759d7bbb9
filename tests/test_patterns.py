import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from motzkinperm import patterns
from motzkinperm.errors import BoundExceededError
from motzkinperm.patterns import (
    PatternSpec,
    avoids,
    avoids_all,
    consecutive_occurrences,
    contains,
    enumerate_class,
    occurrences,
)
from motzkinperm.paths import enumerate_bicolored, enumerate_motzkin
from motzkinperm.permutations import (
    Permutation,
    _walk,
    ascending_runs,
    enumerate_involutions,
    enumerate_permutations,
    reverse_complement,
)

perms = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_parse_forms():
    classical = PatternSpec.parse("3412")
    assert not classical.adjacency
    vinc = PatternSpec.parse("1_32")
    assert vinc.letters == Permutation.parse("132")
    assert vinc.adjacency == frozenset({2})
    cons = PatternSpec.parse("_123")
    assert cons.adjacency == frozenset({1, 2})
    assert PatternSpec.parse("12_3").adjacency == frozenset({1})


def test_parse_str_roundtrip():
    for text in ("3412", "1_32", "1_23", "_123", "_12_3", "_12_34"):
        assert str(PatternSpec.parse(text)) == text
    # a multi-letter first block renders with the leading underscore
    assert str(PatternSpec.parse("12_3")) == "_12_3"
    assert PatternSpec.parse("12_3") == PatternSpec.parse("_12_3")


def test_parse_rejects():
    for bad in ("", "1_", "_", "1a2", "1__2"):
        with pytest.raises(ValueError):
            PatternSpec.parse(bad)
    with pytest.raises(ValueError, match="cannot parse pattern from '1²'"):
        PatternSpec.parse("1²")


def test_occurrences_vincular_example():
    assert occurrences(Permutation.parse("431256"), PatternSpec.parse("2_13")) == 2


def test_occurrences_trivial():
    p = Permutation.parse("35142")
    assert occurrences(p, PatternSpec.parse("1")) == len(p)
    assert occurrences(Permutation.parse("123456"), PatternSpec.parse("_123")) == 4
    empty = PatternSpec(Permutation(()))
    assert occurrences(p, empty) == 1 and contains(p, empty)
    assert occurrences(Permutation(()), empty) == 1


def brute_force_occurrences(p, spec):
    """Index tuples order isomorphic to the pattern whose glued letters
    sit next to each other."""
    m = len(spec.letters)
    count = 0
    for combo in itertools.combinations(range(len(p)), m):
        if any(combo[i] != combo[i - 1] + 1 for i in spec.adjacency):
            continue
        vals = [p[i] for i in combo]
        if all((vals[a] > vals[b]) == (spec.letters[a] > spec.letters[b])
               for a, b in itertools.combinations(range(m), 2)):
            count += 1
    return count


def test_classical_occurrences_against_brute_force():
    pattern = PatternSpec.parse("132")
    for p in enumerate_permutations(6):
        assert occurrences(p, pattern) == brute_force_occurrences(p, pattern)


perms_to_8 = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


@given(perms_to_8)
def test_classical_occurrences_brute_force_random(word):
    p = Permutation(word)
    for text in ("132", "3412"):
        pattern = PatternSpec.parse(text)
        assert occurrences(p, pattern) == brute_force_occurrences(p, pattern)


pattern_specs = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.tuples(
        st.permutations(list(range(1, m + 1))),
        st.lists(st.booleans(), min_size=m - 1, max_size=m - 1),
    )
).map(
    lambda t: PatternSpec(
        Permutation(t[0]), frozenset(i for i, glued in enumerate(t[1], start=1) if glued)
    )
)


@given(perms_to_8, pattern_specs)
def test_occurrences_brute_force_random_spec(word, spec):
    p = Permutation(word)
    expected = brute_force_occurrences(p, spec)
    assert occurrences(p, spec) == expected
    assert contains(p, spec) == (expected > 0)


@pytest.mark.parametrize(
    "texts",
    [("1_32", "1_23"), ("132", "_123"), ("3412",), ("_321", "2_13"), ("12_3",),
     ("3_1_2", "_2413"), ("2_143", "321")],
)
def test_enumerate_class_equals_filtered_permutations(texts):
    specs = [PatternSpec.parse(t) for t in texts]
    for n in range(8):
        expected = [p for p in enumerate_permutations(n) if avoids_all(p, specs)]
        assert list(enumerate_class(n, specs)) == expected


# n = 7 with three length-4 patterns filters 5040 permutations, which can
# take longer than Hypothesis's default deadline of 200 ms per example
@settings(deadline=None)
@given(st.integers(min_value=0, max_value=7), st.lists(pattern_specs, max_size=3))
def test_enumerate_class_equals_filtered_permutations_random(n, specs):
    expected = [p for p in enumerate_permutations(n) if avoids_all(p, specs)]
    assert list(enumerate_class(n, specs)) == expected


#: every pattern of length 1 to 3 with every set of adjacencies: 1 + 4 + 24
SHORT_SPECS = [
    PatternSpec(Permutation(letters), frozenset(i for i, glued in enumerate(gluing, 1) if glued))
    for m in range(1, 4)
    for letters in itertools.permutations(range(1, m + 1))
    for gluing in itertools.product((False, True), repeat=m - 1)
]


def test_every_short_pattern_alone_equals_the_filtered_base():
    assert len(SHORT_SPECS) == len(set(SHORT_SPECS)) == 29
    for n in range(7):
        perms, invs = list(enumerate_permutations(n)), list(enumerate_involutions(n))
        for spec in SHORT_SPECS:
            assert list(enumerate_class(n, [spec])) == [p for p in perms if avoids(p, spec)], spec
            assert list(enumerate_class(n, [spec], "involutions")) == [
                p for p in invs if avoids(p, spec)
            ], spec


@pytest.mark.parametrize("texts", [("132", "_123"), ("1_32", "1_23"), ("3412",), ("12_3", "2_13")])
def test_interleaved_walks_stay_independent(texts):
    # two walks over the same PatternSpec objects, advanced in turn: each
    # keeps its own stack, placed values and matcher buffers
    specs = [PatternSpec.parse(t) for t in texts]
    for base in ("all", "involutions"):
        apart = [list(enumerate_class(n, specs, base)) for n in (5, 6)]
        together = ([], [])
        walks = [enumerate_class(5, specs, base), enumerate_class(6, specs, base)]
        for pair in itertools.zip_longest(*walks):
            for members, p in zip(together, pair):
                if p is not None:
                    members.append(p)
        assert list(together) == apart


def count_prefixes(monkeypatch, texts, n, base="all"):
    """Members of the class and the prefixes the walk passes to its prune
    callable."""
    calls = []

    def counting_walk(n, involutions, prune):
        def counted(word, free):
            calls.append(len(word))
            return prune(word, free)

        return _walk(n, involutions, counted)

    monkeypatch.setattr(patterns, "_walk", counting_walk)
    members = sum(1 for _ in enumerate_class(n, [PatternSpec.parse(t) for t in texts], base))
    return members, len(calls)


def test_lookahead_prunes_dead_prefixes(monkeypatch):
    # 132's last letter is not glued: a prefix ending in letters 1, 3 of an
    # occurrence is dead once a free value lies between them
    assert count_prefixes(monkeypatch, ("132", "_123"), 9) == (835, 13637)
    assert count_prefixes(monkeypatch, ("3412",), 9, "involutions") == (835, 5726)
    # both last letters are glued: every prefix that completes no occurrence
    # is walked, as without lookahead
    assert count_prefixes(monkeypatch, ("1_32", "1_23"), 9) == (2620, 64737)


def test_walks_and_matcher_leave_no_reference_cycles():
    # A self-recursive closure is a function <-> cell cycle that only the
    # cyclic garbage collector frees, so a walk that made one per prefix or
    # per match ran the collector inside itself.
    specs = [PatternSpec.parse(t) for t in ("132", "_123", "1_32", "1_23", "3412", "2_13")]

    def run():
        list(enumerate_class(7, specs[0:2]))
        list(enumerate_class(7, specs[2:4]))
        list(enumerate_class(8, specs[4:5], base="involutions"))
        list(enumerate_involutions(7))
        list(enumerate_motzkin(7))
        list(enumerate_bicolored(6))
        for p in enumerate_permutations(5):
            for s in specs:
                occurrences(p, s)
                contains(p, s)

    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.integers(min_value=0, max_value=8), st.lists(pattern_specs, max_size=3))
def test_enumerate_involution_class_equals_filtered_involutions(n, specs):
    expected = [p for p in enumerate_involutions(n) if avoids_all(p, specs)]
    assert list(enumerate_class(n, specs, base="involutions")) == expected


def test_avoids_examples():
    p = Permutation.parse("65832714")
    assert avoids_all(p, (PatternSpec.parse("1_32"), PatternSpec.parse("1_23")))
    assert avoids(p, PatternSpec.parse("123456789"))
    # 47318625 contains 3412 (e.g. the subsequence 4, 7, 1, 5)
    assert not avoids(Permutation.parse("47318625"), PatternSpec.parse("3412"))
    assert contains(Permutation.parse("47318625"), PatternSpec.parse("3412"))


def test_consecutive_occurrences():
    assert consecutive_occurrences(Permutation.parse("321"), Permutation.parse("321")) == 1
    for p in enumerate_permutations(5):
        total = sum(
            consecutive_occurrences(p, Permutation.parse(t))
            for t in ("123", "132", "213", "231", "312", "321")
        )
        assert total == 3  # n - 2 windows


def test_vincular_equals_consecutive_pair_class():
    vincular = (PatternSpec.parse("1_32"), PatternSpec.parse("1_23"))
    consecutive = (PatternSpec.parse("_132"), PatternSpec.parse("_123"))
    for n in range(7):
        a = set(enumerate_class(n, vincular))
        b = set(enumerate_class(n, consecutive))
        assert a == b


@given(perms)
def test_reverse_complement_pattern_exchange(word):
    p = Permutation(word)
    rc = reverse_complement(p)
    pairs = (("_213", "_132"), ("_312", "_231"))
    for left, right in pairs:
        assert occurrences(p, PatternSpec.parse(left)) == occurrences(rc, PatternSpec.parse(right))


def test_class_members_have_short_runs_and_decreasing_heads():
    patterns = (PatternSpec.parse("132"), PatternSpec.parse("_123"))
    for n in range(8):
        for p in enumerate_class(n, patterns):
            runs = ascending_runs(p)
            assert all(len(r) <= 2 for r in runs)
            heads = [r[0] for r in runs]
            assert heads == sorted(heads, reverse=True)


def test_enumerate_class_counts():
    motzkin = [1, 1, 2, 4, 9, 21, 51]
    for n, m in enumerate(motzkin):
        count = sum(1 for _ in enumerate_class(n, (PatternSpec.parse("3412"),), base="involutions"))
        assert count == m
    assert list(enumerate_class(0, ())) == [Permutation(())]


def test_enumerate_class_vincular_matches_involution_numbers():
    involution_numbers = [1, 1, 2, 4, 10, 26, 76]
    vincular = (PatternSpec.parse("1_32"), PatternSpec.parse("1_23"))
    for n, count in enumerate(involution_numbers):
        assert sum(1 for _ in enumerate_class(n, vincular)) == count


def test_enumerate_class_bound():
    with pytest.raises(BoundExceededError):
        next(enumerate_class(13, ()))
    with pytest.raises(ValueError):
        next(enumerate_class(3, (), base="windows"))
