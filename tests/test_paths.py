import itertools
import math

import pytest
from hypothesis import given, strategies as st

from motzkinperm import checks, cli
from motzkinperm.bijections import CONSECUTIVE_PATTERNS, window_pattern_counts
from motzkinperm.errors import BoundExceededError, InvariantError
from motzkinperm.genfun import CLUSTER_123, CLUSTER_132
from motzkinperm.paths import (
    _DELTA,
    _NAMED_STATISTICS,
    DESCENT_FACTORS,
    PATH_STATISTIC_NAMES,
    WEAK_VALLEY_FACTORS,
    BicoloredMotzkinWord,
    LabeledMotzkinPath,
    LaguerreHistory,
    MotzkinWord,
    area,
    catalan_number,
    enumerate_bicolored,
    enumerate_histories,
    enumerate_labeled,
    enumerate_motzkin,
    height_list,
    history_label_bound,
    history_to_labeled,
    labeled_to_history,
    motzkin_number,
    named_statistic,
    path_series,
    subword_count,
    tunnels,
)
from motzkinperm.series import MAX_EXPONENT, SeriesRing, TruncatedSeries

step_words = st.text(alphabet="UDHT", max_size=10)


def _is_valid_bicolored(s: str) -> bool:
    y = 0
    for ch in s:
        if ch == "T" and y == 0:
            return False
        y += {"U": 1, "D": -1, "H": 0, "T": 0}[ch]
        if y < 0:
            return False
    return y == 0


@given(step_words)
def test_validation_matches_reference(s):
    if _is_valid_bicolored(s):
        BicoloredMotzkinWord(s)
    else:
        with pytest.raises(ValueError):
            BicoloredMotzkinWord(s)


def test_validation_messages():
    for word_type, steps, message in [
        (MotzkinWord, "UDT", "invalid step 'T' at position 3 in 'UDT'"),  # no second color
        (MotzkinWord, "UxD", "invalid step 'x' at position 2 in 'UxD'"),
        (BicoloredMotzkinWord, "TD", "second-color horizontal step at height 0 (position 1) in 'TD'"),
        (BicoloredMotzkinWord, "UDD", "path goes below the axis at position 3 in 'UDD'"),
        (MotzkinWord, "UU", "path does not return to the axis: 'UU'"),
    ]:
        with pytest.raises(ValueError) as err:
            word_type(steps)
        assert str(err.value) == message
    assert isinstance(MotzkinWord("UHD"), BicoloredMotzkinWord)
    # a sequence of letters builds the word from its letters
    for steps in (["U", "H", "D"], ("U", "H", "D")):
        assert MotzkinWord(steps) == "UHD" and area(MotzkinWord(steps)) == 2
        assert BicoloredMotzkinWord(steps) == "UHD"
    assert BicoloredMotzkinWord(("U", "T", "D")) == "UTD"
    assert MotzkinWord(iter("UHD")) == "UHD"
    with pytest.raises(ValueError, match="^invalid step 'T' at position 2 in 'UTD'$"):
        MotzkinWord(["U", "T", "D"])


def test_height_list_examples():
    assert height_list(BicoloredMotzkinWord("UUDTDH")) == (0, 1, 1, 1, 0, 0)
    assert height_list(BicoloredMotzkinWord("HHHH")) == (0, 0, 0, 0)
    assert height_list(BicoloredMotzkinWord("UUTUDTDHD")) == (0, 1, 2, 2, 2, 2, 1, 1, 0)


def test_tunnels_examples():
    eleven = MotzkinWord("UUUDDUHDDUD")
    assert [(t.left, t.right) for t in tunnels(eleven)] == [
        (9, 11), (6, 7), (5, 8), (2, 4), (1, 5), (0, 9),
    ]
    assert tunnels(MotzkinWord("UD")) == (tunnels(MotzkinWord("UD"))[0],)
    assert tunnels(MotzkinWord("UD"))[0] == (0, 2, False)
    assert tunnels(MotzkinWord("H"))[0] == (0, 1, True)


def test_tunnel_structure():
    for n in range(9):
        for w in enumerate_motzkin(n):
            ts = tunnels(w)
            assert len(ts) == w.count("H") + w.count("U")
            assert sum(1 for t in ts if t.trivial) == w.count("H")
            # tunnels are well nested or disjoint
            for a in ts:
                for b in ts:
                    if a == b:
                        continue
                    assert (
                        a.right <= b.left
                        or b.right <= a.left
                        or (a.left <= b.left and b.right <= a.right)
                        or (b.left <= a.left and a.right <= b.right)
                    )


def test_area_examples():
    assert area(MotzkinWord("HHHH")) == 0
    assert area(MotzkinWord("UD")) == 1
    assert area(MotzkinWord("UHD")) == 2


def _trapezoid_area(word: str) -> int:
    """The area as a sum of trapezoids, one per step."""
    doubled = y = 0
    for ch in word:
        y2 = y + {"U": 1, "D": -1, "H": 0}[ch]
        doubled += y + y2
        y = y2
    assert doubled % 2 == 0
    return doubled // 2


def test_area_equals_tunnel_sum():
    # the trapezoid sum and the tunnels are references for area and long_tunnels
    for n in range(11):
        for w in enumerate_motzkin(n):
            long_ = [t for t in tunnels(w) if not t.trivial and t.right - t.left > 2]
            assert named_statistic(w, "long_tunnels") == len(long_)
            assert area(w) == _trapezoid_area(w) == sum(
                t.right - t.left - 1 for t in tunnels(w) if not t.trivial
            )


def test_subword_count():
    assert subword_count("HHH", "HH") == 2
    for n in range(8):
        for w in enumerate_motzkin(n):
            two_letter = [a + b for a in "UDH" for b in "UDH"]
            assert sum(subword_count(w, f) for f in two_letter) == max(0, n - 1)


def test_named_statistics():
    assert named_statistic(MotzkinWord("UD"), "peaks") == 1
    assert named_statistic(MotzkinWord("UD"), "long_tunnels") == 0
    assert named_statistic(MotzkinWord("UHD"), "long_tunnels") == 1
    assert named_statistic(MotzkinWord("UUDD"), "noninitial_up") == 1
    assert named_statistic(MotzkinWord("HUD"), "noninitial_up") == 1
    assert named_statistic(MotzkinWord("UDH"), "nonfinal_peaks") == 1
    assert named_statistic(MotzkinWord("HUD"), "nonfinal_peaks") == 0
    assert named_statistic(MotzkinWord("HHH"), "distinguished_H") == 1
    assert named_statistic(MotzkinWord("UHD"), "distinguished_H") == 0
    with pytest.raises(ValueError):
        named_statistic(MotzkinWord("UD"), "zigzags")


def test_peaks_count_every_ud_factor():
    for n in range(11):
        for w in enumerate_motzkin(n):
            assert named_statistic(w, "peaks") == subword_count(w, "UD"), w


def test_named_statistic_validates_its_word():
    assert named_statistic("UHD", "long_tunnels") == 1
    assert named_statistic(BicoloredMotzkinWord("UHUDD"), "peaks") == 1
    refused = (
        ("DU", "below the axis at position 1"),
        ("DDD", "below the axis at position 1"),
        ("xyz", "invalid step 'x' at position 1"),
        ("UUD", "does not return to the axis"),
        (BicoloredMotzkinWord("UTD"), "invalid step 'T' at position 2"),
    )
    for word, message in refused:
        for name in PATH_STATISTIC_NAMES:
            with pytest.raises(ValueError, match=message):
                named_statistic(word, name)


def test_weak_valleys_equal_factor_counts():
    words = [w for n in range(11) for w in enumerate_motzkin(n)]
    words += ["".join(w) for n in range(7) for w in itertools.product("UDH", repeat=n)]
    motzkin = {w for w in words if isinstance(w, MotzkinWord)}
    for w in words:
        if w in motzkin:
            expected = sum(subword_count(w, f) for f in WEAK_VALLEY_FACTORS)
            assert named_statistic(w, "weak_valleys") == expected, w
        else:
            # a word off the Motzkin language is refused, not counted
            with pytest.raises(ValueError):
                named_statistic(w, "weak_valleys")


def test_weak_valleys_closed_form_equals_the_pair_count():
    # the closed form #H + #UD - [w != ""] against the {H,D}.{H,U} pairs
    weak_valleys = _NAMED_STATISTICS["weak_valleys"]
    for n in range(13):
        for w in enumerate_motzkin(n):
            pairs = sum(1 for a, b in zip(w, w[1:]) if a in "HD" and b in "HU")
            assert weak_valleys(w) == named_statistic(w, "weak_valleys") == pairs, w
    assert weak_valleys(MotzkinWord("")) == 0
    with pytest.raises(ValueError):
        named_statistic("DU", "weak_valleys")


def test_enumerated_words_pass_their_constructors():
    for n in range(11):
        for w in enumerate_motzkin(n):
            assert type(w) is MotzkinWord and MotzkinWord(w) == w
        for w in enumerate_bicolored(n):
            assert type(w) is BicoloredMotzkinWord and BicoloredMotzkinWord(w) == w


@pytest.mark.parametrize("n", range(9))
def test_enumerators_list_every_valid_word_in_order(n):
    # the words join a prefix of length n // 2 with a suffix, so odd and even
    # n, and n = 0 and 1 with an empty prefix, each take their own split
    for enumerate_, word_type in ((enumerate_motzkin, MotzkinWord), (enumerate_bicolored, BicoloredMotzkinWord)):
        expected = []
        for letters in itertools.product("DHTU" if word_type._second_color else "DHU", repeat=n):
            try:
                expected.append(word_type("".join(letters)))
            except ValueError:
                pass
        got = list(enumerate_(n))
        assert got == sorted(expected)
        assert all(type(w) is word_type for w in got)


def test_weakly_descending_subpaths_identity():
    # every non-empty Motzkin word ends with H or D, so the count is always
    # the number of HU and DU factors plus one
    for n in range(1, 10):
        for w in enumerate_motzkin(n):
            wd = named_statistic(w, "weakly_descending_subpaths")
            assert wd == subword_count(w, "HU") + subword_count(w, "DU") + 1


def first_return_decompose(word: MotzkinWord):
    """Unique first-return decomposition.

    Returns () for the empty word, ("H", m) when the word is H followed by
    m, and ("U", inner, rest) when it is U inner D rest with the D closing
    the initial U.
    """
    s = str(word)
    if not s:
        return ()
    if s[0] == "H":
        return ("H", MotzkinWord(s[1:]))
    y = 0
    for i, ch in enumerate(s):
        y += _DELTA[ch]
        if y == 0:
            return ("U", MotzkinWord(s[1:i]), MotzkinWord(s[i + 1 :]))
    raise AssertionError("unreachable: validated word must return to the axis")


def first_return_reassemble(parts) -> MotzkinWord:
    if parts == ():
        return MotzkinWord("")
    if parts[0] == "H":
        return MotzkinWord("H" + parts[1])
    return MotzkinWord("U" + parts[1] + "D" + parts[2])


def test_first_return_decompose():
    assert first_return_decompose(MotzkinWord("")) == ()
    assert first_return_decompose(MotzkinWord("HUD")) == ("H", "UD")
    assert first_return_decompose(MotzkinWord("UHDH")) == ("U", "H", "H")
    for n in range(8):
        for w in enumerate_motzkin(n):
            assert first_return_reassemble(first_return_decompose(w)) == w


def test_enumeration_counts():
    assert [sum(1 for _ in enumerate_motzkin(n)) for n in range(11)] == [
        motzkin_number(n) for n in range(11)
    ]
    assert [sum(1 for _ in enumerate_bicolored(n)) for n in range(8)] == [
        catalan_number(n) for n in range(8)
    ]
    assert [sum(1 for _ in enumerate_labeled(n)) for n in range(8)] == [
        1, 1, 2, 4, 10, 26, 76, 232,
    ]
    assert [sum(1 for _ in enumerate_histories(n)) for n in range(7)] == [
        math.factorial(n) for n in range(7)
    ]
    with pytest.raises(BoundExceededError):
        next(enumerate_motzkin(13))


def test_enumerate_histories_refuses_past_bound():
    with pytest.raises(BoundExceededError):
        next(enumerate_histories(13))


def test_motzkin_and_catalan_numbers():
    assert [motzkin_number(n) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
    assert [catalan_number(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_labeled_path_parse_and_render():
    m = LabeledMotzkinPath.parse("UUHUD1D1HD0")
    assert str(m) == "UUHUD1D1HD0"
    assert m.labels == (1, 1, 0)
    assert LabeledMotzkinPath.parse("HHH").labels == ()
    with pytest.raises(ValueError):
        LabeledMotzkinPath(MotzkinWord("UD"), (1,))  # label exceeds height 0
    with pytest.raises(ValueError):
        LabeledMotzkinPath(MotzkinWord("UD"), ())  # missing label
    for text, position in (("UD", 2), ("UUDD", 3), ("UUD1D", 5), (" UUD0DH ", 5)):
        message = f"missing label on D at position {position} in '{text.strip()}'"
        with pytest.raises(ValueError, match=message):
            LabeledMotzkinPath.parse(text)


def test_history_parse_and_render():
    text = "UUTUDTDHD | l=0,0,1,2,1,0,1,0,0"
    h = LaguerreHistory.parse(text)
    assert str(h) == text
    assert LaguerreHistory.parse("| l=") == LaguerreHistory("", ())


def test_history_parse_refuses_empty_labels():
    for text in ("UD | l=0,,0", "UD | l=0,0,", "UD | l=,0,0"):
        with pytest.raises(ValueError, match="cannot parse history from"):
            LaguerreHistory.parse(text)


def test_history_str_parse_roundtrip():
    for n in range(6):
        for h in enumerate_histories(n):
            assert LaguerreHistory.parse(str(h)) == h


def test_history_label_bounds():
    # U, H and D admit labels up to their height; T only to height - 1
    assert history_label_bound("H", 2) == 2
    assert history_label_bound("T", 2) == 1
    LaguerreHistory(BicoloredMotzkinWord("UTD"), (0, 0, 0))
    with pytest.raises(ValueError):
        LaguerreHistory(BicoloredMotzkinWord("UTD"), (0, 1, 0))
    LaguerreHistory(BicoloredMotzkinWord("UHD"), (0, 1, 0))


def test_json_roundtrip():
    m = LabeledMotzkinPath.parse("UUD1D0H")
    assert LabeledMotzkinPath.from_json_dict(m.to_json_dict()) == m
    assert m.to_json_dict() == {"steps": "UUDDH", "labels": [1, 0]}
    h = LaguerreHistory.parse("UUTDD | l=0,1,1,1,0")
    assert LaguerreHistory.from_json_dict(h.to_json_dict()) == h


# 76 involutions of 6 and 5! permutations
@pytest.mark.parametrize("records, n, size", [(enumerate_labeled, 6, 76), (enumerate_histories, 5, 120)])
def test_json_roundtrip_of_every_record(records, n, size):
    # both record types take n, the JSON form and the trusted builder from one base
    seen = list(records(n))
    assert len(seen) == size
    for record in seen:
        data = record.to_json_dict()
        assert data == {"steps": str(record.word), "labels": list(record.labels)}
        back = type(record).from_json_dict(data)
        assert back == record and back.n == n and type(back.word) is type(record.word)


@pytest.mark.parametrize("record, steps, message", [
    (LabeledMotzkinPath, "UTD", "invalid step 'T' at position 2 in 'UTD'"),
    (LaguerreHistory, "TD", "second-color horizontal step at height 0 (position 1) in 'TD'"),
])
def test_from_json_dict_checks_the_word_before_the_labels(record, steps, message):
    with pytest.raises(ValueError) as err:
        record.from_json_dict({"steps": steps})
    assert str(err.value) == message


@pytest.mark.parametrize("record, word, labels, message", [
    (LabeledMotzkinPath, "UTD", (0,), "invalid step 'T' at position 2 in 'UTD'"),
    (LabeledMotzkinPath, iter("UDD"), (0,), "path goes below the axis at position 3 in 'UDD'"),
    (LabeledMotzkinPath, "UUDD", [0], "expected 2 labels (one per D), got 1"),
    (LabeledMotzkinPath, "UUDD", (1, 1), "label 1 of D #2 exceeds its height 0"),
    (LabeledMotzkinPath, "UD", (-1,), "label -1 of D #1 exceeds its height 0"),
    (LaguerreHistory, "TD", (0, 0), "second-color horizontal step at height 0 (position 1) in 'TD'"),
    (LaguerreHistory, ("U", "U"), (0, 0), "path does not return to the axis: 'UU'"),
    (LaguerreHistory, "UD", [0], "expected 2 labels, got 1"),
    (LaguerreHistory, "UTD", (0, 1, 0), "label 1 on step T at position 2 exceeds the bound 0 (height 1)"),
    (LaguerreHistory, "UHD", (0, 2, 0), "label 2 on step H at position 2 exceeds the bound 1 (height 1)"),
])
def test_record_messages(record, word, labels, message):
    with pytest.raises(ValueError) as err:
        record(word, labels)
    assert str(err.value) == message


def test_records_take_words_as_letters():
    # an iterable of letters is read once, and stored as the exact word type
    path = LabeledMotzkinPath(iter("UUDD"), [1, 0])
    history = LaguerreHistory(iter("UTD"), iter((0, 0, 0)))
    assert type(path.word) is MotzkinWord and path.labels == (1, 0)
    assert type(history.word) is BicoloredMotzkinWord and history.labels == (0, 0, 0)


def test_history_labeled_identification():
    m = LabeledMotzkinPath.parse("UUD1D0H")
    assert history_to_labeled(labeled_to_history(m)) == m
    with pytest.raises(ValueError):
        history_to_labeled(LaguerreHistory(BicoloredMotzkinWord("UTD"), (0, 0, 0)))
    with pytest.raises(ValueError):
        history_to_labeled(LaguerreHistory(BicoloredMotzkinWord("UHD"), (0, 1, 0)))


def _census(ring: SeriesRing, stats) -> TruncatedSeries:
    """Sum of x^n times the monomial of ``stats(word)`` over every Motzkin
    word of length n <= ring.order, by listing the words."""
    terms: dict[tuple[int, ...], int] = {}
    for n in range(ring.order + 1):
        for w in enumerate_motzkin(n):
            key = (n, *stats(w))
            terms[key] = terms.get(key, 0) + 1
    return TruncatedSeries(ring, terms)


def _pattern_and_fix(pattern):
    return lambda w: (window_pattern_counts(w)[pattern], w.count("H"))


def _path_statistic(name):
    return lambda w: (named_statistic(w, name),)


#: The statistics of every named series on one word, as
#: transport_statistics and named_statistic define them.
WORD_STATISTICS = {
    "inv_des_fix": lambda w: (
        2 * area(w) - w.count("U"),
        sum(subword_count(w, f) for f in DESCENT_FACTORS),
        w.count("H"),
    ),
    "weak_valley": _path_statistic("weak_valleys"),
    "coinv_des": lambda w: (area(w), len(tunnels(w)) - 1 if w else 0),
    **{f"f{p}_inv": _pattern_and_fix(p) for p in CONSECUTIVE_PATTERNS},
    "f312_via_t1t2": _pattern_and_fix("312"),
    **{
        f"f{p}_perm": _path_statistic(stat)
        for p, stat in checks.S132_PATTERN_STATISTICS.items()
    },
}


def test_path_routes_cover_every_named_series():
    # cli builds its named series from the path routes; the names and their
    # order, which the gf usage error lists, stay fixed
    assert list(cli.GF_FUNCTIONS) == [
        "inv_des_fix", "weak_valley", "coinv_des",
        "f123_inv", "f132_inv", "f213_inv", "f231_inv", "f312_inv", "f321_inv", "f312_via_t1t2",
        "f213_perm", "f231_perm", "f312_perm", "f321_perm",
    ]


@pytest.mark.parametrize("name", sorted(checks.PATH_ROUTES))
def test_path_route_equals_word_census(name):
    # n runs from the empty word and the word "H" up to 8
    gf, start, step = checks.PATH_ROUTES[name]
    ring = SeriesRing(8, gf(0).ring.vars)
    assert path_series(ring, step, start) == _census(ring, WORD_STATISTICS[name])


@pytest.mark.parametrize("words", [("HH", "UDU"), ("UDUD", "HUH", "UU")])
def test_factor_route_equals_word_census(words):
    ring = SeriesRing(8, ("t", "z"))
    got = path_series(ring, checks._factor_occurrences(words))
    want = _census(ring, lambda w: (sum(subword_count(w, v) for v in words), w.count("H")))
    assert got == want


def test_genfun_suite_calls_the_named_series_dict(monkeypatch):
    # the tracer wraps the named series by rewriting the values of this dict,
    # so a suite that called around it would go unseen
    assert cli.GF_FUNCTIONS is checks.NAMED_SERIES
    orders = []
    original = checks.NAMED_SERIES["weak_valley"]

    def counting(order):
        orders.append(order)
        return original(order)

    monkeypatch.setitem(checks.NAMED_SERIES, "weak_valley", counting)
    assert checks.check_genfun_tables(order=5) == []
    assert orders == [5]


def test_path_series_counts_motzkin_words():
    ring = SeriesRing(10)
    got = path_series(ring, lambda state, h, c: (state, ()))
    assert [got.coefficient(n) for n in range(11)] == [{(): motzkin_number(n)} for n in range(11)]


@pytest.mark.parametrize("weight", [(-1,), (MAX_EXPONENT + 1,), (), (0, 0)])
def test_path_series_refuses_a_step_weight_the_ring_cannot_store(weight):
    with pytest.raises(ValueError):
        path_series(SeriesRing(3, ("z",)), lambda state, h, c: (state, weight))


def test_path_series_refuses_an_exponent_summed_past_max_exponent():
    with pytest.raises(InvariantError):
        path_series(SeriesRing(4, ("z",)), lambda state, h, c: (state, (20000,)))

    # w gains 30000 at the first U and at a U of height 1, and 10000 at a D
    # of height 1: below order 5 only UUDD passes MAX_EXPONENT, at 70000,
    # which carries into z's field and leaves w's guard bit clear, so only a
    # check after each layer sees its prefix UU at 60000
    def step(seen_u, h, c):
        w = 30000 if c == "U" and (h == 1 or not seen_u) else 10000 if c == "D" and h == 1 else 0
        return seen_u or c == "U", (0, w)

    with pytest.raises(InvariantError):
        path_series(SeriesRing(4, ("z", "w")), step, False)


def test_no_path_route_reaches_a_refusal():
    routes = [(checks.NAMED_SERIES[name](0).ring.vars, step, start)
              for name, (_, start, step) in checks.PATH_ROUTES.items()]
    routes += [(("t", "z"), checks._factor_occurrences(spec.words), "") for spec in (CLUSTER_123, CLUSTER_132)]
    for names, step, start in routes:
        assert path_series(SeriesRing(16, names), step, start)
