import itertools

import pytest
from hypothesis import example, given, strategies as st

from motzkinperm import checks
from motzkinperm.genfun import (
    CLUSTER_123,
    CLUSTER_132,
    ClassSpec,
    ClusterError,
    ClusterSpec,
    cluster_count_gf,
    cluster_gfs,
    coinv_des_gf,
    distribution_oracle,
    f123_inv,
    f132_inv,
    f213_perm,
    f231_perm,
    f312_inv,
    f312_perm,
    f312_via_t1t2,
    f321_inv,
    f321_perm,
    inv_des_fix_gf,
    weak_valley_gf,
    _collapse_t1t2,
)
from motzkinperm.errors import BoundExceededError, InvariantError
from motzkinperm.paths import (
    enumerate_motzkin,
    motzkin_number,
    named_statistic,
    path_series,
    subword_count,
)
from motzkinperm.series import SeriesRing

ORDER = 7


def assert_matches_oracle(series, class_spec, stats, nmax=6):
    for n in range(nmax + 1):
        oracle = distribution_oracle(class_spec, stats, n)
        assert series.coefficient(n) == oracle.counts, f"n={n}"


def test_inv_des_fix_small_values():
    f = inv_des_fix_gf(3)
    assert f.coefficient(0) == {(0, 0, 0): 1}
    assert f.coefficient(2) == {(0, 0, 2): 1, (1, 1, 0): 1}  # w^2 + yz
    totals = [f.coefficient(n, at={"y": 1, "z": 1, "w": 1}) for n in range(4)]
    assert totals == [1, 1, 2, 4]


def test_inv_des_fix_matches_oracle():
    assert_matches_oracle(inv_des_fix_gf(ORDER), "I(3412)", ("inv", "des", "fix"))


def test_weak_valley_small_values():
    g = weak_valley_gf(4)
    assert g.coefficient(0) == {(0,): 1}
    assert g.coefficient(1) == {(0,): 1}
    assert g.coefficient(2) == {(0,): 1, (1,): 1}  # UD and HH


def test_weak_valley_matches_census():
    g = weak_valley_gf(ORDER)
    for n in range(ORDER + 1):
        census = {}
        for w in enumerate_motzkin(n):
            k = (named_statistic(w, "weak_valleys"),)
            census[k] = census.get(k, 0) + 1
        assert g.coefficient(n) == census


def test_pattern_series_match_oracle():
    assert_matches_oracle(f123_inv(ORDER), "I(3412)", ("occ:_123", "fix"))
    assert_matches_oracle(f132_inv(ORDER), "I(3412)", ("occ:_132", "fix"))
    assert_matches_oracle(f321_inv(ORDER), "I(3412)", ("occ:_321", "fix"))
    assert_matches_oracle(f312_inv(ORDER), "I(3412)", ("occ:_312", "fix"))


def test_pattern_series_total_to_motzkin():
    for fn in (f123_inv, f132_inv, f321_inv, f312_inv):
        series = fn(6)
        totals = [series.coefficient(n, at={"t": 1, "z": 1}) for n in range(7)]
        assert totals == [motzkin_number(n) for n in range(7)]


def test_f312_routes_agree():
    assert f312_via_t1t2(ORDER) == f312_inv(ORDER)


def radical_f123_inv(order):
    """The cluster method's closed form of f123_inv: 2/(1 - 2b + c + sqrt(rad))."""
    ring = SeriesRing(order, ("t", "z"))
    x, t, z, one = ring.x(), ring.var("t"), ring.var("z"), ring.one()
    tm1 = t - one
    q = (one - x * z * tm1 - x * x * z * z * tm1).invert()
    p = x**3 * z * z * tm1 * q
    a = x + p
    b = x * z + x**3 * z**3 * tm1 * q
    c = x * z + p * (z + x * tm1 + x * x * tm1 * z) + x**3 * tm1 * z
    rad = (one - c) ** 2 - a * a * 4
    return (one - b * 2 + c + rad.sqrt()).invert() * 2


def radical_f132_inv(order):
    """The cluster method's closed form of f132_inv: 2/(B + sqrt(rad))."""
    ring = SeriesRing(order, ("t", "z"))
    x, t, z, one = ring.x(), ring.var("t"), ring.var("z"), ring.one()
    tm1 = t - one
    rad = (one - x * z - x * x * tm1) ** 2 - x * (x + x * x * z * tm1) * 4
    return (one - x * z + x * x * t - x * x + rad.sqrt()).invert() * 2


def test_quadratic_roots_equal_the_radical_closed_forms():
    assert f123_inv(20) == radical_f123_inv(20)
    assert f132_inv(20) == radical_f132_inv(20)


def test_t1t2_collapse_cancels_the_reciprocal_or_raises():
    ring, target = SeriesRing(4, ("t1", "t2", "z")), SeriesRing(4, ("t", "z"))
    g = ring.monomial(1, 3, t1=2, t2=1, z=1) + ring.monomial(2, 3, t1=1, z=1) + ring.monomial(1, 4, t1=1, t2=1)
    assert _collapse_t1t2(g) == target.monomial(3, 3, t=1, z=1) + target.x(4)
    with pytest.raises(InvariantError, match="UHD without its UH"):
        _collapse_t1t2(g + ring.monomial(1, 3, t1=1, t2=2))


def test_reverse_complement_series_identities():
    # over the involution class, 213 distributes like 132 and 231 like 312
    assert_matches_oracle(f132_inv(6), "I(3412)", ("occ:_213", "fix"))
    assert_matches_oracle(f312_inv(6), "I(3412)", ("occ:_231", "fix"))


def test_window_sum_identity():
    order = 6
    series = [f123_inv(order), f321_inv(order)] + [f132_inv(order)] * 2 + [f312_inv(order)] * 2
    for n in range(2, order + 1):
        total = sum(
            sum(k[0] * c for k, c in s.coefficient(n).items()) for s in series
        )
        assert total == (n - 2) * motzkin_number(n)


def test_coinv_des_small_values():
    f = coinv_des_gf(3)
    assert f.coefficient(2) == {(1, 0): 1, (0, 1): 1}  # y + z
    assert f.coefficient(3) == {(2, 1): 1, (1, 1): 2, (0, 2): 1}


def test_coinv_des_matches_oracle():
    assert_matches_oracle(coinv_des_gf(ORDER), "S(132,_123)", ("coinv", "des"))


def test_coinv_des_marginals():
    # at y=1 the tunnel-count distribution, at z=1 the area distribution
    f = coinv_des_gf(6)
    assert_matches_oracle(f.evaluate(y=1), "S(132,_123)", ("des",))
    assert_matches_oracle(f.evaluate(z=1), "S(132,_123)", ("coinv",))


def test_perm_pattern_series_small_values():
    assert f213_perm(3).coefficient(3) == {(1,): 1, (0,): 3}
    assert f231_perm(3).coefficient(3) == {(1,): 1, (0,): 3}
    assert f312_perm(3).coefficient(3) == {(1,): 1, (0,): 3}
    assert f321_perm(3).coefficient(3) == {(1,): 1, (0,): 3}


def test_perm_pattern_series_match_oracle():
    assert_matches_oracle(f213_perm(ORDER), "S(132,_123)", ("occ:_213",))
    assert_matches_oracle(f231_perm(ORDER), "S(132,_123)", ("occ:_231",))
    assert_matches_oracle(f312_perm(ORDER), "S(132,_123)", ("occ:_312",))
    assert_matches_oracle(f321_perm(ORDER), "S(132,_123)", ("occ:_321",))


def test_perm_pattern_series_path_statistics():
    # the same four series census path statistics on Motzkin words
    stats = {
        f213_perm: "long_tunnels",
        f231_perm: "noninitial_up",
        f312_perm: "nonfinal_peaks",
        f321_perm: "distinguished_H",
    }
    for fn, stat in stats.items():
        series = fn(6)
        for n in range(7):
            census = {}
            for w in enumerate_motzkin(n):
                k = (named_statistic(w, stat),)
                census[k] = census.get(k, 0) + 1
            assert series.coefficient(n) == census, (stat, n)


def test_weakly_descending_connection():
    # the 132 series at z=1 records {HU, DU} occurrences, which is one less
    # than the number of weakly descending subpaths on every non-empty word
    series = f132_inv(6).evaluate(z=1)
    for n in range(1, 7):
        census = {}
        for w in enumerate_motzkin(n):
            k = (named_statistic(w, "weakly_descending_subpaths") - 1,)
            census[k] = census.get(k, 0) + 1
        assert series.coefficient(n) == census


def test_cluster_spec_validation():
    with pytest.raises(ClusterError):
        ClusterSpec(())
    with pytest.raises(ClusterError):
        ClusterSpec(("HU", "U"))
    with pytest.raises(ClusterError):
        ClusterSpec(("HU", "HU"))
    with pytest.raises(ClusterError):
        ClusterSpec(("HX",))
    assert ClusterSpec.parse("HU, DU").words == ("HU", "DU")


def test_cluster_closed_forms():
    order = 8
    ring = SeriesRing(order, ("t", "z"))
    x, t, z = ring.x(), ring.var("t"), ring.var("z")
    one = ring.one()
    q = (one - x * z * t - x * x * z * z * t).invert()

    def reduced(table, letter, *depths):
        return checks._reduced_clusters(table, ring, letter, depths)

    table = cluster_gfs(CLUSTER_123, order)
    assert reduced(table, "H", 0) == x**3 * z**3 * t * q
    common = x**3 * z * z * t * q
    assert reduced(table, "D", -1, 0) == reduced(table, "D", 0) == common
    assert reduced(table, "U", -1, 0) == reduced(table, "U", 0) == common
    assert reduced(table, "H", -1, 0) == (
        x**3 * z * z * t * (z + x * t + x * x * t * z) * q + x**3 * t * z
    )

    table = cluster_gfs(CLUSTER_132, order)
    assert reduced(table, "H", -1, 0) == x * x * t
    assert not reduced(table, "H", 0)
    assert reduced(table, "U", -1, 0) == reduced(table, "U", 0) == x * x * t * z
    assert not reduced(table, "D", -1, 0) and not reduced(table, "D", 0)


def test_cluster_route_equals_pattern_series():
    assert cluster_count_gf(CLUSTER_123, ORDER) == f123_inv(ORDER)
    assert cluster_count_gf(CLUSTER_132, ORDER) == f132_inv(ORDER)


@pytest.mark.parametrize("order", [12, 20])
def test_cluster_series_keep_no_zero_terms(order):
    # the inclusion-exclusion sums of some terms cancel to 0, and a series
    # keeps no zero coefficient
    for spec in (CLUSTER_123, CLUSTER_132):
        assert all(cluster_count_gf(spec, order).terms.values())


def test_cluster_census_for_single_words():
    for word in ("UDU", "UHD", "HHH"):
        series = cluster_count_gf(ClusterSpec((word,)), 6)
        for n in range(7):
            census = {}
            for w in enumerate_motzkin(n):
                key = (subword_count(w, word), w.count("H"))
                census[key] = census.get(key, 0) + 1
            assert series.coefficient(n) == census


def _factor_census(words, n):
    census = {}
    for w in enumerate_motzkin(n):
        key = (sum(subword_count(w, v) for v in words), w.count("H"))
        census[key] = census.get(key, 0) + 1
    return census


def test_cluster_accepts_deep_and_multi_step_clusters():
    # UU's clusters climb by more than one step and DDUU's dive to depth -2;
    # HUU, DDH, DHD, UHU and HDD change the height by 2 and are clusters of
    # the window families of 132, 213, 231, 312 and 321
    families = [(w,) for w in ("UU", "DDUU", "HUU", "DDH", "DHD", "UHU", "HDD")]
    families += [tuple(checks._windows(p)) for p in ("132", "213", "231", "312", "321")]
    for words in families:
        series = cluster_count_gf(ClusterSpec(words), 8)
        for n in range(9):
            assert series.coefficient(n) == _factor_census(words, n), (words, n)


def _valid_spec(words):
    try:
        return ClusterSpec(tuple(words))
    except ClusterError:
        return None


factor_sets = (
    st.lists(st.text("UDH", min_size=1, max_size=4), min_size=1, max_size=3, unique=True)
    .map(_valid_spec)
    .filter(lambda spec: spec is not None)
)


@given(factor_sets)
def test_cluster_series_equals_path_transfer_matrix(spec):
    series = cluster_count_gf(spec, 8)
    start, step = checks._factor_path(spec.words)
    assert series == path_series(series.ring, step, start)


_CLUSTER_ORDER = 7
_SHORT_WORDS = [
    "".join(w) for n in range(1, _CLUSTER_ORDER + 1) for w in itertools.product("UDH", repeat=n)
]


def _brute_force_clusters(words):
    """Every chain of marked occurrences covering a word of length at most
    7, tallied by (length, net, low, marks, h): sorted by start, the first
    starts at 0, the last ends at the end, each starts before the previous
    one ends."""
    table = {}
    for word in _SHORT_WORDS:
        if not any(word.startswith(v) for v in words):
            continue
        marks = sorted(
            (i, i + len(v)) for v in words for i in range(len(word)) if word.startswith(v, i)
        )
        # chains[j]: number of chains from position 0 to mark j, by number of marks
        chains = []
        for start, end in marks:
            counts = {1: 1} if start == 0 else {}
            for (s, e), before in zip(marks, chains):
                if s < start < e:
                    for k, c in before.items():
                        counts[k + 1] = counts.get(k + 1, 0) + c
            chains.append(counts)
        steps = ({"U": 1, "D": -1, "H": 0}[ch] for ch in word)
        heights = list(itertools.accumulate(steps, initial=0))
        for (start, end), counts in zip(marks, chains):
            if end == len(word):
                for k, c in counts.items():
                    key = (len(word), heights[-1], min(heights), k, word.count("H"))
                    table[key] = table.get(key, 0) + c
    return table


@given(factor_sets)
@example(CLUSTER_123)
@example(CLUSTER_132)
def test_cluster_table_equals_brute_force_chains(spec):
    assert cluster_gfs(spec, _CLUSTER_ORDER) == _brute_force_clusters(spec.words)


def test_class_spec_parsing():
    spec = ClassSpec.parse("S(132,1_23)")
    assert spec.base == "S" and len(spec.patterns) == 2
    assert str(spec) == "S(132,1_23)"
    assert ClassSpec.parse("M").base == "M"
    with pytest.raises(ValueError):
        ClassSpec.parse("Q(12)")
    with pytest.raises(ValueError):
        ClassSpec.parse("S[12]")


def test_132_avoiders_avoid_1_23_exactly_when_they_avoid_consecutive_123():
    # the letter before the b of a 1_23 occurrence a...bc lies below b, or
    # a, it, b would be a 132; so it, b, c is a _123
    glued, consecutive = ClassSpec.parse("S(132,1_23)"), ClassSpec.parse("S(132,_123)")
    for n in range(11):
        assert list(glued.members(n)) == list(consecutive.members(n))


def test_distribution_oracle():
    table = distribution_oracle("I(3412)", ("inv", "des", "fix"), 4)
    assert table.total() == 9
    assert table.counts[(0, 0, 4)] == 1
    table2 = distribution_oracle("S(132,1_23)", ("coinv", "des"), 4)
    assert table2.total() == 9
    table3 = distribution_oracle("M", ("weak_valleys",), 4)
    assert table3.total() == 9
    with pytest.raises(BoundExceededError):
        distribution_oracle("M", ("weak_valleys",), 20)
    with pytest.raises(ValueError):
        distribution_oracle("M", ("inv",), 3)
    with pytest.raises(ValueError):
        distribution_oracle("I(3412)", ("zigzag",), 3)
    with pytest.raises(ValueError, match="no statistic to tabulate"):
        distribution_oracle("M", (), 3)


def test_distribution_oracle_subword_stats():
    table = distribution_oracle("M", ("subword:UD",), 3)
    assert table.counts == {(0,): 2, (1,): 2}


def test_empty_class_size():
    table = distribution_oracle("S(132,1_23)", ("des",), 0)
    assert table.counts == {(0,): 1}


def test_named_series_keep_int_coefficients():
    # the series have integer coefficients; a Fraction with denominator 1
    # equals its int, so equality alone would not see one left unnormed
    from motzkinperm.cli import GF_FUNCTIONS

    for name, build in GF_FUNCTIONS.items():
        assert all(type(c) is int for c in build(12).terms.values()), name
    for family in ("HHH,HHU,DHH,DHU", "HU,DU"):
        series = cluster_count_gf(ClusterSpec.parse(family), 12)
        assert all(type(c) is int for c in series.terms.values()), family
