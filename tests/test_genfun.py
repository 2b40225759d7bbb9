import pytest

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
)
from motzkinperm.errors import BoundExceededError
from motzkinperm.paths import enumerate_motzkin, motzkin_number, named_statistic, subword_count
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


def test_inv_des_fix_routes_agree():
    assert inv_des_fix_gf(ORDER) == inv_des_fix_gf(ORDER, method="continued-fraction")
    with pytest.raises(ValueError):
        inv_des_fix_gf(3, method="magic")


def test_inv_des_fix_routes_agree_at_order_14():
    # past the order-12 checks: the growing-precision fixed point against
    # the continued fraction, which never iterates
    assert inv_des_fix_gf(14) == inv_des_fix_gf(14, method="continued-fraction")


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

    gfs = cluster_gfs(CLUSTER_123, order)
    assert gfs.horizontal_depth0 == x**3 * z**3 * t * q
    common = x**3 * z * z * t * q
    assert gfs.down == gfs.down_depth0 == gfs.up == gfs.up_depth0 == common
    assert gfs.horizontal == x**3 * z * z * t * (z + x * t + x * x * t * z) * q + x**3 * t * z

    gfs = cluster_gfs(CLUSTER_132, order)
    assert gfs.horizontal == x * x * t
    assert gfs.horizontal_depth0.is_zero()
    assert gfs.up == gfs.up_depth0 == x * x * t * z
    assert gfs.down.is_zero() and gfs.down_depth0.is_zero()


def test_cluster_route_equals_pattern_series():
    assert cluster_count_gf(CLUSTER_123, ORDER) == f123_inv(ORDER)
    assert cluster_count_gf(CLUSTER_132, ORDER) == f132_inv(ORDER)


def test_cluster_census_for_single_words():
    for word in ("UDU", "UHD", "HHH"):
        series = cluster_count_gf(ClusterSpec((word,)), 6)
        for n in range(7):
            census = {}
            for w in enumerate_motzkin(n):
                key = (subword_count(w, word), w.count("H"))
                census[key] = census.get(key, 0) + 1
            assert series.coefficient(n) == census


def test_cluster_rejects_bad_families():
    with pytest.raises(ClusterError):
        cluster_count_gf(ClusterSpec(("UU",)), 6)  # reduces to a double step
    with pytest.raises(ClusterError):
        cluster_count_gf(ClusterSpec(("DDUU",)), 6)  # depth -2


def test_class_spec_parsing():
    spec = ClassSpec.parse("S(132,1_23)")
    assert spec.base == "S" and len(spec.patterns) == 2
    assert str(spec) == "S(132,1_23)"
    assert ClassSpec.parse("M").base == "M"
    with pytest.raises(ValueError):
        ClassSpec.parse("Q(12)")
    with pytest.raises(ValueError):
        ClassSpec.parse("S[12]")


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


def test_distribution_oracle_subword_stats():
    table = distribution_oracle("M", ("subword:UD",), 3)
    assert table.counts == {(0,): 2, (1,): 2}


def test_empty_class_size():
    table = distribution_oracle("S(132,1_23)", ("des",), 0)
    assert table.counts == {(0,): 1}
