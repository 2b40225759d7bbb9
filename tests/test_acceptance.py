"""Acceptance criteria, one test per criterion, each at its full stated
scale and with zero tolerance (every check is an exact count or exact
series identity).

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
one-line PASS/FAIL report per criterion).  The whole module finishes in
about a minute on a laptop.
"""

from motzkinperm import checks
from motzkinperm.permutations import SERIES_ORDER_BOUND
from motzkinperm.series import TruncatedSeries


def _report(criterion: str, failures: list[str]) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{criterion}: {failures[:10]}"


def test_criterion_1_bijection_suite():
    """Bijections onto their codomains at every n <= 8: the history map on
    all of S_n (image = all n! histories), foata onto the vincular class,
    the path map onto labeled Motzkin paths."""
    _report("1 bijection-suite", checks.check_bijection_suite(nmax=8))


def test_criterion_2_diagram_commutation():
    """The triangle commutes on involutions and restricts to the
    3412-avoiding / zero-label correspondence, n <= 8, exact."""
    _report("2 diagram-commutation", checks.check_diagram_suite(nmax=8))


def test_criterion_3_statistic_transport():
    """For every 3412-avoiding involution with n <= 10: inv = 2*area - t,
    des = descent-factor count, fix = H count, and all 27 window
    correspondences."""
    _report("3 statistic-transport", checks.check_stat_transport(nmax=10))


def test_criterion_4_coinv_transport():
    """For every member of the 132 / consecutive-123 class with n <= 10:
    coinv = area, des = tunnels - 1, and the occurrences of consecutive
    213, 231, 312 and 321 equal long tunnels, non-initial up steps,
    non-final peaks and distinguished H steps."""
    _report("4 coinv-des-transport", checks.check_s132_transport(nmax=10))


def test_criterion_5_generating_functions():
    """All fourteen named generating functions equal the path transfer
    matrix of their statistics at order 12, in all variables; the six
    pattern series equal the cluster series of their windows and satisfy
    the window-sum identity."""
    _report("5 generating-functions", checks.check_genfun_tables(order=12))


def test_criterion_6_cluster_engine():
    """The cluster engine reproduces both worked closed-form families to
    order 12, and for 20 randomized valid families it equals the path
    transfer matrix of their factor occurrences for n <= 10."""
    _report("6 cluster-engine", checks.check_cluster_engine(order=12, nmax=10, random_sets=20))


def test_criterion_7_counting_identities():
    """Motzkin, involution, and Catalan counting identities by exhaustive
    enumeration, n <= 10."""
    _report("7 counting-identities", checks.check_counting(nmax=10))


def test_criterion_8_series_self_tests():
    """Randomized exact self-tests of the series engine: ring laws, sqrt,
    inversion, substitution round-trips, quadratic residuals."""
    _report("8 series-self-tests", checks.check_series_engine(trials=40, seed=7))


def test_series_self_tests_solve_at_full_order(monkeypatch):
    """A lazy kernel that loses every term above x^24 passes every solve
    at order 24 or less; only a check at the bound sees it."""
    assert checks.check_series_engine() == []
    solve = checks.fixed_point_solve

    def lose_the_top(mapping, ring):
        f = solve(mapping, ring)
        if ring.order < SERIES_ORDER_BOUND:
            return f
        return TruncatedSeries(ring, {(n, *e): c for n in range(25) for e, c in f.coefficient(n).items()})

    monkeypatch.setattr(checks, "fixed_point_solve", lose_the_top)
    failures = checks.check_series_engine()
    assert len(failures) == 1 and f"not fixed at order {SERIES_ORDER_BOUND}" in failures[0]
