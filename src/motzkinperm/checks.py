"""Exhaustive verification suites.

Each suite runs a family of exact checks at desk scale and returns a list
of human-readable failure records (empty means the suite passed).  The
command-line ``verify`` verb and the acceptance tests are both thin
wrappers around these functions, so there is a single source of truth for
what gets verified.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from .bijections import (
    CONSECUTIVE_PATTERNS,
    VINCULAR_123,
    VINCULAR_132,
    check_diagram,
    foata_of,
    involution_to_path,
    motzkin_to_perm,
    perm_to_history,
    transport_statistics,
)
from .errors import BoundExceededError, InvariantError
from .genfun import (
    CLUSTER_123,
    CLUSTER_132,
    ClusterError,
    ClusterSpec,
    cluster_count_gf,
    cluster_gfs,
    coinv_des_gf,
    f123_inv,
    f132_inv,
    f213_inv,
    f213_perm,
    f231_inv,
    f231_perm,
    f312_inv,
    f312_perm,
    f312_via_t1t2,
    f321_inv,
    f321_perm,
    inv_des_fix_gf,
    weak_valley_gf,
)
from .paths import (
    MotzkinWord,
    area,
    catalan_number,
    enumerate_bicolored,
    enumerate_histories,
    enumerate_labeled,
    enumerate_motzkin,
    motzkin_number,
    named_statistic,
    subword_count,
    tunnels,
)
from .patterns import PatternSpec, enumerate_class
from .permutations import (
    ENUMERATION_BOUND,
    Permutation,
    coinv_count,
    des_count,
    enumerate_involutions,
    enumerate_permutations,
    fix_count,
    inv_count,
    involution_number,
)
from .series import SeriesRing, TruncatedSeries, fixed_point_solve, solve_quadratic


def _refuse_past_bound(nmax: int, suite: str) -> None:
    """Refuse a suite whose nmax exceeds the enumeration budget before
    it enumerates anything, rather than after walking every smaller n."""
    if nmax > ENUMERATION_BOUND:
        raise BoundExceededError(nmax, ENUMERATION_BOUND, f"verify {suite}")


def check_bijection_suite(nmax: int = 8) -> list[str]:
    """The three maps are bijections onto their stated codomains, checked
    by image-set equality at every size up to nmax."""
    _refuse_past_bound(nmax, "bijection")
    failures: list[str] = []
    for n in range(nmax + 1):
        histories = {perm_to_history(p) for p in enumerate_permutations(n)}
        if len(histories) != math.factorial(n):
            failures.append(f"history map not injective on S_{n}")
        if histories != set(enumerate_histories(n)):
            failures.append(f"history map image differs from all histories at n={n}")

        involutions = list(enumerate_involutions(n))
        foata_image = {foata_of(p) for p in involutions}
        class_set = set(enumerate_class(n, (VINCULAR_132, VINCULAR_123), base="all"))
        if len(foata_image) != len(involutions):
            failures.append(f"foata not injective on I_{n}")
        if foata_image != class_set:
            failures.append(f"foata image differs from the vincular class at n={n}")

        paths = {involution_to_path(p) for p in involutions}
        if len(paths) != len(involutions):
            failures.append(f"path map not injective on I_{n}")
        if paths != set(enumerate_labeled(n)):
            failures.append(f"path map image differs from labeled paths at n={n}")
    return failures


def check_diagram_suite(nmax: int = 8) -> list[str]:
    """Commuting triangle and image characterizations, all sizes to nmax."""
    _refuse_past_bound(nmax, "diagram")
    failures: list[str] = []
    for n in range(nmax + 1):
        report = check_diagram(n)
        failures.extend(f"n={n}: {f}" for f in report.failures)
    return failures


def check_stat_transport(nmax: int = 10) -> list[str]:
    """For every 3412-avoiding involution: inv = 2*area - tunnels,
    des = descent-factor count, fix = H count, and all 27 window
    correspondences, via transport_statistics.  As a corollary, the
    ascent distribution over the class must equal the weak-valley
    distribution over Motzkin words."""
    _refuse_past_bound(nmax, "stat-transport")
    failures: list[str] = []
    spec_3412 = PatternSpec.parse("3412")
    for n in range(nmax + 1):
        ascents: list[int] = []
        for p in enumerate_class(n, (spec_3412,), base="involutions"):
            try:
                transport_statistics(p)
            except InvariantError as exc:
                failures.append(str(exc))
            ascents.append(sum(1 for i in range(len(p) - 1) if p[i] < p[i + 1]))
        valleys = sorted(named_statistic(w, "weak_valleys") for w in enumerate_motzkin(n))
        if sorted(ascents) != valleys:
            failures.append(f"ascent / weak-valley distributions differ at n={n}")
    return failures


def check_s132_transport(nmax: int = 10) -> list[str]:
    """For every member of the class avoiding 132 and consecutive 123:
    coinv equals the area of its path and des equals its number of
    tunnels minus one; the tunnel reconstruction inverts the map."""
    _refuse_past_bound(nmax, "s132-transport")
    failures: list[str] = []
    class_patterns = (PatternSpec.parse("132"), PatternSpec.parse("_123"))
    for n in range(nmax + 1):
        for p in enumerate_class(n, class_patterns, base="all"):
            history = perm_to_history(p)
            if "T" in history.word or any(history.labels):
                failures.append(f"history of {p} is not a plain zero-labeled word")
                continue
            word = MotzkinWord(str(history.word))
            if coinv_count(p) != area(word):
                failures.append(f"coinv({p}) != area({word})")
            if n and des_count(p) != len(tunnels(word)) - 1:
                failures.append(f"des({p}) != tunnels({word}) - 1")
            if motzkin_to_perm(word) != p:
                failures.append(f"tunnel reconstruction fails for {p}")
    return failures


def _class_tables(nmax: int):
    """Enumerate both classes once and tabulate every statistic the
    generating functions predict."""
    inv_tables = {n: {} for n in range(nmax + 1)}
    pattern_tables = {name: {n: {} for n in range(nmax + 1)} for name in CONSECUTIVE_PATTERNS}
    spec_3412 = PatternSpec.parse("3412")
    pattern_perms = {name: Permutation.parse(name) for name in CONSECUTIVE_PATTERNS}
    from .patterns import consecutive_occurrences

    for n in range(nmax + 1):
        for p in enumerate_class(n, (spec_3412,), base="involutions"):
            key = (inv_count(p), des_count(p), fix_count(p))
            inv_tables[n][key] = inv_tables[n].get(key, 0) + 1
            f = fix_count(p)
            for name, pat in pattern_perms.items():
                k = (consecutive_occurrences(p, pat), f)
                table = pattern_tables[name][n]
                table[k] = table.get(k, 0) + 1

    coinv_tables = {n: {} for n in range(nmax + 1)}
    perm_pattern_tables = {
        name: {n: {} for n in range(nmax + 1)} for name in ("213", "231", "312", "321")
    }
    class_patterns = (PatternSpec.parse("132"), PatternSpec.parse("_123"))
    for n in range(nmax + 1):
        for p in enumerate_class(n, class_patterns, base="all"):
            key = (coinv_count(p), des_count(p))
            coinv_tables[n][key] = coinv_tables[n].get(key, 0) + 1
            for name in perm_pattern_tables:
                k = (consecutive_occurrences(p, pattern_perms[name]),)
                table = perm_pattern_tables[name][n]
                table[k] = table.get(k, 0) + 1
    return inv_tables, pattern_tables, coinv_tables, perm_pattern_tables


def check_genfun_tables(nmax: int = 10, order: int = 12) -> list[str]:
    """Every generating function reproduces the oracle tables exactly for
    all n <= nmax; the two routes for the inversion series agree to the
    full order; the two routes for the 312 series agree; the six pattern
    series satisfy the window-sum identity."""
    _refuse_past_bound(nmax, "genfun")
    failures: list[str] = []
    inv_tables, pattern_tables, coinv_tables, perm_pattern_tables = _class_tables(nmax)

    def compare(series: TruncatedSeries, tables, label: str) -> None:
        for n in range(min(nmax, series.ring.order) + 1):
            if series.coefficient(n) != tables[n]:
                failures.append(f"{label} differs from the oracle at n={n}")

    f_rec = inv_des_fix_gf(order)
    compare(f_rec, inv_tables, "inv_des_fix_gf")
    if f_rec != inv_des_fix_gf(order, method="continued-fraction"):
        failures.append(f"continued-fraction route disagrees at order {order}")

    series_by_pattern = {
        "123": f123_inv(order),
        "132": f132_inv(order),
        "213": f213_inv(order),
        "231": f231_inv(order),
        "312": f312_inv(order),
        "321": f321_inv(order),
    }
    for name, series in series_by_pattern.items():
        compare(series, pattern_tables[name], f"f{name}_inv")
    if f312_via_t1t2(order) != series_by_pattern["312"]:
        failures.append("two-variable route to f312_inv disagrees")

    compare(coinv_des_gf(order), coinv_tables, "coinv_des_gf")
    for name, fn in (
        ("213", f213_perm),
        ("231", f231_perm),
        ("312", f312_perm),
        ("321", f321_perm),
    ):
        compare(fn(order), perm_pattern_tables[name], f"f{name}_perm")

    wv = weak_valley_gf(order)
    for n in range(nmax + 1):
        census: dict[tuple[int, ...], int] = {}
        for w in enumerate_motzkin(n):
            k = (named_statistic(w, "weak_valleys"),)
            census[k] = census.get(k, 0) + 1
        if wv.coefficient(n) != census:
            failures.append(f"weak_valley_gf differs from the path census at n={n}")

    # every length-3 window realizes exactly one pattern
    for n in range(2, nmax + 1):
        total = 0
        for series in series_by_pattern.values():
            total += sum(k[0] * c for k, c in series.coefficient(n).items())
        if total != (n - 2) * motzkin_number(n):
            failures.append(f"window-sum identity fails at n={n}")
    return failures


def check_cluster_family(
    words: Sequence[str], order: int = 12, nmax: int = 10
) -> list[str]:
    """The cluster series for one factor set reproduces the brute-force
    census of Motzkin words by occurrence count and H count."""
    _refuse_past_bound(nmax, "cluster")
    failures: list[str] = []
    try:
        spec = ClusterSpec(tuple(words))
        series = cluster_count_gf(spec, order)
    except ClusterError as exc:
        return [f"cluster engine rejected {tuple(words)}: {exc}"]
    for n in range(min(order, nmax) + 1):
        census: dict[tuple[int, int], int] = {}
        for w in enumerate_motzkin(n):
            key = (sum(subword_count(w, v) for v in spec.words), w.count("H"))
            census[key] = census.get(key, 0) + 1
        if series.coefficient(n) != census:
            failures.append(f"cluster series for {spec.words} differs at n={n}")
    return failures


def random_cluster_specs(count: int, seed: int = 20190521, order: int = 10) -> list[ClusterSpec]:
    """Deterministically sample factor sets satisfying the engine's
    preconditions (every cluster of length <= order reduces to a single
    step with depth >= -1)."""
    rng = random.Random(seed)
    specs: list[ClusterSpec] = []
    attempts = 0
    while len(specs) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("could not sample enough valid cluster families")
        size = rng.randint(1, 3)
        words = set()
        while len(words) < size:
            length = rng.randint(2, 4)
            words.add("".join(rng.choice("UDH") for _ in range(length)))
        try:
            spec = ClusterSpec(tuple(sorted(words)))
            cluster_gfs(spec, order)
        except ClusterError:
            continue
        specs.append(spec)
    return specs


def check_cluster_engine(
    order: int = 12, nmax: int = 10, random_sets: int = 20, seed: int = 20190521
) -> list[str]:
    """Closed-form cluster series for the two worked factor families, exact
    equality with the corresponding pattern series, and census agreement
    for randomized valid families."""
    _refuse_past_bound(nmax, "cluster")
    failures: list[str] = []
    ring = SeriesRing(order, ("t", "z"))
    x, t, z = ring.x(), ring.var("t"), ring.var("z")
    one = ring.one()

    gfs = cluster_gfs(CLUSTER_123, order)
    q = (one - x * z * t - x * x * z * z * t).invert()
    series_dh = x**3 * z * z * t * q
    expected = {
        "horizontal_depth0": x**3 * z**3 * t * q,
        "down": series_dh,
        "down_depth0": series_dh,
        "up": series_dh,
        "up_depth0": series_dh,
        "horizontal": x**3 * z * z * t * (z + x * t + x * x * t * z) * q + x**3 * t * z,
    }
    for field, want in expected.items():
        if getattr(gfs, field) != want:
            failures.append(f"cluster gf {field} for the 123 family differs from closed form")

    gfs2 = cluster_gfs(CLUSTER_132, order)
    if gfs2.horizontal != x * x * t or not gfs2.horizontal_depth0.is_zero():
        failures.append("cluster gf horizontal for the 132 family differs from closed form")
    if gfs2.up != x * x * t * z or gfs2.up_depth0 != x * x * t * z:
        failures.append("cluster gf up for the 132 family differs from closed form")
    if not (gfs2.down.is_zero() and gfs2.down_depth0.is_zero()):
        failures.append("cluster gf down for the 132 family should vanish")

    if cluster_count_gf(CLUSTER_123, order) != f123_inv(order):
        failures.append("cluster route disagrees with the 123 pattern series")
    if cluster_count_gf(CLUSTER_132, order) != f132_inv(order):
        failures.append("cluster route disagrees with the 132 pattern series")

    for spec in random_cluster_specs(random_sets, seed=seed, order=min(order, nmax)):
        failures.extend(check_cluster_family(spec.words, order=min(order, nmax), nmax=nmax))
    return failures


def check_counting(nmax: int = 10) -> list[str]:
    """Counting identities by enumeration against independent recurrences:
    restricted involutions and the 132/consecutive-123 class are counted
    by Motzkin numbers, the vincular class by involution numbers, and
    bicolored words by Catalan numbers."""
    _refuse_past_bound(nmax, "counting")
    failures: list[str] = []
    spec_3412 = PatternSpec.parse("3412")
    vincular = (VINCULAR_132, VINCULAR_123)
    class_patterns = (PatternSpec.parse("132"), PatternSpec.parse("_123"))
    for n in range(nmax + 1):
        m = motzkin_number(n)
        if sum(1 for _ in enumerate_class(n, (spec_3412,), base="involutions")) != m:
            failures.append(f"|I_{n}(3412)| != Motzkin({n})")
        if sum(1 for _ in enumerate_motzkin(n)) != m:
            failures.append(f"|M_{n}| != Motzkin({n})")
        if sum(1 for _ in enumerate_class(n, class_patterns, base="all")) != m:
            failures.append(f"|S_{n}(132, consecutive 123)| != Motzkin({n})")
        if (
            sum(1 for _ in enumerate_class(n, vincular, base="all"))
            != involution_number(n)
        ):
            failures.append(f"|S_{n}(1_32, 1_23)| != involution number")
        if sum(1 for _ in enumerate_bicolored(n)) != catalan_number(n):
            failures.append(f"|CM_{n}| != Catalan({n})")
    return failures


def check_series_engine(trials: int = 40, seed: int = 7) -> list[str]:
    """Randomized exact self-tests of the series engine: ring laws,
    inversion, square roots, substitution round-trips, quadratic
    residuals, fixed points."""
    failures: list[str] = []
    rng = random.Random(seed)
    ring = SeriesRing(8, ("t", "z"))

    def random_series(min_val: int = 0, max_terms: int = 6) -> TruncatedSeries:
        s = ring.zero()
        for _ in range(rng.randint(1, max_terms)):
            s = s + ring.monomial(
                rng.randint(-4, 4), rng.randint(min_val, ring.order), t=rng.randint(0, 2),
                z=rng.randint(0, 2),
            )
        return s

    one = ring.one()
    for _ in range(trials):
        a, b, c = random_series(), random_series(), random_series()
        if (a * b) * c != a * (b * c):
            failures.append("associativity fails")
        if a * (b + c) != a * b + a * c:
            failures.append("distributivity fails")

        u = one + random_series(min_val=1)
        if u * u.invert() != one:
            failures.append(f"inversion fails for {u!r}")
        if u.sqrt() ** 2 != u:
            failures.append(f"sqrt fails for {u!r}")

        t_var = ring.var("t")
        if a.substitute("t", t_var - one).substitute("t", t_var + one) != a:
            failures.append("t-shift does not round-trip")

        qa = random_series(min_val=1)
        qb = -one + random_series(min_val=1)
        try:
            root = solve_quadratic(qa, qb, one, 1)
        except ValueError:
            failures.append("quadratic solve refused a solvable instance")
            continue
        if qa * root * root + qb * root + one != ring.zero():
            failures.append("quadratic residual does not vanish")

    geom = fixed_point_solve(lambda f: one + ring.x() * f, ring)
    if geom != (one - ring.x()).invert():
        failures.append("fixed point of 1 + x f is not the geometric series")
    return failures


#: Suite registry for the command line: name -> (runner, default kwargs).
SUITES: dict[str, tuple[Callable[..., list[str]], dict]] = {
    "bijection": (check_bijection_suite, {"nmax": 8}),
    "diagram": (check_diagram_suite, {"nmax": 8}),
    "stat-transport": (check_stat_transport, {"nmax": 10}),
    "s132-transport": (check_s132_transport, {"nmax": 10}),
    "genfun": (check_genfun_tables, {"nmax": 10, "order": 12}),
    "cluster": (check_cluster_engine, {"order": 12, "nmax": 10, "random_sets": 20}),
    "counting": (check_counting, {"nmax": 10}),
    "series": (check_series_engine, {"trials": 40, "seed": 7}),
}
