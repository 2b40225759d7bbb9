"""Exhaustive verification suites.

Each suite runs a family of exact checks at desk scale and returns a list
of human-readable failure records (empty means the suite passed).  The
command-line ``verify`` verb and the acceptance tests are both thin
wrappers around these functions, so there is a single source of truth for
what gets verified.
"""

from __future__ import annotations

import inspect
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .bijections import (
    CONSECUTIVE_OF_WINDOW,
    CONSECUTIVE_PATTERNS,
    CONSECUTIVE_SPECS,
    VINCULAR_123,
    VINCULAR_132,
    check_diagram,
    foata_of,
    involution_to_path,
    motzkin_to_perm,
    perm_to_history,
    transport_statistics,
)
from .errors import InvariantError
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
    _DELTA,
    DESCENT_FACTORS,
    WEAK_VALLEY_FACTORS,
    MotzkinWord,
    area,
    catalan_number,
    enumerate_bicolored,
    enumerate_histories,
    enumerate_labeled,
    enumerate_motzkin,
    motzkin_number,
    named_statistic,
    path_series,
    tunnels,
)
from .patterns import PatternSpec, enumerate_class, occurrences
from .permutations import (
    ENUMERATION_BOUND,
    SERIES_ORDER_BOUND,
    asc_count,
    check_size,
    coinv_count,
    des_count,
    enumerate_involutions,
    enumerate_permutations,
    involution_number,
)
from .series import SeriesRing, TruncatedSeries, fixed_point_solve, solve_quadratic


#: Ceiling on nmax for the suites that walk all of S_n (bijection and
#: diagram).  Their time grows about tenfold per n: on a 2-CPU machine
#: (Python 3.11, best of 3) ``bijection`` takes 0.6 s at nmax 8 and 6.6 s at
#: nmax 9, ``diagram`` 0.5 s and 4.4 s, so nmax 12 would run for hours.
ALL_PERMUTATIONS_BOUND = 9
#: Ceiling on the random factor families of the cluster suite: about 10 s at
#: the largest order and nmax it accepts.  ``check_cluster_engine(order=30,
#: nmax=12, random_sets=2500)`` took 9.0-10.9 s (median 10.1 s of four runs)
#: on a 2-CPU machine (Python 3.11), about 1 s of it with no family, so
#: about 3.7 ms per family.
RANDOM_SETS_BOUND = 2500


def _refuse_past_bound(nmax: int, suite: str, bound: int = ENUMERATION_BOUND) -> None:
    """Refuse a suite whose nmax exceeds its budget before it enumerates
    anything, rather than after walking every smaller n."""
    check_size(nmax, f"verify {suite}", bound)


def _crosses_off(expected: set, walk: Iterable) -> bool:
    """Whether walk yields every member of expected once and nothing else,
    removing each from expected as it comes: one set is held, not two."""
    for item in walk:
        if item not in expected:
            return False
        expected.remove(item)
    return not expected


def check_bijection_suite(nmax: int = 8) -> list[str]:
    """The three maps are bijections onto their stated codomains, checked
    by image-set equality at every size up to nmax."""
    _refuse_past_bound(nmax, "bijection", ALL_PERMUTATIONS_BOUND)
    failures: list[str] = []
    for n in range(nmax + 1):
        histories = {perm_to_history(p) for p in enumerate_permutations(n)}
        if len(histories) != math.factorial(n):
            failures.append(f"history map not injective on S_{n}")
        if not _crosses_off(histories, enumerate_histories(n)):
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
    _refuse_past_bound(nmax, "diagram", ALL_PERMUTATIONS_BOUND)
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
            ascents.append(asc_count(p))
        valleys = sorted(named_statistic(w, "weak_valleys") for w in enumerate_motzkin(n))
        if sorted(ascents) != valleys:
            failures.append(f"ascent / weak-valley distributions differ at n={n}")
    return failures


#: Over the class avoiding 132 and consecutive 123, the path statistic
#: that the occurrences of each consecutive pattern become.
S132_PATTERN_STATISTICS = {"213": "long_tunnels", "231": "noninitial_up",
                           "312": "nonfinal_peaks", "321": "distinguished_H"}


def check_s132_transport(nmax: int = 10) -> list[str]:
    """For every member of the class avoiding 132 and consecutive 123:
    coinv equals the area of its path, des its number of tunnels minus one,
    each pattern count its path statistic in S132_PATTERN_STATISTICS, and
    the tunnel reconstruction inverts the map."""
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
            for pattern, statistic in S132_PATTERN_STATISTICS.items():
                if occurrences(p, CONSECUTIVE_SPECS[pattern]) != named_statistic(word, statistic):
                    failures.append(f"occ(_{pattern}, {p}) != {statistic}({word})")
            if motzkin_to_perm(word) != p:
                failures.append(f"tunnel reconstruction fails for {p}")
    return failures


# ---------------------------------------------------------------------------
# path-side routes: a ``path_series`` start state and step per named series


def _factor_occurrences(words: Sequence[str], mark_h: bool = True):
    """t per factor ending at the step (and z per H); the state is the
    longest suffix read that is a proper prefix of a factor."""
    prefixes = {w[:i] for w in words for i in range(len(w))}

    def step(suffix: str, h: int, c: str):
        read = suffix + c
        count = sum(read.endswith(w) for w in words)
        while read not in prefixes:
            read = read[1:]
        return read, (count, int(c == "H"))[: 1 + mark_h]

    return step


def _windows(pattern: str) -> list[str]:
    return [w for w, p in CONSECUTIVE_OF_WINDOW.items() if p == pattern]


def _before_non_d(mark):
    """t per step that ``mark(state, letter)`` picks out and that is not
    followed exclusively by D's: the mark waits in the state until a non-D."""

    def step(state, h: int, c: str):
        inner, waiting = state
        inner, marked = mark(inner, c)
        return (inner, marked or (waiting and c == "D")), (int(waiting and c != "D"),)

    return step


#: The area of a word is the sum of its step heights plus #U, so
#: inv = 2*area - #U adds 2h + [U] per step; over the class avoiding 132 and
#: _123, des = tunnels - 1 = #U + #H - 1, one per U or H after the first step.
PATH_ROUTES = {
    "inv_des_fix": (inv_des_fix_gf, "", lambda last, h, c: (
        c, (2 * h + (c == "U"), int(last + c in DESCENT_FACTORS), int(c == "H")))),
    "weak_valley": (weak_valley_gf, "", _factor_occurrences(WEAK_VALLEY_FACTORS, False)),
    "coinv_des": (coinv_des_gf, False, lambda started, h, c: (
        True, (h + (c == "U"), int(started and c != "D")))),
    "f123_inv": (f123_inv, "", _factor_occurrences(_windows("123"))),
    "f132_inv": (f132_inv, "", _factor_occurrences(_windows("132"))),
    "f213_inv": (f213_inv, "", _factor_occurrences(_windows("213"))),
    "f231_inv": (f231_inv, "", _factor_occurrences(_windows("231"))),
    "f312_inv": (f312_inv, "", _factor_occurrences(_windows("312"))),
    "f321_inv": (f321_inv, "", _factor_occurrences(_windows("321"))),
    "f312_via_t1t2": (f312_via_t1t2, "", _factor_occurrences(_windows("312"))),
    # a tunnel is long unless its D comes right after its U; an up step is
    # non-initial when a step comes before it
    "f213_perm": (f213_perm, "", _factor_occurrences(("UU", "UH"), False)),
    "f231_perm": (f231_perm, "", _factor_occurrences(("UU", "DU", "HU"), False)),
    "f312_perm": (f312_perm, ("", False), _before_non_d(lambda s, c: (c, s + c == "UD"))),
    "f321_perm": (f321_perm, ("", False), _before_non_d(lambda s, c: (c, c == "H" and s != ""))),
}
#: The named series by name, which ``gf`` serves and the genfun suite calls.
NAMED_SERIES = {name: route[0] for name, route in PATH_ROUTES.items()}


def check_genfun_tables(order: int = 12) -> list[str]:
    """Every named generating function equals the path transfer matrix of
    its statistics at full order, a route that forms no series product; the
    six pattern series equal the cluster series of their windows and
    satisfy the window-sum identity."""
    failures: list[str] = []
    series: dict[str, TruncatedSeries] = {}
    for name, (_, start, step) in PATH_ROUTES.items():
        got = series[name] = NAMED_SERIES[name](order)
        for n in (got - path_series(got.ring, step, start)).x_degrees():
            failures.append(f"{name} differs from the path transfer matrix at n={n}")
    for p in CONSECUTIVE_PATTERNS:
        if series[f"f{p}_inv"] != cluster_count_gf(ClusterSpec(tuple(_windows(p))), order):
            failures.append(f"f{p}_inv differs from the cluster series of its windows")
    # every length-3 window realizes exactly one pattern
    for n in range(2, order + 1):
        polys = [series[f"f{p}_inv"].coefficient(n) for p in CONSECUTIVE_PATTERNS]
        if sum(k[0] * c for poly in polys for k, c in poly.items()) != (n - 2) * motzkin_number(n):
            failures.append(f"window-sum identity fails at n={n}")
    return failures


def check_cluster_family(
    words: Sequence[str], order: int = 12, nmax: int = 10
) -> list[str]:
    """The cluster series for one factor set equals the path transfer
    matrix by occurrence count and H count for every n <= min(order, nmax)."""
    _refuse_past_bound(nmax, "cluster")
    spec = ClusterSpec(tuple(words))
    series = cluster_count_gf(spec, min(order, nmax))
    difference = series - path_series(series.ring, _factor_occurrences(spec.words))
    return [f"cluster series for {spec.words} differs at n={n}"
            for n in difference.x_degrees()]


def random_cluster_specs(count: int, seed: int = 20190521) -> list[ClusterSpec]:
    """Deterministically sample factor sets of 1-3 words of length 2-4,
    skipping the malformed ones (a duplicate or a proper factor)."""
    rng = random.Random(seed)
    specs: list[ClusterSpec] = []
    while len(specs) < count:
        size = rng.randint(1, 3)
        words = set()
        while len(words) < size:
            length = rng.randint(2, 4)
            words.add("".join(rng.choice("UDH") for _ in range(length)))
        try:
            specs.append(ClusterSpec(tuple(sorted(words))))
        except ClusterError:
            pass
    return specs


def _reduced_clusters(
    table: dict, ring: SeriesRing, letter: str, depths: Sequence[int]
) -> TruncatedSeries:
    """The clusters of a ``cluster_gfs`` table that reduce to the step
    ``letter`` (net height change +1 for U, -1 for D, 0 for H) with depth in
    ``depths``, as a series in (x, t, z).  The depth of a cluster is its
    least height, plus one for D."""
    net = _DELTA[letter]
    terms: dict[tuple[int, int, int], int] = {}
    for (length, d, low, marks, h), count in table.items():
        if d == net and low + (net == -1) in depths:
            terms[(length, marks, h)] = terms.get((length, marks, h), 0) + count
    return TruncatedSeries(ring, terms)


def check_cluster_engine(
    order: int = 12, nmax: int = 10, random_sets: int = 20, seed: int = 20190521
) -> list[str]:
    """Closed-form cluster series for the two worked factor families, read
    off the cluster table by reduced step and depth, exact equality with
    the corresponding pattern series, and agreement with the path transfer
    matrix for random factor sets."""
    _refuse_past_bound(nmax, "cluster")
    _refuse_past_bound(random_sets, "cluster --random-sets", RANDOM_SETS_BOUND)
    failures: list[str] = []
    ring = SeriesRing(order, ("t", "z"))
    x, t, z = ring.x(), ring.var("t"), ring.var("z")
    one, zero = ring.one(), ring.zero()

    q = (one - x * z * t - x * x * z * z * t).invert()
    series_dh = x**3 * z * z * t * q
    expected = {
        (CLUSTER_123, "H", (0,)): x**3 * z**3 * t * q,
        (CLUSTER_123, "H", (-1, 0)): series_dh * (z + x * t + x * x * t * z) + x**3 * t * z,
        (CLUSTER_123, "D", (-1, 0)): series_dh,
        (CLUSTER_123, "D", (0,)): series_dh,
        (CLUSTER_123, "U", (-1, 0)): series_dh,
        (CLUSTER_123, "U", (0,)): series_dh,
        (CLUSTER_132, "H", (-1, 0)): x * x * t,
        (CLUSTER_132, "H", (0,)): zero,
        (CLUSTER_132, "U", (-1, 0)): x * x * t * z,
        (CLUSTER_132, "U", (0,)): x * x * t * z,
        (CLUSTER_132, "D", (-1, 0)): zero,
        (CLUSTER_132, "D", (0,)): zero,
    }
    tables = {spec: cluster_gfs(spec, order) for spec in (CLUSTER_123, CLUSTER_132)}
    for (spec, letter, depths), want in expected.items():
        if _reduced_clusters(tables[spec], ring, letter, depths) != want:
            failures.append(f"clusters of {spec.words} reducing to {letter}{depths} differ")

    if cluster_count_gf(CLUSTER_123, order) != f123_inv(order):
        failures.append("cluster route disagrees with the 123 pattern series")
    if cluster_count_gf(CLUSTER_132, order) != f132_inv(order):
        failures.append("cluster route disagrees with the 132 pattern series")

    for spec in random_cluster_specs(random_sets, seed=seed):
        failures.extend(check_cluster_family(spec.words, order=order, nmax=nmax))
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
        if sum(1 for _ in enumerate_class(n, vincular, base="all")) != involution_number(n):
            failures.append(f"|S_{n}(1_32, 1_23)| != involution number")
        if sum(1 for _ in enumerate_bicolored(n)) != catalan_number(n):
            failures.append(f"|CM_{n}| != Catalan({n})")
    return failures


def check_series_engine(trials: int = 40, seed: int = 7) -> list[str]:
    """Randomized exact self-tests of the series engine: ring laws,
    inversion, square roots, substitution round-trips, quadratic
    residuals, fixed points, and one lazy solve at ``SERIES_ORDER_BOUND``
    checked on the eager kernel, since no solve checks itself."""
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

    one, x = ring.one(), ring.x()
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
        root = solve_quadratic(qa, qb, one)
        if qa * root * root + qb * root + one != ring.zero():
            failures.append("quadratic residual does not vanish")

    # The draws have integer coefficients; this one takes invert through fractions.
    u = one + ring.monomial(Fraction(1, 3), 1, t=1) - ring.monomial(Fraction(1, 2), 2, z=1)
    if u * u.invert() != one or u.sqrt() ** 2 != u:
        failures.append(f"inversion or sqrt fails for {u!r}")
    # The draws have c_0 = 1; these invert through 1/c_0 = -1 and -2/3.
    for u in (ring.monomial(1, 2, t=1) - one, ring.monomial(2, 1, z=1) - Fraction(3, 2)):
        if u * u.invert() != one:
            failures.append(f"inversion fails for {u!r}")
    geom = fixed_point_solve(lambda f: one + f * x, ring)
    if geom != (one - x).invert():
        failures.append("fixed point of 1 + x f is not the geometric series")
    # the eager product checks the lazy one at every degree gf serves
    top = SeriesRing(SERIES_ORDER_BOUND, ("t",))
    a = top.x() - top.monomial(1, 2, t=1)
    catalan_like = lambda f: a * f * f + 1
    f = fixed_point_solve(catalan_like, top)
    if catalan_like(f) != f:
        failures.append(f"lazy root of F = 1 + (x - x^2 t) F^2 is not fixed at order {top.order}")
    return failures


#: Suite registry for the command line: name -> (runner, default kwargs),
#: the defaults read off the runner's signature.
SUITES: dict[str, tuple[Callable[..., list[str]], dict]] = {
    name: (runner, {k: p.default for k, p in inspect.signature(runner).parameters.items()})
    for name, runner in (
        ("bijection", check_bijection_suite), ("diagram", check_diagram_suite),
        ("stat-transport", check_stat_transport), ("s132-transport", check_s132_transport),
        ("genfun", check_genfun_tables), ("cluster", check_cluster_engine),
        ("counting", check_counting), ("series", check_series_engine),
    )
}
