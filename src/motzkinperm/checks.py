"""Exhaustive verification suites.

Each suite runs a family of exact checks at desk scale and returns a list
of human-readable failure records (empty means the suite passed).  The
command-line ``verify`` verb and the acceptance tests are both thin
wrappers around these functions, so there is a single source of truth for
what gets verified.

The statistic transports live in ``bijections.TRANSPORTS``, whose rows
both transport suites and the path routes of the named series read.
"""

from __future__ import annotations

import inspect
import math
import random
from fractions import Fraction
from typing import Callable, Sequence

from .bijections import (
    CONSECUTIVE_PATTERNS,
    TRANSPORTS,
    VINCULAR_123,
    VINCULAR_132,
    _factor_occurrences,
    _windows,
    check_diagram,
    foata_inverse,
    foata_of,
    history_to_perm,
    involution_to_path,
    joint_path,
    motzkin_to_perm,
    path_to_involution,
    perm_to_history,
    transport_statistics,
)
from .errors import InvariantError
from .genfun import (
    CLUSTER_123,
    CLUSTER_132,
    ClassSpec,
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
    MotzkinWord,
    catalan_number,
    enumerate_bicolored,
    enumerate_histories,
    enumerate_labeled,
    enumerate_motzkin,
    motzkin_number,
    path_series,
)
from .patterns import PatternSpec, enumerate_class
from .permutations import (
    ENUMERATION_BOUND,
    SERIES_ORDER_BOUND,
    check_size,
    cycles_to_permutation,
    involution_number,
)
from .series import SeriesRing, TruncatedSeries, fixed_point_solve, solve_quadratic


#: Ceiling on nmax for the suites that walk all of S_n (bijection and
#: diagram).  Their time grows about tenfold per n: on a 2-CPU machine
#: (Python 3.11, best of 3) ``bijection`` takes 0.64 s at nmax 8 and 4.2 s at
#: nmax 9, with an 18 MiB peak, ``diagram`` 0.5 s and 4.4 s, so nmax 12
#: would run for hours.
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


def _onto(forward: Callable, inverse: Callable, codomain, size: int) -> list[str]:
    """Whether ``forward`` maps a domain of ``size`` members onto the walk
    ``codomain``: the walk yields ``size`` members in strictly increasing
    order, so none twice, and forward after ``inverse`` fixes each."""
    count, last = 0, None
    for y in codomain:
        if last is not None and not last < y:
            return [f"{y} is listed after {last}"]
        if forward(inverse(y)) != y:
            return [f"{y} does not come back"]
        count, last = count + 1, y
    return [] if count == size else [f"{count} members listed, not {size}"]


def check_bijection_suite(nmax: int = 8) -> list[str]:
    """Gamma, foata and Psi are bijections from S_n and I_n onto the
    histories, the vincular class and the labeled paths at every n up to
    nmax, by a round trip from each member of the codomain."""
    _refuse_past_bound(nmax, "bijection", ALL_PERMUTATIONS_BOUND)
    failures: list[str] = []
    for n in range(nmax + 1):
        vincular = enumerate_class(n, (VINCULAR_132, VINCULAR_123), base="all")
        for forward, inverse, codomain, size in (
            (perm_to_history, history_to_perm, enumerate_histories(n), math.factorial(n)),
            (foata_of, lambda q: cycles_to_permutation(foata_inverse(q)), vincular, involution_number(n)),
            (involution_to_path, path_to_involution, enumerate_labeled(n), involution_number(n)),
        ):
            failures.extend(f"{forward.__name__} at n={n}: {f}" for f in _onto(forward, inverse, codomain, size))
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
    """For every 3412-avoiding involution, each row of
    ``TRANSPORTS["I(3412)"]`` (inv, des, asc as weak valleys, fix and the
    six consecutive patterns by their 27 windows) on the involution against
    its path statistic, via transport_statistics."""
    _refuse_past_bound(nmax, "stat-transport")
    failures: list[str] = []
    spec = ClassSpec.parse("I(3412)")
    for n in range(nmax + 1):
        for p in spec.members(n):
            try:
                transport_statistics(p)
            except InvariantError as exc:
                failures.append(str(exc))
    return failures


def check_s132_transport(nmax: int = 10) -> list[str]:
    """For every member of the class avoiding 132 and consecutive 123: its
    history is a plain zero-labeled Motzkin word, each row of
    ``TRANSPORTS["S(132,_123)"]`` (coinv as area, des as tunnels minus one,
    and the four patterns) on the member equals its path statistic on that
    word, and the tunnel reconstruction inverts the map."""
    _refuse_past_bound(nmax, "s132-transport")
    failures: list[str] = []
    spec, rows = ClassSpec.parse("S(132,_123)"), TRANSPORTS["S(132,_123)"]
    for n in range(nmax + 1):
        for p in spec.members(n):
            history = perm_to_history(p)
            if "T" in history.word or any(history.labels):
                failures.append(f"history of {p} is not a plain zero-labeled word")
                continue
            word = MotzkinWord(str(history.word))
            for name, (perm, path_statistic, _) in rows.items():
                if perm(p) != path_statistic(word):
                    failures.append(f"{name}({p}) differs from its path statistic on {word}")
            if motzkin_to_perm(word) != p:
                failures.append(f"tunnel reconstruction fails for {p}")
    return failures


# ---------------------------------------------------------------------------
# path-side routes: the statistics of each named series, by class


#: Name -> (series, class, statistics): the series counts the class by
#: length and by the ``TRANSPORTS`` rows named, one variable each, in order.
#: Each route's ``path_series`` (start, step) joins those rows' steps.
PATH_ROUTES = {
    "inv_des_fix": (inv_des_fix_gf, "I(3412)", ("inv", "des", "fix")),
    "weak_valley": (weak_valley_gf, "I(3412)", ("asc",)),
    "coinv_des": (coinv_des_gf, "S(132,_123)", ("coinv", "des")),
    "f123_inv": (f123_inv, "I(3412)", ("occ:_123", "fix")),
    "f132_inv": (f132_inv, "I(3412)", ("occ:_132", "fix")),
    "f213_inv": (f213_inv, "I(3412)", ("occ:_213", "fix")),
    "f231_inv": (f231_inv, "I(3412)", ("occ:_231", "fix")),
    "f312_inv": (f312_inv, "I(3412)", ("occ:_312", "fix")),
    "f321_inv": (f321_inv, "I(3412)", ("occ:_321", "fix")),
    "f312_via_t1t2": (f312_via_t1t2, "I(3412)", ("occ:_312", "fix")),
    "f213_perm": (f213_perm, "S(132,_123)", ("occ:_213",)),
    "f231_perm": (f231_perm, "S(132,_123)", ("occ:_231",)),
    "f312_perm": (f312_perm, "S(132,_123)", ("occ:_312",)),
    "f321_perm": (f321_perm, "S(132,_123)", ("occ:_321",)),
}
#: The named series by name, which ``gf`` serves and the genfun suite calls.
NAMED_SERIES = {name: route[0] for name, route in PATH_ROUTES.items()}
ROUTE_PATHS = {name: joint_path([TRANSPORTS[cls][stat][2] for stat in stats])
               for name, (_, cls, stats) in PATH_ROUTES.items()}


def _factor_path(words: Sequence[str]) -> tuple[tuple, Callable]:
    """t per occurrence of a factor in ``words`` and z per H step."""
    return joint_path([("", _factor_occurrences(words)), TRANSPORTS["I(3412)"]["fix"][2]])


def check_genfun_tables(order: int = 12) -> list[str]:
    """Every named generating function equals the path transfer matrix of
    its statistics at full order, a route that forms no series product; the
    six pattern series equal the cluster series of their windows and
    satisfy the window-sum identity."""
    failures: list[str] = []
    series: dict[str, TruncatedSeries] = {}
    for name, (start, step) in ROUTE_PATHS.items():
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
    start, step = _factor_path(spec.words)
    difference = series - path_series(series.ring, step, start)
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
