"""Named generating functions over the two permutation classes, the
cluster engine counting Motzkin words by occurrences of any factor set
with no word a proper factor of another, its clusters grown as
Goulden-Jackson overlap chains, and the brute-force distribution oracle
behind ``table``.

Variable conventions: x always marks length.  Over 3412-avoiding
involutions, y marks inversions, z marks descents (or, in the
pattern-occurrence series, fixed points), w marks fixed points, t marks
pattern occurrences.  Over permutations avoiding 132 and consecutive 123,
y marks coinversions, z marks descents, t marks pattern occurrences.

The algebraic series are lazy fixed points, almost all of them
power-series roots of quadratics (``series.solve_quadratic``); the
radical closed forms of the cluster method are such roots too.  The
q-series are fixed points of first-return maps with a rescale x -> x*m.

Every series here is exact; the ``genfun`` suite compares each one,
coefficient by coefficient and at full order, with the path transfer
matrix (``paths.path_series``) of the statistics it counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import tee
from math import comb
from typing import Callable, Iterator, Sequence

from .errors import InvariantError
from .paths import (
    _DELTA,
    _NAMED_STATISTICS,
    enumerate_motzkin,
    subword_count,
)
from .patterns import PatternSpec, enumerate_class, occurrences
from .permutations import (
    Permutation,
    asc_count,
    check_size,
    coinv_count,
    des_count,
    fix_count,
    inv_count,
)
from .series import (
    SeriesRing,
    TruncatedSeries,
    fixed_point_solve,
    rescale_x,
    solve_quadratic,
)

# ---------------------------------------------------------------------------
# joint inversion / descent / fixed-point distribution over I_n(3412)


def inv_des_fix_gf(order: int) -> TruncatedSeries:
    """Joint distribution of (inv, des, fix) over 3412-avoiding involutions,
    in variables (y, z, w).

    The coefficient of x^n is the polynomial summing y^inv z^des w^fix
    over the class at size n: the fixed point of the first-return
    recurrence

        F = 1 + x w F + x^2 y z F + x^2 y z^2 (F(x y^2) - 1) F,

    where F(x y^2) substitutes x y^2 for x.
    """
    ring = SeriesRing(order, ("y", "z", "w"))
    one, xw = ring.one(), ring.monomial(1, 1, w=1)
    x2yz, x2yz2 = ring.monomial(1, 2, y=1, z=1), ring.monomial(1, 2, y=1, z=2)

    def phi(f: TruncatedSeries) -> TruncatedSeries:
        return one + f * xw + f * x2yz + (rescale_x(f, y=2) - one) * x2yz2 * f

    return fixed_point_solve(phi, ring)


def weak_valley_gf(order: int) -> TruncatedSeries:
    """Motzkin paths by length and number of weak valleys (factors HH, HU,
    DH, DU), in the variable z: the root with G(0) = 1 of
    x^2 z G^2 + (x^2 - x^2 z + x z - 1) G + (1 + x - x z) = 0, that is of
    G = 1 + x(1 + z(G-1)) + x^2 G (1 + z(G-1)) by first return, since a weak
    valley is an H or D step followed by an H or U step."""
    ring = SeriesRing(order, ("z",))
    x, z, one = ring.x(), ring.var("z"), ring.one()
    return solve_quadratic(x * x * z, x * x - x * x * z + x * z - one, one + x - x * z)


# ---------------------------------------------------------------------------
# consecutive patterns of length three over I_n(3412): series in (t, z)
# with t marking occurrences and z marking fixed points


def _pattern_ring(order: int) -> SeriesRing:
    return SeriesRing(order, ("t", "z"))


def f123_inv(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 123 (t) and fixed points (z) over
    3412-avoiding involutions; cluster method for the factor family
    {HHH, HHU, DHH, DHU}.

    The cluster method gives F = 2/(B + sqrt((1-c)^2 - 4a^2)) with
    B = 1 - 2b + c, and (1-c)^2 - 4a^2 = B^2 - 4A for
    A = (c-b)(1-b) + a^2, so F is the power-series root of
    A F^2 - B F + 1 = 0."""
    ring = _pattern_ring(order)
    x, t, z = ring.x(), ring.var("t"), ring.var("z")
    one = ring.one()
    tm1 = t - one
    q = (one - x * z * tm1 - x * x * z * z * tm1).invert()
    p = x**3 * z * z * tm1 * q
    a = x + p
    b = x * z + x**3 * z**3 * tm1 * q
    c = x * z + p * (z + x * tm1 + x * x * tm1 * z) + x**3 * tm1 * z
    return solve_quadratic((c - b) * (one - b) + a * a, b * 2 - one - c, one)


def f132_inv(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 132 (t) and fixed points (z) over
    3412-avoiding involutions; cluster method for the factors {HU, DU}.

    The cluster method gives F = 2/(B + sqrt(B^2 - 4A)) with
    B = 1 - xz + x^2(t-1) and A = x^2 t, which is the power-series root of
    A F^2 - B F + 1 = 0."""
    ring = _pattern_ring(order)
    x, t, z, one = ring.x(), ring.var("t"), ring.var("z"), ring.one()
    return solve_quadratic(x * x * t, x * z - one - x * x * (t - one), one)


def f321_inv(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 321 (t) and fixed points (z) over
    3412-avoiding involutions; root of the first-return quadratic."""
    ring = _pattern_ring(order)
    x, t, z = ring.x(), ring.var("t"), ring.var("z")
    a = (
        x**3 * z * t * 2
        - x**4 * z * z * t * 2
        + x * x * t * t
        - x**3 * z * t * t * 2
        + x**4 * z * z * t * t
        + x**4 * z * z
    )
    b = -ring.one() + x * z - x**3 * z * t - x * x * t * t + x * x + x**3 * z * t * t
    return solve_quadratic(a, b, ring.one())


def f312_inv(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 312 (t) and fixed points (z) over
    3412-avoiding involutions; root of the first-return quadratic."""
    ring = _pattern_ring(order)
    x, t, z = ring.x(), ring.var("t"), ring.var("z")
    a = x**3 * z * t + x * x - x**3 * z
    b = x * z + x * x + x**3 * z - x**3 * z * t - x * x - ring.one()
    return solve_quadratic(a, b, ring.one())


def f312_via_t1t2(order: int) -> TruncatedSeries:
    """Second route to ``f312_inv``: solve the refinement counting UH and
    UHD factors separately (variables t1, t2), then collapse t1 -> t,
    t2 -> 1/t with ``_collapse_t1t2``."""
    ring = SeriesRing(order, ("t1", "t2", "z"))
    x, t1, t2, z, one = ring.x(), ring.var("t1"), ring.var("t2"), ring.var("z"), ring.one()
    xz, x2, x3t1t2z, x3zt1 = x * z, x * x, x**3 * t1 * t2 * z, x**3 * z * t1

    def phi(g: TruncatedSeries) -> TruncatedSeries:
        return (
            one
            + g * xz
            + g * x2
            + g * x3t1t2z
            + g * x3zt1 * (g - one)
            + g * x2 * (g - g * xz - one)
        )

    return _collapse_t1t2(fixed_point_solve(phi, ring))


def _collapse_t1t2(g: TruncatedSeries) -> TruncatedSeries:
    """g at t1 -> t, t2 -> 1/t.  Every UHD contains a UH, so no term has
    more t2 than t1; one that has raises InvariantError."""
    terms: dict[tuple[int, int, int], int] = {}
    for k, c in g.terms.items():
        n, e1, e2, ez = g.ring._unpack(k)
        if e2 > e1:
            raise InvariantError(f"x^{n} t1^{e1} t2^{e2}: a UHD without its UH")
        terms[n, e1 - e2, ez] = terms.get((n, e1 - e2, ez), 0) + c
    return TruncatedSeries(_pattern_ring(g.ring.order), terms)


def f213_inv(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 213 over 3412-avoiding involutions: equal
    to ``f132_inv`` because reverse-complement is a fix-preserving
    involution of the class exchanging the two patterns."""
    return f132_inv(order)


def f231_inv(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 231 over 3412-avoiding involutions: equal
    to ``f312_inv`` by the same reverse-complement symmetry."""
    return f312_inv(order)


# ---------------------------------------------------------------------------
# coinversions and descents over permutations avoiding 132 and consecutive 123


def coinv_des_gf(order: int) -> TruncatedSeries:
    """Joint distribution of (coinv, des) over the class avoiding 132 and
    consecutive 123, in variables (y, z).

    First-return recurrence: wrapping a non-empty front factor in U...D
    lifts it by one level, adding one unit of area per step, hence the
    inner substitution x -> x y:

        F = 1 + x + xz(F-1) + yx^2 + yzx^2 (F-1) + yzx^2 (F(xy)-1)
              + yz^2 x^2 (F(xy)-1)(F-1).

    At y=1 this is the distribution of (number of tunnels - 1) over
    Motzkin paths (OEIS A107131); at z=1 it is the area distribution
    (OEIS A129181).
    """
    ring = SeriesRing(order, ("y", "z"))
    x, y, z, one = ring.x(), ring.var("y"), ring.var("z"), ring.one()
    xz, yx2, yzx2, yz2x2 = x * z, y * x * x, y * z * x * x, y * z * z * x * x

    def phi(f: TruncatedSeries) -> TruncatedSeries:
        fxy = rescale_x(f, y=1)
        return (
            one
            + x
            + (f - one) * xz
            + yx2
            + (f - one) * yzx2
            + (fxy - one) * yzx2
            + (fxy - one) * yz2x2 * (f - one)
        )

    return fixed_point_solve(phi, ring)


# ---------------------------------------------------------------------------
# consecutive patterns over permutations avoiding 132 and consecutive 123:
# series in t (occurrences) alone


def _perm_ring(order: int) -> SeriesRing:
    return SeriesRing(order, ("t",))


def f213_perm(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 213 over the class avoiding 132 and
    consecutive 123; equivalently long tunnels of Motzkin paths."""
    ring = _perm_ring(order)
    x, t = ring.x(), ring.var("t")
    return solve_quadratic(x * x * t, -ring.one() + x + x * x - x * x * t, ring.one())


def f231_perm(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 231; equivalently non-initial up steps."""
    ring = _perm_ring(order)
    x, t = ring.x(), ring.var("t")
    ftt = solve_quadratic(x * x * t, -ring.one() + x, ring.one())
    return ring.one() + x * ftt + x * x * ftt * ftt


def f312_perm(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 312; equivalently non-final peaks."""
    ring = _perm_ring(order)
    x, t = ring.x(), ring.var("t")
    one = ring.one()
    ftt = solve_quadratic(x * x, -one + x - x * x + x * x * t, one)
    num = one - x * x * ftt + x * x - x * x * t
    den = one - x - x * x * ftt - x * x * t
    return num * den.invert()


def f321_perm(order: int) -> TruncatedSeries:
    """Occurrences of consecutive 321; equivalently horizontal steps that
    are neither initial nor followed exclusively by down steps."""
    ring = _perm_ring(order)
    x, t = ring.x(), ring.var("t")
    one = ring.one()
    g = solve_quadratic(x * x, -one + x * t, one)
    num = one - x * t - x * x * g + x - x * x * t + x * x - x**3 * t + x**3
    den = -x * x + one - x * t - x * x * g
    return num * den.invert()


# ---------------------------------------------------------------------------
# generic cluster engine


class ClusterError(ValueError):
    """A malformed factor set."""


@dataclass(frozen=True)
class ClusterSpec:
    """A finite factor set over {U, D, H} with no word a proper factor of
    another: what makes every following mark of a cluster extend it."""

    words: tuple[str, ...]

    def __post_init__(self):
        words = tuple(self.words)
        object.__setattr__(self, "words", words)
        if not words:
            raise ClusterError("empty factor set")
        if len(set(words)) != len(words):
            raise ClusterError(f"duplicate factors in {words}")
        for w in words:
            if not w or any(ch not in "UDH" for ch in w):
                raise ClusterError(f"bad factor {w!r}")
        for v in words:
            for w in words:
                if v != w and v in w:
                    raise ClusterError(f"{v!r} is a proper factor of {w!r}")

    @classmethod
    def parse(cls, text: str) -> "ClusterSpec":
        return cls(tuple(part.strip() for part in text.split(",") if part.strip()))


def _net_and_low(letters: str) -> tuple[int, int]:
    """The net height change and the least height, from 0, of the letters."""
    y = low = 0
    for ch in letters:
        y += _DELTA[ch]
        low = min(low, y)
    return y, low


def cluster_gfs(spec: ClusterSpec, order: int) -> dict[tuple[int, int, int, int, int], int]:
    """The cluster table: the number of clusters of length up to the
    truncation order by (length, net height change, least height, marks,
    H count), the least height taken from the start, so it is at most 0.

    A cluster is a Goulden-Jackson overlap chain: marked factor occurrences
    covering the word, each starting before the previous one ends.  As no
    factor is a factor of another, every following mark extends the
    cluster: a mark on v follows one on u exactly when a proper suffix of u
    is a proper prefix of v.  Clusters grow one mark at a time, one dict
    per length, each node keeping its last factor.

    >>> cluster_gfs(ClusterSpec(("HH",)), 4)
    {(2, 0, 0, 1, 2): 1, (3, 0, 0, 2, 3): 1, (4, 0, 0, 3, 4): 1}
    """
    words = spec.words
    # followers[u]: v, then length, net, least height and H count of v past the overlap
    followers = {u: [(v, len(v) - k, *_net_and_low(v[k:]), v[k:].count("H"))
                     for v in words for k in range(1, min(len(u), len(v))) if u[-k:] == v[:k]]
                 for u in words}
    # layers[length]: node (last factor, net, low, marks, h) -> number of clusters
    layers: list[dict[tuple[str, int, int, int, int], int]] = [{} for _ in range(order + 1)]
    for w in words:
        if len(w) <= order:
            layers[len(w)][(w, *_net_and_low(w), 1, w.count("H"))] = 1
    table: dict[tuple[int, int, int, int, int], int] = {}
    for length, layer in enumerate(layers):
        for (u, net, low, marks, h), count in layer.items():
            key = (length, net, low, marks, h)
            table[key] = table.get(key, 0) + count
            for v, added, piece_net, piece_low, piece_h in followers[u]:
                if length + added <= order:
                    node = (v, net + piece_net, min(low, net + piece_low), marks + 1, h + piece_h)
                    layers[length + added][node] = layers[length + added].get(node, 0) + count
    return table


def cluster_count_gf(spec: ClusterSpec, order: int) -> TruncatedSeries:
    """Motzkin words by length (x), total occurrences of the factor set
    (t), and number of H steps (z), by the cluster method on paths.

    A word with a marked subset of its occurrences, each mark weighing
    t - 1, cuts uniquely into letters and clusters.  So the series is a
    dynamic program over length and height whose steps are U, D, H and the
    clusters, merged by (length, net, least height), one with k marks
    weighing (t - 1)^k; a step is taken only where the path stays at or
    above 0 inside it and can still return to 0 by the order.
    """
    ring = _pattern_ring(order)  # refuses a negative order before the DP
    base = order + 1  # t^i z^j packed as i * base + j; no exponent passes the order
    steps = {(1, 1, 0): {0: 1}, (1, -1, -1): {0: 1}, (1, 0, 0): {1: 1}}
    for (length, net, low, marks, h), count in cluster_gfs(spec, order).items():
        weight = steps.setdefault((length, net, low), {})
        for i in range(marks + 1):
            key = i * base + h
            weight[key] = weight.get(key, 0) + count * comb(marks, i) * (-1) ** (marks - i)
    # layers[n][y]: the paths of length n ending at height y
    layers: list[dict[int, dict[int, int]]] = [{} for _ in range(order + 1)]
    layers[0][0] = {0: 1}
    terms = {}
    for n, layer in enumerate(layers):
        for key, c in layer.get(0, {}).items():
            terms[(n, *divmod(key, base))] = c
        for y, poly in layer.items():
            for (length, net, low), weight in steps.items():
                m, y2 = n + length, y + net
                if y + low < 0 or y2 > order - m:
                    continue
                target = layers[m].setdefault(y2, {})
                for k1, c1 in poly.items():
                    for k2, c2 in weight.items():
                        target[k1 + k2] = target.get(k1 + k2, 0) + c1 * c2
    return TruncatedSeries(ring, terms)


#: The factor families realizing consecutive 123 and 132 over involutions.
CLUSTER_123 = ClusterSpec(("HHH", "HHU", "DHH", "DHU"))
CLUSTER_132 = ClusterSpec(("HU", "DU"))


# ---------------------------------------------------------------------------
# enumeration oracle


@dataclass(frozen=True)
class ClassSpec:
    """A combinatorial class: S(...) for permutations avoiding patterns,
    I(...) for involutions avoiding patterns, M for Motzkin words."""

    base: str
    patterns: tuple[PatternSpec, ...] = ()

    def __post_init__(self):
        if self.base not in ("S", "I", "M"):
            raise ValueError(f"unknown class base {self.base!r}")
        object.__setattr__(self, "patterns", tuple(self.patterns))
        if self.base == "M" and self.patterns:
            raise ValueError("the Motzkin class M takes no patterns")

    @classmethod
    def parse(cls, text: str) -> "ClassSpec":
        text = text.strip()
        if text == "M":
            return cls("M")
        if "(" not in text or not text.endswith(")"):
            raise ValueError(f"cannot parse class {text!r}")
        base, body = text[:-1].split("(", 1)
        base = base.strip()
        patterns = tuple(
            PatternSpec.parse(part.strip()) for part in body.split(",") if part.strip()
        )
        return cls(base, patterns)

    def __str__(self) -> str:
        if self.base == "M":
            return "M"
        return f"{self.base}({','.join(str(p) for p in self.patterns)})"

    def members(self, n: int) -> Iterator:
        if self.base == "M":
            yield from enumerate_motzkin(n)
        else:
            yield from enumerate_class(n, self.patterns, "involutions" if self.base == "I" else "all")


_PERM_STATISTICS: dict[str, Callable[[Permutation], int]] = {
    "inv": inv_count,
    "coinv": coinv_count,
    "des": des_count,
    "asc": asc_count,
    "fix": fix_count,
}


def statistic_function(name: str, base: str) -> Callable:
    """Resolve a statistic name for a class base.

    Permutation classes: inv, coinv, des, asc, fix, and occ:<pattern> for
    occurrence counts.  Motzkin words: any named path statistic plus
    subword:<factor>.  The function takes the members the class's
    enumerator yields and validates nothing; ``paths.named_statistic``
    is the validating route for other words.
    """
    if base == "M":
        if name.startswith("subword:"):
            factor = name.split(":", 1)[1]
            if not factor:
                raise ValueError(f"statistic {name!r} has an empty factor")
            if not set(factor) <= set("UDH"):
                raise ValueError(f"statistic {name!r} has a factor with a letter other than U, D, H")
            return lambda w: subword_count(w, factor)
        if name in _NAMED_STATISTICS:
            return _NAMED_STATISTICS[name]
        raise ValueError(f"unknown path statistic {name!r}")
    if name in _PERM_STATISTICS:
        return _PERM_STATISTICS[name]
    if name.startswith("occ:"):
        spec = PatternSpec.parse(name.split(":", 1)[1])
        return lambda p: occurrences(p, spec)
    raise ValueError(f"unknown permutation statistic {name!r}")


@dataclass(frozen=True)
class DistributionTable:
    """Exact counts of statistic-value tuples over a class at one size."""

    n: int
    class_spec: str
    statistics: tuple[str, ...]
    counts: dict[tuple[int, ...], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def rows(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.counts.items())


def distribution_oracle(
    class_spec: ClassSpec | str,
    statistics: Sequence[str],
    n: int,
) -> DistributionTable:
    """Tabulate the joint distribution of one or more statistics by
    exhaustive enumeration of the class.  Past ``ENUMERATION_BOUND`` it
    refuses before it starts, whatever the class."""
    if isinstance(class_spec, str):
        class_spec = ClassSpec.parse(class_spec)
    check_size(n, f"oracle for {class_spec}")
    stats = tuple(statistics)
    if not stats:
        raise ValueError("no statistic to tabulate")
    funcs = [statistic_function(name, class_spec.base) for name in stats]
    # each statistic maps over its own copy of the member stream, and zip
    # joins their values into the key of each member
    copies = tee(class_spec.members(n), len(funcs))
    counts = dict(Counter(zip(*map(map, funcs, copies))))
    return DistributionTable(n, str(class_spec), stats, counts)
