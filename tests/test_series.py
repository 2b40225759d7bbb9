import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from motzkinperm.errors import InvariantError
from motzkinperm.genfun import inv_des_fix_gf
from motzkinperm.paths import catalan_number, motzkin_number
from motzkinperm.series import (
    MAX_EXPONENT,
    LazySeries,
    SeriesRing,
    TruncatedSeries,
    continued_fraction,
    fixed_point_solve,
    format_poly,
    rescale_x,
    solve_quadratic,
)

RING = SeriesRing(8, ("t", "z"))
RING3 = SeriesRing(20, ("a", "b", "c"))


@st.composite
def small_series(draw, min_val=0):
    terms = draw(st.integers(min_value=1, max_value=5))
    s = RING.zero()
    for _ in range(terms):
        s = s + RING.monomial(
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=min_val, max_value=RING.order)),
            t=draw(st.integers(min_value=0, max_value=2)),
            z=draw(st.integers(min_value=0, max_value=2)),
        )
    return s


@st.composite
def unit_series_3(draw):
    """1 plus one or two monomials of positive x-degree in RING3.  Capped
    at two: three degree-1 monomials in distinct variables give roots and
    inverses of 1771 terms, which measures products of that size rather
    than the recurrences."""
    s = RING3.one()
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        s = s + RING3.monomial(
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=1, max_value=RING3.order)),
            a=draw(st.integers(min_value=0, max_value=2)),
            b=draw(st.integers(min_value=0, max_value=2)),
            c=draw(st.integers(min_value=0, max_value=2)),
        )
    return s


def test_ring_basics():
    ring = SeriesRing(3, ())
    one, x = ring.one(), ring.x()
    assert (one + x) * (one - x) == one - x * x
    assert (one + x) * 1 == one + x
    assert one - 1 == ring.zero()
    assert x * 0 == ring.zero()


def test_ring_rejects_bad_names():
    with pytest.raises(ValueError):
        SeriesRing(4, ("x",))
    with pytest.raises(ValueError):
        SeriesRing(4, ("t", "t"))
    with pytest.raises(ValueError):
        SeriesRing(-1, ())


def test_mismatched_rings():
    a = SeriesRing(4, ()).one()
    b = SeriesRing(5, ()).one()
    with pytest.raises(ValueError):
        a + b


@settings(max_examples=60)
@given(small_series(), small_series(), small_series())
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == RING.zero()


def test_invert_geometric():
    ring = SeriesRing(6, ())
    g = (ring.one() - ring.x()).invert()
    assert [g.coefficient(n, at={}) for n in range(7)] == [1] * 7


def test_invert_requires_constant():
    with pytest.raises(ValueError):
        RING.x().invert()
    with pytest.raises(ValueError):
        (RING.one() + RING.var("t")).invert()


@settings(max_examples=40)
@given(small_series(min_val=1))
def test_invert_roundtrip(tail):
    u = RING.one() + tail
    assert u * u.invert() == RING.one()


def test_sqrt_one_minus_four_x():
    ring = SeriesRing(6, ())
    s = (ring.one() - 4 * ring.x()).sqrt()
    # coefficients are -2 times Catalan numbers shifted by one
    assert [s.coefficient(n, at={}) for n in range(7)] == [1, -2, -2, -4, -10, -28, -84]
    assert s * s == ring.one() - 4 * ring.x()


def test_sqrt_requires_unit_constant():
    for u in (RING.one() * 2, RING.zero(), RING.one() + RING.var("t")):
        with pytest.raises(ValueError, match="sqrt needs constant term exactly 1"):
            u.sqrt()


@settings(max_examples=40)
@given(small_series(min_val=1))
def test_sqrt_squares_back(tail):
    u = RING.one() + tail
    assert u.sqrt() ** 2 == u


@settings(max_examples=40)
@given(unit_series_3())
def test_invert_roundtrip_three_variables(u):
    assert u * u.invert() == RING3.one()


@settings(max_examples=40)
@given(unit_series_3())
def test_sqrt_roundtrip_three_variables(u):
    root = u.sqrt()
    assert root.constant_term() == 1
    assert root * root == u


def test_invert_keeps_int_coefficients():
    ring = SeriesRing(20, ())
    x = ring.x()
    fib = (ring.one() - x - x * x).invert()
    assert all(type(c) is int for c in fib.terms.values())
    values = [fib.coefficient(n, at={}) for n in range(21)]
    assert values[:8] == [1, 1, 2, 3, 5, 8, 13, 21]
    assert all(values[n] == values[n - 1] + values[n - 2] for n in range(2, 21))
    inverse = (-ring.one() + x * x).invert()
    assert all(type(c) is int for c in inverse.terms.values())
    # 1/(x^2 - 1) = -(1 + x^2 + x^4 + ...)
    assert [inverse.coefficient(n, at={}) for n in range(21)] == [-1 if n % 2 == 0 else 0 for n in range(21)]


def test_sqrt_keeps_int_coefficients():
    ring = SeriesRing(20, ())
    root = (ring.one() - 4 * ring.x()).sqrt()
    assert all(type(c) is int for c in root.terms.values())
    # -2 times the Catalan numbers, shifted by one
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(20)]
    assert [root.coefficient(n, at={}) for n in range(1, 21)] == [-2 * c for c in catalan]


@pytest.mark.parametrize("c0", [2, Fraction(1, 3), Fraction(-5, 2), -1])
def test_invert_non_unit_constant(c0):
    ring = SeriesRing(12, ("t",))
    x, t = ring.x(), ring.var("t")
    geometric = (ring.const(c0) - x).invert()
    assert [geometric.coefficient(n, at={"t": 1}) for n in range(13)] == [
        1 / Fraction(c0) ** (n + 1) for n in range(13)
    ]
    u = ring.const(c0) + x * t * 3 - x * x + Fraction(2, 7) * x**5 * t * t
    assert u * u.invert() == ring.one()


def test_sqrt_fraction_tail():
    ring = SeriesRing(12, ("t",))
    x, t = ring.x(), ring.var("t")
    exact = ring.one() + Fraction(1, 3) * x * t - Fraction(5, 6) * x**3
    assert (exact * exact).sqrt() == exact
    u = ring.one() + Fraction(1, 2) * x + Fraction(2, 3) * x * x * t - Fraction(7, 5) * x**4
    root = u.sqrt()
    assert root * root == u
    assert root.coefficient(1) == {(0,): Fraction(1, 4)}


def test_substitute_examples():
    ring = SeriesRing(6, ("y",))
    x, y = ring.x(), ring.var("y")
    geom = (ring.one() - x).invert()
    twisted = rescale_x(geom, y=2)
    assert twisted == (ring.one() - x * y * y).invert()
    assert twisted.coefficient(3) == {(6,): 1}
    shifted = (ring.one() + x * y).substitute("y", y - ring.one())
    assert shifted == ring.one() - x + x * y


def test_substitute_for_x_needs_valuation():
    with pytest.raises(ValueError, match="rescale_x"):
        RING.one().substitute("x", RING.x())


@settings(max_examples=40)
@given(small_series(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_rescale_x_matches_termwise_reference(s, kt, kz):
    expected = RING.zero()
    for n in s.x_degrees():
        for (et, ez), c in s.coefficient(n).items():
            expected = expected + RING.monomial(c, n, t=et + kt * n, z=ez + kz * n)
    assert rescale_x(s, t=kt, z=kz) == expected


@settings(max_examples=40)
@given(small_series())
def test_t_shift_roundtrip(a):
    t = RING.var("t")
    assert a.substitute("t", t - RING.one()).substitute("t", t + RING.one()) == a


def test_solve_quadratic_catalan():
    ring = SeriesRing(8, ())
    f = solve_quadratic(ring.x(2), ring.const(-1), 1)
    assert [f.coefficient(n, at={}) for n in range(9)] == [1, 0, 1, 0, 2, 0, 5, 0, 14]


@pytest.mark.parametrize("b0", [1, -1])
def test_solve_quadratic_keeps_int_coefficients(b0):
    # the root of x*F^2 + b0*F - 1 = 0 scales by -1/b0, a Fraction equal to
    # an int, which must not leave Fractions in the root
    ring = SeriesRing(10, ("t",))
    root = solve_quadratic(ring.x() * ring.var("t"), ring.const(b0), -1)
    assert root.terms and all(type(c) is int for c in root.terms.values())


def test_solve_quadratic_linear_case():
    ring = SeriesRing(5, ())
    f = solve_quadratic(ring.zero(), ring.const(-1) + ring.x(), ring.one())
    assert f == (ring.one() - ring.x()).invert()


def test_solve_quadratic_refuses_what_is_not_a_contraction():
    ring = SeriesRing(5, ("t",))
    one, x, t = ring.one(), ring.x(), ring.var("t")
    for a, b in ((one + x, -one), (x, x), (x, -one + t)):
        with pytest.raises(ValueError, match="solve_quadratic needs"):
            solve_quadratic(a, b, one)


@settings(max_examples=60)
@given(st.data())
def test_solve_quadratic_residual_vanishes(data):
    ring = data.draw(RINGS)
    b0 = data.draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
    a = TruncatedSeries(ring, data.draw(tuple_terms(ring, 2, min_x=1)))
    b = ring.const(b0) + TruncatedSeries(ring, data.draw(tuple_terms(ring, 2, min_x=1)))
    c = TruncatedSeries(ring, data.draw(tuple_terms(ring, 2)))
    f = solve_quadratic(a, b, c)
    assert a * f * f + b * f + c == ring.zero()
    assert f.constant_term() == -c.constant_term() / b0
    assert f.coefficient(0) == {e: -v / b0 for e, v in c.coefficient(0).items()}


def test_fixed_point_geometric():
    ring = SeriesRing(7, ())
    f = fixed_point_solve(lambda g: g.ring.one() + g.ring.x() * g, ring)
    assert f == (ring.one() - ring.x()).invert()


def test_fixed_point_rejects_non_contraction():
    ring = SeriesRing(4, ())
    with pytest.raises(InvariantError):
        fixed_point_solve(lambda g: g + g.ring.one(), ring)


def test_fixed_point_of_a_constant_map_is_its_constant():
    ring = SeriesRing(4, ("y",))
    c = ring.one() + ring.monomial(3, 2, y=1)
    assert fixed_point_solve(lambda g: c, ring) == c


def test_fixed_point_takes_constants_of_the_outer_ring():
    ring = SeriesRing(4, ())
    assert fixed_point_solve(lambda g: ring.one() + ring.x() * g, ring) == (ring.one() - ring.x()).invert()


def test_fixed_point_is_independent_of_operand_order():
    ring = SeriesRing(8, ())
    x = ring.x()
    catalan = fixed_point_solve(lambda g: ring.one() + x * g * g, ring)
    assert fixed_point_solve(lambda g: ring.one() + g * (g * x), ring) == catalan
    assert fixed_point_solve(lambda g: (g * x) * g + 1, ring) == catalan
    # 1 + x g - 1 has a zero x^0 coefficient that its valuation bound (0)
    # does not show, so the product must ask for it before g_n
    assert fixed_point_solve(lambda g: g * (ring.one() + x * g - 1) + 1, ring) == catalan


def test_fixed_point_through_a_sum_inside_a_product():
    ring = SeriesRing(8, ())
    x = ring.x()
    fibonacci = (ring.one() - x - x * x).invert()
    assert fixed_point_solve(lambda g: ring.one() + x * (g + x * g), ring) == fibonacci


def test_fixed_point_calls_its_map_once():
    # the one call on the lazy unknown is the whole solve; the result is
    # not run through the map again
    ring = SeriesRing(6, ("t",))
    x, t = ring.x(), ring.var("t")
    calls = []

    def phi(g):
        calls.append(g)
        return ring.one() + x * t * g * g

    f = fixed_point_solve(phi, ring)
    assert len(calls) == 1 and isinstance(calls[0], LazySeries)
    assert ring.one() + x * t * f * f == f


def test_lazy_product_overflow_raises():
    ring = SeriesRing(3, ("y",))
    heavy = ring.monomial(1, 1, y=MAX_EXPONENT // 2 + 1)
    calls = []

    def phi(g):
        calls.append(g)
        return ring.one() + heavy * g * g

    with pytest.raises(InvariantError, match="exceeds"):
        fixed_point_solve(phi, ring)
    assert len(calls) == 1  # raised by a lazy product on the one call


def test_lazy_product_overflow_raises_through_scalar_and_sum_nodes():
    ring = SeriesRing(3, ("y",))
    heavy = ring.monomial(1, 1, y=MAX_EXPONENT // 2 + 1)
    calls = []

    def phi(g):
        calls.append(g)
        return -(heavy * g * g) * Fraction(3, 4) + 1

    with pytest.raises(InvariantError, match="exceeds"):
        fixed_point_solve(phi, ring)
    assert len(calls) == 1


def as_lazy(s: TruncatedSeries) -> LazySeries:
    return LazySeries(s.ring, lambda n: {}, s.ring.order + 1)._lift(s)


def materialized(f: LazySeries) -> dict:
    """Every coefficient of a lazy series, as packed eager terms."""
    shift = f.ring._x_shift
    return {k + (n << shift): v for n in range(f.ring.order + 1) for k, v in f.coeff(n).items()}


def random_series(rng: random.Random, ring: SeriesRing) -> TruncatedSeries:
    terms = {}
    for _ in range(rng.randint(0, 12)):
        key = (rng.randint(0, ring.order), rng.randint(0, 3), rng.randint(0, 3))
        terms[key] = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
    return TruncatedSeries(ring, terms)


def same_terms(got: dict, expected: dict) -> None:
    """Equal terms dicts, with equal coefficient types."""
    assert got == expected
    assert [type(v) for v in got.values()] == [type(expected[k]) for k in got]


@pytest.mark.parametrize("seed", range(20))
def test_lazy_scalar_and_sum_nodes_match_eager(seed):
    # the terms dicts are compared, types included, so a zero coefficient
    # kept or an integral Fraction left unnormed fails
    rng = random.Random(seed)
    a, b = random_series(rng, RING), random_series(rng, RING)
    la, lb = as_lazy(a), as_lazy(b)
    cases = [(la * c, a * c) for c in (0, 1, -1, Fraction(3, 4), Fraction(4, 2))]
    cases += [(Fraction(3, 4) * la, a * Fraction(3, 4)), (la + lb, a + b), (la - lb, a - b), (-la, -a)]
    cases += [(la + b, a + b), (1 - la, 1 - a), (la + la * -1, RING.zero())]
    for lazy, eager in cases:
        same_terms(materialized(lazy), eager.terms)
    assert la * 1 is la


def sixths(ring: SeriesRing, shift: int) -> TruncatedSeries:
    """Every x-degree with a term over 2, over 3 and over 6, so that the
    pairs of a product at one degree run over denominators 4 to 36 in an
    order that raises the common denominator more than once."""
    terms = {}
    for n in range(ring.order + 1):
        for j, d in enumerate((2, 3, 6)):
            terms[(n, (n + j + shift) % 3)] = Fraction((n + 1) * (j + 2) * (-1) ** (n + shift), d)
    return TruncatedSeries(ring, terms)


def test_lazy_product_over_denominators_2_3_6_equals_eager():
    ring = SeriesRing(12, ("t",))
    a, b = sixths(ring, 0), sixths(ring, 1)
    for f, g in ((a, b), (b, a), (a, a), (a, b * 6), (a * 6, ring.x() + 1)):
        same_terms(materialized(as_lazy(f) * as_lazy(g)), (f * g).terms)


def test_lazy_product_gives_integral_coefficients_as_ints():
    ring = SeriesRing(12, ("t",))
    half_third = TruncatedSeries(ring, {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 3)})
    ints = TruncatedSeries(ring, {(0, 0): 2, (1, 0): 3, (2, 1): 6, (3, 0): -4})
    products = [as_lazy(half_third) * as_lazy(ints), as_lazy(ints) * as_lazy(ints),
                as_lazy(sixths(ring, 0)) * as_lazy(sixths(ring, 2) * 36)]
    for product in products:
        values = list(materialized(product).values())
        assert values and all(type(v) is (int if v.denominator == 1 else Fraction) for v in values)
    # (1/2 + x t/3)(2 + 3x + 6x^2 t - 4x^3): the x^2 t term is 3 + 1
    expected = {(0, 0): 1, (1, 0): Fraction(3, 2), (1, 1): Fraction(2, 3), (2, 1): 4,
                (3, 0): -2, (3, 2): 2, (4, 1): Fraction(-4, 3)}
    same_terms(materialized(products[0]), TruncatedSeries(ring, expected).terms)


#: One-term factors (coefficient, x-degree, t, z): x-degree 0, auxiliary
#: variables only, inside the order and at it, where every term of positive
#: x-degree drops out of the product.
ONE_TERM = [(1, 0, 0, 0), (-1, 0, 0, 1), (Fraction(3, 2), 0, 2, 1), (-2, 3, 0, 0),
            (Fraction(-1, 3), 5, 1, 3), (7, RING.order, 0, 0)]


@pytest.mark.parametrize("seed", range(6))
def test_one_term_factor_is_a_key_shift(seed):
    # every x-degree 0..order holds a pure power of x, so a shift keeping
    # the key at the cap itself, x^(order+1), would show
    rng = random.Random(seed)
    dense = sum((RING.x(n) for n in range(RING.order + 1)), RING.zero())
    f = random_series(rng, RING) + dense
    for g in (f, RING.x() * f):
        lazy = as_lazy(g)
        for c, d, t, z in ONE_TERM:
            m = RING.monomial(c, d, t=t, z=z)
            # the general lazy product (as_lazy(m) is lazy) and tuple keys
            general = materialized(lazy * as_lazy(m))
            reference = naive_mul(as_tuples(g), as_tuples(m), RING.order)
            for eager in (g * m, m * g):
                assert as_tuples(eager) == reference
                same_terms(eager.terms, general)
            for node in (lazy * m, m * lazy):
                assert node.val == lazy.val + d
                same_terms(materialized(node), general)
    assert not RING.monomial(7, RING.order) * (RING.x() * f)


def test_one_term_factor_overflow_raises_in_both_kernels():
    ring = SeriesRing(4, ("a", "b"))
    top = ring.one() + ring.monomial(2, 1, b=MAX_EXPONENT)
    lazy = as_lazy(top)
    for m in (ring.var("b"), ring.monomial(3, 2, b=1)):
        for product in (lambda: top * m, lambda: m * top,
                        lambda: materialized(lazy * m), lambda: materialized(m * lazy)):
            with pytest.raises(InvariantError, match="exceeds"):
                product()


def test_unit_scalar_is_a_no_op():
    s = random_series(random.Random(0), RING)
    assert s * 1 is s and 1 * s is s and s * Fraction(1) is s


@pytest.mark.parametrize("seed", range(4))
def test_solve_quadratic_over_ints_stays_in_ints(seed):
    rng = random.Random(seed)

    def ints(min_x):
        return TruncatedSeries(RING, {(rng.randint(min_x, RING.order), rng.randint(0, 2), rng.randint(0, 2)):
                                      rng.randint(-3, 3) for _ in range(rng.randint(1, 4))})

    for b0 in (1, -1):
        root = solve_quadratic(ints(1), ints(1) + b0, ints(0) + rng.choice((1, -2, 3)))
        assert root.terms and all(type(v) is int for v in root.terms.values())


def test_lazy_series_takes_only_a_rescale_of_x():
    ring = SeriesRing(4, ("y",))
    for m, message in (({"x": 1}, "unknown variable 'x'"), ({"q": 1}, "unknown variable 'q'"),
                       ({"y": -1}, "negative"), ({"y": MAX_EXPONENT}, "MAX_EXPONENT")):
        with pytest.raises(ValueError, match=message):
            fixed_point_solve(lambda g: ring.one() + ring.x() * rescale_x(g, **m), ring)


def test_lazy_rescale_solves_the_area_recurrence():
    # F = 1 + x F(xy) gives F_(n+1) = y^n F_n, so F_n = y^C(n,2)
    ring = SeriesRing(12, ("y",))
    f = fixed_point_solve(lambda g: ring.one() + ring.x() * rescale_x(g, y=1), ring)
    assert f == sum((ring.monomial(1, n, y=math.comb(n, 2)) for n in range(13)), ring.zero())


AUX_RINGS = st.builds(
    SeriesRing, st.integers(min_value=1, max_value=6),
    st.sampled_from([("p",), ("p", "q"), ("p", "q", "r")]),
)


@st.composite
def aux_poly(draw, ring):
    """A polynomial in the auxiliary variables alone, as a series of ring."""
    key = st.tuples(st.just(0), *[st.integers(min_value=0, max_value=2)] * len(ring.vars))
    return TruncatedSeries(ring, draw(st.dictionaries(key, COEFFICIENTS, max_size=3)))


@settings(max_examples=40)
@given(st.data())
def test_lazy_fixed_point_matches_the_quadratic_root(data):
    ring = data.draw(AUX_RINGS)
    a, b = data.draw(aux_poly(ring)), data.draw(aux_poly(ring))
    x, one = ring.x(), ring.one()
    f = fixed_point_solve(lambda g: one + x * a * g + x * x * b * g * g, ring)
    # the eager closed form of the root of x^2 b F^2 + (x a - 1) F + 1 = 0
    assert f == (one - x * a + ((one - x * a) ** 2 - x * x * b * 4).sqrt()).invert() * 2


@settings(max_examples=40)
@given(st.data())
def test_lazy_fixed_point_matches_the_inverse(data):
    ring = data.draw(AUX_RINGS)
    a = data.draw(aux_poly(ring))
    x, one = ring.x(), ring.one()
    assert fixed_point_solve(lambda g: one + x * a * g, ring) == (one - x * a).invert()


def test_continued_fraction_geometric():
    ring = SeriesRing(6, ())
    f = continued_fraction(lambda i: -ring.x(), lambda i: ring.zero(), ring)
    assert f == (ring.one() - ring.x()).invert()


def test_continued_fraction_depth_independent():
    # the Motzkin J-fraction: its fixed depth order + 1 already gives every
    # coefficient up to the truncation order exactly
    ring = SeriesRing(9, ())
    b = lambda i: -ring.x()
    c = lambda i: ring.x(2)
    f = continued_fraction(b, c, ring)
    assert [f.coefficient(n, at={}) for n in range(10)] == [motzkin_number(n) for n in range(10)]
    # the Catalan S-fraction: with c_i = x, level i needs every degree up to 9 - i
    f = continued_fraction(lambda i: ring.zero(), lambda i: ring.x(), ring)
    assert [f.coefficient(n, at={}) for n in range(10)] == [catalan_number(n) for n in range(10)]


def test_continued_fraction_matches_the_recurrence_at_order_18():
    # the first-return recurrence of inv_des_fix unrolled: level i is level 0
    # with x -> x*y^(2i)
    ring = SeriesRing(18, ("y", "z", "w"))

    def b(i):
        return (
            ring.monomial(-1, 1, y=2 * i, w=1)
            + ring.monomial(-1, 2, y=4 * i + 1, z=1)
            + ring.monomial(1, 2, y=4 * i + 1, z=2)
        )

    def c(i):
        return ring.monomial(1, 2, y=4 * i + 1, z=2)

    assert continued_fraction(b, c, ring) == inv_des_fix_gf(18)


def test_continued_fraction_rejects_constant_levels():
    ring = SeriesRing(4, ())
    with pytest.raises(ValueError):
        continued_fraction(lambda i: ring.one(), lambda i: ring.zero(), ring)


def test_evaluate_and_coefficient():
    ring = SeriesRing(4, ("t", "z"))
    s = ring.monomial(3, 2, t=1, z=2) + ring.monomial(1, 2)
    at_t1 = s.evaluate(t=1)
    assert at_t1.ring.vars == ("z",)
    assert at_t1.coefficient(2) == {(2,): 3, (0,): 1}
    assert s.coefficient(2, at={"t": 1, "z": Fraction(1, 2)}) == Fraction(7, 4)
    with pytest.raises(ValueError):
        s.coefficient(9)
    with pytest.raises(ValueError):
        s.coefficient(2, at={"t": 1})


@pytest.mark.parametrize("values", [
    {"y": 1, "z": 1}, {"y": Fraction(2), "w": 0}, {"y": -1, "z": Fraction(3), "w": 2},
])
def test_evaluate_at_integers_keeps_int_coefficients(values):
    got = inv_des_fix_gf(8).evaluate(**values)
    assert got.terms and all(type(c) is int for c in got.terms.values())
    half = SeriesRing(3, ("y",)).monomial(Fraction(1, 2), 1, y=1)
    assert type(half.coefficient(1, at={"y": 2})) is int


def test_truncate():
    ring = SeriesRing(6, ())
    g = (ring.one() - ring.x()).invert()
    small = g.truncate(3)
    assert small.ring.order == 3
    assert [small.coefficient(n, at={}) for n in range(4)] == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        small.truncate(5)


def test_format_poly():
    assert format_poly({(2, 1): 2, (1, 2): 1}, ("y", "z")) == "2*y^2*z + y*z^2"
    assert format_poly({(0, 0): -3, (1, 0): 1}, ("y", "z")) == "y - 3"
    assert format_poly({}, ("y", "z")) == "0"
    assert format_poly({(0,): Fraction(1, 2)}, ("y",)) == "1/2"


def test_str_and_json():
    ring = SeriesRing(3, ("t",))
    s = ring.one() + ring.monomial(2, 3, t=1)
    assert "[n=3] 2*t" in str(s)
    data = s.to_json_dict()
    assert data["coefficients"]["3"] == {"1": 2}


# -- the packed-key kernel against plain exponent tuples ----------------------

RINGS = st.builds(
    SeriesRing, st.integers(min_value=1, max_value=6),
    st.sampled_from([(), ("a",), ("a", "b"), ("a", "b", "c")]),
)
COEFFICIENTS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
).filter(bool)


@st.composite
def tuple_terms(draw, ring, max_exponent, min_x=0):
    key = st.tuples(
        st.integers(min_value=min_x, max_value=ring.order),
        *[st.integers(min_value=0, max_value=max_exponent)] * len(ring.vars),
    )
    return draw(st.dictionaries(key, COEFFICIENTS, max_size=4))


def as_tuples(s):
    """The terms of a series keyed by (x_degree, e_1, ..., e_m)."""
    return {(n, *e): c for n in range(s.ring.order + 1) for e, c in s.coefficient(n).items()}


def naive_mul(a, b, order):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(map(add, k1, k2))
            if key[0] <= order:
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


@settings(max_examples=80)
@given(st.data())
def test_kernel_matches_tuple_keys(data):
    ring = data.draw(RINGS)
    # two exponents of MAX_EXPONENT // 2 still add up to a storable one
    a = data.draw(tuple_terms(ring, MAX_EXPONENT // 2))
    b = data.draw(tuple_terms(ring, MAX_EXPONENT // 2))
    sa, sb = TruncatedSeries(ring, a), TruncatedSeries(ring, b)
    assert as_tuples(sa) == a
    assert as_tuples(sa * sb) == naive_mul(a, b, ring.order)
    total = {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
    assert as_tuples(sa + sb) == {k: c for k, c in total.items() if c}
    # a term of x-degree n in a reciprocal or root multiplies at most n
    # tail terms, so its exponents stay within order * (tail exponent)
    tail = data.draw(tuple_terms(ring, MAX_EXPONENT // ring.order, min_x=1))
    u = ring.one() + TruncatedSeries(ring, tail)
    one = {(0,) * ring.width: 1}
    assert naive_mul(as_tuples(u), as_tuples(u.invert()), ring.order) == one
    root = u.sqrt()
    assert naive_mul(as_tuples(root), as_tuples(root), ring.order) == as_tuples(u)


VALUES = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=4))


def naive_evaluate(terms, names, values):
    """Tuple-keyed terms with the named variables set to values, keyed by
    (x_degree, the exponents of the variables left)."""
    keep = [i for i, name in enumerate(names) if name not in values]
    out = {}
    for (n, *exps), c in terms.items():
        for name, e in zip(names, exps):
            if name in values:
                c = c * Fraction(values[name]) ** e
        key = (n, *(exps[i] for i in keep))
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


@settings(max_examples=80)
@given(st.data())
def test_evaluate_matches_tuple_keys(data):
    ring = data.draw(RINGS.filter(lambda r: r.vars))
    terms = data.draw(tuple_terms(ring, 5))
    names = data.draw(st.lists(st.sampled_from(ring.vars), min_size=1, unique=True))
    values = {name: data.draw(VALUES) for name in names}
    got = TruncatedSeries(ring, terms).evaluate(**values)
    assert got.ring == SeriesRing(ring.order, tuple(v for v in ring.vars if v not in values))
    assert as_tuples(got) == naive_evaluate(terms, ring.vars, values)


def test_product_overflow_raises():
    ring = SeriesRing(4, ("a", "b"))
    top = ring.var("b", MAX_EXPONENT - 1) * ring.var("b")
    assert top.coefficient(0) == {(0, MAX_EXPONENT): 1}
    # b would carry into the field of a, which must not read a * b^0
    with pytest.raises(InvariantError):
        top * ring.var("b")
    with pytest.raises(InvariantError):
        ring.monomial(1, 0, a=MAX_EXPONENT) * ring.var("a")
    with pytest.raises(InvariantError):
        (ring.one() - ring.monomial(1, 1, a=MAX_EXPONENT // 2 + 1)).invert()
    with pytest.raises(InvariantError):
        (ring.one() + ring.monomial(4, 1, b=MAX_EXPONENT // 2 + 1)).sqrt()


@settings(max_examples=60)
@given(st.data())
def test_tuple_keys_round_trip(data):
    ring = data.draw(RINGS)
    terms = data.draw(tuple_terms(ring, MAX_EXPONENT))
    s = TruncatedSeries(ring, terms)
    for n in range(ring.order + 1):
        assert s.coefficient(n) == {k[1:]: c for k, c in terms.items() if k[0] == n}
    exported = s.to_json_dict()["coefficients"]
    assert exported == {
        str(n): {",".join(map(str, k[1:])): int(c) if c.denominator == 1 else str(c)
                 for k, c in sorted(terms.items()) if k[0] == n}
        for n in sorted({k[0] for k in terms})
    }
    assert list(exported) == [str(n) for n in s.x_degrees()]


def test_truncation_at_the_order():
    ring = SeriesRing(5, ("y",))
    edge = ring.monomial(1, 5, y=MAX_EXPONENT)
    assert edge.coefficient(5) == {(MAX_EXPONENT,): 1}
    assert edge.x_degrees() == [5]
    assert not ring.x(6)
    assert not TruncatedSeries(ring, {(6, 0): 1})
    assert ring.monomial(1, 2, y=3) * ring.monomial(1, 3, y=MAX_EXPONENT - 3) == edge
    assert not ring.monomial(1, 3, y=MAX_EXPONENT) * ring.x(3)
    assert (ring.one() - ring.x()).invert().coefficient(5) == {(0,): 1}
    assert not edge.truncate(4)
    # a rescale at the largest step the order allows, and one more unit at the order
    assert rescale_x(ring.x(5), y=MAX_EXPONENT // 5) == ring.monomial(1, 5, y=MAX_EXPONENT // 5 * 5)
    with pytest.raises(InvariantError, match="exceeds"):
        rescale_x(edge, y=1)


@pytest.mark.parametrize("make, message", [
    (lambda r: r.monomial(1, -1), "negative"),
    (lambda r: r.monomial(1, 0, y=-1), "negative"),
    (lambda r: r.monomial(1, 0, y=MAX_EXPONENT + 1), "MAX_EXPONENT"),
    (lambda r: TruncatedSeries(r, {(1,): 1}), "needs 2 entries"),
    (lambda r: r.var("q"), "unknown variable 'q'"),
    (lambda r: r.one().substitute("q", r.one()), "unknown variable 'q'"),
    (lambda r: r.one().evaluate(q=1), "unknown variable 'q'"),
    (lambda r: rescale_x(r.one(), q=1), "unknown variable 'q'"),
    (lambda r: rescale_x(r.one(), y=MAX_EXPONENT // 4 + 1), "MAX_EXPONENT"),
    (lambda r: rescale_x(r.one(), y=-1), "negative"),
])
def test_ring_boundary_refuses_what_a_key_cannot_hold(make, message):
    with pytest.raises(ValueError, match=message):
        make(SeriesRing(4, ("y",)))
