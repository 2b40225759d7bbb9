import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from motzkinperm.errors import InvariantError
from motzkinperm.series import (
    SeriesRing,
    continued_fraction,
    fixed_point_solve,
    format_poly,
    monomial_substitute,
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
    with pytest.raises(ValueError):
        (RING.one() * 2).sqrt()
    with pytest.raises(ValueError):
        RING.zero().sqrt()


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
    assert all(type(c) is int for c in (-ring.one() + x * ring.x()).invert().terms.values())


def test_sqrt_keeps_int_coefficients():
    ring = SeriesRing(20, ())
    root = (ring.one() - 4 * ring.x()).sqrt()
    assert all(type(c) is int for c in root.terms.values())
    # -2 times the Catalan numbers, shifted by one
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(20)]
    assert [root.coefficient(n, at={}) for n in range(1, 21)] == [-2 * c for c in catalan]


@pytest.mark.parametrize("c0", [2, Fraction(1, 3), Fraction(-5, 2)])
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
    twisted = geom.substitute("x", x * y * y)
    assert twisted.coefficient(3) == {(6,): 1}
    shifted = (ring.one() + x * y).substitute("y", y - ring.one())
    assert shifted == ring.one() - x + x * y


def test_substitute_for_x_needs_valuation():
    with pytest.raises(ValueError):
        RING.one().substitute("x", RING.one())


@settings(max_examples=40)
@given(small_series())
def test_t_shift_roundtrip(a):
    t = RING.var("t")
    assert a.substitute("t", t - RING.one()).substitute("t", t + RING.one()) == a


def test_solve_quadratic_catalan():
    ring = SeriesRing(8, ())
    f = solve_quadratic(ring.x(2), ring.const(-1), 1, 1)
    assert [f.coefficient(n, at={}) for n in range(9)] == [1, 0, 1, 0, 2, 0, 5, 0, 14]


def test_solve_quadratic_linear_case():
    ring = SeriesRing(5, ())
    f = solve_quadratic(ring.zero(), ring.const(-1) + ring.x(), ring.one(), 1)
    assert f == (ring.one() - ring.x()).invert()


def test_solve_quadratic_branch_mismatch():
    ring = SeriesRing(5, ())
    with pytest.raises(ValueError):
        solve_quadratic(ring.x(2), ring.const(-1), ring.one(), 7)


def test_fixed_point_geometric():
    ring = SeriesRing(7, ())
    f = fixed_point_solve(lambda g: ring.one() + ring.x() * g, ring)
    assert f == (ring.one() - ring.x()).invert()


def test_fixed_point_rejects_non_contraction():
    ring = SeriesRing(4, ())
    with pytest.raises(InvariantError):
        fixed_point_solve(lambda g: g + ring.one(), ring)


def test_continued_fraction_geometric():
    ring = SeriesRing(6, ())
    f = continued_fraction(lambda i: -ring.x(), lambda i: ring.zero(), ring)
    assert f == (ring.one() - ring.x()).invert()


def test_continued_fraction_depth_independent():
    ring = SeriesRing(9, ())
    b = lambda i: -ring.x()
    c = lambda i: ring.x(2)
    assert continued_fraction(b, c, ring) == continued_fraction(b, c, ring, depth=ring.order + 5)


def test_continued_fraction_rejects_constant_levels():
    ring = SeriesRing(4, ())
    with pytest.raises(ValueError):
        continued_fraction(lambda i: ring.one(), lambda i: ring.zero(), ring)


def test_monomial_substitute_laurent():
    ring = SeriesRing(4, ("z",))
    s = ring.one() + ring.monomial(1, 2, z=1) + ring.monomial(1, 2)
    out = monomial_substitute(s, ring, {"x": {"x": 1, "z": 1}, "z": {"z": -1}})
    assert out == ring.one() + ring.monomial(1, 2, z=1) + ring.monomial(1, 2, z=2)


def test_monomial_substitute_detects_negative_exponent():
    ring = SeriesRing(4, ("z",))
    s = ring.var("z", 2) * ring.x()
    with pytest.raises(InvariantError):
        monomial_substitute(s, ring, {"z": {"z": -1}})  # z^2 -> z^-2


def test_monomial_substitute_requires_x_power():
    ring = SeriesRing(4, ("z",))
    with pytest.raises(ValueError):
        monomial_substitute(ring.x(), ring, {"x": {"z": 1}})


def test_shift_var():
    ring = SeriesRing(4, ("z",))
    s = ring.var("z") + ring.var("z", 2)
    assert s.shift_var("z", -1) == ring.one() + ring.var("z")
    with pytest.raises(InvariantError):
        (ring.one() + ring.var("z")).shift_var("z", -1)


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
