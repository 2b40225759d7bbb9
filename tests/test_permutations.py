import inspect
import math

import pytest
from hypothesis import given, strategies as st

from motzkinperm import checks, genfun, paths, patterns, permutations, series
from motzkinperm.errors import BoundExceededError
from motzkinperm.permutations import (
    ENUMERATION_BOUND,
    Permutation,
    coinv_count,
    cycles_to_permutation,
    des_count,
    enumerate_involutions,
    enumerate_permutations,
    fix_count,
    format_cycles,
    identity,
    inv_count,
    involution_number,
    is_involution,
    parse_cycles,
    reverse_complement,
    standard_cycles,
    validate_standard_cycles,
)

perms = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_parse_and_str():
    p = Permutation.parse("8 2 6 9 1 3 5 4 7")
    assert str(p) == "8 2 6 9 1 3 5 4 7"
    assert Permutation.parse("826913547") == p
    assert Permutation.parse("") == Permutation(())


def test_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation.parse("abc")


def test_inv_count():
    assert inv_count(Permutation.parse("123")) == 0
    assert inv_count(Permutation.parse("21")) == 1
    p = Permutation.parse("65832714")
    assert inv_count(p) + coinv_count(p) == math.comb(8, 2)


def test_coinv_count():
    assert coinv_count(Permutation.parse("123")) == 3
    assert coinv_count(Permutation.parse("321")) == 0


def test_inv_and_coinv_match_pair_counts():
    for n in range(8):
        for p in enumerate_permutations(n):
            pairs = [(p[i], p[j]) for i in range(n) for j in range(i + 1, n)]
            assert inv_count(p) == sum(1 for a, b in pairs if a > b)
            assert coinv_count(p) == sum(1 for a, b in pairs if a < b)


@given(perms)
def test_inv_plus_coinv(word):
    p = Permutation(word)
    assert inv_count(p) + coinv_count(p) == math.comb(len(p), 2)


def test_des_count():
    assert des_count(Permutation.parse("1234")) == 0
    assert des_count(Permutation.parse("4321")) == 3
    assert des_count(Permutation.parse("826913547")) == 3


def test_fix_count():
    assert fix_count(identity(5)) == 5
    assert fix_count(Permutation.parse("21")) == 0
    assert fix_count(Permutation.parse("65382174")) == 2


def test_reverse_complement():
    assert reverse_complement(Permutation.parse("1")) == Permutation.parse("1")
    assert reverse_complement(Permutation.parse("123")) == Permutation.parse("123")


@given(perms)
def test_reverse_complement_involutive(word):
    p = Permutation(word)
    assert reverse_complement(reverse_complement(p)) == p


def test_reverse_complement_preserves_fix_on_involutions():
    for n in range(9):
        for p in enumerate_involutions(n):
            q = reverse_complement(p)
            assert is_involution(q)
            assert fix_count(q) == fix_count(p)


def test_is_involution():
    assert is_involution(Permutation.parse("123"))
    assert not is_involution(Permutation.parse("231"))
    assert is_involution(Permutation.parse("47318625"))


def test_standard_cycles_examples():
    assert format_cycles(standard_cycles(Permutation.parse("47318625"))) == "(6)(5,8)(3)(2,7)(1,4)"
    assert format_cycles(standard_cycles(Permutation.parse("65382174"))) == "(7)(4,8)(3)(2,5)(1,6)"
    assert format_cycles(standard_cycles(identity(3))) == "(3)(2)(1)"


def test_cycles_roundtrip_on_involutions():
    for n in range(9):
        for p in enumerate_involutions(n):
            cycles = standard_cycles(p)
            validate_standard_cycles(cycles)
            assert cycles_to_permutation(cycles) == p


def test_parse_cycles_roundtrip():
    text = "(6)(5,8)(3)(2,7)(1,4)"
    assert format_cycles(parse_cycles(text)) == text
    assert parse_cycles("") == ()


def test_validate_standard_cycles_rejects():
    with pytest.raises(ValueError):
        validate_standard_cycles(((2, 1),))  # not least-first
    with pytest.raises(ValueError):
        validate_standard_cycles(((1, 2), (3,)))  # increasing leasts
    with pytest.raises(ValueError):
        validate_standard_cycles(((1, 3),))  # not a partition of 1..n


def test_enumeration_counts():
    assert list(enumerate_permutations(0)) == [Permutation(())]
    assert sum(1 for _ in enumerate_permutations(4)) == 24
    assert sum(1 for _ in enumerate_involutions(4)) == 10
    assert [involution_number(n) for n in range(9)] == [1, 1, 2, 4, 10, 26, 76, 232, 764]


def test_enumerate_involutions_lists_the_involutions_of_s_n_in_order():
    for n in range(9):
        expected = [p for p in enumerate_permutations(n) if is_involution(p)]
        assert list(enumerate_involutions(n)) == expected


#: Every enumerator; the wrappers rely on the refusals of the one they call.
ENUMERATORS = (
    enumerate_permutations,
    enumerate_involutions,
    lambda n: patterns.enumerate_class(n, ()),
    lambda n: patterns.enumerate_class(n, (), base="involutions"),
    paths.enumerate_motzkin,
    paths.enumerate_bicolored,
    paths.enumerate_labeled,
    paths.enumerate_histories,
    lambda n: genfun.ClassSpec.parse("I(3412)").members(n),
)


def test_enumeration_bound_refusal():
    # every enumerator starts at the one ceiling and refuses one past it
    for enumerate_ in ENUMERATORS:
        assert next(enumerate_(ENUMERATION_BOUND)) is not None
        with pytest.raises(BoundExceededError):
            next(enumerate_(ENUMERATION_BOUND + 1))


def test_walk_budget_counts_prefixes(monkeypatch):
    # S_4 has 4 + 12 + 24 + 24 = 64 nonempty prefixes, I_5 has 5 + 14 + 22
    # + 26 + 26 = 93 (the forced letters count too)
    monkeypatch.setattr(permutations, "WALK_BUDGET", 64)
    assert sum(1 for _ in patterns.enumerate_class(4, ())) == 24
    monkeypatch.setattr(permutations, "WALK_BUDGET", 63)
    with pytest.raises(BoundExceededError, match="class enumeration at n=4 refused: "
                       "exceeds the bound 63 prefixes"):
        list(patterns.enumerate_class(4, ()))
    monkeypatch.setattr(permutations, "WALK_BUDGET", 93)
    assert sum(1 for _ in enumerate_involutions(5)) == 26
    monkeypatch.setattr(permutations, "WALK_BUDGET", 92)
    with pytest.raises(BoundExceededError, match="involution enumeration at n=5"):
        list(enumerate_involutions(5))
    # a pruned walk counts the prefixes it tests, dead ones included: each
    # depth tries every free value, 4 + 3 + 2 + 1, and only the largest lives
    spec = patterns.PatternSpec.parse("12")
    monkeypatch.setattr(permutations, "WALK_BUDGET", 10)
    assert list(patterns.enumerate_class(4, [spec])) == [Permutation([4, 3, 2, 1])]
    monkeypatch.setattr(permutations, "WALK_BUDGET", 9)
    with pytest.raises(BoundExceededError):
        list(patterns.enumerate_class(4, [spec]))


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_sizes_are_refused(n):
    # every enumerator, count and suite with an nmax refuses with one message
    calls = [lambda e=e: next(e(n)) for e in ENUMERATORS] + [
        lambda: involution_number(n),
        lambda: paths.motzkin_number(n),
        lambda: paths.catalan_number(n),
        lambda: genfun.distribution_oracle("S()", ("inv",), n),
    ]
    calls += [lambda r=r: r(nmax=n) for r, defaults in checks.SUITES.values() if "nmax" in defaults]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError and str(err.value) == f"n must be non-negative, got {n}"


def test_no_ceiling_or_solver_knobs():
    enumerators = [
        enumerate_permutations,
        enumerate_involutions,
        patterns.enumerate_class,
        paths.enumerate_motzkin,
        paths.enumerate_bicolored,
        paths.enumerate_labeled,
        paths.enumerate_histories,
        genfun.ClassSpec.members,
        genfun.distribution_oracle,
    ]
    for fn in enumerators:
        assert "bound" not in inspect.signature(fn).parameters, fn.__qualname__
    assert "seed" not in inspect.signature(series.fixed_point_solve).parameters
    assert "depth" not in inspect.signature(series.continued_fraction).parameters
