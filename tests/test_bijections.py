import hashlib
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from motzkinperm import bijections
from motzkinperm.bijections import (
    CONSECUTIVE_OF_WINDOW,
    VINCULAR_123,
    VINCULAR_132,
    check_diagram,
    foata,
    foata_inverse,
    foata_of,
    history_to_perm,
    involution_to_path,
    motzkin_to_perm,
    path_to_involution,
    perm_to_history,
    transport_statistics,
    window_pattern_counts,
)
from motzkinperm.cli import main
from motzkinperm.paths import (
    LabeledMotzkinPath,
    MotzkinWord,
    enumerate_labeled,
    enumerate_motzkin,
    labeled_to_history,
    named_statistic,
    tunnels,
)
from motzkinperm.patterns import PatternSpec, avoids, enumerate_class, occurrences
from motzkinperm.permutations import (
    Permutation,
    asc_count,
    ascending_runs,
    enumerate_involutions,
    enumerate_permutations,
    identity,
    parse_cycles,
    standard_cycles,
)

SPEC_3412 = PatternSpec.parse("3412")


def restricted_involutions(n):
    return enumerate_class(n, (SPEC_3412,), base="involutions")


def test_history_worked_example():
    h = perm_to_history(Permutation.parse("826913547"))
    assert str(h) == "UUTUDTDHD | l=0,0,1,2,1,0,1,0,0"


def test_history_collisions_on_word_component():
    a = perm_to_history(Permutation.parse("3124"))
    b = perm_to_history(Permutation.parse("1243"))
    assert a.word == b.word == "UTHD"
    assert a != b


def test_history_of_identity():
    h = perm_to_history(identity(5))
    assert str(h.word) == "UTTTD"
    assert h.labels == (0,) * 5


def test_history_roundtrip():
    for n in range(9):
        for p in enumerate_permutations(n):
            assert history_to_perm(perm_to_history(p)) == p


@pytest.mark.parametrize("n", [50, 100, 200, 300])
def test_history_roundtrip_large(n):
    rng = random.Random(n)
    for _ in range(5):
        p = Permutation(rng.sample(range(1, n + 1), n))
        assert history_to_perm(perm_to_history(p)) == p


def test_foata_examples():
    assert str(foata(parse_cycles("(6)(5,8)(3)(2,7)(1,4)"))) == "6 5 8 3 2 7 1 4"
    assert str(foata(parse_cycles("(6)(4,8)(3,7)(2)(1,5)"))) == "6 4 8 3 7 2 1 5"
    assert foata(parse_cycles("(4)(3)(2)(1)")) == Permutation.parse("4321")


def test_foata_of_erases_the_standard_cycle_form():
    rng = random.Random(3)
    large = []
    for n in (50, 300):
        values = rng.sample(range(1, n + 1), n)
        word = list(range(1, n + 1))
        for a, b in zip(values[: n // 2 : 2], values[1 : n // 2 : 2]):
            word[a - 1], word[b - 1] = b, a
        large.append(Permutation(word))
    for n in range(9):
        for p in enumerate_involutions(n):
            assert foata_of(p) == foata(standard_cycles(p))
    for p in large:
        assert foata_of(p) == foata(standard_cycles(p))


def test_foata_rejects_bad_cycles():
    with pytest.raises(ValueError):
        foata(parse_cycles("(1,4)(2,7)(3)(5,8)(6)"))  # increasing least elements
    with pytest.raises(ValueError):
        foata(((1, 2, 3),))  # not an involution
    with pytest.raises(ValueError):
        foata_of(Permutation.parse("231"))


def test_foata_inverse_examples():
    cycles = foata_inverse(Permutation.parse("65832714"))
    assert cycles == parse_cycles("(6)(5,8)(3)(2,7)(1,4)")
    assert foata_inverse(Permutation.parse("1")) == ((1,),)


def test_foata_inverse_rejects_and_names_pattern():
    with pytest.raises(ValueError) as err:
        foata_inverse(Permutation.parse("1423"))
    assert "pattern" in str(err.value)


def test_foata_roundtrip_over_class():
    vincular = (PatternSpec.parse("1_32"), PatternSpec.parse("1_23"))
    for n in range(7):
        for p in enumerate_class(n, vincular):
            assert foata(foata_inverse(p)) == p


def test_path_worked_examples():
    from motzkinperm.permutations import cycles_to_permutation

    assert str(involution_to_path(Permutation.parse("65382174"))) == "UUHUD1D1HD0"
    invol = cycles_to_permutation(parse_cycles("(6)(4,8)(3,7)(2)(1,5)"))
    assert str(involution_to_path(invol)) == "UHUUD2HD1D0"
    assert str(involution_to_path(identity(4))) == "HHHH"


def test_path_roundtrip():
    for n in range(8):
        for m in enumerate_labeled(n):
            assert involution_to_path(path_to_involution(m)) == m
        for p in enumerate_involutions(n):
            assert path_to_involution(involution_to_path(p)) == p


def test_triangle_commutes():
    for n in range(7):
        for p in enumerate_involutions(n):
            assert labeled_to_history(involution_to_path(p)) == perm_to_history(foata_of(p))


def test_motzkin_to_perm_examples():
    assert str(motzkin_to_perm(MotzkinWord("UUUDDUHDDUD"))) == "10 11 7 6 8 3 4 2 5 1 9"
    assert motzkin_to_perm(MotzkinWord("HHHH")) == Permutation.parse("4321")
    assert motzkin_to_perm(MotzkinWord("UD")) == Permutation.parse("12")


def test_motzkin_to_perm_inverts_history():
    patterns = (PatternSpec.parse("132"), PatternSpec.parse("_123"))
    for n in range(9):
        for w in enumerate_motzkin(n):
            p = motzkin_to_perm(w)
            assert avoids(p, patterns[0]) and avoids(p, patterns[1])
            h = perm_to_history(p)
            assert str(h.word) == str(w)
            assert not any(h.labels)


def tunnel_route(w: MotzkinWord) -> list[int]:
    """The word of motzkin_to_perm(w) read off the tunnels, sorted by
    decreasing left endpoint, as runs (left+1, right) and (right)."""
    word = []
    for t in tunnels(w):
        word += (t.right,) if t.trivial else (t.left + 1, t.right)
    return word


def test_motzkin_to_perm_follows_the_tunnels():
    for n in range(13):
        for w in enumerate_motzkin(n):
            assert list(motzkin_to_perm(w)) == tunnel_route(w), w


def test_map_restricted_inverse_follows_the_tunnels(capsys):
    for steps in ("UUUDDUHDDUD", "H", "UHD", "HUUHDDH", "UUDHDUUHDDUD"):
        assert main(["map", "--via", "gamma-inv-restricted", steps]) == 0
        expected = Permutation(tunnel_route(MotzkinWord(steps)))
        assert capsys.readouterr().out.strip() == str(expected)


#: sha256 of the str forms, one a line, of Γ over S_0..S_8 and of Ψ over
#: the involutions of size 0..10, each size in enumeration order.  They pin
#: both maps: a changed step, label or printed form fails here.
GAMMA_DIGEST = "e0ab719b2cb86da64b404eb30477c4cd855d9492b9fc0d2ffbbf373cdb4e4186"
PSI_DIGEST = "a09364295ca4ea7ffd09406596ded2fd6f4d0f3f1ad3064a6574a614c56896b5"


def str_digest(objects) -> str:
    h = hashlib.sha256()
    for obj in objects:
        h.update(f"{obj}\n".encode())
    return h.hexdigest()


def test_gamma_and_psi_images_match_their_digests():
    assert str_digest(perm_to_history(p) for n in range(9) for p in enumerate_permutations(n)) == GAMMA_DIGEST
    assert str_digest(involution_to_path(p) for n in range(11) for p in enumerate_involutions(n)) == PSI_DIGEST


def test_window_table_is_total():
    assert len(CONSECUTIVE_OF_WINDOW) == 27
    assert set(CONSECUTIVE_OF_WINDOW) == {
        a + b + c for a in "UDH" for b in "UDH" for c in "UDH"
    }
    assert set(CONSECUTIVE_OF_WINDOW.values()) == {"123", "132", "213", "231", "312", "321"}


def test_window_counts_match_consecutive_occurrences():
    specs = {name: PatternSpec.consecutive(Permutation.parse(name)) for name in CONSECUTIVE_OF_WINDOW.values()}
    for n in range(8):
        for p in restricted_involutions(n):
            counts = window_pattern_counts(involution_to_path(p).word)
            for name, count in counts.items():
                assert count == occurrences(p, specs[name])


def test_transport_examples():
    record = transport_statistics(identity(5))
    assert record.direct["inv"] == 0 and record.direct["fix"] == 5
    record = transport_statistics(Permutation.parse("2143"))
    assert record.direct["inv"] == 2
    assert record.via_path["inv"] == 2


def test_transport_rejects_non_members():
    with pytest.raises(ValueError):
        transport_statistics(Permutation.parse("312"))  # not an involution
    with pytest.raises(ValueError):
        transport_statistics(Permutation.parse("3412"))  # contains 3412


def test_transport_exhaustive():
    for n in range(8):
        for p in restricted_involutions(n):
            record = transport_statistics(p)
            assert record.direct == record.via_path


def test_ascents_match_weak_valleys():
    for n in range(8):
        lhs = sorted(asc_count(p) for p in restricted_involutions(n))
        rhs = sorted(named_statistic(w, "weak_valleys") for w in enumerate_motzkin(n))
        assert lhs == rhs


def test_check_diagram_passes():
    for n in range(6):
        report = check_diagram(n)
        assert report.ok and not report.failures


def test_check_diagram_reports_injected_fault():
    # a corrupted path map must be caught by the triangle check
    def broken(p):
        m = involution_to_path(p)
        if m.n == 4 and m.word == "UDUD":
            return LabeledMotzkinPath(MotzkinWord("UUDD"), (1, 0))
        return m

    report = check_diagram(4, path_map=broken)
    assert not report.ok
    assert any("commute" in f or "zero-label" in f for f in report.failures)


def test_check_diagram_names_least_permutation_off_the_class():
    # UUD0D0 is the path of 4321; sent from 3412 it puts 3412 among the
    # zero-labeled involutions, which the 3412-avoiding class lacks
    def broken(p):
        if p == Permutation.parse("3412"):
            return LabeledMotzkinPath.parse("UUD0D0")
        return involution_to_path(p)

    report = check_diagram(4, path_map=broken)
    assert "3412 / zero-label characterization fails for 3 4 1 2" in report.failures


def test_check_diagram_runs_no_matcher_per_permutation(monkeypatch):
    def refuse(p, t):
        raise AssertionError(f"matcher called on {p}")

    monkeypatch.setattr(bijections, "avoids", refuse)
    report = check_diagram(6)
    assert report.ok and report.checked == 720 + 76


ROLE_HEAD = "head"
ROLE_TAIL = "tail"
ROLE_HEAD_TAIL = "head-tail"
ROLE_BOARDER = "boarder"


@dataclass(frozen=True)
class RunAnatomy:
    """Decomposition into maximal increasing factors plus per-position roles.

    A run of length 1 contributes a single head-tail; a longer run
    contributes a head, a tail, and boarders in between.
    """

    runs: tuple[tuple[int, ...], ...]
    roles: tuple[str, ...]


def run_anatomy(p: Permutation) -> RunAnatomy:
    runs = ascending_runs(p)
    roles: list[str] = []
    for run in runs:
        if len(run) == 1:
            roles.append(ROLE_HEAD_TAIL)
        else:
            roles.append(ROLE_HEAD)
            roles.extend([ROLE_BOARDER] * (len(run) - 2))
            roles.append(ROLE_TAIL)
    return RunAnatomy(runs, tuple(roles))


def test_run_anatomy_examples():
    assert ascending_runs(Permutation.parse("346512")) == ((3, 4, 6), (5,), (1, 2))
    assert ascending_runs(Permutation.parse("826913547")) == ((8,), (2, 6, 9), (1, 3, 5), (4, 7))
    anatomy = run_anatomy(identity(5))
    assert anatomy.runs == ((1, 2, 3, 4, 5),)
    assert anatomy.roles == ("head", "boarder", "boarder", "boarder", "tail")


@given(st.integers(min_value=0, max_value=7).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
def test_run_roles_counts(word):
    p = Permutation(word)
    anatomy = run_anatomy(p)
    long_runs = sum(1 for r in anatomy.runs if len(r) >= 2)
    singletons = sum(1 for r in anatomy.runs if len(r) == 1)
    assert anatomy.roles.count("head") == long_runs
    assert anatomy.roles.count("tail") == long_runs
    assert anatomy.roles.count("head-tail") == singletons
    assert sum(len(r) for r in anatomy.runs) == len(p)


ROLE_STEP = {ROLE_HEAD: "U", ROLE_TAIL: "D", ROLE_HEAD_TAIL: "H", ROLE_BOARDER: "T"}


def brute_force_history(p):
    """Steps from the run roles; the label of i counts, pair by pair, the
    runs (s, t) with s < i < t whose tail t precedes i in the word."""
    anatomy = run_anatomy(p)
    pos = {v: i for i, v in enumerate(p)}
    steps = "".join(ROLE_STEP[anatomy.roles[pos[v]]] for v in range(1, len(p) + 1))
    bounds = [(run[0], run[-1]) for run in anatomy.runs]
    labels = tuple(
        sum(1 for s, t in bounds if s < i < t and pos[t] < pos[i]) for i in range(1, len(p) + 1)
    )
    return steps, labels


def brute_force_path_labels(p):
    """The label of each closer i of (j, i) counts, pair by pair, the
    cycles (x, y) with j < x < i < y."""
    pairs = [(j, i) for i, j in enumerate(p, start=1) if j < i]
    return tuple(sum(1 for x, y in pairs if j < x < i < y) for j, i in sorted(pairs, key=lambda c: c[1]))


perms_to_60 = st.integers(min_value=0, max_value=60).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def pair_up(order, cycles):
    """The involution whose 2-cycles pair the first 2 * cycles entries of
    ``order`` two by two."""
    word = list(range(1, len(order) + 1))
    for a in range(cycles):
        i, j = order[2 * a], order[2 * a + 1]
        word[i - 1], word[j - 1] = j, i
    return Permutation(word)


@st.composite
def involutions_to_60(draw):
    order = draw(perms_to_60)
    return pair_up(order, draw(st.integers(min_value=0, max_value=len(order) // 2)))


@given(perms_to_60)
def test_history_matches_brute_force(word):
    p = Permutation(word)
    h = perm_to_history(p)
    assert (str(h.word), h.labels) == brute_force_history(p)


@given(involutions_to_60())
def test_path_matches_brute_force(p):
    m = involution_to_path(p)
    assert m.labels == brute_force_path_labels(p)
    assert str(m.word) == "".join("H" if j == i else "U" if j > i else "D" for i, j in enumerate(p, 1))


def test_foata_inverse_domain_exhaustive():
    for n in range(9):
        for p in enumerate_permutations(n):
            has_132 = not avoids(p, VINCULAR_132)
            in_class = not has_132 and avoids(p, VINCULAR_123)
            try:
                foata_inverse(p)
            except ValueError as err:
                assert not in_class, p
                assert str(err) == f"{p} contains the vincular pattern {'1_32' if has_132 else '1_23'}"
            else:
                assert in_class, p


def test_roundtrips_at_large_size():
    rng = random.Random(2000)
    word = list(range(1, 2001))
    for _ in range(3):
        rng.shuffle(word)
        p = Permutation(word)
        assert history_to_perm(perm_to_history(p)) == p
        q = pair_up(rng.sample(word, len(word)), rng.randrange(1001))
        assert path_to_involution(involution_to_path(q)) == q
