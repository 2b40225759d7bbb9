"""Objects the library builds without re-validating them equal the objects
the validating constructors build from the same parts, and only named
builders may skip validation."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import motzkinperm
from motzkinperm.bijections import (
    foata_of,
    history_to_perm,
    involution_to_path,
    path_to_involution,
    perm_to_history,
)
from motzkinperm.paths import (
    BicoloredMotzkinWord,
    LabeledMotzkinPath,
    LaguerreHistory,
    MotzkinWord,
    enumerate_histories,
    enumerate_labeled,
    labeled_to_history,
)
from motzkinperm.patterns import PatternSpec, enumerate_class
from motzkinperm.permutations import Permutation, enumerate_involutions, enumerate_permutations

WORD_TYPE = {LaguerreHistory: BicoloredMotzkinWord, LabeledMotzkinPath: MotzkinWord}


def assert_validated(obj):
    """``obj`` equals, with an equal hash, what the public constructor
    builds from its parts, and its fields have the exact types that
    constructor gives them."""
    if type(obj) is Permutation:
        rebuilt = Permutation(list(obj))
    else:
        assert type(obj.word) is WORD_TYPE[type(obj)]
        assert type(obj.labels) is tuple
        rebuilt = type(obj)(str(obj.word), list(obj.labels))
    assert obj == rebuilt and hash(obj) == hash(rebuilt)


@pytest.mark.parametrize("n", range(8))
def test_enumerated_objects_equal_validated_ones(n):
    for h in enumerate_histories(n):
        assert_validated(h)
    for m in enumerate_labeled(n):
        assert_validated(m)
        assert_validated(labeled_to_history(m))
    for p in enumerate_permutations(n):
        assert_validated(p)
    for p in enumerate_involutions(n):
        assert_validated(p)


perms = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


@st.composite
def involutions(draw):
    """The involution pairing the first 2k entries of a random order."""
    order = draw(perms)
    word = list(range(1, len(order) + 1))
    for a in range(draw(st.integers(min_value=0, max_value=len(order) // 2))):
        i, j = order[2 * a], order[2 * a + 1]
        word[i - 1], word[j - 1] = j, i
    return Permutation(word)


@given(perms, involutions())
def test_maps_build_validated_objects(word, involution):
    history = perm_to_history(Permutation(word))
    assert_validated(history)
    assert_validated(history_to_perm(LaguerreHistory.parse(str(history))))
    path = involution_to_path(involution)
    assert_validated(path)
    assert_validated(path_to_involution(LabeledMotzkinPath.parse(str(path))))
    assert_validated(foata_of(involution))


CLASS_SPECS = [PatternSpec.parse(t) for t in ("132", "_123", "1_32", "1_23", "3412", "2_13")]


# n = 7 walks up to 5040 members, longer than Hypothesis's 200 ms deadline
@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=7),
    st.lists(st.sampled_from(CLASS_SPECS), max_size=2),
    st.sampled_from(["all", "involutions"]),
)
def test_class_members_equal_validated_ones(n, specs, base):
    for p in enumerate_class(n, specs, base):
        assert_validated(p)


#: Who may call each ``_trusted`` constructor, as (class, module.function).
#: Each builds its object from parts it has already proved valid.  No
#: ``parse``, no ``from_json_dict`` and nothing in ``cli`` belongs here:
#: outside input goes through the validating constructors.
TRUSTED_BUILDERS = {
    ("Permutation", "permutations.enumerate_permutations"),
    ("Permutation", "permutations._walk"),
    ("Permutation", "bijections.history_to_perm"),
    ("Permutation", "bijections.path_to_involution"),
    ("Permutation", "bijections.foata_of"),
    ("LaguerreHistory", "bijections.perm_to_history"),
    ("LaguerreHistory", "paths.labeled_to_history"),
    ("LaguerreHistory", "paths.enumerate_histories"),
    ("LabeledMotzkinPath", "bijections.involution_to_path"),
    ("LabeledMotzkinPath", "paths.enumerate_labeled"),
}
CHECKED_CLASSES = {owner for owner, _ in TRUSTED_BUILDERS}


def trusted_uses(extra_modules: dict[str, str] | None = None):
    """(owner, scope) of every ``X._trusted`` in the package and in
    ``extra_modules`` (module name to source), and of every ``__new__``
    call that builds one of CHECKED_CLASSES by name, which skips its
    checks as well.  Scope is module.function, or module.Class.method for
    a method."""
    uses = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Attribute) and child.attr == "_trusted":
                uses.add((ast.unparse(child.value), scope))
            if isinstance(child, ast.Constant) and child.value == "_trusted":
                uses.add(("getattr", scope))
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "__new__"
                and child.args
                and ast.unparse(child.args[0]) in CHECKED_CLASSES
            ):
                uses.add((f"{ast.unparse(child.func)}({ast.unparse(child.args[0])})", scope))
            visit(child, inner)

    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(Path(motzkinperm.__file__).parent.glob("*.py"))}
    for module, source in {**sources, **(extra_modules or {})}.items():
        visit(ast.parse(source), module)
    return uses


def test_only_named_builders_skip_validation():
    for _, scope in TRUSTED_BUILDERS:
        assert not scope.startswith("cli.")
        assert not scope.endswith((".parse", ".from_json_dict"))
    assert trusted_uses() == TRUSTED_BUILDERS


def test_labeled_records_share_one_trusted_builder():
    assert LabeledMotzkinPath._trusted.__func__ is LaguerreHistory._trusted.__func__


@pytest.mark.parametrize("call", [
    "LaguerreHistory._trusted(w, l)",
    "LabeledMotzkinPath._trusted(w, l)",
    "_LabeledWord._trusted(w, l)",
    "type(h)._trusted(w, l)",
    "getattr(LaguerreHistory, '_trusted')(w, l)",
    "object.__new__(LaguerreHistory)",
])
def test_a_builder_outside_the_allow_list_is_caught(call):
    # every route to a record's _trusted counts, the shared base's included
    uses = trusted_uses({"outside": f"def show(h, w, l):\n    return {call}\n"})
    assert {scope for _, scope in uses - TRUSTED_BUILDERS} == {"outside.show"}
