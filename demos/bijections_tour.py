"""A tour of the three correspondences, on the worked examples.

Run with: python demos/bijections_tour.py
"""

from motzkinperm import (
    MotzkinWord,
    Permutation,
    ascending_runs,
    foata_inverse,
    foata_of,
    format_cycles,
    history_to_perm,
    involution_to_path,
    motzkin_to_perm,
    path_to_involution,
    perm_to_history,
    standard_cycles,
    tunnels,
)

print("=" * 72)
print("1. Any permutation -> Laguerre history (run roles + crossing labels)")
print("=" * 72)
p = Permutation.parse("826913547")
print(f"permutation      {p}")
print(f"ascending runs   {ascending_runs(p)}")
h = perm_to_history(p)
print(f"history          {h}")
print(f"round trip       {history_to_perm(h)}")
print()
print("The step at index i is the role of the VALUE i: head -> U, tail -> D,")
print("one-letter run -> H, interior letter -> T (second horizontal color).")
print("Label i counts runs straddling i whose tail occurs before i.")
print()

print("Two permutations can share the step word; the labels separate them:")
for text in ("3124", "1243"):
    print(f"  {text} -> {perm_to_history(Permutation.parse(text))}")
print()

print("=" * 72)
print("2. Involutions -> the vincular class (erase cycle parentheses)")
print("=" * 72)
invol = Permutation.parse("47318625")
print(f"involution       {invol}")
print(f"standard cycles  {format_cycles(standard_cycles(invol))}")
image = foata_of(invol)
print(f"erased           {image}")
print(f"cut at minima    {format_cycles(foata_inverse(image))}")
print()

print("=" * 72)
print("3. Involutions -> labeled Motzkin paths")
print("=" * 72)
invol = Permutation.parse("65382174")
m = involution_to_path(invol)
print(f"involution       {invol}")
print(f"labeled path     {m}")
print(f"round trip       {path_to_involution(m)}")
print()
print("Fixed point -> H, opener of a 2-cycle -> U, closer -> D labeled with")
print("the number of cycles crossing it.  The triangle commutes: this path,")
print("read as a history, equals the history of the erased cycle form.")
print()

print("=" * 72)
print("4. Motzkin words -> permutations avoiding 132 and consecutive 123")
print("=" * 72)
w = MotzkinWord("UUUDDUHDDUD")
print(f"word             {w}")
print(f"tunnels          {[(t.left, t.right) for t in tunnels(w)]}")
print(f"permutation      {motzkin_to_perm(w)}")
print()
print("Each tunnel (a, b), in decreasing order of a, becomes the ascending")
print("run (a+1, b); trivial tunnels (the H steps) become one-letter runs.")
