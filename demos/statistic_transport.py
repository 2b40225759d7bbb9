"""How permutation statistics become path statistics.

Run with: python demos/statistic_transport.py
"""

from motzkinperm import (
    CONSECUTIVE_OF_WINDOW,
    Permutation,
    area,
    distribution_oracle,
    involution_to_path,
    transport_statistics,
    tunnels,
)

print("For a 3412-avoiding involution with path m:")
print("  inv = 2 * area(m) - (number of non-trivial tunnels)")
print("  des = number of factors among UU, DD, UH, HD, UD")
print("  asc = number of factors among HH, HU, DH, DU (the weak valleys)")
print("  fix = number of H steps")
print("(each is one row of the table bijections.TRANSPORTS)")
print()

for text in ("2143", "54321687", "1234"):
    p = Permutation.parse(text)
    m = involution_to_path(p)
    record = transport_statistics(p)
    nontrivial = sum(1 for t in tunnels(m.word) if not t.trivial)
    shown = {name: record.direct[name] for name in ("inv", "des", "asc", "fix")}
    print(f"{str(p):24} path {str(m):14} area {area(m.word):2}  "
          f"tunnels {nontrivial}  ->  {shown}")
print()

print("Each three-step window of the path realizes one consecutive pattern")
print("of the involution.  The full window table:")
for a in "HUD":
    row = "   ".join(f"{a}{b}{c} -> {CONSECUTIVE_OF_WINDOW[a + b + c]}" for b in "HUD" for c in "HUD")
    print(f"  {row}")
print()

print("Joint (inv, des, fix) distribution over the class at n = 4:")
table = distribution_oracle("I(3412)", ("inv", "des", "fix"), 4)
for key, count in table.rows():
    print(f"  inv={key[0]} des={key[1]} fix={key[2]}  count {count}")
print(f"  total {table.total()} (the Motzkin number M_4 = 9)")
print()

print("Over the class avoiding 132 and consecutive 123, coinversions become")
print("area and descents become tunnels minus one:")
table = distribution_oracle("S(132,_123)", ("coinv", "des"), 5)
for key, count in table.rows():
    print(f"  coinv={key[0]} des={key[1]}  count {count}")
print(f"  total {table.total()} (M_5 = 21)")
