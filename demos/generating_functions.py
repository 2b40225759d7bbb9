"""The exact generating functions, expanded and cross-checked.

Run with: python demos/generating_functions.py
"""

from motzkinperm import (
    coinv_des_gf,
    distribution_oracle,
    f123_inv,
    f213_perm,
    inv_des_fix_gf,
    weak_valley_gf,
)

N = 8

print("Joint (inv, des, fix) series over 3412-avoiding involutions")
print("(y marks inv, z marks des, w marks fix):")
F = inv_des_fix_gf(N)
for n in range(5):
    print(f"  [n={n}] {F.format_coefficient(n)}")
print()

print("It is the fixed point of the first-return recurrence, and it")
oracle = distribution_oracle("I(3412)", ("inv", "des", "fix"), 6)
print("matches the n=6 oracle table:", F.coefficient(6) == oracle.counts)
print()

print("Setting y = z = w = 1 recovers the Motzkin numbers:")
print(" ", [F.coefficient(n, at={"y": 1, "z": 1, "w": 1}) for n in range(N + 1)])
print()

print("Weak valleys over Motzkin paths (the root of a first-return")
print("quadratic; z marks weak valleys):")
G = weak_valley_gf(6)
for n in range(7):
    print(f"  [n={n}] {G.format_coefficient(n)}")
print()

print("Occurrences of consecutive 123 in the involution class (t marks")
print("occurrences, z marks fixed points):")
f = f123_inv(6)
for n in range(7):
    print(f"  [n={n}] {f.format_coefficient(n)}")
oracle = distribution_oracle("I(3412)", ("occ:_123", "fix"), 6)
print("  matches the n=6 oracle table:", f.coefficient(6) == oracle.counts)
print()

print("Coinversions and descents over the class avoiding 132 and")
print("consecutive 123 (y marks coinv, z marks des).  The y=1 marginal is")
print("the tunnel-count distribution (OEIS A107131), the z=1 marginal the")
print("area distribution (OEIS A129181):")
F2 = coinv_des_gf(6)
for n in range(5):
    print(f"  [n={n}] {F2.format_coefficient(n)}")
print()

print("Consecutive 213 over the same class = long tunnels of Motzkin paths:")
f = f213_perm(7)
for n in range(8):
    print(f"  [n={n}] {f.format_coefficient(n)}")
