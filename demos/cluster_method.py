"""Counting Motzkin words by factor occurrences with the cluster engine.

Run with: python demos/cluster_method.py
"""

from motzkinperm import (
    ClusterSpec,
    cluster_count_gf,
    cluster_gfs,
    enumerate_motzkin,
    f123_inv,
    subword_count,
)
from motzkinperm.genfun import CLUSTER_123, CLUSTER_132


def census(words, n):
    counts = {}
    for w in enumerate_motzkin(n):
        key = (sum(subword_count(w, v) for v in words), w.count("H"))
        counts[key] = counts.get(key, 0) + 1
    return counts


print("A cluster is a word covered by a chain of overlapping marked")
print("occurrences of the factor set.  The engine grows the clusters one")
print("mark at a time as Goulden-Jackson overlap chains: a mark on v follows")
print("a mark on u when a proper suffix of u is a proper prefix of v.  It")
print("then counts paths whose steps are the letters U, D, H and the")
print("clusters, a cluster with k marks weighing (t-1)^k, by a dynamic")
print("program over length and height.")
print()

print(f"Factor set {CLUSTER_123.words} (consecutive 123 over involutions):")
print("cluster table up to length 6 (length, net height change, least height,")
print("marks, H count: number of clusters):")
for key, count in sorted(cluster_gfs(CLUSTER_123, 6).items()):
    print(f"  {key}: {count}")
print()

series = cluster_count_gf(CLUSTER_123, 7)
print("Motzkin words by length, occurrences (t), and H steps (z):")
for n in range(8):
    print(f"  [n={n}] {series.format_coefficient(n)}")
print()
print("equals the closed-form pattern series:", series == f123_inv(7))
print()

print(f"Factor set {CLUSTER_132.words}: no two factors overlap, so the only")
print("clusters are the two factors themselves:")
for key, count in sorted(cluster_gfs(CLUSTER_132, 7).items()):
    print(f"  {key}: {count}")
print()

print("Any factor set with no word a proper factor of another works, also")
print("when its clusters climb by several steps.  Census check for {UU}:")
spec = ClusterSpec(("UU",))
series = cluster_count_gf(spec, 6)
for n in range(7):
    print(f"  [n={n}] {series.format_coefficient(n)}")
ok = all(series.coefficient(n) == census(spec.words, n) for n in range(7))
print("  engine equals brute-force census for n <= 6:", ok)
