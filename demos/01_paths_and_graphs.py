"""Quivers, their paths, and brute-force graph matching.

A quiver is a directed multigraph encoded by a multiplicity matrix: c[i][j]
counts the arrows from vertex j to vertex i.  Paths compose right to left
("p after r"), and the number of length-k paths is the entry sum of the k-th
matrix power.
"""

import numpy as np

from quiveralg import (
    Arrow,
    Quiver,
    apply_permutation,
    are_isomorphic,
    arrow_path,
    compose,
    enumerate_paths,
    format_path,
)

q = Quiver([[1, 2], [0, 1]])
print("multiplicity matrix:")
print(q.matrix())
print(f"{q.n} vertices, {q.total_arrows()} arrows")

print("\npaths of length <= 2, in canonical order:")
for p in enumerate_paths(q, 2):
    print(f"  {format_path(p):18s} {p.source + 1} -> {p.target + 1} (length {p.length})")

print("\npath counts vs. matrix powers:")
lengths = [p.length for p in enumerate_paths(q, 4)]
for k in range(5):
    count = lengths.count(k)
    power = int(np.linalg.matrix_power(q.matrix(), k).sum())
    print(f"  k={k}: {count} paths, entry sum of C^{k} = {power}")

loop = arrow_path(Arrow(0, 0, 0))     # the loop at vertex 1
bridge = arrow_path(Arrow(1, 0, 0))   # the first arrow 2 -> 1
print(f"\ncompose({format_path(loop)}, {format_path(bridge)}) =",
      format_path(compose(loop, bridge)))
print(f"compose({format_path(bridge)}, {format_path(loop)}) =",
      compose(bridge, loop))  # endpoints do not match: the product is zero

swapped = apply_permutation(q, (1, 0))
print("\nafter swapping the vertex labels:")
print(swapped.matrix())
witness = are_isomorphic(q, swapped)
print("isomorphism witness (0-based):", witness)

print("\nloop counts differ, so no witness exists:")
print("  are_isomorphic([[2]], [[3]]) =", are_isomorphic(Quiver([[2]]), Quiver([[3]])))
