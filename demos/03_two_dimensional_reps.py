"""Characters and upper-triangular two-dimensional representations.

A character lives at one vertex and pairs degree-1 elements against a vector
in the closed unit ball of the loop space there.  A two-dimensional
representation couples two vertices through a corner vector gamma; it is
contractive exactly when ||gamma||^2 <= 1 - ||lam_i||^2, and the norms of its
compressed k-fold maps follow a closed form that we cross-check against a
per-vertex recursion of the 2x2 Gram matrix T~_k T~_k*.
"""

import numpy as np

from quiveralg import (
    Character,
    CorrespondenceElement,
    PathPolynomial,
    Quiver,
    TwoDimRep,
    char_eval,
    membership_G,
    parse_polynomial,
    purity_bound,
    rho_eval,
    t_tilde_k_norm_closed,
    t_tilde_k_norm_direct,
    t_tilde_product,
)

q = Quiver([[2, 1], [0, 1]])  # two loops at vertex 1, a bridge 2 -> 1, a loop at 2

c = Character(q, 0, [0.5, 0.0])
p = parse_polynomial(q, "v1 + 3*1<1:1 + 1<1:1*1<1:2")
print("character at vertex 1 with lam = (1/2, 0):")
print("  value on", p, "=", char_eval(c, p))
print("  multiplicative:", char_eval(c, p * p) == char_eval(c, p) ** 2)

rep = TwoDimRep(q, 0, 1, lam_i=[0.6, 0.0], lam_j=[0.3], gamma=[0.5])
print("\ntwo-dimensional representation with lam_i=(0.6,0), lam_j=(0.3), gamma=(0.5):")
print("  on the bridge arrow:")
print(rho_eval(rep, parse_polynomial(q, "1<2:1")))
print("  T~ T~* =")
print(t_tilde_product(rep).real)

print("\nnorm recursion (closed form vs Gram recursion) and decay bound:")
print("   k   closed        direct        bound")
for k in range(1, 7):
    closed = t_tilde_k_norm_closed(rep, k)
    direct = t_tilde_k_norm_direct(rep, k)
    bound = purity_bound(rep, k)
    print(f"   {k}   {closed:.10f}  {direct:.10f}  {bound:.10f}")

print("\ncontractivity classification:")
print("  (||lam_i||, ||gamma||) = (0.6, 0.8)  ->", membership_G(q, 0, 1, [0.6, 0], [0.0], [0.8]))
print("  (||lam_i||, ||gamma||) = (0.8, 0.8)  ->", membership_G(q, 0, 1, [0.8, 0], [0.0], [0.8]))

# the saturating witness element lands exactly on the unit sphere
boundary = TwoDimRep(q, 0, 1, lam_i=[0.6, 0.0], lam_j=[0.0], gamma=[0.8])
xi = (
    CorrespondenceElement.zeros(q)
    .with_block(0, 0, np.array([1.0, 0.0]))
    .with_block(0, 1, np.array([1.0]))
)
m = rho_eval(boundary, PathPolynomial.from_correspondence(xi))
print("\nwitness matrix at the boundary:")
print(m.real)
print("its norm:", np.linalg.norm(m, 2))
