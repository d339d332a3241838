"""Truncated shift operators on the path basis.

Every block vector over the quiver acts on the depth-truncated path space by
prepending one more arrow at the target end.  On the sub-block where the
truncation is invisible these shifts satisfy the defining relation

    T_xi* T_eta = diagonal action of <xi, eta>,

and the loops at a fixed vertex compress to orthogonal-range isometries on
the corner of paths ending there.
"""

import numpy as np

from quiveralg import (
    CorrespondenceElement,
    FockSpace,
    PathPolynomial,
    Quiver,
    check_isometric_covariance,
    corner_shift_report,
    creation_operator,
    element_norm,
    evaluate_polynomial,
    operator_norm,
    parse_polynomial,
)

q = Quiver([[1, 2], [0, 1]])
space = FockSpace(q, depth=4)
print(f"{space}: basis paths grouped by length:",
      [int(np.sum(space.lengths == k)) for k in range(5)])

rng = np.random.default_rng(0)
xi = CorrespondenceElement.random(q, rng)
eta = CorrespondenceElement.random(q, rng)

t = creation_operator(space, xi)
print(f"\n||xi|| = {element_norm(xi):.12f}")
print(f"||T_xi|| = {operator_norm(t):.12f}   (the shift attains the module norm)")

dev = check_isometric_covariance(space, xi, eta)
print(f"covariance deviation on the untruncated block: {dev:.3e}")

print("\ncorner shifts at each vertex with loops:")
for v in q.vertices():
    if q.count(v, v):
        report = corner_shift_report(space, v)
        print(
            f"  vertex {v + 1}: {report.loop_count} loop(s), "
            f"isometry dev {report.isometry_deviation}, "
            f"orthogonality dev {report.orthogonality_deviation}, "
            f"range deficiency {report.range_deficiency}"
        )

# path polynomials evaluate to operator products
p = parse_polynomial(q, "v1 + (0.5+0.5j)*1<1:1*1<2:2")
print("\npolynomial:", p)
op = evaluate_polynomial(space, p)
print("operator norm of its representation:", f"{operator_norm(op):.12f}")

one = PathPolynomial.unit(q)
print("unit polynomial represents the identity:",
      operator_norm(evaluate_polynomial(space, one)) == 1.0)
