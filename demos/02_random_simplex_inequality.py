"""
The random-simplex moment and its sharp lower bound
===================================================

I_p(L_1, ..., L_n) averages the p-th moment of the parallelepiped
spanned by one random point per body.  The sharp inequality bounds it
below by b_np * prod vol(L_i)^{(n+p)/n}, with equality at centered
ellipsoids.  We measure the ratio on a few bodies.
"""

import numpy as np

from convexgeom.bodies import Ball, Cube, Ellipsoid, standard_simplex, volume
from convexgeom.constants import b_np
from convexgeom.functionals import I_p

n, p = 2, 2.0
b = b_np(n, p).value
print(f"b_np(n={n}, p={p:g}) = {b:.6f}")

bodies = {
    "ball": Ball(1.0, n),
    "ellipsoid": Ellipsoid(np.diag([2.0, 0.5])),
    "cube": Cube(1.0, n),
    "simplex": standard_simplex(n, centered=True),
}

# Equality cases (ball, ellipsoid) sit at ratio 1; everything else
# floats strictly above.
for name, L in bodies.items():
    lhs = I_p([L] * n, p, budget=1 << 17, seed=3)
    rhs = b * volume(L) ** (n + p)
    ratio = lhs / rhs
    print(f"{name:10s} ratio = {ratio.value:.4f} +- {ratio.stderr:.4f}")

# The functional is invariant under volume-preserving linear maps, so
# the ellipsoid ratio matches the ball ratio exactly in distribution.
