"""
p-affine surface area, star bodies and level-set decomposition
==============================================================

Omega_p(L) integrates a power of the curvature function over the
sphere.  For a smooth log-concave function l, Omega_p(l) decomposes
into level-set contributions Omega_p(l, t); integrating the slices in
t recovers the total.
"""

import numpy as np

from convexgeom.bodies import Ball, Ellipsoid
from convexgeom.constants import integrate_1d, omega_n
from convexgeom.dualtheory import (
    omega_p,
    omega_p_levelset_radial,
    omega_p_radial,
    star_body,
)
from convexgeom.funcspace import bump_profile

n, p = 2, 2.0

# Closed value: Omega_p(ball) = n * omega_n for every p.
print("Omega_p(B^2) =", omega_p(Ball(1.0, n), p).value, "(= 2 pi)")
print("n * omega_n  =", n * omega_n(n))

# Omega_p is invariant under volume-preserving linear maps.
E = Ellipsoid(np.diag([2.0, 0.5]))
print("Omega_p(E)   =", omega_p(E, p).value)

# The star body L*_p linearizes Omega_p: n vol(L*_p) = Omega_p(L).
S = star_body(E, p)
print("n vol(E*_p)  =", n * S.volume().value)

# Level-set slices of a radial bump integrate back to the total.
prof = bump_profile(3, 1.0)
total = omega_p_radial(prof, n, p)
slice_density = np.vectorize(
    lambda r: omega_p_levelset_radial(prof, n, p, r) * abs(prof.dF(r))
)
sliced = integrate_1d(slice_density, 0, 1)
print(f"Omega_p(l) = {total:.8f}   integral of slices = {sliced:.8f}")
