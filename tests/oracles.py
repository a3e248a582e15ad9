"""Independent oracles that only the tests use; they need scipy, which
the package itself does not."""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, minimize_scalar

from convexgeom.constants import holder_conjugate, integrate_1d
from convexgeom.dualtheory import bordered_hessian_det
from convexgeom.sphere import sphere_rule


def quadpack(f, a: float, b: float) -> float:
    """QUADPACK over [a, b] split at every power of ten inside it; an
    infinite tail [1, inf) is integrated as s = 1/t over (0, 1], split
    at the negative powers of ten.  ``f`` is vectorised, as for
    ``integrate_1d``; a QUADPACK warning is an error."""
    g = lambda t: float(f(np.array([t]))[0])
    top = min(b, 1.0) if b == math.inf else b
    cuts = [10.0**k for k in range(0, int(math.log10(top)) + 1) if a < 10.0**k < top]
    pieces = [(g, lo, hi) for lo, hi in zip([a, *cuts], [*cuts, top])]
    if b == math.inf:
        tail = lambda s: g(1 / s) / s**2 if s > 0 else 0.0
        s_edges = [0.0, *(10.0**-k for k in range(12, 0, -1)), 1.0]
        pieces += [(tail, lo, hi) for lo, hi in zip(s_edges[:-1], s_edges[1:])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        return math.fsum(quad(h, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=2000)[0]
                         for h, lo, hi in pieces)


def levelset_constant_minimized(n: int, p: float, lam: float) -> float:
    """The level-set constant by minimizing the proof's r-parameterized
    bound, against ``constants.levelset_constant``."""
    beta = p / (n + p)
    G, M = 1.3, 0.7  # arbitrary positive moments; the ratio is invariant
    if lam > 1:
        C = integrate_1d(lambda t: (1 - t ** (lam - 1)) ** ((n + p) / p), 0, 1)
        phi = lambda r: (G - r ** (1 - lam) * M) * C ** (-beta) * r ** (-beta)
    else:
        C = integrate_1d(lambda t: (t ** (lam - 1) - 1) ** ((n + p) / p), 0, 1)
        phi = lambda r: (M - r ** (lam - 1) * G) * r ** (n / (n + p) - lam) * C ** (-beta)
    res = minimize_scalar(
        lambda u: -phi(math.exp(u)), bounds=(-25, 25), method="bounded",
        options={"xatol": 1e-14},
    )
    best = -res.fun
    lamp = holder_conjugate(lam)
    return best / (M ** (-p / ((n + p) * (lam - 1))) * G ** ((n + p * lamp) / (n + p)))


def omega_p_levelset(l, p: float, t: float, rmax: float | None = None) -> float:
    """Level-set integral Omega_p(l, t) for a function whose superlevel
    sets are star-shaped about the origin.

    For each direction the level radius is found by bracketed root
    finding; the surface integral of |det K l|^{p/(n+p)} / |grad l| is
    then a spherical quadrature with the star-shaped area element
    r^{n-1} |grad l| / |<grad l, u>|.
    """
    n = l.dim
    rule = sphere_rule(n, 512 if n == 2 else 64)
    R = rmax if rmax is not None else l.box * math.sqrt(n)
    out = 0.0
    for u, w in zip(rule.nodes, rule.weights):

        def g(r):
            return float(l(u[None, :] * r)[0]) - t

        if g(0.0) <= 0:
            continue
        hi = R
        while g(hi) > 0 and hi < 64 * R:
            hi *= 2.0
        if g(hi) > 0:
            raise ValueError("level set unbounded in some direction")
        r = brentq(g, 1e-12, hi, xtol=1e-13)
        x = (u * r)[None, :]
        grad = l.grad(x)[0]
        gn = float(np.linalg.norm(grad))
        radial = abs(float(grad @ u))
        if gn == 0 or radial == 0:
            raise ValueError("degenerate gradient on the level set")
        det = float(bordered_hessian_det(l, x)[0])
        # dS = r^{n-1} |grad| / |<grad, u>| dxi, integrand det^{p/(n+p)}/|grad|
        out += w * r ** (n - 1) / radial * det ** (p / (n + p))
    return out
