"""Dual random-simplex functionals, star bodies and p-affine surface areas.

The dual moment integrates the parallelepiped volume of surface
normals against L_p surface-area measures instead of points against
Lebesgue measure.  For smooth bodies it collapses, via the curvature
function, to the primal moment of associated star bodies — both routes
are implemented so each can serve as the oracle for the other.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng as rngmod
from .bodies import ConvexBody
from .constants import omega_n
from .estimate import Estimate, product, quad_estimate
from .funcspace import CompactFunction, Profile, surface_measure_f
from .functionals import _points, _simplex_moment, _weighted, surface_measure
from .sphere import sphere_rule

__all__ = [
    "StarBody",
    "curvature_density",
    "star_body",
    "omega_p",
    "omega_p_ellipsoid",
    "I_tilde_p",
    "I_tilde_p_star",
    "I_tilde_p_functions",
    "bordered_hessian",
    "bordered_hessian_det",
    "omega_p_function",
    "omega_p_radial",
    "omega_p_levelset_radial",
    "projection_body_volume",
]


class StarBody:
    """Star-shaped set given by a positive radial function on the sphere."""

    def __init__(self, dim: int, radial, label: str = "star"):
        self.dim = dim
        self.radial = radial
        self.label = label
        probe = sphere_rule(dim, 64)
        self.bounding_radius = float(np.max(radial(probe.nodes))) * 1.001

    def contains(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return norms <= self.radial(x / safe[:, None]) + 1e-15

    def volume(self) -> Estimate:
        """(1/n) integral of the radial function to the n-th power."""
        rule = sphere_rule(self.dim, 1024 if self.dim == 2 else 96)
        val = rule.integrate(self.radial(rule.nodes) ** self.dim) / self.dim
        return quad_estimate(val)

    def sample(self, gen, size) -> np.ndarray:
        """Uniform points by rejection from the bounding ball."""
        out = np.empty((size, self.dim))
        have = 0
        R = self.bounding_radius
        while have < size:
            m = max(2 * (size - have), 64)
            x = gen.uniform(-R, R, size=(m, self.dim))
            x = x[np.linalg.norm(x, axis=1) <= R]
            x = x[self.contains(x)]
            take = min(len(x), size - have)
            out[have : have + take] = x[:take]
            have += take
        return out


def curvature_density(L: ConvexBody, p: float):
    """p-curvature function of a smooth body as a callable on unit vectors.

    Closed-form densities (ball, ellipsoid) are taken from the surface
    measure; other planar bodies use the support-function representation
    f_1 = h + h'' on a fine angular grid, with f_p = h^{1-p} f_1.
    """
    sm = surface_measure(L, p)
    if sm.kind == "density":
        return sm.density
    if sm.kind == "atomic":
        raise ValueError("polytopes have no curvature function (surface measure is atomic)")
    if L.dim != 2:
        raise ValueError("generic curvature densities implemented only in the plane")
    grid = 4096
    theta = np.arange(grid) * (2 * np.pi / grid)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    h = L.support(u)
    hpp = (np.roll(h, -1) - 2 * h + np.roll(h, 1)) / (2 * np.pi / grid) ** 2
    f1 = h + hpp
    fp = h ** (1.0 - p) * f1

    def density(x):
        x = np.atleast_2d(x)
        a = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2 * np.pi) / (2 * np.pi / grid)
        i = np.floor(a).astype(int) % grid
        t = a - np.floor(a)
        return (1 - t) * fp[i] + t * fp[(i + 1) % grid]

    return density


def star_body(L: ConvexBody, p: float) -> StarBody:
    """Star body with radial function the (n+p)-th root of the
    p-curvature function; its volume is Omega_p(L)/n."""
    f = curvature_density(L, p)
    n = L.dim
    return StarBody(n, lambda u: f(u) ** (1.0 / (n + p)), f"{L!r}*_{p:g}")


def omega_p(L: ConvexBody, p: float) -> Estimate:
    """p-affine surface area: the integral over the sphere of the
    p-curvature function to the power n/(n+p)."""
    n = L.dim
    sm = surface_measure(L, p)
    if sm.kind == "atomic":
        # the curvature function of a polytope is a.e. zero: the surface
        # measure is purely atomic and its singular part does not
        # contribute to the absolutely continuous integral
        return Estimate(0.0)
    rule = sphere_rule(n, 1024 if n == 2 else 96)
    f = curvature_density(L, p)
    return quad_estimate(rule.integrate(f(rule.nodes) ** (n / (n + p))))


def omega_p_ellipsoid(A: np.ndarray, p: float) -> float:
    """Closed form n omega_n det(A)^{(n-p)/(n+p)} for the ellipsoid A.B."""
    n = A.shape[0]
    return n * omega_n(n) * abs(np.linalg.det(A)) ** ((n - p) / (n + p))


# ---------------------------------------------------------------------------
# dual moments


def I_tilde_p(
    bodies: list[ConvexBody],
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Dual random-simplex moment: D_n of surface normals to the p,
    integrated against the product of L_p surface-area measures."""
    n = bodies[0].dim
    if len(bodies) != n:
        raise ValueError("need exactly n bodies")
    measures = [surface_measure(L, p) for L in bodies]
    gen = rngmod.substream(seed, "Itilde", p, *bodies)
    return _simplex_moment(gen, budget, p, _weighted([m.sample for m in measures]))


def I_tilde_p_star(
    bodies: list[ConvexBody],
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Independent backend: (n+p)^n times the primal moment of the
    associated star bodies, sampled by rejection."""
    n = bodies[0].dim
    stars = [star_body(L, p) for L in bodies]
    gen = rngmod.substream(seed, "Itilde-star", p, *bodies)
    mean = _simplex_moment(gen, budget, p, _points([s.sample for s in stars]))
    return mean * product(s.volume() for s in stars) * (n + p) ** n


def I_tilde_p_functions(
    ls: list[CompactFunction],
    p: float,
    budget: int = 200_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Functional dual moment: D_n of the gradients to the p, integrated
    over the product of supports.

    Since the determinant is 1-homogeneous in each column this equals
    the determinant of unit directions integrated against the product of
    the functions' pushforward surface measures, which is how it is
    sampled (heavy-tail safe for radial compositions).
    """
    n = ls[0].dim
    if len(ls) != n:
        raise ValueError("need n functions")

    measures = [surface_measure_f(l, p) for l in ls]
    gen = rngmod.substream(seed, "Itilde-f", p, *ls)
    return _simplex_moment(gen, budget, p, _weighted([m.sample for m in measures]))


# ---------------------------------------------------------------------------
# functional p-affine surface area via the bordered Hessian


def bordered_hessian(l: CompactFunction, x) -> np.ndarray:
    """(n+1)x(n+1) matrices [[0, grad^T], [grad, Hess]] at each point."""
    if l.grad is None or l.hess is None:
        raise ValueError("bordered Hessian needs gradient and Hessian oracles")
    x = np.atleast_2d(x)
    m, n = x.shape
    K = np.zeros((m, n + 1, n + 1))
    g = l.grad(x)
    K[:, 0, 1:] = g
    K[:, 1:, 0] = g
    K[:, 1:, 1:] = l.hess(x)
    return K


def bordered_hessian_det(l: CompactFunction, x) -> np.ndarray:
    return np.abs(np.linalg.det(bordered_hessian(l, x)))


def omega_p_function(
    l: CompactFunction,
    p: float,
    budget: int = 200_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Functional p-affine surface area: the integral of
    |det K l|^{p/(n+p)} over the support box."""
    n = l.dim
    gen = rngmod.substream(seed, "omega-f", p, l)
    return l.box_mean(gen, budget, lambda x: bordered_hessian_det(l, x) ** (p / (n + p)))


def omega_p_radial(profile: Profile, n: int, p: float) -> float:
    """Quadrature oracle for radial functions l = F(|x|_2): the bordered
    Hessian determinant reduces to |F'(r)|^{n+1} / r^{n-1}, so

    Omega_p(l) = n omega_n int r^{n(n-1)/(n+p)} |F'(r)|^{p(n+1)/(n+p)} dr.
    """
    return n * omega_n(n) * profile.moment(
        n * (n - 1) / (n + p), p * (n + 1) / (n + p), derivative=True
    )


def omega_p_levelset_radial(profile: Profile, n: int, p: float, s: float) -> float:
    """Level-set surface integral of a radial function at radius s:

    Omega_p(F(|x|_2), F(s)) = n omega_n s^{n(n-1)/(n+p)} |F'(s)|^{(p-1)n/(n+p)}.

    The radius factor is forced by consistency with the radial closed
    form of Omega_p(l) under the level-set slicing.
    """
    d = abs(profile.dF(np.array([s]))[0])
    return n * omega_n(n) * s ** (n * (n - 1) / (n + p)) * d ** ((p - 1) * n / (n + p))


def projection_body_volume(
    L: ConvexBody,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Volume of the projection body via the dual moment identity
    vol(Pi L) = Itilde_1(L, ..., L) / n!."""
    n = L.dim
    est = I_tilde_p([L] * n, 1.0, budget=budget, seed=seed)
    return est * (1.0 / math.factorial(n))
