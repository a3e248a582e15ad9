"""Random-simplex functionals, moment bodies and mixed volumes.

The central object is the p-th moment of the parallelepiped volume of
random points, one from each of n convex bodies.  Freezing one
direction turns the same integral into the support function of a
convex body; its polar links the moment back to the dual mixed
volume, and that identity is exposed as a consistency check.

Every such moment goes through one of two kernels: ``_simplex_moment``
for E[w D_n^p] and :func:`convexgeom.estimate.mc_direction_moments` for
E[w |<z, u>|^p] at sphere-rule nodes u, where z is a point, a surface
normal or the generalized cross product of n - 1 points.  A draw maps
(gen, size) to (points, weights or None): one chunk from each factor, in
order from the one generator, and the product of their weights.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import rng as rngmod
from .bodies import (
    Ball,
    ConvexBody,
    Cube,
    Ellipsoid,
    NumericSupport,
    Polytope,
    hull_vertices,
    sample_uniform,
    volume,
)
from .constants import c_np, omega_n
from .estimate import (
    Estimate,
    from_samples,
    mc_direction_moments,
    mc_draws,
    product,
    quad_estimate,
)
from .sphere import SphereRule, sphere_rule

__all__ = [
    "det_volume_many",
    "cross_product",
    "I_p",
    "N_p_body",
    "centroid_body",
    "SurfaceMeasure",
    "surface_measure",
    "projection_body",
    "dual_mixed_volume",
    "mixed_volume",
    "equivalence_check",
]


def det_volume_many(point_sets: list[np.ndarray]) -> np.ndarray:
    """Vectorized parallelepiped volumes.

    ``point_sets`` is a list of k arrays of shape (m, n); returns the m
    volumes of the parallelepipeds spanned row-wise.
    """
    k = len(point_sets)
    n = point_sets[0].shape[1]
    M = np.stack(point_sets, axis=1)  # (m, k, n)
    if k == n:
        return np.abs(np.linalg.det(M))
    G = M @ M.transpose(0, 2, 1)
    return np.sqrt(np.clip(np.linalg.det(G), 0.0, None))


def cross_product(point_sets: list[np.ndarray]) -> np.ndarray:
    """Generalized cross product of n - 1 arrays of shape (m, n): the m
    vectors z with <z, xi> = det(x_1, ..., x_{n-1}, xi) for every xi."""
    n = point_sets[0].shape[1]
    if n == 2:
        x = point_sets[0]
        return np.stack([-x[:, 1], x[:, 0]], axis=1)
    if n == 3:
        return np.cross(point_sets[0], point_sets[1])
    raise ValueError("direction-resolved determinant implemented for n in {2, 3}")


# ---------------------------------------------------------------------------
# the random-simplex kernels


def _points(samplers):
    """Draw of unweighted points, one ``sampler(gen, size)`` per factor."""
    return lambda gen, size: ([s(gen, size) for s in samplers], None)


def _weighted(samplers):
    """Draw from samplers that return (points, weights); the weights of
    the factors multiply."""

    def draw(gen, size):
        pts, ws = zip(*[s(gen, size) for s in samplers])
        return list(pts), np.prod(ws, axis=0)

    return draw


def _normals(draw):
    """The draw with its n - 1 points replaced by their cross product, so
    that |<z, u>| is the determinant with the free direction u."""

    def normals(gen, size):
        pts, w = draw(gen, size)
        return cross_product(pts), w

    return normals


def _simplex_moment(gen, budget: int, p: float, draw, scale: float = 1.0) -> Estimate:
    """Monte-Carlo estimate of ``scale`` times E[w D_n(x_1..x_n)^p]."""

    def values(gen, size):
        pts, w = draw(gen, size)
        d = det_volume_many(pts) ** p
        return d if w is None else w * d

    return from_samples(mc_draws(gen, budget, values), scale=scale)


def moment_rule(n: int) -> SphereRule:
    """Sphere rule on which the moment bodies take their support values."""
    return sphere_rule(n, 256 if n == 2 else 48)


def _moment_body(rule: SphereRule, p: float, hp, err, ref, samples: int) -> NumericSupport:
    """Body with support h = hp^(1/p) at the rule nodes.  ``err / ref`` is
    the relative error of hp, so h carries h/p times it."""
    h = hp ** (1.0 / p)
    h_err = np.where(ref > 0, h / p * err / np.maximum(ref, 1e-300), 0.0)
    return NumericSupport(rule, h, node_stderr=h_err, samples=samples)


def I_p(
    bodies: list[ConvexBody],
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Monte-Carlo estimate of the random-simplex moment functional:
    the integral over the product of the bodies of D_n(x_1..x_n)^p.

    Each point is sampled uniformly from its body and the mean of D^p
    is rescaled by the product of volumes (with propagated error).
    """
    n = bodies[0].dim
    if len(bodies) != n:
        raise ValueError("need exactly n bodies of dimension n")
    if p < 1:
        raise ValueError("p must be at least 1")
    gen = rngmod.substream(seed, "I_p", p, *bodies)
    mean = _simplex_moment(gen, budget, p, _points([partial(sample_uniform, L) for L in bodies]))
    return mean * product(volume(L, budget=budget, seed=seed + i) for i, L in enumerate(bodies))


def N_p_body(
    bodies: list[ConvexBody],
    p: float,
    rule: SphereRule | None = None,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> NumericSupport:
    """Body whose support function p-th power is the partial
    random-simplex integral with one free direction.

    Support is evaluated at the rule nodes (one shared Monte-Carlo
    sample batch for all nodes) and interpolated elsewhere; the standard
    error of each node value is stored on the body.
    """
    n = bodies[0].dim
    if len(bodies) != n - 1:
        raise ValueError("need n - 1 bodies")
    rule = rule or moment_rule(n)
    gen = rngmod.substream(seed, "N_p", p, *bodies)
    draw = _normals(_points([partial(sample_uniform, L) for L in bodies]))
    mean, sem, total = mc_direction_moments(gen, budget, rule.nodes, p, draw)
    volp = product(volume(L, budget=budget, seed=seed + i) for i, L in enumerate(bodies))
    hp = mean * volp.value
    hp_err = np.sqrt((volp.value * sem) ** 2 + (mean * volp.stderr) ** 2)
    return _moment_body(rule, p, hp, hp_err, hp, total)


def centroid_body(
    L: ConvexBody,
    p: float,
    rule: SphereRule | None = None,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> NumericSupport:
    """p-th centroid body: support^p proportional to the p-th absolute
    moment of the linear functional over the body, normalized so the
    ball maps to itself."""
    rule = rule or moment_rule(L.dim)
    gen = rngmod.substream(seed, "centroid", p, L)
    draw = lambda gen, size: (sample_uniform(L, gen, size), None)
    mean, sem, total = mc_direction_moments(gen, budget, rule.nodes, p, draw)
    return _moment_body(rule, p, mean / c_np(L.dim, p).value, sem, mean, total)


# ---------------------------------------------------------------------------
# surface measures


class SurfaceMeasure:
    """L_p surface-area measure of a body or function.

    One of three backends:

    atomic
        list of (unit normal, weight) pairs; exact sums (polytopes).
    density
        callable density against the spherical measure (smooth bodies).
    pushforward
        sampler(rng, m) -> (directions, weights) such that weighted
        sample means estimate integrals against the measure.

    ``label`` names the measure; pushforward integrals draw from a
    random stream keyed on it.
    """

    def __init__(self, kind, dim, atoms=None, density=None, sampler=None,
                 label="surface-measure"):
        if kind not in ("atomic", "density", "pushforward"):
            raise ValueError(f"unknown surface measure kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.label = label
        self.atoms = atoms
        self.density = density
        self.sampler = sampler
        if kind == "atomic":
            normals, weights = atoms
            if np.any(weights <= 0):
                raise ValueError("atom weights must be positive")
            norms = np.linalg.norm(normals, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-9):
                raise ValueError("atom normals must be unit vectors")

    def integrate(
        self,
        f,
        budget: int = 100_000,
        seed: int = rngmod.DEFAULT_SEED,
    ) -> Estimate:
        """Integral of ``f`` (vectorized over unit vectors) against the measure."""
        if self.kind == "atomic":
            normals, weights = self.atoms
            return Estimate(float(np.dot(weights, f(normals))))
        if self.kind == "density":
            rule = sphere_rule(self.dim, 1024 if self.dim == 2 else 96)
            vals = f(rule.nodes) * self.density(rule.nodes)
            return quad_estimate(rule.integrate(vals))
        gen = rngmod.substream(seed, "surface-measure-int", self)

        def draw(gen, size):
            dirs, w = self.sampler(gen, size)
            return f(dirs) * w

        return from_samples(mc_draws(gen, budget, draw))

    def total_mass(self, **kw) -> Estimate:
        return self.integrate(lambda u: np.ones(len(u)), **kw)

    def sample(self, gen, size):
        """Weighted direction samples (directions, weights) for MC use."""
        if self.kind == "pushforward":
            return self.sampler(gen, size)
        if self.kind == "atomic":
            normals, weights = self.atoms
            total = weights.sum()
            idx = gen.choice(len(weights), size=size, p=weights / total)
            return normals[idx], np.full(size, total)
        from .sphere import sample_sphere

        dirs = sample_sphere(gen, self.dim, size)
        nw = self.dim * omega_n(self.dim)
        return dirs, nw * self.density(dirs)


def surface_measure(L: ConvexBody, p: float) -> SurfaceMeasure:
    """L_p surface-area measure of a convex body.

    Polytope kinds yield atoms with weight h(u)^(1-p) * facet area;
    balls and ellipsoids yield closed-form densities; other smooth
    bodies fall back to the pushforward of a radial representative
    function (n = 2 additionally supports a support-function curvature
    density, see :func:`convexgeom.dualtheory.curvature_density`).
    """
    n = L.dim
    label = f"{L!r}|p={p}"
    if isinstance(L, (Cube, Polytope)):
        normals, areas = L.facets()
        h = L.support(normals)
        if np.any(h <= 0):
            raise ValueError("origin must be interior for the L_p measure")
        return SurfaceMeasure("atomic", n, atoms=(normals, h ** (1.0 - p) * areas), label=label)
    if isinstance(L, Ball):
        r = L.radius
        return SurfaceMeasure(
            "density", n, density=lambda u: np.full(len(np.atleast_2d(u)), r ** (n - p)),
            label=label,
        )
    if isinstance(L, Ellipsoid):
        A = L.A
        d2 = np.linalg.det(A) ** 2
        return SurfaceMeasure(
            "density",
            n,
            density=lambda u: d2 * np.linalg.norm(np.atleast_2d(u) @ A, axis=1) ** (-(n + p)),
            label=label,
        )
    if isinstance(L, NumericSupport):
        raise ValueError(
            "numeric-support bodies only admit the pushforward backend; "
            "build one via funcspace.surface_measure_f on a radial representative"
        )
    # generic body with smooth gauge: pushforward via radial representative
    from .funcspace import radial_representative, surface_measure_f

    return surface_measure_f(radial_representative(L, p), p)


def projection_body(L: ConvexBody) -> ConvexBody:
    """Body with support half the cosine transform of the surface measure.

    Exact in every supported case: a ball of radius r maps to the ball
    of radius omega_{n-1} r^{n-1}; an ellipsoid A.B maps to
    |det A| omega_{n-1} A^{-T}.B (SL(n) contravariance of the operator);
    a polytope with facet normals u_j and areas a_j maps to the zonotope
    sum of the segments [-g_j, g_j], g_j = a_j u_j / 2.
    """
    n = L.dim
    if isinstance(L, Ball):
        return Ball(omega_n(n - 1) * L.radius ** (n - 1), n)
    if isinstance(L, Ellipsoid):
        return Ellipsoid(abs(np.linalg.det(L.A)) * omega_n(n - 1) * L.Ainv.T)
    if isinstance(L, (Cube, Polytope)):
        normals, areas = L.facets()
        V = np.zeros((1, n))
        for g in 0.5 * areas[:, None] * normals:
            V = np.vstack([V + g, V - g])
            # prune to the extreme points once the sum is full-dimensional
            if np.linalg.matrix_rank(V - V[0]) == n:
                V = V[hull_vertices(V)]
        return Polytope(V)
    raise ValueError(f"no exact projection body for {L!r}")


# ---------------------------------------------------------------------------
# mixed volumes


def dual_mixed_volume(
    K: ConvexBody,
    L: ConvexBody,
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """(n+p)/n times the integral over K of the gauge of L to the p."""
    n = K.dim
    gen = rngmod.substream(seed, "dmv", p, K, L)

    def draw(gen, size):
        return L.gauge(sample_uniform(K, gen, size)) ** p

    mean = from_samples(mc_draws(gen, budget, draw))
    return mean * volume(K, budget=budget, seed=seed) * ((n + p) / n)


def mixed_volume(
    K: ConvexBody,
    L: ConvexBody,
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """(1/n) integral of h_L^p against the L_p surface measure of K."""
    sm = surface_measure(K, p)
    est = sm.integrate(lambda u: L.support(u) ** p, budget=budget, seed=seed)
    return est * (1.0 / K.dim)


def equivalence_check(
    bodies: list[ConvexBody],
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Ratio of the random-simplex moment to n/(n+p) times the dual
    mixed volume of the last body with the polar moment body of the
    others.  Contract: 1 within 3 sigma."""
    n = bodies[0].dim
    lhs = I_p(bodies, p, budget=budget, seed=seed)
    Np = N_p_body(bodies[:-1], p, budget=budget, seed=seed + 1)
    rhs = dual_mixed_volume(bodies[-1], Np.polar(), p, budget=budget, seed=seed + 2) * (
        n / (n + p)
    )
    # the gauge of the polar moment body carries the (correlated) node
    # noise of the numeric support values, which the sampling stderr of
    # the dual mixed volume cannot see; fold it in explicitly
    rel_node = p * float(np.mean(Np.node_stderr / Np.values))
    rhs = Estimate(
        rhs.value,
        float(np.hypot(rhs.stderr, rel_node * abs(rhs.value))),
        rhs.samples,
        rhs.method,
    )
    return lhs / rhs
