"""Convex bodies as oracle bundles.

A body is represented by its support function and gauge, not by a
mesh: all integrals downstream consume these oracles.  Closed-form
kinds (balls, ellipsoids, cubes, polytopes, l_q balls) evaluate
exactly; bodies produced numerically store support values on a sphere
rule and interpolate.

Oracles are vectorized: ``support`` and ``gauge`` accept ``(m, n)``
arrays and return ``(m,)`` arrays.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng as rngmod
from .estimate import CLOSED_FORM, MONTE_CARLO, Estimate, from_samples, mc_draws, quad_estimate
from .sphere import SphereRule, sphere_rule

__all__ = [
    "ConvexBody",
    "Ball",
    "Ellipsoid",
    "Cube",
    "LqBall",
    "Polytope",
    "LinearImage",
    "Polar",
    "NumericSupport",
    "standard_simplex",
    "hull_vertices",
    "polar",
    "linear_image",
    "volume",
    "sample_uniform",
]


def _rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :]
    return x


class ConvexBody:
    """Base class: a convex body with the origin interior.

    Attributes
    ----------
    dim : int
        Ambient dimension n >= 2.
    bounding_radius : float
        R such that the body is contained in R times the unit ball.
    """

    dim: int
    bounding_radius: float

    def support(self, xi) -> np.ndarray:
        """h(xi) = max over body points z of <xi, z>; 1-homogeneous."""
        raise NotImplementedError

    def gauge(self, x) -> np.ndarray:
        """Minkowski gauge inf{t > 0 : x in t * body}."""
        raise NotImplementedError

    def contains(self, x) -> np.ndarray:
        return self.gauge(x) <= 1.0

    def volume_exact(self) -> float | None:
        """Closed-form volume when available, else None."""
        return None

    # smooth-kind hooks, used by radial function oracles
    def gauge_grad(self, x) -> np.ndarray | None:
        return None

    def gauge_hess(self, x) -> np.ndarray | None:
        return None

    def polar(self) -> "ConvexBody":
        return Polar(self)


class Ball(ConvexBody):
    def __init__(self, radius: float = 1.0, dim: int = 2):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.dim = int(dim)
        self.bounding_radius = self.radius

    def support(self, xi):
        return self.radius * np.linalg.norm(_rows(xi), axis=1)

    def gauge(self, x):
        return np.linalg.norm(_rows(x), axis=1) / self.radius

    def gauge_grad(self, x):
        x = _rows(x)
        r = np.linalg.norm(x, axis=1, keepdims=True)
        r = np.where(r == 0, 1.0, r)
        return x / (r * self.radius)

    def gauge_hess(self, x):
        x = _rows(x)
        m, n = x.shape
        r = np.linalg.norm(x, axis=1)
        r = np.where(r == 0, 1.0, r)
        eye = np.eye(n)[None, :, :]
        xx = x[:, :, None] * x[:, None, :]
        return (eye - xx / (r**2)[:, None, None]) / (self.radius * r[:, None, None])

    def volume_exact(self):
        from .constants import omega_n

        return omega_n(self.dim) * self.radius**self.dim

    def polar(self):
        return Ball(1.0 / self.radius, self.dim)

    def __repr__(self):
        return f"Ball({self.radius:g}, n={self.dim})"


class Ellipsoid(ConvexBody):
    """Image A . B of the unit ball under an invertible linear map."""

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if abs(np.linalg.det(A)) < 1e-14:
            raise ValueError("A must be invertible")
        self.A = A
        self.Ainv = np.linalg.inv(A)
        self.dim = A.shape[0]
        self.bounding_radius = float(np.linalg.norm(A, 2))
        # gauge(x) = |A^-1 x| = sqrt(x^T M x)
        self.M = self.Ainv.T @ self.Ainv

    def support(self, xi):
        return np.linalg.norm(_rows(xi) @ self.A, axis=1)

    def gauge(self, x):
        return np.linalg.norm(_rows(x) @ self.Ainv.T, axis=1)

    def gauge_grad(self, x):
        x = _rows(x)
        Mx = x @ self.M
        g = np.sqrt(np.sum(x * Mx, axis=1, keepdims=True))
        g = np.where(g == 0, 1.0, g)
        return Mx / g

    def gauge_hess(self, x):
        x = _rows(x)
        Mx = x @ self.M
        g = np.sqrt(np.sum(x * Mx, axis=1))
        g = np.where(g == 0, 1.0, g)
        outer = Mx[:, :, None] * Mx[:, None, :]
        return self.M[None, :, :] / g[:, None, None] - outer / (g**3)[:, None, None]

    def volume_exact(self):
        from .constants import omega_n

        return omega_n(self.dim) * abs(np.linalg.det(self.A))

    def polar(self):
        return Ellipsoid(self.Ainv.T)

    def __repr__(self):
        return f"Ellipsoid(det={np.linalg.det(self.A):g}, n={self.dim})"


class Cube(ConvexBody):
    def __init__(self, half_side: float = 1.0, dim: int = 2):
        if half_side <= 0:
            raise ValueError("half_side must be positive")
        self.half_side = float(half_side)
        self.dim = int(dim)
        self.bounding_radius = half_side * np.sqrt(dim)

    def support(self, xi):
        return self.half_side * np.sum(np.abs(_rows(xi)), axis=1)

    def gauge(self, x):
        return np.max(np.abs(_rows(x)), axis=1) / self.half_side

    def volume_exact(self):
        return (2 * self.half_side) ** self.dim

    def facets(self):
        """Outer unit normals and facet areas, for surface measures."""
        n, a = self.dim, self.half_side
        normals = np.vstack([np.eye(n), -np.eye(n)])
        areas = np.full(2 * n, (2 * a) ** (n - 1))
        return normals, areas

    def polar(self):
        verts = np.vstack([np.eye(self.dim), -np.eye(self.dim)]) / self.half_side
        return Polytope(verts)

    def __repr__(self):
        return f"Cube({self.half_side:g}, n={self.dim})"


class LqBall(ConvexBody):
    """Unit ball of the l_q norm, q in (1, inf)."""

    def __init__(self, q: float, dim: int = 2):
        if q <= 1:
            raise ValueError("q must exceed 1 (use Cube / cross-polytope for limits)")
        self.q = float(q)
        self.dim = int(dim)
        self.bounding_radius = 1.0

    def gauge(self, x):
        return np.sum(np.abs(_rows(x)) ** self.q, axis=1) ** (1.0 / self.q)

    def support(self, xi):
        qd = self.q / (self.q - 1.0)
        return np.sum(np.abs(_rows(xi)) ** qd, axis=1) ** (1.0 / qd)

    def gauge_grad(self, x):
        x = _rows(x)
        g = self.gauge(x)
        g = np.where(g == 0, 1.0, g)
        return (
            np.sign(x)
            * np.abs(x) ** (self.q - 1)
            / (g ** (self.q - 1))[:, None]
        )

    def volume_exact(self):
        q, n = self.q, self.dim
        return (2 * math.gamma(1 / q + 1)) ** n / math.gamma(n / q + 1)

    def __repr__(self):
        return f"LqBall(q={self.q:g}, n={self.dim})"


def hull_vertices(points) -> np.ndarray:
    """Indices of the extreme points of a full-dimensional (k, n) cloud.

    In the plane, Andrew's monotone chain gives them counter-clockwise,
    from the leftmost (then lowest) point.  A point closer to the chord
    between its neighbours than 4 eps times the largest coordinate is
    dropped, as are duplicates: like qhull, the chain makes no vertex of
    a point that is collinear up to rounding.  In higher dimensions the
    beneath-beyond hull of :func:`_hull` gives them in input order, with
    the same tolerance for coplanar points.
    """
    P = np.asarray(points, dtype=float)
    if P.shape[1] != 2:
        return _hull(P)[0]
    tol = 4 * np.finfo(float).eps * float(np.max(np.abs(P)))
    xy = P.tolist()

    def chain(order):
        out: list[int] = []
        for i in order:
            bx, by = xy[i]
            while len(out) >= 2:
                (ox, oy), (ax, ay) = xy[out[-2]], xy[out[-1]]
                # the cross product over |b - o| is the distance of a from
                # the chord ob, positive when o, a, b turn left
                cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
                if cross > tol * math.hypot(bx - ox, by - oy):
                    break
                out.pop()
            out.append(i)
        return out

    order = np.lexsort((P[:, 1], P[:, 0])).tolist()
    lower, upper = chain(order), chain(order[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _facet_planes(P, F, inside, minor_cols, signs):
    """Outward unit normals and offsets of the simplices ``P[F]``.

    The normal's i-th entry is the signed minor of the edge matrix
    without column i; it points away from the interior point ``inside``.
    """
    V = P[F]
    E = V[:, 1:] - V[:, :1]
    N = np.linalg.det(E[:, :, minor_cols].transpose(0, 2, 1, 3)) * signs
    h = (N * V[:, 0]).sum(axis=1)
    s = np.sign(h - N @ inside) / np.sqrt((N * N).sum(axis=1))
    return N * s[:, None], h * s


def _hull(P: np.ndarray):
    """Beneath-beyond convex hull of a full-dimensional (k, n) cloud.

    Returns the extreme-point indices in input order, the simplicial
    facets as (f, n) index rows into ``P``, and their outward unit
    normals and offsets.  Starting from a large simplex, it inserts the
    other points farthest first; a point beyond the hull replaces the
    facets it sees by the cones from it over their horizon ridges
    (Clarkson and Shor 1989; Barber, Dobkin and Huhdanpaa 1996).  A
    point within 4 eps times the largest coordinate of a facet's plane
    is on it: it is not beyond that facet, but it sees it once it is
    beyond another, so coplanar, collinear and duplicate points do not
    become vertices.
    """
    k, n = P.shape
    tol = 4 * np.finfo(float).eps * float(np.max(np.abs(P)))
    # each next simplex corner is the point farthest from the span so far
    simplex = [int(np.argmin(P[:, 0]))]
    R = P - P[simplex[0]]
    for _ in range(n):
        d = (R * R).sum(axis=1)
        j = int(np.argmax(d))
        if d[j] <= tol * tol:
            raise ValueError("points are not full-dimensional")
        simplex.append(j)
        b = R[j] / math.sqrt(d[j])
        R = R - np.outer(R @ b, b)
    inside = P[simplex].mean(axis=0)
    minor_cols = np.array([[j for j in range(n) if j != i] for i in range(n)])
    signs = (-1.0) ** np.arange(n)
    F = np.array([[s for s in simplex if s != t] for t in simplex])
    N, off = _facet_planes(P, F, inside, minor_cols, signs)
    far = (P @ N.T - off).max(axis=1)
    far[simplex] = 0.0
    for q in np.argsort(-far)[: np.count_nonzero(far > tol)].tolist():
        d = N @ P[q] - off
        if d.max() <= tol:
            continue
        keep = d <= -tol
        # a ridge of only one seen facet is on the horizon
        seen: dict[tuple, int] = {}
        for f in F[~keep].tolist():
            for i in range(n):
                r = tuple(sorted(f[:i] + f[i + 1 :]))
                seen[r] = seen.get(r, 0) + 1
        new = np.array([r + (q,) for r, c in seen.items() if c == 1])
        Nn, offn = _facet_planes(P, new, inside, minor_cols, signs)
        F = np.concatenate([F[keep], new])
        N = np.concatenate([N[keep], Nn])
        off = np.concatenate([off[keep], offn])
    used = np.zeros(k, dtype=bool)
    used[F] = True
    return np.flatnonzero(used), F, N, off


class Polytope(ConvexBody):
    """Convex hull of a vertex list, with the origin interior.

    Stores both the vertices and the facet inequalities <u_j, x> <= h_j,
    so support and gauge are exact maxima.  A polygon's facets are the
    edges between its counter-clockwise vertices (:func:`hull_vertices`);
    in higher dimensions they are the simplicial facets of the
    beneath-beyond hull (:func:`_hull`), with areas from the Gram
    determinant of their edges.  Either way the volume is the cone sum
    of area_j * h_j / n.
    """

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2:
            raise ValueError("vertices must be a (k, n) array")
        n = self.dim = V.shape[1]
        if n == 2:
            self.vertices = V[hull_vertices(V)]
            if len(self.vertices) < 3:
                raise ValueError("polygon vertices are collinear")
            k = len(self.vertices)
            self._simplices = np.stack([np.arange(k), np.roll(np.arange(k), -1)], axis=1)
            edges = np.roll(self.vertices, -1, axis=0) - self.vertices
            self._facet_areas = np.hypot(edges[:, 0], edges[:, 1])
            self._normals = np.stack([edges[:, 1], -edges[:, 0]], 1) / self._facet_areas[:, None]
            self._offsets = np.sum(self._normals * self.vertices, axis=1)
        else:
            idx, facets, self._normals, self._offsets = _hull(V)
            self.vertices = V[idx]
            self._simplices = np.searchsorted(idx, facets)
            E = V[facets[:, 1:]] - V[facets[:, :1]]
            gram = np.linalg.det(E @ E.transpose(0, 2, 1))
            self._facet_areas = np.sqrt(gram) / math.factorial(n - 1)
        self._hull_volume = float(self._facet_areas @ self._offsets) / n
        self.bounding_radius = float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def support(self, xi):
        return np.max(_rows(xi) @ self.vertices.T, axis=1)

    def gauge(self, x):
        if np.any(self._offsets <= 0):
            raise ValueError("gauge needs the origin interior to the polytope")
        return np.max(_rows(x) @ (self._normals / self._offsets[:, None]).T, axis=1)

    def contains(self, x):
        return np.all(_rows(x) @ self._normals.T <= self._offsets[None, :] + 1e-12, axis=1)

    def facets(self):
        """(unit normals, areas); simplicial facets are not merged."""
        return self._normals, self._facet_areas

    def volume_exact(self):
        return float(self._hull_volume)

    def polar(self):
        if np.any(self._offsets <= 0):
            raise ValueError("polar needs the origin interior to the polytope")
        return Polytope(self._normals / self._offsets[:, None])

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices, n={self.dim})"


def standard_simplex(dim: int, centered: bool = False) -> Polytope:
    """Simplex conv(0, e_1, ..., e_n); optionally recentered at its centroid
    so the origin is interior (needed by gauge-based operations)."""
    V = np.vstack([np.zeros(dim), np.eye(dim)])
    if centered:
        V = V - V.mean(axis=0)
    return Polytope(V)


class LinearImage(ConvexBody):
    def __init__(self, A, base: ConvexBody):
        A = np.asarray(A, dtype=float)
        if abs(np.linalg.det(A)) < 1e-14:
            raise ValueError("A must be invertible")
        self.A = A
        self.Ainv = np.linalg.inv(A)
        self.base = base
        self.dim = base.dim
        self.bounding_radius = float(np.linalg.norm(A, 2)) * base.bounding_radius

    def support(self, xi):
        return self.base.support(_rows(xi) @ self.A)

    def gauge(self, x):
        return self.base.gauge(_rows(x) @ self.Ainv.T)

    def volume_exact(self):
        v = self.base.volume_exact()
        if v is None:
            return None
        return abs(np.linalg.det(self.A)) * v

    def __repr__(self):
        return f"LinearImage({self.base!r})"


class Polar(ConvexBody):
    def __init__(self, base: ConvexBody):
        self.base = base
        self.dim = base.dim
        rule = sphere_rule(base.dim, 512 if base.dim == 2 else 96)
        # K contains r B  <=>  h_K >= r on the sphere; then K° is in B/r.
        inradius = float(np.min(base.support(rule.nodes)))
        if inradius <= 0:
            raise ValueError("base body must have the origin interior")
        self.bounding_radius = 1.0 / inradius * 1.001

    def support(self, xi):
        return self.base.gauge(xi)

    def gauge(self, x):
        return self.base.support(x)

    def polar(self):
        return self.base

    def __repr__(self):
        return f"Polar({self.base!r})"


class NumericSupport(ConvexBody):
    """Body given by support values on the nodes of ``sphere_rule(n, level)``.

    Queries interpolate on the rule's own grid.  Each ring of nodes is a
    midpoint grid in azimuth, phi_k = (k + 1/2) 2 pi / level, and a query
    interpolates linearly and periodically between its two neighbours.
    For n=3 it then interpolates linearly in the polar angle
    theta = arccos z between the two neighbouring Gauss-Legendre rings;
    beyond the outermost rings it meets a pole row that holds the mean of
    the nearest ring.  n=2 is the single-ring case.  Convexity of the
    interpolant is not enforced.

    ``node_stderr`` holds the Monte-Carlo standard error of each node
    value and ``samples`` the draws that produced them; the volumes
    report ``samples`` when they carry node noise.
    """

    def __init__(self, rule: SphereRule, values, node_stderr=None, samples: int = 0):
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0):
            raise ValueError("support values must be positive")
        if not np.array_equal(rule.nodes, sphere_rule(rule.dim, rule.level).nodes):
            raise ValueError("NumericSupport needs a rule built by sphere_rule")
        self.rule = rule
        self.values = values
        self.node_stderr = (
            np.zeros_like(values) if node_stderr is None else np.asarray(node_stderr)
        )
        if np.any(self.node_stderr > 0) and samples <= 0:
            raise ValueError("node_stderr > 0 needs the sample count that produced it")
        self.samples = int(samples)
        self.dim = rule.dim
        self.bounding_radius = float(values.max()) * 1.001
        # rows: rings in increasing polar angle; columns: azimuth nodes
        level = rule.level
        rings = values.reshape(-1, level)[::-1]
        if self.dim == 3:
            theta = np.arccos(rule.nodes[::level, 2])[::-1]
            self._ring_theta = np.concatenate([[0.0], theta, [np.pi]])
            rings = np.vstack(
                [np.full(level, rings[0].mean()), rings, np.full(level, rings[-1].mean())]
            )
        self._rings = rings

    def support(self, xi):
        xi = _rows(xi)
        norms = np.linalg.norm(xi, axis=1)
        u = xi / norms[:, None]
        g = self._rings
        level = g.shape[1]
        t = np.arctan2(u[:, 1], u[:, 0]) * (level / (2 * np.pi)) - 0.5
        k0 = np.floor(t)
        a = t - k0
        k0 = k0.astype(int) % level
        k1 = (k0 + 1) % level
        if self.dim == 3:
            theta = np.arccos(np.clip(u[:, 2], -1.0, 1.0))
            r = np.interp(theta, self._ring_theta, np.arange(len(g)))
        else:
            r = np.zeros(len(u))
        i0 = np.floor(r).astype(int)
        b = r - i0
        i1 = np.minimum(i0 + 1, len(g) - 1)

        def ring(i):
            return (1 - a) * g[i, k0] + a * g[i, k1]

        return ((1 - b) * ring(i0) + b * ring(i1)) * norms

    def gauge(self, x):
        # treat the rule nodes as facet normals: K ~ {x : <x, u_j> <= h_j}
        x = _rows(x)
        return np.max((x @ self.rule.nodes.T) / self.values[None, :], axis=1)

    def polar_volume(self):
        """Volume of the polar body by radial quadrature on the own rule
        (the polar radial function is 1/h), with node noise propagated."""
        n = self.dim
        val = self.rule.integrate(self.values ** (-n)) / n
        # node estimates share one sample batch, so their errors are
        # positively correlated: propagate with the conservative L1 bound
        err = float(np.sum(self.rule.weights * self.values ** (-n - 1) * self.node_stderr))
        return self._estimate(val, err)

    def body_volume(self):
        """Volume of the body itself: radial quadrature of 1/gauge, with
        the gauge induced by the support values (facet representation).
        Node noise is propagated through the active facet of each ray.

        The (rays x facets) score matrix is built in blocks of rays, so
        each temporary holds at most ``CHUNK * NODE_BLOCK`` floats, the
        bound of the Monte-Carlo kernels."""
        rule = sphere_rule(self.dim, 1024 if self.dim == 2 else 96)
        n = self.dim
        rays = len(rule.nodes)
        active = np.empty(rays, dtype=int)
        r = np.empty(rays)
        step = max(1, rngmod.CHUNK * rngmod.NODE_BLOCK // len(self.values))
        for lo in range(0, rays, step):
            scores = (rule.nodes[lo : lo + step] @ self.rule.nodes.T) / self.values[None, :]
            best = np.argmax(scores, axis=1)
            active[lo : lo + step] = best
            r[lo : lo + step] = 1.0 / scores[np.arange(len(best)), best]
        val = rule.integrate(r**n) / n
        # d vol / d h_j = sum over rays with active facet j of w r^n / h_j
        grad = np.zeros(len(self.values))
        np.add.at(grad, active, rule.weights * r**n / self.values[active])
        # correlated node errors (shared sample batch): L1 propagation
        err = float(np.sum(np.abs(grad) * self.node_stderr))
        return self._estimate(val, err)

    def _estimate(self, val: float, err: float) -> Estimate:
        if err > 0:
            return Estimate(val, err, self.samples, MONTE_CARLO)
        return quad_estimate(val)

    def __repr__(self):
        return f"NumericSupport(n={self.dim}, nodes={len(self.values)})"


# ---------------------------------------------------------------------------
# free-function operations


def polar(body: ConvexBody) -> ConvexBody:
    return body.polar()


def linear_image(body: ConvexBody, A) -> ConvexBody:
    A = np.asarray(A, dtype=float)
    if abs(np.linalg.det(A)) < 1e-14:
        raise ValueError("linear image requires an invertible matrix")
    if isinstance(body, Ball):
        return Ellipsoid(A * body.radius)
    if isinstance(body, Ellipsoid):
        return Ellipsoid(A @ body.A)
    if isinstance(body, Polytope):
        return Polytope(body.vertices @ A.T)
    return LinearImage(A, body)


def volume(
    body: ConvexBody,
    budget: int = 200_000,
    seed: int = rngmod.DEFAULT_SEED,
    method: str = "auto",
) -> Estimate:
    """Volume of a body.

    ``method`` is one of ``"auto"`` (closed form if available, else
    radial quadrature for n <= 3, else Monte Carlo), ``"closed-form"``,
    ``"quadrature"`` (radial: vol = (1/n) * integral of r_K^n over the
    sphere), ``"triangulation"`` (polytopes only: the simplices spanned
    by the vertex centroid and each facet) or ``"monte-carlo"``
    (rejection sampling in the bounding box with a CLT standard error).
    """
    if method == "auto":
        v = body.volume_exact()
        if v is not None:
            return Estimate(v, method=CLOSED_FORM)
        method = "quadrature" if body.dim in (2, 3) else "monte-carlo"
    if method == "closed-form":
        v = body.volume_exact()
        if v is None:
            raise ValueError(f"no closed-form volume for {body!r}")
        return Estimate(v, method=CLOSED_FORM)
    if method == "quadrature":
        rule = sphere_rule(body.dim, 1024 if body.dim == 2 else 128)
        r = 1.0 / body.gauge(rule.nodes)
        return quad_estimate(rule.integrate(r**body.dim) / body.dim)
    if method == "triangulation":
        if not isinstance(body, Polytope):
            raise ValueError("triangulation requires a polytope")
        S = body.vertices[body._simplices] - body.vertices.mean(axis=0)
        return quad_estimate(float(np.abs(np.linalg.det(S)).sum()) / math.factorial(body.dim))
    if method == "monte-carlo":
        gen = rngmod.substream(seed, "volume", body)
        R = body.bounding_radius

        def draw(gen, size):
            return body.contains(gen.uniform(-R, R, size=(size, body.dim))).astype(float)

        return from_samples(mc_draws(gen, budget, draw), scale=(2 * R) ** body.dim)
    raise ValueError(f"unknown method {method!r}")


def sample_uniform(body: ConvexBody, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Uniform samples from a body by rejection from its bounding box."""
    R = body.bounding_radius
    n = body.dim
    out = []
    got = 0
    tried = 0
    while got < size:
        batch = max(4 * (size - got), 1024)
        x = rng.uniform(-R, R, size=(batch, n))
        keep = x[body.contains(x)]
        out.append(keep)
        got += len(keep)
        tried += batch
        if tried > 10_000_000 and got == 0:
            raise RuntimeError("rejection sampling acceptance rate too low")
    return np.concatenate(out)[:size]
