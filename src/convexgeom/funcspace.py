"""Compactly supported functions and functional inequalities.

Functions carry evaluation, gradient and Hessian oracles together with
a bounding box outside which they vanish.  The extremal families (the
moment profile, the Sobolev profile and the level-set profile) are
built here, composed with body gauges and normalized by 1-D quadrature
so that the functional mixed volumes reproduce their set versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .bodies import ConvexBody
from .constants import (
    holder_conjugate,
    integrate_1d,
    lambda_admissible,
    levelset_constant,
    moment_profile,
    moment_profile_support,
    omega_n,
    sobolev_profile,
    sobolev_profile_deriv,
)
from .estimate import Estimate, from_samples, mc_direction_moments, mc_draws
from .functionals import (
    SurfaceMeasure,
    _moment_body,
    _normals,
    _simplex_moment,
    _weighted,
    moment_rule,
)
from .sphere import sample_sphere, sphere_rule

__all__ = [
    "CompactFunction",
    "Profile",
    "moment_extremal_profile",
    "sobolev_extremal_profile",
    "mollified_indicator_profile",
    "bump_profile",
    "radial_function",
    "radial_representative",
    "normalized_moment_extremal",
    "normalized_sobolev_extremal",
    "lp_norm",
    "dual_mixed_volume_f",
    "mixed_volume_f",
    "surface_measure_f",
    "polar_projection_norm",
    "I_p_functions",
    "N_p_function_body",
    "levelset_extremal",
    "levelset_check",
    "richardson",
]


@dataclass
class CompactFunction:
    """Nonnegative function with a declared bounding box.

    ``f`` is vectorized over (m, n) point arrays; ``grad`` returns
    (m, n), ``hess`` returns (m, n, n); both optional.  ``box`` is a
    half-width: the function vanishes outside [-box, box]^n.
    """

    f: callable
    dim: int
    box: float
    grad: callable | None = None
    hess: callable | None = None
    smoothness: str = "C2"
    sup: float | None = None
    label: str = "function"
    profile: "Profile | None" = None
    body: ConvexBody | None = None

    @property
    def is_radial(self) -> bool:
        """True when the function is a known composition of a 1-D profile
        with a body gauge; such functions admit separable quadrature and
        importance sampling, which is essential for heavy-tailed
        profiles where box Monte Carlo does not converge."""
        return self.profile is not None and self.body is not None

    def __call__(self, x):
        return self.f(np.atleast_2d(np.asarray(x, dtype=float)))

    @property
    def box_volume(self) -> float:
        return (2 * self.box) ** self.dim

    def sample_box(self, gen, size):
        return gen.uniform(-self.box, self.box, size=(size, self.dim))

    def gradient_check(self, gen, probes: int = 100, h: float = 1e-6) -> float:
        """Relative error of the gradient oracle against central finite
        differences at random interior points.

        Returns the largest over coordinates of the median error over
        probes: the median is immune to the occasional probe that lands
        within ``h`` of a curvature breakpoint of a piecewise profile,
        while a wrong oracle corrupts essentially every probe.
        """
        if self.grad is None:
            raise ValueError("no gradient oracle")
        x = gen.uniform(-0.7 * self.box, 0.7 * self.box, size=(probes, self.dim))
        g = self.grad(x)
        worst = 0.0
        scale = max(np.max(np.abs(g)), 1e-9)
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = h
            fd = (self(x + e) - self(x - e)) / (2 * h)
            worst = max(worst, float(np.median(np.abs(fd - g[:, j])) / scale))
        return worst

    def power(self, alpha: float) -> "CompactFunction":
        """Pointwise power of a radial composition, for the level-set
        reparameterization checks."""
        if not self.is_radial:
            raise ValueError(f"power of {self.label} needs a radial composition")
        return radial_function(self.profile.power(alpha), self.body)

    def box_mean(self, gen, budget: int, integrand) -> Estimate:
        """Box Monte Carlo: the integral of ``integrand(x)`` over the
        support box, from ``budget`` uniform points of the box."""

        def draw(gen, size):
            return integrand(self.sample_box(gen, size))

        return from_samples(mc_draws(gen, budget, draw), scale=self.box_volume)


@dataclass
class Profile:
    """1-D radial profile t >= 0 -> F(t) with optional derivatives.

    ``T`` is the support radius (may be inf); ``Ttrunc`` a finite
    truncation radius adequate for the integrals used here.
    """

    F: callable
    dF: callable | None = None
    d2F: callable | None = None
    T: float = 1.0
    Ttrunc: float = 1.0
    smoothness: str = "C2"
    label: str = "profile"

    def moment(self, k: float, power: float = 1.0, derivative: bool = False) -> float:
        """integral of t^k F(t)^power dt over the support; with
        ``derivative``, of t^k |F'(t)|^power dt."""
        F, dF = self.F, self.dF
        if derivative:
            if dF is None:
                raise ValueError(f"profile {self.label} has no derivative")
            integrand = lambda t: t**k * np.abs(dF(t)) ** power
        elif power == 1.0:
            integrand = lambda t: t**k * F(t)
        else:
            integrand = lambda t: t**k * F(t) ** power
        return integrate_1d(integrand, 0, self.Ttrunc)

    def power(self, alpha: float) -> "Profile":
        """Pointwise power F^alpha; its derivative vanishes where F does."""
        F, dF = self.F, self.dF
        dFa = None
        if dF is not None:
            dFa = lambda t: (alpha * np.where(F(t) > 0, F(t), 1.0) ** (alpha - 1)
                             * (F(t) > 0) * dF(t))
        return Profile(lambda t: F(t) ** alpha, dFa, None, self.T, self.Ttrunc,
                       self.smoothness, f"{self.label}^{alpha:g}")

    def scaled(self, a: float) -> "Profile":
        F, dF, d2F = self.F, self.dF, self.d2F
        return Profile(
            lambda t: a * F(t),
            None if dF is None else (lambda t: a * dF(t)),
            None if d2F is None else (lambda t: a * d2F(t)),
            self.T,
            self.Ttrunc,
            self.smoothness,
            f"{a:g}*{self.label}",
        )


def moment_extremal_profile(p: float, lam: float, n: int) -> Profile:
    """Radial profile of the moment-bound extremal family."""
    g = moment_profile(p, lam)
    T = math.inf if (lam != math.inf and lam < 1) else 1.0
    Ttr = moment_profile_support(p, lam, n)
    dF = None
    if lam != math.inf:
        e = 1.0 / (lam - 1.0)
        if lam > 1:

            def dF(t):
                t = np.abs(np.asarray(t, dtype=float))
                base = np.clip(1 - t**p, 0.0, None)
                safe = np.where(base > 0, base, 1.0)
                return -e * p * t ** (p - 1) * safe ** (e - 1) * (base > 0)

        else:

            def dF(t):
                t = np.abs(np.asarray(t, dtype=float))
                return e * p * t ** (p - 1) * (1 + t**p) ** (e - 1)

    smooth = "C0" if lam == math.inf else "C1"
    return Profile(lambda t: g(np.asarray(t, dtype=float)), dF, None, T, Ttr, smooth,
                   f"moment(p={p:g},lam={lam:g})")


def sobolev_extremal_profile(p: float, n: int) -> Profile:
    """Radial profile of the sharp-Sobolev extremal; indicator at p = 1."""
    if p == 1:
        F = sobolev_profile(1, n)
        return Profile(lambda t: F(np.asarray(t, dtype=float)), None, None, 1.0, 1.0,
                       "C0", "sobolev(p=1)")
    F = sobolev_profile(p, n)
    dF = sobolev_profile_deriv(p, n)
    # truncate where the p*-norm tail is negligible
    decay = (n - p) / (p - 1)
    T = 10.0
    pstar = n * p / (n - p)
    while T ** (n - pstar * decay) > 1e-10 and T < 1e9:
        T *= 2.0
    # subtract the cutoff value so the truncated profile stays continuous:
    # a sharp jump at T would carry a surface gradient term the radial
    # quadrature cannot see, and the truncated function would spuriously
    # dip below the sharp constant
    c = float(F(np.asarray([T], dtype=float))[0])

    def Ftr(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(F(np.minimum(t, T)) - c, 0.0)

    def dFtr(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < T, dF(t), 0.0)

    return Profile(
        Ftr,
        dFtr,
        None,
        math.inf,
        T,
        "C2",
        f"sobolev(p={p:g})",
    )


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return 6 * s**5 - 15 * s**4 + 10 * s**3


def _smoothstep_d(s):
    inside = (s > 0) & (s < 1)
    s = np.clip(s, 0.0, 1.0)
    return (30 * s**4 - 60 * s**3 + 30 * s**2) * inside


def _smoothstep_d2(s):
    inside = (s > 0) & (s < 1)
    s = np.clip(s, 0.0, 1.0)
    return (120 * s**3 - 180 * s**2 + 60 * s) * inside


def mollified_indicator_profile(width: float = 0.04) -> Profile:
    """C^2 step from 1 to 0 across [1 - width, 1]."""
    w = float(width)

    def F(t):
        t = np.abs(np.asarray(t, dtype=float))
        # 1 - smoothstep rounds to about -3e-15 just inside t = 1
        return np.maximum(1.0 - _smoothstep((t - (1 - w)) / w), 0.0)

    def dF(t):
        t = np.abs(np.asarray(t, dtype=float))
        return -_smoothstep_d((t - (1 - w)) / w) / w

    def d2F(t):
        t = np.abs(np.asarray(t, dtype=float))
        return -_smoothstep_d2((t - (1 - w)) / w) / w**2

    return Profile(F, dF, d2F, 1.0, 1.0, "C2", f"mollified(w={w:g})")


def bump_profile(k: int = 3, scale: float = 1.0) -> Profile:
    """Polynomial bump (1 - t^2)_+^k, C^{k-1} at the boundary."""

    def F(t):
        t = np.asarray(t, dtype=float)
        return scale * np.clip(1 - t**2, 0.0, None) ** k

    def dF(t):
        t = np.asarray(t, dtype=float)
        base = np.clip(1 - t**2, 0.0, None)
        return scale * (-2 * k) * t * base ** (k - 1)

    def d2F(t):
        t = np.asarray(t, dtype=float)
        base = np.clip(1 - t**2, 0.0, None)
        return scale * (-2 * k) * (base ** (k - 1) - 2 * (k - 1) * t**2 * base ** (k - 2))

    return Profile(F, dF, d2F, 1.0, 1.0, "C2", f"bump(k={k})")


def radial_function(profile: Profile, body: ConvexBody) -> CompactFunction:
    """Compose a 1-D profile with a body gauge: x -> F(gauge(x)).

    Gradient and Hessian oracles are available when the body exposes
    smooth gauge derivatives.
    """
    gfun = body.gauge
    ggrad = body.gauge_grad(np.ones((1, body.dim)))  # availability probe
    have_grad = ggrad is not None and profile.dF is not None

    def f(x):
        return profile.F(gfun(np.atleast_2d(x)))

    grad = None
    hess = None
    if have_grad:

        def grad(x):
            x = np.atleast_2d(x)
            g = gfun(x)
            return profile.dF(g)[:, None] * body.gauge_grad(x)

        if profile.d2F is not None and body.gauge_hess(np.ones((1, body.dim))) is not None:

            def hess(x):
                x = np.atleast_2d(x)
                g = gfun(x)
                dg = body.gauge_grad(x)
                outer = dg[:, :, None] * dg[:, None, :]
                return (
                    profile.d2F(g)[:, None, None] * outer
                    + profile.dF(g)[:, None, None] * body.gauge_hess(x)
                )

    box = profile.Ttrunc * body.bounding_radius
    supval = float(profile.F(np.array([0.0]))[0])
    return CompactFunction(
        f, body.dim, box, grad, hess, profile.smoothness, supval,
        f"{profile.label}.gauge[{body!r}]",
        profile, body,
    )


class _RadialBins:
    """Unbiased importance sampler for 1-D densities proportional to
    phi(s) on (0, T): sample a bin by its trapezoid mass, then uniformly
    inside it, and weight by the exact target over the proposal density.
    """

    def __init__(self, phi, T: float):
        edges = np.linspace(0.0, T, 4096 + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        mass = np.clip(phi(mids), 0.0, None) * np.diff(edges)
        total = mass.sum()
        if total <= 0:
            raise ValueError("density vanishes")
        self.phi = phi
        self.edges = edges
        self.prob = mass / total
        # proposal pdf inside bin i: prob[i] / width[i]
        self.pdf_bin = self.prob / np.diff(edges)

    def sample(self, gen, size):
        """Points and weights with E[psi(s) * w] = integral of psi * phi."""
        i = gen.choice(len(self.prob), size=size, p=self.prob)
        lo, hi = self.edges[i], self.edges[i + 1]
        s = gen.uniform(lo, hi)
        w = self.phi(s) / self.pdf_bin[i]
        return s, w


class _RadialSampler:
    """Importance sampler against a radial composition l = F(gauge(x))
    itself as a density: directions uniform on the sphere carry the
    weight n omega_n gauge(theta)^{-n}; radii come from _RadialBins.
    """

    def __init__(self, l: CompactFunction):
        prof, n = l.profile, l.dim
        self.body = l.body
        self.dim = n
        # the radial density in s = gauge(x), including the s^{n-1} area factor
        self.radial = _RadialBins(lambda s: s ** (n - 1) * prof.F(s), prof.Ttrunc)
        self.nw = n * omega_n(n)

    def sample(self, gen, size):
        """Points x and weights w with E[psi(x) w] equal to the integral
        of psi((s/g) theta) s^{n-1} F(s) g(theta)^{-n} over s and the sphere."""
        theta = sample_sphere(gen, self.dim, size)
        g = self.body.gauge(theta)
        s, ws = self.radial.sample(gen, size)
        r = s / g
        x = theta * r[:, None]
        # dx = r^{n-1} dr dtheta and r = s / g(theta) give the g^{-n} factor
        w = self.nw * g ** (-self.dim) * ws
        return x, w


def _gauge_sphere_integral(l: CompactFunction, fn) -> float:
    rule = sphere_rule(l.dim, 2048 if l.dim == 2 else 128)
    return rule.integrate(fn(rule.nodes))


def radial_representative(L: ConvexBody, p: float, profile: Profile | None = None) -> CompactFunction:
    """Radial function whose L_p surface measure equals that of the body:
    a C^2 bump profile rescaled so the derivative-moment normalization
    holds."""
    base = profile or bump_profile(3)
    norm = base.moment(L.dim - 1, p, derivative=True)
    a = norm ** (-1.0 / p)
    return radial_function(base.scaled(a), L)


def normalized_moment_extremal(K: ConvexBody, p: float, lam: float) -> CompactFunction:
    """Moment extremal composed with the body gauge, scaled so dual mixed
    volumes against any body reproduce those of the body itself."""
    n = K.dim
    _check_lambda(lam, n, p)
    prof = moment_extremal_profile(p, lam, n)
    mass = prof.moment(n + p - 1)
    a = 1.0 / ((n + p) * mass)
    return radial_function(prof.scaled(a), K)


def normalized_sobolev_extremal(K: ConvexBody, p: float, width: float = 0.04) -> CompactFunction:
    """Sobolev extremal composed with the body gauge, scaled so mixed
    volumes against any body reproduce those of the body itself.  The
    p = 1 indicator is replaced by a mollified step of the given width."""
    n = K.dim
    if not 1 <= p < n:
        raise ValueError("requires 1 <= p < n")
    prof = mollified_indicator_profile(width) if p == 1 else sobolev_extremal_profile(p, n)
    norm = prof.moment(n - 1, p, derivative=True)
    a = norm ** (-1.0 / p)
    return radial_function(prof.scaled(a), K)


def _check_lambda(lam: float, n: int, p: float):
    if not lambda_admissible(lam, n, p):
        raise ValueError(f"lambda={lam} outside (n/(n+p), 1) u (1, inf]")


# ---------------------------------------------------------------------------
# norms and pairings


def _profile_decreasing(l: CompactFunction, probes: int = 512) -> bool:
    prof = l.profile
    if prof.dF is None:
        return False
    t = np.linspace(0, prof.Ttrunc, probes + 1)[1:]
    return bool(np.all(prof.dF(t) <= 1e-12))


def lp_norm(
    l: CompactFunction,
    lam: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """(integral of l^lam)^(1/lam); the declared supremum at lam = inf.

    Radial compositions are evaluated by separable quadrature (profile
    moment times a spherical gauge integral); generic functions by box
    Monte Carlo.
    """
    if lam == math.inf:
        if l.sup is None:
            raise ValueError(f"lp_norm at lam=inf needs the supremum of {l.label}")
        return Estimate(float(l.sup))
    if lam <= 0:
        raise ValueError("lam must be positive or inf")
    n = l.dim
    if l.is_radial:
        radial = l.profile.moment(n - 1, lam)
        sphere = _gauge_sphere_integral(l, lambda u: l.body.gauge(u) ** (-n))
        return Estimate(radial * sphere, 0.0, 0, "quadrature") ** (1.0 / lam)
    gen = rngmod.substream(seed, "lpnorm", lam, l)
    return l.box_mean(gen, budget, lambda x: l(x) ** lam) ** (1.0 / lam)


def dual_mixed_volume_f(
    f: CompactFunction,
    L: ConvexBody,
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """(n+p)/n times the integral of f(x) * gauge_L(x)^p.

    For a radial composition f = F(gauge_K) the integral separates into
    the (n+p-1)-moment of F times the spherical integral of
    gauge_L^p gauge_K^{-(n+p)}; other functions use box Monte Carlo.
    """
    n = f.dim
    if f.is_radial:
        radial = f.profile.moment(n + p - 1)
        sphere = _gauge_sphere_integral(
            f, lambda u: L.gauge(u) ** p * f.body.gauge(u) ** (-(n + p))
        )
        return Estimate(radial * sphere * (n + p) / n, 0.0, 0, "quadrature")
    gen = rngmod.substream(seed, "dmvf", p, f, L)
    return f.box_mean(gen, budget, lambda x: f(x) * L.gauge(x) ** p) * ((n + p) / n)


def mixed_volume_f(
    f: CompactFunction,
    K: ConvexBody,
    p: float,
    budget: int = 100_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """(1/n) times the integral of h_K(-grad f)^p.

    Radial compositions with decreasing profiles separate into the
    derivative moment of the profile times a spherical integral of
    h_K(grad gauge)^p gauge^{-n}; other functions use box Monte Carlo.
    """
    if f.grad is None:
        raise ValueError("mixed volume of a function needs its gradient")
    n = f.dim
    if f.is_radial and _profile_decreasing(f):
        radial = f.profile.moment(n - 1, p, derivative=True)

        def integrand(u):
            dg = f.body.gauge_grad(u)
            return K.support(dg) ** p * f.body.gauge(u) ** (-n)

        return Estimate(radial * _gauge_sphere_integral(f, integrand) / n, 0.0, 0, "quadrature")
    gen = rngmod.substream(seed, "mvf", p, f, K)

    def integrand(x):
        g = -f.grad(x)
        ok = np.linalg.norm(g, axis=1) > 0
        h = np.zeros(len(x))
        if ok.any():
            h[ok] = K.support(g[ok]) ** p
        return h

    return f.box_mean(gen, budget, integrand) * (1.0 / n)


def surface_measure_f(f: CompactFunction, p: float) -> SurfaceMeasure:
    """Pushforward L_p surface measure of a function: weighted samples of
    the negative gradient direction with weight |grad|^p.

    Radial compositions with decreasing profiles get an exact-weight
    sampler: directions are gauge gradients at uniform sphere points and
    the radial factor integrates out by quadrature.
    """
    if f.grad is None:
        raise ValueError("surface measure of a function needs its gradient")
    if f.is_radial and _profile_decreasing(f):
        n = f.dim
        body = f.body
        Zp = f.profile.moment(n - 1, p, derivative=True)
        nw = n * omega_n(n)

        def sampler(gen, size):
            theta = sample_sphere(gen, n, size)
            dg = body.gauge_grad(theta)
            norms = np.linalg.norm(dg, axis=1)
            dirs = dg / norms[:, None]
            w = nw * Zp * body.gauge(theta) ** (-n) * norms**p
            return dirs, w

        return SurfaceMeasure("pushforward", n, sampler=sampler, label=f"{f.label}|p={p}")

    def sampler(gen, size):
        x = f.sample_box(gen, size)
        g = -f.grad(x)
        norms = np.linalg.norm(g, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        dirs = g / safe[:, None]
        dirs[norms == 0] = np.eye(f.dim)[0]
        w = norms**p * f.box_volume
        return dirs, w

    return SurfaceMeasure("pushforward", f.dim, sampler=sampler, label=f"{f.label}|p={p}")


def polar_projection_norm(f: CompactFunction, p: float, budget: int, seed: int) -> Estimate:
    """(integral over the sphere of m(xi)^{-n/p})^{-1/n} where
    m(xi) = integral of |<grad f, xi>|^p."""
    n = f.dim
    rule = moment_rule(n)
    sm = surface_measure_f(f, p)
    gen = rngmod.substream(seed, "polar-proj", p, f)
    m, sem, total = mc_direction_moments(gen, budget, rule.nodes, p, sm.sample)
    integral = rule.integrate(m ** (-n / p))
    val = integral ** (-1.0 / n)
    # d val / d m_j = val / n * (n/p) * w_j m_j^{-n/p-1} / integral
    grad = val / p * rule.weights * m ** (-n / p - 1) / integral
    err = float(np.sqrt(np.sum((grad * sem) ** 2)))
    return Estimate(val, err, total, "monte-carlo")


# ---------------------------------------------------------------------------
# functional random-simplex operations


def _density_draw(ls: list[CompactFunction]):
    """Draw of weighted points with the functions as densities, and the
    scale of the weighted mean.  Radial compositions are
    importance-sampled (scale 1); otherwise points are uniform on the
    boxes and weighted by the function values."""
    if all(l.is_radial for l in ls):
        return _weighted([_RadialSampler(l).sample for l in ls]), 1.0

    def draw(gen, size):
        pts = [l.sample_box(gen, size) for l in ls]
        return pts, np.prod([l(x) for l, x in zip(ls, pts)], axis=0)

    return draw, float(np.prod([l.box_volume for l in ls]))


def I_p_functions(
    ls: list[CompactFunction],
    p: float,
    budget: int = 200_000,
    seed: int = rngmod.DEFAULT_SEED,
) -> Estimate:
    """Random-simplex moment with density weights: the integral of
    l_1(x_1) ... l_n(x_n) D_n(x_1..x_n)^p over the product of boxes."""
    n = ls[0].dim
    if len(ls) != n:
        raise ValueError("need n functions of n variables")
    gen = rngmod.substream(seed, "I_p_f", p, *ls)
    draw, scale = _density_draw(ls)
    return _simplex_moment(gen, budget, p, draw, scale)


def N_p_function_body(
    ls: list[CompactFunction],
    p: float,
    budget: int = 200_000,
    seed: int = rngmod.DEFAULT_SEED,
):
    """Moment body of n-1 weight functions: support^p is the weighted
    partial random-simplex integral with one free direction."""
    n = ls[0].dim
    if len(ls) != n - 1:
        raise ValueError("need n - 1 functions")
    rule = moment_rule(n)
    gen = rngmod.substream(seed, "N_p_f", p, *ls)
    draw, scale = _density_draw(ls)
    mean, sem, total = mc_direction_moments(gen, budget, rule.nodes, p, _normals(draw))
    mean, sem = mean * scale, sem * scale
    return _moment_body(rule, p, mean, sem, mean, total)


# ---------------------------------------------------------------------------
# the 1-D level-set lemma


def levelset_extremal(lam: float, n: int, p: float):
    """Profile achieving equality in the level-set bound."""
    _check_lambda(lam, n, p)
    if lam == math.inf:
        return lambda t: np.where((0 <= np.asarray(t)) & (np.asarray(t) <= 1), 1.0, 0.0)
    if lam > 1:
        return lambda t: np.clip(1 - np.asarray(t, dtype=float) ** (lam - 1), 0, None) ** (n / p)
    return lambda t: np.clip(np.asarray(t, dtype=float) ** (lam - 1) - 1, 0, None) ** (n / p)


def levelset_check(
    g, n: int, p: float, lam: float, T: float = 1.0, ess_sup: float | None = None
) -> float:
    """Ratio LHS/RHS of the level-set inequality for a 1-D function
    supported on [0, T]; contract: >= 1, with 1 at the extremal.

    ``g`` is vectorised: it maps an array of t to their values."""
    _check_lambda(lam, n, p)
    gs = lambda t: np.broadcast_to(np.asarray(g(t), dtype=float), t.shape)
    lhs_int = integrate_1d(lambda t: gs(t) ** ((n + p) / n), 0, T)
    G = integrate_1d(gs, 0, T)
    if G <= 0:
        raise ValueError("function must be nonzero")
    lhs = lhs_int ** (n / (n + p))
    if lam == math.inf:
        S = ess_sup if ess_sup is not None else T
        rhs = S ** (-p / (n + p)) * G
        return lhs / rhs
    M = integrate_1d(lambda t: gs(t) * t ** (lam - 1), 0, T)
    lamp = holder_conjugate(lam)
    rhs = (
        levelset_constant(n, p, lam)
        * M ** (-p / ((n + p) * (lam - 1)))
        * G ** ((n + p * lamp) / (n + p))
    )
    return lhs / rhs


def richardson(values, widths) -> float:
    """Extrapolate mollification-width results to width zero, assuming a
    leading error linear in the width (linear fit intercept)."""
    w = np.asarray(widths, dtype=float)
    v = np.asarray(values, dtype=float)
    coef = np.polyfit(w, v, 1)
    return float(coef[-1])
