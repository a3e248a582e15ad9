"""Sharp constants, closed-form or derived from equality cases.

Constants that the literature only gives by reference are never
transcribed from outside sources: they are derived inside the package
from their defining equality cases on balls, either in closed form
(gamma functions from ``math``) or by 1-D radial quadrature, and carry
their provenance in their records.  One-dimensional quadratures are the
precision anchor.  Every one of them, here and in ``funcspace``, goes
through :func:`integrate_1d`, the package's own vectorised, globally
adaptive Gauss-Legendre rule, which targets a relative error of
``QUAD_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .estimate import CLOSED_FORM, QUADRATURE

QUAD_TOL = 1e-10  # relative to the integral of |f|

# 10/21-point Gauss-Legendre pair on [-1, 1]: the 21-point sum is the
# value, its distance to the 10-point sum the error estimate
_X21, _W21 = np.polynomial.legendre.leggauss(21)
_X10, _W10 = np.polynomial.legendre.leggauss(10)
_NODES = np.concatenate([_X21, _X10])
# starting partition of the map variable u in [0, 1], graded toward
# u = 0 down to 2^-20; toward u = 1 equally deep for an infinite upper
# limit, but only to 2^-8 for a finite one, where t = b - 3(b-a)(1-u)^2
# would round to b and an integrable singularity there would be lost
_LEFT = np.concatenate([[0.0], 4.0 ** -np.arange(10, 0, -1), [0.5]])
_EDGES_FINITE = np.concatenate([_LEFT, 1 - 4.0 ** -np.arange(1, 5), [1.0]])
_EDGES_INFINITE = np.concatenate([_LEFT, 1 - 4.0 ** -np.arange(1, 11), [1.0]])
_MAX_INTERVALS = 2000


def integrate_1d(f, a: float, b: float) -> float:
    """Integral of ``f`` over [a, b], where b may be infinite.

    ``f`` is vectorised: it maps a 1-D array of points to their values,
    and each pass calls it once, on the nodes of every interval still
    being refined.  The variable is u in [0, 1] with
    t = a + (b-a)(3u^2 - 2u^3), or t = a + phi/(1-phi) with
    phi = 3u^2 - 2u^3 when b is infinite, so algebraic endpoint
    singularities and tails become smooth in u.  Each interval gets a
    10/21-point Gauss-Legendre pair; the sweep stops once the summed
    error estimates are at most ``QUAD_TOL`` times the integral of |f|,
    and otherwise bisects every interval above its share of that bound.

    Raises ``ValueError``, naming the interval in t, on a non-finite
    value, on an interval too narrow to bisect, or past
    ``_MAX_INTERVALS`` intervals; it never returns an unconverged value.
    """
    a, b = float(a), float(b)
    infinite = b == math.inf
    edges = _EDGES_INFINITE if infinite else _EDGES_FINITE

    def to_t(u):
        phi = u * u * (3 - 2 * u)
        if infinite:
            rest = (1 - u) ** 2 * (1 + 2 * u)  # 1 - phi without cancellation
            return a + phi / rest, 6 * u * (1 - u) / (rest * rest)
        return a + (b - a) * phi, 6 * (b - a) * u * (1 - u)

    def span(lo, hi) -> str:
        with np.errstate(divide="ignore", invalid="ignore"):  # t = inf at u = 1
            t = to_t(np.array([lo, hi]))[0]
        return f"[{t[0]:.17g}, {t[1]:.17g}]"

    lo, hi = edges[:-1], edges[1:]
    done = np.empty((0, 5))  # lo, hi, value, error, integral of |f|
    while True:
        half = 0.5 * (hi - lo)
        t, jac = to_t((lo + half)[:, None] + half[:, None] * _NODES)
        y = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape) * jac
        g21 = half * (y[:, :21] @ _W21)
        g10 = half * (y[:, 21:] @ _W10)
        bad = ~np.isfinite(g21 + g10)
        if bad.any():
            raise ValueError(f"integrand not finite on {span(lo[bad][0], hi[bad][0])}")
        new = np.stack([lo, hi, g21, np.abs(g21 - g10), half * (np.abs(y[:, :21]) @ _W21)], 1)
        cur = np.concatenate([done, new])
        bound = QUAD_TOL * math.fsum(cur[:, 4])
        if math.fsum(cur[:, 3]) <= bound:
            return math.fsum(cur[:, 2])
        split = cur[:, 3] > bound / len(cur)
        lo, hi = cur[split, 0], cur[split, 1]
        mid = 0.5 * (lo + hi)
        narrow = (mid <= lo) | (mid >= hi)
        if narrow.any():
            raise ValueError(f"cannot bisect {span(lo[narrow][0], hi[narrow][0])} further")
        if len(cur) + len(mid) > _MAX_INTERVALS:
            worst = np.argmax(cur[:, 3])
            raise ValueError(f"no convergence within {_MAX_INTERVALS} intervals; worst "
                             f"error on {span(cur[worst, 0], cur[worst, 1])}")
        done = cur[~split]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])


def _beta(x: float, y: float) -> float:
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def omega_n(n: int) -> float:
    """Volume of the unit euclidean ball in dimension n: pi^k / k! for
    n = 2k and 2 (2 pi)^k / n!! for n = 2k + 1, so omega_1 is exactly 2."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    k, odd = divmod(n, 2)
    if odd:
        return 2 * (2 * math.pi) ** k / math.prod(range(1, n + 1, 2))
    return math.pi**k / math.factorial(k)


def petty_bound(n: int) -> float:
    """Conjectured sharp lower bound for vol(L)^(1-n) vol(Pi L)."""
    return (omega_n(n - 1) / omega_n(n)) ** n * omega_n(n) ** 2


def holder_conjugate(lam: float) -> float:
    """lam / (lam - 1); infinity maps to 1.  Negative for lam < 1."""
    if lam == math.inf:
        return 1.0
    if lam == 1.0:
        raise ValueError("conjugate undefined at 1")
    return lam / (lam - 1.0)


def lambda_admissible(lam: float, n: int, p: float) -> bool:
    """True for the Orlicz parameters of the functional bounds:
    lam = inf or lam in (n/(n+p), 1) u (1, inf)."""
    return lam == math.inf or n / (n + p) < lam < 1 or 1 < lam < math.inf


@dataclass
class ConstantRecord:
    name: str
    params: dict
    value: float
    provenance: str  # the method tag: "closed-form" or "quadrature"
    oracle: str = ""

    def to_json(self) -> dict:
        # strict JSON: an infinite parameter is written "inf", as in reports
        out = asdict(self)
        out["params"] = {k: "inf" if v == math.inf else v for k, v in self.params.items()}
        return out


class ConstantCache:
    """Content-addressed cache of constant records."""

    def __init__(self):
        self._store: dict[tuple, ConstantRecord] = {}

    def key(self, name, **params):
        return (name, tuple(sorted((k, v) for k, v in params.items())))

    def get_or_compute(self, name, compute, **params) -> ConstantRecord:
        k = self.key(name, **params)
        if k not in self._store:
            self._store[k] = compute()
        return self._store[k]

    def records(self) -> list[ConstantRecord]:
        return list(self._store.values())


_CACHE = ConstantCache()


# ---------------------------------------------------------------------------
# closed-form / quadrature constants


def c_np(n: int, p: float) -> ConstantRecord:
    """Normalizer making the p-th centroid body of the ball the ball itself.

    c_{n,p} = omega_n^{-1} * integral over the unit ball of |x_1|^p
            = omega_{n-1} * B((p+1)/2, (n+1)/2) / omega_n  (slice the ball).
    """

    def compute():
        w = omega_n(n - 1) if n >= 2 else 1.0
        return ConstantRecord(
            "c_np",
            {"n": n, "p": p},
            w * _beta((p + 1) / 2, (n + 1) / 2) / omega_n(n),
            CLOSED_FORM,
            "beta function of the ball slice integral",
        )

    return _CACHE.get_or_compute("c_np", compute, n=n, p=p)


def moment_profile(p: float, lam: float):
    """1-D moment-extremal profile: the function whose composition with a
    gauge is the equality case of the dual-mixed-volume moment bound."""
    if lam == math.inf:
        return lambda t: np.where(np.abs(t) <= 1.0, 1.0, 0.0)
    if lam > 1:
        return lambda t: np.clip(1.0 - np.abs(t) ** p, 0.0, None) ** (1.0 / (lam - 1))
    return lambda t: (1.0 + np.abs(t) ** p) ** (1.0 / (lam - 1))


def moment_profile_support(p: float, lam: float, n: int) -> float:
    """Truncation radius for the profile (exact 1 for lam >= 1 branches)."""
    if lam == math.inf or lam > 1:
        return 1.0
    # decay t^{p/(lam-1)}: pick T so the n+p-moment tail is negligible
    decay = p / (1 - lam)  # positive
    T = 10.0
    while T ** (n + p - decay) / max(decay - n - p, 1e-9) > 1e-12 and T < 1e8:
        T *= 2.0
    return T


def moment_constant(n: int, p: float, lam: float) -> ConstantRecord:
    """Sharp constant of the functional dual-mixed-volume (moment) bound,
    derived by evaluating the bound at its radial extremal on the ball.

    Exactly 1 at lam = infinity.
    """

    def compute():
        if lam == math.inf:
            return ConstantRecord(
                "moment_constant",
                {"n": n, "p": p, "lam": lam},
                1.0,
                CLOSED_FORM,
                "indicator extremal, exact",
            )
        lamp = holder_conjugate(lam)
        g = moment_profile(p, lam)
        T = np.inf if lam < 1 else 1.0
        r1 = integrate_1d(lambda r: r ** (n - 1) * g(r), 0, T)
        rl = integrate_1d(lambda r: r ** (n - 1) * g(r) ** lam, 0, T)
        rp = integrate_1d(lambda r: r ** (n + p - 1) * g(r), 0, T)
        nw = n * omega_n(n)
        vtil = (n + p) / n * nw * rp
        l1 = nw * r1
        llam = (nw * rl) ** (1.0 / lam)
        value = vtil / (
            l1 ** ((n + p * lamp) / n)
            * llam ** (-p * lamp / n)
            * omega_n(n) ** (-p / n)
        )
        return ConstantRecord(
            "moment_constant",
            {"n": n, "p": p, "lam": lam},
            value,
            QUADRATURE,
            "radial quadrature of the moment bound at its ball extremal",
        )

    return _CACHE.get_or_compute("moment_constant", compute, n=n, p=p, lam=lam)


def sobolev_profile(p: float, n: int):
    """Radial profile of the sharp-Sobolev extremal; indicator at p = 1."""
    if p == 1:
        return lambda t: np.where(np.abs(t) <= 1.0, 1.0, 0.0)
    if not 1 < p < n:
        raise ValueError("sobolev profile needs 1 <= p < n")
    return lambda t: (1.0 + np.abs(t) ** (p / (p - 1))) ** (1.0 - n / p)


def sobolev_profile_deriv(p: float, n: int):
    if p == 1:
        raise ValueError("indicator profile has no pointwise derivative")
    q = p / (p - 1)
    c = (1.0 - n / p) * q
    return lambda t: c * np.abs(t) ** (q - 1) * (1.0 + np.abs(t) ** q) ** (-n / p) * np.sign(t)


def cnv_np(n: int, p: float) -> ConstantRecord:
    """Sharp constant of the functional mixed-volume (Sobolev) bound,
    derived by evaluating the bound at its radial extremal on the ball.

    Exactly 1 at p = 1 (isoperimetry).
    """

    def compute():
        if p == 1:
            return ConstantRecord(
                "cnv_np", {"n": n, "p": p}, 1.0, CLOSED_FORM, "indicator extremal, exact"
            )
        F = sobolev_profile(p, n)
        dF = sobolev_profile_deriv(p, n)
        pstar = n * p / (n - p)
        grad_int = integrate_1d(lambda r: r ** (n - 1) * np.abs(dF(r)) ** p, 0, math.inf)
        norm_int = integrate_1d(lambda r: r ** (n - 1) * F(r) ** pstar, 0, math.inf)
        nw = n * omega_n(n)
        lhs = (1.0 / n) * nw * grad_int
        rhs = (nw * norm_int) ** (p / pstar) * omega_n(n) ** (p / n)
        return ConstantRecord(
            "cnv_np",
            {"n": n, "p": p},
            lhs / rhs,
            QUADRATURE,
            "radial quadrature of the Sobolev bound at its ball extremal",
        )

    return _CACHE.get_or_compute("cnv_np", compute, n=n, p=p)


def sobolev_constant(n: int, p: float) -> ConstantRecord:
    """Euclidean sharp Sobolev constant (n * cnv * omega_n^{p/n})^{-1/p}."""

    def compute():
        cnv = cnv_np(n, p)
        val = (n * cnv.value * omega_n(n) ** (p / n)) ** (-1.0 / p)
        return ConstantRecord(
            "sobolev_constant", {"n": n, "p": p}, val, cnv.provenance, "from cnv_np"
        )

    return _CACHE.get_or_compute("sobolev_constant", compute, n=n, p=p)


def levelset_constant(n: int, p: float, lam: float) -> float:
    """Sharp constant of the 1-D level-set inequality.

    Closed form via Gamma functions (log-gamma differences, so that lam
    near 1 does not overflow); the profile-integral factor enters
    to the power p/(n+p), matching the r-minimization in the proof of
    the bound (and the equality case at the extremal profile).
    """
    b = p / (n + p)
    if lam == math.inf:
        raise ValueError("lam = inf uses the essential-support form, no constant")
    if not lambda_admissible(lam, n, p):
        raise ValueError("lam outside the admissible range")
    if lam < 1:
        return (
            (1 - lam)
            * (p / (n + p)) ** (p / ((lam - 1) * (n + p)))
            * (lam - n / (n + p)) ** ((n - lam * (n + p)) / ((lam - 1) * (n + p)))
            * math.exp(b * (math.lgamma(1 / (1 - lam)) - math.lgamma(n / p + 2)
                            - math.lgamma(lam / (1 - lam) - n / p)))
        )
    return (
        (lam - 1)
        * (p / (n + p)) ** (p / ((lam - 1) * (n + p)))
        * (lam + p / (n + p) - 1) ** ((-lam * n + n - lam * p) / ((lam - 1) * (n + p)))
        * math.exp(b * (math.lgamma(n / p + 1 / (lam - 1) + 2) - math.lgamma(lam / (lam - 1))
                        - math.lgamma(n / p + 2)))
    )


def levelset_constant_minimized(n: int, p: float, lam: float) -> float:
    """Independent oracle: minimize the proof's r-parameterized bound."""
    from scipy.optimize import minimize_scalar

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


# ---------------------------------------------------------------------------
# random-simplex constants


def _sphere_det_moment(n: int, p: float) -> float:
    """E|det(u_1, ..., u_n)|^p for i.i.d. uniform directions u_i.

    Writing each direction as a Gaussian vector over its norm,
    prod_{i=1..n} Gamma((i+p)/2)/Gamma(i/2) * [Gamma(n/2)/Gamma((n+p)/2)]^n
    (R. E. Miles, "Isotropic random simplices", Adv. Appl. Prob. 3, 1971).
    """
    log_s = sum(math.lgamma((i + p) / 2) - math.lgamma(i / 2) for i in range(1, n + 1))
    log_s += n * (math.lgamma(n / 2) - math.lgamma((n + p) / 2))
    return math.exp(log_s)


def b_np(n: int, p: float) -> ConstantRecord:
    """Sharp random-simplex constant from the ball equality case:
    b = I_p(B, ..., B) / omega_n^{n+p}.

    A uniform point of B is a direction times an independent radius with
    E r^p = n/(n+p), so b = (n/(n+p))^n * E|det(u_1..u_n)|^p / omega_n^p.
    """

    def compute():
        val = (n / (n + p)) ** n * _sphere_det_moment(n, p) / omega_n(n) ** p
        return ConstantRecord(
            "b_np", {"n": n, "p": p}, val, CLOSED_FORM,
            "random-simplex moment on balls, gamma functions",
        )

    return _CACHE.get_or_compute("b_np", compute, n=n, p=p)


def b_np_dual(n: int, p: float) -> ConstantRecord:
    """Conjectural dual constant from the ball case:
    bbar = Itilde_p(B, ..., B) / omega_n^{n-p}
         = (n omega_n)^n * E|det(u_1..u_n)|^p / omega_n^{n-p}."""

    def compute():
        val = (n * omega_n(n)) ** n * _sphere_det_moment(n, p) / omega_n(n) ** (n - p)
        return ConstantRecord(
            "b_np_dual", {"n": n, "p": p}, val, CLOSED_FORM,
            "dual random-simplex moment on ball surface measures, gamma functions",
        )

    return _CACHE.get_or_compute("b_np_dual", compute, n=n, p=p)


def derived_constants(n: int, p: float, lam: float | None = None) -> dict[str, ConstantRecord]:
    """Arithmetic combinations of the base constants.

    Returns records for a_np (isoperimetric), btilde_np (dual
    random-simplex), A/B (functional forms, when lam is given), the
    Sobolev constant and the conjectured projection bound.
    """
    b = b_np(n, p)
    out: dict[str, ConstantRecord] = {"b_np": b}

    a = ((n + p) / n * b.value) ** (-n / p)
    out["a_np"] = ConstantRecord("a_np", {"n": n, "p": p}, a, CLOSED_FORM, "from b_np")
    bt = b.value * ((n + p) ** n / n ** (n + p))
    out["btilde_np"] = ConstantRecord(
        "btilde_np", {"n": n, "p": p}, bt, CLOSED_FORM, "from b_np"
    )
    out["petty_bound"] = ConstantRecord(
        "petty_bound", {"n": n}, petty_bound(n), CLOSED_FORM, "gamma functions"
    )
    if p < n:
        out["S_np"] = sobolev_constant(n, p)
    if lam is not None:
        ct = moment_constant(n, p, lam)
        # the moment-constant factor enters once per reduced argument
        # (n-1 reductions), exponent -n(n-1)/p
        A = a * ct.value ** (-n * (n - 1) / p)
        out["A_nplam"] = ConstantRecord(
            "A_nplam",
            {"n": n, "p": p, "lam": lam},
            A,
            ct.provenance,
            "a_np * moment_constant^{-n(n-1)/p}",
        )
        B = (n / (n + p)) * ct.value * A ** (-p / n)
        out["B_nplam"] = ConstantRecord(
            "B_nplam",
            {"n": n, "p": p, "lam": lam},
            B,
            ct.provenance,
            "n/(n+p) * moment_constant * A^{-p/n}",
        )
    return out


def rsid_f_constant(n: int, p: float, alpha: float) -> ConstantRecord:
    """Constant of the functional dual random-simplex bound:
    b_np * (n+p)^n * (alpha^{p/((n+p)(alpha-1))} L_{n,p,lam} / n)^{n+p}
    with lam = 1 + (alpha-1)(n+1) p / (n+p)."""
    lam = reparam_alpha_to_lambda(alpha, n, p)
    b = b_np(n, p).value
    # the (n+p)^n factor comes from the star-body change of variables; the
    # alpha = inf limit then reduces exactly to the set-version constant.
    # The alpha prefactor per function is alpha^{p/((n+p)(alpha-1))}: the
    # level-moment substitution gives int Omega_p(l^a, s) ds =
    # alpha^{(n+1)p/(n+p)} int Omega_p(l, t) t^{lam-1} dt, and raising that
    # to the lemma exponent -(p/(n+p))/(lam-1) leaves exactly this power.
    if alpha == math.inf:
        val = b * ((n + p) ** n / n ** (n + p))
    else:
        L = levelset_constant(n, p, lam)
        pref = alpha ** (p / ((n + p) * (alpha - 1.0)))
        val = b * (n + p) ** n * (pref * L / n) ** (n + p)
    return ConstantRecord(
        "rsid_f_constant",
        {"n": n, "p": p, "alpha": alpha},
        val,
        CLOSED_FORM,
        "b_np combined with the level-set constant",
    )


def reparam_alpha_to_lambda(alpha: float, n: int, p: float) -> float:
    """lam = 1 + (alpha - 1)(n+1) p / (n+p); traceable helper."""
    if alpha == math.inf:
        return math.inf
    return 1.0 + (alpha - 1.0) * (n + 1) * p / (n + p)


def reparam_lambda_to_alpha(lam: float, n: int, p: float) -> float:
    """alpha = 1 + (lam - 1)(n+p) / ((n+1) p), the inverse reparameterization."""
    if lam == math.inf:
        return math.inf
    return 1.0 + (lam - 1.0) * (n + p) / ((n + 1) * p)


def cache() -> ConstantCache:
    return _CACHE
