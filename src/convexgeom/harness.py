"""Inequality registry, corpora, verification runner and report emission.

Every registered case computes a ratio LHS/RHS (with propagated
standard error) for one display of the theory: relation ``ge`` passes
iff ratio >= 1 - 3 sigma, relation ``eq`` iff |ratio - 1| <= 3 sigma,
and ``probe`` cases (the open problems) are reported but never
asserted.
"""

from __future__ import annotations

import contextvars
import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .bodies import (
    Ball,
    ConvexBody,
    Cube,
    Ellipsoid,
    LqBall,
    Polytope,
    standard_simplex,
    volume,
)
from .constants import (
    b_np,
    b_np_dual,
    cnv_np,
    derived_constants,
    holder_conjugate,
    lambda_admissible,
    moment_constant,
    omega_n,
    petty_bound,
    reparam_lambda_to_alpha,
    rsid_f_constant,
)
from .dualtheory import (
    I_tilde_p,
    I_tilde_p_functions,
    omega_p,
    omega_p_function,
    omega_p_radial,
)
from .estimate import MONTE_CARLO, Estimate, power_product, product
from .funcspace import (
    CompactFunction,
    I_p_functions,
    N_p_function_body,
    Profile,
    bump_profile,
    dual_mixed_volume_f,
    levelset_check,
    levelset_extremal,
    lp_norm,
    mixed_volume_f,
    mollified_indicator_profile,
    normalized_moment_extremal,
    normalized_sobolev_extremal,
    polar_projection_norm,
    radial_function,
)
from .functionals import (
    I_p,
    N_p_body,
    centroid_body,
    dual_mixed_volume,
    equivalence_check,
    mixed_volume,
    projection_body,
)

__all__ = [
    "RunConfig",
    "CaseResult",
    "Report",
    "InequalityCase",
    "REGISTRY",
    "case_ids",
    "corpus",
    "function_corpus",
    "run",
    "emit",
    "sweep",
    "sweep_configs",
    "emit_sweep",
]


EQ_ATOL = 1e-6  # tolerance absorbing quadrature truncation in eq/ge gates
CORPORA = ("standard", "smooth")


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class RunConfig:
    corpus: str = "standard"
    n: int = 2
    p: float = 2.0
    lam: float = 2.0
    samples: int = 1 << 16
    seed: int = rngmod.DEFAULT_SEED
    target_rel_stderr: float = 0.01
    max_doublings: int = 3
    cases: list[str] | None = None

    def __post_init__(self):
        # flags, --config JSON and --sweep values all arrive here
        if not (type(self.n) is int and self.n in (2, 3)):
            raise ValueError(f"config n must be 2 or 3, got {self.n!r}")
        if not (_is_real(self.p) and 1 <= self.p < math.inf):
            raise ValueError(f"config p must be a finite number >= 1, got {self.p!r}")
        if not (_is_real(self.lam) and lambda_admissible(self.lam, self.n, self.p)):
            raise ValueError(
                f"config lam must be inf or in (n/(n+p), 1) u (1, inf) = "
                f"({self.n / (self.n + self.p):g}, 1) u (1, inf), got {self.lam!r}"
            )
        if not (type(self.samples) is int and self.samples >= 1):
            raise ValueError(f"config samples must be an integer >= 1, got {self.samples!r}")
        if not (type(self.max_doublings) is int and self.max_doublings >= 0):
            raise ValueError(
                f"config max_doublings must be an integer >= 0, got {self.max_doublings!r}"
            )
        if not (_is_real(self.target_rel_stderr) and 0 < self.target_rel_stderr < math.inf):
            raise ValueError(
                "config target_rel_stderr must be a finite number > 0, "
                f"got {self.target_rel_stderr!r}"
            )
        if self.corpus not in CORPORA:
            raise ValueError(f"config corpus must be one of {CORPORA}, got {self.corpus!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(d) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        d = dict(d)
        if "lam" in d and d["lam"] in ("inf", "infinity"):
            d["lam"] = math.inf
        return cls(**d)


@dataclass
class CaseResult:
    id: str
    instance: str
    n: int
    p: float
    lam: float | str
    ratio: float
    stderr: float
    status: str
    seed: int
    samples: int
    wall_time: float = 0.0

    def csv_row(self):
        lam = "" if self.lam == "" else f"{self.lam:.6g}"
        return [
            self.id,
            str(self.n),
            f"{self.p:.6g}",
            lam,
            f"{self.ratio:.10g}",
            f"{self.stderr:.6g}",
            self.status,
            str(self.seed),
            str(self.samples),
        ]


@dataclass
class Report:
    config: RunConfig
    results: list[CaseResult]
    # instances not evaluated, each {"id", "instance", "reason"}
    skipped: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> list[CaseResult]:
        return [r for r in self.results if r.status == "fail"]

    def summary(self) -> dict:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    def to_json(self) -> dict:
        cfg = dict(self.config.__dict__)
        if cfg.get("lam") == math.inf:
            cfg["lam"] = "inf"
        return {
            "config": cfg,
            "summary": self.summary(),
            "results": [dict(r.__dict__) for r in self.results],
            "skipped": self.skipped,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["id", "n", "p", "lambda", "ratio", "stderr", "status", "seed", "samples"])
        for r in self.results:
            w.writerow(r.csv_row())
        return buf.getvalue()


@dataclass
class InequalityCase:
    """One registered display: ``instances`` yields (label, evaluator)
    pairs; each evaluator maps (budget, seed) to a ratio Estimate.  An
    instance whose display is infinite on both sides is not yielded but
    recorded through :func:`_finite`."""

    id: str
    relation: str  # "ge", "eq" or "probe"
    instances: callable  # (config) -> iterable of (label, evaluator)
    description: str = ""


# ---------------------------------------------------------------------------
# corpora


def corpus(name: str, n: int, seed: int = rngmod.DEFAULT_SEED) -> list[ConvexBody]:
    """Named body corpus at dimension n, built once per process and key."""
    return list(_corpus(name, n, seed))


@functools.cache
def _corpus(name: str, n: int, seed: int) -> tuple[ConvexBody, ...]:
    if name == "standard":
        bodies: list[ConvexBody] = [
            Ball(1.0, n),
            _normalized_ellipsoid(n),
            Cube(1.0, n),
            standard_simplex(n, centered=True),
            LqBall(1.5, n),
            LqBall(4.0, n),
        ]
        gen = rngmod.substream(seed, "corpus", "polytopes", n)
        for i in range(3):
            bodies.append(_random_polytope(gen, n, i))
        return tuple(bodies)
    if name == "smooth":
        bodies = [Ball(1.0, n), _normalized_ellipsoid(n)]
        if n == 2:
            bodies += [LqBall(1.5, 2), LqBall(4.0, 2)]
        return tuple(bodies)
    raise ValueError(f"unknown corpus {name!r}")


def _normalized_ellipsoid(n: int) -> Ellipsoid:
    d = np.ones(n)
    d[0] = 2.0
    A = np.diag(d / np.prod(d) ** (1 / n))
    return Ellipsoid(A)


def _random_polytope(gen, n: int, index: int) -> Polytope:
    m = 7 if n == 2 else 10
    pts = gen.standard_normal((m, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= gen.uniform(0.7, 1.3, size=(m, 1))
    P = Polytope(pts)
    return Polytope(P.vertices - P.vertices.mean(axis=0))


def function_corpus(
    config: RunConfig, smooth_only: bool = False, check_gradients: bool = True
) -> list[CompactFunction]:
    """Function corpus: extremal families, random bumps and mollified
    indicators; gradient oracles are spot-checked on load.  Built once
    per process and key."""
    return list(_function_corpus(config.n, config.p, config.lam, config.seed,
                                 smooth_only, check_gradients))


@functools.cache
def _function_corpus(n: int, p: float, lam: float, seed: int, smooth_only: bool,
                     check_gradients: bool) -> tuple[CompactFunction, ...]:
    out: list[CompactFunction] = []
    out.append(normalized_moment_extremal(Ball(1.0, n), p, lam))
    if not smooth_only or lam > 2:
        out.append(normalized_moment_extremal(_normalized_ellipsoid(n), p, lam))
    if 1 <= p < n:
        out.append(normalized_sobolev_extremal(Ball(1.0, n), p))
    gen = rngmod.substream(seed, "corpus", "bumps", n)
    for i in range(3):
        q = np.exp(gen.uniform(-0.4, 0.4, size=n))
        A = np.diag(q / np.prod(q) ** (1 / n))
        scale = float(gen.uniform(0.5, 2.0))
        out.append(radial_function(bump_profile(3, scale), Ellipsoid(A)))
    if not smooth_only:
        out.append(radial_function(mollified_indicator_profile(0.04), Ball(1.0, n)))
    if smooth_only:
        out = [l for l in out if l.smoothness == "C2" and l.hess is not None]
    if check_gradients:
        gcheck = rngmod.substream(seed, "corpus", "gradcheck")
        for l in out:
            if l.grad is None:
                continue
            err = l.gradient_check(gcheck, probes=20)
            if err > 1e-4:
                raise RuntimeError(f"gradient oracle of {l.label} off by {err:g}")
    return tuple(out)


# ---------------------------------------------------------------------------
# case evaluators


# the skipped-instance list of the run() collecting instances, if any
_SKIPPED: contextvars.ContextVar[list[dict] | None] = contextvars.ContextVar(
    "skipped", default=None)


def _finite(case_id: str, fs, *moments):
    """The functions of ``fs`` whose profile moments are finite.

    Each of ``moments`` is a (k, power, derivative) triple of
    ``Profile.moment`` that the case's display needs, tested through
    ``Profile.norm``, which does not overflow.  A function with an
    infinite one (such as the L_p surface measure of the moment extremal
    for lam > 2 and p >= (lam-1)/(lam-2)) is recorded as skipped, with the
    reason, instead of reporting infinity as a ratio.
    """
    for f in fs:
        bad = [m for m in moments if f.is_radial and math.isinf(f.profile.norm(*m))]
        if not bad:
            yield f
            continue
        k, power, derivative = bad[0]
        what = f"|F'|^{power:g}" if derivative else f"F^{power:g}"
        skipped = _SKIPPED.get()
        if skipped is not None:
            skipped.append({"id": case_id, "instance": f.label,
                            "reason": f"the t^{k:g} {what} moment of its profile diverges"})


def _body_tuples(bodies, n, count=3):
    """Homogeneous tuples plus one mixed tuple."""
    out = [(repr(L), [L] * n) for L in bodies[:count]]
    if len(bodies) >= n:
        mix = list(bodies[:n])
        out.append(("mixed:" + "+".join(repr(L) for L in mix), mix))
    return out


def _rsi_s_instances(config: RunConfig):
    n, p = config.n, config.p
    b = b_np(n, p).value
    for label, tup in _body_tuples(corpus(config.corpus, n, config.seed), n):

        def ev(budget, seed, tup=tup):
            lhs = I_p(tup, p, budget=budget, seed=seed)
            rhs = b * product([volume(L) ** ((n + p) / n) for L in tup])
            return lhs / rhs

        yield label, ev


def _iso_s_instances(config: RunConfig):
    n, p = config.n, config.p
    a = derived_constants(n, p)["a_np"].value
    bodies = corpus(config.corpus, n, config.seed)
    tuples = [(repr(L), [L] * (n - 1)) for L in bodies[:3]]
    if n == 3:
        tuples.append(("mixed", bodies[:2]))
    for label, tup in tuples:

        def ev(budget, seed, tup=tup):
            N = N_p_body(tup, p, budget=budget, seed=seed)
            vol_polar = N.polar_volume()
            bound = a * product([volume(L) ** (-(n + p) / p) for L in tup])
            # the theorem is an upper bound: ratio = bound / vol
            return bound / vol_polar

        yield label, ev


def _equivalence_instances(config: RunConfig):
    n, p = config.n, config.p
    for label, tup in _body_tuples(corpus(config.corpus, n, config.seed), n, count=2):

        def ev(budget, seed, tup=tup):
            return equivalence_check(tup, p, budget=budget, seed=seed)

        yield label, ev


def _commutativity_instances(config: RunConfig):
    n, p = config.n, config.p
    bodies = corpus(config.corpus, n, config.seed)[:n]

    def ev(budget, seed):
        lhs = I_p(bodies, p, budget=budget, seed=seed)
        rhs = I_p(bodies[::-1], p, budget=budget, seed=seed + 1)
        return lhs / rhs

    yield "mixed:" + "+".join(repr(L) for L in bodies), ev


def _bp_centroid_instances(config: RunConfig):
    n, p = config.n, config.p
    for L in corpus(config.corpus, n, config.seed)[:4]:

        def ev(budget, seed, L=L):
            G = centroid_body(L, p, budget=budget, seed=seed)
            return G.body_volume() / volume(L)

        yield repr(L), ev


def _mv_instances(config: RunConfig):
    n, p = config.n, config.p
    bodies = corpus(config.corpus, n, config.seed)
    pairs = [(bodies[0], bodies[1]), (bodies[2], bodies[0]), (bodies[3], bodies[4])]
    for K, L in pairs:

        def ev(budget, seed, K=K, L=L):
            lhs = mixed_volume(K, L, p, budget=budget, seed=seed)
            rhs = volume(K) ** ((n - p) / n) * volume(L) ** (p / n)
            return lhs / rhs

        yield f"{K!r}|{L!r}", ev


def _dmv_instances(config: RunConfig):
    n, p = config.n, config.p
    bodies = corpus(config.corpus, n, config.seed)
    pairs = [(bodies[0], bodies[1]), (bodies[2], bodies[0]), (bodies[4], bodies[5])]
    for K, L in pairs:

        def ev(budget, seed, K=K, L=L):
            lhs = dual_mixed_volume(K, L.polar(), p, budget=budget, seed=seed)
            rhs = volume(K) ** ((n + p) / n) * volume(L) ** (-p / n)
            return lhs / rhs

        yield f"{K!r}|{L!r}", ev


def _blaschke_instances(config: RunConfig):
    n = config.n
    bodies = [L for L in corpus(config.corpus, n, config.seed) if _is_symmetric(L)]
    for L in bodies:

        def ev(budget, seed, L=L):
            prod = volume(L) * volume(L.polar(), budget=budget, seed=seed)
            return Estimate(omega_n(n) ** 2) / prod

        yield repr(L), ev


def _is_symmetric(L: ConvexBody) -> bool:
    return isinstance(L, (Ball, Cube, Ellipsoid, LqBall))


def _petty_instances(config: RunConfig):
    n = config.n
    for L in corpus(config.corpus, n, config.seed)[:4]:

        def ev(budget, seed, L=L):
            return volume(projection_body(L)) * volume(L) ** (1 - n) * (1.0 / petty_bound(n))

        yield repr(L), ev


def _rsid_s_instances(config: RunConfig):
    n, p = config.n, config.p
    btilde = derived_constants(n, p)["btilde_np"].value
    bodies = corpus("smooth", n, config.seed)
    tuples = [(repr(L), [L] * n) for L in bodies[:2]]
    tuples.append(("mixed", [bodies[0], bodies[1]] + [bodies[0]] * (n - 2)))
    tuples.append(("degenerate:" + repr(Cube(1.0, n)), [Cube(1.0, n)] * n))
    for label, tup in tuples:

        def ev(budget, seed, tup=tup):
            if any(isinstance(L, (Cube, Polytope)) for L in tup):
                # atomic surface measures have zero curvature function:
                # the right-hand side vanishes and the bound is trivial
                return Estimate(math.inf)
            lhs = I_tilde_p(tup, p, budget=budget, seed=seed)
            rhs = btilde * product([omega_p(L, p) ** ((n + p) / n) for L in tup])
            return lhs / rhs

        yield label, ev


def _norm_power(l: CompactFunction, n, p, lam, budget, seed, k: float = 1.0) -> Estimate:
    """(||l||_1^((n + p lam')/n) ||l||_lam^(-p lam'/n))^k, the norm factor
    of the functional bounds, formed in logs: at lam = 1.01 the two powers
    are about +-100 p/n."""
    lamp = holder_conjugate(lam)
    return power_product([
        (lp_norm(l, 1.0, budget=budget, seed=seed), k * (n + p * lamp) / n),
        (lp_norm(l, lam, budget=budget, seed=seed), -k * p * lamp / n),
    ])


def _moment_instances(config: RunConfig):
    n, p, lam = config.n, config.p, config.lam
    ct = moment_constant(n, p, lam).value
    needs = [(n + p - 1, 1.0, False), (n - 1, 1.0, False)]
    if lam != math.inf:
        needs.append((n - 1, lam, False))
    L = Ball(1.0, n)
    for f in _finite("moment", function_corpus(config)[:4], *needs):

        def ev(budget, seed, f=f):
            lhs = dual_mixed_volume_f(f, L, p, budget=budget, seed=seed)
            rhs = (
                _norm_power(f, n, p, lam, budget, seed)
                * volume(L) ** (-p / n)
                * ct
            )
            return lhs / rhs

        yield f.label, ev


def _sobolev_cnv_instances(config: RunConfig):
    n, p = config.n, config.p
    if not 1 <= p < n:
        return
    cnv = cnv_np(n, p).value
    pstar = n * p / (n - p)
    fs = [f for f in function_corpus(config)[:4] if f.grad is not None]
    L = Ball(1.0, n)
    for f in _finite("sobolev_cnv", fs, (n - 1, p, True), (n - 1, pstar, False)):

        def ev(budget, seed, f=f):
            lhs = mixed_volume_f(f, L, p, budget=budget, seed=seed)
            rhs = lp_norm(f, pstar, budget=budget, seed=seed) ** p * volume(L) ** (p / n) * cnv
            return lhs / rhs

        yield f.label, ev


def _iso_f_instances(config: RunConfig):
    n, p, lam = config.n, config.p, config.lam
    consts = derived_constants(n, p, lam)
    A = consts["A_nplam"].value
    fs = function_corpus(config)
    tuples = [(fs[0].label, [fs[0]] * (n - 1))]
    if n == 3 and len(fs) >= 2:
        tuples.append(("mixed", [fs[0], fs[1]]))
    for label, tup in tuples:

        def ev(budget, seed, tup=tup):
            N = N_p_function_body(tup, p, budget=budget, seed=seed)
            vol_polar = N.polar_volume()
            bound = A * product([_norm_power(l, n, p, lam, budget, seed, -n / p) for l in tup])
            return bound / vol_polar

        yield label, ev


def _rsi_f_instances(config: RunConfig):
    n, p, lam = config.n, config.p, config.lam
    consts = derived_constants(n, p, lam)
    B = consts["B_nplam"].value
    fs = function_corpus(config)
    tuples = [(fs[0].label, [fs[0]] * n), (fs[-1].label, [fs[-1]] * n)]
    for label, tup in tuples:

        def ev(budget, seed, tup=tup):
            lhs = I_p_functions(tup, p, budget=budget, seed=seed)
            rhs = B * product([_norm_power(l, n, p, lam, budget, seed) for l in tup])
            return lhs / rhs

        yield label, ev


def _levelset_instances(config: RunConfig):
    n, p, lam = config.n, config.p, config.lam
    gs = [("indicator" if lam == math.inf else "extremal", levelset_extremal(lam, n, p))]
    if lam != math.inf:
        gs += [
            ("exp", Profile(lambda t: np.exp(-np.asarray(t, dtype=float)), T=40.0)),
            ("hat", Profile(lambda t: np.clip(1 - np.abs(np.asarray(t) - 1.0), 0, None), T=2.0)),
        ]
    for label, g in gs:

        def ev(budget, seed, g=g):
            return Estimate(levelset_check(g, n, p, lam), 0.0, 0, "quadrature")

        yield label, ev


def _rsid_f_instances(config: RunConfig):
    n, p, lam = config.n, config.p, config.lam
    alpha = reparam_lambda_to_alpha(lam, n, p)
    const = rsid_f_constant(n, p, alpha).value
    fs = function_corpus(config, smooth_only=True)
    for l in fs[:3]:

        def ev(budget, seed, l=l):
            lhs = I_tilde_p_functions([l] * n, p, budget=budget, seed=seed)
            om = _omega_f(l, p, budget, seed)
            if alpha == math.inf:
                factor = om ** ((n + p) / n) * lp_norm(l, math.inf) ** (-p / n)
            else:
                alphap = holder_conjugate(alpha)
                om_a = _omega_f(l.power(alpha), p, budget, seed + 1)
                factor = (
                    om ** ((n + alphap) / (n + 1))
                    * om_a ** (-1.0 / ((n + 1) * (alpha - 1)))
                ) ** ((n + p) / n)
            rhs = const * factor**n
            return lhs / rhs

        yield l.label, ev


def _omega_f(l: CompactFunction, p: float, budget: int, seed: int) -> Estimate:
    if l.is_radial and l.profile.dF is not None:
        return Estimate(omega_p_radial(l.profile, l.dim, p), 0.0, 0, "quadrature")
    return omega_p_function(l, p, budget=budget, seed=seed)


def _conj_5_1_instances(config: RunConfig):
    n, p = config.n, config.p
    if not 1 <= p < n:
        return
    bbar = b_np_dual(n, p).value
    bodies = corpus("smooth", n, config.seed)
    for label, tup in _body_tuples(bodies, n, count=2):

        def ev(budget, seed, tup=tup):
            lhs = I_tilde_p(tup, p, budget=budget, seed=seed)
            rhs = bbar * product([volume(L) ** ((n - p) / n) for L in tup])
            return lhs / rhs

        yield label, ev


def _sobolevish_5_5_instances(config: RunConfig):
    n, p = config.n, config.p
    if not 1 <= p < n:
        return
    bbar = b_np_dual(n, p).value
    cnv = cnv_np(n, p).value
    C = bbar * cnv**n
    pstar = n * p / (n - p)
    fs = [f for f in function_corpus(config) if f.grad is not None][:3]
    for f in _finite("sobolevish_5_5", fs, (n - 1, p, True)):

        def ev(budget, seed, f=f):
            lhs = I_tilde_p_functions([f] * n, p, budget=budget, seed=seed)
            rhs = C * lp_norm(f, pstar, budget=budget, seed=seed) ** (n * p)
            return lhs / rhs

        yield f.label, ev


def _zhang_5_7_instances(config: RunConfig):
    n = config.n
    if config.p != 1:
        return
    fs = [f for f in function_corpus(config) if f.grad is not None][:3]
    for f in _finite("zhang_5_7", fs, (n - 1, 1.0, True)):

        def ev(budget, seed, f=f):
            # half-cosine transform and 1/n normalization of the display
            lhs = 0.5 * n ** (1.0 / n) * polar_projection_norm(f, 1.0, budget, seed)
            rhs = (omega_n(n - 1) / omega_n(n)) * lp_norm(
                f, n / (n - 1), budget=budget, seed=seed
            )
            return lhs / rhs

        yield f.label, ev


def _stronger_5_8_instances(config: RunConfig):
    n = config.n
    if config.p != 1:
        return
    fs = [f for f in function_corpus(config) if f.grad is not None][:3]
    for f in _finite("stronger_5_8", fs, (n - 1, 1.0, True)):

        def ev(budget, seed, f=f):
            lhs = 0.5 * n ** (1.0 / n) * polar_projection_norm(f, 1.0, budget, seed)
            it = I_tilde_p_functions([f] * n, 1.0, budget=budget, seed=seed)
            rhs = (it * (1.0 / (omega_n(n) ** 2 * math.factorial(n)))) ** (1.0 / n)
            return lhs / rhs

        yield f.label, ev


def _stronger_p_calibration(n: int, p: float, budget: int = 1 << 17) -> Estimate:
    f0 = normalized_sobolev_extremal(Ball(1.0, n), p)
    lhs = polar_projection_norm(f0, p, budget, 1)
    it = I_tilde_p_functions([f0] * n, p, budget=budget, seed=1)
    return lhs / it ** (1.0 / (n * p))


_STRONGER_P_CACHE: dict = {}


def _stronger_p_instances(config: RunConfig):
    n, p = config.n, config.p
    if not 1 <= p < n:
        return
    key = (n, p)
    if key not in _STRONGER_P_CACHE:
        # probe constant calibrated at the radial extremal so corpus
        # ratios are comparable across (n, p); the problem leaves the
        # constant unspecified
        _STRONGER_P_CACHE[key] = _stronger_p_calibration(n, p)
    c = _STRONGER_P_CACHE[key]
    fs = [f for f in function_corpus(config) if f.grad is not None][:3]
    for f in _finite("stronger_p_5_9", fs, (n - 1, p, True)):

        def ev(budget, seed, f=f):
            lhs = polar_projection_norm(f, p, budget, seed)
            it = I_tilde_p_functions([f] * n, p, budget=budget, seed=seed)
            return lhs / (c * it ** (1.0 / (n * p)))

        yield f.label, ev


REGISTRY: list[InequalityCase] = [
    InequalityCase("rsi_s", "ge", _rsi_s_instances, "random-simplex moment lower bound"),
    InequalityCase("iso_s", "ge", _iso_s_instances, "polar moment body volume upper bound"),
    InequalityCase("iso_f", "ge", _iso_f_instances, "functional moment body volume bound"),
    InequalityCase("rsi_f", "ge", _rsi_f_instances, "functional random-simplex bound"),
    InequalityCase("moment", "ge", _moment_instances, "functional dual mixed volume bound"),
    InequalityCase("mv_ineq", "ge", _mv_instances, "L_p mixed volume inequality"),
    InequalityCase("dmv_ineq", "ge", _dmv_instances, "L_p dual mixed volume inequality"),
    InequalityCase("sobolev_cnv", "ge", _sobolev_cnv_instances, "sharp Sobolev mixed-volume bound"),
    InequalityCase("bp_centroid", "ge", _bp_centroid_instances, "centroid body volume bound"),
    InequalityCase("rsid_s", "ge", _rsid_s_instances, "dual moment vs p-affine surface areas"),
    InequalityCase("rsid_f", "ge", _rsid_f_instances, "functional dual moment bound"),
    InequalityCase("levelset", "ge", _levelset_instances, "1-D level-set inequality"),
    InequalityCase("petty_probe", "probe", _petty_instances, "projection body volume probe"),
    InequalityCase("conj_5_1", "probe", _conj_5_1_instances, "dual moment volume probe"),
    InequalityCase("sobolevish_5_5", "probe", _sobolevish_5_5_instances, "Sobolev-like probe"),
    InequalityCase("zhang_5_7", "ge", _zhang_5_7_instances, "affine Sobolev inequality"),
    InequalityCase("stronger_5_8", "probe", _stronger_5_8_instances, "strengthened affine Sobolev probe"),
    InequalityCase("stronger_p_5_9", "probe", _stronger_p_instances, "L_p strengthened probe"),
    InequalityCase("blaschke_santalo", "ge", _blaschke_instances, "volume product upper bound"),
    InequalityCase("equivalence_id", "eq", _equivalence_instances, "moment / dual mixed volume identity"),
    InequalityCase("commutativity_id", "eq", _commutativity_instances, "argument permutation identity"),
]


def case_ids() -> list[str]:
    return [c.id for c in REGISTRY]


# ---------------------------------------------------------------------------
# runner


def _evaluate(case: InequalityCase, label, ev, config: RunConfig) -> CaseResult:
    budget = config.samples
    t0 = time.perf_counter()
    est = ev(budget, config.seed)
    doublings = 0
    exhausted = False
    while (
        est.stderr > config.target_rel_stderr * max(abs(est.value), 1e-12)
        and math.isfinite(est.value)
    ):
        if doublings >= config.max_doublings:
            exhausted = True
            break
        budget *= 2
        doublings += 1
        est = ev(budget, config.seed)
    wall = time.perf_counter() - t0
    sigma3 = 3 * est.stderr
    if case.relation == "probe":
        status = "report"
    elif case.relation == "eq":
        ok = abs(est.value - 1.0) <= sigma3 + EQ_ATOL
        status = "pass" if ok else ("flag" if exhausted else "fail")
    else:
        ok = est.value >= 1.0 - sigma3 - EQ_ATOL
        status = "pass" if ok else ("flag" if exhausted else "fail")
    lam = config.lam if case.id in _LAMBDA_CASES else ""
    return CaseResult(
        id=case.id,
        instance=label,
        n=config.n,
        p=config.p,
        lam=lam,
        ratio=float(est.value),
        stderr=float(est.stderr),
        status=status,
        seed=config.seed,
        samples=budget if est.method == MONTE_CARLO else 0,
        wall_time=wall,
    )


_LAMBDA_CASES = {"iso_f", "rsi_f", "moment", "levelset", "rsid_f"}


def run(config: RunConfig) -> Report:
    """Evaluate every applicable registered case on the configured corpus."""
    wanted = set(config.cases) if config.cases else None
    if wanted:
        unknown = wanted - set(case_ids())
        if unknown:
            raise ValueError(f"unknown case ids: {sorted(unknown)}")
    jobs, skipped = [], []
    token = _SKIPPED.set(skipped)
    try:
        for case in REGISTRY:
            if wanted and case.id not in wanted:
                continue
            for label, ev in case.instances(config):
                jobs.append((case, label, ev))
    finally:
        _SKIPPED.reset(token)
    return Report(config, [_evaluate(case, label, ev, config) for case, label, ev in jobs], skipped)


def emit(report: Report, json_path=None, csv_path=None) -> None:
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
    if csv_path:
        with open(csv_path, "w") as fh:
            fh.write(report.to_csv())


def sweep(config: RunConfig, param: str, values) -> list[Report]:
    """Re-run the configured cases for each value of one parameter."""
    return [run(c) for c in sweep_configs(config, param, values)]


def sweep_configs(config: RunConfig, param: str, values) -> list[RunConfig]:
    """One config per value of ``param``, all validated before any run."""
    return [RunConfig.from_dict({**config.__dict__, param: v}) for v in values]


def emit_sweep(reports: list[Report], param: str, directory) -> list[str]:
    """Write gnuplot-ready data files, one per case id: columns are the
    swept parameter, ratio and stderr (one block per instance)."""
    import os

    by_case: dict[str, list] = {}
    for rep in reports:
        x = getattr(rep.config, param)
        for r in rep.results:
            by_case.setdefault(r.id, []).append((r.instance, x, r.ratio, r.stderr))
    paths = []
    os.makedirs(directory, exist_ok=True)
    for cid, rows in sorted(by_case.items()):
        path = os.path.join(directory, f"{cid}_{param}.dat")
        with open(path, "w") as fh:
            fh.write(f"# {cid}: {param} ratio stderr\n")
            current = None
            for inst, x, ratio, err in sorted(rows, key=lambda t: (t[0], t[1])):
                if inst != current:
                    fh.write(f"\n# instance {inst}\n")
                    current = inst
                fh.write(f"{x:.6g} {ratio:.10g} {err:.6g}\n")
        paths.append(path)
    return paths
