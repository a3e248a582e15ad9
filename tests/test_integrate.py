"""The in-package 1-D integrator against QUADPACK (scipy, tests only).

``constants.integrate_1d`` computes the moments of every profile outside
the extremal family (whose moments are beta functions) and every
level-set integral.  Each integral that ``verify`` requests at eight
(n, p, lambda) configurations is checked against an independent
reference, QUADPACK split at the decades of the range
(``oracles.quadpack``), which needs no knowledge of the integrand.
"""

import math

import numpy as np
import pytest

from convexgeom import constants, funcspace, harness
from convexgeom.constants import integrate_1d
from convexgeom.estimate import Estimate
from convexgeom.funcspace import sobolev_extremal_profile
from oracles import quadpack

CONFIGS = [
    (2, 2.0, 2.0), (2, 1.0, math.inf), (2, 1.5, 0.8), (2, 3.0, math.inf),
    (3, 2.0, 2.0), (3, 1.5, 0.9), (3, 1.0, 3.0), (3, 2.5, 1.5),
]


def _requested_integrals(monkeypatch, n, p, lam) -> dict:
    """Every distinct (a, b, value) that a small verify run integrates."""
    seen = {}

    def spy(f, a, b):
        v = integrate_1d(f, a, b)
        seen.setdefault((a, b, v), f)
        return v

    monkeypatch.setattr(constants, "integrate_1d", spy)
    monkeypatch.setattr(funcspace, "integrate_1d", spy)
    monkeypatch.setattr(constants.cache(), "_store", {})
    # the function corpus integrates its profile moments when it is built
    harness._function_corpus.cache_clear()
    # the stronger_p_5_9 calibration integrates the same profile moments
    # as that case's own rows; a stand-in skips its 2^17-sample Monte Carlo
    monkeypatch.setattr(harness, "_STRONGER_P_CACHE", {(n, p): Estimate(1.0)})
    harness.run(harness.RunConfig(n=n, p=p, lam=lam, samples=8, max_doublings=0))
    return seen


@pytest.mark.parametrize("n, p, lam", CONFIGS)
def test_every_verify_integral_matches_quadpack(monkeypatch, n, p, lam):
    seen = _requested_integrals(monkeypatch, n, p, lam)
    assert len(seen) >= 10
    for (a, b, value), f in seen.items():
        ref = quadpack(f, a, b)
        assert value == pytest.approx(ref, rel=1e-9, abs=1e-300), (a, b)


def test_sobolev_moment_where_plain_quadpack_is_biased():
    # t^2 F^15 = t^2 (1 + t^(5/3))^-3 decays like t^-3 on [0, inf); plain
    # QUADPACK over [0, 163840] returns 0.2565501 with an IntegrationWarning,
    # split at the decades it agrees with the beta function
    prof = sobolev_extremal_profile(2.5, 3)
    integrand = lambda t: t**2 * prof.F(t) ** 15
    exact = prof.moment(2, power=15)  # B(9/5, 6/5) / (5/3)
    assert exact == pytest.approx(math.gamma(1.8) * math.gamma(1.2) / 2 * 0.6, rel=1e-14)
    assert integrate_1d(integrand, 0.0, math.inf) == pytest.approx(exact, rel=1e-10)
    assert quadpack(integrand, 0.0, math.inf) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize(
    "f, a, b, exact",
    [
        (lambda t: t**3 - 2 * t, 0.0, 2.0, 0.0),
        (lambda t: np.exp(-t), 0.0, math.inf, 1.0),
        (lambda t: (1 - t) ** -0.5, 0.0, 1.0, 2.0),
        (lambda t: t**-0.5, 0.0, 1.0, 2.0),
        (lambda t: np.where(t <= 1.0, 1.0, 0.0), 0.0, 1.0, 1.0),
        (lambda t: t**2 / (1 + t**2) ** 2, 0.0, 1280.0,
         math.atan(1280.0) / 2 - 1280.0 / (2 * (1 + 1280.0**2))),
        (lambda t: 1 / (1 + t**2), 0.0, math.inf, math.pi / 2),
    ],
)
def test_closed_forms(f, a, b, exact):
    assert integrate_1d(f, a, b) == pytest.approx(exact, rel=1e-10, abs=1e-12)


def test_non_finite_integrand_raises_naming_the_interval():
    with pytest.raises(ValueError, match=r"not finite on \["):
        integrate_1d(lambda t: np.where(t > 0.7, np.nan, 1.0), 0.0, 1.0)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda t: 1 / t, 0.0, 1.0),  # divergent at 0
        (lambda t: np.sin(1 / t), 0.0, 1.0),  # oscillation without end
        (lambda t: 1 / (1 + t), 0.0, math.inf),  # divergent tail
    ],
)
def test_non_convergence_raises(f, a, b):
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        integrate_1d(f, a, b)
