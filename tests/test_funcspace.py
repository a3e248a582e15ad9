"""Unit tests for compactly supported functions: profiles, radial
reductions, functional mixed volumes and surface measures."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from convexgeom import rng as rngmod
from convexgeom.bodies import Ball, Cube, Ellipsoid
from convexgeom.constants import omega_n
from convexgeom.funcspace import (
    I_p_functions,
    bump_profile,
    dual_mixed_volume_f,
    levelset_check,
    levelset_extremal,
    lp_norm,
    mixed_volume_f,
    mollified_indicator_profile,
    moment_extremal_profile,
    normalized_moment_extremal,
    normalized_sobolev_extremal,
    radial_function,
    radial_representative,
    richardson,
    sobolev_extremal_profile,
    surface_measure_f,
)
from convexgeom.functionals import I_p, mixed_volume, dual_mixed_volume


def _agree(a, b, extra=0.0):
    sigma = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= 3 * sigma + extra, (a, b)


class TestProfiles:
    def test_bump_profile_values(self):
        prof = bump_profile(3, 1.0)
        assert prof.F(0.0) == pytest.approx(1.0)
        assert prof.F(1.0) == pytest.approx(0.0)
        assert prof.F(2.0) == 0.0

    def test_bump_derivative_consistent(self):
        prof = bump_profile(3, 1.0)
        t = np.linspace(0.05, 0.95, 19)
        fd = (prof.F(t + 1e-6) - prof.F(t - 1e-6)) / 2e-6
        assert np.allclose(fd, prof.dF(t), atol=1e-5)

    def test_sobolev_profile_continuous_at_cutoff(self):
        prof = sobolev_extremal_profile(2.0, 3)
        T = prof.Ttrunc
        assert prof.F(T * (1 - 1e-9)) == pytest.approx(0.0, abs=1e-6)
        assert prof.F(T + 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_moment_extremal_support(self):
        prof = moment_extremal_profile(2.0, 2.0, 2)
        assert prof.T < math.inf
        assert prof.F(prof.T + 0.1) == 0.0

    def test_mollified_indicator_is_c2(self):
        prof = mollified_indicator_profile(0.04)
        t = np.linspace(0.9, 1.01, 200)
        d2 = prof.d2F(t)
        assert np.all(np.isfinite(d2))

    def test_mollified_indicator_is_nonnegative_next_to_one(self):
        # 1 - smoothstep rounds below zero just inside t = 1, where a
        # fractional power of F would be NaN
        prof = mollified_indicator_profile(0.04)
        t = 1 - np.logspace(-16, -2, 2000)
        assert np.all(prof.F(t) >= 0)
        assert np.all(np.isfinite(prof.power(0.9).F(t)))


class TestNormalizations:
    def test_radial_representative_surface_normalization(self):
        # S_p(f) = S_p(L) requires int t^{n-1} |F'|^p dt = 1
        for p in (1.0, 2.0):
            f = radial_representative(Ball(1.0, 2), p)
            prof = f.profile
            val = quad(lambda t: t ** (2 - 1) * abs(prof.dF(t)) ** p, 0, prof.T)[0]
            assert val == pytest.approx(1.0, rel=1e-7)

    def test_moment_extremal_dual_normalization(self):
        # V_tilde_{-p}(f, L) = V_tilde_{-p}(K, L) requires
        # (n+p) int t^{n+p-1} F dt = 1
        f = normalized_moment_extremal(Ball(1.0, 2), 2.0, 2.0)
        prof = f.profile
        val = (2 + 2) * quad(lambda t: t ** (2 + 2 - 1) * prof.F(t), 0, prof.T)[0]
        assert val == pytest.approx(1.0, rel=1e-7)

    def test_sobolev_extremal_gradient_normalization(self):
        f = normalized_sobolev_extremal(Ball(1.0, 3), 2.0)
        prof = f.profile
        val = quad(lambda t: t ** (3 - 1) * abs(prof.dF(t)) ** 2, 0, prof.Ttrunc,
                   limit=200)[0]
        assert val == pytest.approx(1.0, rel=1e-6)


class TestFunctionalPairings:
    def test_representative_reproduces_body_mixed_volume(self):
        # Lemma: the radial representative has the same L_p surface
        # measure as its body, so V_p(f, K) = V_p(L, K)
        L, K, p = Ball(1.0, 2), Ellipsoid(np.diag([2.0, 0.5])), 2.0
        f = radial_representative(L, p)
        a = mixed_volume_f(f, K, p, budget=1 << 16, seed=1)
        b = mixed_volume(L, K, p, budget=1 << 16, seed=2)
        _agree(a, b, extra=1e-6)

    def test_representative_reproduces_dual_mixed_volume(self):
        L, K, p = Ball(1.0, 2), Ball(2.0, 2), 2.0
        f = normalized_moment_extremal(L, p, 2.0)
        # normalization: V_tilde_{-p}(f, K) = V_tilde_{-p}(B, K)
        a = dual_mixed_volume_f(f, K, p, budget=1 << 16, seed=3)
        b = dual_mixed_volume(L, K, p, budget=1 << 16, seed=4)
        _agree(a, b, extra=1e-6)

    def test_lp_norm_one_is_integral(self):
        prof = bump_profile(3, 1.0)
        f = radial_function(prof, Ball(1.0, 2))
        exact = 2 * omega_n(2) * quad(lambda t: t * prof.F(t), 0, 1)[0]
        est = lp_norm(f, 1.0)
        assert est.value == pytest.approx(exact, rel=1e-7)

    def test_lp_norm_sup(self):
        prof = bump_profile(3, 1.0)
        f = radial_function(prof, Ball(1.0, 2))
        assert lp_norm(f, math.inf).value == pytest.approx(1.0)

    def test_lp_norm_sup_needs_declared_sup(self):
        f = radial_function(bump_profile(3, 1.0), Ball(1.0, 2))
        generic = dataclasses.replace(f, sup=None, label="generic-bump")
        with pytest.raises(ValueError, match="generic-bump"):
            lp_norm(generic, math.inf)

    @pytest.mark.parametrize("fn", [dual_mixed_volume_f, mixed_volume_f],
                             ids=lambda fn: fn.__name__)
    def test_box_monte_carlo_matches_radial_quadrature(self, fn):
        # the same oracles without the profile/body pair take the box path
        f = radial_function(bump_profile(3), Ellipsoid(np.diag([1.25, 0.8])))
        generic = dataclasses.replace(f, profile=None, body=None, label="generic-bump")
        L = Ellipsoid(np.diag([0.9, 1.2]))
        exact = fn(f, L, 2.0)
        mc = fn(generic, L, 2.0, budget=1 << 16, seed=3)
        assert exact.method == "quadrature" and mc.method == "monte-carlo"
        _agree(mc, exact)

    def test_lp_norm_scaling_under_linear_image(self):
        prof = bump_profile(3, 1.0)
        A = np.diag([2.0, 0.5])
        a = lp_norm(radial_function(prof, Ball(1.0, 2)), 2.0)
        b = lp_norm(radial_function(prof, Ellipsoid(A)), 2.0)
        assert b.value == pytest.approx(a.value * abs(np.linalg.det(A)) ** 0.5,
                                        rel=1e-6)

    def test_I_p_functions_extrapolates_to_indicator_bodies(self):
        # mollified indicators approach the set functional linearly in
        # the mollification width; the extrapolated value matches
        widths = [0.04, 0.02, 0.01]
        vals = []
        for i, w in enumerate(widths):
            prof = mollified_indicator_profile(w)
            ls = [radial_function(prof, Ball(1.0, 2))] * 2
            vals.append(I_p_functions(ls, 2.0, budget=1 << 17, seed=5 + i).value)
        b = I_p([Ball(1.0, 2)] * 2, 2.0, budget=1 << 17, seed=9)
        extrap = richardson(vals, widths)
        assert abs(extrap - b.value) <= 3 * b.stderr + 0.01 * b.value

    def test_surface_measure_f_total_mass(self):
        # pushforward of |grad f|^p with the representative equals the
        # total S_p mass of the body
        p = 2.0
        f = radial_representative(Ball(1.0, 2), p)
        sm = surface_measure_f(f, p)
        total = sm.total_mass()
        from convexgeom.functionals import surface_measure

        ref = surface_measure(Ball(1.0, 2), p).total_mass()
        assert abs(total.value - ref.value) <= 3 * total.stderr + 1e-6


    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_surface_measure_f_box_branch_matches_pushforward(self, p):
        # the same bump without its profile/body pair takes the box
        # sampler; both measures must agree on their total mass and on a
        # moment of the first coordinate
        radial = radial_function(bump_profile(3), Ellipsoid(np.diag([1.25, 0.8])))
        generic = dataclasses.replace(radial, profile=None, body=None, sup=None,
                                      label="generic-bump")
        for seed, fn in [(5, lambda u: np.ones(len(u))), (6, lambda u: np.abs(u[:, 0]) ** p)]:
            a = surface_measure_f(radial, p).integrate(fn, budget=1 << 16, seed=seed)
            b = surface_measure_f(generic, p).integrate(fn, budget=1 << 16, seed=seed)
            assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


class TestPower:
    def test_power_values_and_gradient(self):
        prof = bump_profile(3, 1.0)
        f = radial_function(prof, Ball(1.0, 2))
        g = f.power(1.5)
        x = np.array([[0.3, 0.2], [0.1, -0.4]])
        assert np.allclose(g(x), f(x) ** 1.5)
        gen = rngmod.substream(5, "pow")
        assert g.gradient_check(gen, probes=30) < 1e-5

    def test_power_needs_a_radial_composition(self):
        f = radial_function(bump_profile(3, 1.0), Ball(1.0, 2))
        generic = dataclasses.replace(f, profile=None, body=None, label="generic-bump")
        with pytest.raises(ValueError, match="generic-bump"):
            generic.power(1.5)


class TestLevelset:
    def test_extremal_achieves_equality(self):
        for (n, p, lam) in [(2, 2.0, 2.0), (3, 2.0, 1.5), (2, 1.0, 3.0)]:
            g = levelset_extremal(lam, n, p)
            assert levelset_check(g, n, p, lam) == pytest.approx(1.0, abs=1e-9)

    def test_non_extremal_is_strict(self):
        assert levelset_check(lambda t: np.exp(-3 * t), 2, 2.0, 2.0, T=10.0) > 1.0

    def test_richardson_linear_exact(self):
        vals = [1.0 + 2 * w for w in (0.1, 0.05, 0.025)]
        assert richardson(vals, [0.1, 0.05, 0.025]) == pytest.approx(1.0)
