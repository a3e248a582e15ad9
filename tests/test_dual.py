"""Unit tests for the dual theory: star bodies, p-affine surface
areas, dual random-simplex functionals, bordered Hessians."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from convexgeom import rng as rngmod
from convexgeom.bodies import Ball, Cube, Ellipsoid, LqBall, linear_image, volume
from convexgeom.constants import omega_n
from convexgeom.dualtheory import (
    I_tilde_p,
    I_tilde_p_functions,
    I_tilde_p_star,
    bordered_hessian_det,
    curvature_density,
    omega_p,
    omega_p_ellipsoid,
    omega_p_function,
    omega_p_levelset,
    omega_p_levelset_radial,
    omega_p_radial,
    projection_body_volume,
    star_body,
)
from convexgeom.funcspace import bump_profile, radial_function, radial_representative
from convexgeom.functionals import projection_body
from convexgeom.harness import corpus
from convexgeom.sphere import sample_sphere


def _agree(a, b, extra=0.0):
    sigma = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= 3 * sigma + extra, (a, b)


class TestOmegaP:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_ball_both_routes(self, n, p):
        # criterion: Omega_p(Ball) = n omega_n through the quadrature
        # route and the ellipsoid closed form
        quad_route = omega_p(Ball(1.0, n), p).value
        closed = omega_p_ellipsoid(np.eye(n), p)
        assert quad_route == pytest.approx(n * omega_n(n), rel=1e-9)
        assert closed == pytest.approx(n * omega_n(n), rel=1e-12)

    def test_ellipsoid_closed_form_vs_rule(self):
        A = np.array([[1.5, 0.3], [0.0, 0.7]])
        a = omega_p(Ellipsoid(A), 2.0).value
        b = omega_p_ellipsoid(A, 2.0)
        assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_lq_ball_two_is_the_disk(self, p):
        # LqBall(2) is the unit disk reached through the generic smooth
        # path: the pushforward of the radial representative (which needs
        # LqBall.gauge_grad) and the support-function curvature grid
        L = LqBall(2.0, 2)
        u = sample_sphere(rngmod.substream(12, "lq-disk"), 2, 64)
        assert np.max(np.abs(curvature_density(L, p)(u) - 1.0)) <= 1e-8
        assert omega_p(L, p).value == pytest.approx(2 * math.pi, rel=1e-9)

    def test_polytope_vanishes(self):
        assert omega_p(Cube(1.0, 2), 2.0).value == 0.0

    def test_sln_invariance(self):
        A = np.array([[1.3, 0.4], [0.2, 0.9]])
        A /= abs(np.linalg.det(A)) ** 0.5
        E = Ellipsoid(np.diag([2.0, 0.5]))
        a = omega_p(E, 2.0).value
        b = omega_p(linear_image(E, A), 2.0).value
        assert a == pytest.approx(b, rel=1e-6)


class TestStarBodies:
    @pytest.mark.parametrize("L", [Ball(1.0, 2), Ellipsoid(np.diag([2.0, 0.5]))],
                             ids=repr)
    def test_n_vol_star_equals_omega(self, L):
        p = 2.0
        S = star_body(L, p)
        om = omega_p(L, p).value
        assert 2 * S.volume().value == pytest.approx(om, rel=1e-6)

    def test_ball_star_is_ball(self):
        S = star_body(Ball(1.0, 2), 2.0)
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(S.radial(u), 1.0, atol=1e-9)


class TestITilde:
    def test_two_backends_agree(self):
        bodies = [Ball(1.0, 2), Ellipsoid(np.diag([1.5, 1 / 1.5]))]
        a = I_tilde_p(bodies, 2.0, budget=1 << 17, seed=1)
        b = I_tilde_p_star(bodies, 2.0, budget=1 << 17, seed=2)
        _agree(a, b)

    def test_permutation_invariance(self):
        bodies = [Ball(1.0, 2), Ellipsoid(np.diag([1.5, 1 / 1.5]))]
        a = I_tilde_p(bodies, 2.0, budget=1 << 17, seed=3)
        b = I_tilde_p(bodies[::-1], 2.0, budget=1 << 17, seed=4)
        _agree(a, b)

    def test_functions_match_bodies_via_representatives(self):
        p = 2.0
        ls = [radial_representative(Ball(1.0, 2), p)] * 2
        a = I_tilde_p_functions(ls, p, budget=1 << 17, seed=5)
        b = I_tilde_p([Ball(1.0, 2)] * 2, p, budget=1 << 17, seed=6)
        _agree(a, b)


class TestProjectionVolume:
    def test_identity_with_projection_body_cube(self):
        # I_tilde_1(L,...,L) = n! vol(Pi L); the projection body of the
        # square [-1,1]^2 is the square [-2,2]^2, of volume 16
        est = projection_body_volume(Cube(1.0, 2), budget=1 << 18, seed=7)
        assert abs(est.value - 16.0) <= 3 * est.stderr

    def test_identity_with_projection_body_ball(self):
        est = projection_body_volume(Ball(1.0, 2), budget=1 << 18, seed=8)
        exact = volume(projection_body(Ball(1.0, 2))).value
        assert abs(est.value - exact) <= 3 * est.stderr

    @pytest.mark.parametrize(
        "L",
        [L for n in (2, 3) for L in corpus("standard", n)[:4] + corpus("standard", n)[6:7]],
        ids=repr,
    )
    def test_exact_volume_matches_dual_moment(self, L):
        # the closed-form ellipsoid or zonotope volume against the
        # Monte-Carlo dual moment identity
        est = projection_body_volume(L, budget=1 << 16, seed=9)
        exact = volume(projection_body(L)).value
        assert abs(est.value - exact) <= 3 * est.stderr


class TestBorderedHessian:
    def test_radial_determinant_formula(self):
        # |det K l| = |F'|^{n+1} / r^{n-1} for l = F(|x|)
        prof = bump_profile(3, 1.0)
        l = radial_function(prof, Ball(1.0, 2))
        gen = rngmod.substream(9, "bh")
        x = gen.uniform(-0.6, 0.6, size=(40, 2))
        r = np.linalg.norm(x, axis=1)
        keep = (r > 0.1) & (r < 0.9)
        x, r = x[keep], r[keep]
        det = np.abs(bordered_hessian_det(l, x))
        expect = np.abs(prof.dF(r)) ** 3 / r
        assert np.allclose(det, expect, rtol=1e-8)

    def test_omega_function_mc_vs_radial_quadrature(self):
        prof = bump_profile(3, 1.0)
        l = radial_function(prof, Ball(1.0, 2))
        mc = omega_p_function(l, 2.0, budget=1 << 17, seed=10)
        exact = omega_p_radial(prof, 2, 2.0)
        assert abs(mc.value - exact) <= 3 * mc.stderr

    def test_levelset_integral_recovers_omega(self):
        # Omega_p(l) = int_0^infty Omega_p(l, t) dt via the level-set
        # decomposition (coarea)
        n, p = 2, 2.0
        prof = bump_profile(3, 1.0)
        total = quad(
            lambda r: omega_p_levelset_radial(prof, n, p, r) * abs(prof.dF(r)),
            0.0, 1.0,
        )[0]
        assert total == pytest.approx(omega_p_radial(prof, n, p), rel=1e-8)

    def test_levelset_tracing_matches_radial_closed_form(self):
        n, p = 2, 2.0
        prof = bump_profile(3, 1.0)
        l = radial_function(prof, Ball(1.0, n))
        t = 0.5
        # radius of the level set {l = t}
        from scipy.optimize import brentq

        s = brentq(lambda r: prof.F(r) - t, 1e-6, 1.0 - 1e-9)
        a = omega_p_levelset(l, p, t, rmax=1.5)
        b = omega_p_levelset_radial(prof, n, p, s)
        assert a == pytest.approx(b, rel=1e-5)
