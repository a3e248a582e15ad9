"""Unit tests for the random-simplex functional, moment bodies,
surface measures, centroid and projection bodies."""

import math
import tracemalloc

import numpy as np
import pytest

from convexgeom.bodies import (
    Ball,
    Cube,
    Ellipsoid,
    LqBall,
    NumericSupport,
    Polytope,
    linear_image,
    standard_simplex,
    volume,
)
from convexgeom.constants import omega_n
from convexgeom.functionals import (
    I_p,
    N_p_body,
    SurfaceMeasure,
    centroid_body,
    cross_product,
    dual_mixed_volume,
    equivalence_check,
    mixed_volume,
    projection_body,
    surface_measure,
)
from convexgeom.funcspace import normalized_sobolev_extremal, polar_projection_norm
from convexgeom.harness import corpus
from convexgeom.sphere import sample_sphere, sphere_rule


def _agree(a, b, extra=0.0):
    sigma = math.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= 3 * sigma + extra, (a, b)


class TestIp:
    def test_permutation_invariance(self):
        bodies = [Ball(1.0, 2), Ellipsoid(np.diag([2.0, 0.5]))]
        a = I_p(bodies, 2.0, budget=1 << 17, seed=1)
        b = I_p(bodies[::-1], 2.0, budget=1 << 17, seed=2)
        _agree(a, b)

    def test_sln_invariance(self):
        A = np.array([[1.2, 0.4], [0.1, 1.0]])
        A /= abs(np.linalg.det(A)) ** 0.5
        bodies = [Ball(1.0, 2), Cube(1.0, 2)]
        imaged = [linear_image(L, A) for L in bodies]
        a = I_p(bodies, 1.0, budget=1 << 17, seed=3)
        b = I_p(imaged, 1.0, budget=1 << 17, seed=4)
        _agree(a, b)

    def test_scaling_homogeneity(self):
        # I_p(cL, cL) = c^{2(n+p)} I_p(L, L) at n = 2
        L = Ball(1.0, 2)
        a = I_p([L, L], 2.0, budget=1 << 17, seed=5)
        b = I_p([Ball(2.0, 2)] * 2, 2.0, budget=1 << 17, seed=6)
        scaled = a * (2.0 ** (2 * (2 + 2)))
        _agree(scaled, b)


class TestMixedVolumes:
    @pytest.mark.parametrize("L", [Ball(1.0, 2), Cube(1.0, 2),
                                   Ellipsoid(np.diag([2.0, 0.5])),
                                   standard_simplex(2, centered=True),
                                   LqBall(1.5, 2)], ids=repr)
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_self_mixed_volume_is_volume(self, L, p):
        vol = volume(L).value
        mv = mixed_volume(L, L, p, budget=1 << 16, seed=7)
        assert abs(mv.value - vol) <= 3 * mv.stderr + 1e-6 * vol

    @pytest.mark.parametrize("L", [Ball(1.0, 2), Cube(1.0, 2),
                                   Ellipsoid(np.diag([2.0, 0.5]))], ids=repr)
    def test_self_dual_mixed_volume_is_volume(self, L):
        vol = volume(L).value
        dmv = dual_mixed_volume(L, L, 2.0, budget=1 << 16, seed=8)
        assert abs(dmv.value - vol) <= 3 * dmv.stderr + 1e-9

    def test_dual_mixed_volume_ball_closed_form(self):
        # V_tilde_{-p}(B, rB) = omega_n r^{-p}
        est = dual_mixed_volume(Ball(1.0, 2), Ball(2.0, 2), 2.0,
                                budget=1 << 16, seed=9)
        assert est.within(math.pi * 2.0**-2, atol=1e-9)


class TestSurfaceMeasure:
    def test_polytope_total_mass_is_perimeter_at_p1(self):
        P = Cube(1.0, 2)
        sm = surface_measure(P, 1.0)
        assert sm.total_mass().value == pytest.approx(8.0)

    def test_ball_density_total_mass(self):
        sm = surface_measure(Ball(1.0, 2), 1.0)
        rule = sphere_rule(2, 2048)
        total = rule.integrate(sm.density(rule.nodes))
        assert total == pytest.approx(2 * math.pi, rel=1e-9)

    def test_pushforward_stream_keyed_on_label(self):
        def sampler(gen, size):
            return sample_sphere(gen, 2, size), np.ones(size)

        a, b = (
            SurfaceMeasure("pushforward", 2, sampler=sampler, label=label).integrate(
                lambda u: u[:, 0] ** 2, budget=1000, seed=5)
            for label in ("a", "b")
        )
        assert a.value != b.value

    def test_ellipsoid_density_closes_mixed_volume_identity(self):
        # (1/n) int h_E dS_1(E) = vol(E)
        E = Ellipsoid(np.array([[1.5, 0.2], [0.0, 0.8]]))
        rule = sphere_rule(2, 512)
        sm1 = surface_measure(E, 1.0)
        total = rule.integrate(sm1.density(rule.nodes) * E.support(rule.nodes)) / 2
        assert total == pytest.approx(volume(E).value, rel=1e-6)


class TestMomentBody:
    def test_ball_moment_body_is_round(self):
        N = N_p_body([Ball(1.0, 2)], 2.0, budget=1 << 16, seed=10)
        assert np.std(N.values) <= 3 * np.max(N.node_stderr)

    def test_polar_volume_reports_the_budget(self):
        N = N_p_body([Ball(1.0, 2)], 2.0, budget=5000, seed=10)
        assert N.polar_volume().samples == 5000

    def test_equivalence_identity_balls(self):
        est = equivalence_check([Ball(1.0, 2)] * 2, 2.0, budget=1 << 16, seed=11)
        assert est.within(1.0)

    def test_equivalence_identity_mixed(self):
        est = equivalence_check([Ball(1.0, 2), Cube(1.0, 2)], 1.0,
                                budget=1 << 16, seed=12)
        assert est.within(1.0)


class TestCentroidBody:
    def test_ball_is_fixed_point(self):
        G = centroid_body(Ball(1.0, 2), 2.0, budget=1 << 16, seed=13)
        assert np.allclose(G.values, 1.0, atol=5 * np.max(G.node_stderr) + 1e-3)

    def test_ellipsoid_maps_to_itself(self):
        E = Ellipsoid(np.diag([2.0, 0.5]))
        G = centroid_body(E, 2.0, budget=1 << 17, seed=14)
        h = E.support(G.rule.nodes)
        assert np.allclose(G.values / h, 1.0, atol=0.02)


class TestCrossProduct:
    @pytest.mark.parametrize("n", [2, 3])
    def test_pairing_is_the_determinant_with_the_direction(self, n):
        gen = np.random.default_rng(n)
        pts = [gen.standard_normal((200, n)) for _ in range(n - 1)]
        xi = gen.standard_normal((200, n))
        got = np.sum(cross_product(pts) * xi, axis=1)
        expect = np.linalg.det(np.stack(pts + [xi], axis=1))
        assert np.allclose(got, expect, rtol=1e-12, atol=0)

    def test_other_dimensions_rejected(self):
        with pytest.raises(ValueError, match="n in"):
            cross_product([np.ones((1, 4))] * 3)


def _traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestDirectionKernelMemory:
    """At n=3 a whole-grid integrand is (samples x 1152 nodes); the
    kernels hold one chunk times one node block of it instead, a few
    temporaries of CHUNK x NODE_BLOCK floats (8 MiB) each."""

    BUDGET = 1 << 17
    LIMIT_MIB = 48

    def test_moment_body(self):
        bodies = [Ball(1.0, 3), Ellipsoid(np.diag([1.25, 0.8, 1.0]))]
        peak = _traced_peak_mib(lambda: N_p_body(bodies, 2.0, budget=self.BUDGET, seed=1))
        assert peak < self.LIMIT_MIB

    def test_moment_body_n2(self):
        bodies = [Ellipsoid(np.diag([1.25, 0.8]))]
        peak = _traced_peak_mib(lambda: N_p_body(bodies, 2.0, budget=self.BUDGET, seed=1))
        assert peak < self.LIMIT_MIB

    def test_centroid_body(self):
        E = Ellipsoid(np.diag([1.25, 0.8, 1.0]))
        peak = _traced_peak_mib(lambda: centroid_body(E, 2.0, budget=self.BUDGET, seed=1))
        assert peak < self.LIMIT_MIB

    def test_centroid_body_n2(self):
        E = Ellipsoid(np.diag([1.25, 0.8]))
        peak = _traced_peak_mib(lambda: centroid_body(E, 2.0, budget=self.BUDGET, seed=1))
        assert peak < self.LIMIT_MIB

    def test_polar_projection_norm(self):
        f = normalized_sobolev_extremal(Ball(1.0, 3), 2.0)
        peak = _traced_peak_mib(lambda: polar_projection_norm(f, 2.0, self.BUDGET, 1))
        assert peak < self.LIMIT_MIB

    def test_body_volume_n3(self):
        # 4608 rays against 1152 facets: a dense score matrix is 40 MiB,
        # and its quotient by the support values as much again
        E = Ellipsoid(np.diag([1.25, 0.8, 1.0]))
        rule = sphere_rule(3, 48)
        N = NumericSupport(rule, E.support(rule.nodes))
        peak = _traced_peak_mib(N.body_volume)
        assert peak < 32


class TestProjectionBody:
    def test_ball_projection_is_doubled_ball(self):
        # criterion: support error <= 1e-6
        Pi = projection_body(Ball(1.0, 2))
        u = sphere_rule(2, 64).nodes
        assert np.allclose(Pi.support(u), 2.0, atol=1e-6)

    def test_cube_projection_support(self):
        Pi = projection_body(Cube(1.0, 2))
        u = np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        expect = 2 * (np.abs(u[:, 0]) + np.abs(u[:, 1]))
        assert np.allclose(Pi.support(u), expect, atol=1e-9)

    @pytest.mark.parametrize(
        "L",
        [Cube(1.0, 3), standard_simplex(3, centered=True), corpus("standard", 3)[6]],
        ids=repr,
    )
    def test_zonotope_support_is_cosine_transform(self, L):
        # h(xi) = 1/2 sum_j area_j |<xi, u_j>| over the facets of L
        Pi = projection_body(L)
        normals, areas = L.facets()
        xi = np.random.default_rng(3).standard_normal((50, 3))
        expect = 0.5 * np.abs(xi @ normals.T) @ areas
        assert np.allclose(Pi.support(xi), expect, rtol=1e-12, atol=0)

    def test_non_exact_body_raises(self):
        with pytest.raises(ValueError, match="LqBall"):
            projection_body(LqBall(1.5, 2))
