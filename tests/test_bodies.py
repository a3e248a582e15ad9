"""Unit tests for convex bodies: gauges, supports, polars, volumes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma

from convexgeom import rng as rngmod
from convexgeom.bodies import (
    Ball,
    Cube,
    Ellipsoid,
    LqBall,
    NumericSupport,
    Polytope,
    hull_vertices,
    linear_image,
    polar,
    sample_uniform,
    standard_simplex,
    volume,
)
from convexgeom.constants import omega_n
from convexgeom.sphere import SphereRule, sphere_rule

BODIES_2D = [
    Ball(1.0, 2),
    Ball(0.5, 2),
    Cube(1.0, 2),
    Ellipsoid(np.array([[2.0, 0.3], [0.0, 0.5]])),
    LqBall(1.5, 2),
    LqBall(4.0, 2),
    standard_simplex(2, centered=True),
]


class TestClosedFormVolumes:
    def test_ball(self):
        assert volume(Ball(1.0, 2)).value == pytest.approx(math.pi)
        assert volume(Ball(1.0, 3)).value == pytest.approx(4 * math.pi / 3)
        assert volume(Ball(2.0, 2)).value == pytest.approx(4 * math.pi)

    def test_cube(self):
        assert volume(Cube(1.0, 3)).value == pytest.approx(8.0)

    def test_simplex(self):
        for n in (2, 3):
            assert volume(standard_simplex(n)).value == pytest.approx(
                1.0 / math.factorial(n)
            )

    def test_ellipsoid(self):
        A = np.array([[2.0, 0.0], [1.0, 0.5]])
        assert volume(Ellipsoid(A)).value == pytest.approx(abs(np.linalg.det(A)) * math.pi)

    def test_lq_ball_against_gamma_formula(self):
        q = 1.5
        exact = (2 * gamma(1 / q + 1)) ** 2 / gamma(2 / q + 1)
        est = volume(LqBall(q, 2), budget=200_000, seed=5)
        assert abs(est.value - exact) <= 3 * est.stderr + 1e-9


class TestGaugeSupportDuality:
    @pytest.mark.parametrize("L", BODIES_2D, ids=repr)
    def test_gauge_on_normalized_point_is_one(self, L):
        gen = rngmod.substream(1, "gsd", repr(L))
        x = gen.normal(size=(50, 2))
        g = L.gauge(x)
        y = x / g[:, None]
        assert np.allclose(L.gauge(y), 1.0, atol=1e-9)

    @pytest.mark.parametrize("L", BODIES_2D, ids=repr)
    def test_support_dominates_inner_products(self, L):
        gen = rngmod.substream(2, "gsd", repr(L))
        z = sample_uniform(L, gen, 200)
        xi = gen.normal(size=(20, 2))
        xi /= np.linalg.norm(xi, axis=1)[:, None]
        h = L.support(xi)
        assert np.all(z @ xi.T <= h[None, :] + 1e-9)

    @pytest.mark.parametrize("L", BODIES_2D, ids=repr)
    def test_polar_support_is_inverse_radial(self, L):
        # h_{K}(u) = 1 / r_{K polar}(u) = gauge_{K polar}(u)
        gen = rngmod.substream(3, "gsd", repr(L))
        u = gen.normal(size=(25, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        assert np.allclose(L.support(u), polar(L).gauge(u), rtol=1e-7, atol=1e-9)

    def test_polar_involution_ellipsoid(self):
        E = Ellipsoid(np.array([[2.0, 0.5], [0.0, 0.7]]))
        gen = rngmod.substream(4, "gsd")
        u = gen.normal(size=(25, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        assert np.allclose(polar(polar(E)).support(u), E.support(u), rtol=1e-9)

    def test_polar_of_lq_ball(self):
        # the polar of the l_q ball is the l_q' ball, 1/q + 1/q' = 1, and
        # the polar of a polar is its base
        L = LqBall(1.5, 2)
        Lo = polar(L)
        u = sphere_rule(2, 64).nodes
        assert np.allclose(Lo.support(u), LqBall(3.0, 2).support(u), rtol=1e-12)
        assert np.allclose(Lo.gauge(u), LqBall(3.0, 2).gauge(u), rtol=1e-12)
        assert polar(Lo) is L


class TestLinearImages:
    @given(d1=st.floats(0.3, 3.0), d2=st.floats(0.3, 3.0), sh=st.floats(-1.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_volume_scales_with_determinant(self, d1, d2, sh):
        A = np.array([[d1, sh], [0.0, d2]])
        L = Cube(1.0, 2)
        v = volume(linear_image(L, A), budget=50_000, seed=8)
        exact = abs(np.linalg.det(A)) * 4.0
        assert abs(v.value - exact) <= 3 * v.stderr + 1e-9 * exact

    def test_support_of_linear_image(self):
        # h_{AK}(xi) = h_K(A^T xi): the image of the square is a parallelogram
        A = np.array([[1.5, 0.4], [-0.3, 0.8]])
        img = linear_image(Cube(1.0, 2), A)
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        para = Polytope(corners @ A.T)
        u = sphere_rule(2, 64).nodes
        assert np.allclose(img.support(u), para.support(u), rtol=1e-12)
        assert np.allclose(img.gauge(u), para.gauge(u), rtol=1e-12)


class TestPolytopes:
    def test_triangulation_matches_shoelace(self):
        gen = rngmod.substream(9, "poly")
        for k in range(5):
            ang = np.sort(gen.uniform(0, 2 * np.pi, 7))
            r = gen.uniform(0.5, 1.5, 7)
            verts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
            P = Polytope(verts)
            tri = volume(P, method="triangulation").value
            x, y = P.vertices[:, 0], P.vertices[:, 1]
            shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
            assert tri == pytest.approx(shoelace, rel=1e-12)

    def test_mc_volume_agrees_with_triangulation(self):
        gen = rngmod.substream(10, "poly")
        ang = np.sort(gen.uniform(0, 2 * np.pi, 6))
        verts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        P = Polytope(verts)
        tri = volume(P, method="triangulation").value
        mc = volume(P, method="monte-carlo", budget=200_000, seed=11)
        assert abs(mc.value - tri) <= 3 * mc.stderr

    @pytest.mark.parametrize(
        "P, exact",
        [(standard_simplex(3, centered=True), 1 / 6), (Cube(1.0, 3).polar(), 4 / 3)],
        ids=repr,
    )
    def test_triangulation_is_exact(self, P, exact):
        assert volume(P, method="triangulation").value == pytest.approx(exact, rel=1e-14)
        assert P.volume_exact() == pytest.approx(exact, rel=1e-14)

    def test_simplex_contains_centroid(self):
        S = standard_simplex(3, centered=True)
        assert S.gauge(np.zeros((1, 3)))[0] < 1.0


def _polytopes_built_by_verify(monkeypatch, n: int = 2) -> list[np.ndarray]:
    """The point clouds whose hull ``verify --n <n> --seed 7`` takes: every
    ``Polytope`` and every zonotope pruning step of ``projection_body``.
    Which polytopes are built does not depend on the sample budget.  The
    corpus cache is emptied first, so its polytopes are built in view."""
    from convexgeom import functionals, harness

    harness._corpus.cache_clear()

    clouds = []
    init, prune = Polytope.__init__, functionals.hull_vertices

    def spy_init(self, vertices):
        clouds.append(np.asarray(vertices, dtype=float))
        init(self, vertices)

    def spy_prune(points):
        clouds.append(np.asarray(points, dtype=float))
        return prune(points)

    with monkeypatch.context() as m:
        m.setattr(Polytope, "__init__", spy_init)
        m.setattr(functionals, "hull_vertices", spy_prune)
        harness.run(harness.RunConfig(n=n, seed=7, samples=256, max_doublings=0))
    return clouds


class TestHull2D:
    """Andrew's monotone chain against qhull (scipy, in tests only)."""

    @staticmethod
    def _check(points):
        from scipy.spatial import ConvexHull

        points = np.asarray(points, dtype=float)
        ref = ConvexHull(points)
        idx = hull_vertices(points)
        got, want = points[idx], points[ref.vertices]
        assert len(got) == len(want)
        assert {tuple(v) for v in got} == {tuple(v) for v in want}
        # counter-clockwise: every consecutive cross product is positive
        e = np.roll(got, -1, axis=0) - got
        assert np.all(e[:, 0] * np.roll(e, -1, axis=0)[:, 1]
                      - e[:, 1] * np.roll(e, -1, axis=0)[:, 0] > 0)
        P = Polytope(points)
        assert repr(P) == f"Polytope({len(ref.vertices)} vertices, n=2)"
        assert P.volume_exact() == pytest.approx(ref.volume, rel=1e-12)
        lengths = np.sort(P.facets()[1])
        ref_lengths = np.sort(np.linalg.norm(
            points[ref.simplices[:, 0]] - points[ref.simplices[:, 1]], axis=1))
        np.testing.assert_allclose(lengths, ref_lengths, rtol=1e-12)
        return P

    def test_random_clouds(self):
        gen = rngmod.substream(12, "hull")
        for size in (3, 4, 7, 20, 200):
            for scale in (1e-3, 1.0, 1e3):
                self._check(gen.normal(size=(size, 2)) * scale)

    def test_collinear_and_duplicate_points_are_not_vertices(self):
        square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        on_edges = np.array([[0.0, 1.0], [1.0, 0.3], [-1.0, -0.5], [0.1, -1.0]])
        pts = np.vstack([square, on_edges, square[:2], [[0.0, 0.0]]])
        P = self._check(pts)
        assert len(P.vertices) == 4
        # collinear up to rounding: a third of the way along a rotated edge
        a, b = np.array([0.3, 1.7]), np.array([1.9, -0.4])
        self._check(np.array([a, b, a + (b - a) / 3, [-1.0, -1.0]]))

    def test_all_collinear_is_rejected(self):
        with pytest.raises(ValueError, match="collinear"):
            Polytope(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]))

    def test_polars(self):
        self._check(Cube(1.0, 2).polar().vertices)
        gen = rngmod.substream(13, "hull")
        ang = np.sort(gen.uniform(0, 2 * np.pi, 9))
        P = Polytope(np.stack([np.cos(ang), np.sin(ang)], axis=1) * gen.uniform(0.5, 1.5, 9)[:, None])
        Q = P.polar()
        self._check(Q.vertices)
        # the polar of the polar is the polytope itself
        np.testing.assert_allclose(Q.polar().support(sphere_rule(2, 64).nodes),
                                   P.support(sphere_rule(2, 64).nodes), rtol=1e-12)

    def test_every_polygon_that_verify_builds(self, monkeypatch):
        clouds = _polytopes_built_by_verify(monkeypatch)
        assert len({c.tobytes() for c in clouds}) >= 15
        for points in clouds:
            self._check(points)


class TestHull3D:
    """The beneath-beyond hull against qhull (scipy, in tests only)."""

    @staticmethod
    def _area_by_normal(normals, areas):
        """Facet area summed over the facets that share a unit normal."""
        groups: list[list] = []
        for u, a in zip(normals, areas):
            for g in groups:
                if np.abs(g[0] - u).max() < 1e-9:
                    g[1] += a
                    break
            else:
                groups.append([u, a])
        return groups

    @classmethod
    def _check(cls, points):
        from scipy.spatial import ConvexHull

        points = np.asarray(points, dtype=float)
        n = points.shape[1]
        ref = ConvexHull(points)
        idx = hull_vertices(points)
        assert np.all(np.diff(idx) > 0)  # input order, like qhull's
        assert {tuple(v) for v in points[idx]} == {tuple(v) for v in points[ref.vertices]}
        P = Polytope(points)
        assert {tuple(v) for v in P.vertices} == {tuple(v) for v in points[ref.vertices]}
        assert P.volume_exact() == pytest.approx(ref.volume, rel=1e-12)
        assert volume(P, method="triangulation").value == pytest.approx(ref.volume, rel=1e-12)
        E = points[ref.simplices[:, 1:]] - points[ref.simplices[:, :1]]
        ref_areas = np.sqrt(np.linalg.det(E @ E.transpose(0, 2, 1))) / math.factorial(n - 1)
        got = cls._area_by_normal(*P.facets())
        want = cls._area_by_normal(ref.equations[:, :-1], ref_areas)
        assert len(got) == len(want)
        for u, area in got:
            match = [a for v, a in want if np.abs(v - u).max() < 1e-9]
            assert match == [pytest.approx(area, rel=1e-12)]
        # every input point satisfies every facet inequality
        assert np.all(points @ P._normals.T <= P._offsets + 1e-12 * np.abs(points).max())
        return P

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_clouds(self, n):
        gen = rngmod.substream(14, "hull", n)
        for size in (4, 5, 7, 20, 200):
            if size <= n:
                continue
            for scale in (1e-3, 1.0, 1e3):
                self._check(gen.normal(size=(size, n)) * scale)

    def test_cube_corners_with_face_centres_edge_midpoints_and_duplicates(self):
        corners = np.array([c for c in itertools.product([-1.0, 1.0], repeat=3)])
        centres = np.vstack([np.eye(3), -np.eye(3)])
        midpoints = np.array(
            [c for c in itertools.product([-1.0, 0.0, 1.0], repeat=3) if np.count_nonzero(c) == 2])
        for pts in (
            np.vstack([centres, midpoints, corners, corners[:3], centres[:2], np.zeros((1, 3))]),
            np.vstack([corners, midpoints, centres, corners[::-1]]),
        ):
            P = self._check(pts)
            assert len(P.vertices) == 8
            assert P.volume_exact() == pytest.approx(8.0, rel=1e-14)

    def test_point_just_beyond_a_face_is_a_vertex(self):
        corners = np.array([c for c in itertools.product([-1.0, 1.0], repeat=3)])
        P = self._check(np.vstack([corners, [[0.2, 0.1, 1.0 + 1e-9]]]))
        assert len(P.vertices) == 9

    def test_lattice_and_rotated_lattice(self):
        grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=3)))
        self._check(grid)
        self._check(grid @ _rotation(3).T * 1.7 + 0.3)

    def test_flat_cloud_is_rejected(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="full-dimensional"):
            Polytope(pts)

    def test_every_polytope_that_verify_builds(self, monkeypatch):
        clouds = _polytopes_built_by_verify(monkeypatch, n=3)
        assert len({c.tobytes() for c in clouds}) >= 16
        for points in clouds:
            self._check(points)


def _rotation(n):
    return np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]


class TestNumericSupport:
    def test_exact_ball_support_volumes(self):
        rule = sphere_rule(2, 512)
        N = NumericSupport(rule, np.ones(len(rule.nodes)))
        assert N.body_volume().value == pytest.approx(math.pi, rel=1e-3)
        assert N.polar_volume().value == pytest.approx(math.pi, rel=1e-6)

    def test_node_noise_propagates(self):
        rule = sphere_rule(2, 256)
        vals = np.ones(len(rule.nodes))
        noisy = NumericSupport(rule, vals, node_stderr=0.01 * vals, samples=500)
        assert noisy.polar_volume().stderr > 0
        assert noisy.body_volume().stderr > 0
        assert noisy.polar_volume().samples == noisy.body_volume().samples == 500

    def test_noise_free_volumes_report_no_samples(self):
        rule = sphere_rule(2, 256)
        N = NumericSupport(rule, np.ones(len(rule.nodes)))
        assert N.polar_volume().samples == N.body_volume().samples == 0
        assert N.polar_volume().method == "quadrature"

    def test_node_noise_without_samples_raises(self):
        rule = sphere_rule(2, 256)
        vals = np.ones(len(rule.nodes))
        with pytest.raises(ValueError, match="sample count"):
            NumericSupport(rule, vals, node_stderr=0.01 * vals)

    def test_scaled_ball_volume(self):
        rule = sphere_rule(3, 64)
        N = NumericSupport(rule, 2.0 * np.ones(len(rule.nodes)))
        assert N.polar_volume().value == pytest.approx(omega_n(3) / 8, rel=1e-6)

    def test_n2_interpolates_across_the_wrap(self):
        # the first node sits at pi/level: angles below it interpolate
        # against the last node, as accurately as anywhere else
        K = Ellipsoid(_rotation(2) @ np.diag([2.0, 0.5]))
        rule = sphere_rule(2, 256)
        N = NumericSupport(rule, K.support(rule.nodes))
        th = np.linspace(0.0, 2 * np.pi, 200_001)[:-1]
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        err = np.abs(N.support(u) - K.support(u))
        wrap = th < np.pi / 256
        assert err[wrap].max() <= 2 * err[~wrap].max()

    @pytest.mark.parametrize(
        "body, bound",
        [
            (Ellipsoid(_rotation(3) @ np.diag([2.0, 1.0, 0.5])), 3.03e-3),
            (Cube(1.0, 3), 5.49e-3),
            (LqBall(4.0, 3), 2.09e-3),
            (standard_simplex(3, centered=True), 7.05e-3),
        ],
        ids=repr,
    )
    def test_n3_mean_relative_error(self, body, bound):
        # each bound is 1.1x the mean error of spherical barycentric
        # interpolation over a triangulation of the same nodes
        rule = sphere_rule(3, 48)
        N = NumericSupport(rule, body.support(rule.nodes))
        u = np.random.default_rng(1).standard_normal((20_000, 3))
        exact = body.support(u)
        assert np.mean(np.abs(N.support(u) / exact - 1)) <= bound

    def test_rule_not_from_sphere_rule_raises(self):
        rule = sphere_rule(3, 16)
        moved = SphereRule(rule.nodes[::-1], rule.weights, rule.level)
        with pytest.raises(ValueError, match="sphere_rule"):
            NumericSupport(moved, np.ones(len(rule.nodes)))
