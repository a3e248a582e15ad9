"""Unit tests for spherical quadrature rules."""

import numpy as np
import pytest

from convexgeom.sphere import sample_sphere, sphere_rule, surface_area
from convexgeom import rng as rngmod


@pytest.mark.parametrize("n", [2, 3])
class TestRule:
    def test_total_mass(self, n):
        rule = sphere_rule(n)
        ones = np.ones(len(rule.nodes))
        assert rule.integrate(ones) == pytest.approx(surface_area(n), rel=1e-10)

    def test_nodes_unit_norm(self, n):
        rule = sphere_rule(n)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0)

    def test_second_moment_isotropic(self, n):
        rule = sphere_rule(n)
        for i in range(n):
            val = rule.integrate(rule.nodes[:, i] ** 2)
            assert val == pytest.approx(surface_area(n) / n, rel=1e-8)

    def test_odd_moment_vanishes(self, n):
        rule = sphere_rule(n)
        for i in range(n):
            assert rule.integrate(rule.nodes[:, i]) == pytest.approx(0.0, abs=1e-10)

    def test_refinement_converges(self, n):
        # integrate a smooth non-polynomial test function at two levels
        def f(u):
            return np.exp(u[:, 0]) * (1 + 0.5 * u[:, -1])

        lo = sphere_rule(n, 64)
        hi = sphere_rule(n, 256)
        a = lo.integrate(f(lo.nodes))
        b = hi.integrate(f(hi.nodes))
        assert a == pytest.approx(b, rel=1e-6)


class TestCache:
    def test_rule_is_built_once_and_read_only(self):
        rule = sphere_rule(3, 48)
        assert sphere_rule(3, 48) is rule
        assert sphere_rule(3, 64) is not rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestSampling:
    def test_samples_on_sphere(self):
        gen = rngmod.substream(3, "sph")
        x = sample_sphere(gen, 3, 1000)
        assert x.shape == (1000, 3)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0)

    def test_mean_near_zero(self):
        gen = rngmod.substream(4, "sph")
        x = sample_sphere(gen, 2, 20000)
        assert np.linalg.norm(x.mean(axis=0)) < 0.02
