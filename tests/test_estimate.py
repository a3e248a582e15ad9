"""Unit tests for the error-propagating estimate type."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from convexgeom import rng as rngmod
from convexgeom.estimate import (
    Estimate,
    closed,
    from_samples,
    mc_direction_moments,
    quad_estimate,
)

finite = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
errs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def mc(v, s):
    return Estimate(v, s, 1000, "monte-carlo")


class TestValidation:
    def test_closed_value_has_zero_stderr(self):
        e = closed(2.5)
        assert e.value == 2.5 and e.stderr == 0.0

    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            Estimate(1.0, -0.1, 10, "monte-carlo")

    def test_non_mc_with_stderr_rejected(self):
        with pytest.raises(ValueError):
            Estimate(1.0, 0.1, 0, "quadrature")

    def test_mc_requires_samples(self):
        with pytest.raises(ValueError):
            Estimate(1.0, 0.1, 0, "monte-carlo")


class TestFromSamples:
    def test_mean_and_sem(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        e = from_samples(x)
        assert e.value == pytest.approx(2.5)
        assert e.stderr == pytest.approx(np.std(x, ddof=1) / 2.0)
        assert e.samples == 4

    def test_scale(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert from_samples(x, scale=3.0).value == pytest.approx(7.5)


class TestArithmetic:
    def test_product_stderr_quadrature_sum(self):
        a, b = mc(2.0, 0.1), mc(3.0, 0.2)
        c = a * b
        assert c.value == pytest.approx(6.0)
        assert c.stderr == pytest.approx(math.hypot(0.1 * 3.0, 0.2 * 2.0))

    def test_ratio_of_equal_closed_is_one(self):
        assert (closed(4.0) / closed(4.0)).value == 1.0

    def test_power_relative_error_scales(self):
        a = mc(4.0, 0.4)
        c = a**2
        assert c.value == pytest.approx(16.0)
        assert c.stderr == pytest.approx(2 * 4.0 * 0.4)

    def test_power_at_zero_keeps_error(self):
        a = Estimate(0.0, 0.1, 10, "monte-carlo")
        assert (a**1).stderr == 0.1
        assert (a**2).stderr == pytest.approx(0.01)
        assert (a**0.5).stderr == pytest.approx(0.1**0.5)

    def test_division_by_zero_names_both_operands(self):
        num, den = mc(2.0, 0.1), Estimate(0.0, 0.2, 10, "monte-carlo")
        with pytest.raises(ZeroDivisionError) as info:
            num / den
        assert repr(num) in str(info.value) and repr(den) in str(info.value)
        with pytest.raises(ZeroDivisionError, match="closed-form"):
            num / 0.0

    def test_sum_and_difference(self):
        a, b = mc(2.0, 0.3), mc(1.0, 0.4)
        assert (a + b).value == 3.0
        assert (a - b).stderr == pytest.approx(0.5)

    @given(v1=finite, v2=finite, s1=errs, s2=errs)
    def test_product_ratio_roundtrip(self, v1, v2, s1, s2):
        a, b = mc(v1, s1), mc(v2, s2)
        r = (a * b) / b
        assert r.value == pytest.approx(v1, rel=1e-12)

    @given(v=finite, s=errs, k=st.floats(min_value=0.5, max_value=3.0))
    def test_power_then_root(self, v, s, k):
        a = mc(v, s)
        r = (a**k) ** (1.0 / k)
        assert r.value == pytest.approx(v, rel=1e-9)
        assert r.stderr == pytest.approx(s, rel=1e-6, abs=1e-12)


class TestWithin:
    def test_within_three_sigma(self):
        assert mc(1.02, 0.01).within(1.0)
        assert not mc(1.05, 0.01).within(1.0)

    def test_atol_for_quadrature(self):
        assert closed(1.0 + 5e-7).within(1.0, atol=1e-6)
        assert not closed(1.0 + 5e-6).within(1.0, atol=1e-6)

    def test_quad_estimate_is_exact_method(self):
        assert quad_estimate(3.0).stderr == 0.0


class TestDirectionMoments:
    P = 1.5

    @staticmethod
    def _draw(weighted):
        def draw(gen, size):
            z = gen.standard_normal((size, 3))
            return z, (gen.uniform(0.5, 2.0, size) if weighted else None)

        return draw

    @pytest.mark.parametrize("count", [100, rngmod.NODE_BLOCK + 1])
    def test_blocked_sums_equal_one_array_reference(self, count):
        # neither node count is a multiple of the block width, and the
        # second chunk of the budget is short
        nodes = np.random.default_rng(3).standard_normal((count, 3))
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
        budget = rngmod.CHUNK + 1000
        for weighted in (False, True):
            draw = self._draw(weighted)
            mean, sem, total = mc_direction_moments(
                rngmod.substream(5, "blocks"), budget, nodes, self.P, draw
            )
            gen = rngmod.substream(5, "blocks")
            acc = acc2 = 0.0
            for size in rngmod.chunked(budget):
                z, w = draw(gen, size)
                vals = np.abs(z @ nodes.T) ** self.P
                if weighted:
                    vals = vals * w[:, None]
                acc = acc + vals.sum(axis=0)
                acc2 = acc2 + (vals**2).sum(axis=0)
            ref_mean = acc / budget
            ref_sem = np.sqrt(np.clip(acc2 / budget - ref_mean**2, 0.0, None) / budget)
            assert total == budget
            assert (mean == ref_mean).all(), weighted
            assert (sem == ref_sem).all(), weighted
