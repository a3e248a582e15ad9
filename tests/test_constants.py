"""Unit tests for closed-form and derived constants."""

import math

import numpy as np
import pytest

from convexgeom import rng as rngmod
from convexgeom.bodies import Ball
from convexgeom.constants import (
    b_np,
    b_np_dual,
    c_np,
    cnv_np,
    derived_constants,
    holder_conjugate,
    levelset_constant,
    levelset_constant_minimized,
    moment_constant,
    omega_n,
    petty_bound,
    reparam_alpha_to_lambda,
    reparam_lambda_to_alpha,
    rsid_f_constant,
    sobolev_constant,
)
from convexgeom.functionals import I_p, det_volume_many
from convexgeom.sphere import sample_sphere


class TestOmegaN:
    def test_table(self):
        assert omega_n(1) == pytest.approx(2.0)
        assert omega_n(2) == pytest.approx(math.pi)
        assert omega_n(3) == pytest.approx(4 * math.pi / 3)
        assert omega_n(4) == pytest.approx(math.pi**2 / 2)


class TestClosedValues:
    def test_moment_constant_infinity_is_one(self):
        for n in (2, 3):
            for p in (1.0, 2.0, 3.0):
                assert moment_constant(n, p, math.inf).value == pytest.approx(1.0)

    def test_sobolev_constant_p1(self):
        # at p = 1 the indicator extremal gives exactly 1 under the
        # mixed-volume normalization (Minkowski's first inequality)
        for n in (2, 3):
            assert cnv_np(n, 1.0).value == pytest.approx(1.0)

    def test_petty_bound_n2(self):
        assert petty_bound(2) == pytest.approx(4.0)

    def test_holder_conjugate(self):
        assert holder_conjugate(2.0) == pytest.approx(2.0)
        assert holder_conjugate(math.inf) == pytest.approx(1.0)
        assert holder_conjugate(1.5) == pytest.approx(3.0)

    def test_reparam_roundtrip(self):
        lam = reparam_alpha_to_lambda(1.7, 2, 2.0)
        alpha = reparam_lambda_to_alpha(lam, 2, 2.0)
        assert alpha == pytest.approx(1.7)
        assert reparam_lambda_to_alpha(math.inf, 2, 2.0) == math.inf


class TestLevelsetConstant:
    @pytest.mark.parametrize("n,p,lam", [
        (2, 1.0, 2.0), (2, 2.0, 2.0), (2, 2.0, 3.0), (3, 2.0, 2.0),
        (2, 3.0, 0.9), (3, 2.0, 0.9), (2, 2.0, 1.5),
    ])
    def test_closed_form_matches_minimization(self, n, p, lam):
        closed = levelset_constant(n, p, lam)
        minimized = levelset_constant_minimized(n, p, lam)
        assert abs(closed - minimized) <= 1e-8 * abs(closed)


class TestDerivedClosure:
    def test_a_np_from_b_np(self):
        n, p = 2, 2.0
        table = derived_constants(n, p)
        b = table["b_np"].value
        assert table["a_np"].value == pytest.approx(((n + p) / n * b) ** (-n / p))

    def test_btilde_np_from_b_np(self):
        n, p = 2, 1.0
        table = derived_constants(n, p)
        b = table["b_np"].value
        assert table["btilde_np"].value == pytest.approx(
            (n + p) ** n * b / n ** (n + p)
        )

    def test_functional_constants_present_with_lambda(self):
        table = derived_constants(2, 2.0, lam=2.0)
        assert "A_nplam" in table and "B_nplam" in table
        A, B = table["A_nplam"].value, table["B_nplam"].value
        ctil = moment_constant(2, 2.0, 2.0).value
        n, p = 2, 2.0
        assert B == pytest.approx(n / (n + p) * ctil * A ** (-p / n), rel=1e-9)

    def test_rsid_f_alpha_infinity_reduces_to_set_constant(self):
        n, p = 2, 2.0
        C = rsid_f_constant(n, p, math.inf)
        b = b_np(n, p).value
        assert C.value == pytest.approx((n + p) ** n * b / n ** (n + p), rel=1e-9)

    def test_c_np_normalizes_ball(self):
        # with c_np the p-centroid body of the unit ball is the unit ball
        from convexgeom.functionals import centroid_body

        G = centroid_body(Ball(1.0, 2), 2.0, budget=1 << 16, seed=3)
        assert np.allclose(G.values, 1.0, atol=5 * np.max(G.node_stderr) + 1e-3)


ORACLE_BUDGET = 1 << 18


class TestRandomSimplexClosedForms:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_b_np_matches_monte_carlo_oracle(self, n, p):
        est = I_p([Ball(1.0, n)] * n, p, budget=ORACLE_BUDGET, seed=31)
        est = est / omega_n(n) ** (n + p)
        assert abs(b_np(n, p).value - est.value) <= 3 * est.stderr

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_b_np_dual_matches_monte_carlo_oracle(self, n, p):
        gen = rngmod.substream(32, "b_np_dual oracle", str(n), str(p))
        dets = det_volume_many([sample_sphere(gen, n, ORACLE_BUDGET) for _ in range(n)]) ** p
        scale = (n * omega_n(n)) ** n / omega_n(n) ** (n - p)
        mean = scale * dets.mean()
        sem = scale * dets.std(ddof=1) / math.sqrt(ORACLE_BUDGET)
        assert abs(b_np_dual(n, p).value - mean) <= 3 * sem

    def test_exact_values(self):
        assert b_np(2, 2.0).value == pytest.approx(1 / (8 * math.pi**2), rel=1e-14)
        assert b_np_dual(2, 1.0).value == pytest.approx(8.0, rel=1e-14)
        for n in (2, 3):
            assert c_np(n, 2.0).value == pytest.approx(1 / (n + 2), rel=1e-14)
