"""Acceptance gate: equality-case reproduction, corpus-wide inequality
direction, cross-identities, closed values, invariances, constant
closure, oracle agreements, conjecture probes, determinism.

Each criterion is one test class; shared harness reports are module
fixtures so the whole gate stays inside the runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from convexgeom import rng as rngmod
from convexgeom.bodies import (
    Ball,
    Cube,
    Ellipsoid,
    Polytope,
    linear_image,
    polar,
    standard_simplex,
    volume,
)
from convexgeom.constants import (
    b_np,
    derived_constants,
    levelset_constant,
    levelset_constant_minimized,
    moment_constant,
    omega_n,
    petty_bound,
)
from convexgeom.dualtheory import (
    I_tilde_p,
    I_tilde_p_star,
    omega_p,
    omega_p_ellipsoid,
    omega_p_function,
    omega_p_levelset_radial,
    omega_p_radial,
    projection_body_volume,
)
from convexgeom.funcspace import bump_profile, radial_function
from convexgeom.functionals import (
    I_p,
    N_p_body,
    dual_mixed_volume,
    equivalence_check,
    mixed_volume,
    projection_body,
)
from convexgeom.harness import RunConfig, function_corpus, run
from convexgeom.sphere import sphere_rule

# ---------------------------------------------------------------------------
# shared reports


@pytest.fixture(scope="module")
def default_run():
    """The full default verification run, timed for the budget check."""
    t0 = time.perf_counter()
    rep = run(RunConfig())
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def report_n2(default_run):
    return default_run[0]


@pytest.fixture(scope="module")
def report_n2_p1():
    return run(RunConfig(n=2, p=1.0, lam=math.inf, samples=1 << 14,
                         max_doublings=2))


@pytest.fixture(scope="module")
def report_n3():
    return run(RunConfig(n=3, p=2.0, lam=2.0, samples=1 << 13, max_doublings=2))


def _instances(report, case_id):
    return [r for r in report.results if r.id == case_id]


def _equality_instances(report, case_id, needle):
    out = [r for r in _instances(report, case_id) if needle in r.instance]
    assert out, f"no {case_id} instance matching {needle!r}"
    return out


# ---------------------------------------------------------------------------
# 1. equality cases reproduce ratio 1


class TestCriterion1EqualityCases:
    @pytest.mark.parametrize("case_id,needle", [
        ("rsi_s", "Ball"), ("rsi_s", "Ellipsoid"),
        ("iso_s", "Ball"), ("iso_s", "Ellipsoid"),
        ("rsid_s", "Ball"), ("rsid_s", "Ellipsoid"),
        # the moment bound is tight only for the extremal built on the
        # reference ball itself
        ("moment", "moment(p=2,lam=2).gauge[Ball"),
        ("rsi_f", "moment("), ("iso_f", "moment("),
    ])
    def test_equality_ratio_one_n2(self, report_n2, case_id, needle):
        for r in _equality_instances(report_n2, case_id, needle):
            if "mixed" in r.instance:
                continue
            assert abs(r.ratio - 1.0) <= 3 * r.stderr + 1e-6, r
            assert r.stderr <= 0.01 * max(r.ratio, 1.0), r

    def test_levelset_extremal_exact(self, report_n2):
        (r,) = _equality_instances(report_n2, "levelset", "extremal")
        assert abs(r.ratio - 1.0) <= 1e-6

    def test_sobolev_extremal_near_equality(self, report_n3):
        # the truncated heavy-tail extremal reproduces equality up to
        # its documented truncation bias, within the 1% sigma budget
        (r,) = _equality_instances(report_n3, "sobolev_cnv", "sobolev(")
        assert 1.0 - 1e-6 <= r.ratio <= 1.01

    def test_equality_ratio_one_n3(self, report_n3):
        for case_id in ("rsi_s", "iso_s", "rsid_s"):
            for r in _equality_instances(report_n3, case_id, "Ball"):
                if "mixed" in r.instance:
                    continue
                assert abs(r.ratio - 1.0) <= 3 * r.stderr + 1e-6, r

    def test_runtime_per_case(self, report_n2, report_n3):
        for rep in (report_n2, report_n3):
            for r in rep.results:
                assert r.wall_time <= 60.0, r


# ---------------------------------------------------------------------------
# 2. inequality direction corpus-wide


GRID = [(p, lam) for p in (1.0, 2.0, 3.0) for lam in (0.9, 2.0, math.inf)]


class TestCriterion2Direction:
    @pytest.mark.parametrize("seed", range(20))
    def test_no_ge_case_fails_across_seeds(self, seed):
        p, lam = GRID[seed % len(GRID)]
        rep = run(RunConfig(n=2, p=p, lam=lam, seed=seed, samples=1 << 12,
                            max_doublings=1))
        bad = [r for r in rep.results if r.status == "fail"]
        assert not bad, bad

    def test_n3_direction(self, report_n3, report_n2_p1):
        for rep in (report_n3, report_n2_p1):
            bad = [r for r in rep.results if r.status == "fail"]
            assert not bad, bad


# ---------------------------------------------------------------------------
# 3. cross-identity consistency


class TestCriterion3CrossIdentities:
    def test_moment_equals_dual_mixed_volume_chain(self):
        for bodies, p in ([[Ball(1.0, 2)] * 2, 2.0],
                          [[Ball(1.0, 2), Cube(1.0, 2)], 1.0]):
            est = equivalence_check(bodies, p, budget=1 << 16, seed=21)
            assert est.within(1.0), est

    def test_projection_volume_identity(self):
        # I_tilde_1(L,...,L) = n! vol(Pi L)
        est = projection_body_volume(Cube(1.0, 2), budget=1 << 17, seed=22)
        assert abs(est.value - 16.0) <= 3 * est.stderr
        ball = projection_body_volume(Ball(1.0, 2), budget=1 << 17, seed=23)
        exact = volume(projection_body(Ball(1.0, 2))).value
        assert abs(ball.value - exact) <= 3 * ball.stderr

    def test_I_tilde_two_backends(self):
        bodies = [Ball(1.0, 2), Ellipsoid(np.diag([1.5, 1 / 1.5]))]
        a = I_tilde_p(bodies, 2.0, budget=1 << 16, seed=24)
        b = I_tilde_p_star(bodies, 2.0, budget=1 << 16, seed=25)
        assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)

    def test_omega_levelset_decomposition(self):
        n, p = 2, 2.0
        prof = bump_profile(3, 1.0)
        total = quad(lambda r: omega_p_levelset_radial(prof, n, p, r)
                     * abs(prof.dF(r)), 0.0, 1.0)[0]
        assert total == pytest.approx(omega_p_radial(prof, n, p), rel=1e-8)

    @pytest.mark.parametrize("L", [Ball(1.0, 2), Cube(1.0, 2),
                                   Ellipsoid(np.diag([2.0, 0.5]))], ids=repr)
    def test_self_pairings_give_volume(self, L):
        vol = volume(L).value
        mv = mixed_volume(L, L, 2.0, budget=1 << 15, seed=26)
        dmv = dual_mixed_volume(L, L, 2.0, budget=1 << 15, seed=27)
        assert abs(mv.value - vol) <= 3 * mv.stderr + 1e-6 * vol
        assert abs(dmv.value - vol) <= 3 * dmv.stderr + 1e-9


# ---------------------------------------------------------------------------
# 4. closed-value checks


class TestCriterion4ClosedValues:
    def test_projection_of_disk_is_doubled_disk(self):
        Pi = projection_body(Ball(1.0, 2))
        u = sphere_rule(2, 128).nodes
        assert np.max(np.abs(Pi.support(u) - 2.0)) <= 1e-6

    def test_petty_ratio_disk_vs_bound(self):
        L = Ball(1.0, 2)
        vol_pi = volume(projection_body(L)).value
        ratio = vol_pi * volume(L).value ** (1 - 2)
        assert ratio == pytest.approx(4.0, rel=1e-6)
        assert petty_bound(2) == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_omega_ball_both_routes(self, n):
        p = 2.0
        assert omega_p(Ball(1.0, n), p).value == pytest.approx(
            n * omega_n(n), rel=1e-9)
        assert omega_p_ellipsoid(np.eye(n), p) == pytest.approx(
            n * omega_n(n), rel=1e-12)

    def test_moment_constant_sup_norm_case(self):
        for n in (2, 3):
            for p in (1.0, 2.0):
                assert moment_constant(n, p, math.inf).value == 1.0

    def test_omega_n_table(self):
        assert omega_n(1) == 2.0
        assert omega_n(2) == pytest.approx(math.pi)
        assert omega_n(3) == pytest.approx(4 * math.pi / 3)
        assert omega_n(4) == pytest.approx(math.pi**2 / 2)


# ---------------------------------------------------------------------------
# 5. invariance suites


def _random_sl_maps(n, count=10, seed=31):
    gen = rngmod.substream(seed, "slmaps")
    maps = []
    while len(maps) < count:
        A = gen.normal(size=(n, n)) * 0.6 + np.eye(n)
        det = np.linalg.det(A)
        if abs(det) < 0.2:
            continue
        maps.append(A / abs(det) ** (1.0 / n))
    return maps


class TestCriterion5Invariance:
    def test_I_p_sl_invariance(self):
        base = [Ball(1.0, 2), Cube(1.0, 2)]
        ref = I_p(base, 2.0, budget=1 << 15, seed=32)
        for k, A in enumerate(_random_sl_maps(2)):
            img = [linear_image(L, A) for L in base]
            est = I_p(img, 2.0, budget=1 << 15, seed=33 + k)
            sigma = math.hypot(ref.stderr, est.stderr)
            assert abs(est.value - ref.value) <= 3 * sigma, (k, est, ref)

    def test_moment_body_polar_volume_invariant(self):
        K = Ellipsoid(np.diag([1.4, 1 / 1.4]))
        def pvol(L, seed):
            N = N_p_body([L], 2.0, budget=1 << 15, seed=seed)
            return N.polar_volume()

        ref = pvol(K, 40)
        for k, A in enumerate(_random_sl_maps(2, count=10, seed=41)):
            est = pvol(linear_image(K, A), 42 + k)
            sigma = math.hypot(ref.stderr, est.stderr)
            assert abs(est.value - ref.value) <= 3 * sigma, (k, est, ref)

    def test_omega_p_sl_invariance(self):
        E = Ellipsoid(np.diag([1.6, 1 / 1.6]))
        ref = omega_p(E, 2.0).value
        for A in _random_sl_maps(2, seed=51):
            val = omega_p(linear_image(E, A), 2.0).value
            assert val == pytest.approx(ref, rel=2e-4)

    def test_omega_p_function_sl_invariance(self):
        prof = bump_profile(3, 1.0)
        ref = omega_p_radial(prof, 2, 2.0)
        for k, A in enumerate(_random_sl_maps(2, count=10, seed=61)):
            l = radial_function(prof, Ellipsoid(A))
            est = omega_p_function(l, 2.0, budget=1 << 15, seed=62 + k)
            assert abs(est.value - ref) <= 3 * est.stderr, (k, est, ref)

    def test_I_tilde_sl_and_permutation_invariance(self):
        bodies = [Ball(1.0, 2), Ellipsoid(np.diag([1.3, 1 / 1.3]))]
        ref = I_tilde_p(bodies, 2.0, budget=1 << 15, seed=70)
        perm = I_tilde_p(bodies[::-1], 2.0, budget=1 << 15, seed=71)
        sigma = math.hypot(ref.stderr, perm.stderr)
        assert abs(perm.value - ref.value) <= 3 * sigma
        for k, A in enumerate(_random_sl_maps(2, count=10, seed=72)):
            img = [linear_image(L, A) for L in bodies]
            est = I_tilde_p(img, 2.0, budget=1 << 15, seed=73 + k)
            sigma = math.hypot(ref.stderr, est.stderr)
            assert abs(est.value - ref.value) <= 3 * sigma, (k, est, ref)

    def test_I_p_permutation_invariance(self):
        bodies = [Ball(1.0, 2), Cube(1.0, 2)]
        a = I_p(bodies, 1.0, budget=1 << 16, seed=80)
        b = I_p(bodies[::-1], 1.0, budget=1 << 16, seed=81)
        assert abs(a.value - b.value) <= 3 * math.hypot(a.stderr, b.stderr)


# ---------------------------------------------------------------------------
# 6. derived-constant closure


class TestCriterion6ConstantClosure:
    def test_b_np_defining_equality_at_balls(self):
        n, p = 2, 2.0
        b = b_np(n, p).value
        lhs = I_p([Ball(1.0, n)] * n, p, budget=1 << 16, seed=90)
        rhs = b * (omega_n(n) ** ((n + p) / n)) ** n
        assert abs(lhs.value - rhs) <= 3 * lhs.stderr

    def test_a_np_defining_equality_at_balls(self):
        n, p = 2, 2.0
        table = derived_constants(n, p)
        a = table["a_np"]
        N = N_p_body([Ball(1.0, n)], p, budget=1 << 16, seed=91)
        lhs = N.polar_volume() * omega_n(n) ** ((n + p) / p)
        assert abs(lhs.value - a.value) <= 3 * lhs.stderr

    def test_btilde_defining_equality_at_balls(self, report_n2):
        for r in _equality_instances(report_n2, "rsid_s", "Ball"):
            assert abs(r.ratio - 1.0) <= 3 * r.stderr + 1e-6

    def test_functional_constants_close_at_extremals(self, report_n2):
        for case_id in ("rsi_f", "iso_f"):
            for r in _equality_instances(report_n2, case_id, "moment("):
                assert abs(r.ratio - 1.0) <= 3 * r.stderr + 1e-6


# ---------------------------------------------------------------------------
# 7. oracle agreements


class TestCriterion7Oracles:
    def test_mc_volume_vs_triangulation_random_polygons(self):
        gen = rngmod.substream(100, "polys")
        for k in range(5):
            ang = np.sort(gen.uniform(0, 2 * np.pi, 8))
            r = gen.uniform(0.5, 1.5, 8)
            P = Polytope(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))
            tri = volume(P, method="triangulation").value
            mc = volume(P, method="monte-carlo", budget=1 << 17, seed=101 + k)
            assert abs(mc.value - tri) <= 3 * mc.stderr, (k, mc.value, tri)

    @pytest.mark.parametrize("n,p,lam", [
        (2, 1.0, 2.0), (2, 2.0, 2.0), (3, 2.0, 2.0), (2, 3.0, 0.9),
        (3, 2.0, 0.9), (2, 2.0, 4.0),
    ])
    def test_levelset_constant_minimization(self, n, p, lam):
        closed = levelset_constant(n, p, lam)
        minimized = levelset_constant_minimized(n, p, lam)
        assert abs(closed - minimized) <= 1e-8 * abs(closed)

    def test_gradient_oracles_vs_finite_differences(self):
        cfg = RunConfig(n=2, p=2.0, lam=2.0)
        gen = rngmod.substream(110, "gc")
        for l in function_corpus(cfg, check_gradients=False):
            if l.grad is None:
                continue
            assert l.gradient_check(gen, probes=50) <= 1e-6, l.label


# ---------------------------------------------------------------------------
# 8. conjecture probes


class TestCriterion8Probes:
    PROBES = ["petty_probe", "conj_5_1", "sobolevish_5_5", "stronger_5_8",
              "stronger_p_5_9"]

    def test_probes_emit_finite_ratios(self, report_n2_p1):
        seen = set()
        for r in report_n2_p1.results:
            if r.id in self.PROBES:
                seen.add(r.id)
                assert r.status == "report"
                assert math.isfinite(r.ratio)
                assert r.ratio >= 0.9 - 3 * r.stderr, r
        assert seen == set(self.PROBES)

    def test_probe_log_has_provenance(self, report_n2_p1):
        blob = report_n2_p1.to_json()
        rows = [r for r in blob["results"] if r["id"] in self.PROBES]
        for row in rows:
            # Monte-Carlo rows count their draws; exact rows drew none
            assert row["seed"] is not None
            assert (row["samples"] > 0) == (row["stderr"] > 0), row

    def test_blaschke_santalo_on_symmetric_bodies(self, report_n2, report_n3):
        for rep in (report_n2, report_n3):
            rows = _instances(rep, "blaschke_santalo")
            assert rows
            for r in rows:
                # ratio is omega_n^2 / (vol(K) vol(K polar)) >= 1
                assert r.status == "pass", r


# ---------------------------------------------------------------------------
# 9. determinism and performance


class TestCriterion9Determinism:
    def test_byte_identical_csv(self):
        cfg = dict(n=2, p=2.0, lam=2.0, samples=1 << 12, max_doublings=1,
                   cases=["rsi_s", "levelset", "equivalence_id"])
        a = run(RunConfig(**cfg)).to_csv()
        b = run(RunConfig(**cfg)).to_csv()
        assert a == b

    def test_thread_count_does_not_change_csv(self, monkeypatch):
        cfg = dict(n=2, p=2.0, lam=2.0, samples=1 << 12, max_doublings=1,
                   cases=["rsi_s", "bp_centroid"])
        monkeypatch.setenv("CONVEXGEOM_THREADS", "1")
        a = run(RunConfig(**cfg)).to_csv()
        monkeypatch.setenv("CONVEXGEOM_THREADS", "4")
        b = run(RunConfig(**cfg)).to_csv()
        assert a == b

    def test_full_default_run_under_budget(self, default_run):
        rep, elapsed = default_run
        assert elapsed <= 600.0
        assert not rep.failed
