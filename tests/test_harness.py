"""Unit tests for the verification harness: registry, corpus, runner,
report emission and determinism."""

import json
import math

import pytest

from convexgeom.bodies import Polytope
from convexgeom.harness import (
    REGISTRY,
    RunConfig,
    case_ids,
    corpus,
    emit_sweep,
    function_corpus,
    run,
    sweep,
)

EXPECTED_IDS = {
    "rsi_s", "iso_s", "iso_f", "rsi_f", "moment", "mv_ineq", "dmv_ineq",
    "sobolev_cnv", "bp_centroid", "rsid_s", "rsid_f", "levelset",
    "petty_probe", "conj_5_1", "sobolevish_5_5", "zhang_5_7",
    "stronger_5_8", "stronger_p_5_9", "blaschke_santalo",
    "equivalence_id", "commutativity_id",
}

PROBE_IDS = {"petty_probe", "conj_5_1", "sobolevish_5_5", "stronger_5_8",
             "stronger_p_5_9"}


class TestRegistry:
    def test_all_ids_registered_once(self):
        ids = case_ids()
        assert set(ids) == EXPECTED_IDS
        assert len(ids) == len(set(ids))

    def test_probe_class_is_exactly_open_problems(self):
        probes = {c.id for c in REGISTRY if c.relation == "probe"}
        assert probes == PROBE_IDS


class TestCorpus:
    def test_standard_n2_size(self):
        bodies = corpus("standard", 2)
        assert len(bodies) >= 8

    def test_smooth_excludes_polytopes(self):
        for L in corpus("smooth", 2):
            assert not isinstance(L, Polytope)

    def test_unknown_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus("nope", 2)

    def test_function_corpus_gradient_checked(self):
        cfg = RunConfig(n=2, p=2.0, lam=2.0)
        fs = function_corpus(cfg)
        assert len(fs) >= 4

    def test_corpus_deterministic(self):
        a = corpus("standard", 2, seed=5)
        b = corpus("standard", 2, seed=5)
        assert [repr(L) for L in a] == [repr(L) for L in b]


class TestConfig:
    def test_from_dict_parses_inf(self):
        cfg = RunConfig.from_dict({"lam": "inf", "n": 3})
        assert cfg.lam == math.inf and cfg.n == 3

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"bogus": 1})

    def test_unknown_case_id_rejected(self):
        with pytest.raises(ValueError):
            run(RunConfig(cases=["not_a_case"]))

    @pytest.mark.parametrize(
        "field, value",
        [("n", 4), ("n", 1), ("n", 2.0), ("samples", 0), ("samples", -5),
         ("samples", 1024.5), ("max_doublings", -1), ("max_doublings", 1.0),
         ("p", 0.5), ("p", math.nan), ("p", math.inf), ("p", "2"),
         ("lam", 0.3), ("lam", 1.0), ("lam", math.nan), ("lam", "2"),
         ("target_rel_stderr", -1.0), ("target_rel_stderr", 0.0),
         ("target_rel_stderr", math.inf), ("corpus", "bogus")],
    )
    def test_bad_field_names_itself_and_its_value(self, field, value):
        with pytest.raises(ValueError, match=rf"config {field} .*got {value!r}$"):
            RunConfig(**{field: value})
        with pytest.raises(ValueError, match=f"config {field} "):
            RunConfig.from_dict({field: value})

    def test_sweep_validates_every_value_before_running(self, monkeypatch):
        import convexgeom.harness as harness

        def no_run(config):
            raise AssertionError("ran before validating the sweep")

        monkeypatch.setattr(harness, "run", no_run)
        with pytest.raises(ValueError, match="config n must be 2 or 3, got 4"):
            sweep(RunConfig(), "n", [2, 4])


SMALL = dict(n=2, p=2.0, lam=2.0, samples=1 << 11, max_doublings=0)


class TestRunner:
    def test_small_run_produces_results(self):
        rep = run(RunConfig(cases=["rsi_s", "levelset", "petty_probe"], **SMALL))
        assert rep.results
        ids = {r.id for r in rep.results}
        assert ids == {"rsi_s", "levelset", "petty_probe"}

    def test_probes_report_only(self):
        rep = run(RunConfig(cases=["petty_probe"], **SMALL))
        assert all(r.status == "report" for r in rep.results)

    def test_closed_form_rows_report_no_samples(self):
        rep = run(RunConfig(cases=["petty_probe"], **SMALL))
        assert all(r.samples == 0 for r in rep.results)

    def test_budget_exhaustion_flags_instead_of_failing(self):
        # a violated bound whose stderr target cannot be met is flagged
        from convexgeom.estimate import Estimate
        from convexgeom.harness import InequalityCase, _evaluate

        case = InequalityCase("rsi_s", "ge", None, "synthetic")
        ev = lambda budget, seed: Estimate(0.5, 0.1, budget, "monte-carlo")
        cfg = RunConfig(samples=1 << 8, max_doublings=1)
        res = _evaluate(case, "synthetic", ev, cfg)
        assert res.status == "flag"

    def test_violation_with_met_target_fails(self):
        from convexgeom.estimate import Estimate
        from convexgeom.harness import InequalityCase, _evaluate

        case = InequalityCase("rsi_s", "ge", None, "synthetic")
        ev = lambda budget, seed: Estimate(0.5, 0.001, budget, "monte-carlo")
        cfg = RunConfig(samples=1 << 8, max_doublings=1)
        res = _evaluate(case, "synthetic", ev, cfg)
        assert res.status == "fail"

    def test_results_sorted_by_case_id_order(self):
        rep = run(RunConfig(cases=["levelset", "rsi_s"], **SMALL))
        order = [r.id for r in rep.results]
        # registry order: rsi_s precedes levelset
        assert order.index("rsi_s") < order.index("levelset")


class TestEmission:
    def test_csv_header_contract(self):
        rep = run(RunConfig(cases=["levelset"], **SMALL))
        lines = rep.to_csv().splitlines()
        assert lines[0] == "id,n,p,lambda,ratio,stderr,status,seed,samples"

    def test_json_roundtrip(self):
        rep = run(RunConfig(cases=["levelset"], **SMALL))
        blob = json.dumps(rep.to_json())
        back = json.loads(blob)
        assert back["summary"] == rep.summary()
        assert len(back["results"]) == len(rep.results)

    def test_csv_deterministic(self):
        a = run(RunConfig(cases=["rsi_s", "blaschke_santalo"], **SMALL)).to_csv()
        b = run(RunConfig(cases=["rsi_s", "blaschke_santalo"], **SMALL)).to_csv()
        assert a == b

    def test_sweep_emits_one_file_per_case(self, tmp_path):
        cfg = RunConfig(cases=["levelset"], **SMALL)
        reports = sweep(cfg, "lam", [1.5, 2.0])
        paths = emit_sweep(reports, "lam", tmp_path)
        assert len(paths) == 1
        text = open(paths[0]).read()
        assert "1.5" in text and "2" in text
