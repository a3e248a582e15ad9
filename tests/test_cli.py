"""Smoke tests for the command-line surface."""

import json
import math

import pytest

from convexgeom.cli import main


class TestBodyVolume:
    def test_cube_exact(self, capsys):
        rc = main(["body", "volume", "--kind", "cube", "--half-side", "1", "--n", "3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["volume"] == pytest.approx(8.0)

    @pytest.mark.parametrize("method", ["auto", "triangulation"])
    def test_simplex_n4(self, capsys, method):
        rc = main(["body", "volume", "--kind", "simplex", "--n", "4", "--method", method])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["volume"] == pytest.approx(1 / 24, rel=1e-14)

    def test_ellipsoid_diag(self, capsys):
        rc = main(["body", "volume", "--kind", "ellipsoid", "--n", "2",
                   "--diag", "2,0.5"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        import math

        assert out["volume"] == pytest.approx(math.pi)

    def test_diag_length_mismatch(self, capsys):
        rc = main(["body", "volume", "--kind", "ellipsoid", "--n", "3",
                   "--diag", "2,0.5"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kind", "ball", "--n", "0"], "n must be an integer >= 2, got 0"),
            (["--kind", "ball", "--radius", "-1"], "radius must be a finite number > 0, got -1.0"),
            (["--kind", "cube", "--half-side", "nan"],
             "half_side must be a finite number > 0, got nan"),
            (["--kind", "lqball", "--q", "0.5"], "q must be a finite number > 1, got 0.5"),
            (["--kind", "ellipsoid", "--diag", "1,0"],
             "diag must be 2 comma-separated finite nonzero numbers, got '1,0'"),
            (["--kind", "ellipsoid", "--diag", "1,x"],
             "diag must be 2 comma-separated finite nonzero numbers, got '1,x'"),
            (["--kind", "ball", "--method", "monte-carlo", "--budget", "0"],
             "budget must be an integer >= 1, got 0"),
            (["--kind", "ball", "--method", "triangulation"], "triangulation requires a polytope"),
        ],
    )
    def test_bad_input_exits_2_naming_the_field(self, capsys, flags, message):
        rc = main(["body", "volume", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"convexgeom body volume: {message}" in captured.err
        assert captured.out == ""


class TestConstants:
    def test_table_is_json(self, capsys):
        rc = main(["constants", "--n", "2", "--p", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert "b_np" in out and "a_np" in out

    def test_table_is_strict_json_at_lambda_inf(self, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rc = main(["constants", "--n", "2", "--p", "1", "--lambda", "inf", "--dump"])
        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert rc == 0
        assert out["A_nplam"]["params"]["lam"] == "inf"

    def test_b_np_is_the_closed_form(self, capsys):
        assert main(["constants", "--n", "2", "--p", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["b_np"]["value"] == pytest.approx(1 / (8 * math.pi**2), rel=1e-12)

    def test_constants_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["constants", "--seed", "7"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "0.5"], "p must be a finite number >= 1, got 0.5"),
            (["--p", "nan"], "p must be a finite number >= 1, got nan"),
            (["--n", "1"], "n must be an integer >= 2, got 1"),
            (["--lambda", "0.3"],
             "lam must be inf or in (n/(n+p), 1) u (1, inf) = (0.5, 1) u (1, inf), got 0.3"),
            (["--lambda", "nan"],
             "lam must be inf or in (n/(n+p), 1) u (1, inf) = (0.5, 1) u (1, inf), got nan"),
        ],
    )
    def test_bad_input_exits_2_naming_the_field(self, capsys, flags, message):
        rc = main(["constants", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"convexgeom constants: {message}" in captured.err
        assert captured.out == ""


class TestVerify:
    def test_small_verify_exits_zero(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        rc = main(["verify", "--n", "2", "--p", "2", "--lambda", "2",
                   "--samples", "2048", "--max-doublings", "0",
                   "--cases", "levelset,blaschke_santalo",
                   "--csv", str(csv_path)])
        assert rc == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("id,n,p,lambda")

    def test_config_file_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cases": ["levelset"], "lam": "inf"}))
        out_path = tmp_path / "r.json"
        rc = main(["verify", "--n", "2", "--p", "1", "--lambda", "2",
                   "--samples", "2048", "--config", str(cfg),
                   "--out", str(out_path)])
        assert rc == 0
        rep = json.loads(out_path.read_text())
        assert rep["config"]["lam"] == "inf"
        assert {r["id"] for r in rep["results"]} == {"levelset"}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--samples", "0"], "samples must be an integer >= 1, got 0"),
            (["--samples", "-5"], "samples must be an integer >= 1, got -5"),
            (["--n", "4"], "n must be 2 or 3, got 4"),
            (["--max-doublings", "-1"], "max_doublings must be an integer >= 0, got -1"),
            (["--sweep", "n", "--values", "2,4"], "n must be 2 or 3, got 4"),
            (["--sweep", "samples"], "--sweep requires --values"),
            (["--p", "0.5"], "p must be a finite number >= 1, got 0.5"),
            (["--p", "nan"], "p must be a finite number >= 1, got nan"),
            (["--lambda", "0.3"],
             "lam must be inf or in (n/(n+p), 1) u (1, inf) = (0.5, 1) u (1, inf), got 0.3"),
            (["--target-rel-stderr", "-1"],
             "target_rel_stderr must be a finite number > 0, got -1.0"),
            (["--samples", "inf"], "samples must be an integer >= 1, got inf"),
            (["--samples", "1024.5"], "samples must be an integer >= 1, got 1024.5"),
        ],
    )
    def test_bad_config_exits_2_naming_the_field(self, capsys, flags, message):
        rc = main(["verify", "--cases", "levelset", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err
        assert captured.out == ""

    def test_bad_config_file_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for entries, message in [
            ({"samples": 0}, "samples must be an integer >= 1, got 0"),
            ({"p": "2"}, "p must be a finite number >= 1, got '2'"),
        ]:
            cfg.write_text(json.dumps(entries))
            rc = main(["verify", "--cases", "levelset", "--config", str(cfg)])
            assert rc == 2
            assert message in capsys.readouterr().err


class TestProbe:
    def test_probe_unknown_case(self, capsys):
        assert main(["probe", "--ineq", "bogus"]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--samples", "0"], "samples must be an integer >= 1, got 0"),
            (["--n", "4"], "n must be 2 or 3, got 4"),
            (["--iters", "0"], "iters must be an integer >= 1, got 0"),
            (["--iters", "-3"], "iters must be an integer >= 1, got -3"),
        ],
    )
    def test_bad_config_exits_2_naming_the_field(self, capsys, flags, message):
        rc = main(["probe", "--ineq", "petty_probe", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert message in captured.err
        assert captured.out == ""

    def test_probe_runs_and_logs(self, capsys, tmp_path):
        log = tmp_path / "log.json"
        rc = main(["probe", "--ineq", "petty_probe", "--n", "2", "--p", "1",
                   "--iters", "2", "--samples", "2048", "--out", str(log)])
        assert rc == 0
        data = json.loads(log.read_text())
        assert data["min"]["ratio"] >= 0.9
        assert len(data["log"]) >= 2
