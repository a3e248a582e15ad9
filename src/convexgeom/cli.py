"""Command-line surface: batch verification, constant tables, body
volumes and conjecture probes.

Subcommands
-----------
verify
    Run the inequality registry over a corpus and emit JSON/CSV
    reports; the exit code reflects asserted cases only (probes are
    report-only by design).
constants
    Print the derived-constant table for (n, p[, lambda]).
body
    Utility queries on a single convex body (currently ``volume``).
probe
    Search a report-only case over random instances and log the
    minimum observed ratio.

``--config`` points to a JSON file whose entries override the
command-line flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import rng as rngmod
from .bodies import Ball, Cube, Ellipsoid, LqBall, standard_simplex, volume
from .constants import cache, derived_constants, lambda_admissible
from .harness import CORPORA, RunConfig, case_ids, emit, emit_sweep, run, sweep_configs


def _parse_lambda(text: str) -> float:
    if text in ("inf", "infinity"):
        return math.inf
    return float(text)


def _count(x: float):
    """A whole --samples value as an int; anything else is left for
    RunConfig to reject by name."""
    return int(x) if x.is_integer() else x


def _check(ok: bool, field: str, rule: str, value) -> None:
    """Reject a flag value by name, in the words ``RunConfig`` uses."""
    if not ok:
        raise ValueError(f"{field} must be {rule}, got {value!r}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=2, help="ambient dimension (2 or 3)")
    sub.add_argument("--p", type=float, default=2.0, help="moment exponent p >= 1")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="convexgeom", description=__doc__.split("\n")[0])
    sp = ap.add_subparsers(dest="command", required=True)

    v = sp.add_parser("verify", help="run the verification harness")
    _add_common(v)
    v.add_argument("--seed", type=int, default=rngmod.DEFAULT_SEED)
    v.add_argument("--corpus", default="standard", choices=CORPORA)
    v.add_argument("--lambda", dest="lam", type=_parse_lambda, default=2.0,
                   help="Orlicz parameter; 'inf' for the sup-norm case")
    v.add_argument("--samples", type=float, default=float(1 << 16),
                   help="initial Monte-Carlo budget per case")
    v.add_argument("--target-rel-stderr", type=float, default=0.01)
    v.add_argument("--max-doublings", type=int, default=3)
    v.add_argument("--cases", default=None,
                   help="comma-separated case ids (default: all applicable)")
    v.add_argument("--out", default=None, help="JSON report path")
    v.add_argument("--csv", default=None, help="CSV report path")
    v.add_argument("--config", default=None,
                   help="JSON config file; entries override flags")
    v.add_argument("--sweep", default=None, metavar="PARAM",
                   help="sweep one config field (e.g. p) over --values")
    v.add_argument("--values", default=None,
                   help="comma-separated values for --sweep")
    v.add_argument("--sweep-dir", default="sweep",
                   help="directory for gnuplot-ready sweep data files")

    c = sp.add_parser("constants", help="print the derived-constant table")
    _add_common(c)
    c.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None)
    c.add_argument("--dump", action="store_true",
                   help="also dump every cached constant record")

    b = sp.add_parser("body", help="utility queries on a single body")
    bsp = b.add_subparsers(dest="body_command", required=True)
    bv = bsp.add_parser("volume", help="volume of a parametric body")
    bv.add_argument("--kind", required=True,
                    choices=["ball", "cube", "simplex", "lqball", "ellipsoid"])
    bv.add_argument("--n", type=int, default=2)
    bv.add_argument("--radius", type=float, default=1.0)
    bv.add_argument("--half-side", type=float, default=1.0)
    bv.add_argument("--q", type=float, default=2.0)
    bv.add_argument("--diag", default=None,
                    help="comma-separated diagonal for an ellipsoid")
    bv.add_argument("--budget", type=int, default=200_000)
    bv.add_argument("--seed", type=int, default=rngmod.DEFAULT_SEED)
    bv.add_argument("--method", default="auto",
                    choices=["auto", "monte-carlo", "triangulation", "quadrature"])

    pr = sp.add_parser("probe", help="search a report-only case for small ratios")
    _add_common(pr)
    pr.add_argument("--seed", type=int, default=rngmod.DEFAULT_SEED)
    pr.add_argument("--ineq", required=True, help="case id to probe")
    pr.add_argument("--lambda", dest="lam", type=_parse_lambda, default=2.0)
    pr.add_argument("--search", default="random-polytopes",
                    choices=["random-polytopes", "corpus"])
    pr.add_argument("--iters", type=int, default=50,
                    help="number of random corpus draws")
    pr.add_argument("--samples", type=float, default=float(1 << 14))
    pr.add_argument("--out", default=None, help="JSON search-log path")
    return ap


def _verify_config(args: argparse.Namespace) -> RunConfig:
    d = {
        "corpus": args.corpus,
        "n": args.n,
        "p": args.p,
        "lam": args.lam,
        "samples": _count(args.samples),
        "seed": args.seed,
        "target_rel_stderr": args.target_rel_stderr,
        "max_doublings": args.max_doublings,
        "cases": args.cases.split(",") if args.cases else None,
    }
    if args.config:
        with open(args.config) as fh:
            d.update(json.load(fh))
    return RunConfig.from_dict(d)


def _cmd_verify(args: argparse.Namespace) -> int:
    param = "lam" if args.sweep == "lambda" else args.sweep
    try:
        config = _verify_config(args)
        if args.sweep:
            if not args.values:
                raise ValueError("--sweep requires --values")
            values = [int(v) if param in ("n", "samples", "seed", "max_doublings")
                      else _parse_lambda(v) for v in args.values.split(",")]
            configs = sweep_configs(config, param, values)
    except ValueError as exc:
        print(f"convexgeom verify: {exc}", file=sys.stderr)
        return 2
    if args.sweep:
        reports = [run(c) for c in configs]
        paths = emit_sweep(reports, param, args.sweep_dir)
        for path in paths:
            print(path)
        bad = [r for rep in reports for r in rep.failed]
    else:
        report = run(config)
        emit(report, json_path=args.out, csv_path=args.csv)
        for r in report.results:
            lam = "" if r.lam == "" else f" lam={r.lam:g}"
            print(f"{r.id:16s} {r.instance[:46]:48s} ratio={r.ratio:.4f} "
                  f"+-{r.stderr:.4f} {r.status}{lam}")
        print("summary:", report.summary())
        bad = report.failed
    for r in bad:
        print(f"FAIL {r.id} [{r.instance}] ratio={r.ratio:.6g} stderr={r.stderr:.3g}",
              file=sys.stderr)
    return 1 if bad else 0


def _cmd_constants(args: argparse.Namespace) -> int:
    n, p, lam = args.n, args.p, args.lam
    try:
        _check(n >= 2, "n", "an integer >= 2", n)
        _check(1 <= p < math.inf, "p", "a finite number >= 1", p)
        if lam is not None:
            _check(lambda_admissible(lam, n, p), "lam",
                   f"inf or in (n/(n+p), 1) u (1, inf) = ({n / (n + p):g}, 1) u (1, inf)", lam)
    except ValueError as exc:
        print(f"convexgeom constants: {exc}", file=sys.stderr)
        return 2
    table = derived_constants(n, p, lam=lam)
    out = {name: rec.to_json() for name, rec in table.items()}
    if args.dump:
        out["_cache"] = [rec.to_json() for rec in cache().records()]
    json.dump(out, sys.stdout, indent=2, allow_nan=False)
    print()
    return 0


def _body(args: argparse.Namespace):
    n = args.n
    _check(n >= 2, "n", "an integer >= 2", n)
    if args.kind == "ball":
        _check(0 < args.radius < math.inf, "radius", "a finite number > 0", args.radius)
        return Ball(args.radius, n)
    if args.kind == "cube":
        _check(0 < args.half_side < math.inf, "half_side", "a finite number > 0", args.half_side)
        return Cube(args.half_side, n)
    if args.kind == "simplex":
        return standard_simplex(n)
    if args.kind == "lqball":
        _check(1 < args.q < math.inf, "q", "a finite number > 1", args.q)
        return LqBall(args.q, n)
    text = args.diag or ",".join(["1"] * n)
    try:
        diag = [float(v) for v in text.split(",")]
    except ValueError:
        diag = []
    _check(len(diag) == n and all(math.isfinite(d) and d != 0 for d in diag), "diag",
           f"{n} comma-separated finite nonzero numbers", text)
    return Ellipsoid(np.diag(diag))


def _cmd_body_volume(args: argparse.Namespace) -> int:
    try:
        _check(args.budget >= 1, "budget", "an integer >= 1", args.budget)
        body = _body(args)
        est = volume(body, budget=args.budget, seed=args.seed, method=args.method)
    except ValueError as exc:
        print(f"convexgeom body volume: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "body": repr(body),
        "volume": est.value,
        "stderr": est.stderr,
        "method": est.method,
    }))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    if args.ineq not in case_ids():
        print(f"unknown case id {args.ineq!r}; known: {', '.join(case_ids())}",
              file=sys.stderr)
        return 2
    try:
        _check(args.iters >= 1, "iters", "an integer >= 1", args.iters)
        base = RunConfig(
            corpus="standard" if args.search == "random-polytopes" else "smooth",
            n=args.n,
            p=args.p,
            lam=args.lam,
            samples=_count(args.samples),
            seed=args.seed,
            max_doublings=1,
            cases=[args.ineq],
        )
    except ValueError as exc:
        print(f"convexgeom probe: {exc}", file=sys.stderr)
        return 2
    log = []
    worst = None
    for it in range(args.iters):
        report = run(dataclasses.replace(base, seed=args.seed + it))
        for r in report.results:
            entry = {"iter": it, "seed": r.seed, "instance": r.instance,
                     "ratio": r.ratio, "stderr": r.stderr}
            log.append(entry)
            if math.isfinite(r.ratio) and (worst is None or r.ratio < worst["ratio"]):
                worst = entry
    result = {"case": args.ineq, "iters": args.iters, "min": worst, "log": log}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
    print(json.dumps({"case": args.ineq, "iters": args.iters, "min": worst}, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "constants":
        return _cmd_constants(args)
    if args.command == "body":
        return _cmd_body_volume(args)
    return _cmd_probe(args)


if __name__ == "__main__":
    sys.exit(main())
