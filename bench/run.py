"""convexgeom benchmark: ``convexgeom verify`` end to end, and a per-layer trace.

Usage (from the repository root)::

    python3 bench/run.py --workload verify_n2 --seed 1 --seconds 30 --trace 0

Each run repeats one workload in fresh single-process workers
(``bench/worker.py``, which calls the CLI entry point) until ``--seconds``
is used up, at least twice so outputs can be compared, and one case after
another inside each worker (a closed loop).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced workers
and reports the per-layer metrics of the traced ones plus the tracing
overhead.  Every worker's outputs are checked; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
and the exit code is 1 if any check failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from tracer import summarize  # noqa: E402

# every worker runs with the package's default single thread, and with
# the BLAS pools pinned so a run stays on one of the machine's cores
THREAD_ENV = {
    "CONVEXGEOM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
MIN_ITERATIONS = 2  # two workers per run, so their outputs can be compared


def _verify_args(n, p, lam, samples, doublings):
    return ["verify", "--n", str(n), "--p", str(p), "--lambda", lam,
            "--samples", str(samples), "--max-doublings", str(doublings),
            "--target-rel-stderr", "0.01"]


# name -> (why, CLI arguments without seed and output paths)
WORKLOADS = {
    "verify_n2": (
        "the default verify (n=2, p=2, lambda=2, 65536 samples, 3 doublings) "
        "with CSV and JSON output: the command users run most",
        _verify_args(2, 2, "2", 65536, 3)),
    "verify_n3": (
        "n=3, p=2, lambda=2 with 2 doublings: the n=3 facet search, Polar "
        "construction, doubling loop and n=3 rejection samplers",
        _verify_args(3, 2, "2", 1024, 2)),
}

E2E_UNITS = {
    "wall_cal": "cal",
    "cpu_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "samples_to_target": "count",
    "target_met_frac": "ratio",
}
# printed in the table with the metrics above, but not bounded metrics:
# a bound is a share of the median, and the first two are often zero
# (failures also go to the result line's "failed")
E2E_EXTRA_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "cal_s": "s",
    "ops_failed_frac": "ratio",
    "target_missed_frac": "ratio",
    "nonfinite_ratios": "count",
}

LAYER_UNITS = {
    "harness.attempts": "count",
    "harness.wasted_attempt_frac": "ratio",
    "harness.setup_s": "s",
    "harness.instance_s.p50": "s",
    "harness.instance_s.max": "s",
    "harness.emit_s": "s",
    "bodies.numeric_support.support.calls": "count",
    "bodies.numeric_support.support.rows": "count",
    "bodies.numeric_support.support.self_s": "s",
    "bodies.polar.init_s": "s",
    "bodies.support_oracle.init.calls": "count",
    "bodies.support_oracle.init.self_s": "s",
    "bodies.sample_uniform.calls": "count",
    "bodies.sample_uniform.points": "count",
    "bodies.sample_uniform.self_s": "s",
    "bodies.sample_uniform.accept_frac": "ratio",
    "bodies.volume.calls": "count",
    "bodies.volume.self_s": "s",
    "functionals.N_p_body.self_s": "s",
    "functionals.centroid_body.self_s": "s",
    "functionals.det_volume_many.rows": "count",
    "functionals.det_volume_many.self_s": "s",
    "functionals.det_volume_many.bytes_computed": "bytes",
    "functionals.projection_body.s": "s",
    "functionals.equivalence_check.s": "s",
    "funcspace.N_p_function_body.self_s": "s",
    "funcspace.lp_norm.calls": "count",
    "funcspace.lp_norm.self_s": "s",
    "funcspace.I_p_functions.self_s": "s",
    "dualtheory.I_tilde_p.self_s": "s",
    "dualtheory.I_tilde_p_functions.self_s": "s",
    "dualtheory.omega_p_function.self_s": "s",
    "sphere.sphere_rule.calls": "count",
    "sphere.sphere_rule.self_s": "s",
    "constants.derive.calls": "count",
    "constants.derive.self_s": "s",
    "constants.cache_hit_frac": "ratio",
    "rng.substream.calls": "count",
    "estimate.from_samples.values": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def workload_seed(name: str, seed: int) -> int:
    """convexgeom seed for one benchmark seed; the same seed gives the same inputs."""
    return random.Random(f"{name}/{seed}").randrange(1, 2**31)


def cli_argv(args: list[str], seed: int, outdir: str) -> list[str]:
    return [*args, "--seed", str(seed), "--csv", os.path.join(outdir, "report.csv"),
            "--out", os.path.join(outdir, "report.json")]


# ---------------------------------------------------------------------------
# one worker


def calibrate(rounds: int = 10) -> float:
    """Mean time of a fixed NumPy kernel, in seconds.

    The speed of a shared machine drifts by tens of percent from one
    minute to the next.  Dividing a worker's time by the kernel time
    measured just before and after it cancels part of that drift.  The
    kernel is array arithmetic on a few MB, like the Monte-Carlo chunks;
    a pure-Python loop was tried and did not follow the drift.  The mean,
    not the median, of the rounds: a worker's time also averages over the
    machine's fast and slow spells.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 3 * 16384).reshape(16384, 3)
    d = np.linspace(0.5, 1.5, 3 * 128).reshape(128, 3)
    times = []
    for _ in range(rounds):
        t0 = time.monotonic()
        for _ in range(2):
            (np.abs(x @ d.T) ** 1.5).sum(axis=0)
        times.append(time.monotonic() - t0)
    return statistics.fmean(times)


def run_worker(argv: list[str], outdir: str, trace: bool, timeout: float) -> dict:
    """Run one fresh worker; wall, CPU and peak RSS are taken from the parent."""
    os.makedirs(outdir, exist_ok=True)
    sidecar = os.path.join(outdir, "sidecar.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--sidecar", sidecar]
    cmd += ["--trace"] if trace else []
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    with open(os.path.join(outdir, "stdout.txt"), "wb") as out, \
            open(os.path.join(outdir, "stderr.txt"), "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--", *argv], cwd=ROOT, env=env,
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "trace": trace,
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "outdir": outdir,
        "side": None,
        "spans": None,
    }
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            rec["side"] = json.load(fh)
        if rec["side"]["first_eval"] is not None:
            rec["setup_s"] = rec["side"]["first_eval"] - t_spawn
    if trace and os.path.exists(sidecar + ".spans"):
        with open(sidecar + ".spans") as fh:
            rec["spans"] = json.load(fh)
    return rec


# ---------------------------------------------------------------------------
# output checks


def expected_statuses(relation: str) -> tuple[str, ...]:
    """Probes only report.  An asserted case passes, or is flagged when its
    budget ran out before the error target: the CLI does not treat a flag
    as a failure, so a flag is a failed operation, not a failed check."""
    return ("report",) if relation == "probe" else ("pass", "flag")


def check_iteration(rec: dict) -> list[str]:
    """Errors in one worker's outputs; also keeps its results and CSV digest."""
    errors: list[str] = []
    side = rec["side"]
    if rec["rc"] != 0:
        errors.append(f"worker exited with {rec['rc']}")
    if side is None:
        return errors + ["worker wrote no sidecar"]
    insts = side["instances"]
    rec["attempted"] = len(insts)
    raised = sum(1 for i in insts if i["raised"])
    if raised:
        errors.append(f"{raised} evaluators raised")
    try:
        with open(os.path.join(rec["outdir"], "report.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(rec["outdir"], "report.json")) as fh:
            report = json.load(fh)  # the CLI's own JSON, which may hold Infinity
    except (OSError, ValueError) as exc:
        rec["failed"] = len(insts)
        return errors + [f"report files unreadable: {exc}"]
    rec["digest"] = hashlib.sha256(csv_bytes).hexdigest()
    results = rec["results"] = report["results"]
    rec["target"] = report["config"]["target_rel_stderr"]
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))[1:]
    if [r[6] for r in rows] != [r["status"] for r in results]:
        errors.append("CSV statuses differ from the JSON report")
    if len(results) != len(insts):
        errors.append(f"{len(insts)} instances but {len(results)} results")
    counts: dict[str, int] = {}
    for inst, res in zip(insts, results):
        counts[res["status"]] = counts.get(res["status"], 0) + 1
        if (inst["case"], inst["label"]) != (res["id"], res["instance"]):
            errors.append(f"result order differs at {inst['case']} [{inst['label']}]")
            break
        want = expected_statuses(inst["relation"])
        if res["status"] not in want:
            errors.append(f"{res['id']} [{res['instance']}] is {res['status']}, "
                          f"expected {' or '.join(want)}")
    if report["summary"] != counts:
        errors.append(f"JSON summary {report['summary']} differs from statuses {counts}")
    rec["status_counts"] = counts
    bad = sum(1 for r in results if r["status"] in ("fail", "flag"))
    rec["failed"] = min(len(insts), raised + bad + max(0, len(insts) - len(results)))
    return errors


def output_stats(rec: dict) -> dict:
    """Accuracy figures of one worker's report."""
    results = rec["results"]
    mc = [r for r in results if r["stderr"] > 0]
    finite_mc = [r for r in mc if math.isfinite(r["ratio"])]
    missed = sum(1 for r in finite_mc if r["stderr"] > rec["target"] * abs(r["ratio"]))
    share = missed / len(finite_mc) if finite_mc else 0.0
    return {
        "samples_to_target": float(sum(r["samples"] for r in mc)),
        "target_missed_frac": share,
        "target_met_frac": 1.0 - share,
        "nonfinite_ratios": float(sum(1 for r in results if not math.isfinite(r["ratio"]))),
    }


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def e2e_metrics(iters: list[dict]) -> dict[str, list[float]]:
    """Per-worker samples of every end-to-end metric."""
    out: dict[str, list[float]] = {k: [] for k in [*E2E_UNITS, *E2E_EXTRA_UNITS]}
    for rec in iters:
        for key in ("wall_s", "cpu_s", "peak_rss_mb", "cal_s"):
            out[key].append(rec[key])
        out["wall_cal"].append(rec["wall_s"] / rec["cal_s"])
        out["cpu_cal"].append(rec["cpu_s"] / rec["cal_s"])
        if "setup_s" in rec:
            out["setup_s"].append(rec["setup_s"])
        out["ops_failed_frac"].append(rec.get("failed", 0) / max(rec.get("attempted", 0), 1))
        if "results" in rec:
            for key, val in output_stats(rec).items():
                out[key].append(val)
    return out


def layer_metrics(rec: dict, untraced_wall_cal: float) -> dict[str, float]:
    """Per-layer metrics of one traced worker."""
    trace, side = rec["spans"], rec["side"]
    summ = summarize(trace)
    spans, counts = summ["spans"], trace["counts"]

    def calls(name):
        return float(spans.get(name, {}).get("calls", 0))

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def incl(*names):
        return sum(spans.get(n, {}).get("s", 0.0) for n in names)

    attempts = [a for inst in side["instances"] for a in inst["attempts"]]
    per_instance = sorted(sum(i["attempts"]) for i in side["instances"] if i["attempts"])
    wasted = sum(sum(i["attempts"][:-1]) for i in side["instances"])
    candidates = counts.get("bodies.sample_uniform.candidates", 0)
    lookups = counts.get("constants.lookups", 0)
    misses = counts.get("constants.records_after", 0) - counts.get("constants.records_before", 0)
    m = {
        "harness.attempts": float(len(attempts)),
        "harness.wasted_attempt_frac": wasted / sum(attempts) if attempts else 0.0,
        "harness.setup_s": incl("harness.instances"),
        "harness.instance_s.p50": _median(per_instance),
        "harness.instance_s.max": per_instance[-1] if per_instance else 0.0,
        "harness.emit_s": incl("harness.emit", "harness.emit_sweep"),
        "bodies.numeric_support.support.calls": calls("bodies.NumericSupport.support"),
        "bodies.numeric_support.support.rows":
            float(counts.get("bodies.numeric_support.support.rows", 0)),
        "bodies.numeric_support.support.self_s": self_s("bodies.NumericSupport.support"),
        "bodies.polar.init_s": incl("bodies.Polar.__init__"),
        "bodies.support_oracle.init.calls": calls("bodies.SupportOracle.__init__"),
        "bodies.support_oracle.init.self_s": self_s("bodies.SupportOracle.__init__"),
        "bodies.sample_uniform.calls": calls("bodies.sample_uniform"),
        "bodies.sample_uniform.points": float(counts.get("bodies.sample_uniform.points", 0)),
        "bodies.sample_uniform.self_s": self_s("bodies.sample_uniform"),
        "bodies.sample_uniform.accept_frac":
            counts.get("bodies.sample_uniform.points", 0) / candidates if candidates else 0.0,
        "bodies.volume.calls": calls("bodies.volume"),
        "bodies.volume.self_s": self_s("bodies.volume"),
        "functionals.N_p_body.self_s": self_s("functionals.N_p_body"),
        "functionals.centroid_body.self_s": self_s("functionals.centroid_body"),
        "functionals.det_volume_many.rows":
            float(counts.get("functionals.det_volume_many.rows", 0)),
        "functionals.det_volume_many.self_s": self_s("functionals.det_volume_many"),
        "functionals.det_volume_many.bytes_computed":
            float(counts.get("functionals.det_volume_many.bytes_computed", 0)),
        "functionals.projection_body.s": incl("functionals.projection_body"),
        "functionals.equivalence_check.s": incl("functionals.equivalence_check"),
        "funcspace.N_p_function_body.self_s": self_s("funcspace.N_p_function_body"),
        "funcspace.lp_norm.calls": calls("funcspace.lp_norm"),
        "funcspace.lp_norm.self_s": self_s("funcspace.lp_norm"),
        "funcspace.I_p_functions.self_s": self_s("funcspace.I_p_functions"),
        "dualtheory.I_tilde_p.self_s": self_s("dualtheory.I_tilde_p"),
        "dualtheory.I_tilde_p_functions.self_s": self_s("dualtheory.I_tilde_p_functions"),
        "dualtheory.omega_p_function.self_s": self_s("dualtheory.omega_p_function"),
        "sphere.sphere_rule.calls": calls("sphere.sphere_rule"),
        "sphere.sphere_rule.self_s": self_s("sphere.sphere_rule"),
        "constants.derive.calls": calls("constants.derive"),
        "constants.derive.self_s": self_s("constants.derive"),
        "constants.cache_hit_frac": 1.0 - misses / lookups if lookups else 0.0,
        "rng.substream.calls": calls("rng.substream"),
        "estimate.from_samples.values": float(counts.get("estimate.from_samples.values", 0)),
        "trace.unattributed_s": rec["wall_s"] - summ["self_total_s"],
        "trace.overhead_frac": rec["wall_s"] / rec["cal_s"] / untraced_wall_cal - 1.0,
    }
    rec["trace_check"] = {"roots_s": summ["roots_s"], "self_total_s": summ["self_total_s"],
                          "wall_s": rec["wall_s"]}
    return m


# ---------------------------------------------------------------------------
# environment


def environment(seed: int, name: str) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "convexgeom", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "workload": name,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# a run


def measure(name: str, seed: int, seconds: float, trace: bool, args=None) -> dict:
    """Repeat one workload for ``seconds``; returns the run record."""
    conv_seed = workload_seed(name, seed)
    rundir = os.path.join(WORK, f"{name}-{seed}-{int(trace)}")
    shutil.rmtree(rundir, ignore_errors=True)
    kinds = [False, True] if trace else [False]
    iters: list[dict] = []
    errors: list[str] = []
    t_run = time.monotonic()
    cal = calibrate()
    while True:
        kind = kinds[len(iters) % len(kinds)]
        elapsed = time.monotonic() - t_run
        same = [r["wall_s"] for r in iters if r["trace"] == kind]
        guess = _median(same) if same else _median([r["wall_s"] for r in iters])
        if len(iters) >= MIN_ITERATIONS and elapsed + guess > seconds:
            break
        if elapsed + guess > RUN_LIMIT_S:
            errors.append(f"stopped after {len(iters)} workers to end within the run limit")
            break
        outdir = os.path.join(rundir, f"iter{len(iters)}")
        rec = run_worker(cli_argv(args or WORKLOADS[name][1], conv_seed, outdir), outdir,
                         kind, RUN_LIMIT_S - elapsed)
        errors += [f"worker {len(iters)}: {e}" for e in check_iteration(rec)]
        cal_after = calibrate()
        rec["cal_s"] = (cal + cal_after) / 2
        cal = cal_after
        iters.append(rec)
        if rec["side"] is None:
            break
    digests = {r.get("digest") for r in iters}
    if len(digests) != 1:
        errors.append("workers with the same seed emitted different outputs")
    if len(iters) < MIN_ITERATIONS:
        errors.append(f"only {len(iters)} workers ran")

    result = {"workload": name, "seed": seed, "convexgeom_seed": conv_seed, "trace": trace,
              "errors": errors, "iterations": []}
    untraced = [r for r in iters if not r["trace"]]
    result["e2e"] = e2e_metrics(untraced)
    if trace:
        traced = [r for r in iters if r["trace"] and r["spans"] is not None]
        wall_cal = _median([r["wall_s"] / r["cal_s"] for r in untraced])
        per = [layer_metrics(r, wall_cal) for r in traced]
        result["layers"] = {k: [p[k] for p in per] for k in LAYER_UNITS}
        for r in traced:
            chk = r["trace_check"]
            if abs(chk["roots_s"] - chk["self_total_s"]) > 1e-6 * max(chk["roots_s"], 1.0):
                errors.append("span self times do not sum to the traced total")
            if chk["self_total_s"] < 0.95 * chk["wall_s"]:
                errors.append(f"spans cover only {chk['self_total_s']:.3f} of "
                              f"{chk['wall_s']:.3f} s")
        if not traced:
            errors.append("no traced worker completed")
    for r in iters:
        result["iterations"].append({k: r.get(k) for k in (
            "trace", "rc", "wall_s", "cpu_s", "cal_s", "peak_rss_mb", "setup_s", "attempted",
            "failed", "status_counts", "digest", "trace_check")})
    result["attempted"] = sum(r.get("attempted", 0) for r in iters)
    result["failed"] = sum(r.get("failed", 0) for r in iters)
    shutil.rmtree(rundir, ignore_errors=True)
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def print_table(title: str, samples: dict, units: dict) -> None:
    print(title)
    print(f"  {'metric':44s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for key, unit in units.items():
        vals = samples.get(key, [])
        q1, q3 = quartiles(vals)
        print(f"  {key:44s} {unit:6s} {_median(vals):14.6g} {q1:14.6g} {q3:14.6g} {len(vals):3d}")


def result_line(result: dict, trace: bool) -> dict:
    """The final output line: medians of the per-worker metric samples."""
    samples, units = (result["layers"], LAYER_UNITS) if trace else (result["e2e"], E2E_UNITS)
    metrics = {k: {"value": _median(samples[k]), "unit": u} for k, u in units.items()}
    # a worker that died before its first case counts as one failed attempt
    attempted = result["attempted"] or 1
    failed = result["failed"] if result["attempted"] else 1
    return {"correct": not result["errors"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops and reaps its worker (see run_worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "convexgeom", "cli.py")):
        print(f"no convexgeom sources under {SRC}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed, args.workload)
    os.makedirs(WORK, exist_ok=True)
    record = os.path.join(WORK, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump(result, fh, indent=1, allow_nan=False)

    print_table(f"{args.workload} seed={args.seed} untraced workers", result["e2e"],
                {**E2E_UNITS, **E2E_EXTRA_UNITS})
    if args.trace:
        print_table(f"{args.workload} seed={args.seed} traced workers", result["layers"],
                    LAYER_UNITS)
    print("env", json.dumps(result["env"], allow_nan=False))
    for err in result["errors"]:
        print("CHECK FAILED:", err, file=sys.stderr)
    line = result_line(result, bool(args.trace))
    print(json.dumps(line, allow_nan=False))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
