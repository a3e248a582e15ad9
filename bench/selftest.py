"""Self-test of the benchmark itself, at a small size.

Usage (from the repository root)::

    python3 bench/selftest.py

For each workload it runs one untraced and one traced worker on a
reduced sample budget and checks that

* the output checks pass and both workers emit identical reports;
* every metric named in ``BENCHMARK.json`` is emitted, with its unit;
* span self times sum to the traced total, and cover at least 95% of
  the traced worker's wall time.

It then runs ``run.py`` in a directory holding only ``BENCHMARK.json``
and the benchmark, which must fail without printing a result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

TINY = {
    "verify_n2": run._verify_args(2, 2, "2", 16384, 1),
    "verify_n3": run._verify_args(3, 2, "2", 512, 1),
}
SEED = 1


def check(cond: bool, what: str) -> None:
    if not cond:
        print("SELFTEST FAILED:", what)
        sys.exit(1)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(set(TINY) == set(run.WORKLOADS), "every workload has a tiny size")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads of run.py")
    for name, args in TINY.items():
        result = run.measure(name, SEED, 0.0, True, args=args)
        check(not result["errors"], f"{name}: {result['errors']}")
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = run.result_line(result, trace)
            emitted = {k: v["unit"] for k, v in line["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            check(emitted == wanted, f"{name}: {key} metrics {emitted} != {wanted}")
            check(all(isinstance(v["value"], float) for v in line["metrics"].values()),
                  f"{name}: {key} values are numbers")
        traced = [i for i in result["iterations"] if i["trace"]]
        for it in traced:
            chk = it["trace_check"]
            check(abs(chk["roots_s"] - chk["self_total_s"]) <= 1e-6 * chk["roots_s"],
                  f"{name}: self times sum to the traced total")
            check(chk["self_total_s"] >= 0.95 * chk["wall_s"],
                  f"{name}: spans cover {chk['self_total_s']:.3f} of {chk['wall_s']:.3f} s")
        print(f"{name}: ok ({len(result['iterations'])} workers, "
              f"{result['attempted']} instances, "
              f"spans cover {traced[0]['trace_check']['self_total_s']:.2f} "
              f"of {traced[0]['wall_s']:.2f} s)")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, os.path.basename(run.HERE), "run.py"),
         "--workload", "verify_n2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py fails without the sources")
    check('"correct"' not in proc.stdout, "run.py prints no result without the sources")
    print("without sources: ok (exit", proc.returncode, ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
