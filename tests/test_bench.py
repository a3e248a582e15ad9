"""Contract between the package and the benchmark under ``bench/``.

Runs one tiny traced benchmark worker in a subprocess, exactly as
``bench/run.py`` starts it, and checks what the benchmark reads back: the
exit code, the sidecar, the span file and the modules the tracer
instruments.  A refactor that breaks the benchmark fails here first.
"""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def test_traced_worker_writes_sidecar_and_spans(tmp_path):
    sidecar = tmp_path / "sidecar.json"
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"), "--sidecar", str(sidecar),
        "--trace", "--", "verify", "--n", "2", "--samples", "256",
        "--max-doublings", "0", "--csv", str(tmp_path / "r.csv"),
        "--out", str(tmp_path / "r.json"),
    ]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave bench/ untouched
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    side = json.loads(sidecar.read_text())
    assert len(side["instances"]) == 47
    assert side["first_eval"] is not None
    spans = json.loads((tmp_path / "sidecar.json.spans").read_text())
    assert spans["names"] and len(spans["t0"]) == len(spans["t1"])


def test_tracer_modules_import():
    sys.path.insert(0, BENCH)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from tracer import MODULES
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = dont_write
    for name in MODULES:
        importlib.import_module(f"convexgeom.{name}")
