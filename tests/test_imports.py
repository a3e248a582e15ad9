"""scipy stays off the verify path: a ``verify`` at n=2 or n=3 runs on
numpy and the standard library alone, and importing the command line
loads no scipy integration or optimisation code.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy for other tests.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _scipy_modules_after(code: str, cwd) -> list[str]:
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_n2_verify_loads_no_scipy(tmp_path):
    code = (
        "from convexgeom.cli import main\n"
        "rc = main(['verify', '--n', '2', '--samples', '256', '--max-doublings', '0',"
        " '--csv', 'r.csv', '--out', 'r.json'])\n"
        "assert rc == 0, rc\n"
    )
    assert _scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "r.csv").read_text().count("\n") == 48


def test_n3_verify_loads_no_scipy(tmp_path):
    code = (
        "from convexgeom.cli import main\n"
        "rc = main(['verify', '--n', '3', '--samples', '64', '--max-doublings', '0',"
        " '--csv', 'r.csv', '--out', 'r.json'])\n"
        "assert rc == 0, rc\n"
    )
    assert _scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "r.csv").read_text().count("\n") == 62


def test_cli_import_loads_no_scipy_integrate_or_optimize(tmp_path):
    loaded = _scipy_modules_after("import convexgeom.cli\n", tmp_path)
    assert not [m for m in loaded if m.startswith(("scipy.integrate", "scipy.optimize"))]
