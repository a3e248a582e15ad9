"""Golden pin: exact outputs of the Monte-Carlo entry points.

Two things are pinned bit for bit against ``tests/golden.json``:

* the CSV of ``run()`` at n=2 for (p=2, lam=2) and (p=1, lam=inf) and at
  n=3 for (p=2, lam=2), all cases, 4096 samples and no doublings, and the
  full-precision ratio and standard error of every row (the CSV rounds
  them);
* the exact ``value``, ``stderr`` and ``samples`` of one small-budget
  call to each Monte-Carlo path that ``verify`` does not reach, and the
  node values and node errors of two n=3 numeric-support bodies.

A refactor that keeps the samplers, the stream keys and the order of
floating-point operations leaves every pinned number unchanged.  A
change that alters a sampler or a reduction on purpose regenerates the
fixture with ``PYTHONPATH=src python tests/test_golden.py`` and says so
in its description, together with the 3-sigma evidence that the new
results agree with the old ones.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from convexgeom import rng as rngmod
from convexgeom.bodies import Ball, Ellipsoid, volume
from convexgeom.dualtheory import I_tilde_p_star, omega_p_function
from convexgeom.funcspace import (
    I_p_functions,
    bump_profile,
    dual_mixed_volume_f,
    lp_norm,
    mixed_volume_f,
    radial_function,
    surface_measure_f,
)
from convexgeom.functionals import N_p_body, centroid_body
from convexgeom.harness import RunConfig, run
from convexgeom.sphere import sphere_rule

FIXTURE = os.path.join(os.path.dirname(__file__), "golden.json")
BUDGET = rngmod.CHUNK + 1000  # two chunks, the second one short
SEED = 11
RUNS = {
    "n2_p2_lam2": (2, 2.0, 2.0),
    "n2_p1_laminf": (2, 1.0, math.inf),
    "n3_p2_lam2": (3, 2.0, 2.0),
}


def _run(n: int, p: float, lam: float) -> dict:
    rep = run(RunConfig(n=n, p=p, lam=lam, samples=4096, max_doublings=0))
    rows = [[r.id, r.instance, r.ratio, r.stderr, r.samples] for r in rep.results]
    return {"csv": rep.to_csv(), "rows": rows}


def _functions():
    ell = Ellipsoid(np.diag([1.25, 0.8]))
    radial = radial_function(bump_profile(3), ell)
    # same oracles without the profile/body pair, so every function path
    # falls back to box Monte Carlo
    generic = dataclasses.replace(radial, profile=None, body=None, sup=None,
                                  label="generic-bump")
    return radial, generic


def _estimates() -> dict:
    radial, generic = _functions()
    ball = Ball(1.0, 2)
    ell = Ellipsoid(np.diag([1.25, 0.8]))
    kw = dict(budget=BUDGET, seed=SEED)
    sm = surface_measure_f(radial, 2.0)
    return {
        "lp_norm_box": lp_norm(generic, 2.0, **kw),
        "dual_mixed_volume_f_mc": dual_mixed_volume_f(generic, ball, 2.0, **kw),
        "mixed_volume_f_mc": mixed_volume_f(generic, ell, 2.0, **kw),
        "omega_p_function": omega_p_function(radial, 2.0, **kw),
        "I_tilde_p_star": I_tilde_p_star([ball, ell], 2.0, **kw),
        "volume_mc": volume(ell, method="monte-carlo", **kw),
        "surface_measure_pushforward": sm.integrate(lambda u: np.abs(u[:, 0]) ** 2, **kw),
        "I_p_functions_generic": I_p_functions([generic, generic], 2.0, **kw),
    }


def _bodies() -> dict:
    rule = sphere_rule(3, 6)
    ball, ell = Ball(1.0, 3), Ellipsoid(np.diag([1.25, 0.8, 1.0]))
    kw = dict(rule=rule, budget=BUDGET, seed=SEED)
    return {
        "N_p_body_n3": N_p_body([ball, ell], 2.0, **kw),
        "centroid_body_n3": centroid_body(ell, 2.0, **kw),
    }


def _snapshot() -> dict:
    return {
        "runs": {name: _run(*args) for name, args in RUNS.items()},
        "estimates": {
            name: {"value": e.value, "stderr": e.stderr, "samples": e.samples}
            for name, e in _estimates().items()
        },
        "bodies": {
            name: {"values": b.values.tolist(), "node_stderr": b.node_stderr.tolist()}
            for name, b in _bodies().items()
        },
    }


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_pinned(golden, name):
    got = _run(*RUNS[name])
    assert got["csv"] == golden["runs"][name]["csv"]
    assert got["rows"] == golden["runs"][name]["rows"]


def test_entry_point_estimates_pinned(golden):
    got = {
        name: {"value": e.value, "stderr": e.stderr, "samples": e.samples}
        for name, e in _estimates().items()
    }
    assert got == golden["estimates"]


def test_numeric_support_bodies_pinned(golden):
    for name, body in _bodies().items():
        assert body.values.tolist() == golden["bodies"][name]["values"], name
        assert body.node_stderr.tolist() == golden["bodies"][name]["node_stderr"], name


if __name__ == "__main__":
    with open(FIXTURE, "w") as fh:
        json.dump(_snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
