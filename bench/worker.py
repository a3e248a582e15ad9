"""One benchmark iteration: ``convexgeom verify`` in a fresh process.

Usage::

    python3 bench/worker.py --sidecar OUT.json [--trace] -- verify ARGS...

Calls ``convexgeom.cli.main`` (the console entry point) on ARGS with the
package imported from ``src/`` beside this directory.  Before the call it
wraps each ``InequalityCase.instances`` generator, from outside the
package, to record every instance, the time of its attempts, the time of
the first case evaluation and any evaluator that raised.  With
``--trace`` it also installs the span tracer of ``tracer.py``.  At exit it
writes the sidecar as strict JSON (and, traced, the spans next to it) and
exits with the CLI's return code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    import convexgeom
    import convexgeom.cli  # noqa: F401  (imports every module)

    if not os.path.abspath(convexgeom.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"convexgeom imported from {convexgeom.__file__}, not {SRC}")
    return convexgeom


class Recorder:
    """Instance capture shared by traced and untraced runs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.first_eval: float | None = None
        self.instances: list[dict] = []

    def wrap_registry(self, harness) -> None:
        for case in harness.REGISTRY:
            case.instances = self._instances(case.instances, case.id, case.relation)

    def _instances(self, gen_fn, case_id, relation):
        tracer = self.tracer

        def instances(config):
            it = iter(gen_fn(config))
            nid = tracer.name_id("harness.instances") if tracer else None
            while True:
                sid = tracer.open(nid) if tracer else None
                try:
                    label, ev = next(it)
                except StopIteration:
                    return
                finally:
                    if tracer:
                        tracer.close(sid)
                yield label, self._evaluator(ev, case_id, relation, label)

        return instances

    def _evaluator(self, ev, case_id, relation, label):
        rec = {"case": case_id, "relation": relation, "label": label,
               "attempts": [], "raised": False}
        self.instances.append(rec)
        tracer = self.tracer
        attempt = tracer.wrap(ev, "harness.attempt") if tracer else ev
        clock = time.monotonic

        def evaluator(budget, seed):
            t0 = clock()
            if self.first_eval is None:
                self.first_eval = t0
            try:
                return attempt(budget, seed)
            except BaseException:
                rec["raised"] = True
                raise
            finally:
                rec["attempts"].append(clock() - t0)

        return evaluator


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sidecar", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer, instrument

        tracer = Tracer()
        sid = tracer.open(tracer.name_id("worker.import"))
    pkg = _import_package()
    from convexgeom import cli, constants, harness

    rec = Recorder(tracer)
    if tracer:
        instrument(tracer, pkg)
        tracer.close(sid)
    rec.wrap_registry(harness)

    rc = 3
    try:
        rc = cli.main(argv)
    finally:
        side = {"first_eval": rec.first_eval, "instances": rec.instances}
        if tracer:
            tracer.counts["constants.records_after"] = len(constants.cache().records())
            tracer.dump(args.sidecar + ".spans")
        with open(args.sidecar, "w") as fh:
            json.dump(side, fh, allow_nan=False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
