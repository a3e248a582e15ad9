"""In-memory span tracer that instruments convexgeom from outside the package.

:func:`instrument` replaces every module binding of each convexgeom
function, and the public methods of the body, measure, function and
constant classes, with a wrapper that records one span per call: its
name, the span that was open when it started, and its start and end
times.  Spans stay in memory until :meth:`Tracer.dump` writes them at
exit; :func:`summarize` turns them into per-name call counts, inclusive
times and self times (a span's duration minus the time its children
cover).  Nothing under ``src/`` is modified: only attributes of the
imported modules and classes are rebound, in the traced process only.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

MODULES = (
    "estimate", "rng", "sphere", "bodies", "constants",
    "functionals", "funcspace", "dualtheory", "harness", "cli",
)
# modules whose classes get spans on __init__, __call__ and public methods;
# Estimate arithmetic is too fine-grained to be worth a span per operation
METHOD_MODULES = ("sphere", "bodies", "constants", "functionals", "funcspace", "dualtheory")
SKIP_FUNCTIONS = {"_rows"}


class Tracer:
    """Span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.t0)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.t1.append(0.0)
        self.stack.append(sid)
        self.t0.append(time.monotonic())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.monotonic()
        self.stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name_of[self.stack[-1]]] if self.stack else None

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around each call; ``after(args, kwargs, out)``
        runs once the span is closed, to record counts."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_of": self.name_of,
                    "parent": self.parent,
                    "t0": self.t0,
                    "t1": self.t1,
                    "counts": self.counts,
                },
                fh,
                allow_nan=False,
            )


def _span_name(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def instrument(tracer: Tracer, package) -> None:
    """Wrap the module-level functions of every convexgeom module, at every binding.

    A function imported by name into another module (``from .bodies import
    sample_uniform``) is the same object in both namespaces; both names are
    rebound to one wrapper, so every call site is traced.
    """
    import importlib

    mods = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
    hooks = _count_hooks(tracer)
    wrapped: dict[int, object] = {}

    def traced_function(name, obj):
        if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
            return False
        module = obj.__module__ or ""
        if not module.startswith(package.__name__ + "."):
            return False
        # private helpers get spans too, so instance construction and the
        # harness's own integrals are attributed; the per-row and
        # per-arithmetic helpers are too small to carry one
        return not name.startswith("_") or (
            name not in SKIP_FUNCTIONS and not module.endswith(".estimate"))

    for mod in [package, *mods]:
        for name, obj in list(vars(mod).items()):
            if not traced_function(name, obj):
                continue
            if id(obj) not in wrapped:
                span = _span_name(obj)
                wrapped[id(obj)] = tracer.wrap(obj, span, hooks.get(span))
            setattr(mod, name, wrapped[id(obj)])

    for mod in mods:
        if mod.__name__.rsplit(".", 1)[-1] not in METHOD_MODULES:
            continue
        for cls in list(vars(mod).values()):
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for name, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                    continue
                if name.startswith("_") and name not in ("__init__", "__call__"):
                    continue
                span = _span_name(obj)
                hook = hooks.get(span) or (hooks["contains"] if name == "contains" else None)
                setattr(cls, name, tracer.wrap(obj, span, hook))

    _instrument_constant_cache(tracer, importlib.import_module(f"{package.__name__}.constants"))


def _count_hooks(tracer: Tracer) -> dict:
    """Counters recorded at the layer boundaries, keyed by span name."""
    add = tracer.add

    def sample_uniform(args, kwargs, out):
        add("bodies.sample_uniform.points", len(out))

    def contains(args, kwargs, out):
        # candidates tested by the rejection sampler's acceptance test
        if tracer.current() == "bodies.sample_uniform":
            add("bodies.sample_uniform.candidates", _rows(args[1]))

    def numeric_support(args, kwargs, out):
        add("bodies.numeric_support.support.rows", _rows(args[1]))

    def det_volume_many(args, kwargs, out):
        sets = args[0] if args else kwargs["point_sets"]
        m, n = sets[0].shape
        k = len(sets)
        add("functionals.det_volume_many.rows", m)
        # float64 arrays the kernel materializes: the stacked (m, k, n)
        # tuples, the (m, k, k) Gram matrices when k < n, and m volumes
        add("functionals.det_volume_many.bytes_computed",
            8 * m * (k * n + (k * k if k < n else 0) + 1))

    def from_samples(args, kwargs, out):
        values = args[0] if args else kwargs["values"]
        add("estimate.from_samples.values", getattr(values, "size", None) or len(values))

    return {
        "bodies.sample_uniform": sample_uniform,
        "contains": contains,
        "bodies.NumericSupport.support": numeric_support,
        "functionals.det_volume_many": det_volume_many,
        "estimate.from_samples": from_samples,
    }


def _instrument_constant_cache(tracer: Tracer, constants) -> None:
    """Count cache lookups and give each cache miss a ``constants.derive`` span."""
    cls = constants.ConstantCache
    lookup = cls.get_or_compute
    derive = tracer.wrap(lambda compute: compute(), "constants.derive")

    def get_or_compute(self, name, compute, **params):
        tracer.add("constants.lookups", 1)
        return lookup(self, name, lambda: derive(compute), **params)

    cls.get_or_compute = functools.wraps(lookup)(get_or_compute)
    tracer.counts["constants.records_before"] = len(constants.cache().records())


def summarize(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    is not counted twice.  Also returns the total covered by root spans,
    which equals the sum of all self times.
    """
    names, name_of, parent = trace["names"], trace["name_of"], trace["parent"]
    dur = [b - a for a, b in zip(trace["t0"], trace["t1"])]
    covered = [0.0] * len(dur)
    for sid, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[sid]
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    roots = 0.0
    for sid, d in enumerate(dur):
        nid = name_of[sid]
        st = stats[names[nid]]
        st["calls"] += 1
        st["self_s"] += d - covered[sid]
        p = parent[sid]
        if p < 0:
            roots += d
        while p >= 0 and name_of[p] != nid:
            p = parent[p]
        if p < 0:
            st["s"] += d
    return {"spans": stats, "roots_s": roots, "self_total_s": sum(
        st["self_s"] for st in stats.values())}
