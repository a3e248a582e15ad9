"""Numerical estimates with standard errors.

Every integral in this package returns an :class:`Estimate`: a value
together with a standard error, a sample count and a method tag.
Arithmetic between estimates propagates errors to first order (delta
method) assuming independence, which is how all downstream acceptance
gates (3-sigma bands) are computed.

Every Monte-Carlo integral in the package draws its samples through
:func:`mc_draws` (scalar integrands) or :func:`mc_direction_moments`
(the p-th moment of |<z, u>| at every sphere-rule node u), so the
chunking and reduction policy lives here.  A draw holds one chunk of
``rng.CHUNK`` samples; the direction moments are formed on one block of
``rng.NODE_BLOCK`` nodes at a time, so each of their temporaries is one
chunk times one node block (8 MiB of floats), whatever the budget or
the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod

MONTE_CARLO = "monte-carlo"
QUADRATURE = "quadrature"
CLOSED_FORM = "closed-form"


def _combine_method(a: str, b: str) -> str:
    if MONTE_CARLO in (a, b):
        return MONTE_CARLO
    if QUADRATURE in (a, b):
        return QUADRATURE
    return CLOSED_FORM


@dataclass(frozen=True)
class Estimate:
    """A numerical value with uncertainty.

    Parameters
    ----------
    value : float
        Point estimate.
    stderr : float
        Standard error; zero for closed-form and quadrature results.
    samples : int
        Number of Monte-Carlo samples that produced the value (0 for
        deterministic methods).
    method : str
        One of ``"monte-carlo"``, ``"quadrature"``, ``"closed-form"``.
    """

    value: float
    stderr: float = 0.0
    samples: int = 0
    method: str = CLOSED_FORM

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")
        if self.method == MONTE_CARLO and self.samples <= 0:
            raise ValueError("monte-carlo estimates need samples > 0")
        if self.method != MONTE_CARLO and self.stderr != 0.0:
            raise ValueError("deterministic estimates must have stderr 0")

    # -- delta-method arithmetic (operands assumed independent) --

    def _coerce(self, other) -> "Estimate":
        if isinstance(other, Estimate):
            return other
        return Estimate(float(other))

    def __add__(self, other) -> "Estimate":
        o = self._coerce(other)
        return Estimate(
            self.value + o.value,
            math.hypot(self.stderr, o.stderr),
            self.samples + o.samples,
            _combine_method(self.method, o.method),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Estimate":
        o = self._coerce(other)
        return Estimate(
            self.value - o.value,
            math.hypot(self.stderr, o.stderr),
            self.samples + o.samples,
            _combine_method(self.method, o.method),
        )

    def __mul__(self, other) -> "Estimate":
        o = self._coerce(other)
        err = math.hypot(o.value * self.stderr, self.value * o.stderr)
        return Estimate(
            self.value * o.value,
            err,
            self.samples + o.samples,
            _combine_method(self.method, o.method),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Estimate":
        o = self._coerce(other)
        if o.value == 0:
            raise ZeroDivisionError(f"{self!r} divided by the zero-valued {o!r}")
        v = self.value / o.value
        err = abs(v) * math.hypot(
            self.stderr / self.value if self.value != 0 else 0.0,
            o.stderr / o.value,
        )
        if self.value == 0:
            err = self.stderr / abs(o.value)
        return Estimate(
            v, err, self.samples + o.samples, _combine_method(self.method, o.method)
        )

    def __pow__(self, k: float) -> "Estimate":
        v = self.value**k
        if self.value != 0:
            err = abs(k * self.value ** (k - 1)) * self.stderr
        else:
            # the delta method is degenerate at 0; |X|^k for X within one
            # stderr of 0 is within stderr^k (exact for k = 1)
            err = self.stderr**k if k > 0 else 0.0
        return Estimate(v, err, self.samples, self.method)

    def within(self, target: float, nsigma: float = 3.0, atol: float = 0.0) -> bool:
        """True if ``target`` lies inside the ``nsigma`` band around the value."""
        return abs(self.value - target) <= nsigma * self.stderr + atol

    def __repr__(self):  # compact, for reports
        if self.method == MONTE_CARLO:
            return f"{self.value:.6g} ± {self.stderr:.2g} ({self.method}, N={self.samples})"
        return f"{self.value:.6g} ({self.method})"


def closed(value: float) -> Estimate:
    return Estimate(float(value))


def quad_estimate(value: float) -> Estimate:
    return Estimate(float(value), 0.0, 0, QUADRATURE)


def product(factors) -> Estimate:
    """Product of estimates, multiplied left to right from 1."""
    out = Estimate(1.0)
    for f in factors:
        out = out * f
    return out


def power_product(factors) -> Estimate:
    """Product of e ** a over the (e, a) pairs of positive estimates e.

    Formed in logs, so that large opposite powers whose product is
    moderate do not overflow one by one; the error is the delta method's
    for independent factors, as for ``product``.
    """
    value = math.exp(math.fsum(a * math.log(e.value) for e, a in factors))
    err = value * math.hypot(*(a * e.stderr / e.value for e, a in factors))
    method = CLOSED_FORM
    for e, _ in factors:
        method = _combine_method(method, e.method)
    return Estimate(value, err, sum(e.samples for e, _ in factors), method)


def from_samples(values, scale: float = 1.0) -> Estimate:
    """Monte-Carlo estimate of ``scale * mean(values)``."""
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(scale * mean, abs(scale) * sem, n, MONTE_CARLO)


def mc_draws(gen: np.random.Generator, budget: int, draw) -> np.ndarray:
    """Per-sample values of ``draw(gen, size)`` over ``budget`` samples.

    The budget is split into fixed-size chunks drawn in order from the
    one generator, so peak memory per draw is bounded by the chunk size
    and the values do not depend on how the caller reduces them.
    """
    return np.concatenate([draw(gen, size) for size in rngmod.chunked(budget)])


def mc_direction_moments(gen: np.random.Generator, budget: int, nodes, p: float, draw):
    """Per-node mean of w |<z, u>|^p, its standard error and the sample count.

    ``draw(gen, size)`` samples one chunk and returns ``(z, w)``: a
    (size, n) array of vectors and their weights, or ``None`` for unit
    weights.  The moments are formed on blocks of ``rng.NODE_BLOCK`` rows
    u of ``nodes`` and only per-node running sums of the values and of
    their squares are kept, so memory stays at one chunk times one node
    block.  Each column is reduced row by row in chunk order, so the
    result does not depend on the block width.
    """
    count = len(nodes)
    edges = list(range(0, count, rngmod.NODE_BLOCK)) + [count]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        # a one-column block would be summed pairwise, not row by row
        del edges[-2]
    acc = np.zeros(count)
    acc2 = np.zeros(count)
    total = 0
    for size in rngmod.chunked(budget):
        z, w = draw(gen, size)
        for lo, hi in zip(edges, edges[1:]):
            vals = np.abs(z @ nodes[lo:hi].T) ** p
            if w is not None:
                vals *= w[:, None]
            acc[lo:hi] += vals.sum(axis=0)
            np.square(vals, out=vals)
            acc2[lo:hi] += vals.sum(axis=0)
        total += size
    mean = acc / total
    sem = np.sqrt(np.clip(acc2 / total - mean**2, 0.0, None) / total)
    return mean, sem, total
