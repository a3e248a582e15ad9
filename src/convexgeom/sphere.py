"""Quadrature rules and uniform sampling on the unit sphere.

Rules integrate continuous functions against the (unnormalized)
surface measure of S^{n-1}: weights sum to ``n * omega_n``.  In the
plane the rule is a midpoint grid in angle, exact for trigonometric
polynomials below the grid order.  In dimension 3 it is a product of
Gauss-Legendre nodes in the polar cosine and a midpoint grid in
azimuth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .constants import omega_n


@dataclass(frozen=True)
class SphereRule:
    """Nodes and positive weights on S^{n-1}."""

    nodes: np.ndarray  # (m, n) unit vectors
    weights: np.ndarray  # (m,)
    level: int

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of ``values`` sampled at the rule nodes."""
        return float(np.dot(self.weights, values))


@functools.cache
def sphere_rule(n: int, level: int = 256) -> SphereRule:
    """Quadrature rule on S^{n-1}, built once per (n, level) and shared:
    its node and weight arrays are read-only.

    Parameters
    ----------
    n : int
        Ambient dimension, 2 or 3 for quadrature-backed paths.
    level : int
        Angular resolution; total node count is ``level`` for n=2 and
        about ``level**2 / 2`` for n=3.
    """
    if level < 4:
        raise ValueError("level must be at least 4")
    if n == 2:
        theta = (np.arange(level) + 0.5) * (2 * np.pi / level)
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(level, 2 * np.pi / level)
    elif n == 3:
        m_pol = max(level // 2, 4)
        x, w = np.polynomial.legendre.leggauss(m_pol)  # cos(polar) in [-1, 1]
        phi = (np.arange(level) + 0.5) * (2 * np.pi / level)
        ct = np.repeat(x, level)
        st = np.sqrt(1 - ct**2)
        ph = np.tile(phi, m_pol)
        nodes = np.stack([st * np.cos(ph), st * np.sin(ph), ct], axis=1)
        weights = np.repeat(w, level) * (2 * np.pi / level)
    else:
        raise ValueError("quadrature rules implemented for n in {2, 3}")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return SphereRule(nodes, weights, level)


def sample_sphere(rng: np.random.Generator, n: int, size: int = 1) -> np.ndarray:
    """Uniform random unit vectors, shape (size, n)."""
    g = rng.standard_normal((size, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def surface_area(n: int) -> float:
    """Surface measure of S^{n-1}, i.e. ``n * omega_n``."""
    return n * omega_n(n)
