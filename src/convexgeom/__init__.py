"""Numerical convex geometry: random-simplex functionals, moment
bodies, L_p mixed volumes, p-affine surface areas, and an empirical
verification harness for the inequalities relating them."""

from .bodies import (
    Ball,
    ConvexBody,
    Cube,
    Ellipsoid,
    LqBall,
    Polytope,
    polar,
    linear_image,
    sample_uniform,
    standard_simplex,
    volume,
)
from .estimate import Estimate
from .functionals import (
    I_p,
    N_p_body,
    centroid_body,
    dual_mixed_volume,
    mixed_volume,
    projection_body,
    surface_measure,
)
from .sphere import sphere_rule

__version__ = "0.1.0"
