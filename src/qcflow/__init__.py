"""Numerical laboratory for quasiconformal boundary extensions, the
harmonic-map heat flow on hyperbolic space, heat-kernel concentration
and sector coverings, in the upper half-space model."""

from .boundary import BoundaryMap, make_boundary_map
from .extension import GoodExtension, QuadratureRule
from .geometry import INFINITY, Mobius, dist, geodesic_step
from .heatkernel import RadialKernel
from .tension import energy_density, map_distortion

__all__ = [
    "BoundaryMap",
    "make_boundary_map",
    "GoodExtension",
    "QuadratureRule",
    "INFINITY",
    "Mobius",
    "dist",
    "geodesic_step",
    "RadialKernel",
    "energy_density",
    "map_distortion",
]
