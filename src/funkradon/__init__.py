"""funkradon: integral transforms over plane curve families and their inversion.

The package computes the generalized transform M f(lambda, phi) = integral of
f over the family curve with parameters (lambda, phi), weighted by the
reciprocal gradient of the generating function, and inverts it through a
principal-value filter in lambda followed by backprojection. Eight curve
families are built in; see funkradon.geometry for the catalogue.
"""

from .fields import Grid, ScalarField, read_f64grid, write_f64grid
from .geometry import (
    FactorizationUnavailableError,
    GeometryDomainError,
    GeometryFamily,
    parse_geometry,
)
from .inversion import CoverageError, WindowingError, backproject, invert, pv_filter
from .phantom import Phantom, parse_phantom
from .transform import DivergentRowError, Sinogram, TracingError, forward_mphi, read_fkr1, trace_curve, write_fkr1
from .trigpoly import TrigPoly, nucleus_check, pv_inverse_square, residue_integral

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "ScalarField",
    "read_f64grid",
    "write_f64grid",
    "GeometryFamily",
    "GeometryDomainError",
    "FactorizationUnavailableError",
    "parse_geometry",
    "Phantom",
    "parse_phantom",
    "Sinogram",
    "TracingError",
    "DivergentRowError",
    "forward_mphi",
    "trace_curve",
    "read_fkr1",
    "write_fkr1",
    "CoverageError",
    "WindowingError",
    "pv_filter",
    "backproject",
    "invert",
    "TrigPoly",
    "pv_inverse_square",
    "residue_integral",
    "nucleus_check",
    "__version__",
]
