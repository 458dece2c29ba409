"""Exact motivic-class and Chern-class calculus for blow-up bookkeeping.

The package keeps everything symbolic: integer polynomials in the
Lefschetz class localized at projective-space classes, rational Chow
vectors on iterated blow-ups of the plane, and the weighted stratum sums
whose invariance under blow-ups is what the verification commands check.
"""

from .blowup import (
    BlowupCenter,
    BlowupError,
    BlowupProgram,
    LocusRule,
    blow_up,
    run_program,
)
from .cfun import BaseFunction
from .modsys import Divisor, MarkedLocus, ModificationSystem
from .ring import LPolynomial, MotivicClass, affine_class, projective_class, torus_class
from .strata import (
    FiberFrame,
    hyperplane_stratum_class,
    sweep_identities,
    verify_simplex,
    verify_simplexcor,
)
from .surface import (
    ChowClass,
    GenericPoint,
    IntersectionPoint,
    PointOnCurve,
    SurfaceModel,
)

__version__ = "0.1.0"

__all__ = [
    "BaseFunction",
    "BlowupCenter",
    "BlowupError",
    "BlowupProgram",
    "ChowClass",
    "Divisor",
    "FiberFrame",
    "GenericPoint",
    "IntersectionPoint",
    "LocusRule",
    "LPolynomial",
    "MarkedLocus",
    "ModificationSystem",
    "MotivicClass",
    "PointOnCurve",
    "SurfaceModel",
    "affine_class",
    "blow_up",
    "hyperplane_stratum_class",
    "projective_class",
    "run_program",
    "sweep_identities",
    "torus_class",
    "verify_simplex",
    "verify_simplexcor",
]
