"""Self-similar vanishing-viscosity Riemann solvers for coupled hyperbolic models.

Constructs smooth self-similar solutions u(xi), xi = x/t, of diffusively
regularized Riemann problems where two hyperbolic half-models are joined
through a color field v transitioning from -1 to +1, and numerically verifies
the structural estimates (total variation bounds, wave-coefficient bounds,
entropy inequalities) that control the inviscid limit.
"""

from .grid import GridFunction
from .color import ColorProfile
from .models import (
    ScalarCouplingModel,
    SystemCouplingModel,
    build_scalar_model,
    build_p_system_model,
    estimate_eta_nu,
    validate_hypotheses,
    preset_model,
)
from .scalar import ScalarSolveConfig, ScalarSolution, solve_scalar
from .spectral import SpectralData
from .measures import WaveMeasureSet, build_phi_star
from .system import SystemSolveConfig, SystemSolveState, solve_system
from . import diagnostics

__all__ = [
    "GridFunction",
    "ColorProfile",
    "ScalarCouplingModel",
    "SystemCouplingModel",
    "build_scalar_model",
    "build_p_system_model",
    "validate_hypotheses",
    "preset_model",
    "ScalarSolveConfig",
    "ScalarSolution",
    "solve_scalar",
    "SpectralData",
    "estimate_eta_nu",
    "WaveMeasureSet",
    "build_phi_star",
    "SystemSolveConfig",
    "SystemSolveState",
    "solve_system",
    "diagnostics",
]

__version__ = "0.1.0"
