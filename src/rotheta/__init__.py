"""Traveling-wave structure of a rotation-modified theta-family of
shallow-water equations: first integrals, equilibrium censuses, elliptic
closed forms, peakon geometry, and theorem-by-theorem wave-menu atlases.

The reduction yields the planar system

    dphi/dtau = y (theta phi - C1),
    dy/dtau   = (theta - 1/2) y^2 + f(phi),

with f(phi) = C3 phi^4 + C2 phi^3 + phi^2/2 + K phi, regularized from the
singular xi-form by dxi = (theta phi - C1) dtau.  The vertical line
phi = C1/theta carries the peakon phenomenology.
"""

from .params import (CoriolisParams, WaveParams, derive_coriolis,
                     derive_wave_params, parse_theta)
from .field import (FirstIntegral, SingularLineError, build_first_integral,
                    conservation_defect, published_first_integral)
from .equilibria import EquilibriumCensus, Equilibrium, census
from .elliptic import complete_K, jacobi
from .closedform import WaveSolution, closed_form_menu, ode_residual
from .atlas import (ObservedMenu, RegionLabel, SweepReport, WaveMenu,
                    classify_region, observe_wave_menu, predict_wave_menu,
                    sweep_singular_line)
from .verification import run_checks

__version__ = "0.1.0"

__all__ = [
    "CoriolisParams", "WaveParams", "derive_coriolis", "derive_wave_params",
    "parse_theta",
    "FirstIntegral", "SingularLineError", "build_first_integral",
    "conservation_defect", "published_first_integral",
    "EquilibriumCensus", "Equilibrium", "census",
    "complete_K", "jacobi",
    "WaveSolution", "closed_form_menu", "ode_residual",
    "ObservedMenu", "RegionLabel", "SweepReport", "WaveMenu",
    "classify_region", "observe_wave_menu", "predict_wave_menu",
    "sweep_singular_line",
    "run_checks",
    "__version__",
]
