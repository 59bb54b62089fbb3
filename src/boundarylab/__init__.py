"""Numerical laboratory for diffusions degenerating on a domain boundary.

The package studies second-order operators on the disk/annulus whose
normal diffusion vanishes quadratically on the boundary circle, under a
small uniformly elliptic perturbation: boundary classification through
the stationary measure of the tangential diffusion, the auxiliary
boundary-layer problems on the half-cylinder, Monte Carlo exit sampling,
and the vanishing-perturbation limit of the Dirichlet problem.
"""

__version__ = "0.1.0"

from .classifier import ClassificationReport, InvariantMeasure, Verdict, classify
from .fields import ChartModel, Flavor, assemble
from .geometry import DomainModel, RescaledPoint
from .halfcyl import HalfCylinderGrid, HalfCylinderSolution, radial_oracle
from .models import get_model, model_names
from .sde import ExitSampleBatch, SimulationParams, simulate

__all__ = [
    "ChartModel", "ClassificationReport", "DomainModel", "ExitSampleBatch",
    "Flavor", "HalfCylinderGrid", "HalfCylinderSolution", "InvariantMeasure",
    "RescaledPoint", "SimulationParams", "Verdict", "assemble", "classify",
    "get_model", "model_names", "radial_oracle", "simulate", "__version__",
]
