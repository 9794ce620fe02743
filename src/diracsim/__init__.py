"""Structure-preserving simulation and verification of finite-dimensional
open thermodynamic systems on time-extended Dirac bundles.

The package builds the geometry (constraint distributions and the induced
Dirac structure on the mixed velocity-momentum bundle over time-extended
configuration space), the variational data (time-dependent
Lagrangians and Hamiltonians with their energies and Legendre maps), a
structure-aware implicit midpoint integrator for three equivalent
formulations of the constrained dynamics, and a model layer for simple open
thermodynamic systems exchanging heat and matter through ports. A command
line interface runs, compares, and verifies trajectories from JSON
configurations.
"""

from . import dynamics, geometry, lagrangian, thermo
from .dynamics import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .lagrangian import *  # noqa: F401,F403
from .thermo import *  # noqa: F401,F403

# The root exports each module's __all__, and nothing else.
__all__ = [*geometry.__all__, *lagrangian.__all__, *dynamics.__all__, *thermo.__all__]

__version__ = "0.1.0"
