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

from .geometry import (
    ConstraintSet,
    CotangentP,
    CotangentTstarY,
    DegenerateConstraintError,
    MembershipReport,
    PhasePoint,
    PontryaginState,
    TangentP,
    TangentTstarY,
    dirac_membership_P,
    dirac_membership_TstarY,
    dirac_pairing,
    dirac_rank,
    random_dirac_element,
    unconstrained,
)
from .lagrangian import (
    DerivativeReport,
    ExternalForce,
    HyperregularityError,
    LegendreConvergenceError,
    TimeHamiltonian,
    TimeLagrangian,
    check_derivatives,
    covariant_hamiltonian,
    covariant_legendre,
    dirac_differential,
    lagrangian_energy,
    legendre_dual,
    legendre_invert,
)
from .dynamics import (
    ImplicitMidpointStepper,
    InvariantSeries,
    MultiplierEstimate,
    NonSectionError,
    SingularJacobianError,
    StepFailureError,
    StepResult,
    Trajectory,
    hamilton_dirac_residual,
    initialize_covariant_momentum,
    lagrange_dirac_residual,
    monitor_invariants,
    pontryagin_dirac_residual,
    recover_multipliers,
)
from .thermo import (
    EntropyBreakdown,
    HeatSourceModel,
    MechanicalLagrangian,
    NonpositiveTemperatureError,
    PortModel,
    PowerFlows,
    ReducedRates,
    SimpleOpenSystem,
    ThermoLayout,
    ThermoState,
    build_constraints,
    build_extended_lagrangian,
    build_momentum_constraints,
    chemical_potential,
    entropy_production,
    first_law_residual,
    ideal_gas_fixture,
    initial_pontryagin_state,
    lifted_midpoint_samples,
    linear_friction,
    momenta_from_state,
    power_flows,
    random_physical_point,
    reduced_rhs,
    run_reduced,
    state_from_arrays,
    temperature,
)

__version__ = "0.1.0"
