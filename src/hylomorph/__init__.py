"""hylomorph: charge-constrained solitons and vortices of nonlinear Klein-Gordon fields."""

from .chargewin import (
    ConstructionPlan,
    TentProfile,
    WindowEstimate,
    construct_for_charge,
    estimate_admissible_window,
    verify_tent_witness,
)
from .evolve import (
    BlowUpError,
    EvolutionLedger,
    EvolutionState,
    evolve_nlkg,
    localization_fraction,
    manifold_distance,
    soliton_state,
)
from .functionals import deficiency, reduced_energy_sigma, sigma_window
from .gauge import GaugePotential, solve_phi
from .grid import RadialGrid, RadialProfile
from .minimize import SolitonResult, SolveOptions, minimize_kgm, minimize_nlkg, residual_stationary
from .model import (
    AssumptionReport,
    CriteriaReport,
    NonlinearSpec,
    classify_charge_criteria,
    eval_nonlinearity,
    validate_assumptions,
)
from .oracle import ShootResult, shoot_ground_state
from .vortex import AxisymGrid, AxisymProfile, minimize_vortex, torus_bump

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "AxisymGrid",
    "AxisymProfile",
    "BlowUpError",
    "ConstructionPlan",
    "CriteriaReport",
    "EvolutionLedger",
    "EvolutionState",
    "GaugePotential",
    "NonlinearSpec",
    "RadialGrid",
    "RadialProfile",
    "ShootResult",
    "SolitonResult",
    "SolveOptions",
    "TentProfile",
    "WindowEstimate",
    "classify_charge_criteria",
    "construct_for_charge",
    "deficiency",
    "estimate_admissible_window",
    "eval_nonlinearity",
    "evolve_nlkg",
    "localization_fraction",
    "manifold_distance",
    "minimize_kgm",
    "minimize_nlkg",
    "minimize_vortex",
    "reduced_energy_sigma",
    "residual_stationary",
    "shoot_ground_state",
    "sigma_window",
    "solve_phi",
    "soliton_state",
    "torus_bump",
    "validate_assumptions",
    "verify_tent_witness",
]
