"""Numerical laboratory for internal-functional diffuse optical tomography.

Forward diffusion solves, internal-functional synthesis, symbol-level
ellipticity certification, linearized least-squares inversion, the explicit
constant-background route, and a fixed-point solver for the nonlinear
problem, all on uniform rectangular grids.
"""

__version__ = "0.1.0"

from .errors import (
    AllNodesDegenerate,
    BumpTouchesBoundary,
    DirectionsNotCertified,
    Diverged,
    GridMismatch,
    InsufficientHistory,
    NonPositiveSolution,
    NotElliptic,
    NotUnitVector,
    PipelineStageError,
    RankDeficient,
    ScenarioError,
    SolverDivergence,
    TooFewSolutions,
    UmotError,
    ZeroAbsorption,
    ZeroEta,
)
from .field_core import (
    BoundaryData,
    DiscreteOperator,
    Grid,
    ScalarField,
    VectorField,
    gradient,
)
from .forward import (
    CoefficientPair,
    DiffusionSolver,
    SolutionBundle,
    build_bundle,
)
from .ellipticity import (
    DirectionSet,
    EllipticityReport,
    certify_directions,
    certify_field,
    cgo_boundary_set,
    constant_bg_boundary_set,
)
from .linearized import (
    LinearizedSystem,
    PerturbationVector,
    apply_linearized_forward,
    assemble_system,
    injectivity_probe,
    solve_normal_equations,
)
from .constant_bg import (
    ConstantBackground,
    operator_B,
    operator_C,
    preprocess_data,
    sigma_zero_laplacian_sum_check,
    sigma_zero_recover_dgamma_2d,
    sigma_zero_recover_dsigma,
    solve_constant_bg,
)
from .nonlinear import (
    ReconstructionResult,
    ReconstructOptions,
    contraction_estimate,
    reconstruct,
    stability_probe,
)
from .phantom import BumpSpec, add_noise, bump_field, generate_phantom
from .scenario import ScenarioConfig, parse_scenario, serialize_scenario
from .pipeline import RunManifest, run_pipeline
