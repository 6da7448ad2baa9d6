"""Local sparsity-preserving coarsening transformations for lattice operators."""

from .analysis import (
    GlobalVerifyReport,
    SweepRecord,
    default_verify_grid,
    fit_decay_rate,
    global_verify,
    run_sweep,
    spatial_decay,
    spectrum_at,
)
from .errors import NumericalFailure
from .lattice import (
    LocalProblem,
    SparsityPattern,
    StencilSpec,
    SupernodeLayout,
    build_helmholtz,
    checkerboard_diagonal,
    decoupled_pattern,
    extract_local_scalar,
    extract_local_supernode,
    supernode_layout,
)
from .linearized import (
    ConvergenceTrace,
    MinimizeOptions,
    linearized_minimize,
    steepest_descent,
)
from .transform import (
    TransformPair,
    condition_of_y,
    initial_guess,
    objective_gradient,
    residual_and_error,
)

__all__ = [
    "ConvergenceTrace",
    "GlobalVerifyReport",
    "LocalProblem",
    "MinimizeOptions",
    "NumericalFailure",
    "SparsityPattern",
    "StencilSpec",
    "SupernodeLayout",
    "SweepRecord",
    "TransformPair",
    "build_helmholtz",
    "checkerboard_diagonal",
    "condition_of_y",
    "decoupled_pattern",
    "default_verify_grid",
    "extract_local_scalar",
    "extract_local_supernode",
    "fit_decay_rate",
    "global_verify",
    "initial_guess",
    "linearized_minimize",
    "objective_gradient",
    "residual_and_error",
    "run_sweep",
    "spatial_decay",
    "spectrum_at",
    "steepest_descent",
    "supernode_layout",
]
