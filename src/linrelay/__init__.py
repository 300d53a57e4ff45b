"""Energy-per-bit bounds for the Gaussian relay channel under linear relaying.

Public surface: the rank-1 bound pipeline (endpoint solve, bound evaluation,
outer optimization), closed-form trajectory reconstruction with identity
checks, finite-k relay-code construction with an independent matrix oracle,
and the block-Markov / cut-set / 2x2 baselines.
"""
from .baselines import (
    BoundsRecord,
    block_markov_bound,
    bounds_records,
    cutset_bound,
    two_by_two_bound,
)
from .bound import (
    DEFAULT_QUADRATURE,
    BoundaryPair,
    BoundEvaluation,
    ChannelParams,
    EndpointSolution,
    QuadratureSpec,
    compute_phi,
    f_eval,
    integrate_adaptive,
    lambda_and_Q1,
    optimize_bound,
    optimize_bounds,
    solve_endpoint,
    theorem_bound,
)
from .codes import (
    CodeEvaluation,
    RelayCode,
    build_code,
    evaluate_rank1,
    export_code,
    parse_code,
)
from .numerics import find_root_bracketed, minimize_simplex
from .trajectory import (
    IdentityCheck,
    TrajectoryGrid,
    build_trajectory,
    check_identities,
    invert_A_profile,
    reconstruct_barred,
    unbar,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPair",
    "BoundEvaluation",
    "BoundsRecord",
    "ChannelParams",
    "CodeEvaluation",
    "DEFAULT_QUADRATURE",
    "EndpointSolution",
    "IdentityCheck",
    "QuadratureSpec",
    "RelayCode",
    "TrajectoryGrid",
    "block_markov_bound",
    "bounds_records",
    "build_code",
    "build_trajectory",
    "check_identities",
    "compute_phi",
    "cutset_bound",
    "evaluate_rank1",
    "export_code",
    "f_eval",
    "find_root_bracketed",
    "integrate_adaptive",
    "invert_A_profile",
    "lambda_and_Q1",
    "minimize_simplex",
    "optimize_bound",
    "optimize_bounds",
    "parse_code",
    "reconstruct_barred",
    "solve_endpoint",
    "theorem_bound",
    "two_by_two_bound",
    "unbar",
]
