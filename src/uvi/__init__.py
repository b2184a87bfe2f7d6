"""Adaptive mirror-prox solvers for monotone variational inequalities."""

from .geometry import (
    EntropicSimplex,
    EuclideanBall,
    EuclideanBox,
    EuclideanSimplex,
    Geometry,
    GeometryError,
    ProductGeometry,
)
from .operators import (
    StochasticOracle,
    UnknownProblemError,
    VIProblem,
    builtin_problems,
    convex_min_problem,
    make_problem,
    matrix_game,
    noisy_eval,
    saddle_problem,
)
from .solver import (
    DivergenceError,
    GapCheckError,
    InvariantError,
    RunBatch,
    RunTrace,
    SolverConfig,
    SolverError,
    compute_z_sq,
    mirror_prox,
    update_eta,
)
from .gap import GapError, dual_gap
from .analysis import (
    lemma4_check,
    lemma5_check,
    lemma7_check,
    lemma8_check,
    prop1_mc,
    rate_fit,
    regret_bound_sides,
    theorem_bounds,
)

__version__ = "0.1.0"
