"""Single-pixel imaging: forward model, reconstruction solvers, benchmarks."""

from .model import (
    Image,
    PatternSet,
    MeasurementSet,
    NoiseModel,
    generate_patterns,
    synthesize,
    add_noise,
)
from .transforms import LinearOperator, dct_operator, gradient_operator, soft_threshold
from .metrics import normalized_rmse
from .scenes import builtin_scene
from .solvers import (
    StopCriteria,
    SolverReport,
    pinv_solve,
    corr_reconstruct,
    dgi_reconstruct,
    gd_solve,
    cgd_solve,
    poisson_solve,
    ap_solve,
    solver_registry,
    get_solver,
)
from .bench import SweepSpec, run_cell, run_sweep

__version__ = "0.1.0"
