"""Gaussian variational inference by stochastic proximal gradient descent.

Minimizes the free energy ``F(q) = E_q[U] + E_q[log q]`` over the
Gaussian family, either in parameter space (SPGD: gradient step plus
entropy prox on the scale factor) or in Bures-Wasserstein space (SPBWGD:
gradient push-forward plus entropy JKO on the covariance), with
interchangeable Hessian-based and first-order gradient estimators.
"""

from .diagnostics import (
    FreeEnergyEstimate,
    TheoryConstants,
    bregman_energy_quadratic,
    estimator_second_moment,
    free_energy_exact_quadratic,
    free_energy_mc,
    theory_constants,
)
from .errors import (
    BwviError,
    DimensionMismatch,
    IndefiniteMatrix,
    InvalidParameters,
    LabelError,
    NotPositiveDefinite,
    NotSymmetric,
    ParseError,
)
from .estimators import (
    EstimatorKind,
    bw_gradient,
    draw_noise,
    param_gradient,
)
from .geometry import (
    GaussianVariational,
    cholesky_factor,
    entropy,
    matrix_sqrt_psd,
    optimal_transport_map,
    sample,
    w2_distance_sq,
)
from .optimizers import (
    Algorithm,
    OptimizerConfig,
    RunTrace,
    TraceRecord,
    entropy_prox,
    jko_entropy,
    run,
    run_batch,
    spbwgd_step,
    spgd_step,
)
from .schedules import StepSchedule, constant_schedule, theorem_schedule
from .targets import (
    LogisticRidgePotential,
    Potential,
    PotentialMetadata,
    QuadraticPotential,
    load_logistic_dataset,
    quadratic_optimum,
    random_quadratic,
)

__version__ = "0.1.0"
