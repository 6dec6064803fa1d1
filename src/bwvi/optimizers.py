"""The two stochastic proximal optimizers and the run driver.

Both algorithms alternate a stochastic gradient step on the energy with a
closed-form proximal step on the entropy, each in its own geometry:

- SPGD updates the parameters ``lambda = (m, C)`` and applies the entropy
  proximal operator, which acts only on the diagonal of the scale factor.
- SPBWGD updates the measure ``N(m, Sigma)`` along its Bures-Wasserstein
  gradient field and applies the entropy JKO operator, which has a
  closed-form matrix expression.

A single run is sequential (iterate ``t+1`` depends on ``t``); multiple
runs are independent and may execute concurrently with their own noise
lineages.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import _energy_estimate, free_energy_exact_quadratic
from .errors import (
    BwviError,
    DimensionMismatch,
    InvalidParameters,
)
from .estimators import (
    EstimatorKind,
    bw_gradient,
    draw_noise,
    param_gradient,
)
from .geometry import (
    GaussianVariational,
    _coupling_cost,
    _sqrt_and_inv_sqrt,
    cholesky_factor,
    entropy,  # unused here; benchmarks/selfcheck.py traces a call to optimizers.entropy
    matrix_sqrt_psd,
    symmetrize,
)
from .schedules import StepSchedule
from .targets import Potential, QuadraticPotential, quadratic_optimum

__all__ = [
    "Algorithm",
    "OptimizerConfig",
    "TraceRecord",
    "RunTrace",
    "entropy_prox",
    "jko_entropy",
    "spgd_step",
    "spbwgd_step",
    "run",
    "parameter_vector",
]


class Algorithm(str, enum.Enum):
    SPGD = "spgd"
    SPBWGD = "spbwgd"


def entropy_prox(scale: np.ndarray, gamma: float) -> np.ndarray:
    """Proximal operator of ``gamma * H`` on the scale factor.

    Off-diagonal entries pass through; each diagonal entry solves the
    scalar optimality condition ``c^2 - C_ii c - gamma = 0``, i.e.

        ``C'_ii = (C_ii + sqrt(C_ii^2 + 4 gamma)) / 2 > 0``.

    Input diagonals may be non-positive (a gradient step can overshoot);
    the prox repairs them by construction.
    """
    if gamma <= 0.0:
        raise InvalidParameters(f"gamma must be positive, got {gamma}")
    scale = np.asarray(scale, dtype=float)
    diag = np.diag(scale)
    out = np.tril(scale).copy()
    new_diag = 0.5 * (diag + np.sqrt(diag * diag + 4.0 * gamma))
    np.fill_diagonal(out, new_diag)
    return out


def jko_entropy(sigma: np.ndarray, gamma: float) -> np.ndarray:
    """Bures-Wasserstein proximal (JKO) operator of ``gamma * H``.

    Closed form on covariances:

        ``Sigma' = (Sigma + 2 gamma I + (Sigma (Sigma + 4 gamma I))^{1/2}) / 2``

    The output is symmetric positive definite for any symmetric PSD input;
    the ``2 gamma I`` term is what rescues rank-deficient half-step
    covariances.  Means are untouched by the entropy and pass through the
    operator unchanged.
    """
    if gamma <= 0.0:
        raise InvalidParameters(f"gamma must be positive, got {gamma}")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {sigma.shape}")
    sigma = symmetrize(sigma)
    d = sigma.shape[0]
    # Sigma (Sigma + 4 gamma I) = Sigma^2 + 4 gamma Sigma is symmetric PSD.
    inner = symmetrize(sigma @ sigma + 4.0 * gamma * sigma)
    root = matrix_sqrt_psd(inner)
    return symmetrize(0.5 * (sigma + 2.0 * gamma * np.eye(d) + root))


def spgd_step(
    q: GaussianVariational,
    target: Potential,
    eps: np.ndarray | None,
    gamma: float,
    estimator: EstimatorKind | str = EstimatorKind.BONNET_PRICE,
) -> GaussianVariational:
    """One parameter-space step: gradient step on E, entropy prox.

    ``m' = m - gamma g_m``; ``C' = prox(C - gamma g_C, gamma)``.
    """
    location_grad, scale_grad = param_gradient(estimator, target, q, eps)
    mean = q.mean - gamma * location_grad
    half_scale = q.scale - gamma * scale_grad
    return GaussianVariational(mean, entropy_prox(half_scale, gamma))


def spbwgd_step(
    q: GaussianVariational,
    target: Potential,
    eps: np.ndarray | None,
    gamma: float,
    estimator: EstimatorKind | str = EstimatorKind.BONNET_PRICE,
) -> GaussianVariational:
    """One Bures-Wasserstein step: gradient push-forward, entropy JKO.

    ``m' = m - gamma g_m``; ``Sigma_half = M Sigma M'`` with
    ``M = I - 2 gamma g_S``; ``Sigma' = jko(Sigma_half, gamma)``.
    The ``M (.) M'`` congruence keeps ``Sigma_half`` PSD even when the
    covariance-gradient estimate is not symmetric; it is evaluated as
    ``(M C)(M C)'`` so this holds exactly in floating point.
    """
    location_grad, covariance_grad = bw_gradient(estimator, target, q, eps)
    mean = q.mean - gamma * location_grad
    m_factor = np.eye(q.dim) - 2.0 * gamma * covariance_grad
    half_factor = m_factor @ q.scale
    sigma_half = half_factor @ half_factor.T
    sigma_new = jko_entropy(sigma_half, gamma)
    return GaussianVariational(mean, cholesky_factor(sigma_new))


@dataclass(frozen=True)
class OptimizerConfig:
    """Configuration of a single optimization run."""

    algorithm: Algorithm | str = Algorithm.SPGD
    estimator: EstimatorKind | str = EstimatorKind.BONNET_PRICE
    minibatch: int = 8
    max_iters: int = 100
    divergence_threshold: float = 1e12

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        object.__setattr__(self, "estimator", EstimatorKind(self.estimator))
        if self.minibatch < 1:
            raise InvalidParameters(f"minibatch must be >= 1, got {self.minibatch}")
        if self.max_iters < 0:
            raise InvalidParameters(f"max_iters must be >= 0, got {self.max_iters}")
        if not (self.divergence_threshold > 0.0):
            raise InvalidParameters(
                f"divergence_threshold must be positive, got {self.divergence_threshold}"
            )


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration diagnostics.

    ``gamma`` is the step size the schedule prescribes at this iterate;
    ``w2_sq`` is the exact squared distance to the optimum when the target
    has a closed-form one (quadratic), else ``None``.
    """

    t: int
    gamma: float
    free_energy: float
    free_energy_se: float
    w2_sq: float | None
    diverged: bool


@dataclass(frozen=True)
class RunTrace:
    """Full record of one run: the initial state plus one record per
    completed iteration, the terminal iterate, and the noise lineage."""

    records: tuple[TraceRecord, ...]
    final_state: GaussianVariational
    seed: int
    stream: int

    @property
    def diverged(self) -> bool:
        return self.records[-1].diverged

    @property
    def w2_history(self) -> np.ndarray:
        return np.array(
            [math.nan if r.w2_sq is None else r.w2_sq for r in self.records]
        )

    @property
    def free_energy_history(self) -> np.ndarray:
        return np.array([r.free_energy for r in self.records])


def run(
    config: OptimizerConfig,
    target: Potential,
    q0: GaussianVariational,
    schedule: StepSchedule,
    seed: int,
    stream: int = 0,
) -> RunTrace:
    """Run one optimization trajectory.

    Draws a fresh noise batch per iteration with deterministic lineage
    ``(seed, stream, t)``, records diagnostics at every iterate, and
    converts numerical failures (non-finite or runaway free energy, failed
    covariance factorization) into a diverged trace instead of an
    exception.
    """
    if q0.dim != target.dim:
        raise DimensionMismatch(f"state dimension {q0.dim} != target dimension {target.dim}")
    exact = config.estimator is EstimatorKind.EXACT
    if exact and not isinstance(target, QuadraticPotential):
        raise InvalidParameters("exact-gradient runs require a quadratic target")
    q_star = quadratic_optimum(target) if isinstance(target, QuadraticPotential) else None
    # One eigendecomposition per W2 record.  The coupling cost is taken from
    # the optimum's side, which keeps full accuracy for converged iterates.
    star_roots = None if q_star is None else _sqrt_and_inv_sqrt(q_star.sigma)

    step_fn = spgd_step if config.algorithm is Algorithm.SPGD else spbwgd_step
    records: list[TraceRecord] = []
    q = q0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(config.max_iters + 1):
            gamma = schedule.step_at(t)
            if exact:
                fe, se = free_energy_exact_quadratic(q, target), 0.0
                eps = None
            else:
                eps = draw_noise(q.dim, config.minibatch, seed, stream, t)
                fe, se = _energy_estimate(q, target, eps)
            w2 = None
            if q_star is not None:
                try:
                    w2 = _coupling_cost(q_star, star_roots, q)
                except (BwviError, np.linalg.LinAlgError, ValueError):
                    w2 = math.inf
            bad = not math.isfinite(fe) or fe > config.divergence_threshold
            records.append(TraceRecord(t, gamma, fe, se, w2, bad))
            if bad or t == config.max_iters:
                break
            try:
                q = step_fn(q, target, eps, gamma, config.estimator)
            except (BwviError, np.linalg.LinAlgError, ValueError, FloatingPointError):
                records[-1] = replace(records[-1], diverged=True)
                break
    return RunTrace(tuple(records), q, seed, stream)


def parameter_vector(q: GaussianVariational) -> np.ndarray:
    """Flatten ``(m, tril C)`` into the parameter vector ``lambda``.

    The Euclidean norm of this vector is the parameter-space metric; it
    dominates the Wasserstein-2 distance between the represented Gaussians.
    """
    idx = np.tril_indices(q.dim)
    return np.concatenate([q.mean, q.scale[idx]])
