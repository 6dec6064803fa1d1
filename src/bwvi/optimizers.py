"""The two stochastic proximal optimizers and the run driver.

Both algorithms alternate a stochastic gradient step on the energy with a
closed-form proximal step on the entropy, each in its own geometry:

- SPGD updates the parameters ``lambda = (m, C)`` and applies the entropy
  proximal operator, which acts only on the diagonal of the scale factor.
- SPBWGD updates the measure ``N(m, Sigma)`` along its Bures-Wasserstein
  gradient field and applies the entropy JKO operator, which has a
  closed-form matrix expression.

Independent runs of one configuration run in lock step: ``run_batch``
steps B chains held as a stack (means ``(B, d)``, scales ``(B, d, d)``) with
one call per operation.  Each chain keeps its own schedule and noise, so its
trace is bitwise the one it has alone, and a diverged chain is frozen while
the others go on.  A single run is the case B = 1.  Each iteration makes
one potential-oracle call, ``target.evaluate`` at the draws ``C eps + m``:
its values give the free-energy record, and its gradients (with Price, its
mean Hessian) give the step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import _energy_estimate, free_energy_exact_quadratic
from .errors import (
    BwviError,
    DimensionMismatch,
    InvalidParameters,
)
from .estimators import (
    EstimatorKind,
    _bw_gradient,
    _noise_generator,
    _param_gradient,
)
from .geometry import (
    GaussianVariational,
    _Chains,
    _coupling_cost,
    _check_square,
    _sqrt_and_inv_sqrt,
    _sqrt_symmetric,
    _state_checks,
    _t,
    _tril,
    cholesky_factor,
    entropy,  # unused here; benchmarks/selfcheck.py traces a call to optimizers.entropy
    sample,
    symmetrize,
)
from .schedules import StepSchedule
from .targets import Potential, QuadraticPotential, quadratic_optimum

__all__ = [
    "Algorithm",
    "OptimizerConfig",
    "RunTrace",
    "entropy_prox",
    "jko_entropy",
    "spgd_step",
    "spbwgd_step",
    "run",
    "run_batch",
]

#: Numerical failures that end one chain as diverged instead of raising.
_FAILURES = (BwviError, np.linalg.LinAlgError, ValueError, FloatingPointError)


class Algorithm(str, enum.Enum):
    SPGD = "spgd"
    SPBWGD = "spbwgd"


def entropy_prox(scale: np.ndarray, gamma: float) -> np.ndarray:
    """Proximal operator of ``gamma * H`` on the scale factor.

    Off-diagonal entries pass through; each diagonal entry solves the
    scalar optimality condition ``c^2 - C_ii c - gamma = 0``, i.e.

        ``C'_ii = (C_ii + sqrt(C_ii^2 + 4 gamma)) / 2 > 0``.

    Input diagonals may be non-positive (a gradient step can overshoot);
    the prox repairs them by construction.  A stack of scale factors takes
    one step size per factor.
    """
    gamma = np.asarray(gamma, dtype=float)
    if (gamma <= 0.0).any():
        raise InvalidParameters(f"gamma must be positive, got {gamma}")
    scale = np.asarray(scale, dtype=float)
    d = scale.shape[-1]
    diag = scale.diagonal(axis1=-2, axis2=-1)
    out = _tril(scale)
    flat = out.reshape(out.shape[:-2] + (d * d,))  # a view: ``out`` is contiguous
    flat[..., :: d + 1] = 0.5 * (diag + np.sqrt(diag * diag + 4.0 * gamma[..., None]))
    return out


def jko_entropy(sigma: np.ndarray, gamma: float) -> np.ndarray:
    """Bures-Wasserstein proximal (JKO) operator of ``gamma * H``.

    Closed form on covariances:

        ``Sigma' = (Sigma + 2 gamma I + (Sigma (Sigma + 4 gamma I))^{1/2}) / 2``

    The output is symmetric positive definite for any symmetric PSD input;
    the ``2 gamma I`` term is what rescues rank-deficient half-step
    covariances.  Means are untouched by the entropy and pass through the
    operator unchanged.  A stack of covariances takes one step size per
    covariance.
    """
    gamma = np.asarray(gamma, dtype=float)
    if (gamma <= 0.0).any():
        raise InvalidParameters(f"gamma must be positive, got {gamma}")
    sigma = np.asarray(sigma, dtype=float)
    _check_square(sigma)
    sigma, g = symmetrize(sigma), gamma[..., None, None]
    # Sigma (Sigma + 4 gamma I) = Sigma^2 + 4 gamma Sigma is symmetric PSD.
    inner = symmetrize(sigma @ sigma + 4.0 * g * sigma)
    root = _sqrt_symmetric(inner)
    return symmetrize(0.5 * (sigma + 2.0 * g * np.eye(sigma.shape[-1]) + root))


def _per_chain(fn, stack: np.ndarray, *args) -> tuple[np.ndarray, dict]:
    """``fn(stack, *args)`` and the errors of the chains it failed for, by
    chain index.  If the call raises, ``fn`` runs again chain by chain, so
    that only the bad chains fail; their output is the identity."""
    try:
        return fn(stack, *args), {}
    except _FAILURES:
        pass
    out = np.empty(stack.shape)
    errors = {}
    for i in np.ndindex(stack.shape[:-2]):
        try:
            out[i] = fn(stack[i], *(a[i] for a in args))
        except _FAILURES as err:
            out[i] = np.eye(stack.shape[-1])
            errors[i] = err
    return out, errors


def _step(algorithm, kind, target, q, eps, evaluation, gamma) -> tuple[np.ndarray, np.ndarray, dict]:
    """One step of ``algorithm`` from a state or from each chain of a stack,
    with the ``target.evaluate`` result at the draws ``C eps + m``
    (``None``: evaluated here) and one step size per chain: the new means
    and scales and the failed chains' errors."""
    gamma = np.asarray(gamma, dtype=float)
    if algorithm is Algorithm.SPGD:
        location_grad, scale_grad = _param_gradient(kind, target, q, eps, evaluation)
        half_scale = q.scale - gamma[..., None, None] * scale_grad
        scale, errors = _per_chain(entropy_prox, half_scale, gamma)
    else:
        location_grad, covariance_grad = _bw_gradient(kind, target, q, eps, evaluation)
        m_factor = np.eye(q.dim) - 2.0 * gamma[..., None, None] * covariance_grad
        half_factor = m_factor @ q.scale
        sigma, errors = _per_chain(jko_entropy, half_factor @ _t(half_factor), gamma)
        scale, cholesky_errors = _per_chain(cholesky_factor, sigma)
        errors = {**cholesky_errors, **errors}
    return q.mean - gamma[..., None] * location_grad, scale, errors


def _single_step(algorithm, q, target, eps, gamma, estimator) -> GaussianVariational:
    mean, scale, errors = _step(algorithm, EstimatorKind(estimator), target, q, eps, None, gamma)
    if errors:
        raise errors[()]
    return GaussianVariational(mean, scale)


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
    return _single_step(Algorithm.SPGD, q, target, eps, gamma, estimator)


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
    return _single_step(Algorithm.SPBWGD, q, target, eps, gamma, estimator)


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


#: The fields of ``RunTrace.records``, one row per iterate.
_TRACE_ROW = np.dtype([
    ("t", np.int64), ("gamma", float), ("free_energy", float),
    ("free_energy_se", float), ("w2_sq", float), ("diverged", bool),
])


@dataclass(frozen=True)
class RunTrace:
    """Full record of one run: the initial state plus one row per
    completed iteration, the terminal iterate, and the noise lineage.

    ``records`` is a numpy record array with the fields ``t``, ``gamma``
    (the step size the schedule prescribes at that iterate),
    ``free_energy``, ``free_energy_se``, ``w2_sq`` (the exact squared
    distance to a closed-form optimum, such as a quadratic's, else NaN)
    and ``diverged`` (set on a diverged run's last row only).
    """

    records: np.recarray
    final_state: GaussianVariational
    seed: int
    stream: int

    def __post_init__(self):
        self.records.flags.writeable = False  # the histories below are views

    @property
    def diverged(self) -> bool:
        return bool(self.records.diverged[-1])

    @property
    def w2_history(self) -> np.ndarray:
        return self.records.w2_sq

    @property
    def free_energy_history(self) -> np.ndarray:
        return self.records.free_energy


def run(
    config: OptimizerConfig,
    target: Potential,
    q0: GaussianVariational,
    schedule: StepSchedule,
    seed: int,
    stream: int = 0,
) -> RunTrace:
    """Run one optimization trajectory: ``run_batch`` with one chain."""
    return run_batch(config, target, q0, [(schedule, seed, stream)])[0]


def run_batch(
    config: OptimizerConfig,
    target: Potential,
    q0: GaussianVariational,
    chains,
) -> list[RunTrace]:
    """One trajectory from ``q0`` per ``(schedule, seed, stream)`` in
    ``chains``, run in lock step and returned in that order.

    Each chain draws fresh noise per iteration with lineage ``(seed,
    stream, t)``, records diagnostics at every iterate, and ends diverged,
    not raising, at a non-finite or runaway free energy, a failed step or
    an invalid new state, keeping its last valid state.
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

    records: list[list[tuple]] = [[] for _ in chains]
    finals: list = [None] * len(chains)
    live = list(range(len(chains)))  # the chain of each row of the stack
    q = _Chains(*(np.repeat(a[None], len(live), axis=0) for a in (q0.mean, q0.scale)))
    price = config.estimator is EstimatorKind.BONNET_PRICE
    eps = evaluation = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(config.max_iters + 1):
            gammas = [chains[c][0].step_at(t) for c in live]
            if exact:
                fe, se = free_energy_exact_quadratic(q, target), np.zeros(len(live))
            else:
                # Row by row, the draws of draw_noise(d, M, seed, stream, t).
                eps = np.empty((len(live), config.minibatch, q0.dim))
                for row, c in enumerate(live):
                    _noise_generator(chains[c][1], chains[c][2], t).standard_normal(out=eps[row])
                evaluation = target.evaluate(sample(q, eps), price)
                fe, se = _energy_estimate(q, evaluation[0])
            fe = fe.tolist()
            bad = [not math.isfinite(v) or v > config.divergence_threshold for v in fe]
            w2 = _w2_records(q_star, star_roots, q)
            for c, *record in zip(live, gammas, fe, se.tolist(), w2, bad):
                records[c].append((t, *record))
            if t == config.max_iters:
                break
            # A chain whose energy ran away takes the step too, and is
            # dropped with the chains whose step failed.
            mean, scale, errors = _step(
                config.algorithm, config.estimator, target, q, eps, evaluation, gammas
            )
            valid = np.logical_and.reduce(_state_checks(mean, scale)).tolist()
            failed = [b or not v or (row,) in errors for row, (b, v) in enumerate(zip(bad, valid))]
            if any(failed):
                for row in np.flatnonzero(failed):
                    rec = records[live[row]]
                    rec[-1] = (*rec[-1][:-1], True)
                live, (mean, scale) = _freeze(failed, live, q, finals, mean, scale)
                if not live:
                    break
            q = _Chains(mean, scale)
    _freeze([True] * len(live), live, q, finals)
    return [
        RunTrace(np.rec.fromrecords(rec, dtype=_TRACE_ROW), GaussianVariational(*final), seed, stream)
        for rec, final, (_, seed, stream) in zip(records, finals, chains)
    ]


def _freeze(stop: list[bool], live: list[int], q: _Chains, finals: list, *arrays):
    """Freeze the rows where ``stop`` holds at ``q``; keep the rest of ``live``, ``arrays``."""
    keep = [not s for s in stop]
    for row in np.flatnonzero(stop):
        finals[live[row]] = (q.mean[row], q.scale[row])
    return [c for c, k in zip(live, keep) if k], [a[keep] for a in arrays]


def _w2_records(q_star, star_roots, q: _Chains) -> list:
    """Squared W2 distance of each chain to the optimum (NaN without a
    closed-form optimum, ``inf`` for a chain whose record fails)."""
    if q_star is None:
        return [math.nan] * len(q.mean)
    try:
        return _coupling_cost(q_star, star_roots, q).tolist()
    except _FAILURES:
        if len(q.mean) == 1:
            return [math.inf]
    rows = (_Chains(mean[None], scale[None]) for mean, scale in zip(q.mean, q.scale))
    return [w for row in rows for w in _w2_records(q_star, star_roots, row)]
