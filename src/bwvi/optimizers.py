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
trace is bitwise the one it has alone, and a diverged chain stops while
the others go on.  A single run is the case B = 1.  Each iteration makes
one potential-oracle call, ``target.evaluate`` at the draws ``C eps + m``:
its values give the free-energy record, and its gradients (with Price, its
mean Hessian) give the step.

The iterations run only the dynamics.  The free energies, the state checks
of the new states, the W2 records of a target with a closed-form optimum,
the stops and the final states are settled after the steps, for blocks of
iterates of about ``_W2_BLOCK`` covariance entries at a time, which bounds
the iterates held back; each row is bitwise what one call per iteration
gives.  A chain that fails inside a block steps on, on its own row, to the
block's end, and those steps are discarded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagnostics import _energy_estimate, free_energy_exact_quadratic
from .errors import DimensionMismatch, InvalidParameters, NotPositiveDefinite
from .estimators import (
    EstimatorKind,
    _bw_gradient,
    _LockStepNoise,
    _param_gradient,
)
from .geometry import (
    GaussianVariational,
    _Chains,
    _coupling_cost,
    _check_square,
    _identity,
    _sqrt_and_inv_sqrt,
    _state_checks,
    _t,
    _tril,
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


class Algorithm(str, enum.Enum):
    SPGD = "spgd"
    SPBWGD = "spbwgd"


def _positive(gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if (gamma <= 0.0).any():
        raise InvalidParameters(f"gamma must be positive, got {gamma}")
    return gamma


def entropy_prox(scale: np.ndarray, gamma: float) -> np.ndarray:
    """Proximal operator of ``gamma * H`` on the scale factor.

    Off-diagonal entries pass through; each diagonal entry ``c = C_ii``
    becomes the positive root of ``x^2 - c x - gamma = 0``, evaluated
    without cancellation: with ``s = (|c| + sqrt(c^2 + 4 gamma)) / 2`` it is
    ``s`` for ``c >= 0`` and, as the roots' product is ``-gamma``,
    ``gamma / s`` for ``c < 0``.

    Input diagonals may be non-positive (a gradient step can overshoot);
    the prox repairs them by construction.  A stack of scale factors takes
    one step size per factor.
    """
    return _prox(np.asarray(scale, dtype=float), _positive(gamma))


def _prox(scale: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``entropy_prox`` unchecked: a NaN step size gives a NaN diagonal."""
    gamma = gamma[..., None]
    d = scale.shape[-1]
    diag = scale.diagonal(axis1=-2, axis2=-1)
    root = 0.5 * (abs(diag) + np.sqrt(diag * diag + 4.0 * gamma))
    np.divide(gamma, root, out=root, where=diag < 0.0)
    out = _tril(scale)
    flat = out.reshape(out.shape[:-2] + (d * d,))  # a view: ``out`` is contiguous
    flat[..., :: d + 1] = root
    return out


def jko_entropy(sigma: np.ndarray, gamma: float) -> np.ndarray:
    """Bures-Wasserstein proximal (JKO) operator of ``gamma * H``.

    Closed form on covariances:

        ``Sigma' = (Sigma + 2 gamma I + (Sigma (Sigma + 4 gamma I))^{1/2}) / 2``

    evaluated on the spectrum ``Sigma = V diag(w) V'`` as
    ``V diag((w + 2 gamma + sqrt(w (w + 4 gamma))) / 2) V'``, with ``w``
    clipped at 0.  Each output eigenvalue is a sum of positive terms, at
    least ``gamma``, so the output is symmetric positive definite and keeps
    its small eigenvalues accurate however ill-conditioned ``Sigma`` is.
    Means pass through unchanged.  A stack of covariances takes one step
    size per covariance.  ``NotPositiveDefinite`` for a non-finite entry.
    """
    gamma = _positive(gamma)
    sigma = np.asarray(sigma, dtype=float)
    _check_square(sigma)
    if not np.isfinite(sigma).all():
        raise NotPositiveDefinite("covariance entries must be finite")
    return _jko(sigma, gamma)


def _jko(sigma: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``jko_entropy`` unchecked, NaN for a matrix with a non-finite entry."""
    sigma = symmetrize(sigma)
    finite = np.logical_and.reduce(np.isfinite(sigma), axis=(-2, -1))[..., None]
    w, v = np.linalg.eigh(np.where(finite[..., None], sigma, 0.0))
    w, g = np.maximum(w, 0.0), gamma[..., None]
    w = np.where(finite, 0.5 * (w + 2.0 * g + np.sqrt(w * (w + 4.0 * g))), np.nan)
    return symmetrize((v * w[..., None, :]) @ _t(v))


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky`` of a matrix or stack, NaN for a matrix without a factor."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        if sigma.ndim == 2:
            return np.full(sigma.shape, np.nan)
    return np.stack([_cholesky(row) for row in sigma])


def _step(algorithm, kind, target, q, eps, evaluation, gamma) -> tuple[np.ndarray, np.ndarray]:
    """One step of ``algorithm`` from a state or from each chain of a stack,
    with the ``target.evaluate`` result at the draws ``C eps + m``
    (``None``: evaluated here) and one positive or NaN step size per chain:
    the new means and scales.  A chain whose step fails (a NaN step size or
    Hessian, no Cholesky factor) gets a state that fails ``_state_checks``."""
    gamma = np.asarray(gamma, dtype=float)
    if algorithm is Algorithm.SPGD:
        location_grad, scale_grad = _param_gradient(kind, target, q, eps, evaluation)
        scale = _prox(q.scale - gamma[..., None, None] * scale_grad, gamma)
    else:
        location_grad, covariance_grad = _bw_gradient(kind, target, q, eps, evaluation)
        m_factor = _identity(q.dim) - 2.0 * gamma[..., None, None] * covariance_grad
        half_factor = m_factor @ q.scale
        scale = _cholesky(_jko(half_factor @ _t(half_factor), gamma))
    return q.mean - gamma[..., None] * location_grad, scale


def _single_step(algorithm, q, target, eps, gamma, estimator) -> GaussianVariational:
    """The step, or ``InvalidParameters`` for ``gamma <= 0`` and
    ``NotPositiveDefinite`` for an invalid new state."""
    mean, scale = _step(algorithm, EstimatorKind(estimator), target, q, eps, None, _positive(gamma))
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
    not raising, at a non-finite or runaway free energy, a non-positive
    step size or a new state that fails the state checks (a failed step's
    state is NaN), keeping its last valid state.

    The loop runs the dynamics only; the records, the stops and the final
    states are settled for a block of iterates at a time (``_Ledger``),
    bitwise as iteration by iteration.  A chain that stops inside a block
    steps on, on its own row, to the block's end, and those steps are
    discarded.

    The noise of a stochastic run comes from one ``_LockStepNoise``, which
    hashes the live chains' lineages for a block of iterations at once and
    gives each chain ``draw_noise(d, M, seed, stream, t)`` bit for bit.  A
    seed of 2**128 or more, or a stream or ``t`` of 2**32 or more, takes
    ``draw_noise``'s one ``SeedSequence`` per draw instead.
    """
    if q0.dim != target.dim:
        raise DimensionMismatch(f"state dimension {q0.dim} != target dimension {target.dim}")
    exact = config.estimator is EstimatorKind.EXACT
    if exact and not isinstance(target, QuadraticPotential):
        raise InvalidParameters("exact-gradient runs require a quadratic target")
    ledger = _Ledger(config, target, len(chains))
    pending: list[_Iterate] = []  # the iterates awaiting settlement
    live = list(range(len(chains)))  # the chain of each row of the stack
    q = _Chains(*(np.repeat(a[None], len(live), axis=0) for a in (q0.mean, q0.scale)))
    price = config.estimator is EstimatorKind.BONNET_PRICE
    eps = evaluation = values = None
    if not exact:
        noise = _LockStepNoise([(seed, stream) for _, seed, stream in chains], config.minibatch, q0.dim)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(config.max_iters + 1):
            gammas = [chains[c][0].step_at(t) for c in live]
            if not exact:
                # Row by row, the draws of draw_noise(d, M, seed, stream, t).
                eps = noise.draw(live, t)
                evaluation = target.evaluate(sample(q, eps), price)
                values = evaluation[0]
            # No state is written in place, so an iterate can wait for its records.
            pending.append(_Iterate(t, gammas, q, values))
            if t == config.max_iters:
                ledger.settle(live, pending, None)
                break
            # A non-positive step size is taken as NaN, which no state passes.
            steps = [g if g > 0.0 else math.nan for g in gammas]
            mean, scale = _step(config.algorithm, config.estimator, target, q, eps, evaluation, steps)
            q = _Chains(mean, scale)
            if len(pending) * len(live) * q0.dim**2 >= _W2_BLOCK:
                stopped = ledger.settle(live, pending, q)
                pending = []
                if stopped:
                    keep = [row not in stopped for row in range(len(live))]
                    live = [c for c, k in zip(live, keep) if k]
                    if not live:
                        break
                    q = _Chains(q.mean[keep], q.scale[keep])
    return [
        RunTrace(
            np.rec.fromrecords(rows, dtype=_TRACE_ROW), GaussianVariational(*final), seed, stream
        )
        for rows, final, (_, seed, stream) in zip(ledger.rows, ledger.finals, chains)
    ]


#: Covariance entries (``sum B d^2`` over the iterates) that make one block
#: of iterates to settle: at d = 5 one chain takes 41 iterates per block, at
#: d >= 32 each iterate is its own block.
_W2_BLOCK = 1024


class _Iterate(NamedTuple):
    """An iterate of the live chains: the step sizes their schedules give
    at ``t``, their states and the potential's values at their draws
    (``None`` for exact gradients)."""

    t: int
    gammas: list
    q: _Chains
    values: np.ndarray | None


def _rows(arrays: list) -> np.ndarray:
    """The stacks ``arrays`` as one stack, in order; a single one as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Ledger:
    """The record rows and final states of ``run_batch``'s chains, settled
    for a block of iterates at a time: the free energies, the state checks
    and the W2 records take one stacked call each per block, and each row
    gets the bits of one call per iterate."""

    def __init__(self, config: OptimizerConfig, target: Potential, n_chains: int):
        self.rows: list[list[tuple]] = [[] for _ in range(n_chains)]
        self.finals: list = [None] * n_chains
        self.threshold = config.divergence_threshold
        self.exact = config.estimator is EstimatorKind.EXACT
        self.target = target
        self.q_star = quadratic_optimum(target) if isinstance(target, QuadraticPotential) else None
        # One eigendecomposition per W2 record.  The coupling cost is taken
        # from the optimum's side, which keeps full accuracy for converged
        # iterates.
        self.star_roots = None if self.q_star is None else _sqrt_and_inv_sqrt(self.q_star.sigma)

    def settle(self, live: list[int], pending: list[_Iterate], new: _Chains | None) -> list[int]:
        """Write the rows of the ``pending`` iterates of the chains
        ``live``, one row of each stack per chain, where ``new`` is the
        state after the last (``None`` at the run's end), and return the
        rows of the chains that stopped.

        A chain stops at its first iterate whose free energy is non-finite
        or above the threshold, or whose new state fails the state checks.
        That row is marked diverged, its iterate is the chain's final state
        and the chain's later iterates in the block are dropped.  At the
        run's end each chain's last iterate is its final state."""
        # Row ``i * b + j`` of a block stack is chain ``live[j]`` at its i-th iterate.
        k, b = len(pending), len(live)
        q = _Chains(_rows([p.q.mean for p in pending]), _rows([p.q.scale for p in pending]))
        if self.exact:
            energy = free_energy_exact_quadratic(q, self.target)
            error = np.zeros(energy.shape)
        else:
            energy, error = _energy_estimate(q, _rows([p.values for p in pending]))
        energy, error = energy.tolist(), error.tolist()
        failed = [not (math.isfinite(e) and e <= self.threshold) for e in energy]
        after = [p.q for p in pending[1:]] + ([] if new is None else [new])
        if after:
            mean, scale = _rows([a.mean for a in after]), _rows([a.scale for a in after])
            finite, lower, positive = _state_checks(mean, scale)
            valid = (finite & lower & positive).tolist()
            failed[: len(valid)] = [f or not v for f, v in zip(failed, valid)]
        stopped, ends = [], [k - 1] * b  # the last iterate each chain keeps
        kept = range(k * b)  # the rows written
        if True in failed:
            for j in range(b):
                column = failed[j::b]
                if True in column:
                    stopped.append(j)
                    ends[j] = column.index(True)
            kept = [row for row in kept if row // b <= ends[row % b]]
        w2 = [math.nan] * (k * b)
        if self.q_star is not None:
            if not stopped:
                w2 = _w2_records(self.q_star, self.star_roots, q)
            else:
                block = _Chains(q.mean[kept], q.scale[kept])
                for row, value in zip(kept, _w2_records(self.q_star, self.star_roots, block)):
                    w2[row] = value
        rows = zip(
            [self.rows[c].append for c in live] * k, [p.t for p in pending for _ in live],
            [g for p in pending for g in p.gammas], energy, error, w2,
        )
        if stopped:
            every = list(rows)
            rows = [every[row] for row in kept]
        for append, t, gamma, value, se, w2_sq in rows:
            append((t, gamma, value, se, w2_sq, False))
        for j in stopped:
            chain = self.rows[live[j]]
            chain[-1] = (*chain[-1][:-1], True)
        for j in range(b) if new is None else stopped:
            row = ends[j] * b + j
            self.finals[live[j]] = (q.mean[row], q.scale[row])
        return stopped


def _w2_records(q_star, star_roots, q: _Chains) -> list:
    """Squared W2 distance of each state of the stack to the optimum
    (``inf`` for a state whose record fails)."""
    try:
        return _coupling_cost(q_star, star_roots, q).tolist()
    except NotPositiveDefinite:  # a covariance that overflows
        pass
    values = []
    for mean, scale in zip(q.mean, q.scale):
        try:
            values.append(_coupling_cost(q_star, star_roots, _Chains(mean[None], scale[None])).item())
        except NotPositiveDefinite:
            values.append(math.inf)
    return values
