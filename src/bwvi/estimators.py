"""Stochastic estimators of the energy gradient ``E(q) = E_q[U]``.

Four estimators, two per geometry:

====================  =========================  ==========================
quantity estimated    Hessian-based (Price)      first-order (reparam/Stein)
====================  =========================  ==========================
``grad_m E``          Bonnet: ``grad U(Z)``      same
``grad_C E`` (scale)  ``hess U(Z) @ C``          ``grad U(Z) eps'``
``grad_S E`` (cov.)   ``(1/2) hess U(Z)``        ``(1/2) C^{-T} eps grad U(Z)'``
====================  =========================  ==========================

with ``Z = C eps + m`` and ``eps`` standard normal.  Scale gradients follow
the chain rule on ``lambda -> E(q_lambda)`` (validated against central
finite differences of the closed-form quadratic energy), and are projected
to the lower-triangular subspace after mini-batch averaging since the
projection commutes with the expectation.

The Stein-identity covariance estimator carries the same factor 1/2 as
Price's so that both target ``grad_S E = (1/2) E_q[hess U]``; unlike the
Price form it is not almost surely symmetric and is deliberately left
unsymmetrized.

``param_gradient`` and ``bw_gradient`` are the entry points, one per
geometry.  Both read the noise ``eps`` as the read-only ``(M, d)`` array
from ``draw_noise`` (``None`` for exact gradients; ``(B, M, d)`` for a stack
of states), make one ``target.evaluate`` call at ``Z = C eps + m``, and
Price and exact gradients share one assembly from the mean Hessian.  The
optimizers pass the private forms the evaluation they have already made.

Noise is drawn per lineage ``(seed, stream, iteration)``: PCG64 seeded by
the hash ``SeedSequence(seed, spawn_key=(stream, iteration))``, so a batch
is reproduced exactly from its lineage, which is what makes paired
comparisons across estimators and bit-identical reruns possible.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionMismatch, InvalidParameters
from .geometry import GaussianVariational, _t, _tril, sample, symmetrize
from .targets import Potential, QuadraticPotential

__all__ = [
    "EstimatorKind",
    "draw_noise",
    "stein_weights",
    "param_gradient",
    "bw_gradient",
]


class EstimatorKind(str, enum.Enum):
    """Estimator pairings for the two update rules."""

    BONNET_PRICE = "bonnet_price"
    BONNET_REPARAM = "bonnet_reparam"
    EXACT = "exact"


def draw_noise(dim: int, n_samples: int, seed: int, stream: int = 0, iteration: int = 0) -> np.ndarray:
    """Draw ``n_samples`` standard-normal vectors from the lineage's PCG64
    generator, seeded by ``SeedSequence(seed, spawn_key=(stream, iteration))``.

    Returns a read-only ``(n_samples, dim)`` array.  Identical
    ``(seed, stream, iteration)`` lineage yields bit-identical draws;
    distinct lineages are statistically independent.
    """
    if n_samples < 1:
        raise InvalidParameters(f"n_samples must be >= 1, got {n_samples}")
    draws = _noise_generator(seed, stream, iteration).standard_normal((n_samples, dim))
    draws.setflags(write=False)
    return draws


def _noise_generator(seed: int, stream: int, iteration: int) -> np.random.Generator:
    """``default_rng`` of lineage ``(seed, stream, iteration)``, minus its dispatch."""
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(stream, iteration))
    return np.random.Generator(np.random.PCG64(seeds))


def stein_weights(q: GaussianVariational, eps: np.ndarray) -> np.ndarray:
    """Stein weights ``Sigma^{-1} (Z_k - m) = C^{-T} eps_k``, one row per draw
    (all draws of a single state, with noise of any shape ``(..., d)``, in
    one solve; a stack of states in one stacked solve); ``LinAlgError`` for
    a zero diagonal entry.

    LU with partial pivoting never pivots on the upper-triangular ``C'`` and
    its multipliers are exactly 0, so ``np.linalg.solve`` gives bitwise the
    rows of a triangular solve (LAPACK ``trtrs``).
    """
    noise = eps.reshape(-1, q.dim) if q.scale.ndim == 2 else eps
    # C-ordered rows, the layout of trtrs' result: the product in
    # ``_stein_covariance`` rounds differently on other layouts
    return np.ascontiguousarray(_t(np.linalg.solve(_t(q.scale), _t(noise)))).reshape(eps.shape)


def _oracle(
    kind: EstimatorKind, target: Potential, q: GaussianVariational, eps: np.ndarray | None,
    evaluation=None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """``(location_grad, mean_hess, grads)`` from ``evaluation``, the
    ``target.evaluate`` result at the draws ``C eps + m`` (made here unless
    given), with the mean Hessian for Price only.

    Reparam returns the per-draw gradients in place of a mean Hessian;
    exact returns ``E_q[hess U]`` and no per-draw gradients.
    """
    if kind is EstimatorKind.EXACT:
        if not isinstance(target, QuadraticPotential):
            raise InvalidParameters("exact gradients are only available for quadratic targets")
        loc, mean_hess = target.exact_gradients(q)
        return loc, mean_hess, None
    price = kind is EstimatorKind.BONNET_PRICE
    if evaluation is None:
        if eps is None:
            raise InvalidParameters("stochastic estimators require a noise array")
        if q.dim != target.dim:
            raise DimensionMismatch(f"state dimension {q.dim} != target dimension {target.dim}")
        if eps.ndim != q.scale.ndim or eps.shape[-2] < 1:
            raise DimensionMismatch(f"noise must have shape (M, d) with M >= 1, got {eps.shape}")
        evaluation = target.evaluate(sample(q, eps), price)
    _, g, mean_hess = evaluation
    return g.mean(axis=-2), mean_hess, None if price else g


def param_gradient(
    kind: EstimatorKind | str,
    target: Potential,
    q: GaussianVariational,
    eps: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(location_grad, scale_grad)`` for the parameter-space update.

    The scale gradient is ``tril(H @ C)`` from the mean Hessian ``H``
    (Price, exact) or ``tril(mean_k grad U(Z_k) eps_k')`` (reparam); one
    per chain for a stack of states.
    """
    return _param_gradient(EstimatorKind(kind), target, q, eps)


def bw_gradient(
    kind: EstimatorKind | str,
    target: Potential,
    q: GaussianVariational,
    eps: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(location_grad, covariance_grad)`` for the Bures-Wasserstein update.

    The covariance gradient is ``H / 2`` from the mean Hessian ``H``
    (Price, exact; symmetrized against roundoff) or the unsymmetrized
    Stein form ``(1/2) mean_k (C^{-T} eps_k) grad U(Z_k)'`` (reparam); one
    per chain for a stack of states.
    """
    return _bw_gradient(EstimatorKind(kind), target, q, eps)


def _param_gradient(kind, target, q, eps, evaluation=None):
    loc, mean_hess, g = _oracle(kind, target, q, eps, evaluation)
    if g is None:
        return loc, _tril(mean_hess @ q.scale)
    return loc, _tril(_t(g) @ eps / eps.shape[-2])


def _bw_gradient(kind, target, q, eps, evaluation=None):
    loc, mean_hess, g = _oracle(kind, target, q, eps, evaluation)
    if g is None:
        return loc, symmetrize(0.5 * mean_hess)
    return loc, _stein_covariance(stein_weights(q, eps), g)


def _stein_covariance(w, g):
    """``(1/2) mean_k w_k g_k'`` from Stein weights ``w`` and gradients ``g``
    of shape ``(..., M, d)``: the first-order covariance gradient."""
    return 0.5 * (_t(w) @ g) / w.shape[-2]
