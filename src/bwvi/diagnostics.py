"""Free-energy estimation and closed-form oracles for quadratic targets.

The free energy is ``F(q) = E_q[U] + E_q[log q]``.  Only the energy term
is ever estimated by Monte Carlo; the entropy is always evaluated in
closed form, which removes avoidable variance from every diagnostic.

For quadratic targets everything else is exact as well: the minimizer,
the energy's Bregman divergence between measures, and the reference
gradients of the estimator-variance probes.  The probes measure the
optimizers' own estimators (``estimators``), one single-draw estimate per
Monte Carlo draw, against the exact estimator at the optimum; in the
Bures-Wasserstein geometry they realize the optimal coupling through the
exact transport map, the coupling under which the variance bounds are
stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidParameters
from .estimators import EstimatorKind, _bw_gradient, _param_gradient
from .geometry import (
    GaussianVariational,
    _displacement,
    _row_blocks,
    _sqrt_and_inv_sqrt,
    _t,
    entropy,
    optimal_transport_map,
    sample,
)
from .targets import Potential, PotentialMetadata, QuadraticPotential

__all__ = [
    "FreeEnergyEstimate",
    "TheoryConstants",
    "free_energy_mc",
    "free_energy_exact_quadratic",
    "bregman_energy_quadratic",
    "estimator_second_moment",
    "theory_constants",
]


class FreeEnergyEstimate(NamedTuple):
    """Monte Carlo free-energy estimate.

    ``std_error`` covers the energy term only (the entropy is exact).
    """

    value: float
    std_error: float
    n_samples: int


@dataclass(frozen=True)
class TheoryConstants:
    """Noise-model constants of the Bonnet-Price estimators.

    ``expected_smoothness`` bounds the multiplicative noise and plays the
    role of a Lipschitz constant for step-size limits; ``additive_noise``
    is the variance floor at the optimum.
    """

    expected_smoothness: float
    additive_noise: float


def theory_constants(metadata: PotentialMetadata) -> TheoryConstants:
    """``L_eps = (5/2) L kappa`` and ``sigma^2 = 5 d L``."""
    big_l = metadata.smoothness
    return TheoryConstants(
        expected_smoothness=2.5 * big_l * metadata.condition_number,
        additive_noise=5.0 * metadata.dim * big_l,
    )


def _energy_estimate(q: GaussianVariational, u: np.ndarray):
    """``mean_k u_k`` plus the exact entropy, and the standard error of the
    energy term (0 for a single draw), for the values ``u = U(z)`` at draws
    ``z = C eps + m`` of ``q``; one pair of values per chain for a stack of
    states.  The reductions are those of ``u.mean`` and ``u.std(ddof=1)``,
    bit for bit, without their dispatch."""
    n = u.shape[-1]
    mean = np.add.reduce(u, axis=-1, keepdims=True) / n
    if n > 1:
        se = np.sqrt(np.add.reduce(np.square(u - mean), axis=-1) / (n - 1)) / math.sqrt(n)
    else:
        se = np.zeros(u.shape[:-1])
    return mean[..., 0] + entropy(q), se


def free_energy_mc(
    q: GaussianVariational, target: Potential, n_samples: int, seed
) -> FreeEnergyEstimate:
    """Estimate ``F(q)`` with ``n_samples`` fresh draws.

    Reproducible given the seed (anything ``np.random.default_rng`` takes).
    """
    if n_samples < 2:
        raise InvalidParameters(f"n_samples must be >= 2, got {n_samples}")
    if q.dim != target.dim:
        raise DimensionMismatch(f"state dimension {q.dim} != target dimension {target.dim}")
    z = sample(q, np.random.default_rng(seed).standard_normal((n_samples, q.dim)))
    value, std_error = _energy_estimate(q, np.asarray(target.value(z), dtype=float))
    return FreeEnergyEstimate(float(value), float(std_error), n_samples)


def free_energy_exact_quadratic(q: GaussianVariational, target: QuadraticPotential) -> float:
    """Exact ``F(q)`` for a quadratic target.

    ``E_q[U] = (1/2)(m - b)' A (m - b) + (1/2) tr(A Sigma)`` plus the
    closed-form entropy.  One value per chain for a stack of states.
    """
    if q.dim != target.dim:
        raise DimensionMismatch(f"state dimension {q.dim} != target dimension {target.dim}")
    row = (q.mean - target.center)[..., None, :]
    ac = target.precision @ q.scale
    quad = (row @ target.precision @ _t(row))[..., 0, 0]
    return 0.5 * quad + 0.5 * np.add.reduce(ac * q.scale, axis=(-2, -1)) + entropy(q)


def bregman_energy_quadratic(
    q: GaussianVariational, q_star: GaussianVariational, target: QuadraticPotential
) -> float:
    """Bregman divergence of the energy between ``q`` and the optimum.

    Written against the optimal coupling, for a quadratic potential this is

        ``(1/2) tr(A V)``,
        ``V = (I - S) Sigma_q (I - S) + (m - m_*)(m - m_*)'``

    with ``S`` the linear part of the transport map from ``q`` to
    ``q_star``.  It equals the coupled expectation of the pointwise
    Bregman divergence of ``U`` and is nonnegative.
    """
    if q.dim != q_star.dim or q.dim != target.dim:
        raise DimensionMismatch("q, q_star and target must share one dimension")
    residual, dm = _displacement(q, _sqrt_and_inv_sqrt(q.sigma), q_star)
    v = residual @ residual.T + np.outer(dm, dm)
    return max(0.0, 0.5 * float(np.sum(target.precision * v)))


#: Draws per row block of ``estimator_second_moment``.  Its ``(n, d)``
#: temporaries on 1e5 draws fault in fresh pages on every call; in blocks
#: of 4096 a variance-bounds check (40 probes, 2-core x86-64 host) took
#: 0.97-1.35 s with 35k minor faults against 1.18-1.57 s with 140k-209k whole.
#: Blocks of 1024 or 256 rows were slower from their per-block calls.
_PROBE_BLOCK = 4096


def _bw_field(gradient: tuple[np.ndarray, np.ndarray], centered: np.ndarray) -> np.ndarray:
    """The Bures-Wasserstein gradient field ``loc + 2 S (x - m)`` of a
    ``(location_grad, covariance_grad)`` pair at ``centered = x - m``, one
    row per point (the pair shared or one per point)."""
    loc, cov_grad = gradient
    return loc + 2.0 * np.einsum("...ij,...j->...i", cov_grad, centered, optimize=True)


def estimator_second_moment(
    estimator: EstimatorKind | str,
    geometry: str,
    q: GaussianVariational,
    q_star: GaussianVariational,
    target: QuadraticPotential,
    n: int,
    seed: int = 0,
) -> float:
    """Monte Carlo second moment of a gradient estimator's deviation.

    For ``geometry="bw"`` this is
    ``E || ghat_BW(q; eps)(X) - g_BW(q_*)(X_*) ||^2`` under the optimal
    coupling of ``(X, X_*)``, with the estimator noise ``eps`` independent
    of ``X``; for ``geometry="param"`` it is
    ``E || ghat_lambda(q; eps) - g_lambda(q_*) ||^2`` with the scale block
    in the triangular subspace.  Each of the ``n`` draws of ``eps`` is one
    single-draw estimate of the optimizers' own estimator, and the
    reference is the exact estimator at ``q_star``.  Quadratic targets only.

    The noise is drawn up front; everything per draw runs on row blocks of
    about ``_PROBE_BLOCK`` draws (one ``target.evaluate`` call per row
    block), with the whole array's per-draw values bit for bit.
    """
    kind = EstimatorKind(estimator)
    if n < 1:
        raise InvalidParameters(f"n must be >= 1, got {n}")
    if not isinstance(target, QuadraticPotential):
        raise InvalidParameters("second-moment probes require a quadratic target")
    if q.dim != q_star.dim or q.dim != target.dim:
        raise DimensionMismatch("q, q_star and target must share one dimension")
    if geometry not in ("bw", "param"):
        raise InvalidParameters(f"geometry must be 'bw' or 'param', got {geometry!r}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(97,)))
    gradient = _bw_gradient if geometry == "bw" else _param_gradient
    if geometry == "bw":
        linear, shift = optimal_transport_map(q, q_star)
        x_noise = rng.standard_normal((n, q.dim))
    if kind is not EstimatorKind.EXACT:
        noise = rng.standard_normal((n, q.dim))
    reference = gradient(EstimatorKind.EXACT, target, q_star, None)
    values = np.empty(n)
    for rows in _row_blocks(n, _PROBE_BLOCK):
        eps = evaluation = None
        if kind is not EstimatorKind.EXACT:
            eps = noise[rows]
            u, g, mean_hess = target.evaluate(sample(q, eps), kind is EstimatorKind.BONNET_PRICE)
            eps, evaluation = eps[:, None], (u[:, None], g[:, None], mean_hess)
        estimate = gradient(kind, target, q, eps, evaluation)
        if geometry == "bw":
            x = sample(q, x_noise[rows])
            x_star = x @ linear.T + shift
            diff = _bw_field(estimate, x - q.mean) - _bw_field(reference, x_star - q_star.mean)
            values[rows] = np.sum(diff * diff, axis=-1)
        else:
            loc_diff, scale_diff = estimate[0] - reference[0], estimate[1] - reference[1]
            values[rows] = np.sum(loc_diff**2, axis=-1) + np.sum(scale_diff**2, axis=(-2, -1))
    return float(values.mean())
