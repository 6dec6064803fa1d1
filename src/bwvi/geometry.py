"""Gaussian and Bures-Wasserstein primitives.

Gaussians are stored through their mean and a lower-triangular scale factor
``C`` with positive diagonal, so the covariance ``sigma = C @ C.T`` is
positive definite by construction.  Covariance matrices travel as plain
``(d, d)`` numpy arrays; every operation that produces one symmetrizes its
output as ``(A + A.T) / 2`` to keep floating-point drift from accumulating
over long optimization runs.

The functions also take a stack of states (``_Chains``) or of matrices
``(B, d, d)`` and act chain by chain, with a single state's arithmetic per
chain; a matrix function raises if any matrix fails, as ``numpy.linalg`` does.

All types are immutable values and all functions are pure, so everything
here is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NotPositiveDefinite,
    NotSymmetric,
)

__all__ = [
    "GaussianVariational",
    "cholesky_factor",
    "matrix_sqrt_psd",
    "w2_distance_sq",
    "optimal_transport_map",
    "entropy",
    "sample",
    "symmetrize",
]

LOG_2PI = math.log(2.0 * math.pi)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix or of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(a + a.T) / 2``."""
    return 0.5 * (a + _t(a))


@functools.cache
def _strict_upper(d: int) -> np.ndarray:
    """Mask of the strictly upper triangle of a ``(d, d)`` matrix (shared)."""
    return np.triu(np.ones((d, d), dtype=bool), k=1)


def _tril(a: np.ndarray) -> np.ndarray:
    """``np.tril(a)`` of a matrix or of each matrix in a stack."""
    return np.where(_strict_upper(a.shape[-1]), 0.0, a)


def _check_square(a: np.ndarray):
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def _state_checks(mean: np.ndarray, scale: np.ndarray):
    """Per chain: finite entries, zero upper triangle, positive diagonal."""
    finite = np.isfinite(mean).all(axis=-1) & np.isfinite(scale).all(axis=(-2, -1))
    lower = ~scale[..., _strict_upper(scale.shape[-1])].any(axis=-1)
    positive = (scale.diagonal(axis1=-2, axis2=-1) > 0.0).all(axis=-1)
    return finite, lower, positive


def _frozen_array(value, dtype=float) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianVariational:
    """Gaussian iterate ``N(mean, scale @ scale.T)``.

    Attributes:
        mean: Location vector, shape ``(d,)``.
        scale: Lower-triangular factor with strictly positive diagonal,
            shape ``(d, d)``.
    """

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        mean = _frozen_array(self.mean)
        scale = _frozen_array(self.scale)
        if mean.ndim != 1 or mean.size == 0:
            raise DimensionMismatch(f"mean must be a nonempty vector, got shape {mean.shape}")
        d = mean.shape[0]
        if scale.shape != (d, d):
            raise DimensionMismatch(
                f"scale must have shape ({d}, {d}), got {scale.shape}"
            )
        finite, lower, positive = _state_checks(mean, scale)
        if not finite:
            raise NotPositiveDefinite("mean/scale entries must be finite")
        if not lower:
            raise NotPositiveDefinite("scale must be lower-triangular")
        if not positive:
            raise NotPositiveDefinite("scale diagonal must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def sigma(self) -> np.ndarray:
        """Covariance ``scale @ scale.T``, symmetrized."""
        return symmetrize(self.scale @ _t(self.scale))

    @classmethod
    def from_covariance(cls, mean, sigma) -> "GaussianVariational":
        """Build from a covariance matrix by Cholesky factorization."""
        return cls(np.asarray(mean, dtype=float), cholesky_factor(sigma))

    @classmethod
    def isotropic(cls, dim: int, mean=0.0, variance: float = 1.0) -> "GaussianVariational":
        """``N(mean, variance * I)`` with a scalar or vector mean."""
        if variance <= 0:
            raise NotPositiveDefinite(f"variance must be positive, got {variance}")
        m = np.broadcast_to(np.asarray(mean, dtype=float), (dim,)).copy()
        return cls(m, math.sqrt(variance) * np.eye(dim))


class _Chains(NamedTuple):
    """Unvalidated stack of states: means ``(B, d)``, scales ``(B, d, d)``."""

    mean: np.ndarray
    scale: np.ndarray

    dim = GaussianVariational.dim
    sigma = GaussianVariational.sigma


def cholesky_factor(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular ``C`` with ``C @ C.T = sigma`` and positive diagonal.

    Raises:
        NotPositiveDefinite: if a pivot is non-positive, which signals a
            numerically degenerate covariance.
    """
    sigma = np.asarray(sigma, dtype=float)
    _check_square(sigma)
    try:
        return np.linalg.cholesky(symmetrize(sigma))
    except np.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root of a symmetric PSD matrix.

    Computed via symmetric eigendecomposition with eigenvalues clamped at
    zero, which stays robust for the nearly singular covariances produced
    by aggressive step sizes.

    Raises:
        NotPositiveDefinite: if an entry of ``a`` is not finite.
        NotSymmetric: if the asymmetry of ``a`` exceeds ``1e-8 * max|a|``.
        IndefiniteMatrix: if an eigenvalue is below ``-1e-10 * ||a||``.
    """
    a = np.asarray(a, dtype=float)
    _check_square(a)
    scale = _finite_scale(a)
    asym = np.abs(a - _t(a)).max(axis=(-2, -1), initial=0.0)
    if (asym > 1e-8 * np.maximum(scale, 1e-300)).any():
        raise NotSymmetric(f"asymmetry {asym.max():.3e} exceeds tolerance for scale {scale.max():.3e}")
    return _sqrt_symmetric(symmetrize(a))


def _finite_scale(a: np.ndarray) -> np.ndarray:
    """``max |a|`` of each matrix; raises ``NotPositiveDefinite`` if one is not finite."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(scale).all():
        raise NotPositiveDefinite(f"matrix entries must be finite, max |a| = {scale.max()}")
    return scale


def _sqrt_symmetric(a: np.ndarray) -> np.ndarray:
    """``matrix_sqrt_psd`` of an exactly symmetric matrix or stack, such as
    the output of ``symmetrize``: the same checks but the asymmetry scan."""
    floor = np.maximum(_finite_scale(a), 1e-300)
    w, v = np.linalg.eigh(a)
    if (w[..., 0] < -1e-10 * floor).any():
        raise IndefiniteMatrix(f"eigenvalue {w[..., 0].min():.3e} below PSD tolerance")
    root = (v * np.sqrt(w.clip(0.0, None))[..., None, :]) @ _t(v)
    return symmetrize(root)


_Roots = tuple[np.ndarray, np.ndarray]


def _sqrt_and_inv_sqrt(sigma: np.ndarray) -> _Roots:
    """Symmetric square root of an SPD matrix and its inverse."""
    w, v = np.linalg.eigh(symmetrize(sigma))
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"eigenvalue {w[0]:.3e} is not positive")
    sw = np.sqrt(w)
    return (v * sw) @ v.T, (v / sw) @ v.T


def _transport_linear(p_roots: _Roots, q: GaussianVariational) -> np.ndarray:
    """Symmetric PD linear part of the optimal transport map from p to q (or
    each chain of q), given ``p_roots = _sqrt_and_inv_sqrt(p.sigma)``."""
    root, inv_root = p_roots
    inner = _sqrt_symmetric(symmetrize(root @ q.sigma @ root))
    return symmetrize(inv_root @ inner @ inv_root)


def _displacement(
    p: GaussianVariational, p_roots: _Roots, q: GaussianVariational
) -> tuple[np.ndarray, np.ndarray]:
    """Residual ``(I - S) C_p`` and mean shift ``m_q - m_p`` of the optimal
    coupling from p to q; the coupling's second moments are quadratic forms
    in them."""
    s = _transport_linear(p_roots, q)
    return (np.eye(p.dim) - s) @ p.scale, q.mean - p.mean


def _coupling_cost(p: GaussianVariational, p_roots: _Roots, q: GaussianVariational):
    """Cost ``||m_q - m_p||^2 + ||(I - S) C_p||_F^2`` of the optimal coupling."""
    residual, dm = _displacement(p, p_roots, q)
    dm_sq = (dm[..., None, :] @ dm[..., :, None])[..., 0, 0]  # ``dm @ dm`` per chain
    return dm_sq + (residual * residual).sum(axis=(-2, -1))


def w2_distance_sq(p: GaussianVariational, q: GaussianVariational) -> float:
    """Squared Wasserstein-2 distance between two Gaussians.

    Evaluated as the cost of the optimal coupling,
    ``||m_q - m_p||^2 + ||(I - S) C_p||_F^2`` with ``S`` the transport map's
    linear part.  The coupling cost is stationary in ``S`` at the optimum,
    so eigendecomposition roundoff enters only at second order; this keeps
    the value meaningful down to ~1e-28 for nearly coincident pairs, where
    the textbook trace formula loses everything to cancellation.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    return float(_coupling_cost(p, _sqrt_and_inv_sqrt(p.sigma), q))


def optimal_transport_map(
    p: GaussianVariational, q: GaussianVariational
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal transport map pushing p forward to q.

    Returns ``(S, shift)``: the map is ``x -> S (x - m_p) + m_q = S x + shift``
    (``x @ S.T + shift`` for points in rows), with ``S`` symmetric positive
    definite.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    s = _transport_linear(_sqrt_and_inv_sqrt(p.sigma), q)
    return s, q.mean - s @ p.mean


def entropy(q: GaussianVariational) -> float:
    """Negative differential entropy ``E_q[log q]``.

    Exact: ``-(d/2) log(2 pi e) - sum_i log C_ii``.
    """
    log_diag = np.log(q.scale.diagonal(axis1=-2, axis2=-1))
    return -0.5 * q.dim * (LOG_2PI + 1.0) - log_diag.sum(axis=-1)


def sample(q: GaussianVariational, noise: np.ndarray) -> np.ndarray:
    """Push standard-normal noise through the location-scale map ``C e + m``.

    Accepts a single draw ``(d,)`` or a batch ``(..., d)`` (``(B, ..., d)``
    for a stack of states); deterministic given the noise.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.shape[-1] != q.dim:
        raise DimensionMismatch(
            f"noise dimension {noise.shape[-1]} != state dimension {q.dim}"
        )
    chains = q.mean.shape[:-1]
    mean = q.mean.reshape(chains + (1,) * (noise.ndim - q.mean.ndim) + (q.dim,))
    return mean + noise @ _t(q.scale)
