"""Gaussian and Bures-Wasserstein primitives.

Gaussians are stored through their mean and a lower-triangular scale factor
``C`` with positive diagonal, so the covariance ``sigma = C @ C.T`` is
positive definite by construction.  Covariance matrices travel as plain
``(d, d)`` numpy arrays; every operation that produces one symmetrizes its
output as ``(A + A.T) / 2`` to keep floating-point drift from accumulating
over long optimization runs.

All types are immutable values and all functions are pure, so everything
here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteMatrix,
    NotPositiveDefinite,
    NotSymmetric,
)

__all__ = [
    "GaussianVariational",
    "AffineMap",
    "cholesky_factor",
    "matrix_sqrt_psd",
    "w2_distance_sq",
    "optimal_transport_map",
    "entropy",
    "sample",
    "symmetrize",
]

LOG_2PI = math.log(2.0 * math.pi)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(a + a.T) / 2``."""
    return 0.5 * (a + a.T)


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
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(scale)):
            raise NotPositiveDefinite("mean/scale entries must be finite")
        if np.any(np.triu(scale, k=1) != 0.0):
            raise NotPositiveDefinite("scale must be lower-triangular")
        if np.any(np.diag(scale) <= 0.0):
            raise NotPositiveDefinite("scale diagonal must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        """Covariance ``scale @ scale.T``, symmetrized."""
        return symmetrize(self.scale @ self.scale.T)

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


@dataclass(frozen=True)
class AffineMap:
    """Affine map ``x -> linear @ x + shift``.

    Optimal transport maps between nondegenerate Gaussians have a symmetric
    positive definite ``linear`` part; tangent-space elements and stochastic
    gradient fields only need ``linear`` symmetric.
    """

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        linear = _frozen_array(self.linear)
        shift = _frozen_array(self.shift)
        if shift.ndim != 1 or linear.shape != (shift.shape[0], shift.shape[0]):
            raise DimensionMismatch(
                f"incompatible map shapes {linear.shape} and {shift.shape}"
            )
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "shift", shift)

    @property
    def dim(self) -> int:
        return self.shift.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to a point ``(d,)`` or a batch ``(..., d)``."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(f"point dimension {x.shape[-1]} != map dimension {self.dim}")
        return x @ self.linear.T + self.shift


def cholesky_factor(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular ``C`` with ``C @ C.T = sigma`` and positive diagonal.

    Raises:
        NotPositiveDefinite: if a pivot is non-positive, which signals a
            numerically degenerate covariance.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {sigma.shape}")
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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    if not math.isfinite(scale):
        raise NotPositiveDefinite(f"matrix entries must be finite, max |a| = {scale}")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > 1e-8 * max(scale, 1e-300):
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance for scale {scale:.3e}")
    w, v = np.linalg.eigh(symmetrize(a))
    if w[0] < -1e-10 * max(scale, 1e-300):
        raise IndefiniteMatrix(f"eigenvalue {w[0]:.3e} below PSD tolerance")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
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
    """Symmetric PD linear part of the optimal transport map from p to q,
    given ``p_roots = _sqrt_and_inv_sqrt(p.sigma)``."""
    root, inv_root = p_roots
    inner = matrix_sqrt_psd(symmetrize(root @ q.sigma @ root))
    return symmetrize(inv_root @ inner @ inv_root)


def _displacement(
    p: GaussianVariational, p_roots: _Roots, q: GaussianVariational
) -> tuple[np.ndarray, np.ndarray]:
    """Residual ``(I - S) C_p`` and mean shift ``m_q - m_p`` of the optimal
    coupling from p to q; the coupling's second moments are quadratic forms
    in them."""
    s = _transport_linear(p_roots, q)
    return (np.eye(p.dim) - s) @ p.scale, q.mean - p.mean


def _coupling_cost(p: GaussianVariational, p_roots: _Roots, q: GaussianVariational) -> float:
    """Cost ``||m_q - m_p||^2 + ||(I - S) C_p||_F^2`` of the optimal coupling."""
    residual, dm = _displacement(p, p_roots, q)
    return float(dm @ dm + np.sum(residual * residual))


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
    return _coupling_cost(p, _sqrt_and_inv_sqrt(p.sigma), q)


def optimal_transport_map(p: GaussianVariational, q: GaussianVariational) -> AffineMap:
    """Optimal transport map pushing p forward to q.

    Returns the affine map ``x -> S (x - m_p) + m_q`` (stored in the
    ``linear @ x + shift`` form) with ``S`` symmetric positive definite.
    """
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    s = _transport_linear(_sqrt_and_inv_sqrt(p.sigma), q)
    return AffineMap(linear=s, shift=q.mean - s @ p.mean)


def entropy(q: GaussianVariational) -> float:
    """Negative differential entropy ``E_q[log q]``.

    Exact: ``-(d/2) log(2 pi e) - sum_i log C_ii``.
    """
    d = q.dim
    return float(-0.5 * d * (LOG_2PI + 1.0) - np.sum(np.log(np.diag(q.scale))))


def sample(q: GaussianVariational, noise: np.ndarray) -> np.ndarray:
    """Push standard-normal noise through the location-scale map ``C e + m``.

    Accepts a single draw ``(d,)`` or a batch ``(..., d)``; deterministic
    given the noise.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.shape[-1] != q.dim:
        raise DimensionMismatch(
            f"noise dimension {noise.shape[-1]} != state dimension {q.dim}"
        )
    return q.mean + noise @ q.scale.T
