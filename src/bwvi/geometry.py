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

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = [
    "GaussianVariational",
    "cholesky_factor",
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


@functools.cache
def _identity(d: int) -> np.ndarray:
    """The ``(d, d)`` identity (read-only, shared)."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _tril(a: np.ndarray) -> np.ndarray:
    """``np.tril(a)`` of a matrix or of each matrix in a stack."""
    return np.where(_strict_upper(a.shape[-1]), 0.0, a)


def _row_blocks(n: int, rows: int) -> list[slice]:
    """``ceil(n / rows)`` slices of near-equal length covering ``range(n)``.

    With ``rows >= 4`` no slice of a split has one row, which ``matmul``
    would take as a matrix-vector product and round differently from the
    same row inside a larger product.
    """
    k = -(-n // rows)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _check_square(a: np.ndarray):
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def _state_checks(mean: np.ndarray, scale: np.ndarray):
    """Per chain: finite entries, zero upper triangle, positive diagonal."""
    # ``.all``/``.any`` are these reductions behind a Python-level wrapper
    finite = np.logical_and.reduce(np.isfinite(mean), axis=-1)
    finite &= np.logical_and.reduce(np.isfinite(scale), axis=(-2, -1))
    # ``np.where``, not a boolean index, which is slow on a stack
    upper = np.where(_strict_upper(scale.shape[-1]), scale, 0.0)
    lower = ~np.logical_or.reduce(upper, axis=(-2, -1))
    positive = np.logical_and.reduce(scale.diagonal(axis1=-2, axis2=-1) > 0.0, axis=-1)
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


def _sqrt_symmetric(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of an exactly symmetric matrix or stack, such
    as the output of ``symmetrize``, with eigenvalues clipped at 0, so that
    round-off below 0 in a matrix PSD by construction still gives a root.
    ``NotPositiveDefinite`` for a non-finite entry, on which ``eigh`` can
    return garbage rather than fail."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NotPositiveDefinite("matrix entries must be finite")
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ _t(v)
    return symmetrize(root)


_Roots = tuple[np.ndarray, np.ndarray]


def _sqrt_and_inv_sqrt(sigma: np.ndarray) -> _Roots:
    """Symmetric square root of an SPD matrix (or of each in a stack) and its inverse."""
    w, v = np.linalg.eigh(symmetrize(sigma))
    if (w[..., 0] <= 0.0).any():
        raise NotPositiveDefinite(f"eigenvalue {w[..., 0].min():.3e} is not positive")
    sw = np.sqrt(w)[..., None, :]
    return (v * sw) @ _t(v), (v / sw) @ _t(v)


def _transport_linear(p_roots: _Roots, q: GaussianVariational) -> np.ndarray:
    """Symmetric PD linear part of the optimal transport map from p to q (either
    or both a stack), given ``p_roots = _sqrt_and_inv_sqrt(p.sigma)``."""
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
    return (_identity(p.dim) - s) @ p.scale, q.mean - p.mean


def _coupling_cost(p: GaussianVariational, p_roots: _Roots, q: GaussianVariational):
    """Cost ``||m_q - m_p||^2 + ||(I - S) C_p||_F^2`` of the optimal coupling."""
    residual, dm = _displacement(p, p_roots, q)
    dm_sq = (dm[..., None, :] @ dm[..., :, None])[..., 0, 0]  # ``dm @ dm`` per chain
    return dm_sq + np.add.reduce(residual * residual, axis=(-2, -1))


def _w2_sq(p: GaussianVariational, q: GaussianVariational):
    """Squared W2 distance from p to q, or one per chain if either is a stack."""
    return _coupling_cost(p, _sqrt_and_inv_sqrt(p.sigma), q)


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
    return float(_w2_sq(p, q))


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
    return -0.5 * q.dim * (LOG_2PI + 1.0) - np.add.reduce(log_diag, axis=-1)


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
