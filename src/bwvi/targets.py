"""Target potentials ``U = -log pi`` (up to normalization).

A potential exposes value, gradient, and Hessian of the negative
log-density, plus strong-convexity/smoothness metadata ``(mu, L)``.  All
evaluation methods accept a single point ``(d,)`` or a batch ``(k, d)``
and are pure, so targets are safe to evaluate concurrently.

Hessians are returned dense; the gradient estimators need full
``H @ C`` products and the intended problem sizes are small (d up to a
few hundred).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    LabelError,
    NotPositiveDefinite,
    ParseError,
)
from .geometry import GaussianVariational, cholesky_factor, symmetrize

__all__ = [
    "PotentialMetadata",
    "Potential",
    "QuadraticPotential",
    "LogisticRidgePotential",
    "quadratic_optimum",
    "load_logistic_dataset",
    "random_quadratic",
]


@dataclass(frozen=True)
class PotentialMetadata:
    """Curvature bounds of a potential: ``mu I <= hess U <= L I``."""

    dim: int
    strong_convexity: float
    smoothness: float

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParameters(f"dim must be >= 1, got {self.dim}")
        if not (0.0 < self.strong_convexity <= self.smoothness):
            raise InvalidParameters(
                f"need 0 < mu <= L, got mu={self.strong_convexity}, L={self.smoothness}"
            )

    @property
    def condition_number(self) -> float:
        return self.smoothness / self.strong_convexity


class Potential:
    """Base class for twice-differentiable strongly log-concave targets.

    Subclasses must set ``metadata`` and implement ``value``, ``grad``,
    and ``hessian``; the batched Hessian reductions below have generic
    fallbacks that subclasses override when a cheaper form exists.
    """

    metadata: PotentialMetadata

    @property
    def dim(self) -> int:
        return self.metadata.dim

    def value(self, x: np.ndarray):
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_mean(self, points: np.ndarray) -> np.ndarray:
        """Average Hessian over a batch of points ``(M, d)``, shape ``(d, d)``;
        over the draw axis of each chain's batch for ``(B, M, d)`` points."""
        h = self.hessian(np.atleast_2d(points))
        return symmetrize(h.mean(axis=-3))

    def hessian_apply(self, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """Row-wise products ``hess U(points[k]) @ vectors[k]``."""
        points = np.atleast_2d(points)
        vectors = np.atleast_2d(vectors)
        h = self.hessian(points)
        return np.einsum("kij,kj->ki", h, vectors)

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"point dimension {x.shape[-1]} != target dimension {self.dim}"
            )
        return x


@dataclass(frozen=True)
class QuadraticPotential(Potential):
    """``U(x) = (1/2) (x - center)' precision (x - center)``.

    The canonical closed-form test target: the free-energy minimizer is
    ``N(center, precision^{-1})`` and every gradient moment is available
    exactly, which makes fixed points, contraction rates, and estimator
    means checkable without Monte Carlo.
    """

    precision: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        a = np.array(self.precision, dtype=float)
        b = np.array(self.center, dtype=float)
        if b.ndim != 1 or a.shape != (b.shape[0], b.shape[0]):
            raise DimensionMismatch(
                f"incompatible precision/center shapes {a.shape} and {b.shape}"
            )
        a = symmetrize(a)
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] <= 0.0:
            raise NotPositiveDefinite(f"precision has eigenvalue {eigs[0]:.3e} <= 0")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "precision", a)
        object.__setattr__(self, "center", b)
        object.__setattr__(
            self,
            "metadata",
            PotentialMetadata(b.shape[0], float(eigs[0]), float(eigs[-1])),
        )

    def value(self, x):
        x = self._check_point(x)
        diff = x - self.center
        return 0.5 * np.sum(diff * (diff @ self.precision), axis=-1)

    def grad(self, x):
        x = self._check_point(x)
        return (x - self.center) @ self.precision

    def hessian(self, x):
        x = self._check_point(x)
        if x.ndim == 1:
            return self.precision.copy()
        return np.broadcast_to(self.precision, x.shape[:-1] + self.precision.shape).copy()

    def hessian_mean(self, points):
        return self.precision.copy()

    def hessian_apply(self, points, vectors):
        return np.atleast_2d(np.asarray(vectors, dtype=float)) @ self.precision

    def exact_gradients(self, q: GaussianVariational) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form ``(E_q[grad U], E_q[hess U])`` for exact-gradient runs
        (per chain for a stack of states; the Hessian is shared)."""
        if q.dim != self.dim:
            raise DimensionMismatch(f"state dimension {q.dim} != target dimension {self.dim}")
        return (self.precision @ (q.mean - self.center)[..., None])[..., 0], self.precision.copy()


def quadratic_optimum(target: QuadraticPotential) -> GaussianVariational:
    """Exact free-energy minimizer ``N(center, precision^{-1})``."""
    w, v = np.linalg.eigh(target.precision)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(f"precision has eigenvalue {w[0]:.3e} <= 0")
    sigma_star = symmetrize((v / w) @ v.T)
    return GaussianVariational(target.center, cholesky_factor(sigma_star))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(t))  # never overflows; each branch as in 1 / (1 + exp(-t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class LogisticRidgePotential(Potential):
    """Ridge-regularized logistic regression negative log-posterior.

    ``U(x) = sum_i [softplus(x' X_i) - y_i x' X_i] + (ridge/2) ||x||^2``.

    The ridge term makes the potential exactly ``ridge``-strongly convex;
    the logistic Hessian bound gives ``L = ridge + lambda_max(X'X) / 4``.
    Both are computed eagerly at construction since step-size schedules
    need them up front.
    """

    design: np.ndarray
    labels: np.ndarray
    ridge: float

    def __post_init__(self):
        x = np.array(self.design, dtype=float)
        y = np.array(self.labels, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise DimensionMismatch(f"design must be a nonempty 2-D matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise DimensionMismatch(
                f"labels must have shape ({x.shape[0]},), got {y.shape}"
            )
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise LabelError("labels must take values in {0, 1}")
        if self.ridge <= 0.0:
            raise InvalidParameters(f"ridge must be positive, got {self.ridge}")
        gram_top = float(np.linalg.eigvalsh(symmetrize(x.T @ x))[-1])
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "design", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(
            self,
            "metadata",
            PotentialMetadata(x.shape[1], float(self.ridge), float(self.ridge) + 0.25 * gram_top),
        )

    def _logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.design.T

    def value(self, x):
        x = self._check_point(x)
        t = self._logits(x)
        loss = np.sum(np.logaddexp(0.0, t) - self.labels * t, axis=-1)
        return loss + 0.5 * self.ridge * np.sum(x * x, axis=-1)

    def grad(self, x):
        x = self._check_point(x)
        resid = _sigmoid(self._logits(x)) - self.labels
        return resid @ self.design + self.ridge * x

    def hessian(self, x):
        x = self._check_point(x)
        s = _sigmoid(self._logits(x))
        w = s * (1.0 - s)
        eye = self.ridge * np.eye(self.dim)
        if x.ndim == 1:
            return symmetrize(self.design.T @ (w[:, None] * self.design)) + eye
        h = np.einsum("kn,ni,nj->kij", w, self.design, self.design)
        return h + eye

    def hessian_mean(self, points):
        points = np.atleast_2d(self._check_point(points))
        s = _sigmoid(self._logits(points))
        w = (s * (1.0 - s)).mean(axis=-2)
        return symmetrize(self.design.T @ (w[..., None] * self.design)) + self.ridge * np.eye(self.dim)

    def hessian_apply(self, points, vectors):
        points = np.atleast_2d(self._check_point(points))
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        s = _sigmoid(self._logits(points))
        w = s * (1.0 - s)
        proj = vectors @ self.design.T
        return (w * proj) @ self.design + self.ridge * vectors


def load_logistic_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV dataset for the logistic-ridge target.

    Expected layout: a header row, numeric feature columns, and a final
    column holding the binary label (0 or 1).

    Returns:
        ``(design, labels)`` with shapes ``(n, d)`` and ``(n,)``.

    Raises:
        ParseError: malformed numeric data or no data rows.
        LabelError: a label outside {0, 1}.
        OSError: unreadable file.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ParseError(f"{path}: expected a header row with at least two columns")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as err:
                raise ParseError(f"{path}:{lineno}: {err}") from err
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    design, labels = data[:, :-1], data[:, -1]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        bad = labels[~np.isin(labels, (0.0, 1.0))][0]
        raise LabelError(f"{path}: label {bad!r} not in {{0, 1}}")
    return design, labels


def random_quadratic(
    dim: int,
    condition_number: float,
    seed: int,
    strong_convexity: float = 1.0,
    center_scale: float = 1.0,
) -> QuadraticPotential:
    """Deterministic random quadratic with prescribed spectrum.

    Eigenvalues are log-spaced in ``[mu, mu * condition_number]`` and
    rotated by a seeded random orthogonal matrix; the center is a seeded
    standard-normal draw scaled by ``center_scale``.
    """
    if dim < 1:
        raise InvalidParameters(f"dim must be >= 1, got {dim}")
    if condition_number < 1.0:
        raise InvalidParameters(f"condition_number must be >= 1, got {condition_number}")
    if strong_convexity <= 0.0:
        raise InvalidParameters(f"strong_convexity must be positive, got {strong_convexity}")
    rng = np.random.default_rng(seed)
    if dim == 1:
        eigs = np.array([strong_convexity])
    else:
        eigs = np.geomspace(strong_convexity, strong_convexity * condition_number, dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))  # fix the orthogonal factor's sign convention
    precision = symmetrize((q * eigs) @ q.T)
    center = center_scale * rng.standard_normal(dim)
    return QuadraticPotential(precision, center)
