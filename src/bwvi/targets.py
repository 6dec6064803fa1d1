"""Target potentials ``U = -log pi`` (up to normalization).

A potential is its metadata ``(dim, mu, L)`` and two pure methods:
``value(x)`` at a point ``(d,)`` or a batch ``(k, d)``, and
``evaluate(z, hessian)``, the one oracle the optimizers call per
iteration: values, gradients and, for Price's estimator only, the mean
Hessian at a batch of draws, from shared work (on the logistic target, one
logits product and one ``exp``).  The reparametrization estimator needs no
Hessian.  Hessians are dense; the estimators need full ``H @ C`` products
and the intended problem sizes are small (d up to a few hundred).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    LabelError,
    NotPositiveDefinite,
    ParseError,
)
from .geometry import GaussianVariational, _identity, _row_blocks, cholesky_factor, symmetrize

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

    Subclasses set ``metadata`` (``PotentialMetadata(d, mu, L)``) and
    implement ``value`` and ``evaluate``.  ``evaluate`` takes draws
    ``(M, d)`` or ``(B, M, d)`` (a stack of chains) and returns values
    ``(M,)`` / ``(B, M)``, gradients of the draws' shape, and the Hessian
    averaged over the draw axis: ``(d, d)``, or one per chain ``(B, d, d)``
    (a shared ``(d, d)`` serves every chain).  Only ``bonnet_price`` asks
    for the Hessian; with ``hessian`` false it is ``None``.
    """

    metadata: PotentialMetadata

    @property
    def dim(self) -> int:
        return self.metadata.dim

    def value(self, x: np.ndarray):
        """``U(x)`` at a point ``(d,)`` or at each row of a batch ``(k, d)``."""
        raise NotImplementedError

    def evaluate(self, z: np.ndarray, hessian: bool):
        """``(U(z), grad U(z), mean Hessian if hessian else None)`` at a
        batch of draws ``(M, d)`` or ``(B, M, d)``, in one pass."""
        raise NotImplementedError

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
        return self.evaluate(x, False)[0]

    def evaluate(self, z, hessian):
        diff = self._check_point(z) - self.center
        g = diff @ self.precision
        values = 0.5 * np.add.reduce(np.multiply(diff, g, out=diff), axis=-1)
        return values, g, self.precision.copy() if hessian else None

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


#: Bytes of each ``(rows, n_data)`` temporary of a row block of
#: ``LogisticRidgePotential.value``: 256 rows on 48 data points.  At this
#: size the temporaries stay under glibc's 128 KiB mmap threshold and reuse
#: the heap; the whole ``(4096, 48)`` arrays of a free-energy estimate fault
#: in fresh pages on every call (``free_energy_mc`` on the bundled dataset,
#: 2-core x86-64 host: 798 against 219 minor faults and 4.2-6.2 against
#: 2.7-2.8 ms per call).  Blocks of 1024 rows, 384 KiB, gave no gain.  On
#: wider datasets (500-10000 points, d = 5 or 50) the blocks, down to the
#: floor of 4 rows, took 1.2-2.8x less time than the whole array.
_VALUE_BLOCK_BYTES = 96 * 1024


def _sigmoid(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-t))`` from ``e = exp(-|t|)``: ``1 / (1 + e)`` where
    ``t >= 0``, ``e / (1 + e)`` elsewhere, so nothing overflows."""
    d = 1.0 + e
    return np.divide(np.where(t >= 0, 1.0, e), d, out=d)


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

    def _logits(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Logits ``t = x X'`` and ``e = exp(-|t|)``, which never overflows."""
        t = x @ self.design.T
        e = np.abs(t)
        np.negative(e, out=e)
        return t, np.exp(e, out=e)

    def _value(self, x, t, e):
        """``U(x)`` from the logits; ``softplus(t) = log1p(e) + max(t, 0)``.
        Overwrites ``e``."""
        loss = np.log1p(e, out=e)
        part = np.maximum(t, 0.0)
        loss += part
        loss -= np.multiply(self.labels, t, out=part)
        return np.add.reduce(loss, axis=-1) + 0.5 * self.ridge * np.add.reduce(x * x, axis=-1)

    def evaluate(self, z, hessian):
        z = self._check_point(z)
        t, e = self._logits(z)
        s = _sigmoid(t, e)
        mean_hess = None
        if hessian:
            w = np.add.reduce(s * (1.0 - s), axis=-2) / s.shape[-2]
            mean_hess = symmetrize(self.design.T @ (w[..., None] * self.design))
            mean_hess += self.ridge * _identity(self.dim)
        s -= self.labels
        return self._value(z, t, e), s @ self.design + self.ridge * z, mean_hess

    def value(self, x):
        x = self._check_point(x)
        if x.ndim != 2:
            return self._value(x, *self._logits(x))
        rows = max(4, _VALUE_BLOCK_BYTES // (8 * self.labels.shape[0]))
        values = np.empty(x.shape[0])
        for block in _row_blocks(x.shape[0], rows):
            values[block] = self._value(x[block], *self._logits(x[block]))
        return values


def _utf8_text(path) -> str:
    """The file's text; ``ParseError`` naming the line of a byte that is not UTF-8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        # the bytes before the bad one decode, and it sits on their last line
        before = raw[: err.start].decode("utf-8") + "?"
        line = len(io.StringIO(before, newline="").readlines())
        raise ParseError(f"{path}:{line}: not UTF-8 text ({err.reason})") from err


def load_logistic_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV dataset for the logistic-ridge target.

    Expected layout: a header row, numeric feature columns, and a final
    column holding the binary label (0 or 1).

    Returns:
        ``(design, labels)`` with shapes ``(n, d)`` and ``(n,)``.

    Raises:
        ParseError: text that is not UTF-8, malformed or non-finite numeric
            data, or no data rows.
        LabelError: a label outside {0, 1}.
        OSError: unreadable file.
    """
    rows = []
    with io.StringIO(_utf8_text(path), newline="") as fh:
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
            if not all(map(math.isfinite, rows[-1])):
                raise ParseError(f"{path}:{lineno}: non-finite value")
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
