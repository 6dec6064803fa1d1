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
``draw_noise`` builds that generator; ``run_batch``'s ``_LockStepNoise``
yields the same bits for a stack of chains without one ``SeedSequence``
per draw: it hashes each chain's lineage for a block of iterations at once
and sets the state on one reused ``PCG64``.  A lineage with a seed of 2**128
or more, or a stream or iteration of 2**32 or more, takes ``draw_noise``'s
path.
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
    distinct lineages are statistically independent.  This is the
    reference for the optimizers' lock-step noise (``_LockStepNoise``),
    which gives each chain these draws, bit for bit.
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


# The constants of numpy's ``SeedSequence`` hash and ``PCG64`` seeding, which
# NEP 19 keeps stable (``tests/test_estimators.py`` pins the bits).
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: Iterations whose lineage hashes ``_LockStepNoise`` computes in one pass.
_NOISE_BLOCK = 64


class _LockStepNoise:
    """The noise of a stack of chains, one lineage ``(seed, stream)`` each.

    ``draw(live, t)`` returns the ``(len(live), M, d)`` array whose row
    ``r`` is ``draw_noise(d, M, seed, stream, t)`` of chain ``live[r]``, bit
    for bit, without a ``SeedSequence`` or ``PCG64`` per row:

    - ``SeedSequence(seed, spawn_key=(stream, t))`` hashes the words of its
      entropy in order: the seed's, padded to four, then the stream's, then
      ``t``'s.  Its pool after the stream is ``SeedSequence(seed,
      spawn_key=(stream,)).pool``, taken once per chain.
    - For a block of ``_NOISE_BLOCK`` iterations at once, one ``uint64``
      pass over the live chains mixes ``t`` into that pool (hash calls 20
      to 23) and takes the eight words of ``generate_state(4, uint64)``.
    - PCG64 is seeded with ``initstate`` and ``initseq`` from those words
      by two 128-bit LCG steps, here in Python ints; the state is set on
      one reused ``PCG64``, which then fills the row.

    That holds for an integer seed below 2**128 (at most four entropy words,
    padded to four) and a stream and ``t`` below 2**32 (one word each).  Any
    other lineage draws from ``_noise_generator``, as ``draw_noise`` does.
    """

    def __init__(self, lineages, n_samples: int, dim: int):
        self._lineages = lineages
        self._shape = (n_samples, dim)
        self._pools = {
            c: np.random.SeedSequence(seed, spawn_key=(stream,)).pool.astype(np.uint64)
            for c, (seed, stream) in enumerate(lineages)
            if isinstance(seed, (int, np.integer)) and isinstance(stream, (int, np.integer))
            and 0 <= seed <= _MASK128 and 0 <= stream <= _MASK32
        }
        # SeedSequence's hash constant k is INIT * MULT**k mod 2**32.  A hash
        # call k takes its word XOR constant k, times constant k + 1.
        hash_a = [_INIT_A * pow(_MULT_A, k, 1 << 32) & _MASK32 for k in range(20, 25)]
        hash_b = [_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK32 for k in range(9)]
        self._mix_t = (np.array(hash_a[:4], np.uint64), np.array(hash_a[1:], np.uint64))
        self._output = (np.array(hash_b[:8], np.uint64), np.array(hash_b[1:], np.uint64))
        self._bits = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bits)
        self._start = self._stop = 0
        self._words: dict = {}

    def draw(self, live: list[int], t: int) -> np.ndarray:
        try:
            eps = np.empty((len(live),) + self._shape)
        except (ValueError, MemoryError) as err:  # beyond numpy's largest array
            raise InvalidParameters(
                f"minibatch {self._shape[0]}: noise of shape {(len(live),) + self._shape} "
                "does not fit in memory"
            ) from err
        if not self._start <= t < self._stop:
            self._hash_block(live, t)
        k = t - self._start
        for row, c in enumerate(live):
            words = self._words.get(c)
            if words is None:
                _noise_generator(*self._lineages[c], t).standard_normal(out=eps[row])
                continue
            init_hi, init_lo, seq_hi, seq_lo = words[k]
            inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
            state = (((init_hi << 64 | init_lo) + inc) * _PCG64_MULT + inc) & _MASK128
            self._bits.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0,
            }
            self._generator.standard_normal(out=eps[row])
        return eps

    def _hash_block(self, live: list[int], t: int):
        """The ``generate_state(4, uint64)`` words of the live chains with a
        hashed prefix, for the iterations from ``t`` to the block's end."""
        self._start, self._stop = t, min(t + _NOISE_BLOCK, _MASK32 + 1)
        chains = [c for c in live if c in self._pools]
        if t > _MASK32 or not chains:
            self._stop, self._words = t + 1, {}
            return
        # hash call 20 + j takes t, for pool word j
        xor, mult = self._mix_t
        mixed = (np.arange(t, self._stop, dtype=np.uint64)[:, None] ^ xor) * mult & _MASK32
        mixed ^= mixed >> 16
        # mix(pool[j], hashmix(t)) for the chains (c, t, j); uint64 wraps mod 2**64
        pool = np.stack([self._pools[c] for c in chains])[:, None, :]
        pool = (_MIX_MULT_L * pool - _MIX_MULT_R * mixed) & _MASK32
        pool ^= pool >> 16
        # generate_state: output word i hashes pool word i % 4
        xor, mult = self._output
        words = (np.concatenate([pool, pool], axis=-1) ^ xor) * mult & _MASK32
        words ^= words >> 16
        words = (words[..., 0::2] | words[..., 1::2] << 32).tolist()
        self._words = dict(zip(chains, words))


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
    # ``g.mean(axis=-2)`` without its dispatch: numpy's mean is this sum and division
    return np.add.reduce(g, axis=-2) / g.shape[-2], mean_hess, None if price else g


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
