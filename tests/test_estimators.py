import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import bwvi.estimators
from bwvi.errors import DimensionMismatch, InvalidParameters
from bwvi.estimators import (
    EstimatorKind,
    _LockStepNoise,
    _oracle,
    bw_gradient,
    draw_noise,
    param_gradient,
    stein_weights,
)
from bwvi.geometry import GaussianVariational, _Chains, sample, symmetrize
from bwvi.optimizers import Algorithm, OptimizerConfig, run_batch, spbwgd_step, spgd_step
from bwvi.schedules import constant_schedule
from bwvi.targets import LogisticRidgePotential, QuadraticPotential, quadratic_optimum, random_quadratic

from conftest import random_state

M_UNIT = 200_000  # mini-batch for unit-level unbiasedness checks
PRICE = EstimatorKind.BONNET_PRICE
REPARAM = EstimatorKind.BONNET_REPARAM


@pytest.fixture(scope="module")
def quad():
    return random_quadratic(5, 4.0, seed=11)


@pytest.fixture(scope="module")
def state():
    return random_state(np.random.default_rng(3), 5)


class TestNoise:
    def test_lineage_determinism(self):
        a = draw_noise(4, 16, seed=9, stream=2, iteration=5)
        b = draw_noise(4, 16, seed=9, stream=2, iteration=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (16, 4)
        assert not a.flags.writeable

    def test_distinct_lineages_differ(self):
        a = draw_noise(4, 16, seed=9, stream=2, iteration=5)
        b = draw_noise(4, 16, seed=9, stream=2, iteration=6)
        c = draw_noise(4, 16, seed=9, stream=3, iteration=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_empty_batch(self):
        with pytest.raises(InvalidParameters):
            draw_noise(2, 0, seed=0)


def expected_words(seed, stream, t) -> list[int]:
    """numpy's own ``generate_state(8, uint32)`` words of the lineage, in the
    ``uint64`` pairs that seed PCG64: initstate high and low, initseq high
    and low."""
    w = np.random.SeedSequence(seed, spawn_key=(stream, t)).generate_state(8, np.uint32)
    return [int(lo) | int(hi) << 32 for lo, hi in zip(w[0::2], w[1::2])]


def random_lineages(rng, n) -> list[tuple[int, int]]:
    """Seeds of one to four entropy words and streams of one word."""
    bits = rng.choice([31, 32, 64, 96, 128], size=n)
    return [
        (int.from_bytes(rng.bytes(16), "little") >> (128 - int(b)), int(rng.integers(0, 2**32)))
        for b in bits
    ]


class CountingGenerator:
    """A noise generator that notes each lineage it is asked for."""

    def __init__(self, generator):
        self.generator, self.calls = generator, []

    def __call__(self, *lineage):
        self.calls.append(lineage)
        return self.generator(*lineage)


class TestLockStepNoise:
    """The lock-step source re-implements ``SeedSequence``'s hash of ``t`` and
    PCG64's seeding, so a numpy whose streams differ fails here."""

    @pytest.mark.parametrize("t", [0, 1, 63, 64, 1000, 10**6 - 1, 10**6, 2**31, 2**32 - 64])
    def test_state_words_equal_seed_sequence(self, t):
        rng = np.random.default_rng(t)
        lineages = random_lineages(rng, 60) + [(0, 0), (2**128 - 1, 2**32 - 1)]
        noise = _LockStepNoise(lineages, 1, 1)
        noise._hash_block(list(range(len(lineages))), t)
        assert noise._stop - noise._start == 64
        for c, (seed, stream) in enumerate(lineages):
            for k in (0, 1, 37, 63):
                assert noise._words[c][k] == expected_words(seed, stream, t + k), (seed, stream, t + k)

    def test_block_ends_at_the_last_one_word_iteration(self):
        noise = _LockStepNoise([(5, 7)], 1, 1)
        noise._hash_block([0], 2**32 - 3)
        assert noise._stop == 2**32
        assert noise._words[0][-1] == expected_words(5, 7, 2**32 - 1)

    def test_rows_equal_draw_noise_across_blocks(self):
        rng = np.random.default_rng(17)
        lineages = random_lineages(rng, 40)
        noise = _LockStepNoise(lineages, 3, 2)
        for t in [*range(0, 130), 10**6 - 1, 10**6]:
            eps = noise.draw(list(range(len(lineages))), t)
            assert eps.shape == (len(lineages), 3, 2)
            for row, (seed, stream) in enumerate(lineages):
                assert eps[row].tobytes() == draw_noise(2, 3, seed, stream, t).tobytes()

    def test_chains_frozen_mid_block(self):
        lineages = [(3, 0), (3, 1), (2**64 + 5, 2), (9, 2**32 - 1)]
        noise = _LockStepNoise(lineages, 4, 3)
        live = [0, 1, 2, 3]
        for t in range(0, 140):
            if t == 70:  # mid-block: the block was hashed for all four
                live = [0, 2, 3]
            if t == 100:
                live = [3]
            eps = noise.draw(live, t)
            for row, c in enumerate(live):
                assert eps[row].tobytes() == draw_noise(3, 4, *lineages[c], t).tobytes()

    @pytest.mark.parametrize("near, far", [
        ((2**128 - 1, 0, 5), (2**128, 0, 5)),
        ((6, 2**32 - 1, 5), (6, 2**32, 5)),
        ((6, 3, 2**32 - 1), (6, 3, 2**32)),
    ])
    def test_each_boundary_from_both_sides(self, monkeypatch, near, far):
        generator = CountingGenerator(bwvi.estimators._noise_generator)
        monkeypatch.setattr(bwvi.estimators, "_noise_generator", generator)
        for (seed, stream, t), fallback in ((near, False), (far, True)):
            generator.calls.clear()
            eps = _LockStepNoise([(seed, stream), (11, 1)], 8, 2).draw([0, 1], t)
            # at t >= 2**32 every lineage falls back, the neighbour's too
            expected = [(seed, stream, t)] + ([(11, 1, t)] if t >= 2**32 else [])
            assert generator.calls == (expected if fallback else [])
            assert eps[0].tobytes() == draw_noise(2, 8, seed, stream, t).tobytes()
            assert eps[1].tobytes() == draw_noise(2, 8, 11, 1, t).tobytes()

    def test_fallback_and_fast_rows_mixed(self):
        lineages = [(2**128 + 3, 0), (4, 0), (4, 2**40), (2**200, 2**33), (2**127, 1)]
        noise = _LockStepNoise(lineages, 2, 2)
        assert sorted(noise._pools) == [1, 4]
        for t in (0, 1, 64, 65):
            eps = noise.draw(list(range(5)), t)
            for row, lineage in enumerate(lineages):
                assert eps[row].tobytes() == draw_noise(2, 2, *lineage, t).tobytes()

    def test_numpy_integer_lineages_take_the_hash(self):
        noise = _LockStepNoise([(np.uint64(2**64 - 1), np.int64(3)), (np.int64(-1), 0), (5.0, 0)], 2, 2)
        assert sorted(noise._pools) == [0]
        eps = noise.draw([0], 9)
        assert eps[0].tobytes() == draw_noise(2, 2, 2**64 - 1, 3, 9).tobytes()

    def test_negative_seed_raises_as_draw_noise(self):
        noise = _LockStepNoise([(-1, 0)], 2, 2)
        with pytest.raises(ValueError) as lock_step:
            noise.draw([0], 0)
        with pytest.raises(ValueError) as reference:
            draw_noise(2, 2, -1)
        assert str(lock_step.value) == str(reference.value)

    def test_oversized_noise_is_a_config_error(self):
        with pytest.raises(InvalidParameters, match="minibatch 100000000000000000000"):
            _LockStepNoise([(0, 0)], 10**20, 5).draw([0], 0)


def single_draw(vec):
    return np.asarray(vec, dtype=float)[None, :]


class TestBonnetLocation:
    def test_identity_gradient_single_draw(self):
        t = QuadraticPotential(np.eye(2), np.zeros(2))
        q = GaussianVariational.isotropic(2)
        for kind in (PRICE, REPARAM):
            loc, _ = param_gradient(kind, t, q, single_draw([1.0, 2.0]))
            np.testing.assert_array_equal(loc, [1.0, 2.0])

    def test_unbiased_for_mean_gradient(self, quad, state):
        noise = draw_noise(5, M_UNIT, seed=77)
        g = quad.evaluate(sample(state, noise), False)[1]
        se = g.std(axis=0, ddof=1) / math.sqrt(M_UNIT)
        target = quad.precision @ (state.mean - quad.center)
        est = param_gradient(PRICE, quad, state, noise)[0]
        assert np.all(np.abs(est - target) <= 5.0 * se)

    def test_zero_mean_at_optimum(self, quad):
        q_star = quadratic_optimum(quad)
        noise = draw_noise(5, M_UNIT, seed=78)
        g = quad.evaluate(sample(q_star, noise), False)[1]
        se = g.std(axis=0, ddof=1) / math.sqrt(M_UNIT)
        est = param_gradient(PRICE, quad, q_star, noise)[0]
        assert np.all(np.abs(est) <= 5.0 * se)

    def test_dimension_mismatch(self, quad):
        with pytest.raises(DimensionMismatch):
            param_gradient(
                PRICE, quad, GaussianVariational.isotropic(3), draw_noise(3, 4, seed=0)
            )

    def test_one_dimensional_noise_rejected(self, quad, state):
        for estimate in (param_gradient, bw_gradient):
            with pytest.raises(DimensionMismatch):
                estimate(PRICE, quad, state, np.zeros(5))


class TestPriceEstimators:
    def test_covariance_deterministic_for_quadratic(self, quad, state):
        est = bw_gradient(PRICE, quad, state, draw_noise(5, 8, seed=1))[1]
        np.testing.assert_allclose(est, 0.5 * quad.precision, atol=1e-14)

    def test_covariance_at_optimum(self, quad):
        q_star = quadratic_optimum(quad)
        est = bw_gradient(PRICE, quad, q_star, draw_noise(5, 8, seed=2))[1]
        inv_sigma = np.linalg.inv(q_star.sigma)
        np.testing.assert_allclose(est, 0.5 * inv_sigma, atol=1e-9)

    def test_scale_identity_factor(self):
        t = random_quadratic(3, 3.0, seed=4)
        q = GaussianVariational.isotropic(3)
        est = param_gradient(PRICE, t, q, draw_noise(3, 4, seed=3))[1]
        np.testing.assert_allclose(est, np.tril(t.precision), atol=1e-14)

    def test_scale_diagonal_arithmetic(self):
        t = QuadraticPotential(np.diag([2.0, 3.0]), np.zeros(2))
        q = GaussianVariational(np.zeros(2), np.diag([1.0, 2.0]))
        est = param_gradient(PRICE, t, q, draw_noise(2, 4, seed=5))[1]
        np.testing.assert_allclose(est, np.diag([2.0, 6.0]), atol=1e-14)

    def test_covariance_symmetric(self):
        t = LogisticRidgePotential(np.random.default_rng(0).standard_normal((6, 3)),
                                   np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]), ridge=0.3)
        q = random_state(np.random.default_rng(1), 3)
        est = bw_gradient(PRICE, t, q, draw_noise(3, 32, seed=6))[1]
        assert np.max(np.abs(est - est.T)) <= 1e-12

    def test_logistic_mc_self_consistency(self):
        # mini-batch mean at M = 1e6 vs a 1e7-sample reference, within
        # 5 combined standard errors, entrywise on the toy dataset
        rng = np.random.default_rng(5)
        design = rng.standard_normal((4, 2))
        labels = np.array([1.0, 0.0, 0.0, 1.0])
        t = LogisticRidgePotential(design, labels, ridge=0.5)
        q = random_state(np.random.default_rng(8), 2)
        basis = 0.5 * np.einsum("ni,nj->nij", design, design)  # per-row Hessian blocks

        def mean_and_se(total, chunk, seed):
            done, s1, s2 = 0, np.zeros((2, 2)), np.zeros((2, 2))
            it = 0
            while done < total:
                m = min(chunk, total - done)
                noise = draw_noise(2, m, seed=seed, iteration=it)
                z = sample(q, noise)
                logits = z @ design.T
                s = 1.0 / (1.0 + np.exp(-logits))
                w = s * (1.0 - s)
                vals = np.einsum("kn,nij->kij", w, basis)
                s1 += vals.sum(axis=0)
                s2 += (vals**2).sum(axis=0)
                done += m
                it += 1
            mean = s1 / total + 0.5 * t.ridge * np.eye(2)
            var = np.clip(s2 / total - (s1 / total) ** 2, 0.0, None)
            return mean, np.sqrt(var / total)

        est, se_est = mean_and_se(1_000_000, 500_000, seed=100)
        ref, se_ref = mean_and_se(10_000_000, 1_000_000, seed=200)
        combined = np.sqrt(se_est**2 + se_ref**2)
        assert np.all(np.abs(est - ref) <= 5.0 * combined)
        # and the estimator itself reproduces the chunked computation
        noise = draw_noise(2, 100_000, seed=100, iteration=0)
        direct = bw_gradient(PRICE, t, q, noise)[1]
        z = sample(q, noise)
        s = 1.0 / (1.0 + np.exp(-(z @ design.T)))
        w = s * (1.0 - s)
        manual = np.einsum("kn,nij->kij", w, basis).mean(axis=0) + 0.5 * t.ridge * np.eye(2)
        np.testing.assert_allclose(direct, manual, atol=1e-12)


class TestReparamEstimators:
    def test_scale_single_draw(self):
        t = QuadraticPotential(np.eye(2), np.zeros(2))
        q = GaussianVariational.isotropic(2)
        est = param_gradient(REPARAM, t, q, single_draw([1.0, 0.0]))[1]
        np.testing.assert_array_equal(est, [[1.0, 0.0], [0.0, 0.0]])

    def test_scale_unbiased(self, quad, state):
        e = draw_noise(5, M_UNIT, seed=79)
        est = param_gradient(REPARAM, quad, state, e)[1]
        target = np.tril(quad.precision @ state.scale)
        g = quad.evaluate(sample(state, e), False)[1]
        se = np.sqrt(
            np.clip((g**2).T @ (e**2) / M_UNIT - (g.T @ e / M_UNIT) ** 2, 0, None) / M_UNIT
        )
        mask = np.tril(np.ones((5, 5), dtype=bool))
        assert np.all(np.abs(est - target)[mask] <= 5.0 * se[mask])

    def test_scale_agrees_with_price(self, quad, state):
        e = draw_noise(5, M_UNIT, seed=80)
        rs = param_gradient(REPARAM, quad, state, e)[1]
        ps = param_gradient(PRICE, quad, state, e)[1]  # exact for quadratic
        g = quad.evaluate(sample(state, e), False)[1]
        se = np.sqrt(
            np.clip((g**2).T @ (e**2) / M_UNIT - (g.T @ e / M_UNIT) ** 2, 0, None) / M_UNIT
        )
        mask = np.tril(np.ones((5, 5), dtype=bool))
        assert np.all(np.abs(rs - ps)[mask] <= 5.0 * se[mask])

    def test_covariance_single_draw(self):
        t = QuadraticPotential(np.eye(2), np.zeros(2))
        q = GaussianVariational.isotropic(2)
        est = bw_gradient(REPARAM, t, q, single_draw([1.0, 0.0]))[1]
        np.testing.assert_allclose(est, [[0.5, 0.0], [0.0, 0.0]])

    def test_covariance_not_symmetrized(self, quad, state):
        est = bw_gradient(REPARAM, quad, state, single_draw([0.7, -1.1, 0.2, 0.9, 0.4]))[1]
        assert np.max(np.abs(est - est.T)) > 1e-6

    def test_symmetrized_covariance_unbiased(self, quad, state):
        e = draw_noise(5, M_UNIT, seed=81)
        est = symmetrize(bw_gradient(REPARAM, quad, state, e)[1])
        g = quad.evaluate(sample(state, e), False)[1]
        w = solve_triangular(state.scale, e.T, lower=True, trans="T").T
        worst = 0.0
        for i in range(5):
            for j in range(i + 1):
                vals = 0.25 * (w[:, i] * g[:, j] + w[:, j] * g[:, i])
                se = vals.std(ddof=1) / math.sqrt(M_UNIT)
                worst = max(worst, abs(est[i, j] - 0.5 * quad.precision[i, j]) / (5.0 * se))
        assert worst <= 1.0

    def test_symmetrized_covariance_at_optimum(self, quad):
        q_star = quadratic_optimum(quad)
        noise = draw_noise(5, M_UNIT, seed=82)
        est = symmetrize(bw_gradient(REPARAM, quad, q_star, noise)[1])
        inv_sigma = np.linalg.inv(q_star.sigma)
        # coarse 5-SE style bound via the overall scatter of the entries
        assert np.max(np.abs(est - 0.5 * inv_sigma)) <= 0.1


def spread_scale(rng, dim):
    """A lower-triangular scale whose diagonal spans 1e-6 to 1e3, with each
    row's off-diagonal entries scaled by its diagonal entry, so that the
    weights stay finite at every size."""
    diag = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), dim))
    diag[rng.permutation(dim)[:2]] = [1e-6, 1e3][: dim]
    unit = np.eye(dim) + np.tril(rng.standard_normal((dim, dim)), -1) / math.sqrt(dim)
    return diag[:, None] * unit


def reference_weights(scale, noise):
    """The Stein weights by scipy's triangular solve, rows C-ordered."""
    return solve_triangular(scale, noise.T, lower=True, trans="T", check_finite=False).T


class TestSteinWeights:
    @pytest.mark.parametrize("m", [1, 8, 100_000])
    @pytest.mark.parametrize("dim", [1, 2, 5, 10, 50])
    def test_bitwise_equal_to_triangular_solve_across_sizes(self, dim, m):
        rng = np.random.default_rng(1000 * dim + m)
        chains = 2 if m == 100_000 else 13
        scales = np.stack([spread_scale(rng, dim) for _ in range(chains)])
        eps = rng.standard_normal((chains, m, dim))
        expected = np.stack([reference_weights(c, e) for c, e in zip(scales, eps)])
        got = stein_weights(_Chains(np.zeros((chains, dim)), scales), eps)
        assert got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        for scale, noise, rows in zip(scales, eps, expected):
            single = stein_weights(_Chains(np.zeros(dim), scale), noise)
            assert single.flags.c_contiguous
            assert single.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("chains", [None, 3])
    def test_bw_gradient_bitwise_equal_to_triangular_solve_formula(self, chains):
        # the reparam covariance estimator written out on scipy's
        # solve_triangular; at d = 50, M = 64 the product rounds by layout
        rng = np.random.default_rng(25)
        target = random_quadratic(50, 4.0, seed=26)
        states = [random_state(rng, 50) for _ in range(chains or 1)]
        eps = rng.standard_normal((len(states), 64, 50))
        expected = []
        for q, e in zip(states, eps):
            g = target.evaluate(sample(q, e), False)[1]
            w = reference_weights(q.scale, e)
            expected.append(0.5 * (w.T @ g) / 64)
        if chains is None:
            q, e, expected = states[0], eps[0], expected[0]
        else:
            q = _Chains(np.stack([s.mean for s in states]), np.stack([s.scale for s in states]))
            e, expected = eps, np.stack(expected)
        assert bw_gradient(REPARAM, target, q, e)[1].tobytes() == expected.tobytes()

    def test_bitwise_equal_to_solve_triangular(self):
        rng = np.random.default_rng(21)
        states = [random_state(rng, 5) for _ in range(3)]
        eps = rng.standard_normal((3, 8, 5))
        got = stein_weights(states[0], eps[0])
        assert got.tobytes() == reference_weights(states[0].scale, eps[0]).tobytes()
        stack = _Chains(np.stack([q.mean for q in states]), np.stack([q.scale for q in states]))
        expected = np.stack([reference_weights(q.scale, e) for q, e in zip(states, eps)])
        assert stein_weights(stack, eps).tobytes() == expected.tobytes()

    def test_single_state_solves_every_draw_at_once(self):
        rng = np.random.default_rng(22)
        q = random_state(rng, 5)
        eps = rng.standard_normal((50, 1, 5))
        got = stein_weights(q, eps)
        # one solve over all 50 draws, the same as for (50, 5) noise
        assert got.shape == eps.shape
        assert got.tobytes() == stein_weights(q, eps[:, 0]).tobytes()
        # a multi-column triangular solve may round differently from
        # single-column ones, so draw-by-draw solves agree to roundoff
        rows = np.stack([stein_weights(q, e) for e in eps])
        np.testing.assert_allclose(got, rows, rtol=0, atol=1e-14 * np.abs(rows).max())

    def test_zero_diagonal_raises_linalg_error(self):
        q = _Chains(np.zeros(2), np.array([[1.0, 0.0], [0.5, 0.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            stein_weights(q, np.ones((4, 2)))

    def test_zero_diagonal_in_a_stack_raises_linalg_error(self):
        scales = np.stack([np.eye(2), np.array([[1.0, 0.0], [0.5, 0.0]]), np.eye(2)])
        with pytest.raises(np.linalg.LinAlgError):
            stein_weights(_Chains(np.zeros((3, 2)), scales), np.ones((3, 4, 2)))


class TestDispatch:
    def test_param_geometry_is_triangular(self, quad, state):
        for kind in (EstimatorKind.BONNET_PRICE, EstimatorKind.BONNET_REPARAM):
            _, scale_grad = param_gradient(kind, quad, state, draw_noise(5, 8, seed=13))
            assert np.array_equal(scale_grad, np.tril(scale_grad))

    def test_bw_price_is_symmetric(self, quad, state):
        noise = draw_noise(5, 8, seed=14)
        _, cov_grad = bw_gradient(EstimatorKind.BONNET_PRICE, quad, state, noise)
        assert np.max(np.abs(cov_grad - cov_grad.T)) <= 1e-12

    def test_exact_dispatch(self, quad):
        q_star = quadratic_optimum(quad)
        loc, cov_grad = bw_gradient(EstimatorKind.EXACT, quad, q_star, None)
        np.testing.assert_allclose(loc, np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(cov_grad, 0.5 * quad.precision, atol=1e-14)

    def test_exact_requires_quadratic(self):
        t = LogisticRidgePotential(np.ones((2, 2)), np.array([0.0, 1.0]), ridge=1.0)
        with pytest.raises(InvalidParameters):
            param_gradient(EstimatorKind.EXACT, t, GaussianVariational.isotropic(2), None)

    def test_bit_identical_for_identical_lineage(self, quad, state):
        for kind in (EstimatorKind.BONNET_PRICE, EstimatorKind.BONNET_REPARAM):
            a = param_gradient(kind, quad, state, draw_noise(5, 32, seed=15, iteration=3))
            b = param_gradient(kind, quad, state, draw_noise(5, 32, seed=15, iteration=3))
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])


class TestLocationMean:
    @pytest.mark.parametrize("shape", [(1, 5), (8, 5), (1, 1, 3), (4, 8, 5), (3, 200, 2)])
    def test_bitwise_equal_to_mean(self, quad, shape):
        rng = np.random.default_rng(sum(shape))
        g = rng.standard_normal(shape) * 10.0 ** rng.uniform(-100, 100, shape)
        for kind in (PRICE, REPARAM):
            loc = _oracle(kind, quad, None, None, (None, g, None))[0]
            assert loc.shape == g.mean(axis=-2).shape
            assert loc.tobytes() == g.mean(axis=-2).tobytes()


class CountingPotential:
    """Delegates to a potential and counts calls to its oracle methods, and
    the ``evaluate`` calls that ask for the mean Hessian."""

    ORACLES = ("evaluate", "value")

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.ORACLES:
            return attr

        def counted(*args):
            self.calls[name] += 1
            if name == "evaluate" and args[1]:
                self.calls["evaluate with hessian"] += 1
            return attr(*args)

        return counted

    def oracle_calls(self) -> int:
        return sum(self.calls[name] for name in self.ORACLES)


class TestOracleCalls:
    @pytest.mark.parametrize("step", [spgd_step, spbwgd_step])
    @pytest.mark.parametrize("kind, hessian_calls", [(PRICE, 1), (REPARAM, 0)])
    def test_one_potential_evaluation_per_step(self, quad, state, step, kind, hessian_calls):
        target = CountingPotential(quad)
        step(state, target, draw_noise(5, 8, seed=16), 0.01, kind)
        assert target.oracle_calls() == target.calls["evaluate"] == 1
        assert target.calls["evaluate with hessian"] == hessian_calls

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("kind", [PRICE, REPARAM])
    @pytest.mark.parametrize("logistic", [False, True], ids=["quadratic", "logistic"])
    def test_run_batch_evaluates_once_per_iteration(self, quad, state, algorithm, kind, logistic):
        inner = quad
        if logistic:
            rng = np.random.default_rng(4)
            inner = LogisticRidgePotential(
                rng.standard_normal((12, 5)), rng.integers(0, 2, 12).astype(float), ridge=0.5
            )
        target = CountingPotential(inner)
        config = OptimizerConfig(algorithm=algorithm, estimator=kind, max_iters=6)
        traces = run_batch(config, target, state, [(constant_schedule(0.01), s, 0) for s in range(3)])
        assert [len(t.records) for t in traces] == [7, 7, 7]  # 7 iterates, none diverged
        assert target.oracle_calls() == target.calls["evaluate"] == 7
        assert target.calls["evaluate with hessian"] == (7 if kind is PRICE else 0)
