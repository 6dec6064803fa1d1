import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from bwvi.errors import DimensionMismatch, InvalidParameters
from bwvi.estimators import (
    EstimatorKind,
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
        g = quad.grad(sample(state, noise))
        se = g.std(axis=0, ddof=1) / math.sqrt(M_UNIT)
        target = quad.precision @ (state.mean - quad.center)
        est = param_gradient(PRICE, quad, state, noise)[0]
        assert np.all(np.abs(est - target) <= 5.0 * se)

    def test_zero_mean_at_optimum(self, quad):
        q_star = quadratic_optimum(quad)
        noise = draw_noise(5, M_UNIT, seed=78)
        g = quad.grad(sample(q_star, noise))
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
        g = quad.grad(sample(state, e))
        se = np.sqrt(
            np.clip((g**2).T @ (e**2) / M_UNIT - (g.T @ e / M_UNIT) ** 2, 0, None) / M_UNIT
        )
        mask = np.tril(np.ones((5, 5), dtype=bool))
        assert np.all(np.abs(est - target)[mask] <= 5.0 * se[mask])

    def test_scale_agrees_with_price(self, quad, state):
        e = draw_noise(5, M_UNIT, seed=80)
        rs = param_gradient(REPARAM, quad, state, e)[1]
        ps = param_gradient(PRICE, quad, state, e)[1]  # exact for quadratic
        g = quad.grad(sample(state, e))
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
        g = quad.grad(sample(state, e))
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


class TestSteinWeights:
    def test_bitwise_equal_to_solve_triangular(self):
        rng = np.random.default_rng(21)
        states = [random_state(rng, 5) for _ in range(3)]
        eps = rng.standard_normal((3, 8, 5))

        def reference(scale, noise):
            return solve_triangular(scale, noise.T, lower=True, trans="T", check_finite=False).T

        got = stein_weights(states[0], eps[0])
        assert got.tobytes() == reference(states[0].scale, eps[0]).tobytes()
        stack = _Chains(np.stack([q.mean for q in states]), np.stack([q.scale for q in states]))
        expected = np.stack([reference(q.scale, e) for q, e in zip(states, eps)])
        assert stein_weights(stack, eps).tobytes() == expected.tobytes()

    def test_single_state_solves_every_draw_at_once(self):
        rng = np.random.default_rng(22)
        q = random_state(rng, 5)
        eps = rng.standard_normal((50, 1, 5))
        got = stein_weights(q, eps)
        # one trtrs call over all 50 draws, the same as for (50, 5) noise
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


class CountingPotential:
    """Delegates to a potential and counts calls to its oracle methods, and
    the ``evaluate`` calls that ask for the mean Hessian."""

    ORACLES = ("evaluate", "value", "grad", "hessian_mean")

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
