import math
import warnings
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import bwvi.optimizers
from bwvi.errors import InvalidParameters, NotPositiveDefinite
from bwvi.estimators import EstimatorKind, draw_noise
from bwvi.geometry import (
    GaussianVariational,
    _Chains,
    _coupling_cost,
    _sqrt_and_inv_sqrt,
    w2_distance_sq,
)
from bwvi.optimizers import (
    Algorithm,
    OptimizerConfig,
    _cholesky,
    _Iterate,
    _Ledger,
    _w2_records,
    entropy_prox,
    jko_entropy,
    run,
    run_batch,
    spbwgd_step,
    spgd_step,
)
from bwvi.schedules import constant_schedule, theorem_schedule
from bwvi.targets import PotentialMetadata, QuadraticPotential, quadratic_optimum, random_quadratic

from conftest import random_state


def parameter_vector(q: GaussianVariational) -> np.ndarray:
    """Flatten ``(m, tril C)`` into the parameter vector ``lambda``, whose
    Euclidean norm is the parameter-space metric."""
    idx = np.tril_indices(q.dim)
    return np.concatenate([q.mean, q.scale[idx]])


class ZeroPotential:
    """Stub target with identically zero gradient and Hessian, used to
    isolate the proximal part of a step."""

    metadata = PotentialMetadata(1, 1.0, 1.0)

    def __init__(self, dim):
        self.metadata = PotentialMetadata(dim, 1.0, 1.0)

    @property
    def dim(self):
        return self.metadata.dim

    def evaluate(self, z, hessian):
        z = np.asarray(z, dtype=float)
        zero_hessian = np.zeros(z.shape[:-2] + (self.dim, self.dim)) if hessian else None
        return np.zeros(z.shape[:-1]), np.zeros_like(z), zero_hessian


class TestEntropyProx:
    def test_vanishing_regularization(self):
        c = np.array([[0.8, 0.0], [0.3, 1.2]])
        out = entropy_prox(c, 1e-16)
        assert np.max(np.abs(out - c)) <= 1e-8

    def test_zero_diagonal(self):
        out = entropy_prox(np.zeros((1, 1)), gamma=1.0)
        np.testing.assert_allclose(out, [[1.0]])

    def test_root_arithmetic(self):
        out = entropy_prox(np.array([[3.0]]), gamma=4.0)
        np.testing.assert_allclose(out, [[4.0]])

    def test_off_diagonal_untouched(self):
        c = np.array([[1.0, 0.0], [0.77, 2.0]])
        out = entropy_prox(c, gamma=0.5)
        assert out[1, 0] == 0.77

    def test_repairs_negative_diagonal(self):
        out = entropy_prox(np.array([[-5.0]]), gamma=0.1)
        assert out[0, 0] > 0.0

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(-50.0, 50.0), gamma=st.floats(1e-8, 10.0))
    def test_scalar_optimality_condition(self, c, gamma):
        out = entropy_prox(np.array([[c]]), gamma)[0, 0]
        # root of x^2 - c x - gamma = 0, positive branch, to the rounding of
        # the residual's own terms
        assert out > 0.0
        terms = max(out * out, abs(c * out), gamma)
        assert abs(out * out - c * out - gamma) <= 1e-12 * terms

    @pytest.mark.parametrize("c", [-1e4, -1e5])
    def test_negative_diagonal_matches_50_digit_root(self, c):
        # the root is about gamma / |c|: (c + sqrt(c^2 + 4 gamma)) / 2
        # cancels to 9% error at -1e4 and to exactly 0 at -1e5
        gamma = 1e-8
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(c) + (Decimal(c) ** 2 + 4 * Decimal(gamma)).sqrt()) / 2
        out = entropy_prox(np.array([[c]]), gamma)[0, 0]
        assert abs(Decimal(out) - exact) <= Decimal(1e-15) * exact


class TestJkoEntropy:
    def test_vanishing_regularization(self):
        out = jko_entropy(np.eye(2), 1e-16)
        assert np.max(np.abs(out - np.eye(2))) <= 1e-8

    def test_scalar_fixed_point_value(self):
        # one-step value consistent with the stationary covariance at
        # precision 1: sigma_half = (1 - gamma)^2 maps back to 1
        out = jko_entropy(np.array([[0.81]]), gamma=0.1)
        np.testing.assert_allclose(out, [[1.0]], rtol=1e-12)

    def test_scalar_arithmetic(self):
        out = jko_entropy(np.array([[1.0]]), gamma=1.0)
        np.testing.assert_allclose(out, [[0.5 * (3.0 + math.sqrt(5.0))]], rtol=1e-12)

    def test_scalar_matches_numerical_minimization(self):
        # jko(sigma) minimizes E_p[log p] + W2(p, N(0, sigma))^2 / (2 gamma)
        # over variances; compare against direct scalar minimization
        sigma, gamma = 1.0, 1.0

        def objective(s):
            neg_entropy = -0.5 * math.log(2.0 * math.pi * math.e * s)
            w2_sq = (math.sqrt(s) - math.sqrt(sigma)) ** 2
            return neg_entropy + w2_sq / (2.0 * gamma)

        res = minimize_scalar(objective, bounds=(1e-6, 50.0), method="bounded")
        out = jko_entropy(np.array([[sigma]]), gamma)[0, 0]
        assert abs(out - res.x) <= 1e-5

    def test_output_spd_for_singular_input(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        out = jko_entropy(sigma, gamma=0.05)
        assert np.linalg.eigvalsh(out)[0] > 0.0

    @pytest.mark.parametrize("cond, tol", [(1e7, 1e-8), (1e11, 1e-5)])
    def test_smallest_eigenvalue_of_rotated_diagonal(self, cond, tol):
        # Forming Sigma @ Sigma squares the condition number (errors 7e-4
        # and 0.4 here).  Rounding the input Sigma alone moves its smallest
        # eigenvalue by up to eps ||Sigma|| / w_min = 2e-5 relative at 1e11.
        gamma = 1e-12
        rot, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
        w = np.geomspace(1.0, 1.0 / cond, 5)
        out = jko_entropy((rot * w) @ rot.T, gamma)
        exact = 0.5 * (w[-1] + 2.0 * gamma + math.sqrt(w[-1] * (w[-1] + 4.0 * gamma)))
        assert abs(np.linalg.eigvalsh(out)[0] - exact) <= tol * exact

    def test_rejects_non_finite_input(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(NotPositiveDefinite):
                jko_entropy(np.array([[1.0, bad], [bad, 1.0]]), 0.1)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvalidParameters):
            jko_entropy(np.eye(2), 0.0)


class TestCholesky:
    def test_factorable_stack_equals_numpy(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 4, 4))
        stack = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(4)
        assert _cholesky(stack).tobytes() == np.linalg.cholesky(stack).tobytes()
        assert _cholesky(stack[2]).tobytes() == np.linalg.cholesky(stack[2]).tobytes()

    def test_rows_without_a_factor_are_nan(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 2, 2))
        stack = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(2)
        stack[1] = [[1.0, 2.0], [2.0, 1.0]]  # indefinite
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        out = _cholesky(stack)
        assert np.isnan(out[1]).all()
        for row in (0, 2):
            assert out[row].tobytes() == np.linalg.cholesky(stack[row]).tobytes()


class TestSteps:
    def test_fixed_points_random_instances(self):
        rng = np.random.default_rng(2024)
        for i in range(50):
            dim = int(rng.integers(1, 6))
            target = random_quadratic(dim, float(10 ** rng.uniform(0, 1.5)), seed=900 + i)
            q_star = quadratic_optimum(target)
            gamma = float(rng.uniform(0.05, 1.0)) / target.metadata.smoothness
            scale = 1.0 + float(np.trace(q_star.sigma))
            for step in (spgd_step, spbwgd_step):
                out = step(q_star, target, None, gamma, "exact")
                assert w2_distance_sq(out, q_star) <= 1e-10 * scale

    def test_zero_gradient_spgd_reduces_to_prox(self):
        q = GaussianVariational.isotropic(1)
        out = spgd_step(q, ZeroPotential(1), draw_noise(1, 4, seed=0), gamma=1.0)
        np.testing.assert_array_equal(out.mean, q.mean)
        np.testing.assert_allclose(out.scale, [[0.5 * (1.0 + math.sqrt(5.0))]], rtol=1e-12)

    def test_zero_gradient_spbwgd_reduces_to_jko(self):
        q = GaussianVariational.isotropic(1)
        out = spbwgd_step(q, ZeroPotential(1), draw_noise(1, 4, seed=0), gamma=1.0)
        np.testing.assert_array_equal(out.mean, q.mean)
        np.testing.assert_allclose(out.sigma, [[0.5 * (3.0 + math.sqrt(5.0))]], rtol=1e-12)

    def test_tiny_step_leaves_iterate_unchanged(self):
        target = random_quadratic(3, 5.0, seed=12)
        q = random_state(np.random.default_rng(0), 3)
        for step in (spgd_step, spbwgd_step):
            out = step(q, target, None, 1e-16, "exact")
            assert np.max(np.abs(out.mean - q.mean)) <= 1e-8
            assert np.max(np.abs(out.sigma - q.sigma)) <= 1e-8

    def test_spbwgd_accepts_asymmetric_covariance_gradient(self):
        # the first-order covariance estimator is not a.s. symmetric; the
        # congruence update must still produce a valid SPD state
        target = random_quadratic(4, 6.0, seed=33)
        q = random_state(np.random.default_rng(1), 4)
        for t in range(20):
            noise = draw_noise(4, 2, seed=8, iteration=t)
            q = spbwgd_step(q, target, noise, 0.01, EstimatorKind.BONNET_REPARAM)
        assert np.linalg.eigvalsh(q.sigma)[0] > 0

    @pytest.mark.parametrize("step", [spgd_step, spbwgd_step])
    def test_nonpositive_step_raises(self, step):
        target = random_quadratic(2, 5.0, seed=3)
        for gamma in (0.0, -0.1):
            with pytest.raises(InvalidParameters):
                step(GaussianVariational.isotropic(2), target, draw_noise(2, 4, seed=0), gamma)

    @pytest.mark.parametrize("step", [spgd_step, spbwgd_step])
    def test_nan_hessian_raises(self, step):
        base = random_quadratic(2, 5.0, seed=3)
        target = TrippedQuadratic(base.precision, base.center, trip=-math.inf)
        with pytest.raises(NotPositiveDefinite):
            step(GaussianVariational.isotropic(2), target, draw_noise(2, 4, seed=0), 0.1)

    def test_covariance_without_cholesky_factor_raises(self, monkeypatch):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        monkeypatch.setattr(bwvi.optimizers, "_jko", lambda sigma, gamma: indefinite)
        target = random_quadratic(2, 5.0, seed=3)
        with pytest.raises(NotPositiveDefinite):
            spbwgd_step(GaussianVariational.isotropic(2), target, None, 0.1, "exact")

    def test_deterministic_contraction_both_rules(self):
        target = random_quadratic(5, 10.0, seed=7)
        q_star = quadratic_optimum(target)
        meta = target.metadata
        gamma = 1.0 / (10.0 * meta.smoothness * meta.condition_number)
        bound = (1.0 - meta.strong_convexity * gamma) * (1.0 + 1e-8)
        for step in (spgd_step, spbwgd_step):
            q = GaussianVariational.isotropic(5, 0.0, 0.34)
            prev = w2_distance_sq(q, q_star)
            for _ in range(50):
                q = step(q, target, None, gamma, "exact")
                cur = w2_distance_sq(q, q_star)
                assert cur <= bound * prev
                prev = cur


class TestRunDriver:
    def make_setup(self, seed=3):
        target = random_quadratic(2, 5.0, seed=seed)
        q0 = GaussianVariational.isotropic(2, 0.0, 0.34)
        return target, q0

    def test_zero_iterations(self):
        target, q0 = self.make_setup()
        config = OptimizerConfig(max_iters=0)
        trace = run(config, target, q0, constant_schedule(0.01), seed=0)
        assert len(trace.records) == 1
        assert trace.records[0].t == 0
        assert not trace.diverged

    def test_record_count_contract(self):
        target, q0 = self.make_setup()
        config = OptimizerConfig(max_iters=25)
        trace = run(config, target, q0, constant_schedule(0.01), seed=0)
        assert len(trace.records) == 26
        assert [r.t for r in trace.records] == list(range(26))

    def test_exact_gradient_contraction_to_optimum(self):
        # well-conditioned instance: 200 steps at gamma = 1/(10 L kappa)
        # contract W2^2 below 1e-6 of its initial value
        target = random_quadratic(2, 1.2, seed=3)
        q0 = GaussianVariational.isotropic(2, 0.0, 0.34)
        meta = target.metadata
        gamma = 1.0 / (10.0 * meta.smoothness * meta.condition_number)
        for algorithm in (Algorithm.SPGD, Algorithm.SPBWGD):
            trace = run(
                OptimizerConfig(algorithm=algorithm, estimator=EstimatorKind.EXACT, max_iters=200),
                target, q0, constant_schedule(gamma), seed=0,
            )
            w2 = trace.w2_history
            assert np.all(np.diff(w2) < 0)
            assert w2[-1] < 1e-6 * w2[0]

    def test_bit_identical_reruns(self):
        target, q0 = self.make_setup()
        config = OptimizerConfig(max_iters=40)
        sched = constant_schedule(0.02)
        a = run(config, target, q0, sched, seed=11)
        b = run(config, target, q0, sched, seed=11)
        assert a.records.tobytes() == b.records.tobytes()
        np.testing.assert_array_equal(a.final_state.mean, b.final_state.mean)
        np.testing.assert_array_equal(a.final_state.scale, b.final_state.scale)

    def test_different_seeds_differ(self):
        target, q0 = self.make_setup()
        config = OptimizerConfig(max_iters=10)
        sched = constant_schedule(0.02)
        a = run(config, target, q0, sched, seed=11)
        b = run(config, target, q0, sched, seed=12)
        assert a.records.tobytes() != b.records.tobytes()

    def test_divergence_recorded_not_raised(self):
        target = random_quadratic(4, 100.0, seed=5)
        q0 = GaussianVariational.isotropic(4, 0.0, 0.34)
        config = OptimizerConfig(max_iters=4000, divergence_threshold=1e8)
        trace = run(config, target, q0, constant_schedule(1.0), seed=0)
        assert trace.diverged
        assert trace.records[-1].diverged
        assert len(trace.records) <= 4001

    def test_w2_is_nan_without_closed_form_optimum(self):
        config = OptimizerConfig(max_iters=5)
        trace = run(config, ZeroPotential(2), GaussianVariational.isotropic(2),
                    constant_schedule(0.1), seed=0)
        assert len(trace.records) == 6 and np.isnan(trace.w2_history).all()

    def test_exact_mode_rejects_non_quadratic(self):
        from test_optimizers import ZeroPotential  # self-import keeps stub local

        config = OptimizerConfig(estimator=EstimatorKind.EXACT, max_iters=1)
        with pytest.raises(InvalidParameters):
            run(config, ZeroPotential(2), GaussianVariational.isotropic(2),
                constant_schedule(0.1), seed=0)

    def test_w2_tracking_matches_direct_distance(self):
        target, q0 = self.make_setup()
        q_star = quadratic_optimum(target)
        config = OptimizerConfig(max_iters=20)
        trace = run(config, target, q0, constant_schedule(0.02), seed=1)
        assert abs(trace.records[0].w2_sq - w2_distance_sq(q0, q_star)) <= 1e-9
        assert abs(trace.records[-1].w2_sq - w2_distance_sq(trace.final_state, q_star)) <= 1e-9

    def test_parameter_distance_dominates_w2(self):
        # SPGD iterates: ||lambda_t - lambda_*||^2 >= W2^2 at every step
        target = random_quadratic(3, 8.0, seed=21)
        q_star = quadratic_optimum(target)
        lam_star = parameter_vector(q_star)
        q = GaussianVariational.isotropic(3, 0.0, 0.34)
        gamma = 0.5 / target.metadata.smoothness
        for t in range(100):
            noise = draw_noise(3, 8, seed=5, iteration=t)
            q = spgd_step(q, target, noise, gamma)
            param_dist = float(np.sum((parameter_vector(q) - lam_star) ** 2))
            assert param_dist >= w2_distance_sq(q, q_star) - 1e-10

    def test_ill_conditioned_w2_record_is_finite(self):
        # At kappa = 1e12 the congruence under the W2 record's square root
        # has eigenvalues far below 0 from round-off alone; they are clipped.
        config = OptimizerConfig(algorithm="spbwgd", max_iters=3)
        target = random_quadratic(5, 1e12, seed=0)
        q0 = GaussianVariational.isotropic(5, 0.0, 0.34)
        trace = run(config, target, q0, constant_schedule(1e-3), seed=0)
        assert trace.diverged and list(trace.records.t) == [0, 1]
        assert np.isfinite(trace.w2_history).all()

    def test_minibatch_free_energy_recorded(self):
        target, q0 = self.make_setup()
        config = OptimizerConfig(max_iters=5, minibatch=16)
        trace = run(config, target, q0, constant_schedule(0.01), seed=2)
        for rec in trace.records:
            assert math.isfinite(rec.free_energy)
            assert rec.free_energy_se > 0.0


class TestCrossGeometry:
    """In d = 1 a scale step and a covariance step are the same step while
    the gradient step keeps the scale positive: the entropy prox's root
    squared is the JKO's spectrum map, and ``(M C)^2`` is ``(C - gamma g_C)^2``.
    Reparam leaves this out at larger steps, where a draw can flip the
    scale's sign and the prox takes its ``gamma / s`` root."""

    @pytest.mark.parametrize("estimator,gamma", [
        *[(e, g) for e in ("bonnet_price", "exact") for g in (1e-3, 0.1, 0.4)],
        ("bonnet_reparam", 1e-3),
    ])
    def test_spgd_and_spbwgd_agree_in_one_dimension(self, estimator, gamma):
        target = random_quadratic(1, 1.0, seed=3, strong_convexity=2.0)
        q0 = GaussianVariational.isotropic(1, 0.0, 0.34)
        spgd, spbwgd = (
            run(OptimizerConfig(algorithm=a, estimator=estimator, max_iters=300),
                target, q0, constant_schedule(gamma), seed=5)
            for a in ("spgd", "spbwgd")
        )
        assert not spgd.diverged and len(spgd.records) == len(spbwgd.records) == 301
        np.testing.assert_allclose(spbwgd.free_energy_history, spgd.free_energy_history, rtol=1e-12, atol=0)
        np.testing.assert_allclose(spbwgd.final_state.scale, spgd.final_state.scale, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("estimator", ["bonnet_price", "exact"])
    @pytest.mark.parametrize("gamma", [1e-3, 0.1])
    def test_spgd_and_spbwgd_agree_on_an_axis_aligned_quadratic(self, estimator, gamma):
        # Price and exact steps keep a diagonal scale diagonal here, so each
        # coordinate takes the one-dimensional step above.  The centre at 0
        # keeps every free energy beyond 0.8 in magnitude, where a relative
        # tolerance means something.
        target = QuadraticPotential(np.diag([0.5, 1.0, 2.0, 4.0]), np.zeros(4))
        q0 = GaussianVariational.isotropic(4, 0.0, 0.34)
        spgd, spbwgd = (
            run(OptimizerConfig(algorithm=a, estimator=estimator, max_iters=300),
                target, q0, constant_schedule(gamma), seed=5)
            for a in ("spgd", "spbwgd")
        )
        assert not spgd.diverged and len(spgd.records) == len(spbwgd.records) == 301
        np.testing.assert_allclose(spbwgd.free_energy_history, spgd.free_energy_history, rtol=1e-12, atol=0)
        np.testing.assert_allclose(spbwgd.final_state.scale, spgd.final_state.scale, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("estimator", ["bonnet_price", "exact"])
    def test_negative_pre_prox_scale_is_where_the_geometries_differ(self, estimator):
        # c = C - gamma g_C = 1 - 0.5 * 4 = -1 in both geometries; SPBWGD's
        # (M C)^2 drops its sign and takes the larger root s, SPGD's prox
        # takes the positive root of x^2 - c x - gamma, which is gamma / s.
        target = QuadraticPotential(np.array([[4.0]]), np.array([0.0]))
        q, gamma = GaussianVariational.isotropic(1, 0.0, 1.0), 0.5
        eps = None if estimator == "exact" else draw_noise(1, 4, seed=0)
        s = (1.0 + math.sqrt(1.0 + 4.0 * gamma)) / 2.0
        spgd = spgd_step(q, target, eps, gamma, estimator).scale.item()
        spbwgd = spbwgd_step(q, target, eps, gamma, estimator).scale.item()
        assert spgd == pytest.approx(gamma / s, rel=1e-15)
        assert spbwgd == pytest.approx(s, rel=1e-15)


@dataclass(frozen=True)
class TrippedQuadratic(QuadraticPotential):
    """Quadratic whose mean Hessian is NaN for a chain whose draws reach
    beyond ``trip`` in the first coordinate, so that the Price step of just
    that chain fails: SPBWGD in the JKO root, SPGD in the new state."""

    trip: float = math.inf

    def evaluate(self, z, hessian):
        values, g, h = super().evaluate(z, hessian)
        if hessian:
            z = np.asarray(z)
            h = np.broadcast_to(h, z.shape[:-2] + h.shape).copy()
            h[z[..., 0].max(axis=-1) > self.trip] = np.nan
        return values, g, h


@dataclass(frozen=True)
class FirstStepHessians(QuadraticPotential):
    """Quadratic whose mean Hessian for a stack of ``len(first)`` chains,
    the first step of such a batch, is ``first[row]`` on each row."""

    first: tuple = ()

    def evaluate(self, z, hessian):
        values, g, h = super().evaluate(z, hessian)
        if hessian and len(z) == len(self.first):
            h = np.array(self.first)
        return values, g, h


class ZeroAt:
    """Step-size schedule that returns ``gamma`` except ``value`` (0 unless
    given) at iteration ``t``."""

    def __init__(self, gamma, t, value=0.0):
        self.gamma, self.t, self.value = gamma, t, value

    def step_at(self, t):
        return self.value if t == self.t else self.gamma


def assert_same_trace(a, b):
    assert a.records.tobytes() == b.records.tobytes()  # bytes: NaN energies compare equal
    np.testing.assert_array_equal(a.final_state.mean, b.final_state.mean)
    np.testing.assert_array_equal(a.final_state.scale, b.final_state.scale)
    assert (a.diverged, a.seed, a.stream) == (b.diverged, b.seed, b.stream)


class SeedSequenceNoise:
    """The lock-step noise source's reference: ``draw_noise``, one
    ``SeedSequence`` and ``PCG64`` per row."""

    def __init__(self, lineages, n_samples, dim):
        self.lineages, self.n_samples, self.dim = lineages, n_samples, dim

    def draw(self, live, t):
        return np.stack([draw_noise(self.dim, self.n_samples, *self.lineages[c], t) for c in live])


PAIRS = [(a, e) for a in Algorithm for e in (EstimatorKind.BONNET_PRICE, EstimatorKind.BONNET_REPARAM)]


class TestRunBatch:
    THRESHOLD = 1e8

    def batch(self, algorithm, estimator, gammas=(1e-3, 0.05, 0.3, 1e4), seeds=(0, 1)):
        base = random_quadratic(3, 100.0, seed=5)
        target = TrippedQuadratic(base.precision, base.center, trip=8.0)
        q0 = GaussianVariational.isotropic(3, 0.0, 0.34)
        config = OptimizerConfig(
            algorithm=algorithm, estimator=estimator, max_iters=200,
            divergence_threshold=self.THRESHOLD,
        )
        chains = [(constant_schedule(g), s, i) for i, g in enumerate(gammas) for s in seeds]
        return config, target, q0, chains

    @pytest.mark.parametrize("algorithm, estimator", PAIRS)
    def test_each_chain_equals_its_own_run(self, algorithm, estimator):
        config, target, q0, chains = self.batch(algorithm, estimator)
        traces = run_batch(config, target, q0, chains)
        for chain, trace in zip(chains, traces):
            assert_same_trace(trace, run(config, target, q0, *chain))
        endings = set()
        for trace in traces:
            last = trace.records[-1]
            energy_ok = math.isfinite(last.free_energy) and last.free_energy <= self.THRESHOLD
            endings.add("completed" if not trace.diverged else "step" if energy_ok else "energy")
        # Mixed step sizes: chains that complete, that run away early and,
        # with Price, that fail inside the step while the others go on.
        price = estimator is EstimatorKind.BONNET_PRICE
        expected = {"completed", "energy"} | ({"step"} if price else set())
        assert endings == expected

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_records_are_one_array_diverged_on_the_last_row(self, algorithm):
        config, target, q0, chains = self.batch(algorithm, EstimatorKind.BONNET_PRICE)
        traces = run_batch(config, target, q0, chains)
        assert {trace.diverged for trace in traces} == {False, True}
        for trace in traces:
            records = trace.records
            assert records.dtype == np.dtype([
                ("t", np.int64), ("gamma", float), ("free_energy", float),
                ("free_energy_se", float), ("w2_sq", float), ("diverged", bool),
            ])
            assert not records.flags.writeable
            np.testing.assert_array_equal(records.t, np.arange(len(records)))
            diverged = np.zeros(len(records), dtype=bool)
            diverged[-1] = trace.diverged
            np.testing.assert_array_equal(records.diverged, diverged)
            assert not np.isnan(records.w2_sq).any()  # a quadratic target has an optimum

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_frozen_chain_diverges_at_its_own_t(self, algorithm):
        config, target, q0, chains = self.batch(algorithm, EstimatorKind.BONNET_REPARAM)
        traces = run_batch(config, target, q0, chains)
        ends = {len(t.records) - 1 for t in traces if t.diverged}
        assert len(ends) > 1 and max(ends) < config.max_iters
        assert any(len(t.records) == config.max_iters + 1 for t in traces)  # the others went on
        for chain, trace in zip(chains, traces):
            alone = run(config, target, q0, *chain)
            assert trace.records[-1].t == alone.records[-1].t
            assert trace.records[-1].diverged == alone.records[-1].diverged
            np.testing.assert_array_equal(trace.final_state.scale, alone.final_state.scale)

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_nonpositive_step_diverges_alone(self, algorithm):
        target = random_quadratic(2, 5.0, seed=3)
        q0 = GaussianVariational.isotropic(2, 0.0, 0.34)
        config = OptimizerConfig(algorithm=algorithm, max_iters=20)
        steady = constant_schedule(0.01)
        chains = [(steady, 0, 0), (ZeroAt(0.01, 7), 0, 1), (steady, 1, 2)]
        traces = run_batch(config, target, q0, chains)
        assert [t.diverged for t in traces] == [False, True, False]
        assert traces[1].records[-1].t == 7 and traces[1].records[-1].gamma == 0.0
        for chain, trace in zip(chains, traces):
            assert_same_trace(trace, run(config, target, q0, *chain))

    @pytest.mark.parametrize("algorithm, estimator", PAIRS)
    def test_stack_mixing_fast_and_fallback_lineages(self, monkeypatch, algorithm, estimator):
        # Lineages on both sides of each one-word boundary, and step sizes
        # that freeze chains inside and across the noise source's blocks.
        config, target, q0, _ = self.batch(algorithm, estimator)
        lineages = [(3, 0), (2**128 - 1, 2**32 - 1), (2**128, 4), (7, 2**32), (11, 5)]
        gammas = (1e-3, 0.05, 0.3, 1e4, 0.05)
        chains = [(constant_schedule(g), *lineage) for g, lineage in zip(gammas, lineages)]
        traces = run_batch(config, target, q0, chains)
        assert {t.diverged for t in traces} == {False, True}
        for chain, trace in zip(chains, traces):
            assert_same_trace(trace, run(config, target, q0, *chain))
        monkeypatch.setattr(bwvi.optimizers, "_LockStepNoise", SeedSequenceNoise)
        for trace, reference in zip(traces, run_batch(config, target, q0, chains)):
            assert_same_trace(trace, reference)

    @settings(max_examples=100, deadline=5000)
    @given(
        algorithm=st.sampled_from(list(Algorithm)),
        estimator=st.sampled_from(list(EstimatorKind)),
        dim=st.integers(1, 6),
        iterations=st.integers(0, 70),
        variance=st.floats(1e-12, 1e8),
        chains=st.lists(
            st.tuples(
                st.floats(1e-8, 1.0),
                st.none() | st.tuples(st.integers(0, 70), st.sampled_from([0.0, math.nan])),
                st.integers(0, 2**32) | st.sampled_from([2**128 - 1, 2**128]),
                st.integers(0, 99) | st.sampled_from([2**32 - 1, 2**32]),
            ),
            min_size=1, max_size=5,
        ),
    )
    def test_any_stack_row_equals_its_run_alone(
        self, algorithm, estimator, dim, iterations, variance, chains
    ):
        # Lineages on both sides of the lock-step noise's limits, runs that
        # cross its 64-iteration blocks and the W2 blocks, and a step of 0
        # or NaN at some iteration through a stub schedule.
        target = random_quadratic(dim, 10.0, seed=dim)
        q0 = GaussianVariational.isotropic(dim, 0.5, variance)
        config = OptimizerConfig(algorithm=algorithm, estimator=estimator, max_iters=iterations)
        chains = [
            (constant_schedule(gamma) if odd is None else ZeroAt(gamma, *odd), seed, stream)
            for gamma, odd, seed, stream in chains
        ]
        for chain, trace in zip(chains, run_batch(config, target, q0, chains)):
            assert_same_trace(trace, run(config, target, q0, *chain))

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_stack_with_bad_rows(self, algorithm):
        # Rows: healthy; NaN Hessian; step size 0; and, at gamma = 1e-8, a
        # Hessian that makes Sigma_half = M M' with eigenvalues (1e30, 1, 0).
        # With this rotation the stack's SPBWGD JKO output has no Cholesky
        # factor in that row; where rounding gives it one, the row's energy
        # runs away at t = 1.
        base = random_quadratic(3, 5.0, seed=3)
        rot, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        m_factor = (rot * [1e15, 1.0, 0.0]) @ rot.T
        singular = (np.eye(3) - m_factor) / 1e-8  # M = I - gamma H
        hessians = (base.precision, np.full((3, 3), np.nan), base.precision, singular)
        target = FirstStepHessians(base.precision, base.center, first=hessians)
        config = OptimizerConfig(algorithm=algorithm, max_iters=20)
        q0 = GaussianVariational.isotropic(3)
        chains = [
            (constant_schedule(0.01), 0, 0), (constant_schedule(0.01), 0, 1),
            (ZeroAt(0.01, 0), 0, 2), (constant_schedule(1e-8), 0, 3),
        ]
        traces = run_batch(config, target, q0, chains)
        assert [t.diverged for t in traces] == [False, True, True, True]
        assert [len(t.records) for t in traces[1:3]] == [1, 1]  # their step failed
        assert len(traces[3].records) <= 2  # the step fails, or the energy runs away
        assert_same_trace(traces[0], run(config, target, q0, *chains[0]))


@dataclass(frozen=True)
class KickedQuadratic(QuadraticPotential):
    """Quadratic whose gradients on row ``row`` of its ``at``-th evaluation
    (from 0) are scaled by 1e200: that chain's next mean is about 1e198, a
    valid state whose energy and W2 record overflow."""

    at: int = 0
    row: int = 0
    calls: list = field(default_factory=list, compare=False)

    def evaluate(self, z, hessian):
        values, g, h = super().evaluate(z, hessian)
        if len(self.calls) == self.at:
            g = g.copy()
            g[self.row] *= 1e200
        self.calls.append(None)
        return values, g, h


class TestW2Blocks:
    """The W2 column is taken for blocks of iterates after their steps: the
    block size changes no bit of a trace, and the blocks are what the
    coupling-cost calls count."""

    def assert_block_size_changes_nothing(self, monkeypatch, config, target, q0, chains):
        blocked = run_batch(config, target, q0, chains)
        monkeypatch.setattr(bwvi.optimizers, "_W2_BLOCK", 1)  # every iteration its own block
        for a, b in zip(blocked, run_batch(config, target, q0, chains), strict=True):
            assert_same_trace(a, b)
        return blocked

    @pytest.mark.parametrize("algorithm, estimator", PAIRS)
    def test_mixed_freezing_batch(self, monkeypatch, algorithm, estimator):
        self.assert_block_size_changes_nothing(monkeypatch, *TestRunBatch().batch(algorithm, estimator))

    def test_single_chain_freezing_inside_a_block(self, monkeypatch):
        # At d = 5 one chain takes 41 iterates per block; it stops at
        # t = 100, inside its third block.
        target = random_quadratic(5, 10.0, seed=4)
        q0 = GaussianVariational.isotropic(5, 0.0, 0.34)
        config = OptimizerConfig(max_iters=300)
        [trace] = self.assert_block_size_changes_nothing(
            monkeypatch, config, target, q0, [(ZeroAt(0.01, 100), 0, 0)]
        )
        assert trace.diverged and len(trace.records) == 101
        assert np.isfinite(trace.w2_history).all()

    def test_dimension_50(self, monkeypatch):
        target = random_quadratic(50, 10.0, seed=2)
        q0 = GaussianVariational.isotropic(50, 0.0, 0.34)
        config = OptimizerConfig(algorithm=Algorithm.SPBWGD, max_iters=20)
        chains = [(constant_schedule(1e-3), seed, 0) for seed in (0, 1)]
        self.assert_block_size_changes_nothing(monkeypatch, config, target, q0, chains)

    @pytest.mark.parametrize("max_iters", [25, 60])
    def test_overflow_inside_a_block_is_inf_in_its_row_only(self, max_iters):
        # Three chains at d = 5 take 14 iterates per block; chain 1's mean
        # jumps at t = 21, inside the block from t = 14, which is the run's
        # last at T = 25.  Its energy and W2 record overflow there, and no
        # RuntimeWarning escapes.
        base = random_quadratic(5, 10.0, seed=4)
        q0 = GaussianVariational.isotropic(5, 0.0, 0.34)
        config = OptimizerConfig(max_iters=max_iters)
        chains = [(constant_schedule(0.01), seed, 0) for seed in range(3)]
        traces = run_batch(config, KickedQuadratic(base.precision, base.center, at=20, row=1), q0, chains)
        kicked = traces[1]
        assert kicked.diverged and len(kicked.records) == 22
        assert kicked.records.w2_sq[-1] == math.inf and np.isfinite(kicked.records.w2_sq[:-1]).all()
        assert_same_trace(kicked, run(config, KickedQuadratic(base.precision, base.center, at=20), q0, *chains[1]))
        for k in (0, 2):
            assert_same_trace(traces[k], run(config, base, q0, *chains[k]))

    @pytest.mark.parametrize("dim, max_iters", [(5, 400), (50, 30)])
    def test_coupling_cost_calls(self, monkeypatch, dim, max_iters):
        calls = []

        def counting(*args):
            calls.append(None)
            return _coupling_cost(*args)

        monkeypatch.setattr(bwvi.optimizers, "_coupling_cost", counting)
        target = random_quadratic(dim, 10.0, seed=2)
        q0 = GaussianVariational.isotropic(dim, 0.0, 0.34)
        trace = run(OptimizerConfig(max_iters=max_iters), target, q0, constant_schedule(1e-3), seed=0)
        assert not trace.diverged
        if dim == 5:
            assert len(calls) <= math.ceil((max_iters + 1) * 25 / 1024)  # 10 blocks
        else:
            assert len(calls) == max_iters + 1  # 2500 entries: one iterate per block


@dataclass(frozen=True)
class CountingQuadratic(QuadraticPotential):
    """Quadratic that counts its ``evaluate`` calls."""

    calls: list = field(default_factory=list, compare=False)

    def evaluate(self, z, hessian):
        self.calls.append(None)
        return super().evaluate(z, hessian)


class TestSettledBlocks:
    """The loop runs only the dynamics; energies, state checks, stops and
    records are settled once per block of iterates."""

    @pytest.mark.parametrize("dim, max_iters", [(5, 400), (50, 30)])
    def test_energy_and_state_check_calls(self, monkeypatch, dim, max_iters):
        calls = {"_energy_estimate": 0, "_state_checks": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(bwvi.optimizers, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(bwvi.optimizers, name, counting)
        target = random_quadratic(dim, 10.0, seed=2)
        q0 = GaussianVariational.isotropic(dim, 0.0, 0.34)
        trace = run(OptimizerConfig(max_iters=max_iters), target, q0, constant_schedule(1e-3), seed=0)
        assert not trace.diverged
        if dim == 5:
            blocks = math.ceil((max_iters + 1) * 25 / 1024)  # 10
            assert calls == {"_energy_estimate": blocks, "_state_checks": blocks}
        else:  # one iterate per block; the last has no step to check
            assert calls == {"_energy_estimate": max_iters + 1, "_state_checks": max_iters}

    @pytest.mark.parametrize(
        "algorithm, estimator", PAIRS + [(a, EstimatorKind.EXACT) for a in Algorithm]
    )
    def test_chain_stopping_inside_a_block(self, algorithm, estimator):
        # At d = 5 one chain takes 41 iterates per block; a NaN step at
        # t = 100, inside the block from t = 82, makes a NaN state that the
        # chain steps on from to the block's end.
        base = random_quadratic(5, 10.0, seed=4)
        target = CountingQuadratic(base.precision, base.center)
        q0 = GaussianVariational.isotropic(5, 0.0, 0.34)
        config = OptimizerConfig(algorithm=algorithm, estimator=estimator, max_iters=300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(config, target, q0, ZeroAt(0.01, 100, math.nan), seed=0)
        assert trace.diverged and trace.records.t[-1] == 100
        # The run cut at t = 100 has the same records and ends at the same iterate.
        upto = run(replace(config, max_iters=100), base, q0, constant_schedule(0.01), seed=0)
        expected = upto.records.copy()
        expected[-1].gamma, expected[-1].diverged = math.nan, True
        assert trace.records.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(trace.final_state.mean, upto.final_state.mean)
        np.testing.assert_array_equal(trace.final_state.scale, upto.final_state.scale)
        if estimator is not EstimatorKind.EXACT:
            assert 101 <= len(target.calls) <= 101 + 41  # at most one block past the stop

    def test_stack_stopping_in_its_first_block_ends_there(self):
        # Three chains at d = 5 take 14 iterates per block.
        base = random_quadratic(5, 10.0, seed=4)
        target = CountingQuadratic(base.precision, base.center)
        q0 = GaussianVariational.isotropic(5, 0.0, 0.34)
        config = OptimizerConfig(max_iters=300)
        chains = [(ZeroAt(0.01, 3), 0, 0), (ZeroAt(0.01, 9, math.nan), 0, 1), (ZeroAt(0.01, 5), 0, 2)]
        traces = run_batch(config, target, q0, chains)
        assert len(target.calls) == 14
        assert [len(t.records) for t in traces] == [4, 10, 6]
        for chain, trace in zip(chains, traces):
            assert_same_trace(trace, run(config, base, q0, *chain))


class TestConfigValidation:
    def test_rejects_bad_minibatch(self):
        with pytest.raises(InvalidParameters):
            OptimizerConfig(minibatch=0)

    def test_rejects_negative_iters(self):
        with pytest.raises(InvalidParameters):
            OptimizerConfig(max_iters=-1)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="newton")


def test_w2_record_of_an_overflowing_chain_is_inf():
    target = random_quadratic(2, 5.0, seed=3)
    q_star = quadratic_optimum(target)
    rng = np.random.default_rng(8)
    # Valid (finite, lower-triangular, positive diagonal), but C C' overflows.
    overflowing = GaussianVariational(np.zeros(2), np.array([[1.0, 0.0], [1e200, 1.0]]))
    states = [random_state(rng, 2), overflowing, random_state(rng, 2)]
    stack = _Chains(*(np.stack([getattr(q, a) for q in states]) for a in ("mean", "scale")))
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = _w2_records(q_star, _sqrt_and_inv_sqrt(q_star.sigma), stack)
    assert w2[1] == math.inf
    assert [w2[0], w2[2]] == [w2_distance_sq(q_star, states[k]) for k in (0, 2)]


def test_w2_block_with_overflowing_rows_is_inf_there_only():
    # A block of three iterates of two chains: chain 0's covariance overflows
    # at its second, chain 1's squared mean shift at its third.  Both states
    # are valid and their energies finite, so neither chain stops.
    target = random_quadratic(2, 5.0, seed=3)
    q_star = quadratic_optimum(target)
    rng = np.random.default_rng(9)
    overflowing = GaussianVariational(np.zeros(2), np.array([[1.0, 0.0], [1e200, 1.0]]))
    far = GaussianVariational(np.full(2, 1e300), np.eye(2))
    s = [random_state(rng, 2) for _ in range(4)]

    def stack(*states):
        return _Chains(*(np.stack([getattr(q, a) for q in states]) for a in ("mean", "scale")))

    values = np.zeros((2, 8))
    pending = [
        _Iterate(0, [0.1, 0.1], stack(s[0], s[1]), values),
        _Iterate(1, [0.1, 0.1], stack(overflowing, s[2]), values),
        _Iterate(2, [0.1, 0.1], stack(s[3], far), values),
    ]
    ledger = _Ledger(OptimizerConfig(), target, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert ledger.settle([0, 1], pending, stack(s[0], s[1])) == []
    w2 = [[row[4] for row in rows] for rows in ledger.rows]
    direct = [w2_distance_sq(q_star, q) for q in s]
    assert w2 == [[direct[0], math.inf, direct[3]], [direct[1], direct[2], math.inf]]
    assert ledger.finals == [None, None]  # no chain stopped, and the run goes on
