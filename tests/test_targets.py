import math

import numpy as np
import pytest

from bwvi.errors import DimensionMismatch, InvalidParameters, LabelError, NotPositiveDefinite, ParseError
from bwvi.geometry import w2_distance_sq
from bwvi.optimizers import spbwgd_step
from bwvi.targets import (
    LogisticRidgePotential,
    QuadraticPotential,
    _sigmoid,
    load_logistic_dataset,
    quadratic_optimum,
    random_quadratic,
)


def toy_logistic(ridge=0.5):
    rng = np.random.default_rng(5)
    design = rng.standard_normal((4, 2))
    labels = np.array([1.0, 0.0, 0.0, 1.0])
    return LogisticRidgePotential(design, labels, ridge)


def central_grad(target, x, rel=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        h = rel * (1.0 + abs(x[i]))
        up, lo = x.copy(), x.copy()
        up[i] += h
        lo[i] -= h
        g[i] = (target.value(up) - target.value(lo)) / (2.0 * h)
    return g


def central_hessian(target, x, rel=1e-5):
    h_mat = np.zeros((x.size, x.size))
    for i in range(x.size):
        h = rel * (1.0 + abs(x[i]))
        up, lo = x.copy(), x.copy()
        up[i] += h
        lo[i] -= h
        h_mat[:, i] = (target.grad(up) - target.grad(lo)) / (2.0 * h)
    return 0.5 * (h_mat + h_mat.T)


class TestQuadratic:
    def test_value_at_minimum(self):
        t = QuadraticPotential(np.eye(2), np.zeros(2))
        assert t.value(np.zeros(2)) == 0.0

    def test_value_arithmetic(self):
        t = QuadraticPotential(np.eye(2), np.zeros(2))
        assert t.value(np.array([1.0, 1.0])) == 1.0

    def test_grad(self):
        t = QuadraticPotential(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(t.grad(np.array([3.0, -1.0])), [3.0, -1.0])
        np.testing.assert_array_equal(t.grad(t.center), np.zeros(2))

    def test_constant_hessian(self, rng):
        t = random_quadratic(3, 5.0, seed=0)
        for _ in range(5):
            np.testing.assert_array_equal(t.hessian(rng.standard_normal(3)), t.precision)

    def test_metadata_spectrum(self):
        t = random_quadratic(4, 25.0, seed=1)
        eigs = np.linalg.eigvalsh(t.precision)
        np.testing.assert_allclose(t.metadata.strong_convexity, eigs[0], rtol=1e-12)
        np.testing.assert_allclose(t.metadata.smoothness, eigs[-1], rtol=1e-12)
        np.testing.assert_allclose(t.metadata.condition_number, 25.0, rtol=1e-10)

    def test_rejects_indefinite_precision(self):
        with pytest.raises(NotPositiveDefinite):
            QuadraticPotential(np.diag([1.0, -1.0]), np.zeros(2))


class TestLogisticRidge:
    def test_value_matches_direct_summation(self):
        t = toy_logistic()
        x = np.array([0.3, -0.7])
        direct = 0.0
        for row, label in zip(t.design, t.labels):
            logit = float(row @ x)
            direct += np.log1p(np.exp(-abs(logit))) + max(logit, 0.0) - label * logit
        direct += 0.5 * t.ridge * float(x @ x)
        assert abs(t.value(x) - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_zero_design_reduces_to_ridge(self):
        t = LogisticRidgePotential(np.zeros((3, 2)), np.array([0.0, 1.0, 0.0]), ridge=1.0)
        np.testing.assert_allclose(t.hessian(np.array([0.5, -2.0])), np.eye(2), atol=1e-15)

    def test_metadata(self):
        t = toy_logistic(ridge=0.25)
        assert t.metadata.strong_convexity == 0.25
        gram_top = np.linalg.eigvalsh(t.design.T @ t.design)[-1]
        np.testing.assert_allclose(t.metadata.smoothness, 0.25 + gram_top / 4.0, rtol=1e-12)

    def test_rejects_bad_labels(self):
        with pytest.raises(LabelError):
            LogisticRidgePotential(np.ones((2, 2)), np.array([0.0, 2.0]), ridge=1.0)

    def test_rejects_nonpositive_ridge(self):
        with pytest.raises(InvalidParameters):
            LogisticRidgePotential(np.ones((2, 2)), np.array([0.0, 1.0]), ridge=0.0)

    def test_batched_evaluation_consistent(self, rng):
        t = toy_logistic()
        xs = rng.standard_normal((6, 2))
        vals = t.value(xs)
        grads = t.grad(xs)
        hess = t.hessian(xs)
        for k in range(6):
            np.testing.assert_allclose(vals[k], t.value(xs[k]), rtol=1e-14)
            np.testing.assert_allclose(grads[k], t.grad(xs[k]), atol=1e-13)
            np.testing.assert_allclose(hess[k], t.hessian(xs[k]), atol=1e-13)

    def test_hessian_helpers_consistent(self, rng):
        t = toy_logistic()
        pts = rng.standard_normal((8, 2))
        np.testing.assert_allclose(t.hessian_mean(pts), t.hessian(pts).mean(axis=0), atol=1e-14)


def where_sigmoid(t):
    """The sigmoid as two ``np.where`` branches on ``e = exp(-|t|)``."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestEvaluate:
    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("shape", [(8, 3), (4, 8, 3)], ids=["draws", "chains"])
    def test_equals_separate_oracles(self, kind, shape):
        rng = np.random.default_rng(9)
        if kind == "quadratic":
            target = random_quadratic(3, 20.0, seed=2)
        else:
            labels = rng.integers(0, 2, 30).astype(float)
            target = LogisticRidgePotential(rng.standard_normal((30, 3)), labels, ridge=0.3)
        z = 3.0 * rng.standard_normal(shape)
        values, grads, mean_hess = target.evaluate(z, True)
        np.testing.assert_allclose(values, target.value(z), rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(grads, target.grad(z))
        np.testing.assert_array_equal(mean_hess, target.hessian_mean(z))
        assert target.evaluate(z, False)[2] is None
        np.testing.assert_array_equal(target.evaluate(z, False)[1], grads)


class TestSigmoid:
    def test_bitwise_equal_to_where_form(self):
        rng = np.random.default_rng(1)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 800.0, -800.0]
        t = np.concatenate([special, 50.0 * rng.standard_normal(4000), rng.standard_normal(4000)])
        got = _sigmoid(t, np.exp(-np.abs(t)))
        assert got.tobytes() == where_sigmoid(t).tobytes()

    def test_gradient_and_hessian_weights_use_it(self):
        t = toy_logistic()
        x = np.array([[0.3, -0.7], [2.0, 1.5]])
        s = where_sigmoid(x @ t.design.T)
        np.testing.assert_array_equal(t.grad(x), (s - t.labels) @ t.design + t.ridge * x)
        w = (s * (1.0 - s)).mean(axis=0)
        expected = 0.5 * (t.design.T @ (w[:, None] * t.design))
        expected = expected + expected.T + t.ridge * np.eye(2)
        np.testing.assert_array_equal(t.hessian_mean(x), expected)


class TestLogisticValueAccuracy:
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_extreme_logits_against_scalar_reference(self, label):
        logits = [1e3, -1e3, 40.0, -40.0, 0.0, 1e-300, -1e-300]
        design = np.array(logits)[:, None]
        target = LogisticRidgePotential(design, np.full(len(logits), label), ridge=0.5)
        for x in (1.0, -1.0):
            terms = [
                max(t, 0.0) + math.log1p(math.exp(-abs(t))) - label * t
                for t in (x * v for v in logits)
            ]
            reference = math.fsum(terms) + 0.25 * x * x
            value = float(target.value(np.array([x])))
            assert abs(value - reference) <= 1e-15 * abs(reference)
            assert float(target.evaluate(np.array([[x]]), False)[0][0]) == value


class TestDerivativeOracles:
    @pytest.mark.parametrize(
        "make_target,dim",
        [
            (lambda: random_quadratic(3, 8.0, seed=2), 3),
            (lambda: toy_logistic(), 2),
        ],
    )
    def test_grad_matches_finite_differences(self, make_target, dim, rng):
        target = make_target()
        for _ in range(100):
            x = rng.standard_normal(dim) * 2.0
            g = target.grad(x)
            fd = central_grad(target, x)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize(
        "make_target,dim",
        [
            (lambda: random_quadratic(3, 8.0, seed=2), 3),
            (lambda: toy_logistic(), 2),
        ],
    )
    def test_hessian_matches_finite_differences(self, make_target, dim, rng):
        target = make_target()
        for _ in range(20):
            x = rng.standard_normal(dim) * 2.0
            h = target.hessian(x)
            fd = central_hessian(target, x)
            assert np.linalg.norm(h - fd) <= 1e-5 * max(1.0, np.linalg.norm(h))

    @pytest.mark.parametrize(
        "make_target,dim",
        [
            (lambda: random_quadratic(3, 8.0, seed=2), 3),
            (lambda: toy_logistic(), 2),
        ],
    )
    def test_hessian_eigenvalues_within_bounds(self, make_target, dim, rng):
        target = make_target()
        meta = target.metadata
        for _ in range(100):
            eigs = np.linalg.eigvalsh(target.hessian(rng.standard_normal(dim) * 3.0))
            assert eigs[0] >= meta.strong_convexity - 1e-8
            assert eigs[-1] <= meta.smoothness + 1e-8


class TestQuadraticOptimum:
    def test_standard_normal(self):
        q = quadratic_optimum(QuadraticPotential(np.eye(2), np.zeros(2)))
        np.testing.assert_array_equal(q.mean, np.zeros(2))
        np.testing.assert_allclose(q.sigma, np.eye(2), atol=1e-14)

    def test_diagonal_inversion(self):
        q = quadratic_optimum(QuadraticPotential(np.diag([2.0, 8.0]), np.array([1.0, 0.0])))
        np.testing.assert_array_equal(q.mean, [1.0, 0.0])
        np.testing.assert_allclose(q.sigma, np.diag([0.5, 0.125]), atol=1e-14)

    def test_stationarity_identities(self):
        t = random_quadratic(4, 12.0, seed=9)
        q = quadratic_optimum(t)
        assert np.linalg.norm(t.precision @ (q.mean - t.center)) <= 1e-12
        # mean Hessian equals the inverse covariance by construction
        np.testing.assert_allclose(t.precision @ q.sigma, np.eye(4), atol=1e-10)

    def test_exact_step_fixed_point(self):
        t = random_quadratic(3, 6.0, seed=10)
        q_star = quadratic_optimum(t)
        gamma = 0.3 / t.metadata.smoothness
        out = spbwgd_step(q_star, t, None, gamma, "exact")
        assert w2_distance_sq(out, q_star) <= 1e-10


class TestDatasetLoading:
    def test_reads_small_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n0,1,1\n1,0,0\n")
        design, labels = load_logistic_dataset(path)
        np.testing.assert_array_equal(design, [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(labels, [1.0, 0.0])

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n")
        with pytest.raises(ParseError):
            load_logistic_dataset(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n0,1,2\n")
        with pytest.raises(LabelError):
            load_logistic_dataset(path)

    def test_malformed_numeric(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n0,oops,1\n")
        with pytest.raises(ParseError):
            load_logistic_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_logistic_dataset(tmp_path / "nope.csv")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n0,1\n")
        with pytest.raises(ParseError):
            load_logistic_dataset(path)


class TestRandomQuadratic:
    def test_deterministic(self):
        a = random_quadratic(3, 7.0, seed=123)
        b = random_quadratic(3, 7.0, seed=123)
        np.testing.assert_array_equal(a.precision, b.precision)
        np.testing.assert_array_equal(a.center, b.center)

    def test_dimension_mismatch_on_eval(self):
        t = random_quadratic(3, 2.0, seed=0)
        with pytest.raises(DimensionMismatch):
            t.value(np.zeros(2))
