import math

import numpy as np
import pytest

from bwvi.errors import DimensionMismatch, IndefiniteMatrix, NotPositiveDefinite, NotSymmetric
from bwvi.geometry import (
    GaussianVariational,
    _sqrt_symmetric,
    cholesky_factor,
    entropy,
    matrix_sqrt_psd,
    optimal_transport_map,
    sample,
    w2_distance_sq,
)

from conftest import random_spd, random_state


def trace_formula_w2_sq(p, q):
    """Textbook closed form, used as an independent oracle."""
    sp, sq = p.sigma, q.sigma
    root = matrix_sqrt_psd(sp)
    cross = matrix_sqrt_psd(0.5 * (root @ sq @ root + (root @ sq @ root).T))
    dm = p.mean - q.mean
    return float(dm @ dm + np.trace(sp + sq - 2.0 * cross))


class TestState:
    def test_rejects_non_triangular_scale(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianVariational(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianVariational(np.zeros(2), np.array([[1.0, 0.0], [0.3, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianVariational(np.zeros(3), np.eye(2))

    def test_sigma_is_spd(self, rng):
        q = random_state(rng, 4)
        np.testing.assert_allclose(q.sigma, q.sigma.T)
        assert np.linalg.eigvalsh(q.sigma)[0] > 0

    def test_immutable_arrays(self, rng):
        q = random_state(rng, 3)
        with pytest.raises(ValueError):
            q.mean[0] = 1.0


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_factor(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(
            cholesky_factor(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
        )

    def test_reconstruction(self, rng):
        b = rng.standard_normal((3, 3))
        a = b @ b.T + 0.1 * np.eye(3)
        c = cholesky_factor(a)
        assert np.linalg.norm(c @ c.T - a) <= 1e-12 * np.linalg.norm(a)
        assert np.all(np.diag(c) > 0)

    def test_reconstruction_property(self, rng):
        for _ in range(30):
            a = random_spd(rng, int(rng.integers(1, 6)))
            c = cholesky_factor(a)
            assert np.linalg.norm(c @ c.T - a) <= 1e-12 * np.linalg.norm(a)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestMatrixSqrt:
    def test_scaled_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(4.0 * np.eye(3)), 2.0 * np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.diag([1.0, 9.0])), np.diag([1.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 4)
        r = matrix_sqrt_psd(a)
        assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)
        assert np.max(np.abs(r - r.T)) <= 1e-12

    def test_clamps_tiny_negative_eigenvalues(self):
        a = np.diag([1.0, -1e-14])
        r = matrix_sqrt_psd(a)
        assert np.all(np.linalg.eigvalsh(r) >= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            matrix_sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(IndefiniteMatrix):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        # eigh returns garbage rather than failing on some such inputs
        with pytest.raises(NotPositiveDefinite):
            matrix_sqrt_psd(np.array([[bad, 1.0], [1.0, 2.0]]))


class TestSymmetricRootKernel:
    def test_bitwise_equal_to_public_root(self):
        rng = np.random.default_rng(11)
        for dim in (1, 3, 5):
            single = random_spd(rng, dim)
            stack = np.stack([random_spd(rng, dim) for _ in range(4)])
            for a in (single, stack, np.diag(np.r_[1.0, np.zeros(dim - 1)])):
                a = 0.5 * (a + a.swapaxes(-1, -2))
                assert _sqrt_symmetric(a).tobytes() == matrix_sqrt_psd(a).tobytes()

    def test_rejects_indefinite(self):
        with pytest.raises(IndefiniteMatrix):
            _sqrt_symmetric(np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotPositiveDefinite):
            _sqrt_symmetric(np.array([[bad, 1.0], [1.0, 2.0]]))


class TestW2:
    def test_identical_arguments(self):
        q = GaussianVariational.isotropic(5)
        assert w2_distance_sq(q, q) <= 1e-10

    def test_equal_covariances(self, rng):
        c = np.tril(rng.standard_normal((3, 3)) * 0.2) + np.eye(3)
        p = GaussianVariational(np.array([1.0, 2.0, 3.0]), c)
        q = GaussianVariational(np.array([0.0, 1.0, 1.0]), c)
        np.testing.assert_allclose(w2_distance_sq(p, q), 1.0 + 1.0 + 4.0, rtol=1e-10)

    def test_commuting_covariances(self):
        p = GaussianVariational.isotropic(2, variance=4.0)
        q = GaussianVariational.isotropic(2, variance=1.0)
        np.testing.assert_allclose(w2_distance_sq(p, q), 2.0, rtol=1e-10)

    def test_symmetry(self, rng):
        for _ in range(20):
            p = random_state(rng, 3)
            q = random_state(rng, 3)
            a, b = w2_distance_sq(p, q), w2_distance_sq(q, p)
            assert abs(a - b) <= 1e-10 * max(a, b)

    def test_matches_trace_formula(self, rng):
        for _ in range(20):
            p = random_state(rng, 4)
            q = random_state(rng, 4)
            a = w2_distance_sq(p, q)
            assert abs(a - trace_formula_w2_sq(p, q)) <= 1e-9 * max(1.0, a)

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            p, q, r = (random_state(rng, 3) for _ in range(3))
            dpr = math.sqrt(w2_distance_sq(p, r))
            dpq = math.sqrt(w2_distance_sq(p, q))
            dqr = math.sqrt(w2_distance_sq(q, r))
            assert dpr <= dpq + dqr + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            w2_distance_sq(GaussianVariational.isotropic(2), GaussianVariational.isotropic(3))


class TestTransportMap:
    def test_identity_transport(self, rng):
        q = random_state(rng, 3)
        s, shift = optimal_transport_map(q, q)
        np.testing.assert_allclose(s, np.eye(3), atol=1e-10)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(s @ x + shift, x, atol=1e-10)

    def test_isotropic_scaling(self):
        b = np.array([1.0, -2.0])
        p = GaussianVariational.isotropic(2, variance=1.0)
        q = GaussianVariational.isotropic(2, mean=b, variance=4.0)
        s, shift = optimal_transport_map(p, q)
        np.testing.assert_allclose(s, 2.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(shift, b, atol=1e-12)

    def test_pushforward_and_cost(self, rng):
        for _ in range(20):
            p = random_state(rng, 3)
            q = random_state(rng, 3)
            s, shift = optimal_transport_map(p, q)
            assert np.max(np.abs(s - s.T)) <= 1e-10
            assert np.linalg.eigvalsh(s)[0] > 0
            push_err = np.linalg.norm(s @ p.sigma @ s - q.sigma) / np.linalg.norm(q.sigma)
            assert push_err <= 1e-8
            # closed-form coupling cost (with the map's own shift) equals W2^2
            residual = (np.eye(3) - s) @ p.scale
            shift_part = p.mean - (s @ p.mean + shift)
            cost = float(np.sum(residual**2) + shift_part @ shift_part)
            assert abs(cost - w2_distance_sq(p, q)) <= 1e-8 * max(1.0, cost)


class TestEntropy:
    def test_standard_normal_1d(self):
        q = GaussianVariational.isotropic(1)
        np.testing.assert_allclose(entropy(q), -0.5 * math.log(2.0 * math.pi * math.e), rtol=1e-12)

    def test_translation_invariance(self):
        a = GaussianVariational.isotropic(4, mean=0.0)
        b = GaussianVariational.isotropic(4, mean=np.array([5.0, -1.0, 2.0, 0.5]))
        assert entropy(a) == entropy(b)

    def test_scale_shift(self):
        q = GaussianVariational.isotropic(1, variance=math.e**2)
        np.testing.assert_allclose(
            entropy(q), -0.5 * math.log(2.0 * math.pi * math.e) - 1.0, rtol=1e-12
        )

    def test_matches_monte_carlo_log_density(self, rng):
        q = random_state(rng, 3)
        n = 1_000_000
        z = sample(q, rng.standard_normal((n, 3)))
        diff = z - q.mean
        white = np.linalg.solve(q.scale, diff.T).T
        log_q = (
            -0.5 * 3 * math.log(2.0 * math.pi)
            - np.sum(np.log(np.diag(q.scale)))
            - 0.5 * np.sum(white**2, axis=1)
        )
        se = log_q.std(ddof=1) / math.sqrt(n)
        assert abs(log_q.mean() - entropy(q)) <= 5.0 * se


class TestSample:
    def test_zero_noise_returns_mean(self):
        q = GaussianVariational(np.array([1.0, 2.0]), np.eye(2))
        np.testing.assert_array_equal(sample(q, np.zeros(2)), [1.0, 2.0])

    def test_identity_map(self):
        q = GaussianVariational.isotropic(2)
        np.testing.assert_array_equal(sample(q, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_diagonal_arithmetic(self):
        q = GaussianVariational(np.array([1.0, 1.0]), np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(sample(q, np.array([1.0, 1.0])), [3.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample(GaussianVariational.isotropic(2), np.zeros(3))
