import math

import numpy as np
import pytest
import scipy.linalg

from bwvi.errors import DimensionMismatch, NotPositiveDefinite
from bwvi.geometry import (
    LOG_2PI,
    GaussianVariational,
    _Chains,
    _row_blocks,
    _sqrt_and_inv_sqrt,
    _sqrt_symmetric,
    _state_checks,
    _w2_sq,
    cholesky_factor,
    entropy,
    optimal_transport_map,
    sample,
    w2_distance_sq,
)

from conftest import random_spd, random_state


def trace_formula_w2_sq(p, q):
    """Textbook closed form, used as an independent oracle: its roots come
    from scipy, so it shares no code with what it checks."""
    sp, sq = p.sigma, q.sigma
    root = scipy.linalg.sqrtm(sp).real
    cross = scipy.linalg.sqrtm(root @ sq @ root).real
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


def reference_state_checks(mean, scale):
    """The state checks in their ``.all``/``.any`` form."""
    upper = np.triu(np.ones(scale.shape[-2:], dtype=bool), k=1)
    finite = np.isfinite(mean).all(axis=-1) & np.isfinite(scale).all(axis=(-2, -1))
    lower = ~scale[..., upper].any(axis=-1)
    positive = (scale.diagonal(axis1=-2, axis2=-1) > 0.0).all(axis=-1)
    return finite, lower, positive


#: Entries that sit on the edge of a check: non-finite, signed zeros and subnormals.
EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.0)


class TestStateChecks:
    def edge_states(self, rng, dim):
        """A valid state, then one copy per edge value put in the mean, on
        the diagonal, above it and below it: means ``(B, d)``, scales ``(B, d, d)``."""
        q = random_state(rng, dim)
        means, scales = [q.mean], [q.scale]
        places = [("mean", 0), ("scale", (dim - 1, dim - 1))]
        if dim > 1:
            places += [("scale", (0, dim - 1)), ("scale", (dim - 1, 0))]
        for value in EDGE_VALUES:
            for array, index in places:
                mean, scale = q.mean.copy(), q.scale.copy()
                (mean if array == "mean" else scale)[index] = value
                means.append(mean)
                scales.append(scale)
        return np.stack(means), np.stack(scales)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_stack_equals_all_any_form(self, rng, dim):
        means, scales = self.edge_states(rng, dim)
        checks = _state_checks(means, scales)
        for got, expected in zip(checks, reference_state_checks(means, scales)):
            assert got.dtype == bool and got.shape == (len(means),)
            np.testing.assert_array_equal(got, expected)
        assert not np.logical_and.reduce(checks).all() and np.logical_and.reduce(checks).any()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_single_state_equals_all_any_form(self, rng, dim):
        for mean, scale in zip(*self.edge_states(rng, dim)):
            for got, expected in zip(_state_checks(mean, scale), reference_state_checks(mean, scale)):
                assert type(got) is np.bool_ and got == expected


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
    """``_sqrt_symmetric``, the one PSD root (of the transport map's congruence)."""

    def test_scaled_identity(self):
        np.testing.assert_allclose(_sqrt_symmetric(4.0 * np.eye(3)), 2.0 * np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(_sqrt_symmetric(np.diag([1.0, 9.0])), np.diag([1.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 4)
        r = _sqrt_symmetric(0.5 * (a + a.T))
        assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)
        assert np.max(np.abs(r - r.T)) <= 1e-12

    def test_clamps_tiny_negative_eigenvalues(self):
        r = _sqrt_symmetric(np.diag([1.0, -1e-14]))
        assert np.all(np.linalg.eigvalsh(r) >= 0)

    def test_clips_negative_eigenvalues(self):
        # the congruence the root is taken of is PSD by construction, so a
        # negative eigenvalue is round-off however large it is
        np.testing.assert_array_equal(_sqrt_symmetric(np.diag([4.0, -0.5])), np.diag([2.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        # eigh returns garbage rather than failing on some such inputs
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


def stack(states) -> _Chains:
    return _Chains(np.stack([q.mean for q in states]), np.stack([q.scale for q in states]))


class TestStackedW2:
    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_bitwise_equal_to_single_pairs(self, dim):
        rng = np.random.default_rng(dim)
        ps = [random_state(rng, dim) for _ in range(6)]
        qs = [random_state(rng, dim) for _ in range(6)]
        q_star = random_state(rng, dim)
        roots = _sqrt_and_inv_sqrt(stack(ps).sigma)
        for k, p in enumerate(ps):
            for stacked, single in zip(roots, _sqrt_and_inv_sqrt(p.sigma)):
                assert stacked[k].tobytes() == single.tobytes()

        def bits(values):
            return np.asarray(values, dtype=float).tobytes()

        # stack against stack, and a stack against one state on either side
        pairwise = [w2_distance_sq(p, q) for p, q in zip(ps, qs)]
        assert bits(_w2_sq(stack(ps), stack(qs))) == bits(pairwise)
        assert bits(_w2_sq(stack(ps), q_star)) == bits([w2_distance_sq(p, q_star) for p in ps])
        assert bits(_w2_sq(q_star, stack(ps))) == bits([w2_distance_sq(q_star, p) for p in ps])

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_one_non_pd_matrix_in_a_stack_raises(self, bad):
        sigma = np.stack([np.eye(3), np.diag([1.0, bad, 2.0]), np.eye(3)])
        with pytest.raises(NotPositiveDefinite):
            _sqrt_and_inv_sqrt(sigma)


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

    @pytest.mark.parametrize("chains, dim", [((), 1), ((), 5), ((1,), 3), ((7,), 40)])
    def test_bitwise_equal_to_sum_form(self, rng, chains, dim):
        scale = np.tril(rng.standard_normal(chains + (dim, dim)))
        idx = np.arange(dim)
        scale[..., idx, idx] = 10.0 ** rng.uniform(-150, 150, chains + (dim,))
        q = _Chains(np.zeros(chains + (dim,)), scale)
        log_diag = np.log(scale.diagonal(axis1=-2, axis2=-1))
        expected = -0.5 * dim * (LOG_2PI + 1.0) - log_diag.sum(axis=-1)
        got = entropy(q)
        assert np.shape(got) == chains and np.array_equal(got, expected)


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


@pytest.mark.parametrize("rows", [4, 256, 4096])
def test_row_blocks_split_evenly_without_one_row_blocks(rows):
    for n in [*range(1, 3 * rows + 9), 10 * rows + 1]:
        blocks = _row_blocks(n, rows)
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) == math.ceil(n / rows)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= rows
        assert min(sizes) >= min(n, 2), n  # one row takes matmul's vector path
