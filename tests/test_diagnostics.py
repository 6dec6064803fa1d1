import math
from collections import Counter

import numpy as np
import pytest

from bwvi.diagnostics import (
    _PROBE_BLOCK,
    bregman_energy_quadratic,
    estimator_second_moment,
    free_energy_exact_quadratic,
    free_energy_mc,
    theory_constants,
)
from bwvi.errors import InvalidParameters
from bwvi.estimators import EstimatorKind, _bw_gradient, _param_gradient
from bwvi.geometry import (
    GaussianVariational,
    optimal_transport_map,
    sample,
    w2_distance_sq,
)
from bwvi.targets import QuadraticPotential, quadratic_optimum, random_quadratic

from conftest import random_state


class TestFreeEnergyMc:
    def test_standard_normal_matches_closed_form(self):
        target = QuadraticPotential(np.eye(1), np.zeros(1))
        q = GaussianVariational.isotropic(1)
        exact = -0.5 * math.log(2.0 * math.pi)
        est = free_energy_mc(q, target, 4096, seed=0)
        assert abs(est.value - exact) <= 5.0 * est.std_error
        np.testing.assert_allclose(free_energy_exact_quadratic(q, target), exact, rtol=1e-12)

    def test_point_mass_energy_vanishes(self):
        target = QuadraticPotential(np.eye(2), np.array([1.0, -1.0]))
        q = GaussianVariational(target.center, 1e-8 * np.eye(2))
        est = free_energy_mc(q, target, 256, seed=1)
        from bwvi.geometry import entropy

        assert abs(est.value - entropy(q)) <= 1e-10

    def test_reproducible_given_seed(self):
        target = random_quadratic(3, 4.0, seed=2)
        q = random_state(np.random.default_rng(3), 3)
        a = free_energy_mc(q, target, 512, seed=7)
        b = free_energy_mc(q, target, 512, seed=7)
        assert a == b

    def test_requires_two_samples(self):
        target = random_quadratic(2, 2.0, seed=0)
        with pytest.raises(InvalidParameters):
            free_energy_mc(GaussianVariational.isotropic(2), target, 1, seed=0)

    def test_agreement_across_random_states(self, rng):
        for i in range(30):
            dim = int(rng.integers(1, 5))
            target = random_quadratic(dim, float(10 ** rng.uniform(0, 1.2)), seed=100 + i)
            q = random_state(rng, dim)
            est = free_energy_mc(q, target, 4096, seed=200 + i)
            exact = free_energy_exact_quadratic(q, target)
            assert abs(est.value - exact) <= 5.0 * est.std_error


class TestFreeEnergyExact:
    def test_one_dimensional_value(self):
        target = QuadraticPotential(np.eye(1), np.zeros(1))
        q = GaussianVariational.isotropic(1)
        np.testing.assert_allclose(
            free_energy_exact_quadratic(q, target), 0.5 - 0.5 * math.log(2 * math.pi * math.e),
            rtol=1e-12,
        )

    def test_optimum_minimizes(self, rng):
        target = random_quadratic(3, 6.0, seed=4)
        q_star = quadratic_optimum(target)
        best = free_energy_exact_quadratic(q_star, target)
        for _ in range(1000):
            scale = q_star.scale + np.tril(rng.standard_normal((3, 3)) * 0.05)
            if np.any(np.diag(scale) <= 0):
                continue
            q = GaussianVariational(q_star.mean + rng.standard_normal(3) * 0.1, scale)
            assert free_energy_exact_quadratic(q, target) >= best


class TestBregmanEnergy:
    def test_zero_at_optimum(self):
        target = random_quadratic(3, 5.0, seed=5)
        q_star = quadratic_optimum(target)
        assert bregman_energy_quadratic(q_star, q_star, target) <= 1e-12

    def test_identity_precision_is_half_w2(self, rng):
        target = QuadraticPotential(np.eye(3), rng.standard_normal(3))
        q_star = quadratic_optimum(target)
        q = random_state(rng, 3)
        d_e = bregman_energy_quadratic(q, q_star, target)
        np.testing.assert_allclose(d_e, 0.5 * w2_distance_sq(q, q_star), rtol=1e-9)

    def test_matches_coupled_monte_carlo(self, rng):
        target = random_quadratic(3, 7.0, seed=6)
        q_star = quadratic_optimum(target)
        q = random_state(rng, 3, mean_scale=1.5)
        linear, shift = optimal_transport_map(q, q_star)
        n = 1_000_000
        x = sample(q, rng.standard_normal((n, 3)))
        x_star = x @ linear.T + shift
        diff = x - x_star
        d_u = (
            target.value(x) - target.value(x_star)
            - np.sum(target.evaluate(x_star, False)[1] * diff, axis=1)
        )
        se = d_u.std(ddof=1) / math.sqrt(n)
        assert abs(d_u.mean() - bregman_energy_quadratic(q, q_star, target)) <= 5.0 * se

    def test_sandwich(self, rng):
        for i in range(50):
            dim = int(rng.integers(1, 5))
            target = random_quadratic(dim, float(10 ** rng.uniform(0, 1.5)), seed=300 + i)
            meta = target.metadata
            q_star = quadratic_optimum(target)
            q = random_state(rng, dim, mean_scale=1.5)
            w2 = w2_distance_sq(q, q_star)
            d_e = bregman_energy_quadratic(q, q_star, target)
            assert 0.5 * meta.strong_convexity * w2 - 1e-10 <= d_e
            assert d_e <= 0.5 * meta.smoothness * w2 + 1e-10

    def test_coercivity_probe(self, rng):
        # coupled inner product of the exact field differences dominates
        # (mu/2) W2^2 + D_E; in closed form the left side is
        # dm' A dm + tr((I - S) A (I - S) Sigma_q)
        for i in range(30):
            dim = int(rng.integers(1, 5))
            target = random_quadratic(dim, float(10 ** rng.uniform(0, 1.5)), seed=400 + i)
            meta = target.metadata
            q_star = quadratic_optimum(target)
            q = random_state(rng, dim, mean_scale=1.5)
            s, _ = optimal_transport_map(q, q_star)
            residual = np.eye(dim) - s
            dm = q.mean - q_star.mean
            lhs = float(dm @ target.precision @ dm) + float(
                np.trace(residual @ target.precision @ residual @ q.sigma)
            )
            rhs = 0.5 * meta.strong_convexity * w2_distance_sq(q, q_star)
            rhs += bregman_energy_quadratic(q, q_star, target)
            assert lhs >= rhs - 1e-8


def closed_form_second_moment(kind, geometry, q, q_star, target, n, seed):
    """``estimator_second_moment`` written out draw by draw from the closed
    forms of the quadratic target's estimators, on the probe's own stream."""
    a, b, c = target.precision, target.center, q.scale
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(97,)))
    if geometry == "bw":
        linear, shift = optimal_transport_map(q, q_star)
        x = sample(q, rng.standard_normal((n, q.dim)))
        centered = x - q.mean
    if kind is EstimatorKind.EXACT:
        loc = np.broadcast_to(a @ (q.mean - b), (n, q.dim))
    else:
        eps = rng.standard_normal((n, q.dim))
        loc = (sample(q, eps) - b) @ a  # one single-draw gradient per row
    if geometry == "bw":
        if kind is EstimatorKind.BONNET_REPARAM:
            weights = np.linalg.solve(c.T, eps.T).T  # C^{-T} eps
            est = loc + weights * np.sum(loc * centered, axis=1)[:, None]
        else:
            est = loc + centered @ a
        ref = (x @ linear.T + shift - q_star.mean) @ a
        return np.mean(np.sum((est - ref) ** 2, axis=1))
    if kind is EstimatorKind.BONNET_REPARAM:
        scale = np.tril(loc[:, :, None] * eps[:, None, :])
    else:
        scale = np.broadcast_to(np.tril(a @ c), (n, q.dim, q.dim))
    scale_ref = np.tril(a @ q_star.scale)
    return np.mean(np.sum(loc**2, axis=1) + np.sum((scale - scale_ref) ** 2, axis=(1, 2)))


class CountingQuadratic(QuadraticPotential):
    """Quadratic that counts its ``evaluate`` calls (``value`` is one too)."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "calls", Counter())

    def evaluate(self, z, hessian):
        self.calls["evaluate"] += 1
        return super().evaluate(z, hessian)


def whole_array_second_moment(kind, geometry, q, q_star, target, n, seed):
    """``estimator_second_moment`` on all ``n`` draws at once: one
    ``evaluate`` call, the field of every draw in one ``einsum``, one mean;
    the reference for its row blocks."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(97,)))
    gradient = _bw_gradient if geometry == "bw" else _param_gradient
    if geometry == "bw":
        linear, shift = optimal_transport_map(q, q_star)
        x = sample(q, rng.standard_normal((n, q.dim)))
        x_star = x @ linear.T + shift
    eps = evaluation = None
    if kind is not EstimatorKind.EXACT:
        eps = rng.standard_normal((n, q.dim))
        u, g, mean_hess = target.evaluate(sample(q, eps), kind is EstimatorKind.BONNET_PRICE)
        eps, evaluation = eps[:, None], (u[:, None], g[:, None], mean_hess)
    estimate = gradient(kind, target, q, eps, evaluation)
    reference = gradient(EstimatorKind.EXACT, target, q_star, None)
    if geometry == "bw":

        def field(pair, centered):
            return pair[0] + 2.0 * np.einsum("...ij,...j->...i", pair[1], centered, optimize=True)

        diff = field(estimate, x - q.mean) - field(reference, x_star - q_star.mean)
        values = np.sum(diff * diff, axis=-1)
    else:
        loc_diff, scale_diff = estimate[0] - reference[0], estimate[1] - reference[1]
        values = np.sum(loc_diff**2, axis=-1) + np.sum(scale_diff**2, axis=(-2, -1))
    return float(np.broadcast_to(values, (n,)).mean())


# Two whole blocks plus 0, 1, 2 and 7 rows, and sizes within one block.
BLOCKED_SIZES = [*(2 * _PROBE_BLOCK + r for r in (0, 1, 2, 7)), 1, 2, 50, _PROBE_BLOCK]


class TestSecondMoment:
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("geometry", ["bw", "param"])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_matches_per_draw_closed_forms(self, kind, geometry, dim):
        target = random_quadratic(dim, 4.0, seed=11 + dim)
        q_star = quadratic_optimum(target)
        q = random_state(np.random.default_rng(dim), dim, mean_scale=1.5)
        got = estimator_second_moment(kind, geometry, q, q_star, target, n=3000, seed=4)
        want = closed_form_second_moment(kind, geometry, q, q_star, target, 3000, 4)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("geometry", ["bw", "param"])
    def test_one_evaluation_per_probe(self, kind, geometry):
        quad = random_quadratic(3, 4.0, seed=12)
        target = CountingQuadratic(quad.precision, quad.center)
        q = random_state(np.random.default_rng(5), 3)
        estimator_second_moment(kind, geometry, q, quadratic_optimum(quad), target, n=50)
        stochastic = kind is not EstimatorKind.EXACT
        assert target.calls == Counter(evaluate=1 if stochastic else 0)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("geometry", ["bw", "param"])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_row_blocks_equal_the_whole_array(self, kind, geometry, dim):
        target = random_quadratic(dim, 4.0, seed=20 + dim)
        q_star = quadratic_optimum(target)
        q = random_state(np.random.default_rng(30 + dim), dim, mean_scale=1.5)
        for n in BLOCKED_SIZES:
            got = estimator_second_moment(kind, geometry, q, q_star, target, n=n, seed=n)
            want = whole_array_second_moment(kind, geometry, q, q_star, target, n, n)
            assert got.hex() == want.hex(), n

    @pytest.mark.parametrize("kind", [EstimatorKind.BONNET_PRICE, EstimatorKind.BONNET_REPARAM])
    def test_one_evaluation_per_row_block(self, kind):
        quad = random_quadratic(3, 4.0, seed=12)
        seen = []

        class RowRecorder(QuadraticPotential):
            def evaluate(self, z, hessian):
                seen.append(z)
                return super().evaluate(z, hessian)

        target = RowRecorder(quad.precision, quad.center)
        q = random_state(np.random.default_rng(5), 3)
        n = 3 * _PROBE_BLOCK + 7
        estimator_second_moment(kind, "param", q, quadratic_optimum(quad), target, n=n, seed=3)
        k = math.ceil(n / _PROBE_BLOCK)  # blocks of near-equal size, bounds n * i // k
        assert [len(z) for z in seen] == [n * (i + 1) // k - n * i // k for i in range(k)]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(97,)))
        every_row = sample(q, rng.standard_normal((n, 3)))
        assert np.array_equal(np.concatenate(seen), every_row)

    def test_zero_for_exact_gradients_at_optimum(self):
        target = random_quadratic(3, 4.0, seed=8)
        q_star = quadratic_optimum(target)
        for geometry in ("bw", "param"):
            val = estimator_second_moment(
                EstimatorKind.EXACT, geometry, q_star, q_star, target, n=100, seed=0
            )
            assert val <= 1e-18

    def test_bound_holds_at_small_n(self, rng):
        target = random_quadratic(3, 4.0, seed=9)
        consts = theory_constants(target.metadata)
        q_star = quadratic_optimum(target)
        q = random_state(rng, 3, mean_scale=1.5)
        d_e = bregman_energy_quadratic(q, q_star, target)
        bound = 1.5 * (4.0 * consts.expected_smoothness * d_e + 2.0 * consts.additive_noise)
        for geometry in ("bw", "param"):
            val = estimator_second_moment(
                EstimatorKind.BONNET_PRICE, geometry, q, q_star, target, n=20_000, seed=1
            )
            assert val <= bound

    def test_self_consistency_when_doubling_n(self):
        target = random_quadratic(3, 4.0, seed=9)
        q_star = quadratic_optimum(target)
        q = random_state(np.random.default_rng(10), 3)
        # scatter of independent small-n estimates calibrates the SE
        pilots = [
            estimator_second_moment(
                EstimatorKind.BONNET_PRICE, "bw", q, q_star, target, n=10_000, seed=100 + k
            )
            for k in range(10)
        ]
        se_small = np.std(pilots, ddof=1)
        a = estimator_second_moment(
            EstimatorKind.BONNET_PRICE, "bw", q, q_star, target, n=40_000, seed=2
        )
        b = estimator_second_moment(
            EstimatorKind.BONNET_PRICE, "bw", q, q_star, target, n=80_000, seed=3
        )
        combined = se_small * math.sqrt(10_000 / 40_000 + 10_000 / 80_000)
        assert abs(a - b) <= 5.0 * combined

    def test_rejects_unknown_geometry(self):
        target = random_quadratic(2, 2.0, seed=0)
        q_star = quadratic_optimum(target)
        with pytest.raises(InvalidParameters):
            estimator_second_moment(
                EstimatorKind.BONNET_PRICE, "euclidean", q_star, q_star, target, n=10
            )


class TestMisc:
    def test_theory_constants(self):
        target = random_quadratic(4, 9.0, seed=1)
        consts = theory_constants(target.metadata)
        meta = target.metadata
        np.testing.assert_allclose(
            consts.expected_smoothness, 2.5 * meta.smoothness * meta.condition_number
        )
        np.testing.assert_allclose(consts.additive_noise, 5.0 * meta.dim * meta.smoothness)
        assert consts.expected_smoothness >= meta.smoothness
        assert consts.additive_noise >= 0.0
