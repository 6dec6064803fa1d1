"""The stacked acceptance checks against the per-state loops they replace.

Checks 04, 05 and 10 evaluate their independent states as one stack.  Each
test here writes the per-state loop out as the reference and asserts that
the check's statistics equal it bit for bit, at small sizes (60 pairs,
60 steps).
"""

import math
import sys

import numpy as np

from bwvi import checks
from bwvi.checks import _random_state
from bwvi.diagnostics import bregman_energy_quadratic
from bwvi.geometry import (
    GaussianVariational,
    cholesky_factor,
    optimal_transport_map,
    sample,
    w2_distance_sq,
)
from bwvi.optimizers import entropy_prox, jko_entropy, spbwgd_step, spgd_step
from bwvi.targets import quadratic_optimum, random_quadratic


def statistics(monkeypatch, check, *args) -> dict:
    """The check's local variables at the moment it reports its result."""
    seen = {}
    report = checks._result

    def spy(*result):
        seen.update(sys._getframe(1).f_locals)
        return report(*result)

    monkeypatch.setattr(checks, "_result", spy)
    assert check(*args).passed
    return seen


def assert_bitwise(seen: dict, expected: dict):
    for name, value in expected.items():
        assert float(seen[name]).hex() == float(value).hex(), name


def nonexpansion_loop(pairs):
    rng = np.random.default_rng(1004)
    dim = 3
    worst_jko = -math.inf
    for _ in range(pairs):
        p = _random_state(rng, dim, mean_scale=2.0)
        q = _random_state(rng, dim, mean_scale=2.0)
        before = math.sqrt(w2_distance_sq(p, q))
        for gamma in (0.01, 0.1, 1.0):
            p2 = GaussianVariational(p.mean, cholesky_factor(jko_entropy(p.sigma, gamma)))
            q2 = GaussianVariational(q.mean, cholesky_factor(jko_entropy(q.sigma, gamma)))
            worst_jko = max(worst_jko, math.sqrt(w2_distance_sq(p2, q2)) - before)

    worst_prox = -math.inf
    idx = np.tril_indices(dim)
    for _ in range(pairs):
        lam = np.concatenate([rng.standard_normal(dim), rng.standard_normal(dim * (dim + 1) // 2)])
        lam2 = np.concatenate([rng.standard_normal(dim), rng.standard_normal(dim * (dim + 1) // 2)])
        for gamma in (0.01, 0.1, 1.0):
            out = []
            for v in (lam, lam2):
                c = np.zeros((dim, dim))
                c[idx] = v[dim:]
                out.append(np.concatenate([v[:dim], entropy_prox(c, gamma)[idx]]))
            worst_prox = max(
                worst_prox,
                float(np.linalg.norm(out[0] - out[1]) - np.linalg.norm(lam - lam2)),
            )
    return {"worst_jko": worst_jko, "worst_prox": worst_prox}


def contraction_loop(steps):
    target = random_quadratic(5, 10.0, seed=7)
    q_star = quadratic_optimum(target)
    meta = target.metadata
    gamma = 1.0 / (10.0 * meta.smoothness * meta.condition_number)
    worst = 0.0
    for step in (spgd_step, spbwgd_step):
        q = GaussianVariational.isotropic(5, 0.0, 0.34)
        prev = w2_distance_sq(q, q_star)
        for _ in range(steps):
            q = step(q, target, None, gamma, "exact")
            cur = w2_distance_sq(q, q_star)
            worst = max(worst, cur / prev)
            prev = cur
    return {"worst": worst}


def geometry_loop(coupling_samples, instances):
    rng = np.random.default_rng(1010)
    worst_mc = 0.0
    for _ in range(3):
        p = _random_state(rng, 4, mean_scale=1.5)
        q = _random_state(rng, 4, mean_scale=1.5)
        linear, shift = optimal_transport_map(p, q)
        x = sample(p, rng.standard_normal((coupling_samples, 4)))
        cost = np.sum((x - (x @ linear.T + shift)) ** 2, axis=1)
        se = cost.std(ddof=1) / math.sqrt(coupling_samples)
        worst_mc = max(worst_mc, abs(cost.mean() - w2_distance_sq(p, q)) / (5.0 * se))

    worst_push = 0.0
    for _ in range(100):
        p = _random_state(rng, 3, mean_scale=1.5)
        q = _random_state(rng, 3, mean_scale=1.5)
        s, _ = optimal_transport_map(p, q)
        err = np.max(np.abs(s @ p.sigma @ s - q.sigma)) / max(np.max(np.abs(q.sigma)), 1e-300)
        worst_push = max(worst_push, err)

    worst_sandwich = 0.0
    for i in range(instances):
        dim = int(rng.integers(1, 5))
        target = random_quadratic(dim, float(10.0 ** rng.uniform(0, 1.5)), seed=6000 + i)
        meta = target.metadata
        q_star = quadratic_optimum(target)
        q = _random_state(rng, dim, mean_scale=1.5)
        w2 = w2_distance_sq(q, q_star)
        d_e = bregman_energy_quadratic(q, q_star, target)
        lo = 0.5 * meta.strong_convexity * w2 - 1e-10
        hi = 0.5 * meta.smoothness * w2 + 1e-10
        worst_sandwich = max(worst_sandwich, lo - d_e, d_e - hi)
    return {"worst_mc": worst_mc, "worst_push": worst_push, "worst_sandwich": worst_sandwich}


def test_nonexpansiveness_equals_pair_loop(monkeypatch):
    # at 60 pairs a row-wise norm would move worst_prox by one ulp
    seen = statistics(monkeypatch, checks.check_nonexpansiveness, 60)
    assert_bitwise(seen, nonexpansion_loop(60))


def test_deterministic_contraction_equals_step_loop(monkeypatch):
    seen = statistics(monkeypatch, checks.check_deterministic_contraction, 60)
    assert_bitwise(seen, contraction_loop(60))


def test_geometry_oracles_equal_pair_loop(monkeypatch):
    seen = statistics(monkeypatch, checks.check_geometry_oracles, 2000, 20)
    assert_bitwise(seen, geometry_loop(2000, 20))
