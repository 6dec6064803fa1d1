"""Verification suite: executable identities, bounds, and protocol checks.

Every check returns a ``CheckResult`` instead of raising, so the CLI can
print one pass/fail line per check and the acceptance tests can assert on
the same code path.  All randomness is seeded; a check either always
passes or always fails for a given build.

The ``quick`` suite shrinks Monte Carlo sample counts to finish in well
under a minute; the ``full`` suite runs everything at its stated size,
including the million-sample estimator means and the step-size envelope
experiment.

Loops over independent states run as one stack (check 04's pairs, the W2
along check 05's exact paths, check 10's push-forward pairs) with each
state's own arithmetic, so the statistics equal per-state loops bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from importlib.resources import files
from typing import Callable, Iterator

import numpy as np

from .diagnostics import (
    bregman_energy_quadratic,
    estimator_second_moment,
    free_energy_exact_quadratic,
    free_energy_mc,
    theory_constants,
)
from .estimators import (
    EstimatorKind,
    _bw_gradient,
    _param_gradient,
    _stein_covariance,
    draw_noise,
    param_gradient,
    stein_weights,
)
from .geometry import (
    GaussianVariational,
    _Chains,
    _sqrt_and_inv_sqrt,
    _transport_linear,
    _w2_sq,
    cholesky_factor,
    optimal_transport_map,
    sample,
    symmetrize,
    w2_distance_sq,
)
from .harness import ExperimentConfig, execute_sweep
from .optimizers import (
    Algorithm,
    OptimizerConfig,
    entropy_prox,
    jko_entropy,
    run_batch,
    spbwgd_step,
    spgd_step,
)
from .schedules import theorem_schedule
from .targets import quadratic_optimum, random_quadratic

__all__ = ["CheckResult", "run_suite", "QUICK", "FULL"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, start: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def _random_chains(rng, count, dim, mean_scale=1.0, off_scale=0.3, diag_low=0.4, diag_high=1.6):
    """``count`` random states drawn one after another, as a stack."""
    chains = _Chains(np.empty((count, dim)), np.empty((count, dim, dim)))
    for k in range(count):
        c = np.tril(rng.standard_normal((dim, dim)) * off_scale, k=-1)
        c += np.diag(rng.uniform(diag_low, diag_high, dim))
        chains.mean[k], chains.scale[k] = rng.standard_normal(dim) * mean_scale, c
    return chains


def _random_state(rng, dim, **kw):
    chains = _random_chains(rng, 1, dim, **kw)
    return GaussianVariational(chains.mean[0], chains.scale[0])


def _pairs(chains: _Chains):
    """Even and odd chains: the two sides of pairs drawn pair by pair."""
    return (_Chains(*(a[k::2] for a in chains)) for k in (0, 1))


def check_fixed_points(instances: int = 50) -> CheckResult:
    """Exact-gradient steps at the optimum return the optimum.

    Both update rules, 50 random quadratic targets over d in {1, 2, 5, 20}
    and condition numbers up to 100, step sizes 0.5/L and 1/(10 L kappa);
    tolerance 1e-18 * (1 + tr Sigma_*) on the squared distance.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    dims = (1, 2, 5, 20)
    worst = 0.0
    for i in range(instances):
        dim = dims[i % len(dims)]
        kappa = 10.0 ** rng.uniform(0.0, 2.0)
        mu = 10.0 ** rng.uniform(-0.5, 0.5)
        target = random_quadratic(dim, kappa, seed=20_000 + i, strong_convexity=mu)
        q_star = quadratic_optimum(target)
        tol = 1e-18 * (1.0 + float(np.trace(q_star.sigma)))
        big_l = target.metadata.smoothness
        for gamma in (0.5 / big_l, 1.0 / (10.0 * big_l * target.metadata.condition_number)):
            for step in (spgd_step, spbwgd_step):
                dist = w2_distance_sq(step(q_star, target, None, gamma, "exact"), q_star)
                worst = max(worst, dist / tol)
    return _result(
        "fixed-points", start, worst <= 1.0,
        f"worst W2^2 / tolerance = {worst:.3e} over {instances} targets x 2 steps x 2 rules",
    )


def _entrywise_se(samples_a: np.ndarray, samples_b: np.ndarray, coeff: float) -> np.ndarray:
    """Std errors of ``mean_k coeff * a_k b_k'`` for column pairs."""
    n = samples_a.shape[0]
    prod_sq = (samples_a**2).T @ (samples_b**2) / n
    mean = coeff * (samples_a.T @ samples_b) / n
    var = np.clip(coeff**2 * prod_sq - mean**2, 0.0, None)
    return np.sqrt(var / n)


def check_estimator_unbiasedness(n_samples: int = 1_000_000) -> CheckResult:
    """Monte Carlo means of all five estimators hit their closed forms.

    Quadratic target, d = 5: the Hessian-based estimators are exact for
    every batch; the first-order ones must land within 5 standard errors
    of ``A (m - b)``, ``tril(A C)``, and ``A / 2`` respectively.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    target = random_quadratic(5, 4.0, seed=11)
    a, b = target.precision, target.center
    q = _random_state(rng, 5)
    m, c = q.mean, q.scale
    e = draw_noise(5, n_samples, seed=123)
    # One evaluation serves all four estimators and the standard errors.
    evaluation = target.evaluate(sample(q, e), True)
    g = evaluation[1]
    loc_mean, ps_mean = _param_gradient(EstimatorKind.BONNET_PRICE, target, q, e, evaluation)
    _, pc_mean = _bw_gradient(EstimatorKind.BONNET_PRICE, target, q, e, evaluation)
    _, rs_mean = _param_gradient(EstimatorKind.BONNET_REPARAM, target, q, e, evaluation)
    margins = []

    loc_target = a @ (m - b)
    loc_se = g.std(axis=0, ddof=1) / math.sqrt(n_samples)
    margins.append(np.max(np.abs(loc_mean - loc_target) / (5.0 * loc_se)))

    exact_tol = 1e-12 * max(1.0, float(np.max(np.abs(a))))
    margins.append(np.max(np.abs(ps_mean - np.tril(a @ c))) / exact_tol)
    margins.append(np.max(np.abs(pc_mean - 0.5 * a)) / exact_tol)

    rs_se = _entrywise_se(g, e, 1.0)
    margins.append(
        np.max(np.tril(np.abs(rs_mean - np.tril(a @ c)) / np.maximum(5.0 * rs_se, 1e-300)))
    )

    # one Stein solve gives the reparam covariance mean and the loop's weights;
    # the loop reads contiguous rows, not strided columns; the (n, d) originals
    # are released before the copies are made, so that the peak does not rise
    del evaluation
    w = stein_weights(q, e)
    rc_mean = _stein_covariance(w, g)
    g = np.ascontiguousarray(g.T)
    w = np.ascontiguousarray(w.T)
    rc_sym = symmetrize(rc_mean)
    # per-entry deviations of the symmetrized mean from A/2 in SE units
    sym_margin = 0.0
    for i in range(5):
        for j in range(i + 1):
            vals = 0.25 * (w[i] * g[j] + w[j] * g[i])
            se = vals.std(ddof=1) / math.sqrt(n_samples)
            sym_margin = max(sym_margin, abs(rc_sym[i, j] - 0.5 * a[i, j]) / (5.0 * se))
    margins.append(sym_margin)

    worst = float(np.max(margins))
    return _result(
        "estimator-unbiasedness", start, worst <= 1.0,
        f"worst deviation = {worst:.3f} (units of 5 SE / exact tol), M = {n_samples}",
    )


def check_gradient_orientation(n_samples: int = 1_000_000) -> CheckResult:
    """Scale-gradient orientation against central finite differences.

    The mini-batch mean of the Hessian-based scale gradient must match
    entry-by-entry finite differences of the closed-form quadratic energy
    ``lambda -> E(q_lambda)`` to max(5 SE, 1e-5).  This pins down
    ``hess U @ C`` (a transposed convention would fail by O(1)).
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    target = random_quadratic(5, 4.0, seed=11)
    a, b = target.precision, target.center
    q = _random_state(rng, 5)
    _, estimate = param_gradient(
        EstimatorKind.BONNET_PRICE, target, q, draw_noise(5, n_samples, seed=321)
    )

    def energy(c):
        diff = q.mean - b
        return 0.5 * diff @ a @ diff + 0.5 * np.sum((a @ c) * c)

    h = 1e-4
    worst = 0.0
    for i in range(5):
        for j in range(i + 1):
            up, lo = q.scale.copy(), q.scale.copy()
            up[i, j] += h
            lo[i, j] -= h
            fd = (energy(up) - energy(lo)) / (2.0 * h)
            worst = max(worst, abs(estimate[i, j] - fd))
    return _result(
        "gradient-orientation", start, worst <= 1e-5,
        f"max |estimate - finite difference| = {worst:.3e} (tol 1e-5)",
    )


def check_nonexpansiveness(pairs: int = 1000) -> CheckResult:
    """The entropy JKO and entropy prox are non-expansive maps.

    JKO: W2 between outputs never exceeds W2 between inputs (+1e-10), for
    step sizes {0.01, 0.1, 1}.  Prox: Euclidean parameter distance never
    grows (+1e-12); prox inputs include non-positive diagonals.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    dim = 3
    gammas = np.array([0.01, 0.1, 1.0])
    p, q = _pairs(_random_chains(rng, 2 * pairs, dim, mean_scale=2.0))

    def jko(s):  # row 3 k + i is state k after the step of size gammas[i]
        sigma = jko_entropy(np.repeat(s.sigma, 3, axis=0), np.tile(gammas, pairs))
        return _Chains(np.repeat(s.mean, 3, axis=0), cholesky_factor(sigma))

    before = np.repeat(np.sqrt(_w2_sq(p, q)), 3)
    worst_jko = float(np.max(np.sqrt(_w2_sq(jko(p), jko(q))) - before))

    # two parameter vectors (m, tril C) per pair; the prox at every step size
    idx = np.tril_indices(dim)
    lam = rng.standard_normal((pairs, 2, dim + len(idx[0])))
    c = np.zeros((pairs, 3, 2, dim, dim))
    c[..., idx[0], idx[1]] = lam[:, None, :, dim:]
    prox = entropy_prox(c, gammas[:, None])[..., idx[0], idx[1]]
    out = np.concatenate([np.broadcast_to(lam[:, None, :, :dim], (pairs, 3, 2, dim)), prox], -1)
    norm = np.linalg.norm  # one call per vector: a row-wise norm sums in another order
    gaps = (norm(o[0] - o[1]) - norm(v[0] - v[1]) for v, rows in zip(lam, out) for o in rows)
    worst_prox = float(max(gaps))
    passed = worst_jko <= 1e-10 and worst_prox <= 1e-12
    return _result(
        "non-expansiveness", start, passed,
        f"worst JKO expansion = {worst_jko:.3e} (tol 1e-10), "
        f"worst prox expansion = {worst_prox:.3e} (tol 1e-12), {pairs} pairs",
    )


def check_deterministic_contraction(steps: int = 500) -> CheckResult:
    """Exact-gradient runs contract W2^2 by at least (1 - mu gamma) per step.

    Quadratic d = 5, kappa = 10, constant gamma = 1/(10 L kappa), both
    update rules, every step.
    """
    start = time.perf_counter()
    target = random_quadratic(5, 10.0, seed=7)
    q_star = quadratic_optimum(target)
    meta = target.metadata
    gamma = 1.0 / (10.0 * meta.smoothness * meta.condition_number)
    bound = (1.0 - meta.strong_convexity * gamma) * (1.0 + 1e-8)
    worst = 0.0
    for step in (spgd_step, spbwgd_step):
        q = GaussianVariational.isotropic(5, 0.0, 0.34)
        path = _Chains(np.empty((steps + 1, 5)), np.empty((steps + 1, 5, 5)))
        path.mean[0], path.scale[0] = q.mean, q.scale
        for t in range(1, steps + 1):
            q = step(q, target, None, gamma, "exact")
            path.mean[t], path.scale[t] = q.mean, q.scale
        w2 = _w2_sq(path, q_star)
        worst = max(worst, float(np.max(w2[1:] / w2[:-1])))
    return _result(
        "deterministic-contraction", start, worst <= bound,
        f"worst per-step W2^2 ratio = {worst:.10f} vs bound {bound:.10f} over {steps} steps",
    )


def check_variance_bounds(n: int = 100_000) -> CheckResult:
    """Gradient second moments sit below their Bregman-divergence bounds.

    For the Hessian-based estimator pair in both geometries, the coupled
    second moment must not exceed 1.5 * (4 L_eps D_E + 2 sigma^2), with
    ``(L_eps, sigma^2)`` from ``theory_constants`` and D_E the closed-form
    energy Bregman divergence to the optimum.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst = 0.0
    cases = 0
    for dim in (2, 5):
        for kappa in (2.0, 10.0):
            target = random_quadratic(dim, kappa, seed=int(1000 * kappa) + dim)
            q_star = quadratic_optimum(target)
            theory = theory_constants(target.metadata)
            for rep in range(5):
                q = _random_state(rng, dim, mean_scale=1.5)
                d_e = bregman_energy_quadratic(q, q_star, target)
                bound = 1.5 * (4.0 * theory.expected_smoothness * d_e + 2.0 * theory.additive_noise)
                for geometry in ("bw", "param"):
                    moment = estimator_second_moment(
                        EstimatorKind.BONNET_PRICE, geometry, q, q_star, target,
                        n, seed=5000 + cases,
                    )
                    worst = max(worst, moment / bound)
                    cases += 1
    return _result(
        "variance-bounds", start, worst <= 1.0,
        f"worst moment / bound = {worst:.3f} over {cases} cases, n = {n}",
    )


def check_stochastic_convergence(iterations: int = 5000, seeds: int = 32) -> CheckResult:
    """Desk-scale stochastic runs reach 1% of the initial scaled distance.

    Quadratic d = 5, kappa = 10, far initialization, mini-batch 8,
    schedule from ``theorem_schedule`` with the exact initial distance;
    both algorithms with the Hessian-based estimators, averaged over
    seeds (one batch per algorithm).  Also requires the seed-averaged
    trajectory to be non-increasing after smoothing over 100-iteration
    windows.
    """
    start = time.perf_counter()
    target = random_quadratic(5, 10.0, seed=42, center_scale=4.5)
    q_star = quadratic_optimum(target)
    meta = target.metadata
    q0 = GaussianVariational.isotropic(5, 0.0, 0.34)
    initial = w2_distance_sq(q0, q_star)
    schedule = theorem_schedule(
        meta.strong_convexity, meta.smoothness, meta.dim, meta.strong_convexity * initial
    )
    opt_base = dict(
        estimator=EstimatorKind.BONNET_PRICE, minibatch=8,
        max_iters=iterations, divergence_threshold=1e12,
    )
    window = 100
    details = []
    passed = True
    for algorithm in (Algorithm.SPGD, Algorithm.SPBWGD):
        config = OptimizerConfig(algorithm=algorithm, **opt_base)
        histories = []
        for trace in run_batch(config, target, q0, [(schedule, s, 0) for s in range(seeds)]):
            if trace.diverged:
                passed = False
                break
            histories.append(trace.w2_history)
        mean_traj = np.mean(histories, axis=0)
        ratio = mean_traj[-1] / initial
        blocks = mean_traj[: (len(mean_traj) // window) * window].reshape(-1, window).mean(axis=1)
        monotone = bool(np.all(np.diff(blocks) <= 0))
        passed = passed and ratio <= 0.01 and monotone
        details.append(f"{algorithm.value}: final/initial = {ratio:.4f}, windows monotone = {monotone}")
    return _result(
        "stochastic-convergence", start, passed,
        "; ".join(details) + f" ({seeds} seeds, T = {iterations})",
    )


def check_envelope(
    iterations: int = 2000,
    repetitions: int = 8,
    points: int = 13,
    workers: int = 1,
) -> CheckResult:
    """Hessian-based estimators stay stable up to larger step sizes.

    Step-size sweep on the bundled logistic-ridge dataset: for each
    algorithm, the largest step size whose mean final free energy lands
    within 1 nat of the best observed value must be at least as large for
    the Hessian-based estimator as for the first-order one.
    """
    start = time.perf_counter()
    dataset = str(files("bwvi.data") / "toy_logistic.csv")
    config = ExperimentConfig(
        target={"kind": "logistic", "dataset": dataset, "ridge": 0.1},
        iterations=iterations, minibatch=8, repetitions=repetitions,
        seed=1, eval_samples=4096,
    )
    grid = np.geomspace(1e-6, 1.0, points)
    results = execute_sweep(config, grid, workers=workers)

    sums: dict[tuple[str, str, int], list[float]] = {}
    for res in results:
        key = (res.cell.algorithm.value, res.cell.estimator.value, res.cell.gamma_index)
        value = math.inf if res.final_free_energy is None else res.final_free_energy
        sums.setdefault(key, []).append(value)
    means = {key: float(np.mean(v)) for key, v in sums.items()}
    best = min(v for v in means.values() if math.isfinite(v))

    def largest_stable(algorithm: str, estimator: str) -> float:
        stable = [
            grid[gi]
            for gi in range(points)
            if means[(algorithm, estimator, gi)] <= best + 1.0
        ]
        return max(stable) if stable else -math.inf

    details = []
    passed = True
    for algorithm in ("spgd", "spbwgd"):
        g_price = largest_stable(algorithm, "bonnet_price")
        g_reparam = largest_stable(algorithm, "bonnet_reparam")
        passed = passed and g_price >= g_reparam
        details.append(
            f"{algorithm}: gamma_max price = {g_price:.2e}, reparam = {g_reparam:.2e}"
        )
    return _result("step-size-envelope", start, passed, "; ".join(details))


def check_free_energy_oracle(states: int = 100, n_samples: int = 4096) -> CheckResult:
    """Monte Carlo free energy agrees with the quadratic closed form.

    100 random (state, target) pairs at 2^12 samples, each within 5
    reported standard errors.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1009)
    worst = 0.0
    for i in range(states):
        dim = int(rng.integers(1, 7))
        target = random_quadratic(dim, float(10.0 ** rng.uniform(0, 1.5)), seed=3000 + i)
        q = _random_state(rng, dim)
        est = free_energy_mc(q, target, n_samples, seed=4000 + i)
        exact = free_energy_exact_quadratic(q, target)
        worst = max(worst, abs(est.value - exact) / (5.0 * est.std_error))
    return _result(
        "free-energy-oracle", start, worst <= 1.0,
        f"worst |MC - exact| / (5 SE) = {worst:.3f} over {states} states, N = {n_samples}",
    )


def check_geometry_oracles(
    coupling_samples: int = 100_000, instances: int = 200
) -> CheckResult:
    """Distance, transport, and Bregman identities.

    (a) the closed-form squared distance matches the Monte Carlo cost of
    the transport coupling within 5 SE; (b) the transport map pushes the
    source covariance onto the target to 1e-8 relative; (c) the energy
    Bregman divergence is sandwiched by (mu/2) W2^2 and (L/2) W2^2.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst_mc = 0.0
    for i in range(3):
        p = _random_state(rng, 4, mean_scale=1.5)
        q = _random_state(rng, 4, mean_scale=1.5)
        linear, shift = optimal_transport_map(p, q)
        x = sample(p, rng.standard_normal((coupling_samples, 4)))
        cost = np.sum((x - (x @ linear.T + shift)) ** 2, axis=1)
        se = cost.std(ddof=1) / math.sqrt(coupling_samples)
        worst_mc = max(worst_mc, abs(cost.mean() - w2_distance_sq(p, q)) / (5.0 * se))

    p, q = _pairs(_random_chains(rng, 200, 3, mean_scale=1.5))
    s = _transport_linear(_sqrt_and_inv_sqrt(p.sigma), q)
    err = np.abs(s @ p.sigma @ s - q.sigma).max(axis=(-2, -1))
    worst_push = max(0.0, np.max(err / np.maximum(np.abs(q.sigma).max(axis=(-2, -1)), 1e-300)))

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

    passed = worst_mc <= 1.0 and worst_push <= 1e-8 and worst_sandwich <= 0.0
    return _result(
        "geometry-oracles", start, passed,
        f"MC coupling dev = {worst_mc:.3f} (5 SE units), push-forward err = {worst_push:.2e} "
        f"(tol 1e-8), worst sandwich violation = {worst_sandwich:.2e}",
    )


QUICK: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("fixed-points", lambda **kw: check_fixed_points()),
    ("estimator-unbiasedness", lambda **kw: check_estimator_unbiasedness(20_000)),
    ("gradient-orientation", lambda **kw: check_gradient_orientation(10_000)),
    ("non-expansiveness", lambda **kw: check_nonexpansiveness(200)),
    ("deterministic-contraction", lambda **kw: check_deterministic_contraction(200)),
    ("variance-bounds", lambda **kw: check_variance_bounds(4_000)),
    ("free-energy-oracle", lambda **kw: check_free_energy_oracle(20)),
    ("geometry-oracles", lambda **kw: check_geometry_oracles(20_000, 50)),
)

FULL: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("fixed-points", lambda **kw: check_fixed_points()),
    ("estimator-unbiasedness", lambda **kw: check_estimator_unbiasedness()),
    ("gradient-orientation", lambda **kw: check_gradient_orientation()),
    ("non-expansiveness", lambda **kw: check_nonexpansiveness()),
    ("deterministic-contraction", lambda **kw: check_deterministic_contraction()),
    ("variance-bounds", lambda **kw: check_variance_bounds()),
    ("stochastic-convergence", lambda **kw: check_stochastic_convergence()),
    ("step-size-envelope", lambda **kw: check_envelope(workers=kw.get("workers", 1))),
    ("free-energy-oracle", lambda **kw: check_free_energy_oracle()),
    ("geometry-oracles", lambda **kw: check_geometry_oracles()),
)


def run_suite(level: str, workers: int = 1) -> Iterator[CheckResult]:
    """Run the quick or full verification suite, yielding each result as it completes."""
    suite = QUICK if level == "quick" else FULL
    yield from (fn(workers=workers) for _, fn in suite)
