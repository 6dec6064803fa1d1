"""Acceptance suite: one test per release criterion, full sample sizes.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and asserts the criterion.  Budgets are
generous on a laptop-class machine; the heaviest test is the step-size
envelope experiment (minutes, not hours).
"""

import time

import pytest

from bwvi.checks import (
    CheckResult,
    check_deterministic_contraction,
    check_envelope,
    check_estimator_unbiasedness,
    check_fixed_points,
    check_free_energy_oracle,
    check_geometry_oracles,
    check_gradient_orientation,
    check_nonexpansiveness,
    check_stochastic_convergence,
    check_variance_bounds,
    run_suite,
)


def report(index: int, result: CheckResult, budget: float):
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {index} [{status}] {result.name} ({result.seconds:.1f}s) {result.detail}")
    assert result.passed, result.detail
    assert result.seconds <= budget, f"{result.name} exceeded {budget}s budget"


def test_criterion_01_fixed_points():
    report(1, check_fixed_points(), budget=5.0)


def test_criterion_02_estimator_unbiasedness():
    report(2, check_estimator_unbiasedness(1_000_000), budget=60.0)


def test_criterion_03_gradient_orientation():
    report(3, check_gradient_orientation(1_000_000), budget=30.0)


def test_criterion_04_nonexpansiveness():
    report(4, check_nonexpansiveness(1000), budget=10.0)


def test_criterion_05_deterministic_contraction():
    report(5, check_deterministic_contraction(500), budget=5.0)


def test_criterion_06_variance_bounds():
    report(6, check_variance_bounds(100_000), budget=120.0)


def test_criterion_07_stochastic_convergence():
    report(7, check_stochastic_convergence(5000, 32), budget=120.0)


def test_criterion_08_step_size_envelope():
    report(8, check_envelope(iterations=2000, repetitions=8, points=13, workers=2), budget=600.0)


def test_criterion_09_free_energy_oracle():
    report(9, check_free_energy_oracle(100), budget=10.0)


def test_criterion_10_geometry_oracles():
    report(10, check_geometry_oracles(100_000, 200), budget=30.0)


def test_quick_suite_budget():
    # the CLI's quick verification level must finish in under a minute
    start = time.perf_counter()
    results = list(run_suite("quick"))
    elapsed = time.perf_counter() - start
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"
    print(f"quick suite: {len(results)} checks in {elapsed:.1f}s")
    assert elapsed < 60.0
