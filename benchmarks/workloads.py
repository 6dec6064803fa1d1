"""The benchmark's workloads, driven through bwvi's user-facing entry points.

Importing this module imports ``bwvi`` (with ``bwvi.cli``, which pulls in
every module) from the ``src/`` directory of the checkout this file sits
in, never from an installed copy.

A workload is built from the benchmark seed alone and then runs *units*
of work: one round of chains, one sweep, or one pass of the checks.  Each
unit reports the optimizer iterations it completed, its operations and
their failures against the correctness gates, a fingerprint of its
outputs, and its *laps*: timed pieces of its work, from which ``run.py``
takes a pace per kind of lap with the workload's ``pace`` statistic.
Units given the same input key must produce identical fingerprints,
whatever the worker count or tracing.

Calls go through module attributes (``optimizers.run``, ``checks.check_*``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "bwvi" / "__init__.py").is_file():
    sys.exit(f"benchmark: no bwvi package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bwvi  # noqa: E402
import bwvi.cli  # noqa: E402,F401
from bwvi import checks, harness, optimizers  # noqa: E402

if not Path(bwvi.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"benchmark: bwvi imported from {bwvi.__file__}, not from {SRC}")

#: Iterations per timed lap of a chain.  Short laps let the fastest-lap
#: pace skip the slow spells of a shared machine: over one 3-minute
#: recording at d = 5, the fastest lap's spread between 25-second windows
#: was 0.095 (IQR/median) with 25-iteration laps and 0.25 with 100.
LAP_ITERS = 25


@dataclass(frozen=True)
class Lap:
    """``work`` units of one ``kind`` of work (iterations of one chain kind,
    one check, one sweep) that took ``seconds``."""

    kind: str
    work: int
    seconds: float


@dataclass
class Outcome:
    """What one unit did.

    ``unit_work`` is the work per lap kind that makes up one unit, in the
    laps' own measure.
    """

    iterations: int
    attempted: int
    failed: int
    fingerprint: str
    laps: list[Lap]
    unit_work: dict[str, int]
    w2_ratios: list[np.ndarray] = field(default_factory=list)
    cells: int = 0
    info: str = ""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()[:16]


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=n)]


class LapSchedule:
    """A step-size schedule that also notes the clock every ``LAP_ITERS``
    iterations.  ``run`` asks it for the step once per iteration, so the
    notes time whole iterations at the cost of one extra call each."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.marks: list[float] = []

    def step_at(self, t: int) -> float:
        if t % LAP_ITERS == 0:
            self.marks.append(time.perf_counter())
        return self.schedule.step_at(t)

    def laps(self, kind: str) -> list[Lap]:
        return [Lap(kind, LAP_ITERS, b - a) for a, b in zip(self.marks, self.marks[1:])]


class QuadraticChains:
    """Rounds of chains on a random quadratic, one chain per
    algorithm/estimator pair, all from ``N(0, 0.34 I)`` with minibatch 8.
    Round ``i`` uses chain seed ``base + i`` for every pair.

    A lap is 25 iterations of one chain, milliseconds long, so a run holds
    thousands of them; the fastest lap per pair is the pace of the chain
    undisturbed by the machine's slow spells."""

    pace = staticmethod(min)
    dim: int
    pairs: tuple[tuple[str, str], ...]
    iterations: int
    max_final_ratio: float

    def __init__(self, seed: int):
        target_seed, self.chain_seed = _seeds(seed, 2)
        self.target = self.make_target(target_seed)
        self.q0 = bwvi.GaussianVariational.isotropic(self.dim, 0.0, 0.34)
        self.initial_w2 = bwvi.w2_distance_sq(self.q0, bwvi.quadratic_optimum(self.target))
        self.schedule = self.make_schedule()
        self.configs = [
            bwvi.OptimizerConfig(
                algorithm=algorithm, estimator=estimator, minibatch=8,
                max_iters=self.iterations, divergence_threshold=1e12,
            )
            for algorithm, estimator in self.pairs
        ]
        self.kinds = tuple(f"{a}/{e}" for a, e in self.pairs)

    def input_key(self, index: int):
        return index

    def unit(self, index: int, trace_mode: bool) -> Outcome:
        laps, ratios, failed, iterations = [], [], 0, 0
        for config, kind in zip(self.configs, self.kinds):
            schedule = LapSchedule(self.schedule)
            trace = optimizers.run(
                config, self.target, self.q0, schedule, seed=self.chain_seed + index
            )
            laps += schedule.laps(kind)
            iterations += len(trace.records) - 1
            ratio = trace.w2_history / self.initial_w2
            failed += not (
                not trace.diverged
                and bool(np.all(np.isfinite(ratio)) and np.all(np.isfinite(trace.free_energy_history)))
                and ratio[-1] < self.max_final_ratio
            )
            ratios.append(ratio)
        return Outcome(
            iterations=iterations,
            attempted=len(self.configs),
            failed=failed,
            fingerprint=_digest(*(r.tobytes() for r in ratios)),
            laps=laps,
            unit_work={kind: self.iterations for kind in self.kinds},
            w2_ratios=ratios,
            info="final W2^2/initial: " + ", ".join(f"{r[-1]:.2e}" for r in ratios),
        )


class QuadD5Converge(QuadraticChains):
    """Criterion 07's protocol with all four algorithm/estimator pairs.

    d = 5, kappa = 10, theorem schedule.  The target's rotation and center
    direction come from the seed; the center's norm is fixed to that of
    criterion 07's target (``seed=42, center_scale=4.5``), so the initial
    distance, and with it the schedule's switch at t = 3607, is the same
    for every seed.  Chains run 4000 iterations, past the switch, and must
    end below 1% of their initial W2^2.
    """

    name = "quad-d5-converge"
    dim = 5
    pairs = (
        ("spgd", "bonnet_price"), ("spgd", "bonnet_reparam"),
        ("spbwgd", "bonnet_price"), ("spbwgd", "bonnet_reparam"),
    )
    iterations = 4000
    max_final_ratio = 0.01

    def make_target(self, target_seed):
        reference = bwvi.random_quadratic(5, 10.0, seed=42, center_scale=4.5)
        target = bwvi.random_quadratic(5, 10.0, seed=target_seed, center_scale=4.5)
        center = target.center * (np.linalg.norm(reference.center) / np.linalg.norm(target.center))
        return bwvi.QuadraticPotential(target.precision, center)

    def make_schedule(self):
        meta = self.target.metadata
        return bwvi.theorem_schedule(
            meta.strong_convexity, meta.smoothness, meta.dim,
            meta.strong_convexity * self.initial_w2,
        )


class QuadD50(QuadraticChains):
    """The same protocol at d = 50 with the Price estimator and a constant
    step 1e-3 (the theorem schedule's own switch would come at t = 5203).
    Reparam is left out: SPBWGD/reparam diverges within ~200 iterations at
    this step, so chain length, not code, would set the work.  Chains run
    2000 iterations and must end below a tenth of their initial W2^2."""

    name = "quad-d50"
    dim = 50
    pairs = (("spgd", "bonnet_price"), ("spbwgd", "bonnet_price"))
    iterations = 2000
    max_final_ratio = 0.1

    def make_target(self, target_seed):
        return bwvi.random_quadratic(50, 10.0, seed=target_seed, center_scale=4.5)

    def make_schedule(self):
        return bwvi.constant_schedule(1e-3)


class LogisticSweep:
    """Criterion 08's envelope protocol on a reduced grid, through
    ``execute_sweep``: the bundled 48x10 dataset, ridge 0.1,
    ``geomspace(1e-6, 1, 13)``, both algorithms x both stochastic
    estimators, one repetition, 100 iterations, ``eval_samples`` 4096.

    The timed sweep uses two workers, as criterion 08 does; trace mode
    uses one, so that every span stays in this process.  A cell passes if
    it is flagged diverged or has a finite final free energy.  Diverged
    cells stop within a few dozen iterations and are not counted as
    completed iterations.  A lap is a whole sweep, seconds long, so a run
    holds only a few; their median is steadier than their minimum.
    """

    pace = staticmethod(statistics.median)

    name = "logistic-sweep"
    workers = 2
    trace_workers = 1
    iterations = 100

    def __init__(self, seed: int):
        (base_seed,) = _seeds(seed, 1)
        dataset = str(SRC / "bwvi" / "data" / "toy_logistic.csv")
        self.config = harness.ExperimentConfig(
            target={"kind": "logistic", "dataset": dataset, "ridge": 0.1},
            iterations=self.iterations, minibatch=8, repetitions=1,
            seed=base_seed, eval_samples=4096,
        )
        self.grid = np.geomspace(1e-6, 1.0, 13)
        target = harness.build_target(self.config)
        self.q0 = harness.build_initial_state(self.config, target.dim)

    def input_key(self, index: int):
        return 0

    def unit(self, index: int, trace_mode: bool) -> Outcome:
        workers = self.trace_workers if trace_mode else self.workers
        start = time.perf_counter()
        results = harness.execute_sweep(self.config, self.grid, workers=workers)
        seconds = time.perf_counter() - start
        rows = harness.format_sweep_rows(results)
        failed = sum(
            not (r.diverged or (r.final_free_energy is not None and math.isfinite(r.final_free_energy)))
            for r in results
        )
        return Outcome(
            iterations=self.iterations * sum(not r.diverged for r in results),
            attempted=len(results),
            failed=failed,
            fingerprint=_digest("\n".join(rows)),
            laps=[Lap("sweep", 1, seconds)],
            unit_work={"sweep": 1},
            cells=len(results),
            info=f"{sum(r.diverged for r in results)}/{len(results)} cells diverged; "
            + envelope_ordering(results, self.grid),
        )


def envelope_ordering(results, grid) -> str:
    """Criterion 08's statistic: per algorithm, the largest step whose mean
    final free energy is within 1 nat of the best, for each estimator."""
    values: dict[tuple[str, str, int], list[float]] = {}
    for r in results:
        key = (r.cell.algorithm.value, r.cell.estimator.value, r.cell.gamma_index)
        values.setdefault(key, []).append(math.inf if r.final_free_energy is None else r.final_free_energy)
    means = {key: float(np.mean(v)) for key, v in values.items()}
    best = min(v for v in means.values() if math.isfinite(v))
    parts = []
    for algorithm in ("spgd", "spbwgd"):
        largest = {}
        for estimator in ("bonnet_price", "bonnet_reparam"):
            stable = [
                grid[gi] for gi in range(len(grid))
                if means.get((algorithm, estimator, gi), math.inf) <= best + 1.0
            ]
            largest[estimator] = max(stable) if stable else -math.inf
        order = ">=" if largest["bonnet_price"] >= largest["bonnet_reparam"] else "<"
        parts.append(
            f"{algorithm}: gamma_max price {largest['bonnet_price']:.2e} {order} "
            f"reparam {largest['bonnet_reparam']:.2e}"
        )
    return "; ".join(parts)


class VerifyOracles:
    """The acceptance checks other than 07 and 08, at their acceptance
    sizes.  The checks seed themselves, so the benchmark seed changes
    nothing here.  Each check is a lap, timed by its own ``seconds``.  The
    optimizer iterations are the exact-gradient steps of checks 01
    (50 targets x 2 steps x 2 rules) and 05 (2 x 500); their rate is over
    the whole pass, as those checks also do other work.  A run holds only
    a few laps of each check, so the pace is their median."""

    pace = staticmethod(statistics.median)
    name = "verify-oracles"
    checks = (
        ("fixed-points", lambda: checks.check_fixed_points(50)),
        ("estimator-unbiasedness", lambda: checks.check_estimator_unbiasedness(1_000_000)),
        ("gradient-orientation", lambda: checks.check_gradient_orientation(1_000_000)),
        ("non-expansiveness", lambda: checks.check_nonexpansiveness(1000)),
        ("deterministic-contraction", lambda: checks.check_deterministic_contraction(500)),
        ("variance-bounds", lambda: checks.check_variance_bounds(100_000)),
        ("free-energy-oracle", lambda: checks.check_free_energy_oracle(100)),
        ("geometry-oracles", lambda: checks.check_geometry_oracles(100_000, 200)),
    )
    iterations = 50 * 2 * 2 + 2 * 500

    def __init__(self, seed: int):
        pass

    def input_key(self, index: int):
        return 0

    def unit(self, index: int, trace_mode: bool) -> Outcome:
        results = [(name, check()) for name, check in self.checks]
        return Outcome(
            iterations=self.iterations,
            attempted=len(results),
            failed=sum(not r.passed for _, r in results),
            fingerprint=_digest(*(r.detail for _, r in results)),
            laps=[Lap(name, 1, r.seconds) for name, r in results],
            unit_work={name: 1 for name, _ in results},
            info="; ".join(f"{'PASS' if r.passed else 'FAIL'} {name}" for name, r in results),
        )


WORKLOADS = {w.name: w for w in (QuadD5Converge, QuadD50, LogisticSweep, VerifyOracles)}
