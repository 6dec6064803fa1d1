"""Experiment harness: configs, single runs, step-size sweeps, CSV output.

This is the layer the command-line interface drives.  A JSON experiment
config describes a target, an algorithm/estimator pairing, a schedule,
and the initialization; ``execute_run`` produces per-iteration trace rows
and ``execute_sweep`` crosses a log-spaced step-size grid with both
algorithms, both stochastic estimators, and R repetitions.

Seeding policy: repetition ``r`` of a run uses seed ``base + r``; inside a
sweep, the noise stream id is the grid index of the step size, so all four
algorithm/estimator combinations of one (step size, repetition) cell see
identical noise (common random numbers), while distinct cells are
independent.  Outputs are byte-identical across reruns and worker counts.

A run's repetitions, and a sweep's cells of one algorithm/estimator pair,
run as one lock-step batch; sweep workers take whole pairs.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .diagnostics import free_energy_mc
from .errors import InvalidParameters, NotPositiveDefinite
from .estimators import EstimatorKind
from .geometry import GaussianVariational, w2_distance_sq
from .optimizers import Algorithm, OptimizerConfig, RunTrace, run_batch
from .schedules import StepSchedule, constant_schedule, theorem_schedule
from .targets import (
    LogisticRidgePotential,
    Potential,
    QuadraticPotential,
    load_logistic_dataset,
    quadratic_optimum,
    random_quadratic,
)

__all__ = [
    "ExperimentConfig",
    "parse_experiment_config",
    "build_target",
    "build_initial_state",
    "build_schedule",
    "execute_run",
    "execute_sweep",
    "TRACE_HEADER",
    "SWEEP_HEADER",
    "format_trace_rows",
    "format_sweep_rows",
]

TRACE_HEADER = "run_id,seed,t,gamma,free_energy,free_energy_se,w2_sq,diverged"
SWEEP_HEADER = "gamma,algorithm,estimator,seed,final_free_energy,diverged"

SWEEP_ALGORITHMS = (Algorithm.SPGD, Algorithm.SPBWGD)
SWEEP_ESTIMATORS = (EstimatorKind.BONNET_PRICE, EstimatorKind.BONNET_REPARAM)

# Stream tag separating evaluation noise from training noise in a lineage.
_EVAL_STREAM_OFFSET = 1 << 20

# A quadratic target's eigenvalues lie in [1 / _SPECTRUM_MAX, _SPECTRUM_MAX]:
# its precision (entries up to L, symmetrized as a sum of two) and its
# optimum's covariance (entries up to 1 / mu) then stay finite, with room.
_SPECTRUM_MAX = 1e300


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (see ``parse_experiment_config``)."""

    target: dict
    algorithm: str = "spgd"
    estimator: str = "bonnet_price"
    minibatch: int = 8
    iterations: int = 100
    schedule: dict = field(default_factory=lambda: {"kind": "theorem"})
    init_mean: Any = 0.0
    init_variance: float = 0.34
    eval_samples: int = 4096
    repetitions: int = 1
    seed: int = 0
    divergence_threshold: float = 1e12
    output: str | None = None


def _require(cond: bool, fieldname: str, message: str):
    if not cond:
        raise InvalidParameters(f"config field '{fieldname}': {message}")


def _reject_unknown(obj: dict, prefix: str, known: set[str]):
    for key in obj:
        _require(key in known, prefix + key, "unknown field")


def _is_int(value) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: no boolean, NaN, Infinity, or integer beyond float range."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def parse_experiment_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object into an ``ExperimentConfig``.

    Raises ``InvalidParameters`` naming the offending field.
    """
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    _reject_unknown(raw, "", {
        "target", "algorithm", "estimator", "minibatch", "iterations",
        "schedule", "init", "eval_samples", "repetitions", "seed",
        "divergence_threshold", "output",
    })
    target = raw.get("target")
    _require(isinstance(target, dict), "target", "must be an object")
    kind = target.get("kind")
    _require(kind in ("quadratic", "logistic"), "target.kind", "must be 'quadratic' or 'logistic'")
    if kind == "quadratic":
        _reject_unknown(target, "target.", {
            "kind", "dim", "condition_number", "seed", "strong_convexity", "center_scale",
        })
        dim = target.get("dim")
        _require(_is_int(dim) and dim >= 1, "target.dim", "must be an integer >= 1")
        kappa = target.get("condition_number", 1.0)
        _require(
            _is_number(kappa) and kappa >= 1.0, "target.condition_number", "must be a number >= 1"
        )
        target_seed = target.get("seed", 0)
        _require(
            _is_int(target_seed) and target_seed >= 0, "target.seed", "must be an integer >= 0"
        )
        mu = target.get("strong_convexity", 1.0)
        _require(
            _is_number(mu) and 1.0 / _SPECTRUM_MAX <= mu <= _SPECTRUM_MAX,
            "target.strong_convexity", "must be a number in [1e-300, 1e300]",
        )
        _require(
            mu * kappa <= _SPECTRUM_MAX, "target.condition_number",
            "strong_convexity * condition_number must be <= 1e300",
        )
        center_scale = target.get("center_scale", 1.0)
        _require(_is_number(center_scale), "target.center_scale", "must be a number")
    else:
        _reject_unknown(target, "target.", {"kind", "dataset", "ridge"})
        _require(isinstance(target.get("dataset"), str), "target.dataset", "must be a file path")
        ridge = target.get("ridge")
        _require(_is_number(ridge) and ridge > 0.0, "target.ridge", "must be a number > 0")

    algorithm = raw.get("algorithm", "spgd")
    _require(
        algorithm in [a.value for a in Algorithm], "algorithm", "must be 'spgd' or 'spbwgd'"
    )
    estimator = raw.get("estimator", "bonnet_price")
    _require(
        estimator in [e.value for e in EstimatorKind],
        "estimator", "must be 'bonnet_price', 'bonnet_reparam', or 'exact'",
    )

    minibatch = raw.get("minibatch", 8)
    _require(_is_int(minibatch) and minibatch >= 1, "minibatch", "must be an integer >= 1")
    iterations = raw.get("iterations", 100)
    _require(_is_int(iterations) and iterations >= 0, "iterations", "must be an integer >= 0")

    schedule = raw.get("schedule", {"kind": "theorem"})
    _require(isinstance(schedule, dict), "schedule", "must be an object")
    skind = schedule.get("kind")
    _require(skind in ("constant", "theorem"), "schedule.kind", "must be 'constant' or 'theorem'")
    _reject_unknown(
        schedule, "schedule.", {"kind", "gamma" if skind == "constant" else "delta_sq"}
    )
    if skind == "constant":
        gamma = schedule.get("gamma")
        _require(_is_number(gamma) and gamma > 0.0, "schedule.gamma", "must be a number > 0")
    elif "delta_sq" in schedule:
        delta_sq = schedule["delta_sq"]
        _require(
            _is_number(delta_sq) and delta_sq >= 0.0, "schedule.delta_sq", "must be a number >= 0"
        )

    init = raw.get("init", {})
    _require(isinstance(init, dict), "init", "must be an object")
    _reject_unknown(init, "init.", {"mean", "variance"})
    mean = init.get("mean", 0.0)
    _require(
        _is_number(mean) or (isinstance(mean, list) and all(_is_number(v) for v in mean)),
        "init.mean", "must be a number or a list of numbers",
    )
    variance = init.get("variance", 0.34)
    _require(_is_number(variance) and variance > 0.0, "init.variance", "must be a number > 0")

    eval_samples = raw.get("eval_samples", 4096)
    _require(
        _is_int(eval_samples) and eval_samples >= 2,
        "eval_samples", "must be an integer >= 2",
    )
    repetitions = raw.get("repetitions", 1)
    _require(
        _is_int(repetitions) and repetitions >= 1,
        "repetitions", "must be an integer >= 1",
    )
    seed = raw.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, "seed", "must be an integer >= 0")
    threshold = raw.get("divergence_threshold", 1e12)
    _require(
        _is_number(threshold) and threshold > 0.0, "divergence_threshold", "must be a number > 0"
    )
    output = raw.get("output")
    _require(output is None or isinstance(output, str), "output", "must be a file path")

    return ExperimentConfig(
        target=dict(target),
        algorithm=algorithm,
        estimator=estimator,
        minibatch=minibatch,
        iterations=iterations,
        schedule=dict(schedule),
        init_mean=mean,
        init_variance=float(variance),
        eval_samples=eval_samples,
        repetitions=repetitions,
        seed=seed,
        divergence_threshold=float(threshold),
        output=output,
    )


def build_target(config: ExperimentConfig) -> Potential:
    """Instantiate the target described by the config.

    File errors from a logistic dataset propagate as ``OSError``.
    """
    spec = config.target
    if spec["kind"] == "quadratic":
        try:
            return random_quadratic(
                dim=int(spec["dim"]),
                condition_number=float(spec.get("condition_number", 1.0)),
                seed=int(spec.get("seed", 0)),
                strong_convexity=float(spec.get("strong_convexity", 1.0)),
                center_scale=float(spec.get("center_scale", 1.0)),
            )
        except NotPositiveDefinite as err:  # the rotation's round-off swamps mu
            raise InvalidParameters(
                f"config field 'target.condition_number': too large for float64, {err}"
            ) from err
    design, labels = load_logistic_dataset(spec["dataset"])
    return LogisticRidgePotential(design, labels, float(spec["ridge"]))


def build_initial_state(config: ExperimentConfig, dim: int) -> GaussianVariational:
    _require(
        np.ndim(config.init_mean) == 0 or len(config.init_mean) == dim,
        "init.mean", f"must be a number or a list of {dim} numbers (the target dimension)",
    )
    return GaussianVariational.isotropic(dim, config.init_mean, config.init_variance)


def build_schedule(
    config: ExperimentConfig, target: Potential, q0: GaussianVariational
) -> StepSchedule:
    spec = config.schedule
    if spec["kind"] == "constant":
        return constant_schedule(float(spec["gamma"]))
    meta = target.metadata
    if "delta_sq" in spec:
        delta_sq = float(spec["delta_sq"])
    elif isinstance(target, QuadraticPotential):
        # A far init.mean overflows the distance, a huge init.variance the
        # covariance it is taken from: either way the distance is infinite.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                w2 = w2_distance_sq(q0, quadratic_optimum(target))
            except NotPositiveDefinite:
                w2 = math.inf
        delta_sq = meta.strong_convexity * (w2 if math.isfinite(w2) else math.inf)
    else:
        raise InvalidParameters(
            "config field 'schedule.delta_sq': required for non-quadratic targets"
        )
    try:
        return theorem_schedule(meta.strong_convexity, meta.smoothness, meta.dim, delta_sq)
    except InvalidParameters as err:  # gamma_0 = 1 / (10 L kappa) underflows to 0
        field = "target.condition_number" if isinstance(target, QuadraticPotential) else "target.ridge"
        raise InvalidParameters(
            f"config field '{field}': too wide a spectrum for the theorem schedule, {err}"
        ) from err


def _optimizer_config(config: ExperimentConfig, algorithm, estimator) -> OptimizerConfig:
    return OptimizerConfig(
        algorithm=algorithm,
        estimator=estimator,
        minibatch=config.minibatch,
        max_iters=config.iterations,
        divergence_threshold=config.divergence_threshold,
    )


def execute_run(config: ExperimentConfig) -> list[RunTrace]:
    """Run ``repetitions`` independent trajectories with seeds base..base+R-1,
    as one batch."""
    target = build_target(config)
    q0 = build_initial_state(config, target.dim)
    schedule = build_schedule(config, target, q0)
    opt = _optimizer_config(config, config.algorithm, config.estimator)
    chains = [(schedule, config.seed + rep, 0) for rep in range(config.repetitions)]
    return run_batch(opt, target, q0, chains)


def _format_float(value: float) -> str:
    return repr(float(value))


def format_trace_rows(traces: list[RunTrace]) -> list[str]:
    rows = []
    for run_id, trace in enumerate(traces):
        for t, gamma, fe, se, w2, diverged in trace.records.tolist():
            w2 = "" if math.isnan(w2) else _format_float(w2)
            rows.append(
                f"{run_id},{trace.seed},{t},{_format_float(gamma)},"
                f"{_format_float(fe)},{_format_float(se)},{w2},{str(diverged).lower()}"
            )
    return rows


@dataclass(frozen=True)
class SweepCell:
    gamma_index: int
    gamma: float
    algorithm: Algorithm
    estimator: EstimatorKind
    repetition: int


@dataclass(frozen=True)
class SweepResult:
    cell: SweepCell
    seed: int
    final_free_energy: float | None
    diverged: bool


def _run_sweep_pair(
    args: tuple[ExperimentConfig, Potential, GaussianVariational, list[SweepCell]],
) -> list[SweepResult]:
    """The cells of one algorithm/estimator pair, as one batch."""
    config, target, q0, cells = args
    opt = _optimizer_config(config, cells[0].algorithm, cells[0].estimator)
    chains = [
        (constant_schedule(c.gamma), config.seed + c.repetition, c.gamma_index) for c in cells
    ]
    results = []
    for cell, trace in zip(cells, run_batch(opt, target, q0, chains)):
        value = None
        if not trace.diverged:
            eval_seed = np.random.SeedSequence(trace.seed, spawn_key=(_EVAL_STREAM_OFFSET + trace.stream,))
            try:
                value = free_energy_mc(trace.final_state, target, config.eval_samples, eval_seed).value
            except (ValueError, MemoryError) as err:  # beyond numpy's largest array
                raise InvalidParameters(
                    f"config field 'eval_samples': {config.eval_samples} draws do not fit in memory"
                ) from err
        finite = value is not None and math.isfinite(value)
        results.append(SweepResult(cell, trace.seed, value if finite else None, not finite))
    return results


def sweep_cells(config: ExperimentConfig, grid: np.ndarray) -> list[SweepCell]:
    """Cartesian cell list in deterministic output order."""
    return [
        SweepCell(gi, float(g), algo, est, rep)
        for (gi, g), algo, est, rep in itertools.product(
            enumerate(grid), SWEEP_ALGORITHMS, SWEEP_ESTIMATORS, range(config.repetitions)
        )
    ]


def _openblas_functions(names: tuple[str, ...]) -> list:
    """The first of ``names`` that each OpenBLAS library loaded in this
    process exports (none where ``/proc/self/maps`` is missing)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({p for p in (line.split()[-1] for line in fh) if "openblas" in p.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        found += [getattr(lib, n) for n in names if hasattr(lib, n)][:1]
    return found


def _one_blas_thread():
    """Pool initializer: one BLAS thread per sweep worker, so that workers
    times threads stays within the cores; a no-op without a setter."""
    setters = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
               "openblas_set_num_threads64_", "openblas_set_num_threads")
    for setter in _openblas_functions(setters):
        setter(1)


def execute_sweep(
    config: ExperimentConfig, grid: np.ndarray, workers: int = 1
) -> list[SweepResult]:
    """Run every sweep cell, one batch per algorithm/estimator pair, the
    pairs concurrently if ``workers > 1`` (at most one process per pair).

    The target and initial state are built once and shared by every cell.
    Results come back in ``sweep_cells`` order regardless of workers.
    """
    target = build_target(config)
    q0 = build_initial_state(config, target.dim)
    cells = sweep_cells(config, grid)
    payload = [
        (config, target, q0, [c for c in cells if (c.algorithm, c.estimator) == pair])
        for pair in itertools.product(SWEEP_ALGORITHMS, SWEEP_ESTIMATORS)
    ]
    if workers <= 1:
        batches = [_run_sweep_pair(p) for p in payload]
    else:
        # The pool starts all its processes at once: no more than it has batches.
        with ProcessPoolExecutor(min(workers, len(payload)), initializer=_one_blas_thread) as pool:
            batches = list(pool.map(_run_sweep_pair, payload, chunksize=1))
    by_cell = {res.cell: res for batch in batches for res in batch}
    return [by_cell[cell] for cell in cells]


def format_sweep_rows(results: list[SweepResult]) -> list[str]:
    rows = []
    for res in results:
        fe = "" if res.final_free_energy is None else _format_float(res.final_free_energy)
        rows.append(
            f"{_format_float(res.cell.gamma)},{res.cell.algorithm.value},"
            f"{res.cell.estimator.value},{res.seed},{fe},{str(res.diverged).lower()}"
        )
    return rows
