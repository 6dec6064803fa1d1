"""bwvi benchmark: end-to-end timings, or a per-layer trace.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; bwvi is imported from ``src/``.  The
workloads are described in ``workloads.py`` and in ``BENCHMARK.json``.

``--trace 0`` runs units of the workload untraced for about ``--seconds``
and reports ``setup_s`` (median of several cold set-ups, each in a fresh
interpreter), ``wall_s`` (one unit), ``chain_iters_per_s`` (optimizer
iterations completed per second, summed over the unit's chains) and
``peak_rss_mb`` (largest resident set of this process or of any child it
waited for).

Times are taken from laps.  A lap is a timed piece of a unit: 25
iterations of one chain, one acceptance check, or one whole sweep.  For
each kind of lap the benchmark takes a pace, seconds per unit of work, and
a unit's time is its work of each kind at that pace, so the iteration rate
is the unit's iterations over that time.  The pace is the fastest lap on
the chain workloads, whose laps take milliseconds, and the median lap on
the others, whose laps take seconds.  On a shared 2-core machine the same
code runs up to 2x slower for spells of a second to minutes.  Over the
same ten seeds, the median unit wall time spread (IQR/median) 0.50 and
0.055 on the two chain workloads where their fastest 100-iteration lap
spread 0.32 and 0.039, and on the sweep and verify workloads the fastest
of a few multi-second units spread 0.090 and 0.161 where their median
spread 0.062 and 0.130.
The median unit wall time is printed as well.

``--trace 1`` alternates an untraced unit with a traced one for about
``--seconds`` and reports the per-layer metrics: microseconds per
optimizer iteration unless the name says otherwise, from the spans that
``tracer.py`` records around bwvi's public functions.  Per-iteration
metrics count only spans inside ``optimizers.run``; where a layer does not
run on a workload its metric reads 0.  The run also checks the span
recorder (``selfcheck.py``) and that tracing put every bwvi attribute back.

Every unit's outputs are checked (see ``workloads.py``) and every failed
check counts as a failed operation.  Informational lines come first, the
machine's description on the line starting ``env``; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import selfcheck
import workloads
from tracer import (
    CHAIN_SPAN, TARGET_METHODS, SpanRecorder, SpanStats, bindings, instrumented, rebound,
)

SETUP_PROBES = 5
HERE = Path(__file__).resolve().parent
STEP_SPANS = ("optimizers.spgd_step", "optimizers.spbwgd_step")
ESTIMATORS = ("bonnet_price", "bonnet_reparam")


class Tally:
    """Operations attempted and failed, including the check that units with
    the same inputs produced the same outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict = {}

    def add(self, index: int, outcome: workloads.Outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        key = self.workload.input_key(index)
        if key in self.fingerprints:
            self.attempted += 1
            self.failed += outcome.fingerprint != self.fingerprints[key]
        else:
            self.fingerprints[key] = outcome.fingerprint

    def check(self, problems: list[str], what: str):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{what} failed: " + "; ".join(problems))


def timed_unit(workload, index: int, trace_mode: bool):
    start = time.perf_counter()
    outcome = workload.unit(index, trace_mode)
    return outcome, time.perf_counter() - start


def keep_going(start: float, seconds: float, walls: list[float]) -> bool:
    """Start another unit while it is expected to end within the run, and
    at least twice."""
    return len(walls) < 2 or time.perf_counter() - start + walls[-1] <= seconds


def lap_pace(workload, outcomes) -> dict[str, float]:
    """Seconds per unit of work, per kind of lap, by the workload's statistic."""
    paces: dict[str, list[float]] = {}
    for outcome in outcomes:
        for lap in outcome.laps:
            paces.setdefault(lap.kind, []).append(lap.seconds / lap.work)
    return {kind: workload.pace(values) for kind, values in paces.items()}


def unit_seconds(outcome, pace: dict[str, float]) -> float:
    return sum(work * pace[kind] for kind, work in outcome.unit_work.items())


def setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def end_to_end(args) -> tuple[Tally, dict]:
    # Set-up is probed before this process builds anything, so that no BLAS
    # thread of its own competes with the probes.
    setups = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally(workload)
    outcomes, walls = [], []
    start = time.perf_counter()
    index = 0
    while keep_going(start, args.seconds, walls):
        outcome, wall = timed_unit(workload, index, trace_mode=False)
        tally.add(index, outcome)
        outcomes.append(outcome)
        walls.append(wall)
        print(f"unit {index}: {wall:.3f} s, {outcome.iterations} iterations; {outcome.info}")
        index += 1
    wall = unit_seconds(outcomes[0], lap_pace(workload, outcomes))
    print(f"median unit wall {statistics.median(walls):.3f} s over {len(walls)} units; "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    return tally, {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "chain_iters_per_s": (outcomes[0].iterations / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def per_layer(args) -> tuple[Tally, dict]:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally(workload)
    tally.check(selfcheck.check_recorder(), "span recorder self-check")
    if hasattr(workload, "trace_workers"):
        # Reference unit at the timed setting, so that its outputs are
        # compared with the traced ones run at the trace setting.
        outcome, wall = timed_unit(workload, 0, trace_mode=False)
        tally.add(0, outcome)
        print(f"reference unit: {wall:.3f} s; {outcome.info}")
    recorder = SpanRecorder()
    before = bindings()
    plain, traced, walls, slowdowns = [], [], [], []
    start = time.perf_counter()
    index = 0
    while keep_going(start, args.seconds, walls):
        plain_outcome, plain_wall = timed_unit(workload, index, trace_mode=True)
        with instrumented(recorder) as absent:
            traced_outcome, traced_wall = timed_unit(workload, index, trace_mode=True)
        tally.add(index, plain_outcome)
        tally.add(index, traced_outcome)
        plain.append(plain_outcome)
        traced.append(traced_outcome)
        walls.append(plain_wall + traced_wall)
        slowdowns.append(traced_wall / plain_wall)
        print(f"unit {index}: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s; "
              f"{traced_outcome.info}")
        index += 1
    if absent:
        print("absent from bwvi: " + ", ".join(absent))
    tally.check(rebound(before, bindings()), "restoring bwvi after tracing")
    print_table(recorder)
    metrics = layer_metrics(workload, recorder, plain, traced)
    # Each traced unit runs right after its untraced twin, so the two share
    # the machine's state; their ratio is steadier than a ratio of paces.
    metrics["trace_overhead_frac"] = (statistics.median(slowdowns) - 1.0, "ratio")
    return tally, metrics


def layer_metrics(workload, recorder: SpanRecorder, plain, traced) -> dict:
    chain = np.asarray(recorder.chains(), dtype=np.int64)
    in_chain = chain >= 0
    chain_label = [recorder.labels[c] if c >= 0 else "" for c in chain]
    everywhere = recorder.table()
    chains = recorder.table(in_chain)
    none = SpanStats(0, 0.0, 0.0, 0)
    cells = sum(outcome.cells for outcome in traced)

    def per_step(value: float, table=chains) -> float:
        steps = sum(table.get(s, none).calls for s in STEP_SPANS)
        return value / steps if steps else 0.0

    def calls_per_step(name: str, table=chains) -> float:
        return per_step(table.get(name, none).calls, table)

    def us(*span_names: str) -> float:
        return per_step(sum(chains.get(n, none).self_s for n in span_names)) * 1e6

    def us_per_cell(name: str) -> float:
        return everywhere.get(name, none).total_s / cells * 1e6 if cells else 0.0

    oracle = [f"targets.{m}" for m in TARGET_METHODS]
    sqrt_by_parent = recorder.self_by_parent("geometry.matrix_sqrt_psd", in_chain)
    metrics = {
        "estimators.draw_noise_us": (us("estimators.draw_noise"), "us"),
        "geometry.sample_calls_per_iter": (calls_per_step("geometry.sample"), "count"),
        "geometry.sample_us": (us("geometry.sample"), "us"),
        "targets.value_calls_per_iter": (calls_per_step("targets.value"), "count"),
        "targets.grad_calls_per_iter": (calls_per_step("targets.grad"), "count"),
    }
    for estimator in ESTIMATORS:
        keep = in_chain & np.array([label.endswith("/" + estimator) for label in chain_label], dtype=bool)
        metrics[f"targets.grad_calls_per_iter.{estimator}"] = (
            calls_per_step("targets.grad", recorder.table(keep)), "count"
        )
    metrics.update({
        "targets.points_per_iter": (per_step(sum(chains.get(n, none).points for n in oracle)), "count"),
        "targets.oracle_us": (us(*oracle), "us"),
        "geometry.state_us": (us("geometry.GaussianVariational"), "us"),
        "geometry.jko_sqrt_us": (per_step(sqrt_by_parent.get("optimizers.jko_entropy", 0.0)) * 1e6, "us"),
        "diagnostics.w2_us": (per_step(sqrt_by_parent.get(CHAIN_SPAN, 0.0)) * 1e6, "us"),
        "geometry.cholesky_us": (us("geometry.cholesky_factor"), "us"),
        "optimizers.prox_us": (us("optimizers.entropy_prox", "optimizers.jko_entropy"), "us"),
        "optimizers.step_us": (us(*STEP_SPANS), "us"),
        "estimators.gradient_us": (us("estimators.param_gradient", "estimators.bw_gradient"), "us"),
        "optimizers.run_self_us": (us(CHAIN_SPAN), "us"),
        "diagnostics.free_energy_mc_us_per_cell": (us_per_cell("diagnostics.free_energy_mc"), "us"),
        "harness.build_target_calls": (everywhere.get("harness.build_target", none).calls / len(traced), "count"),
        "harness.build_target_us": (us_per_cell("harness.build_target"), "us"),
        "optimizers.iters_to_1pct": (iters_to_1pct(plain[0]), "count"),
    })
    pace = lap_pace(workload, plain)
    for name, _ in workloads.VerifyOracles.checks:
        metrics[f"checks.{name}_s"] = (pace.get(name, 0.0), "s")
    return metrics


def iters_to_1pct(outcome) -> int:
    """First t at which the W2^2 ratio averaged over the unit's chains
    falls below 1%; one past the chain length if it never does, 0 without
    chains."""
    ratios = outcome.w2_ratios
    if not ratios:
        return 0
    length = min(len(r) for r in ratios)
    mean = sum(r[:length] for r in ratios) / len(ratios)
    below = np.flatnonzero(mean < 0.01)
    return int(below[0]) if below.size else length


def print_table(recorder: SpanRecorder):
    table = recorder.table()
    print(f"{'span':36s} {'calls':>9s} {'total ms':>10s} {'self ms':>10s} {'points':>10s}")
    for name, s in sorted(table.items(), key=lambda item: -item[1].self_s):
        print(f"{name:36s} {s.calls:9d} {s.total_s * 1e3:10.1f} {s.self_s * 1e3:10.1f} {s.points:10d}")


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": openblas_threads(),
        "blas_thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": git_commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, as inherited."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print("env " + json.dumps(environment()))
    tally, metrics = (per_layer if args.trace else end_to_end)(args)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
