"""Command-line harness.

Subcommands:

- ``bwvi run <config.json>``: execute R independent runs and write one
  CSV of per-iteration traces.
- ``bwvi sweep <config.json> --gamma-min --gamma-max --points``: cross a
  log-spaced step-size grid with both algorithms, both stochastic
  estimators, and R repetitions; write a summary CSV.
- ``bwvi verify --level quick|full``: run the verification suite and
  print one pass/fail line per check as soon as it completes.

Exit codes: 0 success, 1 failed verification check, 2 config error
(including sizes that do not fit in memory), 3 I/O error.  The
environment variable ``BWVI_SEED`` overrides the config's base seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .checks import run_suite
from .errors import BwviError, InvalidParameters
from .harness import (
    SWEEP_HEADER,
    TRACE_HEADER,
    ExperimentConfig,
    execute_run,
    execute_sweep,
    format_sweep_rows,
    format_trace_rows,
    parse_experiment_config,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_WORKERS_HELP = "processes for the sweep's four algorithm/estimator batches (at most 4 are used)"


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as err:
        raise InvalidParameters(f"config file {path}: not UTF-8 text ({err.reason})") from err
    except json.JSONDecodeError as err:
        raise InvalidParameters(f"config file {path}: invalid JSON ({err})") from err
    config = parse_experiment_config(raw)
    env_seed = os.environ.get("BWVI_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as err:
            raise InvalidParameters(f"BWVI_SEED must be an integer, got {env_seed!r}") from err
        if seed < 0:
            raise InvalidParameters(f"BWVI_SEED must be >= 0, got {seed}")
        config = replace(config, seed=seed)
    return config


def _write_csv(path: str, header: str, rows: list[str]):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _output_path(config: ExperimentConfig, override: str | None, default: str) -> str:
    return override or config.output or default


def cmd_run(args) -> int:
    config = _load_config(args.config)
    traces = execute_run(config)
    out = _output_path(config, args.out, "trace.csv")
    _write_csv(out, TRACE_HEADER, format_trace_rows(traces))
    diverged = sum(t.diverged for t in traces)
    print(f"wrote {out}: {len(traces)} run(s), {diverged} diverged")
    return EXIT_OK


def _check_workers(workers: int):
    if workers < 1:
        raise InvalidParameters(f"argument '--workers': must be >= 1, got {workers}")


def cmd_sweep(args) -> int:
    _check_workers(args.workers)
    config = _load_config(args.config)
    if args.points < 1:
        raise InvalidParameters(f"argument '--points': must be >= 1, got {args.points}")
    if not (0.0 < args.gamma_min <= args.gamma_max < np.inf):
        raise InvalidParameters(
            f"argument '--gamma-min/--gamma-max': need finite 0 < min <= max, "
            f"got {args.gamma_min}, {args.gamma_max}"
        )
    if args.points == 1:
        grid = np.array([args.gamma_min])
    else:
        try:
            grid = np.geomspace(args.gamma_min, args.gamma_max, args.points)
        except (ValueError, MemoryError) as err:  # beyond numpy's largest array
            raise InvalidParameters(
                f"argument '--points': {args.points} grid points do not fit in memory"
            ) from err
    results = execute_sweep(config, grid, workers=args.workers)
    out = _output_path(config, args.out, "sweep.csv")
    _write_csv(out, SWEEP_HEADER, format_sweep_rows(results))
    diverged = sum(r.diverged for r in results)
    print(f"wrote {out}: {len(results)} cells, {diverged} diverged")
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_workers(args.workers)
    total = failed = 0
    for res in run_suite(args.level, workers=args.workers):
        status = "PASS" if res.passed else "FAIL"
        total += 1
        failed += not res.passed
        print(f"{status} {res.name} [{res.seconds:.1f}s] {res.detail}", flush=True)
    print(f"{total - failed}/{total} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwvi",
        description="Gaussian variational inference via stochastic proximal gradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute repeated runs from a JSON config")
    p_run.add_argument("config", help="path to the experiment config (JSON)")
    p_run.add_argument("--out", default=None, help="output CSV path (overrides config)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="step-size sweep over algorithms and estimators")
    p_sweep.add_argument("config", help="path to the experiment config (JSON)")
    p_sweep.add_argument("--gamma-min", type=float, default=1e-8)
    p_sweep.add_argument("--gamma-max", type=float, default=1.0)
    p_sweep.add_argument("--points", type=int, default=33)
    p_sweep.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_sweep.add_argument("--out", default=None, help="output CSV path (overrides config)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameters as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BwviError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("config error: the configured sizes do not fit in memory", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
