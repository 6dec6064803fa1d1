import copy
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bwvi.checks
import bwvi.cli as cli
import bwvi.harness
import bwvi.optimizers
from bwvi.checks import CheckResult, check_fixed_points
from bwvi.errors import InvalidParameters
from bwvi.harness import (
    SWEEP_HEADER,
    TRACE_HEADER,
    ExperimentConfig,
    build_initial_state,
    build_schedule,
    build_target,
    execute_run,
    execute_sweep,
    parse_experiment_config,
)

BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def blas_threads() -> list[int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    return [getter() for getter in bwvi.harness._openblas_functions(BLAS_GETTERS)]


def quadratic_config(**overrides):
    raw = {
        "target": {"kind": "quadratic", "dim": 2, "condition_number": 5.0, "seed": 3},
        "algorithm": "spgd",
        "estimator": "bonnet_price",
        "minibatch": 8,
        "iterations": 10,
        "schedule": {"kind": "constant", "gamma": 0.01},
        "init": {"mean": 0.0, "variance": 0.34},
        "eval_samples": 64,
        "repetitions": 1,
        "seed": 0,
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_valid_roundtrip(self):
        config = parse_experiment_config(quadratic_config())
        assert config.iterations == 10
        assert config.target["kind"] == "quadratic"

    def test_negative_iterations_names_field(self):
        with pytest.raises(InvalidParameters, match="iterations"):
            parse_experiment_config(quadratic_config(iterations=-1))

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidParameters, match="stepsize"):
            parse_experiment_config(quadratic_config(stepsize=0.1))

    def test_missing_target(self):
        raw = quadratic_config()
        del raw["target"]
        with pytest.raises(InvalidParameters, match="target"):
            parse_experiment_config(raw)

    def test_bad_estimator(self):
        with pytest.raises(InvalidParameters, match="estimator"):
            parse_experiment_config(quadratic_config(estimator="score"))

    def test_bad_gamma(self):
        with pytest.raises(InvalidParameters, match="schedule.gamma"):
            parse_experiment_config(
                quadratic_config(schedule={"kind": "constant", "gamma": 0.0})
            )


MALFORMED_RUN_CONFIGS = [
    ({"target": {"kind": "quadratic", "dim": "abc"}}, "target.dim"),
    (
        {"target": {"kind": "quadratic", "dim": 3, "condition_number": "x"}},
        "target.condition_number",
    ),
    ({"minibatch": True}, "minibatch"),
    ({"target": {"kind": "quadratic", "dim": 3}, "init": {"mean": [0.0, 1.0]}}, "init.mean"),
    ({"schedule": {"kind": "constant", "gamma": None}}, "schedule.gamma"),
    (
        {"target": {"kind": "quadratic", "dim": 3, "conditon_number": 100.0}},
        "target.conditon_number",
    ),
    ({"schedule": {"kind": "constant", "gamma": 0.01, "gama": 5}}, "schedule.gama"),
    ({"init": {"varaince": 9.0}}, "init.varaince"),
    # spectra that overflow or underflow float64, or that its round-off loses
    (
        {"target": {"kind": "quadratic", "dim": 3, "strong_convexity": 1e300,
                    "condition_number": 1e10}},
        "target.condition_number",
    ),
    ({"target": {"kind": "quadratic", "dim": 3, "strong_convexity": 1e308}}, "target.strong_convexity"),
    ({"target": {"kind": "quadratic", "dim": 3, "strong_convexity": 1e-320}}, "target.strong_convexity"),
    ({"target": {"kind": "quadratic", "dim": 5, "condition_number": 1e308}}, "target.condition_number"),
    ({"target": {"kind": "quadratic", "dim": 5, "condition_number": 1e300}}, "target.condition_number"),
    # spectra whose theorem schedule's gamma_0 = 1 / (10 L kappa) underflows to 0
    (
        {"target": {"kind": "quadratic", "dim": 3, "strong_convexity": 1e290,
                    "condition_number": 1e10}, "schedule": {"kind": "theorem"}},
        "target.condition_number",
    ),
    (
        {"target": {"kind": "logistic", "dataset": str(files("bwvi.data") / "toy_logistic.csv"),
                    "ridge": 1e-320}, "schedule": {"kind": "theorem", "delta_sq": 1.0}},
        "target.ridge",
    ),
]


class TestMalformedInput:
    @pytest.mark.parametrize("overrides, field", MALFORMED_RUN_CONFIGS)
    def test_run_exits_2_naming_the_field(self, tmp_path, capsys, overrides, field):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(**overrides)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 2
        assert field in capsys.readouterr().err

    def test_sizes_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(bwvi.harness, "random_quadratic", out_of_memory)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config()))
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 2
        assert "config error: the configured sizes do not fit in memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, flags, field", [
        ("run", {"minibatch": 10**20}, [], "minibatch"),
        ("sweep", {"minibatch": 10**20}, ["--points", "2"], "minibatch"),
        ("sweep", {"eval_samples": 10**20}, ["--points", "2"], "eval_samples"),
        ("sweep", {}, ["--points", str(10**20)], "--points"),
    ])
    def test_sizes_beyond_numpy_arrays_exit_2_naming_the_field(
        self, tmp_path, capsys, command, overrides, flags, field
    ):
        # numpy raises ValueError, not MemoryError, for these sizes
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(**overrides)))
        argv = [command, str(config_path), *flags, "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err and "fit in memory" in err

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_zero_workers_exits_2(self, tmp_path, capsys, command):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(iterations=1)))
        out = str(tmp_path / "sweep.csv")
        argv = ["sweep", str(config_path), "--points", "1", "--out", out]
        assert cli.main([*(argv if command == "sweep" else ["verify"]), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


BASE_TARGETS = [
    {"kind": "quadratic", "dim": 2, "condition_number": 5.0, "seed": 3},
    {"kind": "logistic", "dataset": str(files("bwvi.data") / "toy_logistic.csv"), "ridge": 0.1},
]
BASE_SCHEDULES = [
    {"kind": "constant", "gamma": 0.01}, {"kind": "theorem"}, {"kind": "theorem", "delta_sq": 2.0},
]
CONFIG_FIELDS = [
    ("target",), ("target", "kind"), ("target", "dim"), ("target", "condition_number"),
    ("target", "seed"), ("target", "strong_convexity"), ("target", "center_scale"),
    ("target", "dataset"), ("target", "ridge"), ("algorithm",), ("estimator",),
    ("minibatch",), ("iterations",), ("schedule",), ("schedule", "kind"),
    ("schedule", "gamma"), ("schedule", "delta_sq"), ("init",), ("init", "mean"),
    ("init", "variance"), ("eval_samples",), ("repetitions",), ("seed",),
    ("divergence_threshold",), ("output",),
]
# Integers stay small so that a replaced size (dim, minibatch, iterations,
# repetitions) keeps each run to a few milliseconds.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


# Values that overflow the theorem schedule's switch time or the initial W2.
QUADRATIC_THEOREM = {"target": BASE_TARGETS[0], "schedule": BASE_SCHEDULES[1]}


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@example(**QUADRATIC_THEOREM, path=("init", "mean"), value=1e300)
@example(**QUADRATIC_THEOREM, path=("init", "variance"), value=1.7e308)
@example(**QUADRATIC_THEOREM, path=("target", "condition_number"), value=1e8)
@example(**QUADRATIC_THEOREM, path=("target", "strong_convexity"), value=1e308)
@example(**QUADRATIC_THEOREM, path=("target", "strong_convexity"), value=1e-320)
@given(
    target=st.sampled_from(BASE_TARGETS),
    schedule=st.sampled_from(BASE_SCHEDULES),
    path=st.sampled_from(CONFIG_FIELDS),
    value=JSON_VALUES,
)
def test_run_on_any_field_value_exits_0_2_or_3(tmp_path, target, schedule, path, value):
    raw = copy.deepcopy(quadratic_config(target=target, schedule=schedule, iterations=3))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) in (0, 2, 3)


@pytest.mark.parametrize("field, value, code", [("mean", 1e300, 0), ("variance", 1.7e308, 0)])
def test_overflowing_initial_distance_warns_nothing(tmp_path, field, value, code):
    # The theorem schedule's initial W2 overflows for these; it is handled
    # where it arises, without a RuntimeWarning.
    raw = quadratic_config(**QUADRATIC_THEOREM, iterations=3)
    raw["init"][field] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == code


def test_huge_initial_variance_is_an_infinite_distance(tmp_path):
    # Sigma_0 = 1e308 I is finite, but the initial W2 is taken from its
    # symmetrized covariance, which overflows: the theorem schedule gets an
    # infinite distance and the run diverges, as with a far init.mean.
    raw = quadratic_config(**QUADRATIC_THEOREM, iterations=3)
    raw["init"]["variance"] = 1e308
    config = parse_experiment_config(raw)
    target = build_target(config)
    schedule = build_schedule(config, target, build_initial_state(config, target.dim))
    assert schedule.switch_time == math.inf
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    out = tmp_path / "t.csv"
    assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].endswith(",true")


class TestRunCommand:
    def test_trace_row_count_and_schema(self, tmp_path):
        config_path = tmp_path / "config.json"
        out_path = tmp_path / "trace.csv"
        config_path.write_text(json.dumps(quadratic_config()))
        code = cli.main(["run", str(config_path), "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + 11  # header + T+1 records for one run
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "0"
        assert first[-1] in ("true", "false")

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = cli.main(["run", str(tmp_path / "absent.json")])
        assert code == 3

    def test_missing_dataset_is_io_error(self, tmp_path):
        config = quadratic_config(
            target={"kind": "logistic", "dataset": str(tmp_path / "no.csv"), "ridge": 0.1}
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_dataset_value_is_config_error(self, tmp_path, capsys, bad):
        data = tmp_path / "toy.csv"
        data.write_text(f"a,b,y\n0.4,1.0,1\n-0.2,{bad},0\n")
        config = quadratic_config(target={"kind": "logistic", "dataset": str(data), "ridge": 0.1})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 2
        assert f"{data}:3: non-finite value" in capsys.readouterr().err

    def test_dataset_not_utf8_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        data.write_bytes(b"a,b,y\r\n0.4,1.0,1\r\n-0.2,0.3,0\r\n\xff.5,1.0,1\r\n")
        config = quadratic_config(target={"kind": "logistic", "dataset": str(data), "ridge": 0.1})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 2
        assert f"error: {data}:4: not UTF-8 text" in capsys.readouterr().err

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b"\xff\xfe" + json.dumps(quadratic_config()).encode("utf-16-le"))
        assert cli.main(["run", str(config_path), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {config_path}: not UTF-8 text")

    def test_invalid_config_is_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(iterations=-4)))
        assert cli.main(["run", str(config_path)]) == 2
        assert "iterations" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config()))
        out = tmp_path / "trace.csv"
        monkeypatch.setenv("BWVI_SEED", "99")
        cli.main(["run", str(config_path), "--out", str(out)])
        assert out.read_text().splitlines()[1].split(",")[1] == "99"

    def test_exact_estimator_run(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(estimator="exact")))
        out = tmp_path / "trace.csv"
        assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[5] == "0.0" for row in rows)  # exact energies carry no SE


class TestExecuteRun:
    def test_repetitions_run_as_one_batch_equal_separate_runs(self, monkeypatch):
        config = parse_experiment_config(quadratic_config(
            algorithm="spbwgd", estimator="bonnet_reparam", repetitions=3, iterations=30,
            schedule={"kind": "constant", "gamma": 0.05},
        ))
        batches = []

        def counting(*args):
            batches.append(len(args[3]))
            return bwvi.optimizers.run_batch(*args)

        monkeypatch.setattr(bwvi.harness, "run_batch", counting)
        traces = execute_run(config)
        assert batches == [3]
        target = build_target(config)
        q0 = build_initial_state(config, target.dim)
        schedule = build_schedule(config, target, q0)
        opt = bwvi.optimizers.OptimizerConfig(
            algorithm="spbwgd", estimator="bonnet_reparam", minibatch=8, max_iters=30
        )
        for rep, trace in enumerate(traces):
            alone = bwvi.optimizers.run(opt, target, q0, schedule, seed=rep)
            assert trace.records.tobytes() == alone.records.tobytes()
            np.testing.assert_array_equal(trace.final_state.scale, alone.final_state.scale)
            np.testing.assert_array_equal(trace.final_state.mean, alone.final_state.mean)


def openblas_libraries() -> int:
    """Number of OpenBLAS libraries loaded in this process."""
    with open("/proc/self/maps") as fh:
        return len({p for p in (line.split()[-1] for line in fh) if "openblas" in p.lower()})


def worker_blas() -> tuple[int, list[int]]:
    return openblas_libraries(), blas_threads()


def test_sweep_worker_uses_one_blas_thread():
    pytest.importorskip("scipy.linalg")  # loads scipy's own OpenBLAS next to numpy's
    if not blas_threads():
        pytest.skip("no OpenBLAS thread-count getter is loaded")
    with ProcessPoolExecutor(1, initializer=bwvi.harness._one_blas_thread) as pool:
        libraries, threads = pool.submit(worker_blas).result()
    assert len(threads) == libraries  # one getter per loaded library
    assert set(threads) == {1}


class TestSweepCommand:
    def test_cartesian_row_count(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(repetitions=2, iterations=5)))
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", str(config_path), "--gamma-min", "1e-4", "--gamma-max", "1e-2",
            "--points", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 3 * 2 * 2 * 2  # grid x algorithms x estimators x reps

    def test_byte_identical_reruns(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(repetitions=2, iterations=5)))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            cli.main([
                "sweep", str(config_path), "--gamma-min", "1e-4", "--gamma-max", "1e-2",
                "--points", "3", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_workers_do_not_change_output(self, tmp_path):
        config = parse_experiment_config(quadratic_config(repetitions=2, iterations=5))
        grid = np.geomspace(1e-4, 1e-2, 3)
        serial = execute_sweep(config, grid, workers=1)
        parallel = execute_sweep(config, grid, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("workers, processes", [(2, 2), (4, 4), (5, 4), (500, 4)])
    def test_pool_has_at_most_one_process_per_batch(self, monkeypatch, tmp_path, workers, processes):
        # The pool forks all its processes when it starts; the stub starts
        # none and records how many it was asked for.
        pools = []

        class InProcessPool:
            def __init__(self, max_workers, initializer=None):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(bwvi.harness, "ProcessPoolExecutor", InProcessPool)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(repetitions=2, iterations=5)))
        outs = []
        for n in (1, workers):
            out = tmp_path / f"sweep{n}.csv"
            assert cli.main([
                "sweep", str(config_path), "--points", "3", "--workers", str(n), "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert pools == [processes]
        assert outs[0] == outs[1]

    def test_unstable_step_sizes_marked_diverged(self, tmp_path):
        config = quadratic_config(
            target={"kind": "quadratic", "dim": 3, "condition_number": 100.0, "seed": 2},
            iterations=300,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "sweep", str(config_path), "--gamma-min", "1.0", "--gamma-max", "1.0",
            "--points", "1", "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(row[-1] == "true" and row[-2] == "" for row in rows)

    def test_bad_grid_is_config_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config()))
        assert cli.main([
            "sweep", str(config_path), "--gamma-min", "1.0", "--gamma-max", "0.1",
        ]) == 2

    @pytest.mark.parametrize("bounds", [("1e-8", "inf"), ("inf", "inf")], ids=["max", "both"])
    def test_infinite_grid_bound_is_config_error(self, tmp_path, capsys, bounds):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config()))
        out = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep", str(config_path), "--gamma-min", bounds[0], "--gamma-max", bounds[1],
            "--points", "3", "--out", str(out),
        ]) == 2
        assert "argument '--gamma-min/--gamma-max'" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_exit_codes_from_stubbed_suite(self, monkeypatch, capsys):
        good = CheckResult("stub-pass", True, "ok", 0.0)
        bad = CheckResult("stub-fail", False, "broken", 0.0)
        monkeypatch.setattr(bwvi.checks, "QUICK", ((("s"), lambda **kw: good),))
        assert cli.main(["verify", "--level", "quick"]) == 0
        monkeypatch.setattr(bwvi.checks, "QUICK", (
            (("s"), lambda **kw: good), (("t"), lambda **kw: bad),
        ))
        assert cli.main(["verify", "--level", "quick"]) == 1
        out = capsys.readouterr().out
        assert "PASS stub-pass" in out and "FAIL stub-fail" in out

    def test_prints_each_line_as_its_check_completes(self, monkeypatch, capsys):
        def second(**kw):
            assert "PASS stub-first" in capsys.readouterr().out
            return CheckResult("stub-second", True, "ok", 0.0)

        monkeypatch.setattr(bwvi.checks, "QUICK", (
            ("s", lambda **kw: CheckResult("stub-first", True, "ok", 0.0)), ("t", second),
        ))
        assert cli.main(["verify", "--level", "quick"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS stub-second [0.0s] ok", "2/2 checks passed",
        ]

    def test_mutated_prox_formula_fails_fixed_points(self, monkeypatch):
        # deliberately corrupt the prox diagonal (drop the square on C_ii);
        # the fixed-point identity must catch it.  The step calls the
        # kernel, not the checked entropy_prox.
        def corrupted(scale, gamma):
            scale = np.asarray(scale, dtype=float)
            out = np.tril(scale).copy()
            diag = np.diag(scale)
            np.fill_diagonal(out, 0.5 * (diag + np.sqrt(np.abs(diag) + 4.0 * gamma)))
            return out

        monkeypatch.setattr(bwvi.optimizers, "_prox", corrupted)
        assert not check_fixed_points(instances=8).passed

    def test_mutated_jko_constant_fails_fixed_points(self, monkeypatch):
        # the step calls the spectral kernel, not the checked jko_entropy
        original = bwvi.optimizers._jko

        def corrupted(sigma, gamma):
            return original(sigma, 2.0 * gamma)

        monkeypatch.setattr(bwvi.optimizers, "_jko", corrupted)
        assert not check_fixed_points(instances=8).passed

    def test_full_suite_includes_heavy_checks(self):
        quick_names = {name for name, _ in bwvi.checks.QUICK}
        full_names = {name for name, _ in bwvi.checks.FULL}
        assert {"stochastic-convergence", "step-size-envelope"} <= full_names
        assert "estimator-unbiasedness" in quick_names


class TestTraceColumns:
    def test_w2_column_empty_without_closed_form_optimum(self, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text("a,b,y\n0.4,1.0,1\n-0.2,0.3,0\n1.0,-0.5,1\n0.1,0.2,0\n")
        config = quadratic_config(
            target={"kind": "logistic", "dataset": str(data), "ridge": 0.5},
            iterations=3,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "trace.csv"
        assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(row[6] == "" for row in rows)

    def test_w2_column_present_for_quadratic(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(iterations=3)))
        out = tmp_path / "trace.csv"
        cli.main(["run", str(config_path), "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert all(float(row[6]) >= 0.0 for row in rows)

    def test_w2_column_inf_when_covariance_overflows(self, tmp_path):
        # Each chain's Sigma = 1e308 I is finite, but its product with the
        # optimum's root (Sigma_* > I here) overflows in the W2 record.
        target = {"kind": "quadratic", "dim": 2, "condition_number": 5.0, "strong_convexity": 0.1}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(
            target=target, init={"mean": 0.0, "variance": 1e308}, repetitions=2, iterations=3,
        )))
        out = tmp_path / "trace.csv"
        assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(row[6] == "inf" for row in rows)

    def test_w2_column_finite_for_an_ill_conditioned_target(self, tmp_path):
        # Round-off in the W2 record's congruence at kappa = 1e12 is clipped,
        # so the run records its divergence at t = 1 and exits 0.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(quadratic_config(
            target={"kind": "quadratic", "dim": 5, "condition_number": 1e12, "seed": 0},
            algorithm="spbwgd", schedule={"kind": "constant", "gamma": 1e-3}, iterations=3,
        )))
        out = tmp_path / "trace.csv"
        assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[2], row[-1]) for row in rows] == [("0", "false"), ("1", "true")]
        assert all(math.isfinite(float(row[6])) for row in rows)
