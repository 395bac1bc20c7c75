import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kquad.harness import (
    RESULT_COLUMNS,
    ConfigError,
    load_config,
    replicate_seed,
    rmse_aggregate,
    run,
    run_benchmark,
    validate_config,
)
from kquad.smc import DegenerateWeightsError

# The checkout's source tree, for `python -m kquad` subprocesses.
SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN_HEADER = ("experiment,replicate,method,n,estimate,abs_error,"
                 "t_star,total_f_evals,nugget_used,wall_time_ms,seed")


def write_config(tmp_path, name, blob):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def tiny_sweep_config(out):
    return validate_config({
        "experiment": "toy-sweep",
        "replicates": 3,
        "sweep.sigmas": [1.0, 2.0],
        "sweep.n": [5, 10],
        "output_path": str(out),
    })


# --- configuration validation ---


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="bogus_key"):
        validate_config({"experiment": "toy-sweep", "bogus_key": 1})


def test_unknown_experiment_lists_choices():
    with pytest.raises(ConfigError, match="toy-sweep"):
        validate_config({"experiment": "no-such-thing"})
    with pytest.raises(ConfigError):
        validate_config({})
    with pytest.raises(ConfigError):
        validate_config([1, 2, 3])


def test_key_type_errors():
    with pytest.raises(ConfigError, match="replicates"):
        validate_config({"experiment": "toy-sweep", "replicates": "many"})
    with pytest.raises(ConfigError, match="replicates"):
        validate_config({"experiment": "toy-sweep", "replicates": 2.5})
    with pytest.raises(ConfigError, match="replicates"):
        validate_config({"experiment": "toy-sweep", "replicates": 0})
    with pytest.raises(ConfigError, match="sweep.n"):
        validate_config({"experiment": "toy-sweep", "sweep.n": 5})
    with pytest.raises(ConfigError, match="sweep.n"):
        validate_config({"experiment": "toy-sweep", "sweep.n": []})


@pytest.mark.parametrize("experiment, key, value", [
    ("toy-smckq", "kernel.lengthscale", "big"),
    ("toy-sweep", "kernel.lengthscale", [1.0]),
    ("ode", "ode.benchmark_path", 7),
])
def test_keys_without_a_default_value_are_type_checked(experiment, key,
                                                       value):
    with pytest.raises(ConfigError, match=key):
        validate_config({"experiment": experiment, key: value})


@pytest.mark.parametrize("experiment, key, value", [
    ("toy-sweep", "sweep.n", ["a"]),
    ("toy-sweep", "sweep.n", [0]),
    ("toy-sweep", "kernel.lengthscale", -1),
    ("toy-smckq", "method.n_particles", 10),
])
def test_list_elements_ranges_and_particle_budget_are_checked(experiment, key,
                                                             value):
    # each used to pass validation and fail inside the run
    with pytest.raises(ConfigError, match=key):
        validate_config({"experiment": experiment, key: value})


@pytest.mark.parametrize("experiment, key, value", [
    ("toy-smckq", "method.rho", 2),
    ("toy-smckq", "method.rho", 0),
    ("toy-smckq", "method.rho", 1.0),
    ("toy-smckq", "method.delta", -1),
    ("toy-smckq", "method.rw_scale", 0),
    ("toy-smckq", "reference.std", 0),
    ("toy-smckq", "reference.std", float("inf")),
    ("toy-sweep", "sweep.sigmas", [0.0]),
    ("toy-sweep", "sweep.sigmas", [1.0, -2.0]),
    ("halton-compare", "halton.sigma", 0),
    (None, "ode.noise_std", 0),
    (None, "ode.prior_scale", 0),
    (None, "ode.theta_true", [1.0, -3.75, 2.5, 0.5]),
    (None, "ode.theta_true", [1.0, 3.75, 2.5]),
    (None, "benchmark.step_scale", -1),
    (None, "benchmark.step_scale", float("nan")),
    ("bach-diagnostic", "bach.lam", 0),
    ("bach-diagnostic", "bach.truncation", 500),
    ("toy-sweep", "problem.frequency", 0),
    ("toy-sweep", "problem.frequency", -1),
    ("toy-sweep", "seed", -1),
    (None, "seed", -3),
    (None, "ode.data_seed", -1),
    ("sbq-demo", "sbq.counts", [500, 5]),
    ("sbq-demo", "sbq.counts", [30]),
])
def test_scale_and_schedule_keys_are_checked(experiment, key, value):
    # each used to pass validation and fail inside the run (exit 3), or,
    # for a negative step_scale, to run a chain that barely moves; None is
    # the benchmark subcommand's key set
    raw = {key: value}
    if experiment is not None:
        raw["experiment"] = experiment
    with pytest.raises(ConfigError, match=key):
        validate_config(raw, benchmark=experiment is None)


@pytest.mark.parametrize("low, high", [(5.0, 0.05), (0, 5.0)])
def test_family_bounds_are_checked(low, high):
    with pytest.raises(ConfigError, match="'family.low' and 'family.high'"):
        validate_config({"experiment": "toy-smckq-kl", "family.low": low,
                         "family.high": high})


def test_null_keeps_a_key_without_a_default_value_unset():
    cfg = validate_config({"experiment": "toy-smckq",
                           "kernel.lengthscale": None})
    assert cfg.params["kernel.lengthscale"] is None
    assert validate_config({"experiment": "toy-smckq",
                            "kernel.lengthscale": 2}
                           ).params["kernel.lengthscale"] == 2
    with pytest.raises(ConfigError, match="ode.benchmark_path"):
        validate_config({"experiment": "ode", "ode.benchmark_path": None})


@pytest.mark.parametrize("experiment, key", [
    ("toy-sweep", "record_wall_time"),
    ("toy-smckq-kl", "method.refit_every"),
])
def test_removed_settings_are_unknown_keys(experiment, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        validate_config({"experiment": experiment, key: 1})


def test_proposal_validation():
    with pytest.raises(ConfigError, match="method.proposal"):
        validate_config({"experiment": "toy-smckq",
                         "method.proposal": "slice-sampler"})


def test_ode_requires_benchmark_path():
    with pytest.raises(ConfigError, match="benchmark"):
        validate_config({"experiment": "ode"})


def test_defaults_are_filled_in():
    cfg = validate_config({"experiment": "toy-sweep"})
    assert cfg.replicates == 10
    assert cfg.seed == 0
    assert cfg.output_path == "out"
    assert cfg.params["sweep.sigmas"] == [1.0, 2.0, 3.0, 5.0]
    assert cfg.params["sweep.n"] == [10, 25, 50, 75]
    assert cfg.params["reference.std"] == 8.0


def test_benchmark_mode_keys():
    cfg = validate_config({"benchmark.chain_length": 500,
                           "benchmark.burn_in": 100}, benchmark=True)
    assert cfg.experiment == "benchmark"
    assert cfg.params["benchmark.chain_length"] == 500
    assert cfg.params["ode.data_seed"] == 1234
    with pytest.raises(ConfigError, match="sweep.n"):
        validate_config({"sweep.n": [5]}, benchmark=True)


@pytest.mark.parametrize("chain_length, burn_in", [(21, 20), (20, 20),
                                                     (500, 0)])
def test_benchmark_mode_needs_two_kept_draws(chain_length, burn_in):
    with pytest.raises(ConfigError, match="at least 2 draws"):
        validate_config({"benchmark.chain_length": chain_length,
                         "benchmark.burn_in": burn_in}, benchmark=True)
    cfg = validate_config({"benchmark.chain_length": 22,
                           "benchmark.burn_in": 20}, benchmark=True)
    assert cfg.params["benchmark.chain_length"] == 22


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "toy-sweep",\n  "replicates": }')
    with pytest.raises(ConfigError, match=r"line 2 column 17"):
        load_config(bad)


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, "cfg.json",
                        {"experiment": "toy-sweep", "seed": 9})
    cfg = load_config(path)
    assert cfg.experiment == "toy-sweep"
    assert cfg.seed == 9


# --- seeds and aggregation ---


def test_replicate_seed_deterministic_and_distinct():
    assert replicate_seed(0, 1, 2) == replicate_seed(0, 1, 2)
    seeds = {replicate_seed(0, mi, r) for mi in range(4) for r in range(10)}
    assert len(seeds) == 40
    assert replicate_seed(1, 0, 0) != replicate_seed(0, 0, 0)


def test_rmse_aggregate_values():
    assert rmse_aggregate([0.1]) == pytest.approx(0.1, rel=1e-15)
    assert rmse_aggregate([0.5, 0.0]) == pytest.approx(np.sqrt(0.125),
                                                       rel=1e-15)
    assert rmse_aggregate([3.0, 1.0, 2.0]) == rmse_aggregate([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        rmse_aggregate([])


# --- experiment outputs ---


def test_toy_sweep_output_shape(tmp_path):
    out = run(tiny_sweep_config(tmp_path / "a"))
    header, rows = read_rows(out / "results.csv")
    assert ",".join(header) == GOLDEN_HEADER
    assert header == RESULT_COLUMNS
    assert len(rows) == 3 * 2 * 2
    methods = {r[0:1][0] for r in rows}
    assert methods == {"toy-sweep"}
    assert {r[2] for r in rows} == {"kq(sigma=1)", "kq(sigma=2)"}
    assert all(r[6] == "" for r in rows)  # no ladder for plain rules
    assert all(float(r[9]) == 0.0 for r in rows)  # wall time off by default
    for r in rows:
        assert float(r[5]) == abs(float(r[4]) - 1.0)
        assert int(r[7]) == int(r[3])


def test_toy_sweep_summary_consistent(tmp_path):
    out = run(tiny_sweep_config(tmp_path / "a"))
    _, rows = read_rows(out / "results.csv")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "toy-sweep"
    assert summary["replicates"] == 3
    cells = {(c["method"], c["n"]): c for c in summary["cells"]}
    assert len(cells) == 4
    for (method, n), cell in cells.items():
        errs = [float(r[5]) for r in rows if r[2] == method and int(r[3]) == n]
        assert cell["replicates"] == 3
        assert cell["rmse"] == pytest.approx(rmse_aggregate(errs), rel=1e-12)
        assert cell["median_abs_error"] == pytest.approx(
            float(np.median(errs)), rel=1e-12)


def test_rerun_is_byte_identical(tmp_path):
    out1 = run(tiny_sweep_config(tmp_path / "a"))
    out2 = run(tiny_sweep_config(tmp_path / "b"))
    assert (out1 / "results.csv").read_bytes() \
        == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() \
        == (out2 / "summary.json").read_bytes()


def test_threads_do_not_change_output(tmp_path):
    out1 = run(tiny_sweep_config(tmp_path / "a"), threads=1)
    out2 = run(tiny_sweep_config(tmp_path / "b"), threads=2)
    assert (out1 / "results.csv").read_bytes() \
        == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() \
        == (out2 / "summary.json").read_bytes()


def test_failed_run_keeps_the_warnings_before_its_error(tmp_path):
    # a library caller used to lose every held warning when a replicate
    # raised; the first replicate overflows and then fails, so each run
    # emits what that replicate warned and raises its error
    cfg = validate_config({"experiment": "toy-smckq", "replicates": 2,
                           "reference.std": 1e200})
    seen = {}
    for threads in (1, 2):
        with warnings.catch_warnings(record=True) as held:
            with pytest.raises(DegenerateWeightsError):
                run(cfg, tmp_path / f"out{threads}", threads=threads)
        seen[threads] = [(str(w.message), w.category, w.filename, w.lineno)
                         for w in held]
    assert seen[1]
    assert seen[2] == seen[1]


def smckq_config(out, experiment="toy-smckq", **extra):
    blob = {
        "experiment": experiment,
        "replicates": 2,
        "method.n": 6,
        "method.n_particles": 24,
        "method.m_boot": 5,
        "output_path": str(out),
    }
    blob.update(extra)
    return validate_config(blob)


def test_toy_smckq_writes_traces(tmp_path):
    out = run(smckq_config(tmp_path / "a"))
    header, rows = read_rows(out / "results.csv")
    assert {r[2] for r in rows} == {"smc-kq", "kq"}
    smc_rows = [r for r in rows if r[2] == "smc-kq"]
    assert len(smc_rows) == 2
    for r in smc_rows:
        assert int(r[7]) == 6  # integrand calls equal the rule size
        assert 0.0 <= float(r[6]) <= 1.0
    for rep in (0, 1):
        t_header, t_rows = read_rows(out / f"trace_{rep}.csv")
        assert t_header == ["t", "R", "nugget"]
        ts = [float(r[0]) for r in t_rows]
        assert ts[0] == 0.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(float(r[1]) > 0 for r in t_rows)


def test_toy_smckq_kl_runs(tmp_path):
    out = run(smckq_config(tmp_path / "a", experiment="toy-smckq-kl",
                           replicates=1))
    _, rows = read_rows(out / "results.csv")
    assert {r[2] for r in rows} == {"smc-kq-kl", "kq-kl"}
    kl_row = next(r for r in rows if r[2] == "smc-kq-kl")
    assert int(kl_row[7]) >= 6
    assert int(kl_row[7]) == int(kl_row[3])  # every evaluation becomes a node


def test_sbq_demo_outputs(tmp_path):
    cfg = validate_config({"experiment": "sbq-demo", "replicates": 3,
                           "output_path": str(tmp_path / "a")})
    out = run(cfg)
    _, rows = read_rows(out / "results.csv")
    assert [(r[2], int(r[3])) for r in rows] == [("sbq(l=0.01)", 30),
                                                 ("sbq(l=1)", 5)]
    assert all(int(r[1]) == 0 for r in rows)  # deterministic: one replicate
    p_header, p_rows = read_rows(out / "sbq_points.csv")
    assert p_header == ["lengthscale", "order", "x"]
    assert len(p_rows) == 35
    narrow = [float(r[2]) for r in p_rows if float(r[0]) == 0.01]
    assert len(narrow) == 30
    assert max(abs(x) for x in narrow) <= 1.0
    wide = [float(r[2]) for r in p_rows if float(r[0]) == 1.0]
    assert max(wide) - min(wide) > 2.0


def test_bach_diagnostic_outputs(tmp_path):
    cfg = validate_config({"experiment": "bach-diagnostic",
                           "bach.lam": 10000.0,
                           "grid.low": -2.0, "grid.high": 2.0,
                           "grid.count": 101,
                           "output_path": str(tmp_path / "a")})
    out = run(cfg)
    header, rows = read_rows(out / "density.csv")
    assert header == ["x", "density"]
    assert len(rows) == 101
    dens = np.array([float(r[1]) for r in rows])
    assert dens.max() / dens.min() < 1.05
    _, result_rows = read_rows(out / "results.csv")
    assert result_rows == []


def test_halton_compare_outputs(tmp_path):
    cfg = validate_config({"experiment": "halton-compare", "replicates": 2,
                           "sweep.n": [5, 10],
                           "output_path": str(tmp_path / "a")})
    out = run(cfg)
    _, rows = read_rows(out / "results.csv")
    halton = [r for r in rows if r[2].startswith("kq-halton")]
    iid = [r for r in rows if r[2] == "kq-iid(sigma=1)"]
    assert len(halton) == 4  # 2 scales x 2 sizes, single replicate
    assert all(int(r[1]) == 0 for r in halton)
    assert len(iid) == 4  # 2 replicates x 2 sizes
    assert {r[2] for r in halton} == {"kq-halton(sigma=1)",
                                      "kq-halton(sigma=3)"}


def test_ode_end_to_end(tmp_path):
    bench_cfg = validate_config({"benchmark.chain_length": 400,
                                 "benchmark.burn_in": 100}, benchmark=True)
    bench_dir = run_benchmark(bench_cfg, tmp_path / "bench")
    blob = json.loads((bench_dir / "benchmark.json").read_text())
    assert set(blob) == {"problem", "benchmark"}
    assert len(blob["problem"]["observations"]) == 20
    assert blob["problem"]["box_upper"] == [10.0, 10.0, 10.0, 10.0]
    assert np.isfinite(blob["benchmark"]["value"])
    assert blob["benchmark"]["chain_seed"] == 0

    cfg = validate_config({
        "experiment": "ode",
        "replicates": 1,
        "method.n": 8,
        "method.n_particles": 32,
        "method.m_boot": 5,
        "ode.benchmark_path": str(bench_dir / "benchmark.json"),
        "output_path": str(tmp_path / "run"),
    })
    out = run(cfg)
    _, rows = read_rows(out / "results.csv")
    assert {r[2] for r in rows} == {"smc-kq", "kq"}
    kq_row = next(r for r in rows if r[2] == "kq")
    assert float(kq_row[6]) == 1.0  # forced full ladder
    for r in rows:
        assert np.isfinite(float(r[4]))
        assert int(r[7]) == 8
    assert (out / "trace_0.csv").exists()


def test_ode_bad_benchmark_file(tmp_path):
    bad = tmp_path / "bench.json"
    bad.write_text("{}")
    cfg = validate_config({"experiment": "ode",
                           "ode.benchmark_path": str(bad),
                           "output_path": str(tmp_path / "out")})
    with pytest.raises(ConfigError, match="benchmark"):
        run(cfg)


# --- command line ---


def run_cli(args, cwd, env=None):
    """Run `python -m kquad` on the checkout's src/, with `cwd` as its cwd.

    The caller's PYTHONPATH may be relative (it no longer resolves from
    `cwd`) or absent, so the absolute src directory goes first. An inherited
    KQUAD_OUT_DIR is dropped; a test that wants it passes it in `env`.
    """
    full_env = dict(os.environ)
    full_env.pop("KQUAD_OUT_DIR", None)
    full_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [full_env.get("PYTHONPATH")] if p])
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "kquad", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=full_env)


def test_cli_run_success(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-sweep", "replicates": 2,
        "sweep.sigmas": [1.0], "sweep.n": [5],
    })
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert (tmp_path / "out" / "results.csv").exists()


def test_cli_config_error_exit_2(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"experiment": "nope"})
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_benchmark_one_kept_draw_is_a_config_error(tmp_path):
    # used to write a NaN standard error into benchmark.json and exit 0
    cfg = write_config(tmp_path, "bench.json", {
        "benchmark.chain_length": 21, "benchmark.burn_in": 20,
    })
    proc = run_cli(["benchmark", str(cfg), "--out", str(tmp_path / "bench")],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "burn_in" in proc.stderr
    assert not (tmp_path / "bench" / "benchmark.json").exists()


def test_cli_replicate_override_validation(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-sweep", "sweep.sigmas": [1.0], "sweep.n": [5],
    })
    proc = run_cli(["run", str(cfg), "--replicates", "0"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "replicates" in proc.stderr


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_thread_count_validation(tmp_path, threads):
    # used to run silently with one worker
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-sweep", "sweep.sigmas": [1.0], "sweep.n": [5],
    })
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"),
                    "--threads", threads], cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "--threads" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_bad_key_type_is_a_config_error(tmp_path):
    # used to pass validation and exit 3 on float('big') in the run
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-smckq", "kernel.lengthscale": "big",
    })
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "kernel.lengthscale" in proc.stderr


def test_cli_range_error_is_a_config_error(tmp_path):
    # used to exit 0 with an unrefined lengthscale fit
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-smckq-kl", "family.low": 5.0, "family.high": 0.05,
    })
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "family.low" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_benchmark_negative_step_scale_is_a_config_error(tmp_path):
    # used to exit 0 and write a reference from a chain accepting 2%
    cfg = write_config(tmp_path, "bench.json", {
        "benchmark.chain_length": 300, "benchmark.burn_in": 100,
        "benchmark.step_scale": -1,
    })
    proc = run_cli(["benchmark", str(cfg), "--out", str(tmp_path / "bench")],
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "benchmark.step_scale" in proc.stderr
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("command, blob, extra, key", [
    ("benchmark", {"benchmark.chain_length": 300, "benchmark.burn_in": 100},
     ["--seed", "-3"], "--seed"),
    ("run", {"experiment": "toy-sweep", "sweep.n": [5]}, ["--seed", "-1"],
     "--seed"),
    ("run", {"experiment": "sbq-demo", "sbq.counts": [500, 5]}, [],
     "sbq.counts"),
    ("run", {"experiment": "bach-diagnostic", "bach.truncation": 500}, [],
     "bach.truncation"),
])
def test_cli_values_the_run_rejects_are_config_errors(tmp_path, command,
                                                      blob, extra, key):
    # each used to fail inside the run with exit 3 and a ValueError
    cfg = write_config(tmp_path, "cfg.json", blob)
    proc = run_cli([command, str(cfg), "--out", str(tmp_path / "out"),
                    *extra], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and key in proc.stderr
    assert not (tmp_path / "out").exists()


def test_cli_runtime_failure_prints_only_its_line(tmp_path):
    # the library's overflow warnings used to reach stderr before the line
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-smckq", "replicates": 1, "reference.std": 1e200,
    })
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")],
                   cwd=tmp_path)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("runtime error: DegenerateWeightsError")


def test_cli_success_still_prints_held_warnings(tmp_path):
    cfg = write_config(tmp_path, "bench.json", {
        "benchmark.chain_length": 300, "benchmark.burn_in": 100,
        "benchmark.step_scale": 80.0,
    })
    proc = run_cli(["benchmark", str(cfg), "--out", str(tmp_path / "bench")],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning: benchmark chain acceptance rate" in proc.stderr


OVERFLOWING_SWEEP = {"experiment": "toy-sweep", "replicates": 2,
                     "sweep.sigmas": [1e160], "sweep.n": [5]}


def test_cli_run_prints_each_warning_once(tmp_path):
    # importing scipy.linalg on the first factorisation reset the warning
    # registries, so the second replicate printed the first one's again
    cfg = write_config(tmp_path, "cfg.json", OVERFLOWING_SWEEP)
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"),
                    "--threads", "1"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and len(lines) == len(set(lines))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_run_prints_warnings_of_every_process(tmp_path, threads):
    # points at width 1e160 overflow the squared distances of the Gram;
    # forked workers must not drop their warnings in an inherited recorder
    cfg = write_config(tmp_path, "cfg.json", OVERFLOWING_SWEEP)
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"),
                    "--threads", threads], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning: overflow encountered" in proc.stderr


def test_cli_threaded_run_prints_the_warnings_of_one_process(tmp_path):
    # forked workers must hand their warnings to the parent, not print them
    # themselves, so a threaded run prints what a single-process one does
    cfg = write_config(tmp_path, "cfg.json", OVERFLOWING_SWEEP)
    stderr = {}
    for threads in ("1", "2"):
        proc = run_cli(["run", str(cfg), "--out",
                        str(tmp_path / f"out{threads}"), "--threads",
                        threads], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        stderr[threads] = proc.stderr
    assert "RuntimeWarning: overflow encountered" in stderr["1"]
    assert stderr["2"] == stderr["1"]


def test_cli_threaded_runtime_failure_prints_only_its_line(tmp_path):
    # workers used to print their overflow warnings before the line
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-smckq", "reference.std": 1e200,
    })
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out"),
                    "--threads", "2", "--replicates", "2"], cwd=tmp_path)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("runtime error: DegenerateWeightsError")


def test_cli_runtime_error_exit_3(tmp_path):
    # valid config whose run fails: moves that are never accepted leave
    # too few unique states for the rule
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-smckq", "replicates": 1, "method.n": 150,
        "method.proposal": "random-walk-gaussian", "method.rw_scale": 1e6,
    })
    proc = run_cli(["run", str(cfg), "--out", str(tmp_path / "out")],
                   cwd=tmp_path)
    assert proc.returncode == 3
    assert "unique states" in proc.stderr
    # one line, no traceback
    lines = [line for line in proc.stderr.splitlines() if line.strip()]
    assert lines == [proc.stderr.strip()]
    assert lines[0].startswith("runtime error: InsufficientStatesError: ")


def test_cli_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-sweep", "replicates": 2,
        "sweep.sigmas": [1.0], "sweep.n": [5],
    })
    a = run_cli(["run", str(cfg), "--out", str(tmp_path / "a")], cwd=tmp_path)
    b = run_cli(["run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "7"],
                cwd=tmp_path)
    assert a.returncode == 0 and b.returncode == 0
    assert (tmp_path / "a" / "results.csv").read_bytes() \
        != (tmp_path / "b" / "results.csv").read_bytes()


def test_cli_out_dir_env_fallback(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "experiment": "toy-sweep", "replicates": 1,
        "sweep.sigmas": [1.0], "sweep.n": [5],
    })
    proc = run_cli(["run", str(cfg)], cwd=tmp_path,
                   env={"KQUAD_OUT_DIR": str(tmp_path / "envout")})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "envout" / "results.csv").exists()


def test_cli_benchmark_subcommand(tmp_path):
    cfg = write_config(tmp_path, "bench.json", {
        "benchmark.chain_length": 300, "benchmark.burn_in": 100,
    })
    proc = run_cli(["benchmark", str(cfg), "--out", str(tmp_path / "bench")],
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
    assert blob["benchmark"]["chain_length"] == 300
