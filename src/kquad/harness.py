"""Batch experiment harness: JSON configs in, CSV/JSON results out.

A config is a flat JSON object: top-level keys (experiment, replicates,
seed, output_path) plus dotted keys for experiment parameters
("method.n", "reference.std", ...).  Unknown keys are rejected so typos
fail loudly.  Every experiment writes results.csv with a fixed 11-column
schema and summary.json with per-cell aggregates; adaptive runs
additionally write trace_<replicate>.csv ladders.  The output bytes are a
pure function of (config, seed); the wall_time_ms column is always 0.0.

Per-replicate randomness is derived as SeedSequence(seed,
spawn_key=(method_index, replicate)), so adding methods or replicates
never perturbs existing ones.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .controller import (
    gaussian_lengthscale_family,
    kern_param_fit,
    smc_kq,
    smc_kq_kl,
)
from .kernels import GaussianKernel, GaussianMeasure, SteinKernel
from .problems import (
    BachDiagnostic,
    ODEProblem,
    ToyProblem,
    bach_density_truncated,
    check_burn_in,
    default_toy_lengthscale,
    ode_log_posterior,
    ode_predictive,
    ode_score,
    posterior_benchmark,
    toy_integrand,
    with_observations,
)
from .quadrature import (
    gaussian_inverse_cdf,
    halton_points,
    kq_estimate,
    kq_fit,
    sbq_greedy_select,
)
from .smc import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_LOGNORMAL,
    RANDOM_WALK,
    BoxUniform,
    ProposalPolicy,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "ResultRow",
    "RESULT_COLUMNS",
    "load_config",
    "run",
    "run_benchmark",
    "rmse_aggregate",
    "EXPERIMENTS",
]

RESULT_COLUMNS = [
    "experiment", "replicate", "method", "n", "estimate", "abs_error",
    "t_star", "total_f_evals", "nugget_used", "wall_time_ms", "seed",
]

_PROPOSALS = (ADAPTIVE_GAUSSIAN, RANDOM_WALK, ADAPTIVE_LOGNORMAL)

# method index (spawn key) of the first iid row of halton-compare
_HALTON_IID_METHOD = 2 * 8


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the key."""


@dataclass(frozen=True)
class ResultRow:
    """One (replicate, method) outcome in the fixed CSV schema."""

    experiment: str
    replicate: int
    method: str
    n: int
    estimate: float
    abs_error: float
    t_star: float | None
    total_f_evals: int
    nugget_used: float
    wall_time_ms: float
    seed: int


# ---------------------------------------------------------------------------
# configuration

_COMMON_KEYS = {
    "replicates": 10,
    "seed": 0,
    "output_path": "out",
}

_METHOD_KEYS = {
    "method.n": 75,
    "method.n_particles": 300,
    "method.rho": 0.95,
    "method.delta": 0.1,
    "method.m_boot": 20,
    "method.proposal": ADAPTIVE_GAUSSIAN,
    "method.rw_scale": 1.0,
    "method.sweeps": 1,
}

_TOY_KEYS = {
    "problem.d": 1,
    "problem.frequency": 2.0 * math.pi,
    "kernel.lengthscale": float,  # default derived from the problem
    "reference.std": 8.0,
}

_EXPERIMENT_KEYS = {
    "toy-sweep": {
        **_TOY_KEYS,
        "sweep.sigmas": [1.0, 2.0, 3.0, 5.0],
        "sweep.n": [10, 25, 50, 75],
    },
    "toy-smckq": {**_TOY_KEYS, **_METHOD_KEYS},
    "toy-smckq-kl": {
        **_TOY_KEYS, **_METHOD_KEYS,
        "family.low": 0.05,
        "family.high": 5.0,
    },
    "ode": {
        **_METHOD_KEYS,
        "method.n": 50,
        "method.proposal": ADAPTIVE_LOGNORMAL,
        "ode.benchmark_path": str,  # required
        "kernel.lengthscales": [8.0, 8.0, 8.0, 8.0],
    },
    "bach-diagnostic": {
        "bach.lam": 1e-15,
        "bach.truncation": 80,
        "grid.low": -4.0,
        "grid.high": 4.0,
        "grid.count": 401,
    },
    "halton-compare": {
        **_TOY_KEYS,
        "halton.sigma": 3.0,
        "sweep.n": [10, 25, 50, 75],
    },
    "sbq-demo": {
        "sbq.lengthscales": [0.01, 1.0],
        "sbq.counts": [30, 5],
        "grid.low": -4.0,
        "grid.high": 4.0,
        "grid.count": 401,
    },
}

# keys the benchmark subcommand understands (data + chain settings)
_BENCHMARK_KEYS = {
    "ode.theta_true": [1.0, 3.75, 2.5, 0.5],
    "ode.noise_std": 0.4,
    "ode.n_times": 20,
    "ode.t_max": 10.0,
    "ode.horizon": 12.0,
    "ode.prior_scale": 0.5,
    "ode.data_seed": 1234,
    "benchmark.chain_length": 200_000,
    "benchmark.burn_in": 20_000,
    "benchmark.step_scale": 0.25,
}


# counts, lengthscales, scales and step sizes: every number a key holds
# must be finite and positive
_POSITIVE_KEYS = {
    "replicates", "method.n", "method.n_particles", "method.m_boot",
    "method.sweeps", "method.delta", "method.rw_scale", "problem.d",
    "problem.frequency", "kernel.lengthscale", "kernel.lengthscales",
    "sweep.n", "reference.std", "sweep.sigmas", "halton.sigma", "bach.lam",
    "bach.truncation", "grid.count", "sbq.lengthscales", "sbq.counts",
    "ode.theta_true", "ode.noise_std", "ode.prior_scale", "ode.n_times",
    "benchmark.chain_length", "benchmark.step_scale",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment configuration."""

    experiment: str
    replicates: int
    seed: int
    output_path: str
    params: dict


def _check_type(key, value, default):
    """Check value against its default; a type means no default value."""
    if isinstance(default, type):
        if value is None:  # null leaves the key unset
            return
        default = default()
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r} must be a boolean")
    elif isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r} must be a number")
        if isinstance(default, int) and isinstance(value, float) \
                and not value.is_integer():
            raise ConfigError(f"key {key!r} must be an integer")
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} must be a string")
    elif isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"key {key!r} must be a non-empty list")
        for element in value:
            _check_type(key, element, default[0])
        return
    if key in _POSITIVE_KEYS and not 0 < value < math.inf:
        raise ConfigError(f"key {key!r} must be finite and positive")
    if key in ("seed", "ode.data_seed") and value < 0:
        raise ConfigError(f"key {key!r} must be >= 0")


def validate_config(raw: dict, benchmark: bool = False) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig.

    Benchmark mode validates the data/chain keys instead of an
    experiment's key set.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if benchmark:
        experiment = "benchmark"
        known = {**_COMMON_KEYS, **_BENCHMARK_KEYS}
    else:
        experiment = raw.get("experiment")
        if not isinstance(experiment, str) or experiment not in _EXPERIMENT_KEYS:
            raise ConfigError(
                "key 'experiment' must be one of "
                + ", ".join(sorted(_EXPERIMENT_KEYS)))
        known = {**_COMMON_KEYS, **_EXPERIMENT_KEYS[experiment]}

    params = {}
    for key, value in raw.items():
        if key == "experiment":
            continue
        if key not in known:
            raise ConfigError(f"unknown key {key!r} for experiment "
                              f"{experiment!r}")
        _check_type(key, value, known[key])
        params[key] = value
    for key, default in known.items():
        params.setdefault(key, None if isinstance(default, type) else default)

    replicates = int(params.pop("replicates"))
    seed = int(params.pop("seed"))
    output_path = str(params.pop("output_path"))
    if "method.proposal" in params and params["method.proposal"] not in _PROPOSALS:
        raise ConfigError("key 'method.proposal' must be one of "
                          + ", ".join(_PROPOSALS))
    if "method.rho" in params and not 0 < params["method.rho"] < 1:
        raise ConfigError("key 'method.rho' must lie in (0, 1)")
    if "method.n" in params \
            and params["method.n_particles"] < 2 * params["method.n"]:
        raise ConfigError("key 'method.n_particles' must be at least "
                          "2 * 'method.n'")
    if "family.low" in params:
        try:
            gaussian_lengthscale_family(low=params["family.low"],
                                        high=params["family.high"])
        except ValueError as err:
            raise ConfigError(f"keys 'family.low' and 'family.high': {err}"
                              ) from None
    if "bach.lam" in params:
        try:
            BachDiagnostic(lam=params["bach.lam"],
                           truncation=params["bach.truncation"])
        except ValueError as err:
            raise ConfigError(f"keys 'bach.lam' and 'bach.truncation': {err}"
                              ) from None
    if "sbq.counts" in params:
        if len(params["sbq.lengthscales"]) != len(params["sbq.counts"]):
            raise ConfigError("keys 'sbq.lengthscales' and 'sbq.counts' must "
                              "have equal length")
        if max(params["sbq.counts"]) > params["grid.count"]:
            raise ConfigError("key 'sbq.counts' may not exceed 'grid.count'")
    if benchmark:
        if len(params["ode.theta_true"]) != 4:
            raise ConfigError("key 'ode.theta_true' must hold 4 numbers")
        try:
            check_burn_in(params["benchmark.chain_length"],
                          params["benchmark.burn_in"])
        except ValueError as err:
            raise ConfigError(f"keys 'benchmark.chain_length' and "
                              f"'benchmark.burn_in': {err}") from None
    if not benchmark and experiment == "ode" \
            and params.get("ode.benchmark_path") is None:
        raise ConfigError("key 'ode.benchmark_path' is required; run the "
                          "'benchmark' subcommand first")
    return RunConfig(experiment=experiment, replicates=replicates, seed=seed,
                     output_path=output_path, params=params)


def load_config(path, benchmark: bool = False) -> RunConfig:
    """Parse and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    return validate_config(raw, benchmark=benchmark)


def replicate_seed(base_seed: int, method_index: int, replicate: int) -> int:
    """Derived integer seed: a pure function of (seed, method, replicate)."""
    seq = np.random.SeedSequence(base_seed,
                                 spawn_key=(method_index, replicate))
    return int(seq.generate_state(1, np.uint64)[0])


def rmse_aggregate(abs_errors) -> float:
    """Root mean squared error over replicate absolute errors."""
    e = np.asarray(abs_errors, dtype=float)
    if e.size == 0:
        raise ValueError("rmse_aggregate needs at least one error")
    return float(np.sqrt(np.mean(e * e)))


# ---------------------------------------------------------------------------
# experiment building blocks


def _toy_pieces(params):
    problem = ToyProblem(d=int(params["problem.d"]),
                         frequency=float(params["problem.frequency"]))
    ell = params.get("kernel.lengthscale")
    ell = default_toy_lengthscale(problem) if ell is None else float(ell)
    return problem, GaussianKernel(np.full(problem.d, ell))


def _ladder_kwargs(p):
    """smc_kq / smc_kq_kl keyword arguments from the method.* keys."""
    return dict(n=int(p["method.n"]),
                n_particles=int(p["method.n_particles"]),
                rho=float(p["method.rho"]), delta=float(p["method.delta"]),
                m_boot=int(p["method.m_boot"]),
                proposal=ProposalPolicy(kind=p["method.proposal"],
                                        rw_scale=float(p["method.rw_scale"])),
                sweeps=int(p["method.sweeps"]))


def _report_row(cfg: RunConfig, r: int, method: str, report, truth: float,
                seed: int) -> ResultRow:
    """The row of one adaptive run's RunReport."""
    return ResultRow(cfg.experiment, r, method, report.n_quadrature_points,
                     report.estimate, abs(report.estimate - truth),
                     report.t_star, report.total_f_evals,
                     report.final_nugget, 0.0, seed)


def _rule_row(cfg: RunConfig, r: int, method: str, seed: int, problem,
              kernel, pts: np.ndarray, f_vals: np.ndarray) -> ResultRow:
    """The row of the toy's KQ rule on nodes pts, with f_vals = f(pts)."""
    rule = kq_fit(kernel, problem.target(), pts)
    est = kq_estimate(rule, f_vals)
    n = pts.shape[0]
    return ResultRow(cfg.experiment, r, method, n, est,
                     abs(est - problem.true_value), None, n,
                     rule.nugget_used, 0.0, seed)


def _trace_file(r: int, trace):
    """{trace_<r>.csv: (header, records)} of one ladder's ErrorTrace."""
    return {f"trace_{r}.csv": (["t", "R", "nugget"],
                               [(e.t, e.error, e.nugget)
                                for e in trace.entries])}


def _toy_kq_row(cfg: RunConfig, method: str, method_idx: int, r: int,
                n: int, sigma: float) -> ResultRow:
    problem, kernel = _toy_pieces(cfg.params)
    seed = replicate_seed(cfg.seed, method_idx, r)
    rng = np.random.default_rng(seed)
    pts = sigma * rng.standard_normal((n, problem.d))
    return _rule_row(cfg, r, method, seed, problem, kernel, pts,
                     toy_integrand(problem, pts))


def _run_toy_sweep(cfg: RunConfig, r: int):
    rows = []
    sigmas = [float(s) for s in cfg.params["sweep.sigmas"]]
    ns = [int(n) for n in cfg.params["sweep.n"]]
    for ci, sigma in enumerate(sigmas):
        for ni, n in enumerate(ns):
            method = f"kq(sigma={sigma:g})"
            rows.append(_toy_kq_row(cfg, method, ci * len(ns) + ni, r, n,
                                    sigma))
    return rows, {}


def _run_toy_smckq(cfg: RunConfig, r: int):
    problem, kernel = _toy_pieces(cfg.params)
    measure = problem.target()
    p = cfg.params
    n = int(p["method.n"])
    reference = GaussianMeasure(np.zeros(problem.d),
                                np.full(problem.d, float(p["reference.std"])))
    seed = replicate_seed(cfg.seed, 0, r)
    report = smc_kq(
        lambda X: toy_integrand(problem, X), measure.log_density, kernel,
        reference, measure=measure, seed=seed, **_ladder_kwargs(p))
    rows = [_report_row(cfg, r, "smc-kq", report, problem.true_value, seed),
            _toy_kq_row(cfg, "kq", 1, r, n, 1.0)]
    return rows, _trace_file(r, report.trace)


def _run_toy_smckq_kl(cfg: RunConfig, r: int):
    problem, _ = _toy_pieces(cfg.params)
    measure = problem.target()
    p = cfg.params
    n = int(p["method.n"])
    family = gaussian_lengthscale_family(problem.d,
                                         low=float(p["family.low"]),
                                         high=float(p["family.high"]))
    reference = GaussianMeasure(np.zeros(problem.d),
                                np.full(problem.d, float(p["reference.std"])))
    seed = replicate_seed(cfg.seed, 0, r)
    report = smc_kq_kl(
        lambda X: toy_integrand(problem, X), measure.log_density, family,
        reference, measure=measure, seed=seed, **_ladder_kwargs(p))

    # baseline: method.n fresh target draws, lengthscale fitted on them;
    # smc-kq-kl spends many more integrand evaluations than these n
    seed_b = replicate_seed(cfg.seed, 1, r)
    pts = np.random.default_rng(seed_b).standard_normal((n, problem.d))
    f_vals = toy_integrand(problem, pts)
    kernel_hat = family.build(kern_param_fit(f_vals, pts, family))
    rows = [_report_row(cfg, r, "smc-kq-kl", report, problem.true_value,
                        seed),
            _rule_row(cfg, r, "kq-kl", seed_b, problem, kernel_hat, pts,
                      f_vals)]
    return rows, _trace_file(r, report.trace)


def _load_benchmark(path):
    try:
        blob = json.loads(Path(path).read_text())
        prob = blob["problem"]
        problem = ODEProblem(
            theta_true=np.asarray(prob["theta_true"], dtype=float),
            noise_std=float(prob["noise_std"]),
            times=np.asarray(prob["times"], dtype=float),
            horizon=float(prob["horizon"]),
            prior_scale=float(prob["prior_scale"]),
            observations=np.asarray(prob["observations"], dtype=float),
        )
        box = (np.zeros(4), np.asarray(prob["box_upper"], dtype=float))
        truth = float(blob["benchmark"]["value"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load benchmark file {path}: {exc}") from exc
    return problem, box, truth


def _run_ode(cfg: RunConfig, r: int):
    p = cfg.params
    problem, (lo, hi), truth = _load_benchmark(p["ode.benchmark_path"])
    kernel = SteinKernel(
        base=GaussianKernel(np.asarray(p["kernel.lengthscales"], dtype=float)),
        score=lambda X: ode_score(problem, X))
    reference = BoxUniform(lo, hi)
    rows, files = [], {}
    for mi, (method, early) in enumerate([("smc-kq", True), ("kq", False)]):
        seed = replicate_seed(cfg.seed, mi, r)
        report = smc_kq(
            lambda X: ode_predictive(problem, X),
            lambda X: ode_log_posterior(problem, X), kernel, reference,
            measure=None, support=(lo, hi), terminate_early=early, seed=seed,
            **_ladder_kwargs(p))
        rows.append(_report_row(cfg, r, method, report, truth, seed))
        if early:
            files = _trace_file(r, report.trace)
    return rows, files


def _run_halton_compare(cfg: RunConfig, r: int):
    problem, kernel = _toy_pieces(cfg.params)
    p = cfg.params
    sigma_h = float(p["halton.sigma"])
    rows = []
    for ni, n in enumerate(int(v) for v in p["sweep.n"]):
        if r == 0:  # Halton rules are deterministic: one replicate each
            for scale in (1.0, sigma_h):
                pts = scale * gaussian_inverse_cdf(halton_points(n, problem.d))
                rows.append(_rule_row(
                    cfg, 0, f"kq-halton(sigma={scale:g})", cfg.seed, problem,
                    kernel, pts, toy_integrand(problem, pts)))
        rows.append(_toy_kq_row(cfg, "kq-iid(sigma=1)",
                                _HALTON_IID_METHOD + ni, r, n, 1.0))
    return rows, {}


def _run_sbq_demo(cfg: RunConfig, r: int):
    if r > 0:  # fully deterministic
        return [], {}
    p = cfg.params
    problem = ToyProblem(d=1)
    measure = problem.target()
    grid = np.linspace(float(p["grid.low"]), float(p["grid.high"]),
                       int(p["grid.count"]))[:, None]
    seed_index = int(np.argmin(np.abs(grid[:, 0])))
    rows = []
    points = []
    lens = [float(v) for v in p["sbq.lengthscales"]]
    counts = [int(v) for v in p["sbq.counts"]]
    for ell, count in zip(lens, counts):
        kernel = GaussianKernel(np.asarray([ell]))
        idx = sbq_greedy_select(kernel, measure, grid, count, seed_index)
        sel = grid[idx]
        rows.append(_rule_row(cfg, 0, f"sbq(l={ell:g})", cfg.seed, problem,
                              kernel, sel, toy_integrand(problem, sel)))
        for order, x in enumerate(sel[:, 0]):
            points.append((ell, order, float(x)))
    return rows, {"sbq_points.csv": (["lengthscale", "order", "x"], points)}


def _run_bach(cfg: RunConfig, r: int):
    if r > 0:
        return [], {}
    p = cfg.params
    diag = BachDiagnostic(lam=float(p["bach.lam"]),
                          truncation=int(p["bach.truncation"]))
    xs = np.linspace(float(p["grid.low"]), float(p["grid.high"]),
                     int(p["grid.count"]))
    dens = bach_density_truncated(diag, xs)
    return [], {"density.csv": (["x", "density"],
                                list(zip(xs.tolist(), dens.tolist())))}


# each runner maps (cfg, replicate) to (rows, files), where files maps an
# output file name to its (header, records)
EXPERIMENTS = {
    "toy-sweep": _run_toy_sweep,
    "toy-smckq": _run_toy_smckq,
    "toy-smckq-kl": _run_toy_smckq_kl,
    "ode": _run_ode,
    "halton-compare": _run_halton_compare,
    "sbq-demo": _run_sbq_demo,
    "bach-diagnostic": _run_bach,
}


def _replicate_task(args):
    """(rows, files, warnings, error) of one replicate.

    The warnings the active filters let through are held, as (message,
    category, filename, lineno), so that run can emit those of every
    replicate in replicate order, whichever process ran it; error is the
    exception the replicate raised, or None.
    """
    cfg, r = args
    rows, files, error = [], {}, None
    with warnings.catch_warnings(record=True) as held:
        try:
            rows, files = EXPERIMENTS[cfg.experiment](cfg, r)
        except Exception as exc:
            error = exc
    return rows, files, [(w.message, w.category, w.filename, w.lineno)
                         for w in held], error


# ---------------------------------------------------------------------------
# output writers


def _write_csv(path: Path, header: list[str], records) -> None:
    """One CSV file; floats as repr(float), None as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for record in records:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in record])


def _write_summary(path: Path, cfg: RunConfig, rows: list[ResultRow]) -> None:
    cells = {}
    for row in rows:
        cells.setdefault((row.method, row.n), []).append(row)
    out = []
    for (method, n), group in sorted(cells.items()):
        errs = np.asarray([g.abs_error for g in group])
        out.append({
            "method": method,
            "n": n,
            "replicates": len(group),
            "rmse": rmse_aggregate(errs),
            "median_abs_error": float(np.median(errs)),
            "q10_abs_error": float(np.quantile(errs, 0.1)),
            "q90_abs_error": float(np.quantile(errs, 0.9)),
            "mean_f_evals": float(np.mean([g.total_f_evals for g in group])),
        })
    blob = {"experiment": cfg.experiment, "seed": cfg.seed,
            "replicates": cfg.replicates, "cells": out}
    path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")


def run(cfg: RunConfig, out_dir=None, threads: int = 1) -> Path:
    """Execute an experiment and write its outputs.

    Returns the output directory.  Replicates can be distributed over
    processes; results are merged in replicate order so the output is
    independent of scheduling.  A replicate's exception is raised again
    after the warnings of the replicates up to and including it.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(cfg, r) for r in range(cfg.replicates)]
    if threads > 1:
        # most runs use one process, so they do not import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_replicate_task, tasks))
    else:
        outcomes = []
        for task in tasks:
            outcomes.append(_replicate_task(task))
            if outcomes[-1][3] is not None:
                break

    rows: list[ResultRow] = []
    files = {}
    # one registry per file, as warn keeps one per module, so a warning
    # repeated by later replicates is emitted once under the default action
    registries = {}
    for per_rep_rows, per_rep_files, held, error in outcomes:
        rows.extend(per_rep_rows)
        files.update(per_rep_files)
        for message, category, filename, lineno in held:
            registry = registries.setdefault(filename, {})
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=registry)
        if error is not None:
            raise error
    rows.sort(key=lambda r: (r.method, r.n, r.replicate))
    _write_csv(out / "results.csv", RESULT_COLUMNS, map(astuple, rows))
    _write_summary(out / "summary.json", cfg, rows)
    for name, (header, records) in files.items():
        _write_csv(out / name, header, records)
    return out


def run_benchmark(cfg: RunConfig, out_dir=None) -> Path:
    """Generate ODE data and a long-chain benchmark file."""
    p = cfg.params
    problem = ODEProblem(
        theta_true=np.asarray(p["ode.theta_true"], dtype=float),
        noise_std=float(p["ode.noise_std"]),
        times=np.linspace(0.0, float(p["ode.t_max"]),
                          int(p["ode.n_times"])),
        horizon=float(p["ode.horizon"]),
        prior_scale=float(p["ode.prior_scale"]),
    )
    data_rng = np.random.default_rng(int(p["ode.data_seed"]))
    problem = with_observations(problem, data_rng)
    chain_rng = np.random.default_rng(cfg.seed)
    result = posterior_benchmark(problem, int(p["benchmark.chain_length"]),
                                 int(p["benchmark.burn_in"]), chain_rng,
                                 step_scale=float(p["benchmark.step_scale"]))
    out = Path(out_dir if out_dir is not None else cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    blob = {
        "problem": {
            "theta_true": problem.theta_true.tolist(),
            "noise_std": problem.noise_std,
            "times": problem.times.tolist(),
            "horizon": problem.horizon,
            "prior_scale": problem.prior_scale,
            "observations": problem.observations.tolist(),
            "box_upper": [10.0, 10.0, 10.0, 10.0],
            "data_seed": int(p["ode.data_seed"]),
        },
        "benchmark": {
            "value": result.value,
            "std_error": result.std_error,
            "acceptance_rate": result.acceptance_rate,
            "chain_length": result.chain_length,
            "burn_in": result.burn_in,
            "chain_seed": cfg.seed,
        },
    }
    (out / "benchmark.json").write_text(
        json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return out
