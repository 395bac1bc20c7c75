"""Batch experiment harness: JSON configs in, CSV/JSON results out.

A config is a flat JSON object: top-level keys (experiment, replicates,
seed, output_path) plus dotted keys for experiment parameters
("method.n", "reference.std", ...).  Unknown keys are rejected so typos
fail loudly, and so does any value the run would reject: validation
builds the run's plan.  Every experiment writes results.csv with a fixed
11-column schema and summary.json with per-cell aggregates; adaptive runs
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
import re
import warnings
from dataclasses import asdict, astuple, dataclass
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
    dedupe,
    gaussian_inverse_cdf,
    halton_points,
    kq_estimate,
    kq_fit,
    sbq_greedy_select,
)
from .smc import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_LOGNORMAL,
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


# counts, scales and step sizes no plan's constructor checks: each > 0
_POSITIVE_KEYS = {
    "replicates", "method.n", "method.n_particles", "method.m_boot",
    "method.sweeps", "method.delta", "sweep.n", "sweep.sigmas",
    "halton.sigma", "grid.count", "sbq.counts", "ode.n_times",
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
    if isinstance(default, (int, float)):
        # json reads NaN, Infinity and -Infinity as floats
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key {key!r} must be a finite number")
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
    if key in _POSITIVE_KEYS and not value > 0:
        raise ConfigError(f"key {key!r} must be positive")
    if key in ("seed", "ode.data_seed") and value < 0:
        raise ConfigError(f"key {key!r} must be >= 0")


def validate_config(raw: dict, benchmark: bool = False) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig.

    Builds the run's plan after checking each key's type.  Benchmark mode
    validates the data/chain keys instead of an experiment's key set.
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
    (_benchmark_plan if benchmark else EXPERIMENTS[experiment][0])(params)
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
# experiments: a plan maps the params to the objects the replicates use,
# with no numerical work; a runner maps (cfg, replicate, *plan) to (rows,
# files), where files maps an output file name to its (header, records)


def _build(keys, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError a ConfigError naming keys."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"key{'s' * (len(keys) > 1)} "
                          f"{' and '.join(map(repr, keys))}: {err}") from None


def _toy_plan(p):
    """(problem, kernel) of the toy keys."""
    problem = _build(("problem.d", "problem.frequency"), ToyProblem,
                     d=int(p["problem.d"]),
                     frequency=float(p["problem.frequency"]))
    ell = p["kernel.lengthscale"]
    ell = default_toy_lengthscale(problem) if ell is None else float(ell)
    return problem, _build(("kernel.lengthscale",), GaussianKernel,
                           np.full(problem.d, ell))


def _ladder_kwargs(p):
    """smc_kq / smc_kq_kl keyword arguments from the method.* keys."""
    if not 0 < p["method.rho"] < 1:
        raise ConfigError("key 'method.rho' must lie in (0, 1)")
    if p["method.n_particles"] < 2 * p["method.n"]:
        raise ConfigError("key 'method.n_particles' must be at least "
                          "2 * 'method.n'")
    proposal = _build(("method.proposal", "method.rw_scale"), ProposalPolicy,
                      kind=p["method.proposal"],
                      rw_scale=float(p["method.rw_scale"]))
    return dict(n=int(p["method.n"]),
                n_particles=int(p["method.n_particles"]),
                rho=float(p["method.rho"]), delta=float(p["method.delta"]),
                m_boot=int(p["method.m_boot"]), proposal=proposal,
                sweeps=int(p["method.sweeps"]))


def _toy_ladder_plan(p):
    """(problem, kernel or toy-smckq-kl's family, reference, ladder kwargs)."""
    problem, kernel = _toy_plan(p)
    if "family.low" in p:
        kernel = _build(("family.low", "family.high"),
                        gaussian_lengthscale_family, problem.d,
                        low=float(p["family.low"]),
                        high=float(p["family.high"]))
    reference = _build(("reference.std",), GaussianMeasure,
                       np.zeros(problem.d),
                       np.full(problem.d, float(p["reference.std"])))
    return problem, kernel, reference, _ladder_kwargs(p)


def _ode_plan(p):
    """(problem, reference value, Stein kernel, box, ladder kwargs)."""
    path = p["ode.benchmark_path"]
    if path is None:
        raise ConfigError("key 'ode.benchmark_path' is required; run the "
                          "'benchmark' subcommand first")
    try:
        blob = json.loads(Path(path).read_text())
        prob = blob["problem"]
        problem = ODEProblem(**{field: prob[field] for field in (
            "theta_true", "noise_std", "times", "horizon", "prior_scale",
            "observations")})
        box = BoxUniform(np.zeros(4), prob["box_upper"])
        truth = float(blob["benchmark"]["value"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load benchmark file {path}: {exc}") from exc
    base = _build(("kernel.lengthscales",), GaussianKernel,
                  p["kernel.lengthscales"])
    if base.d != box.d:
        raise ConfigError(f"key 'kernel.lengthscales' must hold {box.d} "
                          "numbers, one per ODE parameter")
    kernel = SteinKernel(base=base, score=lambda X: ode_score(problem, X))
    return problem, truth, kernel, box, _ladder_kwargs(p)


def _halton_plan(p):
    """(problem, kernel, Halton points whose first n rows serve each n)."""
    problem, kernel = _toy_plan(p)
    return problem, kernel, _build(("problem.d", "sweep.n"), halton_points,
                                   int(max(p["sweep.n"])), problem.d)


def _grid(p) -> np.ndarray:
    """The grid.count points from grid.low to grid.high."""
    if not p["grid.low"] < p["grid.high"]:
        raise ConfigError("key 'grid.low' must be below 'grid.high'")
    return np.linspace(float(p["grid.low"]), float(p["grid.high"]),
                       int(p["grid.count"]))


def _sbq_plan(p):
    """(grid, one kernel per sbq.lengthscales entry)."""
    if len(p["sbq.lengthscales"]) != len(p["sbq.counts"]):
        raise ConfigError("keys 'sbq.lengthscales' and 'sbq.counts' must "
                          "have equal length")
    grid = _grid(p)[:, None]
    distinct = dedupe(grid).shape[0]
    if max(p["sbq.counts"]) > distinct:
        raise ConfigError(f"key 'sbq.counts' may not exceed the {distinct} "
                          "distinct points of the grid")
    return grid, [_build(("sbq.lengthscales",), GaussianKernel, [ell])
                  for ell in p["sbq.lengthscales"]]


def _bach_plan(p):
    """(diagnostic, grid)."""
    return _build(("bach.lam", "bach.truncation"), BachDiagnostic,
                  lam=float(p["bach.lam"]),
                  truncation=int(p["bach.truncation"])), _grid(p)


def _benchmark_plan(p) -> ODEProblem:
    """The benchmark subcommand's problem, before any data."""
    _build(("benchmark.chain_length", "benchmark.burn_in"), check_burn_in,
           p["benchmark.chain_length"], p["benchmark.burn_in"])
    return _build(
        ("ode.theta_true", "ode.noise_std", "ode.prior_scale"), ODEProblem,
        theta_true=np.asarray(p["ode.theta_true"], dtype=float),
        noise_std=float(p["ode.noise_std"]),
        times=np.linspace(0.0, float(p["ode.t_max"]), int(p["ode.n_times"])),
        horizon=float(p["ode.horizon"]),
        prior_scale=float(p["ode.prior_scale"]))


def _report_row(cfg: RunConfig, r: int, method: str, report, truth: float,
                seed: int) -> ResultRow:
    """The row of one adaptive run's RunReport."""
    return ResultRow(cfg.experiment, r, method, report.n_quadrature_points,
                     report.estimate, abs(report.estimate - truth),
                     report.t_star, report.total_f_evals,
                     report.final_nugget, 0.0, seed)


def _rule_row(cfg: RunConfig, r: int, method: str, seed: int, problem,
              kernel, pts: np.ndarray) -> ResultRow:
    """The row of the toy's KQ rule on nodes pts."""
    rule = kq_fit(kernel, problem.target(), pts)
    est = kq_estimate(rule, toy_integrand(problem, pts))
    n = pts.shape[0]
    return ResultRow(cfg.experiment, r, method, n, est,
                     abs(est - problem.true_value), None, n,
                     rule.nugget_used, 0.0, seed)


def _trace_file(r: int, trace):
    """{trace_<r>.csv: (header, records)} of one ladder's ErrorTrace."""
    return {f"trace_{r}.csv": (["t", "R", "nugget"],
                               [(e.t, e.error, e.nugget)
                                for e in trace.entries])}


def _toy_kq_row(cfg: RunConfig, r: int, method: str, method_idx: int,
                problem, kernel, n: int, sigma: float) -> ResultRow:
    seed = replicate_seed(cfg.seed, method_idx, r)
    rng = np.random.default_rng(seed)
    pts = sigma * rng.standard_normal((n, problem.d))
    return _rule_row(cfg, r, method, seed, problem, kernel, pts)


def _run_toy_sweep(cfg: RunConfig, r: int, problem, kernel):
    sigmas = [float(s) for s in cfg.params["sweep.sigmas"]]
    ns = [int(n) for n in cfg.params["sweep.n"]]
    return [_toy_kq_row(cfg, r, f"kq(sigma={sigma:g})", ci * len(ns) + ni,
                        problem, kernel, n, sigma)
            for ci, sigma in enumerate(sigmas)
            for ni, n in enumerate(ns)], {}


def _run_toy_smckq(cfg: RunConfig, r: int, problem, kernel, reference,
                   ladder):
    measure = problem.target()
    seed = replicate_seed(cfg.seed, 0, r)
    report = smc_kq(
        lambda X: toy_integrand(problem, X), measure.log_density, kernel,
        reference, measure=measure, seed=seed, **ladder)
    rows = [_report_row(cfg, r, "smc-kq", report, problem.true_value, seed),
            _toy_kq_row(cfg, r, "kq", 1, problem, kernel, ladder["n"], 1.0)]
    return rows, _trace_file(r, report.trace)


def _run_toy_smckq_kl(cfg: RunConfig, r: int, problem, family, reference,
                      ladder):
    measure = problem.target()
    seed = replicate_seed(cfg.seed, 0, r)
    report = smc_kq_kl(
        lambda X: toy_integrand(problem, X), measure.log_density, family,
        reference, measure=measure, seed=seed, **ladder)

    # baseline: method.n fresh target draws, lengthscale fitted on them;
    # smc-kq-kl spends many more integrand evaluations than these n
    seed_b = replicate_seed(cfg.seed, 1, r)
    pts = np.random.default_rng(seed_b).standard_normal(
        (ladder["n"], problem.d))
    f_vals = toy_integrand(problem, pts)
    kernel_hat = family.build(kern_param_fit(f_vals, pts, family))
    rows = [_report_row(cfg, r, "smc-kq-kl", report, problem.true_value,
                        seed),
            _rule_row(cfg, r, "kq-kl", seed_b, problem, kernel_hat, pts)]
    return rows, _trace_file(r, report.trace)


def _run_ode(cfg: RunConfig, r: int, problem, truth, kernel, box, ladder):
    rows, files = [], {}
    for mi, (method, early) in enumerate([("smc-kq", True), ("kq", False)]):
        seed = replicate_seed(cfg.seed, mi, r)
        report = smc_kq(
            lambda X: ode_predictive(problem, X),
            lambda X: ode_log_posterior(problem, X), kernel, box,
            measure=None, support=(box.lower, box.upper),
            terminate_early=early, seed=seed, **ladder)
        rows.append(_report_row(cfg, r, method, report, truth, seed))
        if early:
            files = _trace_file(r, report.trace)
    return rows, files


def _run_halton_compare(cfg: RunConfig, r: int, problem, kernel, halton):
    sigma_h = float(cfg.params["halton.sigma"])
    rows = []
    for ni, n in enumerate(int(v) for v in cfg.params["sweep.n"]):
        if r == 0:  # Halton rules are deterministic: one replicate each
            for scale in (1.0, sigma_h):
                pts = scale * gaussian_inverse_cdf(halton[:n])
                rows.append(_rule_row(cfg, 0, f"kq-halton(sigma={scale:g})",
                                      cfg.seed, problem, kernel, pts))
        rows.append(_toy_kq_row(cfg, r, "kq-iid(sigma=1)",
                                _HALTON_IID_METHOD + ni, problem, kernel, n,
                                1.0))
    return rows, {}


def _run_sbq_demo(cfg: RunConfig, r: int, grid, kernels):
    if r > 0:  # fully deterministic
        return [], {}
    problem = ToyProblem(d=1)
    seed_index = int(np.argmin(np.abs(grid[:, 0])))
    rows = []
    points = []
    for kernel, count in zip(kernels, cfg.params["sbq.counts"]):
        ell = float(kernel.lengthscales[0])
        idx = sbq_greedy_select(kernel, problem.target(), grid, int(count),
                                seed_index)
        sel = grid[idx]
        rows.append(_rule_row(cfg, 0, f"sbq(l={ell:g})", cfg.seed, problem,
                              kernel, sel))
        points.extend((ell, order, float(x))
                      for order, x in enumerate(sel[:, 0]))
    return rows, {"sbq_points.csv": (["lengthscale", "order", "x"], points)}


def _run_bach(cfg: RunConfig, r: int, diag, xs):
    if r > 0:
        return [], {}
    dens = bach_density_truncated(diag, xs)
    return [], {"density.csv": (["x", "density"],
                                list(zip(xs.tolist(), dens.tolist())))}


EXPERIMENTS = {
    "toy-sweep": (_toy_plan, _run_toy_sweep),
    "toy-smckq": (_toy_ladder_plan, _run_toy_smckq),
    "toy-smckq-kl": (_toy_ladder_plan, _run_toy_smckq_kl),
    "ode": (_ode_plan, _run_ode),
    "halton-compare": (_halton_plan, _run_halton_compare),
    "sbq-demo": (_sbq_plan, _run_sbq_demo),
    "bach-diagnostic": (_bach_plan, _run_bach),
}


def _replicate_task(args):
    """(rows, files, warnings, error) of one replicate.

    The plan is rebuilt from cfg.params, so only cfg crosses to a worker.
    The warnings the active filters let through are held, as (message,
    category, filename, lineno), so that run can emit those of every
    replicate in replicate order; error is what the replicate raised.
    """
    cfg, r = args
    plan, runner = EXPERIMENTS[cfg.experiment]
    rows, files, error = [], {}, None
    with warnings.catch_warnings(record=True) as held:
        try:
            rows, files = runner(cfg, r, *plan(cfg.params))
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
    after the warnings of the replicates up to and including it.  Trace
    files of replicates this run did not make are removed.
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
    for stale in out.glob("trace_*.csv"):
        if stale.name not in files \
                and re.fullmatch(r"trace_(0|[1-9][0-9]*)\.csv", stale.name):
            stale.unlink()
    return out


def run_benchmark(cfg: RunConfig, out_dir=None) -> Path:
    """Generate ODE data and a long-chain benchmark file."""
    p = cfg.params
    data_rng = np.random.default_rng(int(p["ode.data_seed"]))
    problem = with_observations(_benchmark_plan(p), data_rng)
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
        "benchmark": {**asdict(result), "chain_seed": cfg.seed},
    }
    (out / "benchmark.json").write_text(
        json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return out
