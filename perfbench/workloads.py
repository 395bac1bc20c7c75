"""The benchmark's workloads: inputs, one timed call, and its checks.

Each workload is built once by ``setup(workdir, seed)`` and then called
repeatedly with per-call seeds.  A call returns a ``CallResult`` holding
what the metrics need, a fingerprint that a traced call must reproduce
bit for bit, and the list of correctness checks it failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kquad import (
    ADAPTIVE_LOGNORMAL,
    BoxUniform,
    GaussianKernel,
    GaussianMeasure,
    ODEProblem,
    ProposalPolicy,
    SteinKernel,
    ToyProblem,
    gaussian_lengthscale_family,
    ode_log_posterior,
    ode_predictive,
    ode_score,
    smc_kq,
    smc_kq_kl,
    toy_integrand,
    with_observations,
)
from kquad.harness import RESULT_COLUMNS

from spans import Recorder, counted_rows, installed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ODE_REFERENCE = json.loads((HERE / "ode_reference.json").read_text())


def call_seed(seed: int, i: int) -> int:
    """Seed of the i-th call of a run with workload seed ``seed``."""
    seq = np.random.SeedSequence(seed, spawn_key=(i,))
    return int(seq.generate_state(1, np.uint64)[0])


def child_env() -> dict:
    """Environment of kquad subprocesses: absolute src path, one thread."""
    env = dict(os.environ)
    env.pop("KQUAD_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@dataclass
class CallResult:
    fingerprint: tuple
    abs_errors: list[float]
    f_evals: int
    problems: list[str]
    rungs: int = 0  # temperatures on the ladder
    early_stop: bool = False  # the ladder stopped before t = 1
    command_s: dict[str, float] = field(default_factory=dict)


# -- library workloads: one smc_kq / smc_kq_kl call per seed ----------------

_LADDER_SPANS = (
    "controller.call", "controller.bootstrap", "quadrature.chol",
    "quadrature.kq_fit", "smc.init", "smc.next_temperature", "smc.step",
    "smc.markov_move", "problems.integrand", "problems.log_target",
)


class _Estimator:
    """One estimator call on a fixed problem, scored against its truth."""

    name: str
    truth: float
    tolerance: float  # |estimate - truth| above this fails the call
    expected: tuple[str, ...]

    def call(self, seed: int, recorder: Recorder | None = None) -> CallResult:
        rows = [0]

        def f(X):
            rows[0] += X.shape[0]
            return self.integrand(X)

        if recorder is None:
            report = self.estimate(f, self.log_target, seed, None)
        else:
            recorder.next_call()
            traced_f = counted_rows(recorder, "problems.integrand", f)
            log_target = counted_rows(recorder, "problems.log_target",
                                      self.log_target)
            with installed(recorder), recorder.span("controller.call"):
                report = self.estimate(traced_f, log_target, seed, recorder)
        err = abs(report.estimate - self.truth)
        problems = []
        if not err <= self.tolerance:
            problems.append(f"|estimate - truth| = {err!r} above "
                            f"{self.tolerance!r} (t_star {report.t_star!r}, "
                            f"{len(report.trace)} temperatures)")
        if not 0.0 <= report.t_star <= 1.0:
            problems.append(f"t_star {report.t_star!r} outside [0, 1]")
        problems += self.check_evals(report, rows[0])
        return CallResult(
            fingerprint=(report.estimate.hex(), report.t_star.hex(),
                         report.total_f_evals),
            abs_errors=[err], f_evals=report.total_f_evals,
            problems=problems, rungs=len(report.trace),
            early_stop=report.trace.entries[-1].t < 1.0)

    def check_evals(self, report, rows: int) -> list[str]:
        # smc_kq evaluates the integrand on exactly the n rule nodes
        if report.total_f_evals == self.n and rows == self.n:
            return []
        return [f"expected {self.n} integrand evaluations, report says "
                f"{report.total_f_evals}, integrand saw {rows} rows"]


class _Toy(_Estimator):
    n = 75
    n_particles = 300
    truth = 1.0

    def setup(self, workdir: Path, seed: int) -> None:
        self.problem = ToyProblem(d=1)
        self.measure = self.problem.target()
        self.reference = GaussianMeasure([0.0], [8.0])
        self.log_target = self.measure.log_density

    def integrand(self, X):
        return toy_integrand(self.problem, X)


class ToySmcKq(_Toy):
    name = "toy-smckq"
    tolerance = 0.05
    expected = _LADDER_SPANS + ("kernels.gaussian_gram",)

    def setup(self, workdir: Path, seed: int) -> None:
        super().setup(workdir, seed)
        self.kernel = GaussianKernel([1.0])

    def estimate(self, f, log_target, seed, recorder):
        return smc_kq(f, log_target, self.kernel, self.reference,
                      measure=self.measure, n=self.n,
                      n_particles=self.n_particles, seed=seed)


class ToyKl(_Toy):
    name = "toy-kl"
    tolerance = 1e-6
    expected = _LADDER_SPANS + ("kernels.gaussian_gram",
                                "controller.kern_param_fit",
                                "controller.ml_objective")

    def setup(self, workdir: Path, seed: int) -> None:
        super().setup(workdir, seed)
        self.family = gaussian_lengthscale_family(1, low=0.05, high=5.0)

    def estimate(self, f, log_target, seed, recorder):
        return smc_kq_kl(f, log_target, self.family, self.reference,
                         measure=self.measure, n=self.n,
                         n_particles=self.n_particles, seed=seed)

    def check_evals(self, report, rows: int) -> list[str]:
        # every evaluation is cached, so no point reaches the integrand twice
        if rows == report.total_f_evals:
            return []
        return [f"integrand saw {rows} rows for {report.total_f_evals} "
                "distinct evaluations"]


def ode_problem() -> ODEProblem:
    """The oscillator problem of the stored reference, checked against it."""
    problem = with_observations(
        ODEProblem(), np.random.default_rng(ODE_REFERENCE["data_seed"]))
    if problem.observations.tolist() != ODE_REFERENCE["observations"]:
        raise RuntimeError("oscillator data no longer match "
                           "ode_reference.json; rerun make_reference.py")
    return problem


class OdeStein(_Estimator):
    name = "ode-stein"
    n = 50
    n_particles = 300
    tolerance = 0.02
    truth = ODE_REFERENCE["value"]
    expected = _LADDER_SPANS + ("kernels.stein_gram", "problems.score")

    def setup(self, workdir: Path, seed: int) -> None:
        self.problem = ode_problem()
        self.box = (np.zeros(4), np.full(4, 10.0))
        self.reference = BoxUniform(*self.box)
        self.base = GaussianKernel(np.full(4, 8.0))
        self.kernel = SteinKernel(self.base, self.score)
        self.proposal = ProposalPolicy(ADAPTIVE_LOGNORMAL)

    def score(self, X):
        return ode_score(self.problem, X)

    def integrand(self, X):
        return ode_predictive(self.problem, X)

    def log_target(self, X):
        return ode_log_posterior(self.problem, X)

    def estimate(self, f, log_target, seed, recorder):
        kernel = self.kernel
        if recorder is not None:
            kernel = SteinKernel(self.base, counted_rows(
                recorder, "problems.score", self.score))
        return smc_kq(f, log_target, kernel, self.reference,
                      support=self.box, n=self.n,
                      n_particles=self.n_particles, proposal=self.proposal,
                      seed=seed)


# -- the README batch path through the CLI ----------------------------------

class CliPipeline:
    """kquad benchmark -> kquad run (ode, 2 processes) -> kquad run (sbq-demo).

    Every iteration of a run repeats the same three commands with the same
    configs, so their outputs must match byte for byte.
    """

    name = "cli-pipeline"
    chain_length = 5000
    burn_in = 1000
    replicates = 4
    threads = 2
    ode_n = 50
    sbq_lengthscales = [0.01, 1.0]
    sbq_counts = [30, 5]
    tolerance = OdeStein.tolerance
    truth = ODE_REFERENCE["value"]
    expected = ("harness.run", "harness.run_benchmark", "problems.chain",
                "quadrature.sbq_select", "quadrature.kq_fit",
                "quadrature.chol")

    def setup(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.env = child_env()
        self.iteration = 0
        self.first_outputs = None
        config_seed = call_seed(seed, 0) % 2**31
        cfg = workdir / "configs"
        cfg.mkdir()
        self.bench_cfg = cfg / "bench.json"
        self.bench_cfg.write_text(json.dumps({
            "benchmark.chain_length": self.chain_length,
            "benchmark.burn_in": self.burn_in, "seed": config_seed}))
        self.ode_cfg = cfg / "ode.json"
        self.ode_cfg.write_text(json.dumps({
            "experiment": "ode", "replicates": self.replicates,
            "seed": config_seed, "method.n": self.ode_n,
            "ode.benchmark_path": "bench/benchmark.json"}))
        self.sbq_cfg = cfg / "sbq.json"
        self.sbq_cfg.write_text(json.dumps({
            "experiment": "sbq-demo",
            "sbq.lengthscales": self.sbq_lengthscales,
            "sbq.counts": self.sbq_counts}))

    def _kquad(self, args, cwd, recorder, spans_file):
        if recorder is None:
            cmd = [sys.executable, "-m", "kquad", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"),
                   str(spans_file), *args]
        return subprocess.run(cmd, cwd=cwd, env=self.env,
                              capture_output=True, text=True, timeout=150)

    def call(self, seed: int, recorder: Recorder | None = None) -> CallResult:
        out = self.workdir / f"iter{self.iteration}"
        out.mkdir()
        self.iteration += 1
        call = recorder.next_call() if recorder is not None else 0
        steps = [
            ("benchmark", ["benchmark", str(self.bench_cfg),
                           "--out", "bench"]),
            ("run-ode", ["run", str(self.ode_cfg), "--out", "ode",
                         "--threads", str(self.threads)]),
            ("run-sbq", ["run", str(self.sbq_cfg), "--out", "sbq"]),
        ]
        problems, command_s = [], {}
        for label, args in steps:
            spans_file = out / f"spans-{label}.json"
            start = time.perf_counter()
            proc = self._kquad(args, out, recorder, spans_file)
            command_s[label] = time.perf_counter() - start
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:]
                problems.append(f"kquad {label} exited {proc.returncode}: "
                                f"{tail}")
                return CallResult((), [], 0, problems, command_s=command_s)
            if recorder is not None:
                recorder.extend(*Recorder.load(spans_file), call=call)
                spans_file.unlink()

        outputs = {str(p.relative_to(out)): p.read_bytes()
                   for p in sorted(out.rglob("*")) if p.is_file()}
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            differ = sorted(k for k in outputs.keys() | self.first_outputs
                            if outputs.get(k) != self.first_outputs.get(k))
            problems.append(f"outputs differ from the first iteration: "
                            f"{differ}")

        errors, f_evals = [], 0
        problems += self._check_benchmark(out / "bench" / "benchmark.json")
        ode_rows = self._read_results(out / "ode" / "results.csv", problems)
        sbq_rows = self._read_results(out / "sbq" / "results.csv", problems)
        expect_counts = [
            ("ode results rows", len(ode_rows), 2 * self.replicates),
            ("ode trace files", len(list((out / "ode").glob("trace_*.csv"))),
             self.replicates),
            ("sbq results rows", len(sbq_rows), len(self.sbq_counts)),
            ("sbq points", self._count_rows(out / "sbq" / "sbq_points.csv"),
             sum(self.sbq_counts)),
        ]
        for what, got, want in expect_counts:
            if got != want:
                problems.append(f"{what}: {got}, expected {want}")
        for row in ode_rows:
            est = float(row["estimate"])
            err = abs(est - self.truth)
            if not err <= self.tolerance:
                problems.append(f"ode {row['method']} replicate "
                                f"{row['replicate']}: |estimate - reference| "
                                f"= {err!r}")
            if int(row["total_f_evals"]) != self.ode_n:
                problems.append(f"ode row f_evals {row['total_f_evals']}")
            if not 0.0 <= float(row["t_star"]) <= 1.0:
                problems.append(f"ode t_star {row['t_star']} outside [0, 1]")
            if row["method"] == "smc-kq":
                errors.append(err)
        for row in ode_rows + sbq_rows:
            f_evals += int(row["total_f_evals"])
        digest = hashlib.sha256()
        for key, blob in sorted(outputs.items()):
            digest.update(key.encode() + b"\0" + blob)
        return CallResult(fingerprint=(digest.hexdigest(),),
                          abs_errors=errors, f_evals=f_evals,
                          problems=problems, command_s=command_s)

    def _read_results(self, path: Path, problems: list[str]) -> list[dict]:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != RESULT_COLUMNS:
                problems.append(f"{path.parent.name}/results.csv header "
                                f"{header}")
            return [dict(zip(header, row)) for row in reader]

    @staticmethod
    def _count_rows(path: Path) -> int:
        with open(path) as fh:
            return sum(1 for _ in fh) - 1

    def _check_benchmark(self, path: Path) -> list[str]:
        blob = json.loads(path.read_text())
        problems = []
        if blob["problem"]["observations"] != ODE_REFERENCE["observations"]:
            problems.append("benchmark.json data differ from the reference "
                            "problem")
        if blob["benchmark"]["chain_length"] != self.chain_length:
            problems.append("benchmark.json chain length "
                            f"{blob['benchmark']['chain_length']}")
        return problems


WORKLOADS = {w.name: w for w in (ToySmcKq, ToyKl, OdeStein, CliPipeline)}
