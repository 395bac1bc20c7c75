"""kquad benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; kquad is imported from ./src.  One driver
process calls the workload back to back (a closed loop with one client)
for S seconds, checks every output, prints a table and, as the last line,
a JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones.  With --trace 1 each call
is made twice, untraced then traced with the same seed; the traced call
must reproduce the untraced estimate bit for bit, and its spans give the
per-layer metrics.  Workloads, metrics and the layer map are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

# one BLAS/OpenMP thread per process, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("KQUAD_OUT_DIR", None)
# kquad warns on every badly conditioned bootstrap system; keep stderr quiet
warnings.filterwarnings("ignore", category=RuntimeWarning, module="kquad")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # extra set-ups in fresh processes, for the setup_s median
STARTUP_PROBES = 5
WARMUP_SEED_INDEX = 2**32 - 1
# workloads.py imports kquad, which set-up times, so the names live here too
WORKLOAD_NAMES = ("toy-smckq", "toy-kl", "ode-stein", "cli-pipeline")


def _percentile_tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above.

    Runs with fewer than 20 samples have no such percentile and report the
    median instead.
    """
    n = len(values)
    if n < 20:
        return 50.0, statistics.median(values)
    q = 1.0 - 10.0 / n
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return 100.0 * q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _setup(name: str, seed: int, workdir: Path):
    """Import kquad and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS[name]()
    workload.setup(workdir, seed)
    return workload, time.perf_counter() - start


def _setup_probe_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _calls(workload, seed: int, seconds: float, trace: bool, recorder):
    """Closed loop for `seconds`; returns per-call records."""
    from workloads import call_seed
    records = []
    start = time.perf_counter()
    i = 0
    while not records or time.perf_counter() - start < seconds:
        s = call_seed(seed, i)
        rec = {"seed": s}
        try:
            t0 = time.perf_counter()
            rec["result"] = workload.call(s)
            rec["seconds"] = time.perf_counter() - t0
            if trace:
                t0 = time.perf_counter()
                rec["traced"] = workload.call(s, recorder)
                rec["traced_seconds"] = time.perf_counter() - t0
        except Exception as exc:  # a raising call is a failed call
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
        i += 1
    return records, time.perf_counter() - start


def _problems(rec, trace: bool) -> list[str]:
    if "error" in rec:
        return [rec["error"]]
    out = list(rec["result"].problems)
    if trace:
        out += rec["traced"].problems
        if rec["traced"].fingerprint != rec["result"].fingerprint:
            out.append("traced output differs from untraced: "
                       f"{rec['traced'].fingerprint} vs "
                       f"{rec['result'].fingerprint}")
    return out


def _end_to_end(records, elapsed, setup_s):
    # every call that returned estimates counts, including ones that then
    # failed a check; calls that raised have no time or estimate
    ok = [r for r in records if "result" in r and r["result"].abs_errors]
    times = [r["seconds"] for r in ok]
    errors = [e for r in ok for e in r["result"].abs_errors]
    q, tail = _percentile_tail(times)
    abs_p50 = statistics.median(errors)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "call_s_p50": (statistics.median(times), "s"),
        "call_s_tail": (tail, "s"),
        "calls_per_s": (len(ok) / elapsed, "1/s"),
        "f_evals_per_call": (statistics.fmean(r["result"].f_evals
                                              for r in ok), "count"),
        "accuracy_digits_p50": (-math.log10(abs_p50), "digits"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    notes = [f"call_s_tail is p{q:.1f} of {len(times)} calls",
             f"abs_error_p50 {abs_p50!r} over {len(errors)} estimates",
             f"setup_s samples {[round(s, 4) for s in setup_s]}"]
    return metrics, notes


def _per_layer(workload, records, recorder, startup_s):
    from spans import busy_seconds, self_seconds
    traced = [r for r in records if "traced" in r]
    n = max(len(traced), 1)
    busy = busy_seconds(recorder.spans)
    c = recorder.counts

    def per_call(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    def command_median(label):
        vals = [r["result"].command_s[label] for r in traced
                if label in r["result"].command_s]
        return statistics.median(vals) if vals else 0.0

    untraced_p50 = statistics.median(r["seconds"] for r in traced)
    traced_p50 = statistics.median(r["traced_seconds"] for r in traced)
    m = {
        "kernels.gram_calls": (per_call(c["kernels.gram_calls"]),
                               "count/call"),
        "kernels.gram_entries": (per_call(c["kernels.gram_entries"]),
                                 "count/call"),
        "kernels.gaussian_gram_s": (per_call(busy["kernels.gaussian_gram"]),
                                    "s/call"),
        "kernels.stein_gram_s": (per_call(busy["kernels.stein_gram"]),
                                 "s/call"),
        "problems.score_calls": (per_call(c["problems.score_calls"]),
                                 "count/call"),
        "problems.score_rows": (per_call(c["problems.score_rows"]),
                                "count/call"),
        "problems.score_s": (per_call(busy["problems.score"]), "s/call"),
        "problems.integrand_rows": (per_call(c["problems.integrand_rows"]),
                                    "count/call"),
        "problems.integrand_s": (per_call(busy["problems.integrand"]),
                                 "s/call"),
        "problems.log_target_s": (per_call(busy["problems.log_target"]),
                                  "s/call"),
        "problems.chain_s": (per_call(busy["problems.chain"]), "s/call"),
        "problems.chain_steps_per_s": (ratio(c["problems.chain_steps"],
                                             busy["problems.chain"]), "1/s"),
        "quadrature.chol_calls": (per_call(c["quadrature.chol_calls"]),
                                  "count/call"),
        "quadrature.chol_attempts": (per_call(c["quadrature.chol_attempts"]),
                                     "count/call"),
        "quadrature.chol_failed_attempts": (
            per_call(c["quadrature.chol_failed_attempts"]), "count/call"),
        "quadrature.chol_useful_ratio": (
            ratio(c["quadrature.chol_ok"], c["quadrature.chol_attempts"]),
            "ratio"),
        "quadrature.chol_s": (per_call(busy["quadrature.chol"]), "s/call"),
        "quadrature.kq_fit_s": (per_call(busy["quadrature.kq_fit"]), "s/call"),
        "quadrature.sbq_select_s": (per_call(busy["quadrature.sbq_select"]),
                                    "s/call"),
        "quadrature.sbq_candidates_scored": (
            per_call(c["quadrature.sbq_candidates_scored"]), "count/call"),
        "smc.rungs_per_call": (per_call(sum(r["traced"].rungs
                                            for r in traced)), "count/call"),
        "smc.next_temperature_s": (per_call(busy["smc.next_temperature"]),
                                   "s/call"),
        "smc.step_s": (per_call(busy["smc.step"]), "s/call"),
        "smc.resample_ratio": (ratio(c["smc.resamples"], c["smc.steps"]),
                               "ratio"),
        "smc.move_accept_ratio": (ratio(c["smc.move_accepted"],
                                        c["smc.move_rows"]), "ratio"),
        "controller.self_s": (per_call(self_seconds(recorder.spans,
                                                    "controller.call")),
                              "s/call"),
        "controller.bootstrap_s": (per_call(busy["controller.bootstrap"]),
                                   "s/call"),
        "controller.bootstrap_subsets": (
            per_call(c["controller.bootstrap_subsets"]), "count/call"),
        "controller.early_stop_ratio": (
            per_call(sum(r["traced"].early_stop for r in traced)), "ratio"),
        "controller.kern_param_fit_s": (
            per_call(busy["controller.kern_param_fit"]), "s/call"),
        "controller.kern_param_fit_calls": (
            per_call(c["controller.kern_param_fit_calls"]), "count/call"),
        "controller.ml_objective_calls": (
            per_call(c["controller.ml_objective_calls"]), "count/call"),
        "controller.ml_objective_failed": (
            per_call(c["controller.ml_objective_failed"]), "count/call"),
        "harness.run_s": (per_call(busy["harness.run"]), "s/call"),
        "harness.run_benchmark_s": (per_call(busy["harness.run_benchmark"]),
                                    "s/call"),
        "cli.startup_s": (statistics.median(startup_s), "s"),
        "cli.command_s.benchmark": (command_median("benchmark"), "s"),
        "cli.command_s.run-ode": (command_median("run-ode"), "s"),
        "cli.command_s.run-sbq": (command_median("run-sbq"), "s"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50, "ratio"),
    }
    seen = {span[0] for span in recorder.spans}
    missing = [name for name in workload.expected if name not in seen]
    notes = [f"{len(traced)} traced calls, {len(recorder.spans)} spans",
             f"untraced call_s_p50 {untraced_p50!r}, traced {traced_p50!r}"]
    return m, notes, missing


def _startup_seconds(workdir: Path) -> list[float]:
    """`python -m kquad` exiting on a missing config (exit code 2)."""
    from workloads import child_env
    env = child_env()
    out = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kquad", "run", "missing.json"],
            cwd=workdir, env=env, capture_output=True, timeout=60)
        out.append(time.perf_counter() - start)
        if proc.returncode != 2:
            raise RuntimeError(f"kquad startup probe exited "
                               f"{proc.returncode}, expected 2")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "kquad" / "__init__.py").is_file():
        print(f"error: no kquad sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload, setup_s = _setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return _measure(args, workload, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, setup_s, workdir) -> int:
    from spans import Recorder
    from workloads import call_seed
    if args.workload != "cli-pipeline":
        workload.call(call_seed(args.seed, WARMUP_SEED_INDEX))
    trace = bool(args.trace)
    recorder = Recorder() if trace else None
    records, elapsed = _calls(workload, args.seed, args.seconds, trace,
                              recorder)
    problems = [_problems(r, trace) for r in records]
    failures = [(r["seed"], p) for r, ps in zip(records, problems) for p in ps]
    failed = sum(1 for ps in problems if ps)
    attempted = len(records)
    if failed == attempted:
        for seed, problem in failures[:10]:
            print(f"FAILED seed {seed}: {problem}", file=sys.stderr)
        return 1

    missing = []
    if trace:
        startup_s = _startup_seconds(workdir)
        metrics, notes, missing = _per_layer(workload, records, recorder,
                                             startup_s)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans-{args.workload}.json")
    else:
        setup_samples = [setup_s] + _setup_probe_seconds(args)
        metrics, notes = _end_to_end(records, elapsed, setup_samples)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} calls in {elapsed:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value!r:>24} {unit}")
    print(f"  {'failed_ratio':36s} {failed / attempted!r:>24} ratio")
    for note in notes:
        print(f"  # {note}")
    for seed, problem in failures[:20]:
        print(f"  FAILED seed {seed}: {problem}")
    for name in missing:
        print(f"  MISSING span {name}: the trace recorded no call")
    if missing:
        print(f"error: expected spans recorded no calls: {missing}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
