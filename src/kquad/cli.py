"""Command-line interface.

kquad run <config.json> [--seed S] [--out DIR] [--replicates M] [--threads K]
    Execute the experiment described by the config and write results.csv,
    summary.json and any per-replicate trace files to the output directory.

kquad benchmark <config.json> [--seed S] [--out DIR]
    Generate the inverse-problem dataset and a long-chain reference value,
    written to benchmark.json for later 'run' invocations.

Exit codes: 0 success, 2 configuration error, 3 runtime failure (one
line on stderr: "runtime error: <type>: <message>").  Warnings raised
while a command runs are held back: printed when it succeeds, dropped
when it fails, so a failure's stderr is its one line.  The
default output directory comes from --out, then the config's
output_path, then the KQUAD_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace

from .harness import ConfigError, load_config, run, run_benchmark

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kquad",
        description="Kernel quadrature experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: config output_path)")
    p_run.add_argument("--replicates", type=int, default=None,
                       help="override the replicate count")
    p_run.add_argument("--threads", type=int, default=1,
                       help="worker processes for replicates")

    p_bench = sub.add_parser("benchmark",
                             help="generate data and a long-chain reference")
    p_bench.add_argument("config", help="path to a JSON benchmark config")
    p_bench.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_bench.add_argument("--out", default=None, help="output directory")
    return parser


def _resolve_out(arg_out, cfg):
    if arg_out is not None:
        return arg_out
    env = os.environ.get("KQUAD_OUT_DIR")
    if cfg.output_path != "out" or env is None:
        return cfg.output_path
    return env


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, benchmark=args.command == "benchmark")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg = replace(cfg, seed=args.seed)
        if getattr(args, "replicates", None) is not None:
            if args.replicates < 1:
                raise ConfigError("--replicates must be >= 1")
            cfg = replace(cfg, replicates=args.replicates)
        if getattr(args, "threads", 1) < 1:
            raise ConfigError("--threads must be >= 1")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        # the active filters still decide which warnings are kept
        with warnings.catch_warnings(record=True) as held:
            if args.command == "benchmark":
                out = run_benchmark(cfg, _resolve_out(args.out, cfg))
            else:
                out = run(cfg, _resolve_out(args.out, cfg),
                          threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                             w.file, w.line)
    print(f"wrote {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
