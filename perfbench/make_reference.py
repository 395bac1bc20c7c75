"""Recompute the oscillator reference value stored in ode_reference.json.

The ``ode-stein`` and ``cli-pipeline`` workloads score their estimates
against a long random-walk Metropolis chain on the default oscillator
problem (observations drawn with data seed 1234).  The chain takes about
half a minute on one core, so it is run once, by hand, and never inside a
timed workload:

    python3 perfbench/make_reference.py

from the repository root.  The script overwrites ode_reference.json next
to itself.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from kquad import (  # noqa: E402
    ODEProblem,
    posterior_benchmark,
    with_observations,
)

DATA_SEED = 1234
CHAIN_SEED = 0
CHAIN_LENGTH = 200_000
BURN_IN = 20_000
STEP_SCALE = 0.25


def main() -> int:
    problem = with_observations(ODEProblem(), np.random.default_rng(DATA_SEED))
    start = time.perf_counter()
    result = posterior_benchmark(problem, CHAIN_LENGTH, BURN_IN,
                                 np.random.default_rng(CHAIN_SEED),
                                 step_scale=STEP_SCALE)
    elapsed = time.perf_counter() - start
    blob = {
        "how": ("kquad.posterior_benchmark on kquad.with_observations("
                "kquad.ODEProblem(), numpy.random.default_rng(data_seed)), "
                "chain rng numpy.random.default_rng(chain_seed); "
                "made by perfbench/make_reference.py"),
        "value": result.value,
        "std_error": result.std_error,
        "acceptance_rate": result.acceptance_rate,
        "chain_length": result.chain_length,
        "burn_in": result.burn_in,
        "chain_seed": CHAIN_SEED,
        "step_scale": STEP_SCALE,
        "data_seed": DATA_SEED,
        "observations": problem.observations.tolist(),
        "chain_seconds": round(elapsed, 1),
    }
    (HERE / "ode_reference.json").write_text(
        json.dumps(blob, indent=2, sort_keys=True) + "\n")
    print(f"value {result.value!r} +- {result.std_error!r} "
          f"({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
