"""Golden sha256 hashes of the criterion-13 outputs under a pinned BLAS.

Output bytes are a pure function of (config, seed) for a fixed OpenBLAS
core type and thread count, not across machines.  So the hashes are made
in a child process that sets OPENBLAS_CORETYPE=Haswell and one BLAS/OpenMP
thread before numpy loads; the Haswell kernels run on any x86-64 machine
with AVX2.

    python3 tests/golden.py    # rewrite tests/golden.json

tests/test_golden.py reruns the child and compares.  A change that claims
to keep every output bit leaves golden.json as it is; one that moves an
output regenerates it and lists the moved entries.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SRC = HERE.parent / "src"

PINNED_ENV = {
    "OPENBLAS_CORETYPE": "Haswell",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}

# the runs of test_criterion_13_reruns_are_byte_identical
BENCHMARK = {"benchmark.chain_length": 400, "benchmark.burn_in": 100}
EXPERIMENTS = {
    "toy-sweep": {"replicates": 2, "sweep.sigmas": [1.0, 2.0],
                  "sweep.n": [5, 10]},
    "toy-smckq": {"replicates": 1, "method.n": 6,
                  "method.n_particles": 24, "method.m_boot": 5},
    "toy-smckq-kl": {"replicates": 1, "method.n": 6,
                     "method.n_particles": 24, "method.m_boot": 5},
    "ode": {"replicates": 1, "method.n": 8, "method.n_particles": 32,
            "method.m_boot": 5},
    "halton-compare": {"replicates": 1, "sweep.n": [5, 10]},
    "sbq-demo": {},
    "bach-diagnostic": {"grid.count": 101},
}


def _outputs(root: Path) -> dict:
    """{'<experiment>/<file>': sha256} of every criterion-13 output."""
    from kquad.harness import run, run_benchmark, validate_config

    bench = run_benchmark(validate_config(BENCHMARK, benchmark=True),
                          root / "benchmark")
    dirs = [bench]
    for name, extra in EXPERIMENTS.items():
        if name == "ode":
            extra = {**extra,
                     "ode.benchmark_path": str(bench / "benchmark.json")}
        cfg = validate_config({"experiment": name, **extra,
                               "output_path": str(root / name)})
        dirs.append(run(cfg))
    return {f"{d.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
            for d in dirs for f in sorted(d.iterdir())}


def compute() -> dict:
    """The hashes, made in a child process with the pinned BLAS."""
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv) -> None:
    if argv == ["--child"]:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(_outputs(Path(tmp)), indent=2, sort_keys=True))
        return
    GOLDEN.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
