"""kquad starts without scipy and loads it on the first factorisation.

Each check runs in a fresh interpreter, since the test process itself has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))")

# the first kq_fit, one adaptive-lognormal smc_step and one normal
# quantile, printed as hex, in a cold process and in one that imported
# scipy before kquad
FIRST_USES = """
import numpy as np
from kquad import (ADAPTIVE_LOGNORMAL, BoxUniform, GaussianKernel,
                   GaussianMeasure, ProposalPolicy, gaussian_inverse_cdf,
                   kq_fit)
from kquad.smc import TemperedTarget, init_particles, smc_step

rng = np.random.default_rng(5)
rule = kq_fit(GaussianKernel([0.7]), GaussianMeasure([0.0], [1.0]),
              rng.standard_normal((12, 1)))
box = BoxUniform(np.full(2, 0.1), np.full(2, 4.0))
target = TemperedTarget(box.log_density,
                        lambda X: -0.5 * np.sum((X - 2.0) ** 2, axis=1),
                        support=(box.lower, box.upper))
system = init_particles(box, 64, rng, target)
moved = smc_step(system, target, 0.3, 0.5,
                 ProposalPolicy(kind=ADAPTIVE_LOGNORMAL), rng)
print(json.dumps({
    "weights": [x.hex() for x in rule.weights.tolist()],
    "error": rule.worst_case_error.hex(),
    "states": [x.hex() for x in moved.states.ravel().tolist()],
    "quantiles": [x.hex() for x in gaussian_inverse_cdf(
        np.array([1e-9, 0.025, 0.5, 0.975])).tolist()],
}))
"""


def run_python(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_kquad_loads_no_scipy(tmp_path):
    out = run_python(f"import sys, kquad\nprint({SCIPY_LOADED})", tmp_path)
    assert out.strip() == "[]"


def test_benchmark_command_loads_no_scipy(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"benchmark.chain_length": 300,
                               "benchmark.burn_in": 100}))
    out = run_python(
        "import sys, kquad.cli\n"
        f"assert kquad.cli.main(['benchmark', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'bench')!r}]) == 0\n"
        f"print({SCIPY_LOADED})", tmp_path)
    assert out.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "bench" / "benchmark.json").is_file()


def test_first_uses_load_scipy_and_match_a_warm_process(tmp_path):
    cold = run_python(
        "import json, sys\n" + FIRST_USES + f"assert {SCIPY_LOADED}\n",
        tmp_path)
    warm = run_python(
        "import json, sys\nimport scipy.linalg, scipy.special\n" + FIRST_USES,
        tmp_path)
    assert json.loads(cold) == json.loads(warm)
