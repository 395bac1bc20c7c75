"""kquad starts without scipy and binds LAPACK on the first factorisation.

The first factorisation loads top-level scipy and scipy's compiled LAPACK
module, not the scipy.linalg package.  Each check runs in a fresh
interpreter, since the test process itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))")

# the first kq_fit, one adaptive-lognormal and one adaptive-gaussian
# smc_step: every LAPACK routine kquad calls
FACTORISATIONS = """
import numpy as np
from kquad import (ADAPTIVE_LOGNORMAL, BoxUniform, GaussianKernel,
                   GaussianMeasure, ProposalPolicy, gaussian_inverse_cdf,
                   kq_fit)
from kquad.smc import (ADAPTIVE_GAUSSIAN, TemperedTarget, init_particles,
                       smc_step)

rng = np.random.default_rng(5)
rule = kq_fit(GaussianKernel([0.7]), GaussianMeasure([0.0], [1.0]),
              rng.standard_normal((12, 1)))
box = BoxUniform(np.full(2, 0.1), np.full(2, 4.0))
target = TemperedTarget(box.log_density,
                        lambda X: -0.5 * np.sum((X - 2.0) ** 2, axis=1),
                        support=(box.lower, box.upper))
system = init_particles(box, 64, rng, target)
moved = smc_step(system, 0.3, 0.5,
                 ProposalPolicy(kind=ADAPTIVE_LOGNORMAL), rng)
moved = smc_step(moved, 0.5, 0.7,
                 ProposalPolicy(kind=ADAPTIVE_GAUSSIAN), rng)
"""

# those and one normal quantile, printed as hex, in a cold process and in
# one that imported scipy before kquad
FIRST_USES = FACTORISATIONS + """
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


def test_import_kquad_starts_no_process_pool(tmp_path):
    out = run_python(
        "import sys, kquad\n"
        "print(sorted(m for m in ('concurrent.futures.process', "
        "'multiprocessing') if m in sys.modules))", tmp_path)
    assert out.strip() == "[]"


def test_first_factorisations_load_lapack_but_not_scipy_linalg(tmp_path):
    out = run_python(
        "import json, sys\n" + FACTORISATIONS
        + "print(json.dumps(['scipy.linalg' in sys.modules, "
        "'scipy.linalg._flapack' in sys.modules]))", tmp_path)
    assert json.loads(out) == [False, True]


def test_scipy_linalg_imports_after_kquad_bound_lapack(tmp_path):
    out = run_python(
        "import json, sys\n" + FACTORISATIONS
        + "from kquad.quadrature import _lapack\n"
        "import scipy.linalg\n"
        "from scipy.linalg import _flapack\n"
        "print(json.dumps([\n"
        "    scipy.linalg.lapack.dpotrf is _lapack().dpotrf,\n"
        "    _flapack is _lapack(),\n"
        "    scipy.linalg.cholesky(np.diag([4.0, 9.0]), lower=True)"
        ".diagonal().tolist()]))", tmp_path)
    assert json.loads(out) == [True, True, [2.0, 3.0]]


def test_lapack_falls_back_to_scipy_linalg_when_no_file_loads(tmp_path):
    cold = run_python("import json, sys\n" + FIRST_USES, tmp_path)
    # no extension suffix: the lookup by path finds no file
    fallback = run_python(
        "import importlib.machinery, json, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []\n" + FIRST_USES
        + "import scipy.linalg.lapack\n"
        "from kquad.quadrature import _lapack\n"
        "assert _lapack() is scipy.linalg.lapack\n", tmp_path)
    assert json.loads(fallback) == json.loads(cold)


# _proposal_factor and _mvn_logpdf, bound cold, against the scipy.linalg
# calls they replace, imported afterwards; the last covariance of each
# dimension is not positive definite and takes the ridged factor
PROPOSAL_BITS = """
import json, warnings
import numpy as np
from kquad.smc import _mvn_logpdf, _proposal_factor

rng = np.random.default_rng(3)
cases = []
for d in range(1, 5):
    A = rng.standard_normal((d, d))
    pd = A @ A.T + 0.1 * np.eye(d)
    bad = pd.copy()
    bad[-1, -1] = -1.0
    X = rng.standard_normal((7, d))
    mu = rng.standard_normal(d)
    for cov in (pd, bad):
        with warnings.catch_warnings(record=True) as held:
            warnings.simplefilter("always")
            L = _proposal_factor(cov)
            logpdf = _mvn_logpdf(X, mu, L)
        cases.append((cov, X, mu, L, logpdf, len(held)))
import scipy.linalg

out = []
for cov, X, mu, L, logpdf, warned in cases:
    try:
        expected = scipy.linalg.cholesky(cov, lower=True, check_finite=False)
        failed = False
    except np.linalg.LinAlgError:
        ridged = np.diag(np.maximum(np.diag(cov), 0.0) + 1e-8)
        expected = scipy.linalg.cholesky(ridged, lower=True,
                                         check_finite=False)
        failed = True
    half = scipy.linalg.solve_triangular(expected, (X - mu).T, lower=True,
                                         check_finite=False)
    ref = -0.5 * np.sum(half * half, axis=0) \\
        - np.sum(np.log(np.diag(expected))) \\
        - 0.5 * mu.shape[0] * np.log(2.0 * np.pi)
    out.append([L.tobytes() == expected.tobytes(),
                logpdf.tobytes() == ref.tobytes(), failed, warned])
print(json.dumps(out))
"""


def test_proposal_factor_and_logpdf_have_scipy_linalg_bits(tmp_path):
    out = json.loads(run_python(PROPOSAL_BITS, tmp_path))
    # per dimension: the positive definite covariance factors as it is;
    # the other fails in scipy too, and warns once
    assert out == [[True, True, False, 0], [True, True, True, 1]] * 4
