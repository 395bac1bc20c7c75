"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line; run pytest with -s (or -rA) to see the
lines for passing tests too.
"""

import itertools
import json

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from kquad import (
    BachDiagnostic,
    BoxUniform,
    GaussianKernel,
    GaussianMeasure,
    SteinKernel,
    ToyProblem,
    bach_density_truncated,
    gaussian_lengthscale_family,
    kq_estimate,
    kq_fit,
    ode_log_posterior,
    ode_predictive,
    ode_score,
    posterior_benchmark,
    sbq_greedy_select,
    smc_kq,
    toy_integrand,
    with_observations,
)
from kquad.controller import (
    kern_param_fit,
    select_rule_entry,
    temperature_error_profile,
)
from kquad.harness import replicate_seed, rmse_aggregate, run, run_benchmark, validate_config
from kquad.problems import ODEProblem
from kquad.smc import ADAPTIVE_LOGNORMAL, ProposalPolicy

TOY = ToyProblem(d=1)
K1 = GaussianKernel([1.0])
M1 = GaussianMeasure([0.0], [1.0])


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def separated_points(rng, n, low=-4.0, high=4.0, gap=0.15):
    pts = []
    while len(pts) < n:
        x = rng.uniform(low, high)
        if all(abs(x - p) > gap for p in pts):
            pts.append(x)
    return np.asarray(pts)[:, None]


def toy_kq_error(rng, n, sigma, kernel=K1):
    pts = sigma * rng.standard_normal((n, 1))
    rule = kq_fit(kernel, M1, pts)
    est = kq_estimate(rule, toy_integrand(TOY, pts))
    return abs(est - 1.0)


def test_criterion_01_embedding_oracle():
    worst = 0.0
    for sigma, ell in itertools.product((0.5, 1.0, 2.0), (0.25, 1.0, 3.0)):
        kernel = GaussianKernel([ell])
        measure = GaussianMeasure([0.0], [sigma])
        for x in range(-3, 4):
            got = kernel.embedding(measure, [float(x)])[0]
            # finite limits with breakpoints at the kernel bump: the
            # infinite-interval transform can step over a narrow section
            lo = min(-12.0 * sigma, x - 12.0 * ell)
            hi = max(12.0 * sigma, x + 12.0 * ell)
            oracle, err = scipy.integrate.quad(
                lambda y: np.exp(-(x - y) ** 2 / ell**2)
                * np.exp(-0.5 * (y / sigma) ** 2)
                / (sigma * np.sqrt(2 * np.pi)),
                lo, hi, points=[x - ell, float(x), x + ell],
                epsabs=1e-12, epsrel=1e-12, limit=200)
            assert err < 1e-10
            worst = max(worst, abs(got - oracle))
        got0 = kernel.double_integral(measure)

        def averaged_section(x_):
            lo = min(-12.0 * sigma, x_ - 12.0 * ell)
            hi = max(12.0 * sigma, x_ + 12.0 * ell)
            val, inner_err = scipy.integrate.quad(
                lambda y: np.exp(-(x_ - y) ** 2 / ell**2)
                * np.exp(-0.5 * (y / sigma) ** 2)
                / (sigma * np.sqrt(2 * np.pi)),
                lo, hi, points=[x_ - ell, x_, x_ + ell],
                epsabs=1e-13, epsrel=1e-13, limit=200)
            assert inner_err < 1e-11
            return val * np.exp(-0.5 * (x_ / sigma) ** 2) \
                / (sigma * np.sqrt(2 * np.pi))

        # nested adaptive quadrature keeps the oracle error far below the
        # 1e-8 comparison; dblquad's own estimate is too loose at sigma=2
        oracle0, err0 = scipy.integrate.quad(averaged_section, -np.inf,
                                             np.inf, epsabs=1e-12,
                                             epsrel=1e-12)
        assert err0 < 1e-10
        worst = max(worst, abs(got0 - oracle0))
    report(1, worst <= 1e-8,
           f"closed-form embeddings vs quadrature, worst gap {worst:.2e} "
           "(tol 1e-08)")


def test_criterion_02_interpolation_exactness():
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        X = separated_points(rng, n)
        beta = rng.normal(size=n)
        rule = kq_fit(K1, M1, X)
        f_vals = K1.gram(X) @ beta
        exact = float(K1.embedding(M1, X) @ beta)
        worst = max(worst, abs(kq_estimate(rule, f_vals) - exact))
    report(2, worst <= 1e-8,
           f"span-of-sections integrands, worst gap {worst:.2e} (tol 1e-08)")


def test_criterion_03_error_identities():
    rng = np.random.default_rng(301)
    worst_rel = 0.0
    violations = 0
    for _ in range(200):
        X = separated_points(rng, 12)
        nb = int(rng.integers(2, 13))
        na = int(rng.integers(1, nb))
        ra = kq_fit(K1, M1, X[:na])
        rb = kq_fit(K1, M1, X[:nb])
        assert ra.nugget_used == 0.0 and rb.nugget_used == 0.0
        K = K1.gram(X[:nb])
        z = rb.embeddings
        lhs = rb.worst_case_error**2 + float(z @ np.linalg.solve(K, z))
        worst_rel = max(worst_rel, abs(lhs - rb.e0_sq) / rb.e0_sq)
        violations += rb.worst_case_error > ra.worst_case_error + 1e-10
    ok = worst_rel <= 1e-8 and violations == 0
    report(3, ok,
           f"identity rel gap {worst_rel:.2e} (tol 1e-08), nested "
           f"monotonicity violations {violations}/200")


def test_criterion_04_oversampled_reference_wins():
    errs = {1.0: [], 2.0: []}
    for sigma in errs:
        for r in range(200):
            rng = np.random.default_rng(4000 + r)
            errs[sigma].append(toy_kq_error(rng, 75, sigma))
    r1 = rmse_aggregate(errs[1.0])
    r2 = rmse_aggregate(errs[2.0])
    report(4, r2 <= 0.5 * r1,
           f"RMSE(sigma=2) {r2:.2e} <= 0.5 * RMSE(sigma=1) {r1:.2e}")


def test_criterion_05_monte_carlo_rate():
    sizes = [100, 1000, 10_000]
    rmses = []
    for n in sizes:
        errs = []
        for r in range(200):
            rng = np.random.default_rng(5000 + r)
            vals = toy_integrand(TOY, rng.standard_normal((n, 1)))
            errs.append(abs(float(vals.mean()) - 1.0))
        rmses.append(rmse_aggregate(errs))
    slope = np.polyfit(np.log(sizes), np.log(rmses), 1)[0]
    report(5, abs(slope + 0.5) <= 0.1,
           f"plain-Monte-Carlo RMSE log-log slope {slope:+.3f} "
           "(want -0.5 +/- 0.1)")


def test_criterion_06_adaptive_beats_fixed_sampling_toy():
    reference = GaussianMeasure([0.0], [8.0])
    smc_errs, kq_errs = [], []
    for s in range(50):
        rep = smc_kq(lambda X: toy_integrand(TOY, X), M1.log_density, K1,
                     reference, measure=M1, n=75, n_particles=300, rho=0.95,
                     delta=0.1, seed=s)
        smc_errs.append(abs(rep.estimate - 1.0))
        kq_errs.append(toy_kq_error(np.random.default_rng(10_000 + s), 75, 1.0))
    med_s, med_k = float(np.median(smc_errs)), float(np.median(kq_errs))
    mse_ratio = float(np.mean(np.square(smc_errs))
                      / np.mean(np.square(kq_errs)))
    ok = med_s <= med_k and mse_ratio <= 0.2
    report(6, ok,
           f"median |err| {med_s:.2e} vs {med_k:.2e}, MSE ratio "
           f"{mse_ratio:.3f} (need <= 0.2)")


def test_criterion_07_error_profile_interior_minimum():
    reference = GaussianMeasure([0.0], [8.0])
    ladder = np.round(np.linspace(0.0, 1.0, 11), 10)
    interior = 0
    near = 0
    seeds = 20
    for s in range(seeds):
        trace, _ = temperature_error_profile(
            M1.log_density, K1, reference, ladder, measure=M1, n=75,
            n_particles=300, seed=s)
        idx = int(np.argmin(trace.errors))
        interior += 0 < idx < len(ladder) - 1
        near += abs(select_rule_entry(trace) - idx) <= 2
    ok = interior >= 0.9 * seeds and near >= 0.7 * seeds
    report(7, ok,
           f"interior minimum {interior}/{seeds} (need >= 18), chosen rung "
           f"within 2 of minimizer {near}/{seeds} (need >= 14)")


def test_criterion_08_stein_identities():
    kern = SteinKernel(GaussianKernel([1.0]), score=lambda X: -np.asarray(X))
    X = np.array([[-1.5], [0.0], [0.7], [2.2]])
    rule = kq_fit(kern, None, X)
    exact = (np.array_equal(rule.embeddings, np.ones(4))
             and rule.e0_sq == 1.0)

    rng = np.random.default_rng(801)
    draws = rng.standard_normal((100_000, 1))
    mc_ok = True
    detail = []
    for phi in (-1.0, 0.0, 2.0):
        col = kern.gram(draws, np.array([[phi]]))[:, 0] - 1.0
        bound = 4.0 * float(col.std()) / np.sqrt(col.size)
        mc_ok = mc_ok and abs(float(col.mean())) <= bound
        detail.append(f"{abs(float(col.mean())):.1e}<={bound:.1e}")
    report(8, exact and mc_ok,
           "unit embeddings exact, zero-mean checks " + ", ".join(detail))


@pytest.fixture(scope="module")
def ode_benchmark():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    result = posterior_benchmark(problem, 200_000, 20_000,
                                 np.random.default_rng(0))
    return problem, result


def test_criterion_09_reference_chain_bits(ode_benchmark):
    # the 200k-step chain's bits, as the one-step-at-a-time chain gave them
    _, bench = ode_benchmark
    assert (bench.value.hex(), bench.std_error.hex(),
            bench.acceptance_rate.hex()) == (
        "-0x1.34b3bacfa4701p-4", "0x1.a60837a4673f5p-11",
        "0x1.cdb8bac710cb3p-4")


def test_criterion_09_adaptive_not_worse_on_inverse_problem(ode_benchmark):
    problem, bench = ode_benchmark
    kern = SteinKernel(GaussianKernel([8.0, 8.0, 8.0, 8.0]),
                       score=lambda X: ode_score(problem, X))
    box = (np.zeros(4), np.full(4, 10.0))
    reference = BoxUniform(box[0], box[1])
    proposal = ProposalPolicy(kind=ADAPTIVE_LOGNORMAL)
    errs = {"adaptive": [], "fixed": []}
    for r in range(20):
        for mi, (label, early) in enumerate(
                [("adaptive", True), ("fixed", False)]):
            rep = smc_kq(
                lambda X: ode_predictive(problem, X),
                lambda X: ode_log_posterior(problem, X), kern, reference,
                measure=None, support=box, n=50, n_particles=300,
                proposal=proposal, terminate_early=early,
                seed=replicate_seed(0, mi, r))
            errs[label].append(abs(rep.estimate - bench.value))
    med_a = float(np.median(errs["adaptive"]))
    med_f = float(np.median(errs["fixed"]))
    report(9, med_a <= med_f,
           f"median |err| adaptive {med_a:.2e} <= full-ladder {med_f:.2e} "
           f"(benchmark {bench.value:.6f} +/- {bench.std_error:.1e})")


def test_criterion_10_flat_sampling_density_diagnostic():
    diag = BachDiagnostic(lam=1e4, truncation=80)
    vals = bach_density_truncated(diag, np.linspace(-2.0, 2.0, 201))
    ratio = float(vals.max() / vals.min())

    rng = np.random.default_rng(1001)
    xs = rng.uniform(-2.5, 2.5, size=50)
    monotone = True
    prev = np.zeros(50)
    for m in range(1, 81):
        cur = bach_density_truncated(BachDiagnostic(lam=1e4, truncation=m), xs)
        monotone = monotone and bool(np.all(cur >= prev - 1e-15))
        prev = cur
    ok = ratio <= 1.05 and monotone
    report(10, ok,
           f"large-lam flatness max/min {ratio:.4f} (tol 1.05), partial sums "
           f"monotone: {monotone}")


def test_criterion_11_greedy_selection_lengthscale_sensitivity():
    grid = np.linspace(-4.0, 4.0, 401)[:, None]
    seed_index = int(np.argmin(np.abs(grid[:, 0])))
    narrow = grid[sbq_greedy_select(GaussianKernel([0.01]), M1, grid, 30,
                                    seed_index), 0]
    wide = grid[sbq_greedy_select(GaussianKernel([1.0]), M1, grid, 5,
                                  seed_index), 0]
    cluster = float(np.max(np.abs(narrow)))
    spread = float(wide.max() - wide.min())
    ok = cluster <= 1.0 and spread > 2.0
    report(11, ok,
           f"short lengthscale keeps 30 points within |x| <= {cluster:.2f} "
           f"(tol 1), unit lengthscale spreads 5 points over {spread:.2f} "
           "(need > 2)")


def test_criterion_12_fitted_lengthscale_is_competitive():
    family = gaussian_lengthscale_family(d=1, low=0.05, high=5.0)
    grid = (0.25, 0.5, 1.0, 2.0)
    grid_errs = {ell: [] for ell in grid}
    fit_errs = []
    for r in range(100):
        rng = np.random.default_rng(12_000 + r)
        pts = rng.standard_normal((75, 1))
        f_vals = toy_integrand(TOY, pts)
        for ell in grid:
            rule = kq_fit(GaussianKernel([ell]), M1, pts)
            grid_errs[ell].append(abs(kq_estimate(rule, f_vals) - 1.0))
        ell_hat = float(kern_param_fit(f_vals, pts, family)[0])
        rule = kq_fit(GaussianKernel([ell_hat]), M1, pts)
        fit_errs.append(abs(kq_estimate(rule, f_vals) - 1.0))
    best = min(rmse_aggregate(v) for v in grid_errs.values())
    fitted = rmse_aggregate(fit_errs)
    report(12, fitted <= 2.0 * best,
           f"fitted-lengthscale RMSE {fitted:.2e} <= 2 x best grid RMSE "
           f"{best:.2e}")


def test_criterion_13_reruns_are_byte_identical(tmp_path):
    bench_cfg = validate_config({"benchmark.chain_length": 400,
                                 "benchmark.burn_in": 100}, benchmark=True)
    bench_a = run_benchmark(bench_cfg, tmp_path / "bench_a")
    bench_b = run_benchmark(bench_cfg, tmp_path / "bench_b")
    mismatches = []
    if (bench_a / "benchmark.json").read_bytes() \
            != (bench_b / "benchmark.json").read_bytes():
        mismatches.append("benchmark")

    configs = {
        "toy-sweep": {"replicates": 2, "sweep.sigmas": [1.0, 2.0],
                      "sweep.n": [5, 10]},
        "toy-smckq": {"replicates": 1, "method.n": 6,
                      "method.n_particles": 24, "method.m_boot": 5},
        "toy-smckq-kl": {"replicates": 1, "method.n": 6,
                         "method.n_particles": 24, "method.m_boot": 5},
        "ode": {"replicates": 1, "method.n": 8, "method.n_particles": 32,
                "method.m_boot": 5,
                "ode.benchmark_path": str(bench_a / "benchmark.json")},
        "halton-compare": {"replicates": 1, "sweep.n": [5, 10]},
        "sbq-demo": {},
        "bach-diagnostic": {"grid.count": 101},
    }
    for name, extra in configs.items():
        outs = []
        for tag in ("a", "b"):
            cfg = validate_config({"experiment": name, **extra,
                                   "output_path": str(tmp_path / f"{name}_{tag}")})
            outs.append(run(cfg))
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        if files_a != files_b:
            mismatches.append(name)
            continue
        for fname in files_a:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    report(13, not mismatches,
           "all experiment outputs byte-identical on rerun"
           + ("" if not mismatches else f"; mismatches: {mismatches}"))
