import itertools

import numpy as np
import pytest
import scipy.linalg

import kquad.controller
from kquad.controller import (
    DROP_GUARD,
    ErrorTrace,
    EvalCache,
    InsufficientStatesError,
    KernelFamily,
    TraceEntry,
    gaussian_lengthscale_family,
    kern_param_fit,
    marginal_likelihood_objective,
    select_rule_entry,
    smc_kq,
    smc_kq_kl,
    temperature_error_profile,
    trend_test,
)
from kquad.kernels import GaussianKernel, GaussianMeasure, SteinKernel
from kquad.problems import (
    ODEProblem,
    ToyProblem,
    ode_log_posterior,
    ode_predictive,
    ode_score,
    toy_integrand,
    with_observations,
)
from kquad.controller import _bootstrap_error, _kl_error, _run_ladder
from kquad.quadrature import (
    chol_factor_with_nugget,
    dedupe,
    kq_fit,
    worst_case_error,
)
from kquad.smc import ADAPTIVE_LOGNORMAL, BoxUniform, ProposalPolicy

K1 = GaussianKernel([1.0])
M1 = GaussianMeasure([0.0], [1.0])


def trace_from(errors, t0=0.1, dt=0.1):
    trace = ErrorTrace()
    for i, e in enumerate(errors):
        trace.append(TraceEntry(t=t0 + i * dt, error=float(e), nugget=0.0))
    return trace


def spread_states(rng, m):
    return np.sort(rng.uniform(-3.0, 3.0, size=m))[:, None] \
        + np.arange(m)[:, None] * 1e-3


# --- trace bookkeeping ---


def test_error_trace_requires_increasing_t():
    trace = trace_from([1.0, 0.9])
    with pytest.raises(ValueError):
        trace.append(TraceEntry(t=0.2, error=0.5, nugget=0.0))
    trace.append(TraceEntry(t=0.25, error=0.5, nugget=0.0))
    assert len(trace) == 3
    assert np.allclose(trace.ts, [0.1, 0.2, 0.25])
    assert np.allclose(trace.errors, [1.0, 0.9, 0.5])


def test_eval_cache_never_reevaluates():
    calls = []

    def f(X):
        calls.append(X.shape[0])
        return X[:, 0] ** 2

    cache = EvalCache()
    A = np.array([[1.0], [2.0]])
    assert np.array_equal(cache.evaluate(f, A), [1.0, 4.0])
    assert calls == [2]
    # overlap: only the new row costs an evaluation
    B = np.array([[2.0], [3.0]])
    assert np.array_equal(cache.evaluate(f, B), [4.0, 9.0])
    assert calls == [2, 1]
    # full replay costs nothing
    assert np.array_equal(cache.evaluate(f, A), [1.0, 4.0])
    assert calls == [2, 1]
    assert len(cache) == 3
    assert np.array_equal(cache.points(), [[1.0], [2.0], [3.0]])
    assert np.array_equal(cache.values(), [1.0, 4.0, 9.0])


def test_eval_cache_within_batch_duplicates():
    calls = []

    def f(X):
        calls.append(X.shape[0])
        return X[:, 0] + 1.0

    cache = EvalCache()
    out = cache.evaluate(f, np.array([[5.0], [5.0], [6.0]]))
    assert np.array_equal(out, [6.0, 6.0, 7.0])
    assert calls == [2]
    assert len(cache) == 2
    assert cache.points().shape == (2, 1)


def test_eval_cache_keys_rows_bitwise():
    calls = []

    def f(X):
        calls.append(X.copy())
        return np.where(np.signbit(X[:, 0]), -1.0, 1.0)

    cache = EvalCache()
    X = np.array([[0.0, 2.0], [-0.0, 2.0], [0.0, 2.0]])
    assert np.array_equal(cache.evaluate(f, X), [1.0, -1.0, 1.0])
    assert len(calls) == 1 and calls[0].tobytes() == X[:2].tobytes()
    assert np.array_equal(cache.evaluate(f, X[::-1]), [1.0, -1.0, 1.0])
    assert len(calls) == 1
    assert cache.points().tobytes() == X[:2].tobytes()
    assert np.array_equal(cache.values(), [1.0, -1.0])


def test_eval_cache_empty_points_raises():
    with pytest.raises(ValueError):
        EvalCache().points()


# --- bootstrap error statistic ---


def bootstrap_rms(kernel, measure, states, n, m_boot, rng):
    # root mean squared worst-case error of the bootstrap
    return float(np.sqrt(_bootstrap_error(kernel, measure, states, n, m_boot,
                                          rng)[0]))


def test_crit_full_subset_equals_rule_error():
    rng = np.random.default_rng(0)
    states = spread_states(rng, 6)
    rule = kq_fit(K1, M1, states)
    got = bootstrap_rms(K1, M1, states, n=6, m_boot=1,
                        rng=np.random.default_rng(1))
    assert got == pytest.approx(rule.worst_case_error, rel=1e-12)


def test_crit_matches_subset_enumeration_oracle():
    rng = np.random.default_rng(2)
    states = spread_states(rng, 8)
    K = K1.gram(states)
    z = K1.embedding(M1, states)
    e0_sq = K1.double_integral(M1)
    sq_errors = []
    for idx in itertools.combinations(range(8), 2):
        idx = list(idx)
        Ks, zs = K[np.ix_(idx, idx)], z[idx]
        w = np.linalg.solve(Ks, zs)
        sq_errors.append(worst_case_error(Ks, zs, w, e0_sq) ** 2)
    mu, sigma = float(np.mean(sq_errors)), float(np.std(sq_errors))

    got = bootstrap_rms(K1, M1, states, n=2, m_boot=4000,
                        rng=np.random.default_rng(3))
    assert abs(got**2 - mu) < 4.0 * sigma / np.sqrt(4000)


def test_crit_bounded_by_initial_error():
    rng = np.random.default_rng(4)
    states = spread_states(rng, 12)
    e0 = np.sqrt(K1.double_integral(M1))
    for n in (1, 3, 6):
        got = bootstrap_rms(K1, M1, states, n=n, m_boot=50, rng=rng)
        assert got <= e0 + 1e-8


def test_crit_counts_unique_states():
    states = np.array([[0.0], [1.0], [0.0], [1.0], [2.0]])
    with pytest.raises(InsufficientStatesError):
        bootstrap_rms(K1, M1, states, n=4, m_boot=5,
                      rng=np.random.default_rng(0))
    # n = 3 is fine: there are exactly 3 unique states
    bootstrap_rms(K1, M1, states, n=3, m_boot=5,
                  rng=np.random.default_rng(0))


def bootstrap_loop_oracle(kernel, measure, states, n, m_boot, rng):
    # the loop _bootstrap_error ran before it drew every subset first:
    # draw one subset, fit it, score it with the numpy-scalar form, repeat
    unique = dedupe(states)
    K = kernel.gram(unique)
    z = kernel.embedding(measure, unique)
    e0_sq = kernel.double_integral(measure)
    total, max_nugget = 0.0, 0.0
    for _ in range(m_boot):
        idx = rng.choice(unique.shape[0], size=n, replace=False)
        Ks, zs = K[np.ix_(idx, idx)], z[idx]
        L, nugget = chol_factor_with_nugget(Ks)
        w = scipy.linalg.cho_solve((L, True), zs)
        sq = float(w @ Ks @ w - 2.0 * (w @ zs) + e0_sq)
        err = float(np.sqrt(max(sq, 0.0)))
        total += err * err
        max_nugget = max(max_nugget, nugget)
    return total / m_boot, max_nugget


def bootstrap_cases():
    rng = np.random.default_rng(9)
    toy = rng.normal(0.0, 8.0, size=(300, 1))  # most subsets need a nugget
    wide = rng.normal(0.0, 1.0, size=(120, 3))
    stein = SteinKernel(GaussianKernel([0.8, 1.5, 2.0]),
                        score=lambda X: -np.asarray(X))
    return {
        "toy-d1": (K1, M1, np.vstack([toy, toy[:40]]), 75),
        "gauss-d3": (GaussianKernel([0.5, 1.0, 2.0]),
                     GaussianMeasure(np.zeros(3), np.ones(3)), wide, 30),
        "stein-d3": (stein, None, wide, 30),
    }


@pytest.mark.parametrize("case", ["toy-d1", "gauss-d3", "stein-d3"])
def test_bootstrap_error_matches_per_subset_loop(case):
    kernel, measure, states, n = bootstrap_cases()[case]
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    got = _bootstrap_error(kernel, measure, states, n, 20, rng_a)
    want = bootstrap_loop_oracle(kernel, measure, states, n, 20, rng_b)
    assert got == want
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    if case == "toy-d1":
        assert got[1] > 0.0  # the nugget ladder was climbed


def test_crit_validation():
    states = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        bootstrap_rms(K1, M1, states, n=0, m_boot=5,
                      rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        bootstrap_rms(K1, M1, states, n=1, m_boot=0,
                      rng=np.random.default_rng(0))


# --- termination and selection ---


def test_trend_test_needs_full_window():
    assert not trend_test(trace_from([1.0, 2.0, 3.0, 4.0]))
    assert trend_test(trace_from([1.0, 2.0, 3.0, 4.0, 5.0]))


def test_trend_test_sign_cases():
    assert not trend_test(trace_from([5.0, 4.0, 3.0, 2.0, 1.0]))
    assert not trend_test(trace_from([2.0, 2.0, 2.0, 2.0, 2.0]))  # zero slope
    assert trend_test(trace_from([3.0, 2.0, 1.0, 2.0, 4.0]))  # net rise wins


def test_trend_test_uses_only_recent_window():
    rising_then_falling = trace_from([1, 2, 3, 4, 5, 9, 8, 7, 6, 5])
    assert not trend_test(rising_then_falling)
    falling_then_rising = trace_from([9, 8, 7, 6, 5, 1, 2, 3, 4, 5])
    assert trend_test(falling_then_rising)


def test_select_rule_entry_no_termination_picks_last():
    assert select_rule_entry(trace_from([5, 4, 3, 2, 1])) == 4
    assert select_rule_entry(trace_from([5, 4])) == 1


def test_select_rule_entry_window_minimum():
    # first terminating prefix ends at index 6; its window starts at 2
    # and the smallest error in (3, 2, 1, 2, 4) sits at index 4
    trace = trace_from([5, 4, 3, 2, 1, 2, 4])
    assert select_rule_entry(trace) == 4
    # entries appended after the first firing do not change the choice
    longer = trace_from([5, 4, 3, 2, 1, 2, 4, 0.1, 0.1])
    assert select_rule_entry(longer) == 4


def test_select_rule_entry_empty_trace():
    with pytest.raises(ValueError):
        select_rule_entry(ErrorTrace())


def scripted_ladder(errors):
    # the ladder loop on a fixed ladder with a scripted error statistic
    _, measure, reference = toy_setup()
    script = iter(errors)

    def record(system):
        return TraceEntry(t=system.t, error=next(script), nugget=0.0)

    trace, _ = _run_ladder(measure.log_density, reference, None, 0.95, None,
                           32, ProposalPolicy(), np.random.default_rng(0), 1,
                           record, True, ladder=np.linspace(0.0, 1.0,
                                                            len(errors)))
    return trace


def test_rise_from_a_plateau_does_not_stop():
    errors = [1.0, 0.9, 0.9, 0.95, 1.0, 1.02, 1.05]
    assert trend_test(trace_from(errors[:5]))  # the slope alone would stop
    assert min(errors) > DROP_GUARD * errors[0]
    assert select_rule_entry(trace_from(errors)) == 6
    assert len(scripted_ladder(errors)) == 7


def test_rise_after_a_drop_stops_at_the_window_minimum():
    # no stop on the early rise; the error then drops tenfold and rises
    errors = [1.0, 0.9, 0.9, 0.95, 1.0, 0.4, 0.1, 0.1, 0.12, 0.15, 0.2, 0.3]
    assert select_rule_entry(trace_from(errors)) == 6
    trace = scripted_ladder(errors)
    assert list(trace.errors) == errors[:11]  # stopped at the first rise
    assert select_rule_entry(trace) == 6


# --- kernel parameter fitting ---


def test_marginal_likelihood_objective_frozen_and_oracle():
    f = np.array([1.0, 2.0])
    X = np.array([[0.0], [1.0]])
    got = marginal_likelihood_objective(f, X, K1)
    assert got == pytest.approx(3.935338499400826, abs=1e-12)
    K = np.array([[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]])
    oracle = f @ np.linalg.solve(K, f) + np.linalg.slogdet(K)[1]
    assert got == pytest.approx(float(oracle), rel=1e-12)


def test_marginal_likelihood_objective_random_oracle():
    rng = np.random.default_rng(5)
    X = spread_states(rng, 7)
    f = rng.normal(size=7)
    for ell in (0.4, 1.0, 2.5):
        k = GaussianKernel([ell])
        got = marginal_likelihood_objective(f, X, k)
        K = k.gram(X)
        oracle = f @ np.linalg.solve(K, f) + np.linalg.slogdet(K)[1]
        assert got == pytest.approx(float(oracle), rel=1e-9)


def test_kern_param_fit_recovers_lengthscale():
    # 20 points keep the Gram condition below the jitter ladder so the
    # likelihood surface is undistorted
    family = gaussian_lengthscale_family(d=1, low=0.05, high=5.0)
    true = GaussianKernel([0.5])
    rng = np.random.default_rng(6)
    hits = 0
    for _ in range(50):
        X = np.sort(rng.uniform(-3.0, 3.0, size=20))[:, None]
        K = true.gram(X) + 1e-12 * np.eye(20)
        y = scipy.linalg.cholesky(K, lower=True) @ rng.standard_normal(20)
        ell = kern_param_fit(y, X, family)[0]
        hits += 0.25 <= ell <= 1.0
    assert hits >= 45


def test_kern_param_fit_finds_dominant_basin():
    # the objective for this data set is multimodal with a deep basin far
    # from the box midpoint; a dense grid scan supplies the reference level
    family = gaussian_lengthscale_family(d=1, low=0.05, high=5.0)
    rng = np.random.default_rng(12)
    X = np.sort(rng.uniform(-3.0, 3.0, size=15))[:, None]
    f = np.sin(1.3 * X[:, 0])
    ell = kern_param_fit(f, X, family)[0]
    fitted_obj = marginal_likelihood_objective(f, X, GaussianKernel([ell]))
    grid = np.exp(np.linspace(np.log(0.05), np.log(5.0), 2000))
    best = min(marginal_likelihood_objective(f, X, GaussianKernel([g]))
               for g in grid)
    assert best < -150.0  # the deep basin exists and dominates
    assert fitted_obj <= best + 0.15 * abs(best)


def test_kern_param_fit_zero_integrand_warns():
    family = gaussian_lengthscale_family(d=1)
    X = np.linspace(-1, 1, 5)[:, None]
    with pytest.warns(RuntimeWarning):
        kern_param_fit(np.zeros(5), X, family)


def test_kern_param_fit_validation_and_1d_points():
    family = gaussian_lengthscale_family(d=1)
    with pytest.raises(ValueError):
        kern_param_fit([1.0], [[0.0]], family)
    with pytest.raises(ValueError):
        kern_param_fit([1.0, 2.0, 3.0], [[0.0], [1.0]], family)
    ell = kern_param_fit([1.0, 2.0, 0.5], np.array([0.0, 1.0, 2.0]), family)
    assert 0.05 <= ell[0] <= 5.0


def test_kern_param_fit_names_the_cause():
    family = gaussian_lengthscale_family(d=1)
    X = np.linspace(-1, 1, 3)[:, None]
    with pytest.raises(ValueError, match=r"non-finite at indices \[1\]"):
        kern_param_fit([1.0, np.nan, 0.5], X, family)

    class IndefiniteGram:  # no jitter on the ladder can factor it
        def gram(self, X):
            return -np.eye(len(X))

    singular = KernelFamily(build=lambda p: IndefiniteGram(),
                            log_bounds=[(0.0, 1.0)])
    with pytest.raises(np.linalg.LinAlgError,
                       match="no parameter in the box gave a finite"):
        kern_param_fit([1.0, 2.0, 0.5], X, singular)


def test_lengthscale_family_rejects_bad_bounds():
    # inverted bounds used to make kern_param_fit return an unrefined grid
    # point: golden section never iterates on a bracket with b < a
    for low, high in [(5.0, 0.05), (0.0, 5.0), (-1.0, 5.0), (0.05, np.inf),
                      (np.nan, 5.0)]:
        with pytest.raises(ValueError, match="0 < low <= high"):
            gaussian_lengthscale_family(1, low=low, high=high)
    with pytest.raises(ValueError, match="low <= high"):
        KernelFamily(build=GaussianKernel, log_bounds=[(1.0, -1.0)])
    family = gaussian_lengthscale_family(1, low=0.5, high=0.5)
    X = np.linspace(-1, 1, 4)[:, None]
    assert kern_param_fit([1.0, 2.0, 0.5, 0.0], X, family)[0] \
        == pytest.approx(0.5, rel=1e-12)


def toy_fit_data():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 1))
    return 1.0 + np.sin(2.0 * np.pi * X[:, 0]), X


def counting_objective(monkeypatch):
    """Counts marginal-likelihood evaluations made by kern_param_fit."""
    calls = [0]
    objective = kquad.controller.marginal_likelihood_objective

    def counted(*args):
        calls[0] += 1
        return objective(*args)

    monkeypatch.setattr(kquad.controller, "marginal_likelihood_objective",
                        counted)
    return calls


@pytest.mark.parametrize("start", [0.05, 5.0, 0.06, 3.0])
def test_kern_param_fit_warm_start_falls_back_to_the_scan(start, monkeypatch):
    # a start on a box edge, or on a slope far from the optimum's basin,
    # brackets no minimum, so the full scan runs as without a start
    family = gaussian_lengthscale_family(1)
    f, X = toy_fit_data()
    calls = counting_objective(monkeypatch)
    cold = kern_param_fit(f, X, family)
    cold_calls = calls[0]
    calls[0] = 0
    assert np.array_equal(kern_param_fit(f, X, family, start=[start]), cold)
    assert calls[0] >= cold_calls


def test_kern_param_fit_warm_start_at_the_optimum(monkeypatch):
    family = gaussian_lengthscale_family(1)
    f, X = toy_fit_data()
    calls = counting_objective(monkeypatch)
    cold = kern_param_fit(f, X, family)
    cold_calls = calls[0]
    calls[0] = 0
    warm = kern_param_fit(f, X, family, start=cold)
    assert abs(np.log(warm[0]) - np.log(cold[0])) <= kquad.controller._LINE_TOL
    assert calls[0] <= 20
    assert cold_calls >= 45  # 33 grid points, then a golden section


def test_kern_param_fit_rejects_a_bad_start():
    family = gaussian_lengthscale_family(1)
    f, X = toy_fit_data()
    for start in ([1.0, 1.0], [0.0], [-1.0], [np.nan]):
        with pytest.raises(ValueError, match="start must hold 1"):
            kern_param_fit(f, X, family, start=start)


def test_kern_param_fit_anisotropic_descent():
    family = gaussian_lengthscale_family(d=2, low=0.1, high=4.0,
                                         isotropic=False)
    rng = np.random.default_rng(7)
    X = rng.uniform(-2, 2, size=(30, 2))
    true = GaussianKernel([0.4, 2.0])
    K = true.gram(X) + 1e-10 * np.eye(30)
    y = scipy.linalg.cholesky(K, lower=True) @ rng.standard_normal(30)
    ells = kern_param_fit(y, X, family)
    assert ells.shape == (2,)
    assert ells[0] < ells[1]  # ordering of the true scales is recovered


# --- scaled error statistic for kernel learning ---


def kl_statistic(cache, f, kernel, measure, states, n, m_boot, rng):
    # the statistic on the first n states, their values read through cache
    f_vals = cache.evaluate(f, states[:n])
    return _kl_error(kernel, measure, states, f_vals, n, m_boot, rng)[0]


def test_crit_kl_homogeneous_in_integrand():
    rng = np.random.default_rng(8)
    states = spread_states(rng, 10)

    def f(X):
        return np.sin(X[:, 0]) + 0.3

    base = kl_statistic(EvalCache(), f, K1, M1, states, n=4, m_boot=10,
                        rng=np.random.default_rng(9))
    for c in (-3.0, 0.5, 2.0):
        scaled = kl_statistic(EvalCache(), lambda X, c=c: c * f(X), K1, M1,
                              states, n=4, m_boot=10,
                              rng=np.random.default_rng(9))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12)
    zero = kl_statistic(EvalCache(), lambda X: np.zeros(X.shape[0]), K1, M1,
                        states, n=4, m_boot=10, rng=np.random.default_rng(9))
    assert zero == 0.0


def test_crit_kl_uses_cache_and_validates():
    rng = np.random.default_rng(10)
    states = spread_states(rng, 8)
    calls = []

    def f(X):
        calls.append(X.shape[0])
        return X[:, 0]

    cache = EvalCache()
    kl_statistic(cache, f, K1, M1, states, n=3, m_boot=5,
                 rng=np.random.default_rng(0))
    assert calls == [3]
    assert len(cache) == 3
    kl_statistic(cache, f, K1, M1, states, n=3, m_boot=5,
                 rng=np.random.default_rng(1))
    assert calls == [3]  # same leading subset: fully served by the cache
    with pytest.raises(InsufficientStatesError):
        kl_statistic(cache, f, K1, M1, states[:2], n=3, m_boot=5,
                     rng=np.random.default_rng(0))


# --- adaptive drivers ---


def toy_setup():
    measure = GaussianMeasure([0.0], [1.0])
    reference = BoxUniform(lower=[-5.0], upper=[5.0])

    def f(X):
        return np.sin(X[:, 0]) + X[:, 0] ** 2

    return f, measure, reference


def test_smc_kq_deterministic_and_counts_evals():
    f, measure, reference = toy_setup()
    rows = []

    def counted(X):
        rows.append(X.shape[0])
        return f(X)

    rep1 = smc_kq(counted, measure.log_density, K1, reference,
                  measure=measure, n=8, n_particles=32, seed=123)
    assert rows == [8]
    assert rep1.total_f_evals == 8
    assert rep1.n_quadrature_points == 8
    assert np.isfinite(rep1.estimate)
    assert rep1.final_nugget >= 0.0

    rep2 = smc_kq(f, measure.log_density, K1, reference,
                  measure=measure, n=8, n_particles=32, seed=123)
    assert rep2.estimate == rep1.estimate
    assert rep2.t_star == rep1.t_star
    assert np.array_equal(rep2.trace.ts, rep1.trace.ts)
    assert np.array_equal(rep2.trace.errors, rep1.trace.errors)

    rep3 = smc_kq(f, measure.log_density, K1, reference,
                  measure=measure, n=8, n_particles=32, seed=124)
    assert rep3.estimate != rep1.estimate


def test_smc_kq_ladder_monotone_with_capped_steps():
    f, measure, reference = toy_setup()
    rep = smc_kq(f, measure.log_density, K1, reference, measure=measure,
                 n=8, n_particles=32, delta=0.07, seed=5,
                 terminate_early=False)
    ts = rep.trace.ts
    assert ts[0] == 0.0
    assert np.all(np.diff(ts) > 0)
    assert np.all(np.diff(ts) <= 0.07 + 1e-12)
    assert ts[-1] == 1.0
    assert rep.t_star == 1.0  # forced full ladder uses the final temperature


def test_smc_kq_ladder_longer_than_max_rungs_raises(monkeypatch):
    f, measure, reference = toy_setup()
    monkeypatch.setattr(kquad.controller, "MAX_RUNGS", 2)
    with pytest.raises(RuntimeError, match="exceeded 2 steps"):
        smc_kq(f, measure.log_density, K1, reference, measure=measure,
               n=8, n_particles=32, delta=0.1, seed=5, terminate_early=False)


def test_smc_kq_t_star_comes_from_trace():
    f, measure, reference = toy_setup()
    rep = smc_kq(f, measure.log_density, K1, reference, measure=measure,
                 n=8, n_particles=32, seed=42)
    assert rep.t_star in rep.trace.ts
    assert 0.0 <= rep.t_star <= 1.0


def test_smc_kq_particle_budget_validation():
    f, measure, reference = toy_setup()
    with pytest.raises(ValueError):
        smc_kq(f, measure.log_density, K1, reference, measure=measure,
               n=8, n_particles=15, seed=0)


def test_smc_kq_stein_route_runs():
    reference = BoxUniform(lower=[-4.0], upper=[4.0])
    kern = SteinKernel(GaussianKernel([1.0]), score=lambda X: -np.asarray(X))

    def log_target(X):
        return -0.5 * np.sum(X * X, axis=1)

    rep = smc_kq(lambda X: X[:, 0], log_target, kern, reference,
                 n=10, n_particles=40, seed=3)
    assert np.isfinite(rep.estimate)
    assert abs(rep.estimate) < 0.5  # the target mean is 0


def test_smc_kq_stein_frozen_bits():
    # estimate and t_star of a small oscillator run, as recorded before
    # regime-resolved trajectories and the in-place Stein Gram
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    box = (np.zeros(4), np.full(4, 10.0))
    kernel = SteinKernel(GaussianKernel(np.full(4, 8.0)),
                         lambda X: ode_score(problem, X))
    rep = smc_kq(lambda X: ode_predictive(problem, X),
                 lambda X: ode_log_posterior(problem, X), kernel,
                 BoxUniform(*box), support=box, n=15, n_particles=60,
                 proposal=ProposalPolicy(ADAPTIVE_LOGNORMAL), seed=1)
    assert rep.estimate.hex() == "-0x1.0db4a2bc272ffp-4"
    assert rep.t_star.hex() == "0x1.66de0eec2996ap-1"
    assert rep.total_f_evals == 15


def test_smc_kq_kl_accounts_for_every_evaluation():
    f, measure, reference = toy_setup()
    family = gaussian_lengthscale_family(d=1, low=0.1, high=4.0)
    rows = []

    def counted(X):
        rows.append(X.shape[0])
        return f(X)

    rep = smc_kq_kl(counted, measure.log_density, family, reference,
                    measure=measure, n=6, n_particles=24, seed=77)
    assert sum(rows) == rep.total_f_evals
    assert rep.total_f_evals == rep.n_quadrature_points
    assert rep.total_f_evals >= 6
    assert np.isfinite(rep.estimate)
    assert rep.kernel_params_final is not None
    assert 0.1 <= rep.kernel_params_final[0] <= 4.0

    rep2 = smc_kq_kl(f, measure.log_density, family, reference,
                     measure=measure, n=6, n_particles=24, seed=77)
    assert rep2.estimate == rep.estimate
    assert rep2.total_f_evals == rep.total_f_evals


def test_smc_kq_kl_warm_starts_each_refit_after_the_first(monkeypatch):
    f, measure, reference = toy_setup()
    family = gaussian_lengthscale_family(d=1, low=0.1, high=4.0)
    calls = counting_objective(monkeypatch)
    fit = kquad.controller.kern_param_fit
    fits = []  # (f_values, points, start, objective calls)

    def recorded(f_values, points, family, start=None):
        before = calls[0]
        params = fit(f_values, points, family, start=start)
        fits.append((f_values, points, start, calls[0] - before))
        return params

    monkeypatch.setattr(kquad.controller, "kern_param_fit", recorded)
    smc_kq_kl(f, measure.log_density, family, reference, measure=measure,
              n=12, n_particles=48, seed=77)
    assert len(fits) >= 3
    assert fits[0][2] is None
    assert all(start is not None for _, _, start, _ in fits[1:])
    warm = sum(count for *_, count in fits[1:])
    calls[0] = 0
    for f_values, points, _, _ in fits[1:]:
        fit(f_values, points, family)
    assert warm < calls[0]


def test_smc_kq_kl_validation():
    f, measure, reference = toy_setup()
    family = gaussian_lengthscale_family(d=1)
    with pytest.raises(ValueError):
        smc_kq_kl(f, measure.log_density, family, reference, measure=measure,
                  n=6, n_particles=11, seed=0)


# --- fixed-ladder diagnostics ---


def test_temperature_error_profile_follows_ladder():
    _, measure, reference = toy_setup()
    ladder = [0.0, 0.25, 0.5, 0.75, 1.0]
    trace, snapshots = temperature_error_profile(
        measure.log_density, K1, reference, ladder, measure=measure,
        n=8, n_particles=32, seed=11)
    assert np.array_equal(trace.ts, ladder)
    assert len(snapshots) == 5
    assert [s.t for s in snapshots] == ladder
    assert np.all(trace.errors > 0)


def test_temperature_error_profile_ladder_validation():
    _, measure, reference = toy_setup()

    def run(ladder):
        return temperature_error_profile(measure.log_density, K1, reference,
                                         ladder, measure=measure, n=4,
                                         n_particles=16, seed=0)

    with pytest.raises(ValueError):
        run([0.1, 0.5, 1.0])
    with pytest.raises(ValueError):
        run([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        run([0.0, 0.5, 1.1])
    with pytest.raises(ValueError):
        run([])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_temperature_error_profile_replays_full_ladder(seed):
    # one ladder loop: the fixed-ladder profile on the temperatures of a
    # forced full run recomputes that run's statistic and nuggets bitwise
    problem = ToyProblem(d=1)
    measure = problem.target()
    reference = GaussianMeasure([0.0], [8.0])
    rep = smc_kq(lambda X: toy_integrand(problem, X), measure.log_density,
                 K1, reference, measure=measure, n=20, n_particles=80,
                 terminate_early=False, seed=seed)
    nuggets = [e.nugget for e in rep.trace.entries]
    trace, snapshots = temperature_error_profile(
        measure.log_density, K1, reference, rep.trace.ts, measure=measure,
        n=20, n_particles=80, seed=seed)
    assert np.array_equal(trace.ts, rep.trace.ts)
    assert np.array_equal(trace.errors, rep.trace.errors)
    assert [e.nugget for e in trace.entries] == nuggets
    assert len(snapshots) == len(rep.trace)
    # a ladder that stops short of t = 1 ends at its last temperature
    short, _ = temperature_error_profile(
        measure.log_density, K1, reference, rep.trace.ts[:4], measure=measure,
        n=20, n_particles=80, seed=seed)
    assert np.array_equal(short.errors, rep.trace.errors[:4])


@pytest.mark.parametrize("sweeps", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_smc_kq_evaluates_target_once_per_particle_per_move(seed, sweeps):
    # particles carry their densities: the initial draw and each sweep's
    # proposals are the only rows log_target ever sees
    problem = ToyProblem(d=1)
    measure = problem.target()
    rows = [0]

    def log_target(X):
        rows[0] += X.shape[0]
        return measure.log_density(X)

    rep = smc_kq(lambda X: toy_integrand(problem, X), log_target, K1,
                 GaussianMeasure([0.0], [8.0]), measure=measure, n=20,
                 n_particles=80, sweeps=sweeps, seed=seed)
    assert len(rep.trace) > 1
    assert rows[0] == 80 * (1 + sweeps * (len(rep.trace) - 1))
