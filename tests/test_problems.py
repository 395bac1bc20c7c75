import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from kquad.problems import (
    BachDiagnostic,
    BenchmarkResult,
    ODEProblem,
    ToyProblem,
    bach_density_truncated,
    default_toy_lengthscale,
    gaussian_kernel_eigenvalues,
    generate_ode_data,
    ode_log_likelihood,
    ode_log_posterior,
    ode_log_prior,
    ode_predictive,
    ode_score,
    ode_solution,
    posterior_benchmark,
    toy_integrand,
    with_observations,
    _log_post_psi,
    _trajectory,
)
from kquad.problems import _PREFETCH_DEPTH as PREFETCH_DEPTH

THETA_UNDER = np.array([1.0, 3.75, 2.5, 0.5])
THETA_OVER = np.array([1.0, 0.5, 0.25, 2.0])
THETA_CRIT = np.array([1.0, 0.5, 1.0, 2.0])


def rk_oracle(theta, times):
    # high-accuracy Runge-Kutta integration of the second-order system
    def rhs(_, y):
        return [y[1], -theta[3] * y[1] - theta[2] * y[0]]

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, float(np.max(times)) + 1e-9), [theta[0], theta[1]],
        t_eval=np.atleast_1d(times), rtol=1e-11, atol=1e-12)
    assert sol.success
    return sol.y[0]


def data_free_problem():
    return ODEProblem(times=np.array([]), observations=np.array([]))


# --- sinusoidal toy problem ---


def test_toy_integrand_frozen_values():
    p1 = ToyProblem(d=1)
    assert toy_integrand(p1, [[0.0]]) == pytest.approx([1.0], abs=1e-15)
    assert toy_integrand(p1, [[0.25]]) == pytest.approx([2.0], abs=1e-12)
    assert toy_integrand(p1, [[0.125]]) == pytest.approx(
        [1.0 + np.sqrt(0.5)], abs=1e-12)
    p2 = ToyProblem(d=2)
    assert toy_integrand(p2, [[0.125, 0.125]]) == pytest.approx([1.5], abs=1e-12)


def test_toy_integrand_antithetic_symmetry_odd_dimension():
    rng = np.random.default_rng(0)
    for d in (1, 3):
        p = ToyProblem(d=d)
        X = rng.normal(size=(50, d))
        assert np.max(np.abs(toy_integrand(p, X) + toy_integrand(p, -X) - 2.0)) \
            < 1e-14


def test_toy_integrand_even_dimension_not_antithetic():
    p = ToyProblem(d=2)
    X = np.full((1, 2), 0.125)
    assert toy_integrand(p, X)[0] + toy_integrand(p, -X)[0] != pytest.approx(
        2.0, abs=1e-3)


def test_toy_true_value_matches_monte_carlo():
    p = ToyProblem(d=1)
    assert p.true_value == 1.0
    rng = np.random.default_rng(1)
    vals = toy_integrand(p, rng.normal(size=(100_000, 1)))
    se = vals.std() / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 5 * se + 1e-3


def test_toy_target_and_validation():
    p = ToyProblem(d=3)
    m = p.target()
    assert np.array_equal(m.mean, np.zeros(3))
    assert np.array_equal(m.std, np.ones(3))
    with pytest.raises(ValueError):
        ToyProblem(d=0)
    with pytest.raises(ValueError):
        ToyProblem(frequency=0.0)
    with pytest.raises(ValueError):
        toy_integrand(ToyProblem(d=2), [[1.0, 2.0, 3.0]])


def test_toy_integrand_promotes_1d_input():
    p = ToyProblem(d=1)
    assert np.array_equal(toy_integrand(p, [0.0, 0.25]),
                          toy_integrand(p, [[0.0], [0.25]]))


def test_default_toy_lengthscale_bands():
    two_pi = 2.0 * np.pi
    assert default_toy_lengthscale(ToyProblem(d=1, frequency=two_pi)) == 1.0
    assert default_toy_lengthscale(ToyProblem(d=1, frequency=2 * two_pi)) == 0.25
    assert default_toy_lengthscale(ToyProblem(d=1, frequency=4 * two_pi)) == 0.15
    assert default_toy_lengthscale(ToyProblem(d=3, frequency=two_pi)) == 0.25


# --- oscillator trajectory ---


def test_ode_solution_initial_conditions():
    for theta in (THETA_UNDER, THETA_OVER, THETA_CRIT):
        assert ode_solution(theta, 0.0) == pytest.approx(theta[0], abs=1e-14)
        h = 1e-7
        v0 = (ode_solution(theta, h) - ode_solution(theta, -h)) / (2 * h)
        assert v0 == pytest.approx(theta[1], rel=1e-5)


def test_ode_solution_matches_rk_oracle():
    times = np.linspace(0.0, 10.0, 20)
    for theta in (THETA_UNDER, THETA_OVER):
        got = ode_solution(theta, times)
        assert np.max(np.abs(got - rk_oracle(theta, times))) < 1e-8


def test_ode_solution_critical_damping_closed_form():
    times = np.linspace(0.0, 6.0, 13)
    got = ode_solution(THETA_CRIT, times)
    x0, v0, _, c = THETA_CRIT
    r = -0.5 * c
    exact = (x0 + (v0 - r * x0) * times) * np.exp(r * times)
    assert np.max(np.abs(got - exact)) < 1e-12
    assert np.max(np.abs(got - rk_oracle(THETA_CRIT, times))) < 1e-8


def test_ode_solution_continuous_across_damping_regimes():
    # stiffness a hair on either side of the critical boundary c^2 = 4k
    times = np.linspace(0.0, 6.0, 25)
    c = 2.0
    k_crit = c * c / 4.0
    under = ode_solution([1.0, 0.5, k_crit * (1 + 1e-8), c], times)
    over = ode_solution([1.0, 0.5, k_crit * (1 - 1e-8), c], times)
    crit = ode_solution([1.0, 0.5, k_crit, c], times)
    assert np.max(np.abs(under - crit)) < 1e-6
    assert np.max(np.abs(over - crit)) < 1e-6


def test_ode_solution_satisfies_equation():
    # central second differences of the closed form solve the equation
    h = 1e-4
    ts = np.linspace(0.5, 5.0, 10)
    for theta in (THETA_UNDER, THETA_OVER, THETA_CRIT):
        x = ode_solution(theta, ts)
        xp = (ode_solution(theta, ts + h) - ode_solution(theta, ts - h)) / (2 * h)
        xpp = (ode_solution(theta, ts + h) - 2 * x
               + ode_solution(theta, ts - h)) / (h * h)
        resid = xpp + theta[3] * xp + theta[2] * x
        assert np.max(np.abs(resid)) < 1e-4


def test_ode_solution_shapes():
    times = np.linspace(0, 1, 5)
    batch = np.vstack([THETA_UNDER, THETA_OVER, THETA_CRIT])
    assert np.shape(ode_solution(THETA_UNDER, 1.0)) == ()
    assert ode_solution(THETA_UNDER, times).shape == (5,)
    assert ode_solution(batch, 1.0).shape == (3,)
    out = ode_solution(batch, times)
    assert out.shape == (3, 5)
    # batched evaluation agrees with row-by-row evaluation
    for i, th in enumerate(batch):
        assert np.allclose(out[i], ode_solution(th, times), atol=1e-14)
    with pytest.raises(ValueError):
        ode_solution([1.0, 2.0, 3.0], 1.0)


# --- data generation ---


def test_generate_ode_data_replay_and_determinism():
    problem = ODEProblem()
    data = generate_ode_data(problem, np.random.default_rng(1234))
    clean = ode_solution(problem.theta_true, problem.times)
    noise = np.random.default_rng(1234).standard_normal(20)
    assert np.array_equal(data, clean + 0.4 * noise)
    again = generate_ode_data(problem, np.random.default_rng(1234))
    assert np.array_equal(data, again)


def test_with_observations_attaches_matching_data():
    problem = with_observations(ODEProblem(), np.random.default_rng(7))
    assert problem.observations is not None
    assert problem.observations.shape == (20,)
    expected = generate_ode_data(ODEProblem(), np.random.default_rng(7))
    assert np.array_equal(problem.observations, expected)


def test_generate_ode_data_noise_scale():
    times = np.zeros(10_000)
    problem = ODEProblem(times=times)
    data = generate_ode_data(problem, np.random.default_rng(2))
    resid = data - 1.0  # x(0) = 1
    se_of_std = 0.4 / np.sqrt(2 * times.size)
    assert abs(resid.std() - 0.4) < 3 * se_of_std


# --- posterior pieces ---


def test_ode_problem_defaults_and_validation():
    p = ODEProblem()
    assert np.array_equal(p.times, np.linspace(0.0, 10.0, 20))
    assert p.horizon == 12.0
    assert p.observations is None
    with pytest.raises(ValueError):
        ODEProblem(theta_true=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        ODEProblem(theta_true=(1.0, 2.0, 3.0, -1.0))
    with pytest.raises(ValueError):
        ODEProblem(noise_std=0.0)
    with pytest.raises(ValueError):
        ODEProblem(observations=np.zeros(3))


def test_ode_log_prior_scalar_oracle():
    p = ODEProblem()
    rng = np.random.default_rng(3)
    th = rng.lognormal(size=(20, 4))
    got = ode_log_prior(p, th)
    # lognormal(0, prior_scale) per coordinate via scipy
    oracle = np.sum(scipy.stats.lognorm.logpdf(th, s=0.5), axis=1)
    assert np.max(np.abs(got - oracle)) < 1e-10


def test_ode_log_posterior_decomposition_and_oracle():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    rng = np.random.default_rng(4)
    th = rng.lognormal(size=(15, 4))
    lp = ode_log_prior(problem, th)
    ll = ode_log_likelihood(problem, th)
    post = ode_log_posterior(problem, th)
    assert np.max(np.abs(post - (lp + ll))) < 1e-12

    # independent per-row oracle built from scipy distributions
    for i in range(15):
        traj = ode_solution(th[i], problem.times)
        oracle = (
            np.sum(scipy.stats.lognorm.logpdf(th[i], s=0.5))
            + np.sum(scipy.stats.norm.logpdf(problem.observations, traj, 0.4))
        )
        assert post[i] == pytest.approx(float(oracle), abs=1e-10)


def test_ode_log_posterior_off_orthant():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    th = np.array([[1.0, 1.0, 1.0, 1.0],
                   [1.0, -1.0, 1.0, 1.0],
                   [0.0, 1.0, 1.0, 1.0]])
    out = ode_log_posterior(problem, th)
    assert np.isfinite(out[0])
    assert np.isneginf(out[1]) and np.isneginf(out[2])
    scalar = ode_log_posterior(problem, np.array([1.0, 1.0, 1.0, -2.0]))
    assert np.isneginf(scalar)


def test_ode_log_likelihood_requires_observations():
    with pytest.raises(ValueError):
        ode_log_likelihood(ODEProblem(), THETA_UNDER)
    with pytest.raises(ValueError):
        ode_score(ODEProblem(), THETA_UNDER)


def test_ode_score_prior_only_frozen():
    # at theta = 1: d/dtheta [-log th - log(th)^2/(2 s^2)] = -1 - 0 = -1
    got = ode_score(data_free_problem(), np.ones(4))
    assert np.allclose(got, -np.ones(4), atol=1e-14)
    assert got.shape == (4,)


def test_ode_score_finite_difference_oracle():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    rng = np.random.default_rng(5)
    th = rng.lognormal(size=(20, 4))
    got = ode_score(problem, th)
    assert got.shape == (20, 4)
    fd = np.empty_like(got)
    for j in range(4):
        h = 1e-5 * th[:, j]
        hi, lo = th.copy(), th.copy()
        hi[:, j] += h
        lo[:, j] -= h
        fd[:, j] = (ode_log_posterior(problem, hi)
                    - ode_log_posterior(problem, lo)) / (2 * h)
    assert np.max(np.abs(got - fd) / (1.0 + np.abs(fd))) < 1e-4


def finite_difference_score(problem, th):
    # the score from central differences of the trajectory, relative step
    # 1e-6 per coordinate
    s = problem.prior_scale
    grad = -1.0 / th - np.log(th) / (s * s * th)
    resid = problem.observations - ode_solution(th, problem.times)
    for j in range(4):
        h = 1e-6 * th[:, j]
        hi, lo = th.copy(), th.copy()
        hi[:, j] += h
        lo[:, j] -= h
        dx = (ode_solution(hi, problem.times)
              - ode_solution(lo, problem.times)) / (2.0 * h[:, None])
        grad[:, j] += np.sum(resid * dx, axis=1) / problem.noise_std ** 2
    return grad


def near_critical_states(rng, n, rel):
    c = rng.uniform(0.5, 4.0, n)
    return np.column_stack([rng.uniform(0.2, 3.0, n), rng.uniform(0.2, 3.0, n),
                            c * c / 4.0 * (1.0 + rel), c])


def assert_score_matches_finite_differences(problem, th):
    # normwise over the batch: the difference quotient itself carries up to
    # ~1e-6 of error on single rows next to critical damping, where the
    # overdamped closed form cancels
    got, fd = ode_score(problem, th), finite_difference_score(problem, th)
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


def test_ode_score_closed_form_matches_finite_differences():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    th = np.random.default_rng(21).uniform(0.01, 10.0, size=(2000, 4))
    disc = th[:, 3] ** 2 - 4.0 * th[:, 2]
    assert np.mean(disc < 0) > 0.2 and np.mean(disc > 0) > 0.2
    assert_score_matches_finite_differences(problem, th)


def test_ode_score_closed_form_near_and_at_critical_damping():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    rng = np.random.default_rng(22)
    for rel in (1e-8, -1e-8, 0.0):
        th = near_critical_states(rng, 200, rel)
        if rel == 0.0:
            assert np.all(th[:, 3] ** 2 - 4.0 * th[:, 2] == 0.0)
        assert_score_matches_finite_differences(problem, th)


def test_ode_score_near_critical_high_precision_oracle():
    # position and its derivatives in 40-digit arithmetic: the closed form
    # stays accurate where the difference quotient loses digits
    mpmath = pytest.importorskip("mpmath")
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))

    def position(x0, v0, k, c, t):
        lam = c * c / 4 - k
        if lam == 0:
            cos_part, sin_part = 1, t
        elif lam > 0:
            r = mpmath.sqrt(lam)
            cos_part, sin_part = mpmath.cosh(r * t), mpmath.sinh(r * t) / r
        else:
            r = mpmath.sqrt(-lam)
            cos_part, sin_part = mpmath.cos(r * t), mpmath.sin(r * t) / r
        return mpmath.exp(-c * t / 2) * (x0 * cos_part
                                         + (v0 + c * x0 / 2) * sin_part)

    th = np.vstack([near_critical_states(np.random.default_rng(23), 2, rel)
                    for rel in (1e-8, -1e-8, 0.0)])
    got = ode_score(problem, th)
    with mpmath.workdps(40):
        var = mpmath.mpf(problem.noise_std) ** 2
        for row, g in zip(th, got):
            p = [mpmath.mpf(float(v)) for v in row]
            want = [-1 / v - mpmath.log(v) / (problem.prior_scale ** 2 * v)
                    for v in p]
            for y, t in zip(problem.observations, problem.times):
                t = mpmath.mpf(float(t))
                resid = mpmath.mpf(float(y)) - position(*p, t)
                for j in range(4):
                    dx = mpmath.diff(lambda v: position(
                        *(p[:j] + [v] + p[j + 1:]), t), p[j])
                    want[j] += resid * dx / var
            want = np.array([float(v) for v in want])
            assert np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want))


def test_trajectory_with_jacobian_returns_ode_solution_bitwise():
    rng = np.random.default_rng(24)
    th = np.vstack([rng.uniform(0.01, 10.0, size=(500, 4)),
                    near_critical_states(rng, 50, 0.0),
                    near_critical_states(rng, 50, 1e-8)])
    times = ODEProblem().times
    x, jac = _trajectory(th, times, jacobian=True)
    assert jac.shape == (600, times.size, 4)
    assert np.array_equal(x, ode_solution(th, times))
    assert np.array_equal(_trajectory(th, times), x)


def all_regime_trajectory(th, times, jacobian=False):
    # the _trajectory that evaluated all three damping regimes on every
    # row and kept one with np.where; kept as the bitwise oracle
    t = times[None, :]
    x0 = th[:, 0:1]
    v0 = th[:, 1:2]
    stiff = th[:, 2:3]
    damp = th[:, 3:4]
    disc = damp * damp - 4.0 * stiff
    w = v0 + 0.5 * damp * x0

    with np.errstate(divide="ignore", invalid="ignore"):
        decay = np.exp(-0.5 * damp * t)
        omega = np.sqrt(np.maximum(-disc, 0.0)) / 2.0
        omega_safe = np.where(omega > 0, omega, 1.0)
        cos_u = np.cos(omega_safe * t)
        sin_u = np.sin(omega_safe * t)
        b_u = w / omega_safe
        x_under = decay * (x0 * cos_u + b_u * sin_u)
        s = np.sqrt(np.maximum(disc, 0.0))
        s_safe = np.where(s > 0, s, 1.0)
        r1 = 0.5 * (-damp + s_safe)
        r2 = 0.5 * (-damp - s_safe)
        e1 = np.exp(r1 * t)
        e2 = np.exp(r2 * t)
        a_o = (v0 - r2 * x0) / s_safe
        x_over = a_o * e1 + (x0 - a_o) * e2
        x_crit = (x0 + w * t) * decay

    def regime(under, over, crit):
        return np.where(disc < 0, under, np.where(disc > 0, over, crit))

    x = regime(x_under, x_over, x_crit)
    if not jacobian:
        return x
    c_t = regime(decay * cos_u, 0.5 * (e1 + e2), decay)
    s_t = regime(decay * sin_u / omega_safe,
                 -e1 * np.expm1(-s_safe * t) / s_safe, decay * t)
    lam = 0.25 * disc
    lt2 = lam * t * t
    series = decay * t ** 3 / 6.0 * (1.0 + lt2 / 10.0 + lt2 * lt2 / 280.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ds_t = np.where(np.abs(lt2) < 1e-3, series,
                        (t * c_t - s_t) / (2.0 * lam))
    dx_dlam = 0.5 * x0 * t * s_t + w * ds_t
    jac = np.stack([c_t + 0.5 * damp * s_t,
                    s_t,
                    -dx_dlam,
                    -0.5 * t * x + 0.5 * x0 * s_t + 0.5 * damp * dx_dlam],
                   axis=-1)
    return x, jac


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def trajectory_oracle_batches():
    rng = np.random.default_rng(31)
    box = rng.uniform(0.01, 10.0, size=(400, 4))
    disc = box[:, 3] ** 2 - 4.0 * box[:, 2]
    assert np.any(disc < 0) and np.any(disc > 0)
    critical = np.array([[1.0, 1.0, 1.0, 2.0], [0.5, 2.0, 0.25, 1.0]])
    assert np.all(critical[:, 3] ** 2 - 4.0 * critical[:, 2] == 0.0)
    mixed = np.vstack([box[:30], critical, near_critical_states(rng, 20, 0.0),
                       near_critical_states(rng, 20, 1e-8)])
    posterior = np.exp(rng.normal(0.0, 0.2, size=(100, 4))) * THETA_UNDER
    batches = [box, mixed, posterior, critical, np.asfortranarray(mixed),
               np.array([[np.nan, 1.0, 1.0, 1.0], THETA_OVER, THETA_UNDER])]
    batches += [row[None, :] for row in np.vstack([critical, box[:10]])]
    return batches


@pytest.mark.parametrize("jacobian", [False, True])
def test_trajectory_matches_all_regime_oracle_bitwise(jacobian):
    # each row is evaluated in its own regime only, in mixed batches, on
    # single rows and on exactly critical rows (disc == 0), and NaN rows
    # take the critical formulas as before
    for times in (ODEProblem().times, np.array([0.0]), np.linspace(0, 30, 7)):
        for th in trajectory_oracle_batches():
            got = _trajectory(th, times, jacobian=jacobian)
            want = all_regime_trajectory(th, times, jacobian=jacobian)
            if jacobian:
                assert_bitwise(got[0], want[0])
                assert_bitwise(got[1], want[1])
            else:
                assert_bitwise(got, want)


def test_ode_score_and_log_posterior_are_row_wise_bitwise():
    # a row's value does not depend on the batch it comes in, as smc_kq
    # requires of log_target (particles carry their target values)
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    rng = np.random.default_rng(32)
    th = np.vstack([rng.uniform(0.01, 10.0, size=(60, 4)),
                    near_critical_states(rng, 5, 0.0)])
    for fn in (ode_score, ode_log_posterior):
        full = fn(problem, th)
        for rows in (rng.permutation(65)[:17], np.arange(0, 65, 3), [4]):
            assert_bitwise(fn(problem, th[rows]), full[rows])
        for i in (0, 33, 64):
            assert_bitwise(np.asarray(fn(problem, th[i])), full[i])


def test_ode_log_posterior_matches_parts_bitwise_with_rows_off_support():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    th = np.random.default_rng(33).uniform(0.01, 10.0, size=(50, 4))
    th[[3, 17]] *= -1.0
    post = ode_log_posterior(problem, th)
    assert np.all(np.isinf(post[[3, 17]]))
    ok = np.isfinite(post)
    want = ode_log_prior(problem, th[ok]) + ode_log_likelihood(problem, th[ok])
    assert_bitwise(post[ok], want)


def test_ode_score_boundary_raises():
    problem = data_free_problem()
    with pytest.raises(ValueError):
        ode_score(problem, np.array([1.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        ode_score(problem, np.array([[1.0, 1.0, 1.0, 1.0],
                                     [1.0, 1.0, -0.5, 1.0]]))


def test_ode_predictive_is_horizon_position():
    problem = ODEProblem()
    assert ode_predictive(problem, THETA_UNDER) == pytest.approx(
        float(ode_solution(THETA_UNDER, 12.0)), abs=1e-14)


# --- MCMC reference value ---


def serial_chain(problem, chain_length, burn_in, rng, step_scale=0.25):
    """The benchmark chain one step at a time: (value, std_error, rate)."""
    psi = np.zeros(4)
    lp = float(ode_log_posterior(problem, np.exp(psi))) + float(psi.sum())
    draws = np.empty((chain_length, 4))
    accepted = 0
    for i in range(chain_length):
        prop = psi + step_scale * rng.standard_normal(4)
        lp_prop = float(ode_log_posterior(problem, np.exp(prop))) \
            + float(prop.sum())
        if np.log(rng.uniform()) < lp_prop - lp:
            psi, lp = prop, lp_prop
            accepted += 1
        draws[i] = psi
    g = ode_predictive(problem, np.exp(draws[burn_in:]))
    n_batches = 50 if g.shape[0] >= 100 else max(2, g.shape[0] // 2)
    size = g.shape[0] // n_batches
    means = g[:n_batches * size].reshape(n_batches, size).mean(axis=1)
    se = float(np.std(means, ddof=1) / np.sqrt(n_batches))
    return float(g.mean()), se, accepted / chain_length


def test_posterior_benchmark_replay_oracle():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    got = posterior_benchmark(problem, 300, 100, np.random.default_rng(0))

    value, _, rate = serial_chain(problem, 300, 100, np.random.default_rng(0))
    assert got.value == value
    assert got.acceptance_rate == rate
    assert got.chain_length == 300 and got.burn_in == 100

    again = posterior_benchmark(problem, 300, 100, np.random.default_rng(0))
    assert again.value == got.value and again.std_error == got.std_error


@pytest.mark.parametrize("chain_length, burn_in", [
    (PREFETCH_DEPTH - 1, 1), (PREFETCH_DEPTH, 1), (PREFETCH_DEPTH + 1, 1),
    (22, 20), (301, 100),
])
def test_posterior_benchmark_prefetch_matches_serial_oracle(chain_length,
                                                            burn_in):
    # lengths below, at and above one prefetched block, and ones that end
    # in a partial block: the generator's stream must be used as serially
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    got = posterior_benchmark(problem, chain_length, burn_in,
                              np.random.default_rng(0))
    want = serial_chain(problem, chain_length, burn_in,
                        np.random.default_rng(0))
    assert (got.value, got.std_error, got.acceptance_rate) == want


def test_log_post_psi_rows_match_the_serial_expression_bitwise():
    # the batched score of prefetched proposals against the one-row
    # expression of a serial chain, on rows a seed-1234 chain visits and
    # rows far outside the support (exp under- or overflows: prior -inf)
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    rng = np.random.default_rng(0)
    P = np.cumsum(0.25 * rng.standard_normal((200, 4)), axis=0)
    P = np.vstack([P, [[-800.0, 0.0, 0.0, 0.0], [0.0, 0.0, 800.0, 0.0],
                       [-1e3, -1e3, -1e3, -1e3], [5.0, -6.0, 7.0, -8.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = _log_post_psi(problem, P)
        want = [float(ode_log_posterior(problem, np.exp(p))) + float(p.sum())
                for p in P]
    assert np.isneginf(got[200:203]).all()
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_posterior_benchmark_frozen_bits():
    # value, standard error and acceptance rate of two short chains, as
    # recorded before the oscillator batch was validated once per call
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    got = posterior_benchmark(problem, 2000, 500, np.random.default_rng(0))
    assert (got.value.hex(), got.std_error.hex(),
            got.acceptance_rate.hex()) == (
        "-0x1.292073eea401bp-4", "0x1.f07a38631e2fap-8",
        "0x1.d916872b020c5p-4")
    with pytest.warns(RuntimeWarning):
        got = posterior_benchmark(problem, 3000, 1000,
                                  np.random.default_rng(7), step_scale=0.4)
    assert (got.value.hex(), got.std_error.hex(),
            got.acceptance_rate.hex()) == (
        "-0x1.4fc9f84dfc4c2p-4", "0x1.1d790c16ce217p-7",
        "0x1.62fc962fc9630p-5")


def test_posterior_benchmark_needs_two_kept_draws():
    # one kept draw gave empty batches and a NaN standard error
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    with pytest.raises(ValueError, match="at least 2 draws"):
        posterior_benchmark(problem, 21, 20, np.random.default_rng(0))
    got = posterior_benchmark(problem, 22, 20, np.random.default_rng(0))
    assert np.isfinite(got.std_error)


def test_posterior_benchmark_two_chains_agree():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    a = posterior_benchmark(problem, 20_000, 2_000, np.random.default_rng(0))
    b = posterior_benchmark(problem, 20_000, 2_000, np.random.default_rng(1))
    combined = np.hypot(a.std_error, b.std_error)
    assert abs(a.value - b.value) < 5 * combined
    assert isinstance(a, BenchmarkResult)
    assert 0.05 <= a.acceptance_rate <= 0.5


def test_posterior_benchmark_validation_and_warning():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    with pytest.raises(ValueError):
        posterior_benchmark(problem, 100, 100, np.random.default_rng(0))
    with pytest.raises(ValueError):
        posterior_benchmark(problem, 100, 0, np.random.default_rng(0))
    with pytest.warns(RuntimeWarning):
        posterior_benchmark(problem, 400, 100, np.random.default_rng(0),
                            step_scale=80.0)


# --- truncated spectral density ---


def hermite_oracle(lam, truncation, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.sqrt(1.5) * x
    total = np.zeros_like(y)
    fact = 1.0
    for j in range(truncation):
        if j > 0:
            fact *= 2.0 * j  # running 2^j j!
        hj = scipy.special.eval_hermite(j, y)
        total += (hj * hj / fact) / (1.0 + lam * 2.0 ** (j + 1))
    return np.exp(-x * x) * total


def test_bach_density_frozen_at_origin():
    assert bach_density_truncated(BachDiagnostic(lam=1.0, truncation=1), 0.0) \
        == pytest.approx(1.0 / 3.0, abs=1e-15)
    # the odd degree-1 term vanishes at the origin
    assert bach_density_truncated(BachDiagnostic(lam=1.0, truncation=2), 0.0) \
        == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_bach_density_matches_hermite_oracle():
    xs = np.linspace(-2.0, 2.0, 41)
    for lam in (0.1, 1.0, 100.0):
        for m in (1, 5, 20, 60, 80):
            got = bach_density_truncated(BachDiagnostic(lam=lam, truncation=m),
                                         xs)
            oracle = hermite_oracle(lam, m, xs)
            assert np.max(np.abs(got - oracle) / (np.abs(oracle) + 1e-300)) \
                < 1e-9


def special_cased_bach_density(diag, x):
    # the recurrence with degrees 0 and 1 as special cases, started from
    # (g_0, g_1) = (1, sqrt(2) y); a bit-for-bit oracle
    arr = np.asarray(x, dtype=float)
    y = np.atleast_1d(arr) * np.sqrt(1.5)
    log_lam = np.log(diag.lam)
    log2 = np.log(2.0)
    g_prev = np.ones_like(y)
    g = np.sqrt(2.0) * y
    logscale = np.zeros_like(y)
    total = np.zeros_like(y)
    for j in range(diag.truncation):
        if j == 0:
            gj = g_prev
        elif j == 1:
            gj = g
        else:
            g_next = y * g * np.sqrt(2.0 / j) - g_prev * np.sqrt((j - 1.0) / j)
            g_prev, g = g, g_next
            big = np.abs(g) > 1e100
            if np.any(big):
                shrink = np.where(big, np.abs(g), 1.0)
                g = g / shrink
                g_prev = g_prev / shrink
                logscale = logscale + np.log(shrink)
            gj = g
        log_weight = -np.logaddexp(0.0, log_lam + (j + 1) * log2)
        with np.errstate(divide="ignore"):
            log_mag = np.where(gj != 0.0, np.log(np.abs(gj)), -np.inf)
        term = np.where(gj != 0.0,
                        np.exp(log_weight + 2.0 * (log_mag + logscale)), 0.0)
        total = total + term
    return np.exp(-np.atleast_1d(arr) ** 2) * total


def test_bach_density_matches_special_cased_recurrence_bitwise():
    grids = (np.linspace(-4.0, 4.0, 401),
             np.concatenate([np.linspace(-40.0, 40.0, 2001),
                             [0.0, -0.0, 1e-300, 5e5, -5e5]]))
    with np.errstate(over="ignore", invalid="ignore"):
        for lam in (1e-15, 1e-8, 1e-3, 1.0, 50.0):
            for m in (1, 2, 3, 7, 80, 120):
                diag = BachDiagnostic(lam=lam, truncation=m)
                for xs in grids:
                    assert bach_density_truncated(diag, xs).tobytes() \
                        == special_cased_bach_density(diag, xs).tobytes()


def test_bach_density_flat_at_large_lam():
    diag = BachDiagnostic(lam=1e4, truncation=80)
    vals = bach_density_truncated(diag, np.linspace(-2.0, 2.0, 201))
    assert np.all(vals > 0)
    assert vals.max() / vals.min() < 1.05


def test_bach_density_monotone_in_truncation():
    rng = np.random.default_rng(6)
    xs = rng.uniform(-2.5, 2.5, size=50)
    prev = np.zeros(50)
    for m in range(1, 81):
        cur = bach_density_truncated(BachDiagnostic(lam=1.0, truncation=m), xs)
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_bach_density_scalar_and_validation():
    out = bach_density_truncated(BachDiagnostic(lam=1.0, truncation=3), 0.5)
    assert isinstance(out, float)
    with pytest.raises(ValueError):
        BachDiagnostic(lam=0.0, truncation=3)
    with pytest.raises(ValueError):
        BachDiagnostic(lam=1.0, truncation=0)
    with pytest.raises(ValueError):
        BachDiagnostic(lam=1.0, truncation=121)


# --- spectral weights ---


def test_gaussian_kernel_eigenvalues_frozen_halving():
    got = gaussian_kernel_eigenvalues(1.0, 1.0, 4)
    assert np.allclose(got, [0.5, 0.25, 0.125, 0.0625], atol=1e-14)


def test_gaussian_kernel_eigenvalues_trace_is_one():
    # k(x, x) = 1, so the spectral weights must sum to 1
    for sigma, ell in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.3), (3.0, 3.0)):
        lam = gaussian_kernel_eigenvalues(sigma, ell, 500)
        assert np.all(lam >= 0)
        nonzero = lam[lam > 0]  # the far tail may underflow to exact zero
        assert np.all(np.diff(nonzero) < 0)
        assert float(lam.sum()) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_kernel_eigenvalues_validation():
    with pytest.raises(ValueError):
        gaussian_kernel_eigenvalues(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        gaussian_kernel_eigenvalues(1.0, -1.0, 3)
    with pytest.raises(ValueError):
        gaussian_kernel_eigenvalues(1.0, 1.0, 0)
