"""Benchmark problems: a sinusoidal toy integrand, a damped-oscillator
inverse problem with Stein-kernel quadrature, and a truncated spectral
density used to diagnose how sampling spread interacts with kernel
quadrature error.

The oscillator is x'' + c x' + k x = 0 with unit mass, initial position
and velocity as the first two parameters, solved in closed form per
damping regime.  Its Bayesian inverse problem has independent lognormal
priors and Gaussian observation noise; the posterior score needed by the
Stein kernel combines the analytic prior score with the closed-form
derivative of the trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .kernels import GaussianMeasure

__all__ = [
    "ToyProblem",
    "toy_integrand",
    "default_toy_lengthscale",
    "ODEProblem",
    "ode_solution",
    "generate_ode_data",
    "with_observations",
    "ode_log_prior",
    "ode_log_likelihood",
    "ode_log_posterior",
    "ode_score",
    "ode_predictive",
    "BenchmarkResult",
    "posterior_benchmark",
    "BachDiagnostic",
    "bach_density_truncated",
    "gaussian_kernel_eigenvalues",
]

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# sinusoidal toy problem


@dataclass(frozen=True)
class ToyProblem:
    """Integrand 1 + prod_j sin(frequency * x_j) against N(0, I).

    The product of sines integrates to zero by symmetry, so the true
    integral is exactly 1 for every dimension and frequency.
    """

    d: int = 1
    frequency: float = _TWO_PI

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    @property
    def true_value(self) -> float:
        return 1.0

    def target(self) -> GaussianMeasure:
        return GaussianMeasure(np.zeros(self.d), np.ones(self.d))


def toy_integrand(problem: ToyProblem, X) -> np.ndarray:
    """Batched toy integrand values, (m, d) -> (m,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != problem.d:
        raise ValueError(f"expected dimension {problem.d}, got {X.shape[1]}")
    return 1.0 + np.prod(np.sin(problem.frequency * X), axis=1)


def default_toy_lengthscale(problem: ToyProblem) -> float:
    """Kernel lengthscale matched to the integrand's oscillation.

    Faster oscillation and higher dimension need a shorter lengthscale
    for the interpolant to track the integrand.
    """
    if problem.d > 1:
        return 0.25
    if problem.frequency <= _TWO_PI * 1.5:
        return 1.0
    if problem.frequency <= _TWO_PI * 3.0:
        return 0.25
    return 0.15


# ---------------------------------------------------------------------------
# damped oscillator inverse problem


@dataclass(frozen=True)
class ODEProblem:
    """Bayesian inversion of x'' + c x' + k x = 0 (unit mass).

    Parameters theta = (initial position, initial velocity, stiffness k,
    damping c), all positive with independent lognormal priors
    (location 0, common scale).  Observations are the trajectory at
    `times` plus Gaussian noise; the quantity of interest is the
    position at the `horizon` time.
    """

    theta_true: np.ndarray = (1.0, 3.75, 2.5, 0.5)
    noise_std: float = 0.4
    times: np.ndarray | None = None
    horizon: float = 12.0
    prior_scale: float = 0.5
    observations: np.ndarray | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta_true, dtype=float)
        if theta.shape != (4,) or np.any(theta <= 0):
            raise ValueError("theta_true must be 4 positive parameters")
        # None means the default design; an explicitly empty array is a
        # data-free problem (prior-only checks)
        if self.times is None:
            times = np.linspace(0.0, 10.0, 20)
        else:
            times = np.asarray(self.times, dtype=float)
        if self.noise_std <= 0 or self.prior_scale <= 0:
            raise ValueError("noise_std and prior_scale must be positive")
        obs = self.observations
        if obs is not None:
            obs = np.asarray(obs, dtype=float)
            if obs.shape != times.shape:
                raise ValueError("observations must match times")
        object.__setattr__(self, "theta_true", theta)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "observations", obs)


def ode_solution(theta, times) -> np.ndarray:
    """Closed-form oscillator position x(t).

    Parameters
    ----------
    theta : array_like, shape (4,) or (m, 4)
        (x(0), x'(0), stiffness, damping); the regime (under-, over-, or
        critically damped) is resolved per row.
    times : scalar or array_like, shape (k,)

    Returns
    -------
    ndarray
        Shape () for single theta and scalar time, (k,) or (m,) when one
        argument is batched, (m, k) when both are.
    """
    th, single_theta = _theta_batch(theta)
    t = np.asarray(times, dtype=float)
    scalar_t = t.ndim == 0
    out = _trajectory(th, np.atleast_1d(t))
    if single_theta:
        out = out[0]
        return out[0] if scalar_t else out
    return out[:, 0] if scalar_t else out


# below this |lam| t^2 the difference (t C - S) / (2 lam) cancels, so dS/dlam
# is summed from its series; on either side the error stays below ~1e-12
_SERIES_LAM_T2 = 1e-3


def _trajectory(th, times, jacobian=False):
    """Oscillator position, each row of th in its own damping regime.

    th has shape (m, 4) and times shape (k,); returns x, shape (m, k), or
    with jacobian=True the pair (x, J) where J[i, l, :] is
    d x(times[l]) / d(x0, v0, k, c) at th[i], shape (m, k, 4).  x is the
    same either way.

    Writing lam = c^2/4 - k and w = v0 + c x0 / 2, every regime is
    x = e^{-ct/2} (x0 C + w S) with C = cos(omega t), cosh(sqrt(lam) t)
    or 1 and S = sin(omega t)/omega, sinh(sqrt(lam) t)/sqrt(lam) or t
    (under-, over- and critically damped; critical also takes a NaN
    discriminant); dC/dlam = t S / 2 and dS/dlam = (t C - S) / (2 lam),
    whose lam -> 0 limit t^3/6 is reached through its series where
    |lam| t^2 is small.  Rows are gathered by regime, and every entry is
    computed by the same operations whatever the rest of the batch holds.
    """
    t = times[None, :]  # (1, k)
    disc = th[:, 3:4] * th[:, 3:4] - 4.0 * th[:, 2:3]
    under, over = disc[:, 0] < 0, disc[:, 0] > 0
    x = np.empty((th.shape[0], times.shape[0]))
    c_t, s_t, decay = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, regime in zip((under, over, ~(under | over)), _REGIMES):
            if rows.any():
                x[rows], c_t[rows], s_t[rows], decay[rows] = regime(
                    th[rows], disc[rows], t)
    if not jacobian:
        return x

    # c_t, s_t are e^{-ct/2} C and e^{-ct/2} S; ds_t is e^{-ct/2} dS/dlam
    x0 = th[:, 0:1]
    damp = th[:, 3:4]
    w = th[:, 1:2] + 0.5 * damp * x0
    lam = 0.25 * disc
    lt2 = lam * t * t
    series = decay * t ** 3 / 6.0 * (1.0 + lt2 / 10.0 + lt2 * lt2 / 280.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ds_t = np.where(np.abs(lt2) < _SERIES_LAM_T2, series,
                        (t * c_t - s_t) / (2.0 * lam))
    dx_dlam = 0.5 * x0 * t * s_t + w * ds_t
    jac = np.stack([c_t + 0.5 * damp * s_t,
                    s_t,
                    -dx_dlam,
                    -0.5 * t * x + 0.5 * x0 * s_t + 0.5 * damp * dx_dlam],
                   axis=-1)
    return x, jac


def _underdamped(th, disc, t):
    """(x, e^{-ct/2} C, e^{-ct/2} S, e^{-ct/2}) for rows with disc < 0."""
    x0, v0, damp = th[:, 0:1], th[:, 1:2], th[:, 3:4]
    decay = np.exp(-0.5 * damp * t)
    omega = np.sqrt(-disc) / 2.0  # oscillation at sqrt(4k - c^2) / 2
    cos_u = np.cos(omega * t)
    sin_u = np.sin(omega * t)
    b_u = (v0 + 0.5 * damp * x0) / omega
    x = decay * (x0 * cos_u + b_u * sin_u)
    return x, decay * cos_u, decay * sin_u / omega, decay


def _overdamped(th, disc, t):
    """(x, e^{-ct/2} C, e^{-ct/2} S, e^{-ct/2}) for rows with disc > 0."""
    x0, v0, damp = th[:, 0:1], th[:, 1:2], th[:, 3:4]
    s = np.sqrt(disc)  # two real decay rates
    r1 = 0.5 * (-damp + s)
    r2 = 0.5 * (-damp - s)
    e1 = np.exp(r1 * t)
    e2 = np.exp(r2 * t)
    a_o = (v0 - r2 * x0) / s
    x = a_o * e1 + (x0 - a_o) * e2
    return (x, 0.5 * (e1 + e2), -e1 * np.expm1(-s * t) / s,
            np.exp(-0.5 * damp * t))


def _critical(th, disc, t):
    """(x, e^{-ct/2} C, e^{-ct/2} S, e^{-ct/2}) for rows with disc == 0 or
    NaN."""
    x0, v0, damp = th[:, 0:1], th[:, 1:2], th[:, 3:4]
    decay = np.exp(-0.5 * damp * t)  # repeated root
    x = (x0 + (v0 + 0.5 * damp * x0) * t) * decay
    return x, decay, decay * t, decay


_REGIMES = (_underdamped, _overdamped, _critical)


def generate_ode_data(problem: ODEProblem, rng: np.random.Generator) -> np.ndarray:
    """Noisy trajectory observations at the problem's times."""
    clean = ode_solution(problem.theta_true, problem.times)
    return clean + problem.noise_std * rng.standard_normal(problem.times.shape)


def with_observations(problem: ODEProblem, rng: np.random.Generator) -> ODEProblem:
    """Copy of the problem with freshly generated observations."""
    return replace(problem, observations=generate_ode_data(problem, rng))


def _theta_batch(theta) -> tuple[np.ndarray, bool]:
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    th = np.atleast_2d(th)
    if th.shape[1] != 4:
        raise ValueError("theta must have four components")
    return th, single


def ode_log_prior(problem: ODEProblem, theta) -> np.ndarray:
    """Independent lognormal log-prior; -inf off the positive orthant."""
    th, single = _theta_batch(theta)
    out = _log_prior(problem, th)
    return out[0] if single else out


def ode_log_likelihood(problem: ODEProblem, theta) -> np.ndarray:
    """Gaussian log-likelihood of the observations; 0 with no data."""
    th, single = _theta_batch(theta)
    out = _log_likelihood(problem, th)
    return out[0] if single else out


def ode_log_posterior(problem: ODEProblem, theta) -> np.ndarray:
    """Unnormalised log-posterior: log-prior + log-likelihood."""
    th, single = _theta_batch(theta)
    out = _log_posterior(problem, th)
    return out[0] if single else out


# the private helpers below take a batch _theta_batch has already checked


def _log_prior(problem: ODEProblem, th: np.ndarray) -> np.ndarray:
    s = problem.prior_scale
    out = np.full(th.shape[0], -np.inf)
    ok = np.all(th > 0, axis=1)
    if np.any(ok):
        lt = np.log(th[ok])
        out[ok] = np.sum(-lt - 0.5 * (lt / s) ** 2, axis=1) \
            - 4.0 * np.log(s * np.sqrt(2.0 * np.pi))
    return out


def _log_likelihood(problem: ODEProblem, th: np.ndarray) -> np.ndarray:
    if problem.observations is None:
        raise ValueError("problem has no observations; generate data first")
    y = problem.observations
    if y.size == 0:
        return np.zeros(th.shape[0])
    resid = y - _trajectory(th, problem.times)
    var = problem.noise_std ** 2
    return -0.5 * np.sum(resid * resid, axis=1) / var \
        - 0.5 * y.size * np.log(2.0 * np.pi * var)


def _log_posterior(problem: ODEProblem, th: np.ndarray) -> np.ndarray:
    out = _log_prior(problem, th)
    ok = np.isfinite(out)
    if np.any(ok):
        out[ok] = out[ok] + _log_likelihood(problem, th[ok])
    return out


def ode_score(problem: ODEProblem, theta) -> np.ndarray:
    """Gradient of the log-posterior, batched (m, 4) -> (m, 4).

    The prior part is analytic; the likelihood part chains the Gaussian
    residuals through the closed-form Jacobian of the trajectory in each
    damping regime.  Raises on any parameter at or below zero, where the
    posterior is not defined.
    """
    th, single = _theta_batch(theta)
    if np.any(th <= 0):
        raise ValueError("score requires strictly positive parameters")
    s = problem.prior_scale
    grad = -1.0 / th - np.log(th) / (s * s * th)

    if problem.observations is None:
        raise ValueError("problem has no observations; generate data first")
    y = problem.observations
    if y.size > 0:
        var = problem.noise_std ** 2
        traj, jac = _trajectory(th, problem.times, jacobian=True)
        grad += np.einsum("mk,mkj->mj", y - traj, jac) / var
    return grad[0] if single else grad


def ode_predictive(problem: ODEProblem, theta) -> np.ndarray:
    """Quantity of interest: position at the horizon time."""
    return ode_solution(theta, problem.horizon)


@dataclass(frozen=True)
class BenchmarkResult:
    """Long-run MCMC reference value for the predictive integral."""

    value: float
    std_error: float
    acceptance_rate: float
    chain_length: int
    burn_in: int


def check_burn_in(chain_length: int, burn_in: int) -> None:
    """Raise ValueError unless 0 < burn_in and at least 2 draws are kept."""
    if not 0 < burn_in <= chain_length - 2:
        raise ValueError("need 0 < burn_in <= chain_length - 2, so that at "
                         "least 2 draws are kept after burn-in")


# Metropolis steps whose candidate proposals one log-posterior call scores:
# a block of D steps has 2**D - 1 of them (timed on 4 to 8: 5 was fastest)
_PREFETCH_DEPTH = 5


def _log_post_psi(problem: ODEProblem, P: np.ndarray) -> np.ndarray:
    """Log-posterior of log-parameter rows, the log-Jacobian folded in.

    Row for row the bits of ode_log_posterior(problem, exp(p)) + p.sum().
    """
    return _log_posterior(problem, np.exp(P)) + P.sum(axis=1)


def posterior_benchmark(problem: ODEProblem, chain_length: int, burn_in: int,
                        rng: np.random.Generator,
                        step_scale: float = 0.25) -> BenchmarkResult:
    """Random-walk Metropolis benchmark of the predictive integral.

    The walk runs in log-parameter space (so positivity is automatic,
    with the Jacobian folded into the target), starting from the prior
    median.  Returns the post-burn-in mean of the horizon position with
    a batch-means standard error over 50 batches (below 100 kept draws,
    half as many batches as draws and at least 2).  At least 2 draws must
    be kept after burn-in, or the standard error is undefined.

    Each step draws four standard normals, then one uniform, and accepts
    the proposal state + step_scale * normals when log(uniform) is below
    the log-posterior difference.  The chain is pre-fetched (Brockwell
    2006): for a block of up to _PREFETCH_DEPTH steps, every proposal any
    path through the block could make is scored in one batched call, and
    the decisions are then walked down that tree.  The draws, the
    arithmetic and the decisions are those of a one-step-at-a-time chain,
    so the result has its bits.
    """
    check_burn_in(chain_length, burn_in)
    psi = np.zeros(4)  # log of prior median
    lp = float(_log_post_psi(problem, psi[None])[0])
    draws = np.empty((chain_length, 4))
    accepted = 0
    for start in range(0, chain_length, _PREFETCH_DEPTH):
        depth = min(_PREFETCH_DEPTH, chain_length - start)
        normals, u = np.empty((depth, 4)), np.empty(depth)
        for j in range(depth):
            rng.standard_normal(out=normals[j])
            u[j] = rng.random()  # rng.uniform()'s bits, at less cost
        # before step j the chain is in one of the first 2**j rows of
        # states; accepting step j moves it from row i to row i + 2**j,
        # which holds row i plus the step
        states = np.empty((2**depth, 4))
        states[0] = psi
        for j, step in enumerate(step_scale * normals):
            np.add(states[:2**j], step, out=states[2**j:2**(j + 1)])
        # most rows are proposals the chain never makes, and with a large
        # step_scale their sums of several steps overflow; a non-finite
        # value is a rejection either way, so no warning is raised for it
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _log_post_psi(problem, states[1:])
        # Python floats: the same IEEE arithmetic at less cost per step
        lp_all = [lp] + scores.tolist()
        path, i = [], 0
        for j, lu in enumerate(np.log(u).tolist()):
            if lu < lp_all[i + 2**j] - lp_all[i]:
                i += 2**j
                accepted += 1
            path.append(i)
        draws[start:start + depth] = states[path]
        psi, lp = states[i], lp_all[i]
    rate = accepted / chain_length
    if not 0.05 <= rate <= 0.95:
        warnings.warn(f"benchmark chain acceptance rate {rate:.3f} outside "
                      "[0.05, 0.95]; consider adjusting step_scale",
                      RuntimeWarning)
    kept = np.exp(draws[burn_in:])
    g = ode_predictive(problem, kept)
    n_batches = 50 if g.shape[0] >= 100 else max(2, g.shape[0] // 2)
    size = g.shape[0] // n_batches
    means = g[:n_batches * size].reshape(n_batches, size).mean(axis=1)
    se = float(np.std(means, ddof=1) / np.sqrt(n_batches))
    return BenchmarkResult(value=float(g.mean()), std_error=se,
                           acceptance_rate=rate, chain_length=chain_length,
                           burn_in=burn_in)


# ---------------------------------------------------------------------------
# truncated spectral density diagnostic


@dataclass(frozen=True)
class BachDiagnostic:
    """Truncated optimal sampling density for the Gaussian kernel on N(0, 1).

    lam is the regularisation weight; truncation the number of spectral
    terms (at most 120).
    """

    lam: float
    truncation: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if not 1 <= self.truncation <= 120:
            raise ValueError("truncation must be in [1, 120]")


def bach_density_truncated(diag: BachDiagnostic, x) -> np.ndarray:
    """Unnormalised truncated density values at x.

    exp(-x^2) * sum_{j < truncation} [1 / (1 + lam * 2^(j+1))]
    * H_j(sqrt(3/2) x)^2 / (2^j j!), with physicists' Hermite
    polynomials evaluated through the orthonormal recurrence and a
    running log-magnitude renormalisation so large truncations cannot
    overflow.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    y = np.atleast_1d(arr) * np.sqrt(1.5)
    log_lam = np.log(diag.lam)
    log2 = np.log(2.0)

    # orthonormal scaling: g_prev and g hold degrees k - 2 and k - 1, from
    # (g_-1, g_0) = (0, 1); log|0| = -inf makes a zero term exactly 0
    g_prev = np.zeros_like(y)
    g = np.ones_like(y)
    logscale = np.zeros_like(y)
    total = np.zeros_like(y)
    for k in range(1, diag.truncation + 1):
        log_weight = -np.logaddexp(0.0, log_lam + k * log2)
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.abs(g))
        total = total + np.exp(log_weight + 2.0 * (log_mag + logscale))
        g_next = y * g * np.sqrt(2.0 / k) - g_prev * np.sqrt((k - 1.0) / k)
        g_prev, g = g, g_next
        big = np.abs(g) > 1e100
        if np.any(big):
            shrink = np.where(big, np.abs(g), 1.0)
            g = g / shrink
            g_prev = g_prev / shrink
            logscale = logscale + np.log(shrink)
    out = np.exp(-np.atleast_1d(arr) ** 2) * total
    return float(out[0]) if scalar else out


def gaussian_kernel_eigenvalues(sigma: float, ell: float, count: int) -> np.ndarray:
    """Leading spectral weights of exp(-(x-y)^2/ell^2) against N(0, sigma^2).

    Geometric sequence sqrt(2a/A) (b/A)^j with a = 1/(4 sigma^2),
    b = 1/ell^2, A = a + b + sqrt(a^2 + 2ab); for sigma = ell = 1 this is
    (1/2)^(j+1).
    """
    if sigma <= 0 or ell <= 0:
        raise ValueError("sigma and ell must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    a = 1.0 / (4.0 * sigma * sigma)
    b = 1.0 / (ell * ell)
    big_a = a + b + np.sqrt(a * a + 2.0 * a * b)
    j = np.arange(count)
    return np.sqrt(2.0 * a / big_a) * (b / big_a) ** j
