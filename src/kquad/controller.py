"""Adaptive control of tempered sampling for kernel quadrature.

The driver runs a tempered particle ladder and, at each temperature,
estimates the quadrature error a size-n rule built from the current
particles would achieve (a bootstrap over random subsets).  A trend test
on the recent history decides when the error has stopped improving, once
it has dropped well below its starting value; the rule is then fitted on
particles from the best recent temperature, and only those n states are
ever passed to the integrand.

The kernel-learning variant additionally evaluates the integrand on a
small random subset each temperature (all evaluations cached), refits
kernel parameters by a marginal-likelihood criterion (warm-started from
the previous temperature's fit), monitors the
error-times-norm product instead, and builds the final rule on every
cached evaluation point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .kernels import KernelHandle, GaussianKernel, GaussianMeasure
from .quadrature import (
    GramSingularError,
    InsufficientStatesError,
    chol_factor_with_nugget,
    dedupe,
    fit_weights,
    kq_estimate,
    kq_fit,
    row_keys,
    solve_lower,
)
from .smc import (
    ParticleSystem,
    ProposalPolicy,
    TemperedTarget,
    init_particles,
    next_temperature,
    smc_step,
)

__all__ = [
    "TraceEntry",
    "ErrorTrace",
    "EvalCache",
    "RunReport",
    "KernelFamily",
    "InsufficientStatesError",
    "gaussian_lengthscale_family",
    "trend_test",
    "select_rule_entry",
    "kern_param_fit",
    "marginal_likelihood_objective",
    "smc_kq",
    "smc_kq_kl",
    "temperature_error_profile",
]

TREND_WINDOW = 5
# the ladder stops only once the error is at most this share of its first
DROP_GUARD = 0.25
# temperatures an adaptive ladder may take before it is deemed stuck
MAX_RUNGS = 1000


@dataclass(frozen=True)
class TraceEntry:
    """One temperature of a run: (t, monitored error statistic, nugget)."""

    t: float
    error: float
    nugget: float


@dataclass
class ErrorTrace:
    """Error history along the ladder, ordered by strictly increasing t."""

    entries: list[TraceEntry] = field(default_factory=list)

    def append(self, entry: TraceEntry) -> None:
        if self.entries and entry.t <= self.entries[-1].t:
            raise ValueError("trace temperatures must strictly increase")
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def ts(self) -> np.ndarray:
        return np.asarray([e.t for e in self.entries])

    @property
    def errors(self) -> np.ndarray:
        return np.asarray([e.error for e in self.entries])


class EvalCache:
    """Bitwise-keyed cache of integrand evaluations, insertion ordered.

    A point is evaluated at most once; the number of cache entries is the
    number of integrand calls made through the cache.
    """

    def __init__(self):
        self._values: dict[bytes, float] = {}
        self._points: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._values)

    def evaluate(self, f: Callable[[np.ndarray], np.ndarray],
                 X: np.ndarray) -> np.ndarray:
        """Values of f at the rows of X, evaluating only unseen rows."""
        X = np.asarray(X, dtype=float)
        keys = row_keys(X).tolist()
        missing: dict[bytes, int] = {}  # unseen key -> its first row
        for i, k in enumerate(keys):
            if k not in self._values and k not in missing:
                missing[k] = i
        if missing:
            rows = list(missing.values())
            fresh = np.asarray(f(X[rows]), dtype=float).reshape(len(rows))
            for k, i, value in zip(missing, rows, fresh):
                self._values[k] = float(value)
                self._points.append(X[i].copy())
        return np.asarray([self._values[k] for k in keys])

    def points(self) -> np.ndarray:
        """All cached points, insertion order, shape (m, d)."""
        if not self._points:
            raise ValueError("cache is empty")
        return np.vstack(self._points)

    def values(self) -> np.ndarray:
        """Cached values in the same order as points()."""
        return np.asarray(list(self._values.values()))


@dataclass(frozen=True)
class RunReport:
    """Outcome of an adaptive run.

    total_f_evals counts distinct integrand evaluations; for the fixed
    kernel driver it equals the rule size exactly.
    """

    estimate: float
    t_star: float
    n_quadrature_points: int
    total_f_evals: int
    trace: ErrorTrace
    seed: int
    kernel_params_final: np.ndarray | None = None
    final_nugget: float = 0.0


def _unique_states(states: np.ndarray, n: int) -> np.ndarray:
    """Unique rows of states; InsufficientStatesError if fewer than n."""
    unique = dedupe(states)
    if unique.shape[0] < n:
        raise InsufficientStatesError(
            f"need {n} unique states, have {unique.shape[0]}")
    return unique


def _bootstrap_error(kernel: KernelHandle, measure: GaussianMeasure | None,
                     states: np.ndarray, n: int, m_boot: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Mean squared worst-case error over random size-n subsets.

    Returns (mean of e_n^2, max nugget used).  The Gram matrix and
    embeddings over the unique states are assembled once and sliced per
    subset.  Every index set is drawn before the first fit; the draws are
    the only use of rng here, so its stream is that of drawing each set
    just before its fit.
    """
    if n < 1:
        raise ValueError("subset size must be >= 1")
    if m_boot < 1:
        raise ValueError("m_boot must be >= 1")
    unique = _unique_states(states, n)
    m = unique.shape[0]
    K = kernel.gram(unique)
    z = kernel.embedding(measure, unique)
    e0_sq = kernel.double_integral(measure)
    subsets = [rng.choice(m, size=n, replace=False) for _ in range(m_boot)]
    total, max_nugget = 0.0, 0.0
    for idx in subsets:
        Ks = K.take(idx, 0).take(idx, 1)  # the idx-by-idx block
        _, err, nugget = fit_weights(Ks, z[idx], e0_sq)
        total += err * err
        max_nugget = max(max_nugget, nugget)
    return total / m_boot, max_nugget


def _slope(ts: np.ndarray, errs: np.ndarray) -> float:
    """Least-squares slope of errs against ts."""
    tc = ts - ts.mean()
    return float(tc @ (errs - errs.mean())) / float(tc @ tc)


def _rises(ts: np.ndarray, errs: np.ndarray) -> bool:
    k = TREND_WINDOW
    return len(errs) >= k and _slope(ts[-k:], errs[-k:]) > 0.0


def trend_test(trace: ErrorTrace) -> bool:
    """True when the recent error trend rises.

    Needs at least TREND_WINDOW entries; then fits a least-squares line
    of the monitored error against temperature over the most recent
    window and reports a strictly positive slope.
    """
    return _rises(trace.ts, trace.errors)


def _stops(ts: np.ndarray, errs: np.ndarray) -> bool:
    """The stopping rule on a trace prefix.

    The error trend rises (trend_test) after the error has dropped to at
    most DROP_GUARD times its first value, so a rise from a plateau near
    the start does not stop the ladder.
    """
    return _rises(ts, errs) and errs.min() <= DROP_GUARD * errs[0]


def select_rule_entry(trace: ErrorTrace) -> int:
    """Index of the trace entry the final rule should be built from.

    Replays the stopping rule along the trace: at the first prefix where
    the error rises after it has dropped (see DROP_GUARD), picks the
    smallest-error entry of the trailing window; if no prefix stops,
    picks the last entry.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    ts, errs = trace.ts, trace.errors
    for hi in range(TREND_WINDOW, len(trace) + 1):
        if _stops(ts[:hi], errs[:hi]):
            lo = hi - TREND_WINDOW
            return lo + int(np.argmin(errs[lo:hi]))
    return len(trace) - 1


@dataclass(frozen=True)
class KernelFamily:
    """Parametric kernel family searched over a box in log-parameter space.

    build maps a natural-scale parameter vector to a kernel; log_bounds
    is a sequence of (low, high) pairs for each log-parameter.
    """

    build: Callable[[np.ndarray], KernelHandle]
    log_bounds: Sequence[tuple[float, float]]

    def __post_init__(self):
        for lo, hi in self.log_bounds:
            if not -np.inf < lo <= hi < np.inf:
                raise ValueError("log_bounds need finite (low, high) pairs "
                                 f"with low <= high; got ({lo!r}, {hi!r})")


def gaussian_lengthscale_family(d: int = 1, low: float = 0.05,
                                high: float = 5.0,
                                isotropic: bool = True) -> KernelFamily:
    """Gaussian kernels parameterised by lengthscale(s) in [low, high].

    Raises ValueError unless 0 < low <= high, both finite.
    """
    if not 0.0 < low <= high < np.inf:
        raise ValueError("lengthscale bounds need 0 < low <= high, both "
                         f"finite; got low={low!r}, high={high!r}")
    if isotropic:
        return KernelFamily(
            build=lambda p: GaussianKernel(np.full(d, float(p[0]))),
            log_bounds=[(np.log(low), np.log(high))],
        )
    return KernelFamily(
        build=lambda p: GaussianKernel(np.asarray(p, dtype=float)),
        log_bounds=[(np.log(low), np.log(high))] * d,
    )


def _whiten(kernel: KernelHandle, points: np.ndarray, f: np.ndarray):
    """(L^-1 f, L) for the nugget Cholesky factor L of the Gram on points."""
    L, _ = chol_factor_with_nugget(kernel.gram(points))
    return solve_lower(L, f), L


def marginal_likelihood_objective(f_values, points,
                                  kernel: KernelHandle) -> float:
    """f'(K + nugget I)^-1 f + log det(K + nugget I) via Cholesky."""
    half, L = _whiten(kernel, np.asarray(points, dtype=float),
                      np.asarray(f_values, dtype=float))
    return float(half @ half) + 2.0 * float(np.sum(np.log(np.diag(L))))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 33
_LINE_TOL = 1e-3  # width at which a golden-section search stops
_CYCLES = 3  # coordinate-descent passes over two or more parameters


def _safe_eval(fun, x):
    try:
        v = fun(x)
    except GramSingularError:
        return np.inf
    return v if np.isfinite(v) else np.inf


def _golden_section(fun, lo, hi):
    """Golden-section minimiser on [lo, hi]; non-finite values -> +inf."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = _safe_eval(fun, x1), _safe_eval(fun, x2)
    while b - a > _LINE_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = _safe_eval(fun, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = _safe_eval(fun, x2)
    mid = 0.5 * (a + b)
    return mid, _safe_eval(fun, mid)


def _line_minimize(fun, lo, hi, start=None):
    """Coarse scan for the dominant basin, then golden-section refinement.

    The marginal-likelihood objective is often multimodal across a wide
    parameter range, so a unimodal search over [lo, hi] can settle in the
    wrong basin; the scan brackets the best coarse point first.  Given a
    start strictly inside the box, the bracket one scan spacing either
    side of it (clipped to the box) is tried first, and the scan runs
    only when the start is not strictly below both bracket ends.
    """
    if start is not None and lo < start < hi:
        h = (hi - lo) / (_SCAN_POINTS - 1)
        a, b = max(start - h, lo), min(start + h, hi)
        val = _safe_eval(fun, start)
        if val < _safe_eval(fun, a) and val < _safe_eval(fun, b):
            return _refine(fun, a, b, float(start), val)
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = [_safe_eval(fun, g) for g in grid]
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, _SCAN_POINTS - 1)]
    return _refine(fun, a, b, float(grid[i]), vals[i])


def _refine(fun, a, b, x, val):
    """Golden section on [a, b]; keeps (x, val) unless it finds lower."""
    best, best_val = _golden_section(fun, a, b)
    if val < best_val:
        return x, val
    return best, best_val


def kern_param_fit(f_values, points, family: KernelFamily,
                   start=None) -> np.ndarray:
    """Marginal-likelihood kernel parameters on the given evaluations.

    Minimises f'(K+nugget I)^-1 f + log det(K+nugget I) over the family's
    log-parameter box by cyclic coordinate descent with scanned line
    searches; one pass for a single parameter, whose line search does not
    depend on a previous pass.  start, natural-scale parameters such as
    a previous fit's, warm-starts the descent: each line search first
    brackets the current value one scan spacing either side and scans
    the whole box only when that bracket holds no interior minimum.
    Without start the descent starts at the box centre and every line
    search scans.  Returns natural-scale parameters.
    """
    f = np.asarray(f_values, dtype=float)
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if f.shape[0] != X.shape[0] or X.shape[0] < 2:
        raise ValueError("need matching f_values and at least two points")
    if not np.all(np.isfinite(f)):
        raise ValueError("f_values must be finite; non-finite at indices "
                         f"{np.flatnonzero(~np.isfinite(f)).tolist()}")
    bounds = list(family.log_bounds)
    if np.allclose(f, 0.0):
        warnings.warn("integrand values are identically zero; kernel fit is "
                      "driven by the determinant term only", RuntimeWarning)

    def objective(log_p):
        kernel = family.build(np.exp(log_p))
        return marginal_likelihood_objective(f, X, kernel)

    if start is None:
        log_p = np.asarray([0.5 * (lo + hi) for lo, hi in bounds])
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (len(bounds),) or not np.all(start > 0) \
                or not np.all(np.isfinite(start)):
            raise ValueError(f"start must hold {len(bounds)} finite positive "
                             f"parameters, got {start.tolist()}")
        log_p = np.log(start)
    current = np.inf
    for _ in range(_CYCLES if len(bounds) > 1 else 1):
        for j, (lo, hi) in enumerate(bounds):
            def line(v, j=j):
                trial = log_p.copy()
                trial[j] = v
                return objective(trial)
            best, val = _line_minimize(
                line, lo, hi, None if start is None else log_p[j])
            if np.isfinite(val):
                log_p[j] = best
                current = val
    if not np.isfinite(current):
        raise np.linalg.LinAlgError("no parameter in the box gave a finite "
                                    "marginal-likelihood objective")
    return np.exp(log_p)


def _kl_error(kernel: KernelHandle, measure: GaussianMeasure | None,
              states: np.ndarray, f_vals: np.ndarray, n: int, m_boot: int,
              rng: np.random.Generator) -> tuple[float, float]:
    """Bootstrap error times sqrt(f' K^-1 f) on the first n rows of states.

    f_vals are the integrand values at those rows, so the statistic
    scales linearly with the integrand.  Returns (statistic, max nugget
    of the bootstrap).
    """
    mean_sq, max_nugget = _bootstrap_error(kernel, measure, states, n, m_boot,
                                           rng)
    half, _ = _whiten(kernel, states[:n], f_vals)
    norm_sq = float(half @ half)
    return float(np.sqrt(mean_sq) * np.sqrt(max(norm_sq, 0.0))), max_nugget


def _run_ladder(log_target, reference, support, rho: float, delta: float,
                n_particles: int, proposal: ProposalPolicy,
                rng: np.random.Generator, sweeps: int, record,
                terminate_early: bool, ladder=None):
    """The ladder loop: record(system) -> TraceEntry at each temperature.

    Tempers from the reference towards log_target within support.
    Temperatures come from next_temperature, or from ladder[1:] when a
    fixed ladder is given; an adaptive ladder longer than MAX_RUNGS
    raises RuntimeError.  Returns (trace, snapshots); snapshots[i] is
    the particle system the i-th trace entry was computed from.
    """
    target = TemperedTarget(log_ref=reference.log_density,
                            log_target=log_target, support=support)
    system = init_particles(reference, n_particles, rng, target)
    trace = ErrorTrace()
    snapshots = [system]
    trace.append(record(system))
    while system.t < 1.0 and (ladder is None or len(trace) < len(ladder)):
        if terminate_early and _stops(trace.ts, trace.errors):
            break
        if ladder is None:
            if len(trace) > MAX_RUNGS:
                raise RuntimeError(
                    f"temperature ladder exceeded {MAX_RUNGS} steps")
            t_next = next_temperature(system, rho, delta)
        else:
            t_next = float(ladder[len(trace)])
        system = smc_step(system, t_next, rho, proposal, rng, sweeps=sweeps)
        snapshots.append(system)
        trace.append(record(system))
    return trace, snapshots


def _error_record(kernel: KernelHandle, measure: GaussianMeasure | None,
                  n: int, m_boot: int, rng: np.random.Generator):
    """record(system) -> TraceEntry of the bootstrap error statistic."""
    def record(system: ParticleSystem) -> TraceEntry:
        mean_sq, max_nugget = _bootstrap_error(
            kernel, measure, system.states, n, m_boot, rng)
        return TraceEntry(t=system.t, error=float(np.sqrt(mean_sq)),
                          nugget=max_nugget)
    return record


def smc_kq(f: Callable[[np.ndarray], np.ndarray],
           log_target: Callable[[np.ndarray], np.ndarray],
           kernel: KernelHandle, reference, *,
           measure: GaussianMeasure | None = None,
           support: tuple | None = None,
           n: int, n_particles: int, rho: float = 0.95, delta: float = 0.1,
           m_boot: int = 20,
           proposal: ProposalPolicy = ProposalPolicy(),
           sweeps: int = 1, terminate_early: bool = True,
           seed: int = 0) -> RunReport:
    """Adaptively tempered kernel quadrature with a fixed kernel.

    Runs the tempered ladder from the reference towards the target,
    monitoring the bootstrap error statistic of a prospective size-n rule
    at each temperature.  The ladder does not stop before the statistic
    has dropped to DROP_GUARD times its t = 0 value; once it has, and
    the trend test fires, the rule is built from n unique states of the
    best recent temperature.  The integrand is evaluated only on those
    n points.  If the ladder reaches t = 1 without terminating, the
    t = 1 particles are used, which recovers standard kernel quadrature
    under target sampling.

    Parameters
    ----------
    f : callable
        Batched integrand, (m, d) -> (m,).
    log_target : callable
        Batched log-density of the target (unnormalised is fine when the
        kernel is a Stein kernel).  Row-wise: a row's value must not
        depend on the other rows of the batch, because the particles
        carry their values along the ladder; the target is evaluated once
        on the initial particles and then only on each move's proposals.
    kernel : GaussianKernel or SteinKernel
    reference : object with sample(rng, size) and log_density(X)
    measure : GaussianMeasure, optional
        Integration measure for Gaussian kernels; ignored by Stein kernels.
    support : (lower, upper), optional
        Box constraint enforced along the whole path.
    n : int
        Quadrature rule size (also the exact number of integrand calls).
    n_particles : int
        Particle count; must be at least 2 n.
    """
    if n_particles < 2 * n:
        raise ValueError("n_particles must be at least 2 * n")
    rng = np.random.default_rng(seed)
    record = _error_record(kernel, measure, n, m_boot, rng)
    trace, snapshots = _run_ladder(log_target, reference, support, rho, delta,
                                   n_particles, proposal, rng, sweeps, record,
                                   terminate_early)
    # a forced full ladder is the fixed-sampling baseline: use the t=1 rule
    chosen = select_rule_entry(trace) if terminate_early else len(trace) - 1
    unique = _unique_states(snapshots[chosen].states, n)
    nodes = unique[rng.choice(unique.shape[0], size=n, replace=False)]
    rule = kq_fit(kernel, measure, nodes)
    estimate = kq_estimate(rule, f(nodes))
    return RunReport(estimate=estimate, t_star=trace.entries[chosen].t,
                     n_quadrature_points=n, total_f_evals=n, trace=trace,
                     seed=seed, final_nugget=rule.nugget_used)


def smc_kq_kl(f: Callable[[np.ndarray], np.ndarray],
              log_target: Callable[[np.ndarray], np.ndarray],
              family: KernelFamily, reference, *,
              measure: GaussianMeasure | None = None,
              support: tuple | None = None,
              n: int, n_particles: int, rho: float = 0.95, delta: float = 0.1,
              m_boot: int = 20,
              proposal: ProposalPolicy = ProposalPolicy(),
              sweeps: int = 1, terminate_early: bool = True,
              seed: int = 0) -> RunReport:
    """Adaptively tempered kernel quadrature with kernel learning.

    Like the fixed-kernel driver, but each temperature draws a fresh
    size-n subset of the unique particle states, evaluates the integrand
    there through a cache, refits kernel parameters on it by marginal
    likelihood, and monitors the bootstrap error statistic times the
    interpolant norm.  The first refit scans the family's whole box;
    each later one is warm-started from the previous temperature's
    parameters and scans only when their bracket holds no minimum.  The final rule is fitted on every cached
    evaluation point with the parameters from the selected temperature,
    so no integrand evaluation is wasted.

    log_target must be row-wise, as for smc_kq: a row's value must not
    depend on the other rows of the batch, because the particles carry
    their values along the ladder.
    """
    if n_particles < 2 * n:
        raise ValueError("n_particles must be at least 2 * n")
    rng = np.random.default_rng(seed)
    cache = EvalCache()
    entry_params = []  # the kernel parameters fitted at each rung

    def record(system: ParticleSystem) -> TraceEntry:
        unique = _unique_states(system.states, n)
        idx = rng.choice(unique.shape[0], size=n, replace=False)
        subset = unique[idx]
        f_sub = cache.evaluate(f, subset)
        params = kern_param_fit(f_sub, subset, family,
                                start=entry_params[-1] if entry_params
                                else None)
        entry_params.append(params)
        kernel = family.build(params)
        rest = np.delete(unique, idx, axis=0)
        stat, max_nugget = _kl_error(kernel, measure,
                                     np.vstack([subset, rest]), f_sub, n,
                                     m_boot, rng)
        return TraceEntry(t=system.t, error=stat, nugget=max_nugget)

    trace, _ = _run_ladder(log_target, reference, support, rho, delta,
                           n_particles, proposal, rng, sweeps, record,
                           terminate_early)
    chosen = select_rule_entry(trace) if terminate_early else len(trace) - 1
    params = entry_params[chosen]
    kernel = family.build(params)
    points = cache.points()
    rule = kq_fit(kernel, measure, points)
    estimate = kq_estimate(rule, cache.values())
    return RunReport(estimate=estimate, t_star=trace.entries[chosen].t,
                     n_quadrature_points=points.shape[0],
                     total_f_evals=len(cache), trace=trace, seed=seed,
                     kernel_params_final=np.asarray(params),
                     final_nugget=rule.nugget_used)


def temperature_error_profile(log_target: Callable[[np.ndarray], np.ndarray],
                              kernel: KernelHandle, reference, ladder, *,
                              measure: GaussianMeasure | None = None,
                              support: tuple | None = None,
                              n: int, n_particles: int, rho: float = 0.95,
                              m_boot: int = 20,
                              proposal: ProposalPolicy = ProposalPolicy(),
                              sweeps: int = 1, seed: int = 0):
    """Error statistic along a fixed temperature ladder.

    Runs the particle system through the given strictly increasing
    temperatures (starting at 0) and records the bootstrap error
    statistic at each.  Returns (trace, snapshots) for diagnostics such
    as locating the error-minimising temperature.
    """
    ladder = np.asarray(ladder, dtype=float)
    if ladder.ndim != 1 or ladder.size == 0 or ladder[0] != 0.0 \
            or np.any(np.diff(ladder) <= 0):
        raise ValueError("ladder must start at 0 and strictly increase")
    if ladder[-1] > 1.0:
        raise ValueError("ladder must stay within [0, 1]")
    rng = np.random.default_rng(seed)
    record = _error_record(kernel, measure, n, m_boot, rng)
    return _run_ladder(log_target, reference, support, rho, None, n_particles,
                       proposal, rng, sweeps, record, terminate_early=False,
                       ladder=ladder)
