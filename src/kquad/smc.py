"""Tempered sequential Monte Carlo: reweight, resample, move.

The tempered family interpolates between a reference density pi_0 and a
target pi through pi_t = pi_0^(1-t) * pi^t on t in [0, 1].  Temperatures
are chosen adaptively so that the conditional effective sample size of
each increment stays at a fixed fraction of the particle count, with an
absolute cap on the step length.  After reweighting, particles are
multinomially resampled when the effective sample size degrades, then
rejuvenated with a Metropolis-Hastings sweep whose proposal can adapt to
the current particle population.

A ParticleSystem carries its TemperedTarget and, next to its states, the
reference and target log-densities of those states (-inf outside the
support box, which only TemperedTarget.densities checks).  The initial
system evaluates them once, reweighting and the temperature solve read
them, and a Metropolis-Hastings sweep evaluates the target only on its
proposals; accepted proposals and resampled copies take their values with
them.  Each row's log_target value must therefore depend on that row
alone, never on the other rows of the batch it was computed in.

All operations are functional: they return new ParticleSystem instances
and treat state arrays as immutable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .quadrature import _lapack, solve_lower

__all__ = [
    "BoxUniform",
    "TemperedTarget",
    "ParticleSystem",
    "ProposalPolicy",
    "ADAPTIVE_GAUSSIAN",
    "RANDOM_WALK",
    "ADAPTIVE_LOGNORMAL",
    "DegenerateWeightsError",
    "init_particles",
    "ess",
    "cess",
    "next_temperature",
    "reweight",
    "resample_multinomial",
    "markov_move",
    "smc_step",
]

ADAPTIVE_GAUSSIAN = "adaptive-gaussian-independence"
RANDOM_WALK = "random-walk-gaussian"
ADAPTIVE_LOGNORMAL = "adaptive-lognormal-independence"

_TEMP_TOL = 1e-8


class DegenerateWeightsError(RuntimeError):
    """All particle weights vanished during a reweighting step."""


@dataclass(frozen=True)
class BoxUniform:
    """Uniform reference distribution on an axis-aligned box.

    The log-density is 0 inside the box and -inf outside; the constant
    normalisation is irrelevant along the tempered path.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.any(hi <= lo):
            raise ValueError("upper must exceed lower in every coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def d(self) -> int:
        return self.lower.shape[0]

    def log_density(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        inside = np.all((X >= self.lower) & (X <= self.upper), axis=-1)
        return np.where(inside, 0.0, -np.inf)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(size, self.d))


@dataclass(frozen=True)
class TemperedTarget:
    """Geometric bridge pi_t = pi_0^(1-t) pi^t between two log-densities.

    Parameters
    ----------
    log_ref : callable
        Batched log-density of the reference, (n, d) -> (n,).
    log_target : callable
        Batched (possibly unnormalised) log-density of the target.  It
        must be row-wise: a row's value may not depend on the other rows
        of the batch, because particle systems carry the values of their
        states along the ladder instead of evaluating them again.
    support : tuple of arrays, optional
        (lower, upper) box enforced at every temperature, including t = 1.
    """

    log_ref: Callable[[np.ndarray], np.ndarray]
    log_target: Callable[[np.ndarray], np.ndarray]
    support: tuple[np.ndarray, np.ndarray] | None = None

    def in_support(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.support is None:
            return np.ones(X.shape[0], dtype=bool)
        lo, hi = self.support
        return np.all((X >= lo) & (X <= hi), axis=1)

    def densities(self, X) -> tuple[np.ndarray, np.ndarray]:
        """(log pi_0, log pi) at the rows of X; -inf outside the support box.

        Both callables see only the rows inside the box, in one batch each.
        """
        X = np.asarray(X, dtype=float)
        mask = self.in_support(X)
        log_ref = np.full(X.shape[0], -np.inf)
        log_target = np.full(X.shape[0], -np.inf)
        if np.any(mask):
            Xin = X[mask]
            log_ref[mask] = self.log_ref(Xin)
            log_target[mask] = self.log_target(Xin)
        return log_ref, log_target


def _log_ratio(system: ParticleSystem) -> np.ndarray:
    """log pi - log pi_0 at the states; nan outside the box (-inf - -inf)."""
    with np.errstate(invalid="ignore"):
        return system.log_target - system.log_ref


def _log_tempered(log_ref, log_target, t: float) -> np.ndarray:
    """log pi_t up to a constant; -inf outside the support box."""
    # endpoint temperatures skip a factor entirely so that a
    # vanishing density on the other side cannot produce 0 * inf
    vals = 0.0
    if t < 1.0:
        vals = vals + (1.0 - t) * log_ref
    if t > 0.0:
        vals = vals + t * log_target
    return vals


@dataclass(frozen=True)
class ParticleSystem:
    """Weighted particles at a temperature: states (N, d), weights (N,).

    log_ref and log_target are the reference and target log-densities of
    the states (N,), -inf outside the support box, as target.densities
    returns them; target is the TemperedTarget the system is reweighted
    and moved with.
    """

    states: np.ndarray
    weights: np.ndarray
    t: float
    log_ref: np.ndarray = field(compare=False, repr=False)
    log_target: np.ndarray = field(compare=False, repr=False)
    target: TemperedTarget = field(compare=False, repr=False)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if states.ndim != 2 or weights.shape != (states.shape[0],):
            raise ValueError("states must be (N, d) with matching weights (N,)")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        if abs(float(weights.sum()) - 1.0) > 1e-8:
            raise ValueError("weights must sum to 1")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"temperature {self.t} outside [0, 1]")
        if not (np.shape(self.log_ref) == np.shape(self.log_target)
                == weights.shape):
            raise ValueError("carried log-densities must match weights (N,)")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class ProposalPolicy:
    """Markov-move proposal configuration.

    kind is one of ADAPTIVE_GAUSSIAN, RANDOM_WALK, ADAPTIVE_LOGNORMAL;
    rw_scale is the isotropic step size of the random walk.
    """

    kind: str = ADAPTIVE_GAUSSIAN
    rw_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (ADAPTIVE_GAUSSIAN, RANDOM_WALK, ADAPTIVE_LOGNORMAL):
            raise ValueError(f"unknown proposal kind {self.kind!r}")
        if self.rw_scale <= 0:
            raise ValueError("rw_scale must be positive")


def init_particles(reference, n_particles: int, rng: np.random.Generator,
                   target: TemperedTarget) -> ParticleSystem:
    """Equal-weight draw of n_particles from the reference, at t = 0.

    The system carries the target and its densities at the drawn states.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    states = reference.sample(rng, n_particles)
    weights = np.full(n_particles, 1.0 / n_particles)
    log_ref, log_target = target.densities(states)
    return ParticleSystem(states=states, weights=weights, t=0.0,
                          log_ref=log_ref, log_target=log_target,
                          target=target)


def ess(weights) -> float:
    """Effective sample size 1 / sum(w^2) of normalised weights."""
    w = np.asarray(weights, dtype=float)
    return 1.0 / float(np.sum(w * w))


def _cess_curve(weights, log_ratio):
    """dt -> conditional ESS of the increment dt, for 0 <= dt <= 1.

    With u_j = exp(dt * log_ratio_j - max_k dt * log_ratio_k), and u_j = 0
    where the ratio is not finite, the CESS is N (sum w_j u_j)^2 /
    sum w_j u_j^2.  What does not depend on dt is computed once: the
    finite mask, the degeneracy check and the largest finite ratio.  As
    dt <= 1, dt * log_ratio is finite exactly where log_ratio is, and the
    shift dt * max(log_ratio) equals the maximum of dt * log_ratio bit for
    bit, since rounding a product by dt > 0 is monotone.
    """
    n = weights.shape[0]
    finite = np.isfinite(log_ratio)
    nonfinite = ~finite
    masked = bool(nonfinite.any())
    degenerate = not np.any(finite & (weights > 0))
    top = 0.0 if degenerate else np.max(log_ratio[finite])

    def cess_at(dt: float) -> float:
        if dt > 0.0:
            if degenerate:
                raise DegenerateWeightsError(
                    "no particle carries weight after increment")
            u = dt * log_ratio
            u -= dt * top
            np.exp(u, out=u)
            if masked:
                u[nonfinite] = 0.0
        else:
            # dt == 0 leaves the weights untouched even where the ratio vanishes
            u = np.ones(n)
        wu = weights * u
        num = float(wu.sum()) ** 2
        wu *= u
        den = float(wu.sum())
        if den == 0.0:
            raise DegenerateWeightsError("incremental weights all vanished")
        return n * num / den

    return cess_at


def cess(system: ParticleSystem, t_candidate: float) -> float:
    """Conditional effective sample size of moving the system to t_candidate.

    With incremental weights u_j = (pi/pi_0)^(t_candidate - t) this is
    N (sum w_j u_j)^2 / sum w_j u_j^2, computed with max-subtraction in
    log space; the common scale cancels exactly.
    """
    if not system.t <= t_candidate <= 1.0:
        raise ValueError("t_candidate must lie between the temperature and 1")
    lr = _log_ratio(system)
    return _cess_curve(system.weights, lr)(t_candidate - system.t)


def next_temperature(system: ParticleSystem, rho: float,
                     delta: float) -> float:
    """Adaptive temperature: bisection solve of CESS(t) = rho*N, capped.

    Solves on [t, 1] to interval width 1e-8; if even t = 1 keeps the CESS
    above rho*N the solve returns 1.  The result is then capped at
    t + delta.  Always strictly greater than the current temperature.
    The ~28 CESS evaluations of a solve share one set of log-ratios, so
    the parts of the CESS that do not depend on t are computed once per
    solve; each evaluation is still the full-length sum over particles,
    with the bits cess() returns.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    curve = _cess_curve(system.weights, _log_ratio(system))
    level = rho * system.n_particles

    def g(t):
        return curve(t - system.t)

    if g(1.0) >= level:
        solved = 1.0
    else:
        lo, hi = system.t, 1.0
        while hi - lo > _TEMP_TOL:
            mid = 0.5 * (lo + hi)
            if g(mid) >= level:
                lo = mid
            else:
                hi = mid
        solved = 0.5 * (lo + hi)
    return min(system.t + delta, solved)


def reweight(system: ParticleSystem, t_next: float) -> ParticleSystem:
    """Multiply weights by (pi/pi_0)^(t_next - t) and renormalise.

    Performed in log space with max-subtraction.  Raises
    DegenerateWeightsError if every weight underflows to zero.
    """
    if t_next < system.t:
        raise ValueError("t_next must not decrease the temperature")
    with np.errstate(divide="ignore"):
        logw = np.log(system.weights)
    dt = t_next - system.t
    a = logw + (dt * _log_ratio(system) if dt > 0.0 else 0.0)
    finite = np.isfinite(a)
    if not finite.any():
        raise DegenerateWeightsError("all reweighted particles have zero mass")
    u = np.where(finite, np.exp(a - np.max(a[finite])), 0.0)
    total = float(u.sum())
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateWeightsError("reweighting produced a zero total mass")
    return replace(system, weights=u / total, t=t_next)


def resample_multinomial(system: ParticleSystem,
                         rng: np.random.Generator) -> ParticleSystem:
    """Multinomial resampling; returns equal-weight copies of survivors.

    Carried log-densities are gathered with the states.
    """
    n = system.n_particles
    idx = rng.choice(n, size=n, p=system.weights)
    return replace(system, states=system.states[idx],
                   weights=np.full(n, 1.0 / n), log_ref=system.log_ref[idx],
                   log_target=system.log_target[idx])


def _weighted_mean_cov(states, weights):
    mu = weights @ states
    centred = states - mu
    cov = (centred * weights[:, None]).T @ centred
    return mu, cov


def _proposal_factor(cov):
    """Cholesky factor of the proposal covariance, ridged if not PD.

    LAPACK potrf is called as scipy.linalg.cholesky(lower=True) calls it,
    so the factor has that function's bits.
    """
    dpotrf = _lapack().dpotrf
    L, info = dpotrf(cov, lower=1, clean=1)
    if info > 0:
        warnings.warn("proposal covariance not positive definite; "
                      "falling back to ridged diagonal", RuntimeWarning)
        ridged = np.diag(np.maximum(np.diag(cov), 0.0) + 1e-8)
        L, info = dpotrf(ridged, lower=1, clean=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the ridged proposal "
                "covariance is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return L


def _mvn_logpdf(X, mu, L):
    # L comes Fortran-ordered out of potrf, so this trtrs call is the one
    # scipy.linalg.solve_triangular(lower=True) makes
    half = solve_lower(L, (X - mu).T)
    return -0.5 * np.sum(half * half, axis=0) \
        - np.sum(np.log(np.diag(L))) - 0.5 * mu.shape[0] * np.log(2.0 * np.pi)


def markov_move(system: ParticleSystem, policy: ProposalPolicy,
                rng: np.random.Generator, sweeps: int = 1) -> ParticleSystem:
    """Metropolis-Hastings sweeps leaving the current tempered density invariant.

    Adaptive policies fit their proposal moments to the current weighted
    particle set at the start of each sweep and hold them fixed across the
    sweep.  Draw order per sweep is fixed (one (N, d) block of standard
    normals, then one (N,) block of uniforms) so accept decisions can be
    replayed exactly.  Weights and temperature are unchanged.  The
    system's target is evaluated only on the proposals; accepted proposals
    carry their log-densities into the returned system.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    states = system.states
    n, d = states.shape
    log_ref, log_target = system.log_ref, system.log_target
    log_pi_cur = _log_tempered(log_ref, log_target, system.t)
    lognormal = policy.kind == ADAPTIVE_LOGNORMAL
    for _ in range(sweeps):
        if policy.kind == RANDOM_WALK:
            proposals = states + policy.rw_scale * rng.standard_normal((n, d))
            log_q_diff = np.zeros(n)
        else:
            # independence sampler, Gaussian in the states or in their logs;
            # a lognormal q takes the log-Jacobian sum(log x) off each side
            if lognormal and np.any(states <= 0):
                raise ValueError("lognormal proposal requires positive states")
            cur = np.log(states) if lognormal else states
            mu, cov = _weighted_mean_cov(cur, system.weights)
            L = _proposal_factor(cov)
            drawn = mu + rng.standard_normal((n, d)) @ L.T
            proposals = np.exp(drawn) if lognormal else drawn
            jac_cur = cur.sum(axis=1) if lognormal else 0.0
            jac_prop = drawn.sum(axis=1) if lognormal else 0.0
            log_q_diff = (_mvn_logpdf(cur, mu, L) - jac_cur) \
                - (_mvn_logpdf(drawn, mu, L) - jac_prop)

        prop_ref, prop_target = system.target.densities(proposals)
        log_pi_prop = _log_tempered(prop_ref, prop_target, system.t)
        with np.errstate(invalid="ignore"):
            log_r = log_pi_prop - log_pi_cur + log_q_diff
        log_r = np.where(np.isneginf(log_pi_prop), -np.inf, log_r)
        u = rng.uniform(size=n)
        accept = np.log(u) < log_r
        states = np.where(accept[:, None], proposals, states)
        log_ref = np.where(accept, prop_ref, log_ref)
        log_target = np.where(accept, prop_target, log_target)
        log_pi_cur = np.where(accept, log_pi_prop, log_pi_cur)
    return replace(system, states=states, log_ref=log_ref,
                   log_target=log_target)


def smc_step(system: ParticleSystem, t_next: float, rho: float,
             policy: ProposalPolicy, rng: np.random.Generator,
             sweeps: int = 1) -> ParticleSystem:
    """One tempering step: reweight, resample if ESS < rho*N, then move."""
    moved = reweight(system, t_next)
    if ess(moved.weights) < rho * moved.n_particles:
        moved = resample_multinomial(moved, rng)
    return markov_move(moved, policy, rng, sweeps=sweeps)
