import copy
import types
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

import kquad.smc
from kquad.smc import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_LOGNORMAL,
    RANDOM_WALK,
    BoxUniform,
    DegenerateWeightsError,
    ParticleSystem,
    ProposalPolicy,
    TemperedTarget,
    cess,
    ess,
    init_particles,
    markov_move,
    next_temperature,
    resample_multinomial,
    reweight,
    smc_step,
)

FLAT = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                      log_target=lambda X: np.zeros(X.shape[0]))


def std_normal_target():
    return TemperedTarget(
        log_ref=lambda X: np.zeros(X.shape[0]),
        log_target=lambda X: -0.5 * np.sum(X * X, axis=1),
    )


def carrying(target, states, weights, t=0.0):
    """A particle system carrying the target's densities at its states."""
    states = np.asarray(states, dtype=float)
    log_ref, log_target = target.densities(states)
    return ParticleSystem(states=states, weights=np.asarray(weights), t=t,
                          log_ref=log_ref, log_target=log_target,
                          target=target)


def system_2(w1, w2, t=0.0, target=FLAT):
    return carrying(target, [[0.0], [1.0]], [w1, w2], t)


# --- effective sample size ---


def test_ess_hand_values():
    assert ess(np.full(7, 1 / 7)) == pytest.approx(7.0, rel=1e-14)
    assert ess([1.0, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-14)
    assert ess([0.5, 0.5]) == pytest.approx(2.0, rel=1e-14)
    assert ess([0.5, 0.25, 0.25]) == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_cess_zero_increment_is_n():
    sys2 = system_2(0.3, 0.7)
    assert cess(sys2, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_cess_zero_increment_safe_outside_support():
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: np.zeros(X.shape[0]),
                            support=(np.array([-0.5]), np.array([0.5])))
    # the second particle sits outside the box
    sys2 = system_2(0.5, 0.5, target=target)
    assert cess(sys2, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_cess_analytic_two_particles():
    # incremental weights (1, 2): CESS = 2 * 1.5^2 / 2.5 = 1.8
    c = 2.0 * np.log(2.0)
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: c * X[:, 0])
    assert cess(system_2(0.5, 0.5, target=target), 0.5) \
        == pytest.approx(1.8, rel=1e-12)


def test_cess_support_mask_zeroes_particle():
    # u = (1, 0): CESS = 2 * 0.25 / 0.5 = 1
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: np.zeros(X.shape[0]),
                            support=(np.array([-0.5]), np.array([0.5])))
    assert cess(system_2(0.5, 0.5, target=target), 0.5) \
        == pytest.approx(1.0, rel=1e-12)


def test_cess_rejects_decreasing_temperature():
    with pytest.raises(ValueError):
        cess(system_2(0.5, 0.5, t=0.5), 0.25)


def test_cess_rejects_temperature_above_one():
    with pytest.raises(ValueError):
        cess(system_2(0.5, 0.5, t=0.5), 7.0)
    assert cess(system_2(0.5, 0.5, t=0.5), 1.0) == pytest.approx(2.0)


def test_cess_degenerate_when_all_mass_outside():
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: np.zeros(X.shape[0]),
                            support=(np.array([5.0]), np.array([6.0])))
    with pytest.raises(DegenerateWeightsError):
        cess(system_2(0.5, 0.5, target=target), 0.5)


# --- adaptive temperature selection ---


def test_next_temperature_flat_ratio_hits_cap():
    sys2 = system_2(0.5, 0.5)
    assert next_temperature(sys2, rho=0.95, delta=0.25) == 0.25
    assert next_temperature(sys2, rho=0.95, delta=2.0) == 1.0


def test_next_temperature_matches_brentq_oracle():
    rng = np.random.default_rng(11)
    states = rng.uniform(-5.0, 5.0, size=(64, 1))
    weights = np.full(64, 1 / 64)
    target = std_normal_target()
    system = carrying(target, states, weights)
    rho = 0.99
    level = rho * 64

    lr = -0.5 * states[:, 0] ** 2

    def cess_direct(t):
        u = np.exp(t * lr)
        return 64 * float(weights @ u) ** 2 / float(weights @ (u * u))

    assert cess_direct(1.0) < level  # interior root exists
    root = scipy.optimize.brentq(lambda t: cess_direct(t) - level,
                                 1e-12, 1.0, xtol=1e-12)
    got = next_temperature(system, rho=rho, delta=5.0)
    assert got == pytest.approx(root, abs=2e-8)
    assert got > system.t


def cess_from_ratios_oracle(weights, log_ratio, dt, n):
    # the per-evaluation CESS next_temperature called before the parts that
    # do not depend on t were computed once per solve; kept as the oracle
    a = dt * log_ratio if dt > 0.0 else np.zeros_like(log_ratio)
    finite = np.isfinite(a)
    if not np.any(finite & (weights > 0)):
        raise DegenerateWeightsError("no particle carries weight after increment")
    m = np.max(a[finite]) if np.any(finite) else 0.0
    u = np.where(finite, np.exp(a - m), 0.0)
    num = float(np.sum(weights * u)) ** 2
    den = float(np.sum(weights * u * u))
    if den == 0.0:
        raise DegenerateWeightsError("incremental weights all vanished")
    return n * num / den


def next_temperature_oracle(system, log_ratio, rho, delta):
    n = system.n_particles
    level = rho * n

    def g(t):
        return cess_from_ratios_oracle(system.weights, log_ratio,
                                       t - system.t, n)

    if g(1.0) >= level:
        solved = 1.0
    else:
        lo, hi = system.t, 1.0
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if g(mid) >= level:
                lo = mid
            else:
                hi = mid
        solved = 0.5 * (lo + hi)
    return min(system.t + delta, solved)


def boxed_target_with_holes():
    # -inf log-ratios both outside the support box and inside it (x_1 > 2)
    def log_target(X):
        out = -0.5 * np.sum((X - 0.7) ** 2, axis=1) / 0.3
        return np.where(X[:, 1] > 2.0, -np.inf, out)
    return TemperedTarget(log_ref=lambda X: -0.5 * np.sum(X * X, axis=1) / 4.0,
                          log_target=log_target,
                          support=(np.full(2, -3.0), np.full(2, 3.0)))


def random_system(rng, target):
    n = int(rng.integers(20, 300))
    states = rng.normal(0.0, 2.0, size=(n, 2))
    weights = rng.exponential(size=n)
    weights[rng.uniform(size=n) < 0.2] = 0.0
    weights /= weights.sum()
    t = float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
    return carrying(target, states, weights, t)


def oracle_log_ratio(system, target):
    log_ref, log_target = target.densities(system.states)
    inside = target.in_support(system.states)
    lr = np.full(system.n_particles, -np.inf)
    lr[inside] = log_target[inside] - log_ref[inside]
    return lr


def test_next_temperature_and_cess_match_per_call_oracle():
    target = boxed_target_with_holes()
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(60):
        system = random_system(rng, target)
        lr = oracle_log_ratio(system, target)
        assert np.any(np.isneginf(lr)) and np.any(system.weights == 0.0)
        rho = float(rng.choice([0.5, 0.9, 0.99]))
        delta = float(rng.choice([0.05, 1.0]))
        got = next_temperature(system, rho, delta)
        assert got == next_temperature_oracle(system, lr, rho, delta)
        solved += got < min(system.t + delta, 1.0)
        for t in (system.t, 0.5 * (system.t + got), got, 1.0):
            assert cess(system, t) == cess_from_ratios_oracle(
                system.weights, lr, t - system.t, system.n_particles)
    assert solved >= 10  # interior roots, not only caps


def test_next_temperature_degenerate_like_per_call_oracle():
    target = boxed_target_with_holes()
    # every weighted particle sits where the ratio is -inf
    states = np.array([[5.0, 0.0], [0.0, 2.5], [0.0, 0.0]])
    system = carrying(target, states, [0.5, 0.5, 0.0], t=0.2)
    lr = oracle_log_ratio(system, target)
    with pytest.raises(DegenerateWeightsError):
        next_temperature_oracle(system, lr, 0.9, 0.1)
    with pytest.raises(DegenerateWeightsError):
        next_temperature(system, 0.9, 0.1)
    assert cess(system, 0.2) == cess_from_ratios_oracle(
        system.weights, lr, 0.0, 3)


def test_next_temperature_validation():
    sys2 = system_2(0.5, 0.5)
    with pytest.raises(ValueError):
        next_temperature(sys2, rho=0.0, delta=0.1)
    with pytest.raises(ValueError):
        next_temperature(sys2, rho=1.0, delta=0.1)
    with pytest.raises(ValueError):
        next_temperature(sys2, rho=0.9, delta=0.0)


# --- reweighting ---


def test_reweight_frozen_third_two_thirds():
    # equal weights times incremental weights (1, 2) -> (1/3, 2/3)
    c = 2.0 * np.log(2.0)
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: c * X[:, 0])
    out = reweight(system_2(0.5, 0.5, target=target), 0.5)
    assert out.t == 0.5
    assert out.weights == pytest.approx([1 / 3, 2 / 3], rel=1e-12)
    assert np.array_equal(out.states, np.array([[0.0], [1.0]]))


def test_reweight_zero_increment_keeps_weights():
    sys2 = system_2(0.3, 0.7, t=0.4)
    out = reweight(sys2, 0.4)
    assert out.t == 0.4
    assert np.allclose(out.weights, [0.3, 0.7], atol=1e-15)


def test_reweight_support_mask():
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: np.zeros(X.shape[0]),
                            support=(np.array([-0.5]), np.array([0.5])))
    out = reweight(system_2(0.5, 0.5, target=target), 0.5)
    assert out.weights == pytest.approx([1.0, 0.0], abs=1e-15)


def test_reweight_degenerate_and_decreasing():
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: np.zeros(X.shape[0]),
                            support=(np.array([5.0]), np.array([6.0])))
    with pytest.raises(DegenerateWeightsError):
        reweight(system_2(0.5, 0.5, target=target), 0.5)
    with pytest.raises(ValueError):
        reweight(system_2(0.5, 0.5, t=0.5), 0.2)


# --- resampling ---


def test_resample_equal_weights_and_determinism():
    rng = np.random.default_rng(3)
    sys2 = system_2(0.9, 0.1, t=0.3)
    out = resample_multinomial(sys2, rng)
    assert out.t == 0.3
    assert np.array_equal(out.weights, np.full(2, 0.5))
    again = resample_multinomial(sys2, np.random.default_rng(3))
    assert np.array_equal(out.states,
                          resample_multinomial(sys2, np.random.default_rng(3)).states)
    assert np.array_equal(out.states, again.states)


def test_resample_frequencies_chi2():
    # 4 distinct state values with total masses (0.1, 0.2, 0.3, 0.4)
    values = np.repeat([0.0, 1.0, 2.0, 3.0], 1000)[:, None]
    weights = np.repeat([0.1, 0.2, 0.3, 0.4], 1000) / 1000.0
    system = carrying(FLAT, values, weights)
    out = resample_multinomial(system, np.random.default_rng(17))
    counts = np.array([(out.states[:, 0] == v).sum() for v in (0.0, 1.0, 2.0, 3.0)])
    expected = 4000 * np.array([0.1, 0.2, 0.3, 0.4])
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 16.27  # 0.001 quantile, 3 degrees of freedom


# --- Markov rejuvenation ---


def test_markov_move_flat_target_accepts_all():
    rng = np.random.default_rng(5)
    states = np.arange(6, dtype=float).reshape(3, 2)
    system = carrying(FLAT, states, np.full(3, 1 / 3))
    policy = ProposalPolicy(kind=RANDOM_WALK, rw_scale=0.7)
    out = markov_move(system, policy, rng)

    replay = np.random.default_rng(5)
    noise = replay.standard_normal((3, 2))
    replay.uniform(size=3)
    assert np.array_equal(out.states, states + 0.7 * noise)
    assert np.array_equal(out.weights, system.weights)
    assert out.t == 0.0


def test_markov_move_replay_accept_pattern():
    rng = np.random.default_rng(42)
    states = np.array([[0.0], [2.0], [-3.0], [0.5]])
    target = std_normal_target()
    system = carrying(target, states, np.full(4, 0.25), t=1.0)
    policy = ProposalPolicy(kind=RANDOM_WALK, rw_scale=1.5)
    out = markov_move(system, policy, rng)

    replay = np.random.default_rng(42)
    proposals = states + 1.5 * replay.standard_normal((4, 1))
    u = replay.uniform(size=4)
    log_r = -0.5 * proposals[:, 0] ** 2 + 0.5 * states[:, 0] ** 2
    accept = np.log(u) < log_r
    expected = np.where(accept[:, None], proposals, states)
    assert np.array_equal(out.states, expected)
    assert accept.any() and not accept.all()  # the pattern is non-trivial


def test_markov_move_preserves_standard_normal():
    rng = np.random.default_rng(7)
    states = rng.standard_normal((2000, 1))
    target = std_normal_target()
    system = carrying(target, states, np.full(2000, 5e-4), t=1.0)
    out = markov_move(system, ProposalPolicy(kind=RANDOM_WALK, rw_scale=1.0),
                      rng, sweeps=5)
    assert not np.array_equal(out.states, states)
    pvalue = scipy.stats.kstest(out.states[:, 0], "norm").pvalue
    assert pvalue > 0.01


def test_markov_move_respects_support_box():
    rng = np.random.default_rng(21)
    target = TemperedTarget(log_ref=lambda X: np.zeros(X.shape[0]),
                            log_target=lambda X: np.zeros(X.shape[0]),
                            support=(np.array([-1.0]), np.array([1.0])))
    states = rng.uniform(-1.0, 1.0, size=(200, 1))
    system = carrying(target, states, np.full(200, 1 / 200), t=0.5)
    out = markov_move(system, ProposalPolicy(kind=RANDOM_WALK, rw_scale=3.0),
                      rng, sweeps=3)
    assert np.all((out.states >= -1.0) & (out.states <= 1.0))
    assert not np.array_equal(out.states, states)


def test_markov_move_lognormal_requires_positive_states():
    system = carrying(FLAT, [[1.0], [-1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        markov_move(system, ProposalPolicy(kind=ADAPTIVE_LOGNORMAL),
                    np.random.default_rng(0))


def test_markov_move_sweeps_validation():
    with pytest.raises(ValueError):
        markov_move(system_2(0.5, 0.5), ProposalPolicy(kind=RANDOM_WALK),
                    np.random.default_rng(0), sweeps=0)


# --- full tempering step ---


def test_smc_step_skips_resample_when_ess_high():
    states = np.arange(8, dtype=float).reshape(4, 2)
    system = carrying(FLAT, states, np.full(4, 0.25))
    policy = ProposalPolicy(kind=RANDOM_WALK, rw_scale=0.5)
    out = smc_step(system, 0.3, rho=0.95, policy=policy,
                   rng=np.random.default_rng(9))
    expected = markov_move(reweight(system, 0.3), policy,
                           np.random.default_rng(9))
    assert out.t == 0.3
    assert np.array_equal(out.states, expected.states)
    assert np.array_equal(out.weights, np.full(4, 0.25))


def test_smc_step_resamples_when_ess_low():
    system = system_2(0.999, 0.001)
    policy = ProposalPolicy(kind=RANDOM_WALK, rw_scale=0.5)
    out = smc_step(system, 0.5, rho=0.95, policy=policy,
                   rng=np.random.default_rng(13))

    replay = np.random.default_rng(13)
    idx = replay.choice(2, size=2, p=np.array([0.999, 0.001]))
    resampled = np.array([[0.0], [1.0]])[idx]
    noise = replay.standard_normal((2, 1))
    replay.uniform(size=2)
    assert np.array_equal(out.states, resampled + 0.5 * noise)
    assert np.array_equal(out.weights, np.full(2, 0.5))


@pytest.mark.parametrize("kind", [RANDOM_WALK, ADAPTIVE_GAUSSIAN])
def test_carried_densities_match_fresh_evaluation(kind):
    # the reference draw is wider than the support box, so some carried
    # values start at -inf, and the moves propose states outside the box
    target = TemperedTarget(
        log_ref=lambda X: -0.125 * np.sum(X * X, axis=1),
        log_target=lambda X: -2.0 * np.sum((X - 0.5) ** 2, axis=1),
        support=(np.array([-1.5, -1.5]), np.array([1.5, 1.5])))
    rng = np.random.default_rng(8)
    box = BoxUniform(lower=[-2.0, -2.0], upper=[2.0, 2.0])
    system = init_particles(box, 60, rng, target)
    assert np.isneginf(system.log_target).any()
    resampled = []
    policy = ProposalPolicy(kind=kind, rw_scale=1.0)
    for t_next in (0.02, 0.05, 0.5, 0.55, 1.0):
        # the same step from a copy whose densities are evaluated afresh
        # must land on the same particles
        fresh = carrying(target, system.states, system.weights, system.t)
        replay = smc_step(fresh, t_next, rho=0.8, policy=policy,
                          rng=copy.deepcopy(rng), sweeps=2)
        system = smc_step(system, t_next, rho=0.8, policy=policy,
                          rng=rng, sweeps=2)
        assert np.array_equal(system.states, replay.states)
        assert np.array_equal(system.weights, replay.weights)
        resampled.append(bool(np.all(system.weights == 1 / 60)))
        fresh_ref, fresh_target = target.densities(system.states)
        assert system.log_ref.tobytes() == fresh_ref.tobytes()
        assert system.log_target.tobytes() == fresh_target.tobytes()
    assert True in resampled and False in resampled


# The masked ratio, tempered density and move of systems that did not carry
# their target: each re-derived the support box from a separate target
# argument.  Kept as oracles for the carried values.


def masked_log_ratio_oracle(system, target):
    inside = target.in_support(system.states)
    out = np.full(inside.shape[0], -np.inf)
    out[inside] = system.log_target[inside] - system.log_ref[inside]
    return out


def masked_log_tempered_oracle(inside, log_ref, log_target, t):
    out = np.full(inside.shape[0], -np.inf)
    vals = 0.0
    if t < 1.0:
        vals = vals + (1.0 - t) * log_ref[inside]
    if t > 0.0:
        vals = vals + t * log_target[inside]
    out[inside] = vals
    return out


def masked_reweight_oracle(system, target, t_next):
    lr = masked_log_ratio_oracle(system, target)
    with np.errstate(divide="ignore"):
        logw = np.where(system.weights > 0, np.log(system.weights), -np.inf)
    dt = t_next - system.t
    a = logw + (dt * lr if dt > 0.0 else 0.0)
    m = np.max(a[np.isfinite(a)])
    u = np.where(np.isfinite(a), np.exp(a - m), 0.0)
    return u / float(u.sum())


def masked_markov_move_oracle(system, target, policy, rng, sweeps):
    smc = kquad.smc
    states = system.states
    n, d = states.shape
    t = system.t
    log_ref, log_target = system.log_ref, system.log_target
    log_pi_cur = masked_log_tempered_oracle(target.in_support(states),
                                            log_ref, log_target, t)
    for _ in range(sweeps):
        if policy.kind == RANDOM_WALK:
            noise = rng.standard_normal((n, d))
            proposals = states + policy.rw_scale * noise
            log_q_diff = np.zeros(n)
        elif policy.kind == ADAPTIVE_GAUSSIAN:
            mu, cov = smc._weighted_mean_cov(states, system.weights)
            L = smc._proposal_factor(cov)
            noise = rng.standard_normal((n, d))
            proposals = mu + noise @ L.T
            log_q_diff = smc._mvn_logpdf(states, mu, L) \
                - smc._mvn_logpdf(proposals, mu, L)
        else:
            logs = np.log(states)
            mu, cov = smc._weighted_mean_cov(logs, system.weights)
            L = smc._proposal_factor(cov)
            noise = rng.standard_normal((n, d))
            log_props = mu + noise @ L.T
            proposals = np.exp(log_props)
            log_q_diff = (smc._mvn_logpdf(logs, mu, L) - logs.sum(axis=1)) \
                - (smc._mvn_logpdf(log_props, mu, L) - log_props.sum(axis=1))
        prop_ref, prop_target = target.densities(proposals)
        log_pi_prop = masked_log_tempered_oracle(
            target.in_support(proposals), prop_ref, prop_target, t)
        with np.errstate(invalid="ignore"):
            log_r = log_pi_prop - log_pi_cur + log_q_diff
        log_r = np.where(np.isneginf(log_pi_prop), -np.inf, log_r)
        u = rng.uniform(size=n)
        accept = np.log(u) < log_r
        states = np.where(accept[:, None], proposals, states)
        log_ref = np.where(accept, prop_ref, log_ref)
        log_target = np.where(accept, prop_target, log_target)
        log_pi_cur = np.where(accept, log_pi_prop, log_pi_cur)
    return states, log_ref, log_target


@pytest.mark.parametrize("kind", [RANDOM_WALK, ADAPTIVE_GAUSSIAN,
                                  ADAPTIVE_LOGNORMAL])
def test_carried_support_matches_masked_oracle(kind):
    # positive states for the lognormal proposal; the reference draw is
    # wider than the box, and the target is -inf inside it where x_1 > 2.5
    def log_target(X):
        out = -np.sum((X - 1.5) ** 2, axis=1)
        return np.where(X[:, 1] > 2.5, -np.inf, out)
    target = TemperedTarget(
        log_ref=lambda X: -0.25 * np.sum(X * X, axis=1),
        log_target=log_target,
        support=(np.array([0.5, 0.5]), np.array([3.0, 3.0])))
    box = BoxUniform(lower=[0.1, 0.1], upper=[4.0, 4.0])
    policy = ProposalPolicy(kind=kind, rw_scale=0.8)
    rng = np.random.default_rng(77)
    off_box = in_box_holes = 0
    for _ in range(8):
        n = int(rng.integers(30, 120))
        system = init_particles(box, n, rng, target)
        inside = target.in_support(system.states)
        off_box += int(np.sum(~inside))
        in_box_holes += int(np.sum(inside & np.isneginf(system.log_target)))
        rho = float(rng.choice([0.5, 0.9]))
        while system.t < 1.0:
            lr = masked_log_ratio_oracle(system, target)
            t_next = next_temperature(system, rho, 0.3)
            assert t_next == next_temperature_oracle(system, lr, rho, 0.3)
            for t in (system.t, 0.5 * (system.t + t_next), t_next):
                assert cess(system, t) == cess_from_ratios_oracle(
                    system.weights, lr, t - system.t, n)
            weighted = reweight(system, t_next)
            assert weighted.weights.tobytes() \
                == masked_reweight_oracle(system, target, t_next).tobytes()
            if ess(weighted.weights) < rho * n:
                weighted = resample_multinomial(weighted, rng)
            replay = copy.deepcopy(rng)
            system = markov_move(weighted, policy, rng, sweeps=2)
            states, log_ref, log_tgt = masked_markov_move_oracle(
                weighted, target, policy, replay, 2)
            assert system.target is target
            assert system.states.tobytes() == states.tobytes()
            assert system.log_ref.tobytes() == log_ref.tobytes()
            assert system.log_target.tobytes() == log_tgt.tobytes()
            assert system.weights.tobytes() == weighted.weights.tobytes()
    assert off_box > 0 and in_box_holes > 0


# --- construction and validation ---


def test_init_particles_replay_and_validation():
    box = BoxUniform(lower=[-1.0, 0.0], upper=[1.0, 2.0])
    target = std_normal_target()
    out = init_particles(box, 5, np.random.default_rng(31), target)
    expected = np.random.default_rng(31).uniform(box.lower, box.upper, size=(5, 2))
    assert np.array_equal(out.states, expected)
    assert np.array_equal(out.weights, np.full(5, 0.2))
    assert out.t == 0.0
    assert np.array_equal(out.log_ref, np.zeros(5))
    assert np.array_equal(out.log_target,
                          -0.5 * np.sum(expected * expected, axis=1))
    with pytest.raises(ValueError):
        init_particles(box, 0, np.random.default_rng(0), target)


def test_box_uniform_validation_and_density():
    with pytest.raises(ValueError):
        BoxUniform(lower=[0.0], upper=[0.0])
    with pytest.raises(ValueError):
        BoxUniform(lower=[0.0, 1.0], upper=[1.0])
    box = BoxUniform(lower=[0.0], upper=[10.0])
    assert box.d == 1
    vals = box.log_density(np.array([[5.0], [-1.0], [10.0]]))
    assert vals[0] == 0.0 and np.isneginf(vals[1]) and vals[2] == 0.0


def test_particle_system_validation():
    ok_states = np.zeros((2, 1))
    with pytest.raises(ValueError):
        carrying(FLAT, ok_states, [0.4, 0.4])
    with pytest.raises(ValueError):
        carrying(FLAT, ok_states, [1.5, -0.5])
    with pytest.raises(ValueError):
        carrying(FLAT, ok_states, [0.5, 0.5], t=1.5)
    with pytest.raises(ValueError):
        carrying(FLAT, ok_states, [0.5, 0.5], t=-0.1)
    with pytest.raises(ValueError):
        ParticleSystem(states=np.zeros(2), weights=np.array([0.5, 0.5]), t=0.0,
                       log_ref=np.zeros(2), log_target=np.zeros(2),
                       target=FLAT)
    with pytest.raises(ValueError):
        ParticleSystem(states=ok_states, weights=np.array([0.5, 0.5]), t=0.0,
                       log_ref=np.zeros(2), log_target=np.zeros(3),
                       target=FLAT)


def test_particle_system_requires_its_densities():
    with pytest.raises(TypeError):
        ParticleSystem(states=np.zeros((2, 1)), weights=np.array([0.5, 0.5]),
                       t=0.0)
    with pytest.raises(TypeError):
        ParticleSystem(states=np.zeros((2, 1)), weights=np.array([0.5, 0.5]),
                       t=0.0, log_ref=np.zeros(2))


def test_particle_system_requires_its_target():
    with pytest.raises(TypeError):
        ParticleSystem(states=np.zeros((2, 1)), weights=np.array([0.5, 0.5]),
                       t=0.0, log_ref=np.zeros(2), log_target=np.zeros(2))
    # reweighting, resampling and moves pass the target on
    target = std_normal_target()
    system = system_2(0.5, 0.5, target=target)
    rng = np.random.default_rng(3)
    for step in (reweight(system, 0.5), resample_multinomial(system, rng),
                 markov_move(system, ProposalPolicy(kind=RANDOM_WALK), rng),
                 smc_step(system, 0.5, 0.9, ProposalPolicy(), rng)):
        assert step.target is target


def test_proposal_policy_validation():
    with pytest.raises(ValueError):
        ProposalPolicy(kind="metropolis-hastings")
    with pytest.raises(ValueError):
        ProposalPolicy(kind=RANDOM_WALK, rw_scale=0.0)


def test_tempered_target_endpoints_skip_vanishing_factor():
    # the reference vanishes at x = 2, but the t = 1 density there is
    # finite (-2), so a move away from x = 2 is judged against it; at
    # t = 0.5 the density at x = 2 is 0, so every move into the box wins
    box = BoxUniform(lower=[-1.0], upper=[1.0])
    target = TemperedTarget(log_ref=box.log_density,
                            log_target=lambda X: -0.5 * np.sum(X * X, axis=1))
    states = np.full((200, 1), 2.0)
    weights = np.full(200, 1 / 200)
    policy = ProposalPolicy(kind=RANDOM_WALK, rw_scale=1.0)

    replay = np.random.default_rng(4)
    proposals = states + replay.standard_normal((200, 1))
    u = replay.uniform(size=200)

    out = markov_move(carrying(target, states, weights, t=1.0), policy,
                      np.random.default_rng(4))
    accept = np.log(u) < -0.5 * proposals[:, 0] ** 2 + 2.0
    assert accept.any() and not accept.all()
    assert np.array_equal(out.states,
                          np.where(accept[:, None], proposals, states))

    half = markov_move(carrying(target, states, weights, t=0.5), policy,
                       np.random.default_rng(4))
    inside = np.abs(proposals[:, 0]) <= 1.0
    assert inside.any() and not inside.all()
    assert np.array_equal(half.states,
                          np.where(inside[:, None], proposals, states))



@pytest.mark.parametrize("infos, raised", [
    ((2, 1), np.linalg.LinAlgError),  # the ridged factor fails too
    ((-3,), ValueError),  # LAPACK rejects an argument
])
def test_proposal_factor_failures_raise(monkeypatch, infos, raised):
    # OpenBLAS factors every ridged diagonal, so a stub LAPACK reports the
    # failures; only a retry with the ridged factor warns
    codes = iter(infos)
    stub = types.SimpleNamespace(
        dpotrf=lambda a, lower, clean: (np.asarray(a), next(codes)))
    monkeypatch.setattr(kquad.smc, "_lapack", lambda: stub)
    with warnings.catch_warnings(record=True) as held:
        warnings.simplefilter("always")
        with pytest.raises(raised):
            kquad.smc._proposal_factor(np.eye(2))
    assert len(held) == len(infos) - 1
