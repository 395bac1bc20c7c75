import itertools
import math

import numpy as np
import pytest
import scipy.linalg

import kquad
import kquad.controller
from kquad.kernels import GaussianKernel, GaussianMeasure, SteinKernel
from kquad.quadrature import (
    DuplicatePointsError,
    GramSingularError,
    InsufficientStatesError,
    NuggetPolicy,
    chol_factor_with_nugget,
    dedupe,
    fit_weights,
    gaussian_inverse_cdf,
    halton_points,
    kq_estimate,
    kq_fit,
    sbq_greedy_select,
    solve_lower,
    worst_case_error,
)

K1 = GaussianKernel([1.0])
M1 = GaussianMeasure([0.0], [1.0])


def separated_points(rng, n, low=-4.0, high=4.0, gap=0.2):
    # rejection-spaced 1-d points keep the Gram comfortably nonsingular
    pts = []
    while len(pts) < n:
        x = rng.uniform(low, high)
        if all(abs(x - p) > gap for p in pts):
            pts.append(x)
    return np.asarray(pts)[:, None]


def test_single_point_rule_frozen():
    rule = kq_fit(K1, M1, [[0.0]])
    assert rule.weights.shape == (1,)
    assert rule.weights[0] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert rule.nugget_used == 0.0
    # one-point worst case: sqrt(1/sqrt(5) - 1/3)
    assert rule.worst_case_error == pytest.approx(0.33746149730987773, abs=1e-12)
    assert np.sqrt(rule.e0_sq) == pytest.approx(5 ** -0.25, abs=1e-12)


def test_empty_rule_error_is_e0():
    e = worst_case_error(np.zeros((0, 0)), np.zeros(0), np.zeros(0), 1 / np.sqrt(5))
    assert e == pytest.approx(5 ** -0.25, abs=1e-14)


def test_interpolation_exactness():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(1, 11)
        X = separated_points(rng, n)
        beta = rng.normal(size=n)
        rule = kq_fit(K1, M1, X)
        # f lies in the span of kernel sections at the nodes
        f_vals = K1.gram(X) @ beta
        exact = float(K1.embedding(M1, X) @ beta)
        assert kq_estimate(rule, f_vals) == pytest.approx(exact, abs=1e-8)


def test_error_identity_exact_weights():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.integers(2, 12)
        X = separated_points(rng, n)
        rule = kq_fit(K1, M1, X)
        assert rule.nugget_used == 0.0
        K = K1.gram(X)
        z = rule.embeddings
        lhs = rule.worst_case_error**2 + z @ np.linalg.solve(K, z)
        assert lhs == pytest.approx(rule.e0_sq, rel=1e-8)


def test_nested_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        X = separated_points(rng, 12)
        nb = rng.integers(3, 12)
        na = rng.integers(1, nb)
        big, small = X[:nb], X[:na]
        ra = kq_fit(K1, M1, small)
        rb = kq_fit(K1, M1, big)
        assert ra.nugget_used == 0.0 and rb.nugget_used == 0.0
        assert rb.worst_case_error <= ra.worst_case_error + 1e-10


def test_optimal_weights_minimize_error():
    rng = np.random.default_rng(3)
    X = separated_points(rng, 8)
    rule = kq_fit(K1, M1, X)
    K = K1.gram(X)
    z = rule.embeddings
    base = worst_case_error(K, z, rule.weights, rule.e0_sq)
    for _ in range(50):
        perturbed = rule.weights + rng.normal(scale=0.05, size=8)
        assert worst_case_error(K, z, perturbed, rule.e0_sq) >= base - 1e-12


def test_tiny_lengthscale_weights_approach_embeddings():
    k = GaussianKernel([1e-3])
    X = np.linspace(-3, 3, 7)[:, None]
    rule = kq_fit(k, M1, X)
    z = k.embedding(M1, X)
    assert np.max(np.abs(rule.weights - z)) <= 1e-6


def test_worst_case_error_negative_clamp():
    # slight negative square from rounding is clamped to zero, not NaN
    e = worst_case_error(np.eye(1), np.ones(1), np.ones(1), 1.0 - 1e-12)
    assert e == 0.0


def test_worst_case_error_matches_numpy_scalar_form():
    # the form in numpy scalars, as worst_case_error computed it before it
    # summed in Python floats; kept as the oracle
    rng = np.random.default_rng(8)
    for n, scale, _ in itertools.product((1, 5, 30, 75), (1e-6, 1.0, 1e3),
                                         range(5)):
        A = rng.normal(size=(n, n))
        K = (A @ A.T) * scale
        z = rng.normal(size=n) * scale
        w = rng.normal(size=n)
        # a positive form of varied size relative to its terms
        e0_sq = abs(float(w @ K @ w)) * rng.uniform(0.1, 10.0) \
            + 2.0 * abs(float(w @ z))
        sq = float(w @ K @ w - 2.0 * (w @ z) + e0_sq)
        want = float(np.sqrt(max(sq, 0.0)))
        assert worst_case_error(K, z, w, e0_sq) == want


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePointsError):
        kq_fit(K1, M1, [[0.5], [0.5]])


def test_dedupe_bitwise_first_occurrence():
    a = 1.0
    b = np.nextafter(1.0, 2.0)
    X = np.array([[a], [b], [a], [2.0], [b]])
    out = dedupe(X)
    assert out.shape == (3, 1)
    assert out[0, 0] == a and out[1, 0] == b and out[2, 0] == 2.0


def dedupe_dict_oracle(X):
    # the dict-of-row-bytes dedupe that np.unique on row keys replaced
    seen = {}
    for i in range(X.shape[0]):
        seen.setdefault(X[i].tobytes(), i)
    return X[np.fromiter(seen.values(), dtype=int)]


@pytest.mark.parametrize("d", [1, 3])
def test_dedupe_matches_dict_oracle(d):
    rng = np.random.default_rng(d)
    pool = rng.normal(size=(12, d))
    pool[0] = 0.0
    pool[1] = -0.0  # bitwise distinct from the +0.0 row
    pool[2, 0] = -0.0
    pool[3] = pool[2]
    pool[3, 0] = 0.0
    X = pool[rng.integers(0, 12, size=200)]
    out = dedupe(X)
    assert out.tobytes() == dedupe_dict_oracle(X).tobytes()
    assert out.shape == (len({row.tobytes() for row in X}), d)


def test_dedupe_keeps_signed_zero_rows_apart():
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
    out = dedupe(X)
    assert out.shape == (2, 2)
    assert not np.signbit(out[0, 0]) and np.signbit(out[1, 0])


def test_chol_factor_identity_no_jitter():
    L, jitter = chol_factor_with_nugget(np.eye(4))
    assert jitter == 0.0
    assert np.allclose(L, np.eye(4))


def test_chol_factor_escalates_on_near_singular():
    X = np.array([[0.0], [1e-9]])
    K = K1.gram(X)
    L, jitter = chol_factor_with_nugget(K)
    assert jitter > 0.0
    assert np.all(np.isfinite(L))


def grams_failing_at_zero_jitter():
    # (K, z, e0_sq) of one kernel and measure, so worst-case errors are >= 0
    near = np.array([[0.0], [1e-9]])
    toy = np.random.default_rng(0).normal(0.0, 8.0, size=(75, 1))
    # a jittered copy must not keep -0.0 where K + jitter * I had +0.0;
    # its measure puts mass a on the three points: z = K a, e0^2 = a'K a
    signed = np.array([[1.0, 1.0, -0.0], [1.0, 1.0, 0.0], [-0.0, 0.0, 1.0]])
    a = np.linspace(0.5, 1.5, 3)
    return {
        "near-singular": (K1.gram(near), K1.embedding(M1, near),
                          K1.double_integral(M1)),
        "toy-75": (K1.gram(toy), K1.embedding(M1, toy),
                   K1.double_integral(M1)),
        "signed-zero": (signed, signed @ a, float(a @ signed @ a)),
    }


@pytest.mark.parametrize("case", ["near-singular", "toy-75", "signed-zero"])
def test_lapack_factor_and_solves_match_scipy_wrappers(case):
    K, z, e0_sq = grams_failing_at_zero_jitter()[case]
    n = K.shape[0]
    before = K.copy()
    L, jitter = chol_factor_with_nugget(K)
    assert jitter > 0.0
    expected = scipy.linalg.cholesky(K + jitter * np.eye(n), lower=True)
    assert L.tobytes() == expected.tobytes()
    w, err, nugget = fit_weights(K, z, e0_sq)
    assert nugget == jitter
    assert w.tobytes() == scipy.linalg.cho_solve((expected, True), z).tobytes()
    assert err == worst_case_error(K, z, w, e0_sq)
    half = scipy.linalg.solve_triangular(expected, z, lower=True)
    assert solve_lower(L, z).tobytes() == half.tobytes()
    assert K.tobytes() == before.tobytes()


def test_gram_singular_error_carries_diagnostics():
    K = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite; jitter ladder cannot fix
    with pytest.raises(GramSingularError) as exc:
        chol_factor_with_nugget(K)
    err = exc.value
    assert len(err.jitters) >= 1
    assert err.diag_range == (1.0, 1.0)


def test_nugget_policy_ladder():
    ladder = list(NuggetPolicy().ladder())
    assert ladder[0] == 0.0
    assert ladder[1] == pytest.approx(1e-11)
    assert len(ladder) == 6
    assert all(b > a for a, b in zip(ladder[1:], ladder[2:]))
    # bit for bit the ladder that multiplies each rung by 10.0 from 1e-11
    rungs = [0.0, 1e-11]
    while len(rungs) < 6:
        rungs.append(rungs[-1] * 10.0)
    assert [x.hex() for x in ladder] == [x.hex() for x in rungs]
    assert NuggetPolicy.scale_by_trace is True


@pytest.mark.parametrize("kwargs", [
    {"max_attempts": 0},
    {"max_attempts": -3},
    {"growth": 1.0},
    {"growth": 0.5},
    {"growth": float("nan")},
    {"growth": float("inf")},
    {"initial_jitter": -1e-12},
    {"initial_jitter": float("nan")},
    {"initial_jitter": float("inf")},
])
def test_nugget_policy_rejects_invalid_values(kwargs):
    # the ladder is fixed: the policy takes no settings at all
    with pytest.raises(TypeError):
        NuggetPolicy(**kwargs)


# --- greedy minimum-error point selection ---


GRID = np.linspace(-4.0, 4.0, 401)[:, None]
MODE_INDEX = int(np.argmin(np.abs(GRID[:, 0])))


def test_sbq_first_point_is_seed():
    idx = sbq_greedy_select(K1, M1, GRID, 1, seed_index=MODE_INDEX)
    assert list(idx) == [MODE_INDEX]


def test_sbq_narrow_kernel_clusters_at_mode():
    k = GaussianKernel([0.01])
    idx = sbq_greedy_select(k, M1, GRID, 30, seed_index=MODE_INDEX)
    pts = GRID[idx, 0]
    assert len(set(idx.tolist())) == 30
    assert np.max(np.abs(pts)) <= 1.0


def test_sbq_unit_kernel_spreads_out():
    idx = sbq_greedy_select(K1, M1, GRID, 5, seed_index=MODE_INDEX)
    pts = GRID[idx, 0]
    assert pts.max() - pts.min() > 2.0


def test_sbq_too_few_distinct_candidates():
    assert kquad.InsufficientStatesError is InsufficientStatesError
    assert kquad.controller.InsufficientStatesError is InsufficientStatesError
    with pytest.raises(InsufficientStatesError, match="2 distinct"):
        sbq_greedy_select(K1, M1, [[0.0], [0.0], [0.0]], 2)


class IndefiniteKernel:
    """A kernel stub whose Gram no jitter on the ladder can factor."""

    def gram(self, X):
        return -np.eye(len(X))

    def embedding(self, measure, X):
        return np.ones(len(X))

    def double_integral(self, measure):
        return 1.0


def test_sbq_reraises_the_factorisation_failure():
    with pytest.raises(GramSingularError) as exc:
        sbq_greedy_select(IndefiniteKernel(), None, [[0.0], [1.0]], 2)
    assert len(exc.value.jitters) == len(NuggetPolicy().ladder())
    assert exc.value.diag_range == (-1.0, -1.0)


def test_sbq_deterministic_and_error_decreasing():
    idx1 = sbq_greedy_select(K1, M1, GRID, 8, seed_index=MODE_INDEX)
    idx2 = sbq_greedy_select(K1, M1, GRID, 8, seed_index=MODE_INDEX)
    assert np.array_equal(idx1, idx2)
    errors = [
        kq_fit(K1, M1, GRID[idx1[: m + 1]]).worst_case_error for m in range(8)
    ]
    assert all(b <= a + 1e-10 for a, b in zip(errors, errors[1:]))


# --- low-discrepancy points ---


def test_halton_base2_base3_frozen():
    P = halton_points(3, 2)
    assert np.allclose(P[:, 0], [0.5, 0.25, 0.75], atol=1e-15)
    assert np.allclose(P[:, 1], [1 / 3, 2 / 3, 1 / 9], atol=1e-15)


def test_halton_first_point():
    P = halton_points(1, 2)
    assert P.shape == (1, 2)
    assert np.allclose(P[0], [0.5, 1 / 3], atol=1e-15)


def test_halton_dimension_cap():
    P = halton_points(5, 8)
    assert P.shape == (5, 8)
    assert np.all((P >= 0) & (P < 1))
    with pytest.raises(ValueError):
        halton_points(5, 9)


def phi_inverse_oracle(u, tol=1e-13):
    # bisection against the C library erfc; independent of scipy.
    # erfc keeps full relative precision in the lower tail where 1+erf cancels.
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gaussian_inverse_cdf_against_bisection_oracle():
    for u in (1e-10, 1e-4, 0.025, 0.3, 0.5, 0.842, 0.975, 1 - 1e-6):
        assert gaussian_inverse_cdf(u) == pytest.approx(
            phi_inverse_oracle(u), abs=1e-9
        )


def test_gaussian_inverse_cdf_frozen_and_symmetry():
    assert gaussian_inverse_cdf(0.5) == 0.0
    assert gaussian_inverse_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert gaussian_inverse_cdf(0.3) == pytest.approx(
        -gaussian_inverse_cdf(0.7), abs=1e-12
    )


def test_gaussian_inverse_cdf_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            gaussian_inverse_cdf(bad)


def test_stein_rule_unit_embeddings():
    kern = SteinKernel(GaussianKernel([1.0]), score=lambda X: -np.asarray(X))
    X = np.array([[-1.0], [0.2], [1.3]])
    rule = kq_fit(kern, None, X)
    assert np.array_equal(rule.embeddings, np.ones(3))
    assert rule.e0_sq == 1.0
    assert rule.worst_case_error < 1.0
