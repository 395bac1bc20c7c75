import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from kquad.kernels import GaussianKernel, GaussianMeasure, SteinKernel
from kquad.problems import ODEProblem, ode_score, with_observations

# Oracle grid shared with the acceptance suite: stds x lengthscales x eval points.
ORACLE_SIGMAS = (0.5, 1.0, 2.0)
ORACLE_ELLS = (0.25, 1.0, 3.0)
ORACLE_XS = tuple(float(v) for v in range(-3, 4))


def embedding_oracle_1d(sigma, ell, x):
    # direct adaptive quadrature of int k(x, y) N(y | 0, sigma^2) dy
    def f(y):
        return np.exp(-((x - y) ** 2) / ell**2) * scipy.stats.norm.pdf(y, 0.0, sigma)

    val, err = scipy.integrate.quad(f, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    return val


def double_integral_oracle_1d(sigma, ell):
    # tensor Gauss-Hermite rule for int int k(x, y) N(x) N(y) dx dy,
    # checked against a rule with fewer nodes
    def rule(m):
        t, w = np.polynomial.hermite.hermgauss(m)
        x = np.sqrt(2.0) * sigma * t
        gram = np.exp(-np.subtract.outer(x, x) ** 2 / ell**2)
        return float(w @ gram @ w) / np.pi

    val = rule(200)
    assert abs(val - rule(150)) <= 1e-11
    return val


def test_gaussian_kernel_values():
    k = GaussianKernel([1.0])
    assert k([0.0], [0.0]) == 1.0
    assert k([0.0], [1.0]) == pytest.approx(np.exp(-1.0), abs=1e-15)
    # anisotropic: per-coordinate scaling
    k2 = GaussianKernel([1.0, 2.0])
    expect = np.exp(-(1.0 / 1.0 + 4.0 / 4.0))
    assert k2([0.0, 0.0], [1.0, 2.0]) == pytest.approx(expect, rel=1e-15)


def test_gaussian_kernel_separability():
    kx = GaussianKernel([0.7])
    ky = GaussianKernel([1.3])
    kxy = GaussianKernel([0.7, 1.3])
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=2), rng.normal(size=2)
        prod = kx(a[:1], b[:1]) * ky(a[1:], b[1:])
        assert kxy(a, b) == pytest.approx(prod, rel=1e-14)


def test_gram_exact_symmetry_and_diag():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(17, 3))
    K = GaussianKernel([0.5, 1.0, 2.0]).gram(X)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == 1.0)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    K = GaussianKernel([1.0, 1.0]).gram(X)
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-10


def test_gram_cross_matrix_shape():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(5, 2)), rng.normal(size=(7, 2))
    K = GaussianKernel([1.0, 1.0]).gram(X, Y)
    assert K.shape == (5, 7)
    for i in (0, 4):
        for j in (0, 6):
            assert K[i, j] == pytest.approx(GaussianKernel([1.0, 1.0])(X[i], Y[j]), rel=1e-14)


def broadcast_gaussian_gram(kernel, X, Y=None):
    # the (n, m, d) broadcast assembly GaussianKernel.gram used before it
    # summed coordinate by coordinate; kept as the oracle
    Y = X if Y is None else Y
    diff = (X[:, None, :] - Y[None, :, :]) / kernel.lengthscales
    return np.exp(-np.sum(diff * diff, axis=-1))


def gram_oracle_case(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 2.0, size=(40, d))
    X[5] = X[3]  # coincident rows give exact ones
    X[7, 0] = -0.0
    X[8, 0] = 0.0
    Y = rng.normal(0.0, 2.0, size=(23, d))
    return GaussianKernel(rng.uniform(0.3, 3.0, size=d)), X, Y


@pytest.mark.parametrize("d", range(1, 8))
def test_gaussian_gram_matches_broadcast_oracle_bitwise(d):
    kern, X, Y = gram_oracle_case(d, seed=d)
    K = kern.gram(X)
    assert K.tobytes() == broadcast_gaussian_gram(kern, X).tobytes()
    assert np.array_equal(K, K.T)
    KXY = kern.gram(X, Y)
    assert KXY.shape == (40, 23)
    assert KXY.tobytes() == broadcast_gaussian_gram(kern, X, Y).tobytes()


@pytest.mark.parametrize("d", [8, 12, 16])
def test_gaussian_gram_wide_within_ulps_of_broadcast_oracle(d):
    # from d = 8 numpy's last-axis sum is pairwise, not left to right, so
    # entries (all <= 1) may differ by a few units in the last place of 1
    kern, X, Y = gram_oracle_case(d, seed=d)
    eps = np.finfo(float).eps
    K = kern.gram(X)
    assert np.array_equal(K, K.T)
    assert np.max(np.abs(K - broadcast_gaussian_gram(kern, X))) <= 4 * eps
    KXY = kern.gram(X, Y)
    assert np.max(np.abs(KXY - broadcast_gaussian_gram(kern, X, Y))) <= 4 * eps


def test_invalid_lengthscales_rejected():
    with pytest.raises(ValueError):
        GaussianKernel([1.0, 0.0])
    with pytest.raises(ValueError):
        GaussianKernel([-1.0])
    with pytest.raises(ValueError):
        GaussianKernel([np.inf])


def test_measure_validation_and_log_density():
    with pytest.raises(ValueError):
        GaussianMeasure([0.0], [0.0])
    with pytest.raises(ValueError):
        GaussianMeasure([0.0, 0.0], [1.0])
    m = GaussianMeasure([0.5, -1.0], [1.0, 2.0])
    X = np.array([[0.0, 0.0], [1.0, 3.0]])
    expect = scipy.stats.norm.logpdf(X[:, 0], 0.5, 1.0) + scipy.stats.norm.logpdf(
        X[:, 1], -1.0, 2.0
    )
    assert np.allclose(m.log_density(X), expect, atol=1e-12)


def test_measure_sampling_moments():
    m = GaussianMeasure([2.0], [3.0])
    X = m.sample(np.random.default_rng(0), 200_000)
    assert X.shape == (200_000, 1)
    assert abs(X.mean() - 2.0) < 0.03
    assert abs(X.std() - 3.0) < 0.03


def test_embedding_frozen_values():
    # sigma = ell = 1 at the origin: 1/sqrt(3)
    k = GaussianKernel([1.0])
    m = GaussianMeasure([0.0], [1.0])
    assert k.embedding(m, [0.0])[0] == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    # 2-d product: 1/3
    k2 = GaussianKernel([1.0, 1.0])
    m2 = GaussianMeasure([0.0, 0.0], [1.0, 1.0])
    assert k2.embedding(m2, [0.0, 0.0])[0] == pytest.approx(1 / 3, abs=1e-12)


def test_embedding_matches_quadrature_oracle():
    for sigma in ORACLE_SIGMAS:
        m = GaussianMeasure([0.0], [sigma])
        for ell in ORACLE_ELLS:
            k = GaussianKernel([ell])
            for x in ORACLE_XS:
                got = k.embedding(m, [x])[0]
                want = embedding_oracle_1d(sigma, ell, x)
                assert got == pytest.approx(want, abs=1e-8)


def test_embedding_2d_separability_vs_oracle():
    k = GaussianKernel([0.5, 2.0])
    m = GaussianMeasure([0.0, 0.0], [1.0, 0.5])
    got = k.embedding(m, [1.0, -0.5])[0]
    want = embedding_oracle_1d(1.0, 0.5, 1.0) * embedding_oracle_1d(0.5, 2.0, -0.5)
    assert got == pytest.approx(want, abs=1e-10)


def test_embedding_nonzero_mean_measure():
    k = GaussianKernel([1.5])
    m = GaussianMeasure([0.7], [1.2])

    def f(y):
        return np.exp(-((2.0 - y) ** 2) / 1.5**2) * scipy.stats.norm.pdf(y, 0.7, 1.2)

    want, _ = scipy.integrate.quad(f, -np.inf, np.inf, epsabs=1e-12)
    assert k.embedding(m, [2.0])[0] == pytest.approx(want, abs=1e-10)


def test_embedding_vector_batches():
    k = GaussianKernel([1.0])
    m = GaussianMeasure([0.0], [1.0])
    X = np.array([[0.0], [1.0], [-2.0]])
    z = k.embedding(m, X)
    assert z.shape == (3,)
    for i in range(3):
        assert z[i] == pytest.approx(k.embedding(m, X[i])[0], rel=1e-14)


def test_double_integral_frozen_and_oracle():
    k = GaussianKernel([1.0])
    m = GaussianMeasure([0.0], [1.0])
    assert k.double_integral(m) == pytest.approx(1 / np.sqrt(5), abs=1e-12)
    for sigma, ell in [(1.0, 1.0), (0.5, 0.25), (2.0, 3.0)]:
        got = GaussianKernel([ell]).double_integral(GaussianMeasure([0.0], [sigma]))
        assert got == pytest.approx(double_integral_oracle_1d(sigma, ell), abs=1e-8)


def test_double_integral_large_lengthscale_limit():
    k = GaussianKernel([1e6])
    m = GaussianMeasure([0.0], [1.0])
    assert k.double_integral(m) == pytest.approx(1.0, abs=1e-6)


def test_gaussian_integrals_need_matching_gaussian_measure():
    k = GaussianKernel([1.0, 1.0])
    for method, args in ((k.embedding, ([[0.0, 0.0]],)), (k.double_integral, ())):
        with pytest.raises(TypeError):
            method(None, *args)
        with pytest.raises(ValueError):
            method(GaussianMeasure([0.0], [1.0]), *args)


# --- Stein construction ---


def std_normal_score(X):
    return -np.asarray(X, dtype=float)


def stein_base_derivatives(base, theta, phi):
    """Gaussian base kernel value with its first and mixed second derivatives.

    kb, dk_b/dtheta_j = -(2/ell_j^2)(theta_j - phi_j) k_b,
    dk_b/dphi_j = +(2/ell_j^2)(theta_j - phi_j) k_b and
    d2k_b/dtheta_j dphi_j
        = ((2 ell_j^2 - 4 (theta_j - phi_j)^2) / ell_j^4) k_b.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ell2 = base.lengthscales ** 2
    diff = theta - phi
    kb = float(np.exp(-np.sum(diff * diff / ell2)))
    d_theta = -(2.0 / ell2) * diff * kb
    d_phi = (2.0 / ell2) * diff * kb
    mixed = (2.0 * ell2 - 4.0 * diff * diff) / ell2 ** 2 * kb
    return kb, d_theta, d_phi, mixed


def broadcast_stein_gram(kernel, X, Y=None):
    """Stein Gram from explicit (n, m, d) coordinate differences."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    UX = np.asarray(kernel.score(X), dtype=float)
    if Y is None:
        Y, UY = X, UX
    else:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        UY = np.asarray(kernel.score(Y), dtype=float)
    ell2 = kernel.base.lengthscales ** 2
    diff = X[:, None, :] - Y[None, :, :]
    kb = np.exp(-np.sum(diff * diff / ell2, axis=-1))
    mixed = np.sum((2.0 * ell2 - 4.0 * diff * diff) / ell2 ** 2, axis=-1)
    cross = np.sum((2.0 * diff / ell2) * (UX[:, None, :] - UY[None, :, :]),
                   axis=-1)
    return 1.0 + kb * (mixed + cross + UX @ UY.T)


def oscillator_stein_kernel():
    problem = with_observations(ODEProblem(), np.random.default_rng(1234))
    return SteinKernel(GaussianKernel(np.full(4, 8.0)),
                       score=lambda X: ode_score(problem, X))


def assert_gram_matches_oracle(K, want):
    assert K.shape == want.shape
    assert np.max(np.abs(K - want)) <= 1e-12 * np.max(np.abs(want))


def test_stein_gram_matches_broadcast_oracle_on_oscillator_states():
    # box-uniform states cover both damping regimes and entries up to ~4e7
    kern = oscillator_stein_kernel()
    X = np.random.default_rng(7).uniform(0.01, 10.0, size=(300, 4))
    disc = X[:, 3] ** 2 - 4.0 * X[:, 2]
    assert np.any(disc < 0) and np.any(disc > 0)
    want = broadcast_stein_gram(kern, X)
    assert np.max(np.abs(want)) > 1e7
    assert_gram_matches_oracle(kern.gram(X), want)


def test_stein_gram_matches_broadcast_oracle_anisotropic():
    kern = SteinKernel(GaussianKernel([0.3, 1.0, 4.0]), score=std_normal_score)
    X = np.random.default_rng(8).normal(size=(120, 3))
    assert_gram_matches_oracle(kern.gram(X), broadcast_stein_gram(kern, X))


def test_stein_gram_rectangular_matches_stacked_block():
    kern = oscillator_stein_kernel()
    rng = np.random.default_rng(9)
    X = rng.uniform(0.01, 10.0, size=(40, 4))
    Y = rng.uniform(0.01, 10.0, size=(25, 4))
    K = kern.gram(X, Y)
    assert_gram_matches_oracle(K, kern.gram(np.vstack([X, Y]))[:40, 40:])
    assert_gram_matches_oracle(K, broadcast_stein_gram(kern, X, Y))


def allocating_stein_gram(kernel, X, Y=None):
    # SteinKernel.gram as it was before it worked in two (n, m) buffers:
    # a fresh array per operation; kept as the bitwise oracle
    X = np.atleast_2d(np.asarray(X, dtype=float))
    UX = np.asarray(kernel.score(X), dtype=float)
    same = Y is None
    if same:
        Y, UY = X, UX
    else:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        UY = np.asarray(kernel.score(Y), dtype=float)

    def sq_dist(A, B):
        D = (-2.0 * A) @ B.T
        D += np.sum(A * A, axis=1)[:, None]
        D += np.sum(B * B, axis=1)[None, :]
        return np.maximum(D, 0.0, out=D)

    ell = kernel.base.lengthscales
    ell2 = ell * ell
    XS, YS = X / ell2, Y / ell2
    inner = sq_dist(XS, YS)
    inner *= -4.0
    inner += np.sum(2.0 / ell2)
    inner += 2.0 * np.sum(XS * UX, axis=1)[:, None]
    inner += 2.0 * np.sum(YS * UY, axis=1)[None, :]
    inner -= (2.0 * XS) @ UY.T
    inner -= (2.0 * UX) @ YS.T
    inner += UX @ UY.T
    K = np.exp(-sq_dist(X / ell, Y / ell))
    K *= inner
    K += 1.0
    if same:
        K += K.T
        K *= 0.5
    return K


@pytest.mark.parametrize("m", [1, 2, 50, 255, 301])
def test_stein_gram_matches_allocating_oracle_bitwise(m):
    rng = np.random.default_rng(m)
    X = rng.uniform(0.01, 10.0, size=(m, 4))
    Y = rng.uniform(0.01, 10.0, size=(m + 7, 4))
    for kern in (oscillator_stein_kernel(),
                 SteinKernel(GaussianKernel([0.5, 1.0, 3.0, 8.0]),
                             score=std_normal_score)):
        K = kern.gram(X)
        assert K.tobytes() == allocating_stein_gram(kern, X).tobytes()
        assert np.array_equal(K, K.T)
        for A, B in ((X, Y), (Y, X), (X[:1], Y)):
            K = kern.gram(A, B)
            assert K.shape == (A.shape[0], B.shape[0])
            assert K.tobytes() == allocating_stein_gram(kern, A, B).tobytes()


def test_stein_gram_exact_symmetry_and_diagonal():
    for kern, X in (
        (oscillator_stein_kernel(),
         np.random.default_rng(10).uniform(0.01, 10.0, size=(60, 4))),
        (SteinKernel(GaussianKernel([0.3, 1.0, 4.0]), score=std_normal_score),
         np.random.default_rng(11).normal(size=(60, 3))),
    ):
        K = kern.gram(X)
        assert np.array_equal(K, K.T)
        U = kern.score(X)
        want = 1.0 + np.sum(2.0 / kern.base.lengthscales ** 2 + U * U, axis=1)
        assert np.max(np.abs(np.diag(K) / want - 1.0)) <= 1e-12


def test_stein_kernel_frozen_value():
    k = SteinKernel(GaussianKernel([1.0]), score=std_normal_score)
    # at theta = phi = 0: the constant plus the mixed-derivative term 2/ell^2
    assert k([0.0], [0.0]) == pytest.approx(3.0, rel=1e-14)


def test_stein_base_derivative_frozen_values():
    base = GaussianKernel([1.0])
    kb, d_theta, d_phi, mixed = stein_base_derivatives(base, [1.0], [0.0])
    assert kb == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert d_theta[0] == pytest.approx(-2 * np.exp(-1.0), rel=1e-14)
    assert d_phi[0] == pytest.approx(2 * np.exp(-1.0), rel=1e-14)
    assert mixed[0] == pytest.approx(-2 * np.exp(-1.0), rel=1e-14)


def test_stein_base_derivatives_coincident_points():
    base = GaussianKernel([0.5, 2.0])
    kb, d_theta, d_phi, mixed = stein_base_derivatives(base, [1.0, -1.0], [1.0, -1.0])
    assert kb == 1.0
    assert np.array_equal(d_theta, np.zeros(2))
    assert np.array_equal(d_phi, np.zeros(2))
    assert np.allclose(mixed, 2.0 / np.array([0.5, 2.0]) ** 2, rtol=1e-14)


def test_stein_base_derivatives_match_finite_differences():
    base = GaussianKernel([0.8, 1.7])
    rng = np.random.default_rng(4)
    h = 1e-5

    def kb_eval(a, b):
        return base(a, b)

    for _ in range(6):
        t, p = rng.normal(size=2), rng.normal(size=2)
        _, d_theta, d_phi, mixed = stein_base_derivatives(base, t, p)
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd_t = (kb_eval(t + e, p) - kb_eval(t - e, p)) / (2 * h)
            fd_p = (kb_eval(t, p + e) - kb_eval(t, p - e)) / (2 * h)
            fd_m = (
                kb_eval(t + e, p + e)
                - kb_eval(t + e, p - e)
                - kb_eval(t - e, p + e)
                + kb_eval(t - e, p - e)
            ) / (4 * h * h)
            assert d_theta[c] == pytest.approx(fd_t, abs=1e-6)
            assert d_phi[c] == pytest.approx(fd_p, abs=1e-6)
            assert mixed[c] == pytest.approx(fd_m, abs=1e-4)


def test_stein_gram_matches_operator_assembly():
    # assemble the operator-applied kernel pair by pair from its four pieces
    base = GaussianKernel([1.2, 0.6])
    kern = SteinKernel(base, score=std_normal_score)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 2))
    K = kern.gram(X)
    U = std_normal_score(X)
    want = np.empty((6, 6))
    for i in range(6):
        for j in range(6):
            kb, d_theta, d_phi, mixed = stein_base_derivatives(base, X[i], X[j])
            want[i, j] = 1.0 + np.sum(
                mixed + U[i] * d_phi + U[j] * d_theta + U[i] * U[j] * kb
            )
    assert np.allclose(K, want, rtol=1e-12, atol=1e-12)
    assert np.allclose(K, K.T, atol=1e-12)


def test_stein_embeddings_are_unit():
    k = SteinKernel(GaussianKernel([1.0]), score=std_normal_score)
    assert k.embedding(None, [0.3])[0] == 1.0
    assert k.double_integral(None) == 1.0
    z = k.embedding(None, np.array([[0.1], [2.0], [-3.0]]))
    assert np.array_equal(z, np.ones(3))


def test_stein_zero_mean_monte_carlo():
    # E_pi[k(X, x0)] = 1 for the target-adapted kernel; MC check at N(0,1)
    k = SteinKernel(GaussianKernel([1.0]), score=std_normal_score)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(100_000, 1))
    for x0 in ([0.0], [1.5]):
        vals = k.gram(X, np.asarray([x0]))[:, 0]
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 5 * se + 1e-3
