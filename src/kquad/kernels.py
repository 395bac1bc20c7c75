"""Gaussian and Stein kernels with closed-form integrals against Gaussian measures.

The Gaussian kernel here is ``k(x, y) = exp(-sum_j (x_j - y_j)^2 / ell_j^2)``
(no factor 2 in the denominator).  For a diagonal Gaussian measure both the
mean embedding ``z(x) = int k(u, x) dPi(u)`` and the double integral
``int int k dPi dPi`` factor across coordinates and are available in closed
form.  The Stein kernel is built from a Gaussian base kernel and the score of
an (unnormalised) target density; by construction its mean embedding is
identically 1, so quadrature against it needs no normalising constant.
Each kernel computes its own embeddings (``embedding``, ``double_integral``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GaussianKernel", "GaussianMeasure", "SteinKernel"]

_SQRT_PI = np.sqrt(np.pi)


def _as_vector(x, d, name):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.shape[0] != d:
        raise ValueError(f"{name} must be a length-{d} vector, got shape {v.shape}")
    return v


def _as_batch(X, d):
    A = np.asarray(X, dtype=float)
    if A.ndim == 1:
        A = A[None, :]
    if A.ndim != 2 or A.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {A.shape}")
    return A


@dataclass(frozen=True)
class GaussianKernel:
    """Anisotropic Gaussian kernel exp(-sum_j (x_j - y_j)^2 / ell_j^2).

    Parameters
    ----------
    lengthscales : array_like
        Positive per-coordinate lengthscales, shape (d,).
    """

    lengthscales: np.ndarray

    def __post_init__(self):
        ell = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ell.ndim != 1:
            raise ValueError("lengthscales must be a 1-D array")
        if not np.all(np.isfinite(ell)) or np.any(ell <= 0):
            raise ValueError("lengthscales must be finite and positive")
        object.__setattr__(self, "lengthscales", ell)

    @property
    def d(self) -> int:
        return self.lengthscales.shape[0]

    def __call__(self, x, y) -> float:
        x = _as_vector(x, self.d, "x")
        y = _as_vector(y, self.d, "y")
        return float(np.exp(-np.sum(((x - y) / self.lengthscales) ** 2)))

    def gram(self, X, Y=None) -> np.ndarray:
        """Pairwise kernel matrix, shape (n, m).

        Built one coordinate at a time in a single (n, m) buffer, with no
        (n, m, d) temporary: ((x_j - y_j) / ell_j)^2 is added for j = 0, 1,
        ... in turn, then the sum is negated and exponentiated in place.
        The differences are explicit, and x_i - x_k is exactly minus
        x_k - x_i, so gram(X, X) is exactly symmetric in floating point.
        For d <= 7 the left-to-right sum has the bits of numpy's last-axis
        sum; from d = 8 numpy sums pairwise, so entries may differ from
        that order by a few units in the last place of 1.
        """
        X = _as_batch(X, self.d)
        Y = X if Y is None else _as_batch(Y, self.d)
        S = None
        for j, ell in enumerate(self.lengthscales):
            D = np.subtract.outer(X[:, j], Y[:, j])
            D /= ell
            D *= D
            if S is None:
                S = D
            else:
                S += D
        np.negative(S, out=S)
        return np.exp(S, out=S)

    def embedding(self, measure: GaussianMeasure, X) -> np.ndarray:
        """Mean embedding int k(u, x) dPi(u) at each row of X, shape (n,).

        Closed form prod_j sqrt(pi) ell_j N(x_j | mu_j, sigma_j^2 + ell_j^2 / 2).
        """
        X = _as_batch(X, self.d)
        self._check_measure(measure)
        ell = self.lengthscales
        var = measure.std ** 2 + 0.5 * ell ** 2
        z = X - measure.mean
        factors = _SQRT_PI * ell * np.exp(-0.5 * z * z / var) / np.sqrt(2.0 * np.pi * var)
        return np.prod(factors, axis=1)

    def double_integral(self, measure: GaussianMeasure) -> float:
        """Integral of k against the measure in both arguments.

        Closed form prod_j sqrt(pi) ell_j N(0 | 0, 2 sigma_j^2 + ell_j^2 / 2).
        """
        self._check_measure(measure)
        ell = self.lengthscales
        var = 2.0 * measure.std ** 2 + 0.5 * ell ** 2
        return float(np.prod(_SQRT_PI * ell / np.sqrt(2.0 * np.pi * var)))

    def _check_measure(self, measure) -> None:
        if not isinstance(measure, GaussianMeasure):
            raise TypeError("Gaussian-kernel integrals need a GaussianMeasure")
        if measure.d != self.d:
            raise ValueError("kernel and measure dimensions differ")


@dataclass(frozen=True)
class GaussianMeasure:
    """Diagonal Gaussian probability measure N(mean, diag(std^2)).

    Doubles as a sampler and log-density, so it can serve both as the
    integration measure of a quadrature problem and as a reference
    distribution for tempering.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        std = np.atleast_1d(np.asarray(self.std, dtype=float))
        if std.shape != mean.shape or mean.ndim != 1:
            raise ValueError("mean and std must be 1-D arrays of equal length")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(std)):
            raise ValueError("mean and std must be finite")
        if np.any(std <= 0):
            raise ValueError("std must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    def log_density(self, X) -> np.ndarray:
        X = _as_batch(X, self.d)
        z = (X - self.mean) / self.std
        return -0.5 * np.sum(z * z, axis=1) - np.sum(np.log(self.std)) \
            - 0.5 * self.d * np.log(2.0 * np.pi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.mean + self.std * rng.standard_normal((size, self.d))


@dataclass(frozen=True)
class SteinKernel:
    """Stein kernel built from a Gaussian base kernel and a score function.

    k(x, y) = 1 + sum_j [ d2k_b/dx_j dy_j + u_j(x) dk_b/dy_j
                          + u_j(y) dk_b/dx_j + u_j(x) u_j(y) k_b ]

    where u = score of the target density.  Functions in the induced space
    integrate to exactly their constant offset, so the mean embedding is
    identically 1 for the target measure, whatever its normalising constant.

    Parameters
    ----------
    base : GaussianKernel
        Base kernel k_b.
    score : callable
        Batched score, mapping (n, d) arrays to (n, d) arrays of
        grad log density values.  Must be finite on the support.
    """

    base: GaussianKernel
    score: Callable[[np.ndarray], np.ndarray]

    @property
    def d(self) -> int:
        return self.base.d

    def _score_batch(self, X) -> np.ndarray:
        U = np.asarray(self.score(X), dtype=float)
        if U.shape != X.shape:
            raise ValueError(f"score returned shape {U.shape} for input {X.shape}")
        if not np.all(np.isfinite(U)):
            raise ValueError("score must be finite at every evaluation point")
        return U

    def __call__(self, x, y) -> float:
        x = _as_vector(x, self.d, "x")
        y = _as_vector(y, self.d, "y")
        return float(self.gram(x[None, :], y[None, :])[0, 0])

    def gram(self, X, Y=None) -> np.ndarray:
        """Pairwise kernel matrix, shape (n, m), from BLAS products.

        Each coordinate sum is expanded into row sums plus one matrix
        product, so no (n, m, d) temporary is built: the squared distances
        sum_j (x_j - y_j)^2 / ell_j^2 (base kernel) and / ell_j^4 (mixed
        term) come from row norms and X Y^T, clamped at 0 against
        round-off; the cross term sum_j 2 (x_j - y_j)(u_j(x) - u_j(y))
        / ell_j^2 from <x, u(x)>, <y, u(y)>, X U_Y^T and U_X Y^T.  The
        whole assembly works in place in two (n, m) buffers.  gram(X) is
        symmetrised, so it is exactly symmetric.
        """
        X = _as_batch(X, self.d)
        UX = self._score_batch(X)
        same = Y is None
        if same:
            Y, UY = X, UX
        else:
            Y = _as_batch(Y, self.d)
            UY = self._score_batch(Y)
        ell = self.base.lengthscales
        ell2 = ell * ell
        XS, YS = X / ell2, Y / ell2
        # mixed second derivative coefficient:
        # sum_j (2 ell_j^2 - 4 (x_j - y_j)^2) / ell_j^4
        inner = _sq_dist(XS, YS)
        inner *= -4.0
        inner += np.sum(2.0 / ell2)
        # first-derivative cross terms:
        # sum_j 2 (x_j - y_j)(u_j(x) - u_j(y)) / ell_j^2
        inner += 2.0 * np.sum(XS * UX, axis=1)[:, None]
        inner += 2.0 * np.sum(YS * UY, axis=1)[None, :]
        # K holds each product in turn, then the base kernel
        K = np.matmul(2.0 * XS, UY.T)
        inner -= K
        inner -= np.matmul(2.0 * UX, YS.T, out=K)
        # score outer product
        inner += np.matmul(UX, UY.T, out=K)
        K = _sq_dist(X / ell, Y / ell, out=K)
        np.negative(K, out=K)
        np.exp(K, out=K)
        K *= inner
        K += 1.0
        if same:
            # K[i, j] + K[j, i] is commutative, so the sum is exactly symmetric
            K = np.add(K, K.T, out=inner)
            K *= 0.5
        return K

    def embedding(self, measure, X) -> np.ndarray:
        """Identically 1 for the kernel's own target; measure is ignored."""
        return np.ones(_as_batch(X, self.d).shape[0])

    def double_integral(self, measure) -> float:
        """Identically 1 for the kernel's own target; measure is ignored."""
        return 1.0


def _sq_dist(A, B, out=None) -> np.ndarray:
    """sum_j (a_j - b_j)^2 for every pair of rows, clamped at 0.

    Written into out, an (n, m) buffer, when one is given.
    """
    D = np.matmul(-2.0 * A, B.T, out=out)
    D += np.sum(A * A, axis=1)[:, None]
    D += np.sum(B * B, axis=1)[None, :]
    return np.maximum(D, 0.0, out=D)


KernelHandle = GaussianKernel | SteinKernel
