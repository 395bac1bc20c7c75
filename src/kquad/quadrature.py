"""Kernel quadrature rules, worst-case errors, and point sequences.

A kernel quadrature rule on points X solves (K + nugget*I) w = z where K is
the Gram matrix and z the mean-embedding vector; the estimate of the integral
is then w . f(X).  The squared worst-case error of arbitrary weights is the
quadratic form w'Kw - 2 w'z + e0^2 with e0^2 the double integral of the
kernel.  The nugget is only added when a plain Cholesky factorisation fails,
escalating through a fixed ladder of jitters.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import KernelHandle, GaussianMeasure

__all__ = [
    "NuggetPolicy",
    "DEFAULT_NUGGET",
    "QuadratureRule",
    "DuplicatePointsError",
    "GramSingularError",
    "InsufficientStatesError",
    "dedupe",
    "kq_fit",
    "kq_estimate",
    "worst_case_error",
    "sbq_greedy_select",
    "halton_points",
    "gaussian_inverse_cdf",
]

# jitters tried in order, before scaling: the exact system, then 1e-11
# growing tenfold; each rung is written as the product of the last one
# and 10.0, since 1e-11 * 10.0 ** k and decimal literals differ in bits
_JITTER_LADDER = (0.0, 1e-11, 1e-11 * 10.0, 1e-11 * 10.0 * 10.0,
                  1e-11 * 10.0 * 10.0 * 10.0,
                  1e-11 * 10.0 * 10.0 * 10.0 * 10.0)


class DuplicatePointsError(ValueError):
    """Raised when a point set contains bitwise-identical rows."""


class InsufficientStatesError(ValueError):
    """Fewer distinct states or candidates than quadrature nodes requested."""


class GramSingularError(np.linalg.LinAlgError):
    """Raised when the Gram matrix cannot be factorised at any ladder jitter.

    Attributes
    ----------
    jitters : list of float
        Effective jitter values attempted.
    diag_range : tuple of float
        (min, max) of the Gram diagonal, for conditioning diagnostics.
    """

    def __init__(self, jitters, diag_range):
        self.jitters = list(jitters)
        self.diag_range = diag_range
        super().__init__(
            f"Cholesky failed at all jitters {self.jitters}; "
            f"Gram diagonal in [{diag_range[0]:.3e}, {diag_range[1]:.3e}]"
        )


class NuggetPolicy:
    """The fixed jitter ladder of chol_factor_with_nugget.

    The first attempt is the exact system.  Each retry adds the next
    rung times mean(diag(K)), so the jitter is relative to the kernel's
    scale (scale_by_trace).
    """

    scale_by_trace = True

    def ladder(self) -> tuple[float, ...]:
        """Jitters to try, in order, before scaling by the trace."""
        return _JITTER_LADDER


DEFAULT_NUGGET = NuggetPolicy()


@dataclass(frozen=True)
class QuadratureRule:
    """Fitted kernel quadrature rule.

    Attributes
    ----------
    points : ndarray, shape (n, d)
    weights : ndarray, shape (n,)
    embeddings : ndarray, shape (n,)
        Mean embedding at each point.
    worst_case_error : float
        Worst-case integration error of the weights over the unit ball
        of the kernel's space.
    nugget_used : float
        Effective diagonal jitter of the solved system.
    e0_sq : float
        Squared worst-case error of the empty rule (double integral).
    """

    points: np.ndarray
    weights: np.ndarray
    embeddings: np.ndarray
    worst_case_error: float
    nugget_used: float
    e0_sq: float


def _as_points(points) -> np.ndarray:
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"points must be a non-empty (n, d) array, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")
    return X


def row_keys(X: np.ndarray) -> np.ndarray:
    """One opaque void scalar per row of a 2-D array, holding its bytes.

    Rows are equal as keys exactly when they are equal bit for bit, so
    -0.0 and +0.0 differ; ``row_keys(X).tolist()`` gives each row's bytes
    as a hashable key.
    """
    X = np.ascontiguousarray(X)
    return X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1])))[:, 0]


def dedupe(points) -> np.ndarray:
    """Unique rows in order of first occurrence (bitwise comparison)."""
    X = _as_points(points)
    _, first = np.unique(row_keys(X), return_index=True)
    return X[np.sort(first)]


def _check_distinct(X):
    unique = dedupe(X).shape[0]
    if unique != X.shape[0]:
        raise DuplicatePointsError(
            f"{X.shape[0] - unique} duplicate rows in point set"
        )


@functools.cache
def _lapack():
    """scipy's compiled LAPACK module, loaded on the first factorisation.

    Importing the scipy.linalg package loads some 75 modules beyond
    ``import scipy`` (about 0.15 s and 17 MB resident with scipy 1.17 on
    a 2-core x86-64 machine), for three routines that live in its
    extension module _flapack.  So that module is loaded straight from its
    file under scipy's directory and registered under its own name, where
    a later ``import scipy.linalg`` finds it: the routines are the objects
    scipy.linalg.lapack exports.  A process that imported scipy.linalg
    first reuses its module; when no file loads, scipy.linalg.lapack is
    imported as a whole.  The cache binds the module once, so the factor
    and solves pay no import per call.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    linalg_dir = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, "_flapack" + suffix)
        if not os.path.isfile(path):
            continue
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except ImportError:
            del sys.modules[name]
            break
        return module
    import scipy.linalg.lapack
    return scipy.linalg.lapack


def chol_factor_with_nugget(K: np.ndarray, policy: NuggetPolicy = DEFAULT_NUGGET):
    """Lower Cholesky factor of K + jitter*I, escalating jitter on failure.

    Returns (L, effective_jitter).  Raises GramSingularError when every
    ladder attempt fails.  K is left unchanged: LAPACK potrf factors a
    copy of it, and a jittered attempt adds the jitter to the diagonal of
    that copy.
    """
    dpotrf = _lapack().dpotrf
    n = K.shape[0]
    scale = float(K.trace()) / n
    for jitter in policy.ladder():
        effective = jitter * scale
        if effective == 0.0:
            A = K
            L, info = dpotrf(A, lower=1, clean=1)
        else:
            # one Fortran-ordered copy, factored in place; adding 0.0 turns
            # -0.0 into +0.0, so the bits match those of K + effective * I
            A = np.add(K, 0.0, order="F")
            A.flat[::n + 1] += effective
            L, info = dpotrf(A, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, effective
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrf")
        del A, L  # a failed attempt's buffers go before the next one
    diag = np.diag(K)
    raise GramSingularError([jitter * scale for jitter in policy.ladder()],
                            (float(diag.min()), float(diag.max())))


def cho_solve_lower(L, b) -> np.ndarray:
    """(L L')^-1 b for a lower Cholesky factor L, by LAPACK potrs."""
    x, info = _lapack().dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def solve_lower(L, b) -> np.ndarray:
    """L^-1 b for a lower Cholesky factor L, by LAPACK trtrs."""
    x, info = _lapack().dtrtrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def worst_case_error(K, z, w, e0_sq: float) -> float:
    """Worst-case error of weights w: sqrt(w'Kw - 2 w'z + e0^2).

    The empty rule (n = 0) returns sqrt(e0_sq).  A quadratic form that
    comes out below -1e-8 through cancellation triggers a RuntimeWarning;
    small negatives are clamped to zero.  The form is summed in Python
    floats in the order written: the bits of the same sum in numpy
    scalars, at less cost per call (the bootstrap makes one per subset).
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return float(np.sqrt(e0_sq))
    K = np.asarray(K, dtype=float)
    z = np.asarray(z, dtype=float)
    sq = float(w @ K @ w) - 2.0 * float(w @ z) + e0_sq
    if sq < -1e-8:
        warnings.warn(
            f"squared worst-case error {sq:.3e} below -1e-8; "
            "Gram system is badly conditioned",
            RuntimeWarning,
        )
    return math.sqrt(max(sq, 0.0))


def fit_weights(K, z, e0_sq: float):
    """Weights of the rule on one Gram block: (w, worst-case error, nugget).

    Solves (K + nugget*I) w = z with the factor of chol_factor_with_nugget,
    so the nugget is 0 unless the plain factorisation fails, and scores w
    with worst_case_error.  Raises GramSingularError as the factor does.
    """
    L, nugget = chol_factor_with_nugget(K)
    w = cho_solve_lower(L, z)
    return w, worst_case_error(K, z, w, e0_sq), nugget


def kq_fit(kernel: KernelHandle, measure: GaussianMeasure | None,
           points) -> QuadratureRule:
    """Fit kernel quadrature weights on the given points.

    Parameters
    ----------
    kernel : GaussianKernel or SteinKernel
    measure : GaussianMeasure or None
        Integration measure; ignored by Stein kernels (their embeddings
        are constant).
    points : array_like, shape (n, d)
        Distinct evaluation locations.
    """
    X = _as_points(points)
    _check_distinct(X)
    K = kernel.gram(X)
    z = kernel.embedding(measure, X)
    e0_sq = kernel.double_integral(measure)
    w, err, nugget = fit_weights(K, z, e0_sq)
    return QuadratureRule(points=X, weights=w, embeddings=z,
                          worst_case_error=err, nugget_used=nugget,
                          e0_sq=e0_sq)


def kq_estimate(rule: QuadratureRule, f_values) -> float:
    """Weighted sum of function values under a fitted rule."""
    f = np.asarray(f_values, dtype=float)
    if f.shape != rule.weights.shape:
        raise ValueError(
            f"need {rule.weights.shape[0]} function values, got shape {f.shape}"
        )
    return float(rule.weights @ f)


def sbq_greedy_select(kernel: KernelHandle, measure: GaussianMeasure | None,
                      candidates, n: int, seed_index: int = 0) -> np.ndarray:
    """Greedy point selection minimising the worst-case error.

    Starting from the seed candidate, repeatedly appends the candidate
    whose addition gives the smallest fitted worst-case error, ties broken
    by lowest candidate index.  Returns the indices of the selected
    candidates in selection order.  Raises InsufficientStatesError when
    fewer than n candidates are distinct, and the last GramSingularError
    when no candidate of a step can be fitted.
    """
    C = _as_points(candidates)
    m = C.shape[0]
    if not 1 <= n <= m:
        raise ValueError(f"cannot select {n} points from {m} candidates")
    if not 0 <= seed_index < m:
        raise ValueError("seed_index out of range")
    row_key = row_keys(C).tolist()
    distinct = len(set(row_key))
    if distinct < n:
        raise InsufficientStatesError(
            f"need {n} distinct candidates, have {distinct}")
    K_full = kernel.gram(C)
    z_full = kernel.embedding(measure, C)
    e0_sq = kernel.double_integral(measure)

    selected = [seed_index]
    keys = {row_key[seed_index]}
    while len(selected) < n:
        best_err, best_j, failure = np.inf, -1, None
        for j in range(m):
            if row_key[j] in keys:  # chosen, or a copy of a chosen row
                continue
            idx = selected + [j]
            K = K_full.take(idx, 0).take(idx, 1)  # the idx-by-idx block
            try:
                _, err, _ = fit_weights(K, z_full[idx], e0_sq)
            except GramSingularError as exc:
                failure = exc
                continue
            if err < best_err:
                best_err, best_j = err, j
        if best_j < 0:
            raise failure
        selected.append(best_j)
        keys.add(row_key[best_j])
    return np.asarray(selected, dtype=int)


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def _radical_inverse(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def halton_points(n: int, d: int) -> np.ndarray:
    """First n Halton points in (0, 1)^d, indices starting at 1.

    Coordinate j uses the j-th prime as its base; d <= 8.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= d <= len(_HALTON_BASES):
        raise ValueError(f"d must be in [1, {len(_HALTON_BASES)}]")
    out = np.empty((n, d))
    for j in range(d):
        b = _HALTON_BASES[j]
        out[:, j] = [_radical_inverse(i, b) for i in range(1, n + 1)]
    return out


def gaussian_inverse_cdf(u):
    """Standard normal quantile function, elementwise.

    Arguments must lie strictly inside (0, 1).  scipy.special is
    imported on the first call (this function is not on a hot path).
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile arguments must lie strictly in (0, 1)")
    from scipy.special import ndtri

    out = ndtri(arr)
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out
