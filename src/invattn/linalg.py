"""Dense matrix primitives: norms, power iteration, spectral normalization,
LU log-determinant, and the small-matrix exact-SVD oracle.

Matrices are plain 2-D numpy arrays, read as float64 whatever their real
dtype. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NonFiniteError

_ORACLE_MAX_DIM = 64


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Validate a 2-D, nonempty, all-finite matrix and return it as a float64 array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix contains non-finite entries")
    return a


def norm_l1(m: np.ndarray) -> float:
    """Matrix L1 norm: maximum over columns of the sum of absolute entries."""
    a = as_matrix(m)
    return float(np.abs(a).sum(axis=0).max())


def norm_frobenius(m: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    a = as_matrix(m)
    return float(np.sqrt(np.square(a).sum()))


@dataclass
class PowerIterState:
    """Result of :func:`power_iteration`: the final unit vectors and the
    Rayleigh value u'Wv, an estimate of the largest singular value from below."""

    u: np.ndarray
    v: np.ndarray
    sigma_estimate: float = 0.0


def _random_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        vec = rng.standard_normal(n)
        nrm = math.sqrt(vec.dot(vec))
        if nrm > 0.0:
            return vec / nrm


def power_iteration(
    m: np.ndarray,
    iters: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
) -> PowerIterState:
    """Estimate the largest singular value of ``m`` by alternating matvecs
    from a seeded random unit vector.

    Stops early once successive estimates differ by less than ``tol``
    (``tol = 0`` disables early stopping). The same seed, ``iters`` and
    ``tol`` always give the same iterates.
    """
    a = as_matrix(m)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rows, cols = a.shape
    rng = np.random.default_rng(seed)
    u = _random_unit(rows, rng)
    v = np.zeros(cols)
    if not np.any(a):
        return PowerIterState(u, v, 0.0)

    # math.sqrt(x.dot(x)) is what np.linalg.norm computes for a 1-D float64
    # vector, without its Python wrapper, which dominates at block sizes
    sigma = 0.0
    for _ in range(iters):
        vt = a.T @ u
        nv = math.sqrt(vt.dot(vt))
        if nv == 0.0:
            # u landed in the null space of W'; restart from a fresh direction
            u = _random_unit(rows, rng)
            continue
        v = vt / nv
        ut = a @ v
        nu = math.sqrt(ut.dot(ut))
        if nu == 0.0:
            u = _random_unit(rows, rng)
            continue
        u = ut / nu
        prev = sigma
        sigma = nu
        if abs(sigma - prev) < tol:
            break
    return PowerIterState(u, v, sigma)


def spectral_normalize(m: np.ndarray, c: float, state: PowerIterState) -> np.ndarray:
    """Rescale ``m`` so its largest singular value is at most ``c``.

    Returns ``m * c/sigma`` when ``c/sigma < 1``, otherwise ``m`` unchanged;
    a zero matrix (sigma = 0) is returned unchanged. ``state`` is the
    converged :func:`power_iteration` result for ``m``; only its
    ``sigma_estimate`` is read.
    """
    a = as_matrix(m)
    if not (0.0 < c <= 1.0):
        raise ValueError(f"Lipschitz target c must be in (0, 1], got {c}")
    sigma = state.sigma_estimate
    if sigma == 0.0:
        return a
    scale = c / sigma
    if scale < 1.0:
        return a * scale
    return a


def exact_svd_oracle(m: np.ndarray) -> np.ndarray:
    """All singular values of a small matrix, descending.

    A direct LAPACK SVD, independent of power iteration.
    Restricted to min(rows, cols) <= 64; this is a test oracle, not a
    production path.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if min(rows, cols) > _ORACLE_MAX_DIM:
        raise ValueError(
            f"exact_svd_oracle is limited to min(rows, cols) <= {_ORACLE_MAX_DIM}"
        )
    return np.linalg.svd(a, compute_uv=False)


def lu_logabsdet(m: np.ndarray) -> tuple[float, int]:
    """(log|det|, sign) via LAPACK's partial-pivoted LU; (-inf, 0) when singular."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"lu_logabsdet requires a square matrix, got {a.shape}")
    return kernels.lu_logabsdet_kernel(a)
