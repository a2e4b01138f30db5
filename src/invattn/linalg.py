"""Dense matrix primitives: norms, power iteration, spectral normalization,
LU log-determinant, and the small-matrix exact-SVD oracle.

Matrices are plain 2-D numpy arrays (row-major, float64 by default, float32
accepted). All functions are pure except :func:`power_iteration`, which
updates its state in place; a state must be exclusively held while updated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NonFiniteError

_ORACLE_MAX_DIM = 64


def as_matrix(m: np.ndarray) -> np.ndarray:
    """Validate a 2-D, nonempty, all-finite matrix and return it as an array."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("empty matrix")
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
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
    return float(np.sqrt(np.square(a, dtype=np.float64).sum()))


@dataclass
class PowerIterState:
    """Persisted power-iteration state: unit vectors and the current estimate.

    ``sigma_estimate`` is the Rayleigh value u'Wv of the stored vectors; it is
    monotonically non-decreasing across updates on a fixed matrix.
    """

    u: np.ndarray
    v: np.ndarray
    sigma_estimate: float = 0.0

    def check_shape(self, m: np.ndarray) -> None:
        rows, cols = m.shape
        if self.u.shape != (rows,) or self.v.shape != (cols,):
            raise ValueError(
                f"power-iteration state for shape {(self.u.shape[0], self.v.shape[0])} "
                f"does not match matrix shape {m.shape}"
            )

    def copy(self) -> "PowerIterState":
        return PowerIterState(self.u.copy(), self.v.copy(), self.sigma_estimate)


def _random_unit(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        vec = rng.standard_normal(n)
        nrm = np.linalg.norm(vec)
        if nrm > 0.0:
            return vec / nrm


def power_iteration(
    m: np.ndarray,
    state: PowerIterState | None = None,
    iters: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
) -> PowerIterState:
    """Estimate the largest singular value of ``m`` by alternating matvecs.

    Stops early once successive estimates differ by less than ``tol``
    (``tol = 0`` disables early stopping). Passing a ``state`` warm-starts
    the iteration and mutates it in place; otherwise the vectors are
    initialized from a seeded random unit vector.
    """
    a = as_matrix(m).astype(np.float64, copy=False)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rows, cols = a.shape
    rng = np.random.default_rng(seed)
    if state is None:
        state = PowerIterState(_random_unit(rows, rng), np.zeros(cols), 0.0)
    state.check_shape(a)

    if not np.any(a):
        state.sigma_estimate = 0.0
        return state

    u = state.u.astype(np.float64, copy=True)
    sigma = state.sigma_estimate
    v = state.v
    for _ in range(iters):
        vt = a.T @ u
        nv = np.linalg.norm(vt)
        if nv == 0.0:
            # u landed in the null space of W'; restart from a fresh direction
            u = _random_unit(rows, rng)
            continue
        v = vt / nv
        ut = a @ v
        nu = np.linalg.norm(ut)
        if nu == 0.0:
            u = _random_unit(rows, rng)
            continue
        u = ut / nu
        prev = sigma
        sigma = float(nu)
        if abs(sigma - prev) < tol:
            break
    state.u = u
    state.v = v
    state.sigma_estimate = sigma
    return state


def spectral_normalize(m: np.ndarray, c: float, state: PowerIterState) -> np.ndarray:
    """Rescale ``m`` so its largest singular value is at most ``c``.

    Returns ``m * c/sigma`` when ``c/sigma < 1``, otherwise ``m`` unchanged;
    a zero matrix (sigma = 0) is returned unchanged. ``state`` must describe
    ``m`` (converged estimate); after scaling, its ``sigma_estimate`` is
    rescaled so the state describes the returned matrix.
    """
    a = as_matrix(m)
    if not (0.0 < c <= 1.0):
        raise ValueError(f"Lipschitz target c must be in (0, 1], got {c}")
    state.check_shape(a)
    sigma = state.sigma_estimate
    if sigma == 0.0:
        return a
    scale = c / sigma
    if scale < 1.0:
        out = a * a.dtype.type(scale)
        state.sigma_estimate = sigma * scale
        return out
    return a


def exact_svd_oracle(m: np.ndarray) -> np.ndarray:
    """All singular values of a small matrix, descending.

    A direct LAPACK SVD in float64, independent of power iteration.
    Restricted to min(rows, cols) <= 64; this is a test oracle, not a
    production path.
    """
    a = as_matrix(m).astype(np.float64, copy=False)
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
    return kernels.lu_logabsdet_kernel(a.astype(np.float64, copy=False))
