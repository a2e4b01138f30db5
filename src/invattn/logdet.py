"""Matrix-free log-determinant estimation for invertible residual blocks.

For f(x) = x + g(x) with a contractive branch, ln|det J_f| equals the
alternating power series sum_k (-1)^(k+1) tr(J_g^k)/k. Traces are estimated
stochastically with Hutchinson probes, and no autodiff is involved. For an
attention block the series applies the exact J_g(x) of
:func:`~invattn.attention.linearize`, which lives beside the branch it
differentiates: this module holds no per-kind code. :func:`jvp`, the one
central finite difference, is the independent reference: the dense oracle,
:func:`logdet_series_from_branch` (any branch callable) and the Lipschitz
local probes use it. All probes advance in lockstep, each series step one
J_g over the whole probe stack, split by ``attention._in_stacks``. The
exact oracle, up to :data:`DENSE_ORACLE_MAX_DIM`, is LU of I + J_g, the
columns of J_g being one JVP along the unit vectors.

Every branch callable passed here must map a (B, C, H, W) stack of grids
to the stack of its per-grid outputs; every direction argument is a
(P, C, H, W) stack, one direction being a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import AttentionBlock, FeatureGrid, _in_stacks, as_grid, linearize, make_residual_branch
from .errors import InvariantViolation
from .linalg import lu_logabsdet

DENSE_ORACLE_MAX_DIM = 768
"""Largest dimension d the dense-Jacobian log-det oracle accepts."""
FD_STEP = 1e-5
"""Central-difference step of :func:`logdet_series_from_branch` and the
dense oracle."""


@dataclass
class LogDetConfig:
    """Series truncation, Rademacher probe count, and probe seed for the
    estimator; the finite-difference paths step by :data:`FD_STEP`."""

    series_terms: int = 10
    hutchinson_samples: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.series_terms < 1:
            raise ValueError("series_terms must be >= 1")
        if self.hutchinson_samples < 1:
            raise ValueError("hutchinson_samples must be >= 1")


@dataclass
class LogDetEstimate:
    """Series estimate with per-term audit trail.

    ``value`` is exactly the sum of ``per_term_contributions``;
    ``sample_variance`` is the ddof-1 variance of the per-probe series
    totals; ``divergence_warning`` flags a non-decaying tail (last term at
    least as large as the first), the symptom of a branch outside the
    series' validity region.
    """

    value: float
    per_term_contributions: list[float]
    sample_variance: float
    divergence_warning: bool = False


def jvp(
    g: Callable[[FeatureGrid], FeatureGrid],
    x: FeatureGrid,
    v: np.ndarray,
    eps: float = FD_STEP,
) -> np.ndarray:
    """Central-difference directional derivatives J_g(x) V.

    ``x`` is one grid and ``v`` a stack of directions of shape
    ``(P,) + x.shape``; one direction is passed as a stack of one. The stack
    goes to ``g`` in the stacks of ``attention._in_stacks``, as the
    linearized apply's does. Exact for linear maps; O(eps^2) truncation
    error otherwise. Non-finite output of ``g`` raises
    :class:`FloatingPointError`.
    """
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    x = as_grid(x)
    v = np.asarray(v)
    if v.shape[1:] != x.shape:
        raise ValueError(f"direction stack shape {v.shape} is not (P,) + {x.shape}")
    if not np.isfinite(v).all():
        raise ValueError("direction contains non-finite entries")

    def central(directions: np.ndarray) -> np.ndarray:
        step = eps * directions
        return (g(x + step) - g(x - step)) / (2.0 * eps)

    return _in_stacks(central, v, f"g during JVP (eps={eps})")


def _probe_trace_samples(
    apply: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    k: int,
) -> np.ndarray:
    """Trace samples v0' (J_g^j v0) for j = 1..k of a (P, C, H, W) probe
    stack, as a (P, k) array; ``apply`` maps a direction stack to J_g V.

    All probes take each step together, one ``apply`` on their stack; all
    arithmetic is per probe. Each probe is renormalized between applications
    so nested finite differences stay at unit scale; its magnitude is
    carried in log space. A probe whose step has zero norm keeps zero
    samples from that step on: every later power is exactly zero. The other
    probes go on.
    """
    n_probes = v0.shape[0]
    flat0 = v0.reshape(n_probes, -1)
    samples = np.zeros((n_probes, k))
    norms = np.linalg.norm(flat0, axis=1)
    live = norms > 0.0
    scale = np.where(live, norms, 1.0)  # a zero-norm row is all zeros
    log_mag = np.log(scale)
    w = flat0 / scale[:, None]
    for j in range(k):
        if not live.any():
            break
        u = apply(w.reshape(v0.shape)).reshape(n_probes, -1)
        norms = np.linalg.norm(u, axis=1)
        live &= norms > 0.0
        scale = np.where(live, norms, 1.0)
        w = u / scale[:, None]
        log_mag += np.log(scale)
        samples[live, j] = np.exp(log_mag[live]) * np.einsum("pi,pi->p", flat0[live], w[live])
    return samples


def _series_estimate(
    apply: Callable[[np.ndarray], np.ndarray],
    shape: tuple[int, ...],
    cfg: LogDetConfig,
) -> LogDetEstimate:
    rng = np.random.default_rng(cfg.seed)
    n_terms = cfg.series_terms
    n_probes = cfg.hutchinson_samples
    probes = (rng.integers(0, 2, size=(n_probes,) + shape) * 2 - 1).astype(np.float64)  # Rademacher
    samples = _probe_trace_samples(apply, probes, n_terms)
    powers = np.arange(1, n_terms + 1)
    signs = np.where(powers % 2 == 1, 1.0, -1.0)
    term_samples = signs * samples / powers
    per_term = term_samples.mean(axis=0)
    totals = term_samples.sum(axis=1)
    variance = float(totals.var(ddof=1)) if n_probes > 1 else 0.0
    contributions = [float(t) for t in per_term]
    value = float(sum(contributions))
    warn = n_terms >= 2 and abs(contributions[-1]) > abs(contributions[0])
    return LogDetEstimate(
        value=value,
        per_term_contributions=contributions,
        sample_variance=variance,
        divergence_warning=warn,
    )


def logdet_series_from_branch(
    branch: Callable[[FeatureGrid], FeatureGrid],
    x: FeatureGrid,
    cfg: LogDetConfig | None = None,
) -> LogDetEstimate:
    """Truncated alternating series for ln|det J_f(x)| of f(x) = x + g(x).

    ``branch`` is g, not f, and must map a (P, C, H, W) stack of grids: each
    series step is one :func:`jvp` (step :data:`FD_STEP`) over all
    probes. Valid when the branch Jacobian has spectral norm below 1; the
    per-term trail lets callers audit decay.
    """
    x = as_grid(x)
    return _series_estimate(lambda v: jvp(branch, x, v, FD_STEP), x.shape, cfg or LogDetConfig())


def logdet_series(
    block: AttentionBlock,
    x: FeatureGrid,
    cfg: LogDetConfig | None = None,
) -> LogDetEstimate:
    """Series estimate for an invertible-variant attention block at ``x``:
    the probes of :func:`logdet_series_from_branch`, each step applying
    :func:`linearize` (which refuses any other variant) instead of a finite
    difference."""
    x = as_grid(x)
    return _series_estimate(linearize(block, x), x.shape, cfg or LogDetConfig())


def brute_force_logdet_from_branch(branch: Callable[[FeatureGrid], FeatureGrid], x: FeatureGrid) -> float:
    """Exact ln|det J_f(x)| for f = id + branch: LU of I + J_g, the columns
    of J_g being one :func:`jvp` of ``branch`` (step :data:`FD_STEP`) along
    the unit vectors.

    ``branch`` must map a (B, C, H, W) stack of grids; non-finite output
    raises :class:`FloatingPointError`. Asserts the determinant sign is +1,
    the falsifiable consequence of the contraction bound; a violated bound
    raises :class:`InvariantViolation`. Dimension capped at
    :data:`DENSE_ORACLE_MAX_DIM` (this is an oracle, not a production path).
    """
    x = as_grid(x).astype(np.float64, copy=False)
    dim = x.size
    if dim > DENSE_ORACLE_MAX_DIM:
        raise ValueError(f"brute_force_logdet is limited to d <= {DENSE_ORACLE_MAX_DIM}, got {dim}")
    columns = jvp(branch, x, np.eye(dim).reshape((dim,) + x.shape), FD_STEP)
    logabs, sign = lu_logabsdet(np.eye(dim) + columns.reshape(dim, dim).T)
    if sign != 1:
        raise InvariantViolation(
            f"Jacobian determinant sign {sign:+d}, expected +1 under the contraction bound"
        )
    return logabs


def brute_force_logdet(block: AttentionBlock, x: FeatureGrid) -> float:
    """Dense-Jacobian oracle for an attention block's full map x + g(x)."""
    return brute_force_logdet_from_branch(make_residual_branch(block), x)
