"""Fixed-point inversion of residual blocks, empirical Lipschitz estimation,
and convergence diagnostics.

Inverting z = x + g(x) iterates x <- z - g(x) from x = z; when g is a
contraction with factor c < 1 the iterate error shrinks by at least c per
step. The residual reported per step is the max-abs fixed-point defect
z - x - g(x), which equals the successive-iterate difference and bounds the
remaining reconstruction error by a 1/(1-c) factor.

A (B, C, H, W) stack of grids is inverted in lockstep: each step is one
branch call on the images still iterating, every image keeps its own
iteration count, residual, trace and divergence flag, and an image that
converges or diverges leaves the stack, so the others are unaffected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .attention import AttentionBlock, FeatureGrid, as_grid, make_residual_branch, residual_forward
from .errors import DivergenceError, NonFiniteError

_PERTURBATION_SCALES = (1e-3, 1e-1, 1.0)
_LOCAL_ITERS = 12  # power-iteration rounds per local probe
_LOCAL_EPS = 1e-4  # central-difference step of a local probe


@dataclass
class InversionConfig:
    """Iteration budget and stopping rule for fixed-point inversion.

    ``early_stop_tol`` applies to the successive-iterate max-abs difference;
    0 disables early stopping and reproduces the fixed-N behavior.
    """

    max_iters: int = 100
    early_stop_tol: float = 1e-10
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.early_stop_tol < 0.0:
            raise ValueError("early_stop_tol must be >= 0")


@dataclass
class InversionReport:
    """Inversion outcome of one grid, or of a stack of grids.

    For a stack, ``iterations_used`` counts lockstep steps, ``final_residual``
    is the largest image residual, ``converged`` holds only when every image
    converged, ``diverged`` is set when any image diverged, and ``images``
    holds the per-image reports.
    """

    iterations_used: int
    final_residual: float
    converged: bool
    reconstruction_mse: float | None = None
    diverged: bool = False
    trace: list[float] | None = None
    images: list[InversionReport] | None = None


def _branch_step(
    g: Callable[[FeatureGrid], FeatureGrid], xs: np.ndarray
) -> tuple[np.ndarray, dict[int, Exception]]:
    """One branch call on a stack, and the error of each image that raised.

    When the stacked call raises, the step is rerun image by image, so only
    the images that fail are blamed; their output rows are NaN.
    """
    try:
        return np.asarray(g(xs)), {}
    except (NonFiniteError, FloatingPointError) as err:
        if len(xs) == 1:
            return np.full_like(xs, np.nan), {0: err}
    rows = [_branch_step(g, xs[j : j + 1]) for j in range(len(xs))]
    errors = {j: err[0] for j, (_, err) in enumerate(rows) if err}
    return np.concatenate([gx for gx, _ in rows]), errors


def fixed_point_invert(
    z: FeatureGrid,
    g: Callable[[FeatureGrid], FeatureGrid],
    cfg: InversionConfig | None = None,
) -> tuple[FeatureGrid, InversionReport]:
    """Invert z = x + g(x) by iterating x <- z - g(x).

    ``z`` is one (C, H, W) grid or a (B, C, H, W) stack; a grid is solved as
    a stack of one. A stack is solved in lockstep: each step is one call of
    ``g``, which must then map a stack, on the images still iterating. Each
    image keeps its own iteration count, residual, trace and divergence
    flag, and leaves the stack once it converges, so its result equals a
    solve of that image alone whenever ``g`` maps a stack grid by grid.

    An image whose branch output or iterate is non-finite, or whose branch
    call raises, diverges at its own iteration: for one grid this raises
    :class:`DivergenceError` carrying the iteration index; in a stack the
    image's slot is NaN, its report says ``diverged``, and the other images
    go on. A bad answer is never returned silently.
    """
    z = as_grid(z)
    if cfg is None:
        cfg = InversionConfig()
    single = z.ndim == 3
    zs = z[None] if single else z
    # one grid reaches g as a grid, so g need not map stacks to solve one
    step = (lambda xs: g(xs[0])[None]) if single else g
    n = zs.shape[0]
    iterations = np.zeros(n, dtype=int)
    diffs = np.full(n, np.inf)
    early = np.zeros(n, dtype=bool)
    traces = [[] if cfg.record_trace else None for _ in range(n)]
    failures: dict[int, DivergenceError] = {}
    # the images still iterating, their targets and their iterates; an image
    # that leaves the stack has its last iterate written to x
    active, za, xa = np.arange(n), zs, zs
    x = None
    for i in range(cfg.max_iters):
        gx, errors = _branch_step(step, xa)
        x_next = za - gx
        if x is None:
            x = np.empty(zs.shape, dtype=x_next.dtype)
        rows = len(active)
        ok = np.isfinite(x_next.reshape(rows, -1)).all(axis=1)
        diff = np.abs(x_next - xa).reshape(rows, -1).max(axis=1).astype(np.float64)
        iterations[active] = i + 1
        diffs[active] = diff
        for row in np.flatnonzero(~ok):
            if row in errors:
                err = DivergenceError(f"residual branch diverged: {errors[row]}", iteration=i + 1)
                err.__cause__ = errors[row]
            elif not np.isfinite(gx[row]).all():
                err = DivergenceError("residual branch produced non-finite values", iteration=i + 1)
            else:
                err = DivergenceError("iterate overflowed", iteration=i + 1)
            failures[int(active[row])] = err
            diffs[active[row]] = np.inf
        if cfg.record_trace:
            for image in active[ok]:
                traces[image].append(float(diffs[image]))
        stay = ok & (diff >= cfg.early_stop_tol)
        if not stay.all():
            early[active[ok & ~stay]] = True
            x[active[~stay]] = x_next[~stay]
            active, za, x_next = active[stay], za[stay], x_next[stay]
        xa = x_next
        if not active.size:
            break
    x[active] = xa
    if single and failures:
        raise failures[0]
    reports = [
        InversionReport(
            iterations_used=int(iterations[j]),
            final_residual=float(diffs[j]),
            converged=bool(early[j] or diffs[j] <= cfg.early_stop_tol * 10.0),
            diverged=j in failures,
            trace=traces[j],
        )
        for j in range(n)
    ]
    if single:
        return x[0], reports[0]
    x[list(failures)] = np.nan
    report = InversionReport(
        iterations_used=int(iterations.max()),
        final_residual=max(r.final_residual for r in reports),
        converged=all(r.converged for r in reports),
        diverged=bool(failures),
        images=reports,
    )
    return x, report


@dataclass
class LipschitzEstimate:
    """Empirical supremum of pairwise L2 ratios; a lower bound on the true
    Lipschitz constant (random sampling cannot certify an upper bound)."""

    sample_pairs: int
    sup_ratio: float
    argmax_pair_seed: str


def normal_sampler(shape: Sequence[int]) -> Callable[[np.random.Generator], FeatureGrid]:
    """Standard-normal grid sampler for :func:`estimate_lipschitz`."""
    dims = tuple(shape)

    def sample(rng: np.random.Generator) -> FeatureGrid:
        return rng.standard_normal(dims)

    return sample


def estimate_lipschitz(
    g: Callable[[FeatureGrid], FeatureGrid],
    domain_sampler: Callable[[np.random.Generator], FeatureGrid],
    pairs: int = 2000,
    seed: int = 0,
    extra_pairs: Iterable[tuple[np.ndarray, np.ndarray]] = (),
    local_probes: int = 0,
) -> LipschitzEstimate:
    """Max L2 ratio ||g(x1)-g(x2)|| / ||x1-x2|| over sampled pairs.

    Every fourth pair is independent; the rest perturb a base sample at
    scales 1e-3, 1e-1, and 1 to probe local slopes, since independent
    sampling alone badly underestimates sup ratios in high dimension.
    ``extra_pairs`` lets callers inject known worst-case directions (e.g.
    the top singular vector from power iteration), and ``local_probes``
    base points each run ``_LOCAL_ITERS`` rounds of power iteration on the
    local Jacobian (central differences of step ``_LOCAL_EPS``) so the
    dominant directions are probed as pairs too. Coincident pairs are
    skipped, never divided by.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    best_token = "none"
    evaluated = 0

    def consider(x1: np.ndarray, x2: np.ndarray, token: str) -> None:
        nonlocal best, best_token, evaluated
        denom = float(np.linalg.norm((x1 - x2).ravel()))
        if denom == 0.0:
            return
        ratio = float(np.linalg.norm((g(x1) - g(x2)).ravel())) / denom
        evaluated += 1
        if ratio > best:
            best = ratio
            best_token = token

    for i, (x1, x2) in enumerate(extra_pairs):
        consider(np.asarray(x1), np.asarray(x2), f"extra:{i}")
    for p in range(pairs):
        x1 = domain_sampler(rng)
        mode = p % 4
        if mode == 0:
            x2 = domain_sampler(rng)
        else:
            eps = _PERTURBATION_SCALES[mode - 1]
            x2 = x1 + eps * rng.standard_normal(x1.shape).astype(x1.dtype, copy=False)
        consider(x1, x2, f"{seed}:{p}")
    for probe in range(local_probes):
        x1 = domain_sampler(rng)
        direction = rng.standard_normal(x1.shape)
        direction /= np.linalg.norm(direction.ravel())
        for it in range(_LOCAL_ITERS):
            consider(x1, x1 + _LOCAL_EPS * direction, f"{seed}:local:{probe}:{it}")
            jv = (g(x1 + _LOCAL_EPS * direction) - g(x1 - _LOCAL_EPS * direction)) / (2.0 * _LOCAL_EPS)
            nrm = float(np.linalg.norm(jv.ravel()))
            if nrm == 0.0:
                break
            direction = jv / nrm
    return LipschitzEstimate(sample_pairs=evaluated, sup_ratio=best, argmax_pair_seed=best_token)


def _mse_0_255(a: np.ndarray, b: np.ndarray) -> float:
    # reconstruction error on the 0-255 RGB scale, as reports promise
    return float(np.mean((255.0 * (np.asarray(a, dtype=np.float64) - b)) ** 2))


def _diverged_report(iteration: int) -> InversionReport:
    return InversionReport(
        iterations_used=iteration,
        final_residual=np.inf,
        converged=False,
        reconstruction_mse=np.inf,
        diverged=True,
        trace=None,
    )


def roundtrip(
    x: FeatureGrid,
    block: AttentionBlock,
    cfg: InversionConfig | None = None,
) -> tuple[FeatureGrid | None, InversionReport]:
    """Forward through the block, invert, and measure reconstruction.

    ``x`` is one grid or a stack; a stack is inverted in lockstep (see
    :func:`fixed_point_invert`), each report in ``report.images`` carries its
    image's MSE, and the stack report carries the largest. A mid-iteration
    divergence gives a report with ``diverged=True`` and infinite
    residual/MSE, as it would for that image alone; the reconstruction of
    one grid is then None, and a diverged image's slot in a stack is NaN.
    It is the caller's contract that the block is invertible.
    """
    x = as_grid(x)
    z = residual_forward(x, block)
    branch = make_residual_branch(block)
    if cfg is None:
        cfg = InversionConfig()
    try:
        xhat, report = fixed_point_invert(z, branch, cfg)
    except DivergenceError as err:
        return None, _diverged_report(err.iteration)
    if report.images is None:
        report.reconstruction_mse = _mse_0_255(x, xhat)
        return xhat, report
    for j, r in enumerate(report.images):
        if r.diverged:
            report.images[j] = _diverged_report(r.iterations_used)
        else:
            r.reconstruction_mse = _mse_0_255(x[j], xhat[j])
    report.reconstruction_mse = max(r.reconstruction_mse for r in report.images)
    return xhat, report


def roundtrip_check(
    x: FeatureGrid,
    block: AttentionBlock,
    cfg: InversionConfig | None = None,
) -> InversionReport:
    """Report-only variant of :func:`roundtrip`."""
    return roundtrip(x, block, cfg)[1]


# ---------------------------------------------------------------------------
# Line-delimited report serialization (one JSON record per input)
# ---------------------------------------------------------------------------


def report_to_record(report: InversionReport, index: int | None = None, **extra) -> dict:
    """Flatten a report into a JSON-serializable record."""
    record: dict = {}
    if index is not None:
        record["index"] = index
    record.update(
        iterations=report.iterations_used,
        final_residual=report.final_residual,
        converged=report.converged,
        diverged=report.diverged,
        mse=report.reconstruction_mse,
    )
    record.update(extra)
    return record


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """One record per line; non-finite floats use the Python JSON dialect."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_records(path: str | Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
