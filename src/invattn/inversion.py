"""Fixed-point inversion of residual blocks, empirical Lipschitz estimation,
and convergence diagnostics.

Inverting z = x + g(x) means finding a fixed point of G(x) = z - g(x),
starting from x = z. Plain iteration x <- G(x) converges when g is a
contraction. The solver accelerates it with Anderson mixing (Walker & Ni,
SIAM J. Numer. Anal. 49(4), 2011): each step combines the G values of the
last few iterates with the weights, summing to 1, that minimize the
matching combination of residuals f = G(x) - x in least squares, a
multisecant quasi-Newton step. An image whose residual did not shrink has
its history cleared and takes the plain step. The residual reported per
step is the max-abs fixed-point defect z - x - g(x) at the iterate; for a
c-contraction g it bounds that iterate's error by a 1/(1-c) factor, mixed
step or not.

The solver takes only a (B, C, H, W) stack of grids; :func:`roundtrip`
passes one grid as a stack of one. The stack is inverted in lockstep: each
step is one branch call on the images still iterating, every image keeps
its own history, iteration count, residual, trace and divergence flag, and
an image that converges or diverges leaves the stack, so the others are
unaffected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .attention import AttentionBlock, FeatureGrid, as_grid, make_residual_branch, residual_forward
from .errors import NonFiniteError
from .logdet import jvp

_PERTURBATION_SCALES = (1e-3, 1e-1, 1.0)
_LOCAL_ITERS = 12  # power-iteration rounds per local probe
_LOCAL_EPS = 1e-4  # central-difference step of a local probe
_HISTORY = 5  # Anderson history: the residual differences fitted per step
_RIDGE = 1e-14  # relative raise of the Gram diagonal, so a rank-deficient history still solves


@dataclass
class InversionConfig:
    """Iteration budget and stopping rule for fixed-point inversion.

    ``early_stop_tol`` applies to the max-abs residual |G(x) - x| of an
    iterate; 0 disables early stopping and reproduces the fixed-N behavior.
    """

    max_iters: int = 100
    early_stop_tol: float = 1e-10
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 <= self.early_stop_tol < math.inf:  # also refuses NaN
            raise ValueError(f"early_stop_tol must be finite and >= 0, got {self.early_stop_tol}")


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


def _branch_step(g: Callable[[FeatureGrid], FeatureGrid], xs: np.ndarray) -> np.ndarray:
    """One branch call on a stack. When the stacked call raises, the step is
    rerun image by image, so only the images that fail are blamed; their
    output rows are NaN.
    """
    try:
        return np.asarray(g(xs))
    except (NonFiniteError, FloatingPointError):
        if len(xs) == 1:
            return np.full_like(xs, np.nan)
    return np.concatenate([_branch_step(g, xs[j : j + 1]) for j in range(len(xs))])


def _mix_weights(system: np.ndarray, unit_sum: np.ndarray, slot: int) -> np.ndarray:
    """Solve a stack of bordered least-squares systems for their mixing
    weights. When the stacked solve meets a singular system, the solve is
    rerun system by system, and a singular one puts all weight on ``slot``:
    its image takes the plain step.
    """
    try:
        return np.linalg.solve(system, unit_sum)
    except np.linalg.LinAlgError:
        if len(system) == 1:
            plain = np.zeros((1,) + unit_sum.shape)
            plain[0, slot] = 1.0
            return plain
    return np.concatenate([_mix_weights(system[j : j + 1], unit_sum, slot) for j in range(len(system))])


def fixed_point_invert(
    z: FeatureGrid,
    g: Callable[[FeatureGrid], FeatureGrid],
    cfg: InversionConfig | None = None,
) -> tuple[FeatureGrid, InversionReport]:
    """Invert z = x + g(x) by Anderson-accelerated iteration of G(x) = z - g(x).

    ``z`` is a (B, C, H, W) stack; any other shape is refused (pass one grid
    as a stack of one). The solve starts at x = z, and step k calls ``g``
    once on the stack of images still iterating. An image stops once its
    residual max |G(x_k) - x_k| is below the early-stop tolerance, or the
    budget is spent, and returns G(x_k). Otherwise it takes the mixed step
    x <- G(x_k) - dG gamma: dG and dF hold the differences of G and of the
    residual f = G(x) - x over its last ``_HISTORY`` steps, and gamma fits f
    by dF in least squares. The step is computed as the combination
    sum_i a_i G(x_i), with weights summing to 1, of the iterates that
    minimizes |sum_i a_i f_i|; with no history it is the plain step
    x <- G(x_k). An image whose residual did not shrink since its last step
    has its history cleared and takes the plain step.

    Each image keeps its own history, iteration count, residual, trace and
    divergence flag, no reduction mixes images, and an image leaves the
    stack once it converges, so its result equals a solve of that image
    alone whenever ``g`` maps a stack grid by grid. An image has converged
    when its final residual is at most ten times the early-stop tolerance,
    as it is whenever it stopped early. For a c-contraction g, every x has
    |x - x*| <= |G(x) - x| / (1 - c), so the residual bounds the error of
    the last iterate whichever step reached it.

    An image whose branch output or iterate is non-finite, or whose branch
    call raises, diverges at its own iteration: its slot is NaN, its report
    says ``diverged`` with that iteration in ``iterations_used``, and the
    other images go on. A bad answer is never returned silently.
    """
    z = as_grid(z)
    if z.ndim != 4:
        raise ValueError(f"fixed_point_invert takes a (B, C, H, W) stack, got shape {z.shape}")
    cfg = cfg or InversionConfig()
    n, dim, points = z.shape[0], z[0].size, _HISTORY + 1
    iterations = np.zeros(n, dtype=int)
    diffs = np.full(n, np.inf)
    failed = np.zeros(n, dtype=bool)
    traces = [[] if cfg.record_trace else None for _ in range(n)]
    # the images still iterating, their targets and their iterates; an image
    # that leaves the stack has its last G(x) written to x
    active, za, xa = np.arange(n), z, z
    x = np.empty_like(z)
    # The history of the images still iterating, in ring slots shared by all
    # of them: G(x) and f = G(x) - x at their last `points` iterates, and the
    # bordered system of the weights, the Gram matrix of the f's (diagonal
    # raised by _RIDGE) beside a unit-sum row and column. An empty slot has
    # a zero f, an identity row and a zero border, so its weight solves to
    # 0 with no mask.
    g_hist = np.zeros((n, points, dim))
    f_hist = np.zeros((n, points, dim))
    empty = np.eye(points + 1)
    empty[points, points] = 0.0
    system = np.tile(empty, (n, 1, 1))
    unit_sum = np.eye(points + 1)[:, points:]
    diff_prev = np.full(n, np.inf)
    # an expansive or overflowing g is expected here: its non-finite rows
    # are caught by the finite check below, so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.max_iters):
            slot = i % points
            g_x = g_hist[:, slot].reshape(za.shape)
            np.subtract(za, _branch_step(g, xa), out=g_x)
            f = f_hist[:, slot]
            np.subtract(g_hist[:, slot], xa.reshape(f.shape), out=f)
            diff = np.abs(f).max(axis=1)  # NaN where f has a NaN
            ok = np.isfinite(diff)
            iterations[active] = i + 1
            diffs[active] = np.where(ok, diff, np.inf)
            failed[active[~ok]] = True
            if cfg.record_trace:
                for image in active[ok]:
                    traces[image].append(float(diffs[image]))
            # the last step's G(x) is every remaining image's answer
            stay = ok & (diff >= cfg.early_stop_tol) & (i + 1 < cfg.max_iters)
            if not stay.all():
                x[active[~stay]] = g_x[~stay]
                active = active[stay]
                if not active.size:
                    break
                za, g_hist, f_hist, system = za[stay], g_hist[stay], f_hist[stay], system[stay]
                diff, diff_prev, f = diff[stay], diff_prev[stay], f_hist[:, slot]
            grew = diff >= diff_prev
            if grew.any():
                f_hist[np.ix_(grew, np.arange(points) != slot)] = 0.0
                system[grew] = empty
            col = np.matmul(f_hist, f[..., None])[..., 0]
            system[:, slot, :points] = col
            system[:, :points, slot] = col
            system[:, slot, slot] *= 1.0 + _RIDGE
            system[:, slot, points] = system[:, points, slot] = 1.0
            weights = _mix_weights(system, unit_sum, slot)[:, :points]
            xa = np.matmul(weights.swapaxes(1, 2), g_hist).reshape(za.shape)
            diff_prev = diff
    x[failed] = np.nan
    reports = [
        InversionReport(
            iterations_used=int(iterations[j]),
            final_residual=float(diffs[j]),
            converged=bool(diffs[j] <= cfg.early_stop_tol * 10.0),
            diverged=bool(failed[j]),
            trace=traces[j],
        )
        for j in range(n)
    ]
    report = InversionReport(
        iterations_used=int(iterations.max()),
        final_residual=max(r.final_residual for r in reports),
        converged=all(r.converged for r in reports),
        diverged=bool(failed.any()),
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
    local_probes: int = 0,
) -> LipschitzEstimate:
    """Max L2 ratio ||g(x1)-g(x2)|| / ||x1-x2|| over sampled pairs.

    Every fourth pair is independent; the rest perturb a base sample at
    scales 1e-3, 1e-1, and 1 to probe local slopes, since independent
    sampling alone badly underestimates sup ratios in high dimension.
    ``local_probes`` base points each run ``_LOCAL_ITERS`` rounds of power
    iteration on the local Jacobian J (:func:`~invattn.logdet.jvp` of step
    ``_LOCAL_EPS`` on a stack of one direction, which ``g`` must then map),
    probing each round's direction as a pair too. Power iteration on J
    alone heads for J's dominant eigenvector, not its top singular vector,
    so the result is a sampled lower bound on the Lipschitz constant, never
    a spectral norm. Coincident pairs are skipped, never divided by.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    best_token = "none"
    evaluated = 0

    def consider(x1: np.ndarray, x2: np.ndarray, token: str, g1: np.ndarray | None = None) -> None:
        nonlocal best, best_token, evaluated
        denom = float(np.linalg.norm((x1 - x2).ravel()))
        if denom == 0.0:
            return
        if g1 is None:
            g1 = g(x1)
        ratio = float(np.linalg.norm((g1 - g(x2)).ravel())) / denom
        evaluated += 1
        if ratio > best:
            best = ratio
            best_token = token

    for p in range(pairs):
        x1 = domain_sampler(rng)
        mode = p % 4
        if mode == 0:
            x2 = domain_sampler(rng)
        else:
            eps = _PERTURBATION_SCALES[mode - 1]
            x2 = x1 + eps * rng.standard_normal(x1.shape)
        consider(x1, x2, f"{seed}:{p}")
    for probe in range(local_probes):
        x1 = domain_sampler(rng)
        direction = rng.standard_normal(x1.shape)
        direction /= np.linalg.norm(direction.ravel())
        g1 = g(x1)  # one evaluation at the base point serves every round
        for it in range(_LOCAL_ITERS):
            consider(x1, x1 + _LOCAL_EPS * direction, f"{seed}:local:{probe}:{it}", g1)
            jv = jvp(g, x1, direction[None], _LOCAL_EPS)[0]
            nrm = float(np.linalg.norm(jv.ravel()))
            if nrm == 0.0:
                break
            direction = jv / nrm
    return LipschitzEstimate(sample_pairs=evaluated, sup_ratio=best, argmax_pair_seed=best_token)


def mse_0_255(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference of two [0, 1] arrays after scaling to 0-255,
    the scale on which reports state reconstruction error."""
    return float(np.mean((255.0 * (np.asarray(a, dtype=np.float64) - b)) ** 2))


def roundtrip(
    x: FeatureGrid,
    block: AttentionBlock,
    cfg: InversionConfig | None = None,
) -> tuple[FeatureGrid | None, InversionReport]:
    """Forward through the block, invert, and measure reconstruction.

    ``x`` is one grid or a stack; one grid is solved as a stack of one. The
    stack is inverted in lockstep (see :func:`fixed_point_invert`), each
    report in ``report.images`` carries its image's MSE, and the stack
    report carries the largest. An image that diverges mid-iteration has
    ``diverged=True``, infinite residual and MSE, and its trace up to the
    divergence, as it would alone; its slot in a stack is NaN. One grid
    returns its own reconstruction (None if it diverged) and its image
    report. It is the caller's contract that the block is invertible.
    """
    x = as_grid(x)
    single = x.ndim == 3
    xs = x[None] if single else x
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported, not warned of
        xhat, report = fixed_point_invert(residual_forward(xs, block), make_residual_branch(block), cfg)
        for j, r in enumerate(report.images):
            r.reconstruction_mse = math.inf if r.diverged else mse_0_255(xs[j], xhat[j])
    report.reconstruction_mse = max(r.reconstruction_mse for r in report.images)
    if single:
        return (None if report.diverged else xhat[0]), report.images[0]
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


def report_to_record(report: InversionReport, index: int, **extra) -> dict:
    """Flatten the report of input ``index`` into a JSON-serializable record."""
    return {
        "index": index,
        "iterations": report.iterations_used,
        "final_residual": report.final_residual,
        "converged": report.converged,
        "diverged": report.diverged,
        "mse": report.reconstruction_mse,
        **extra,
    }


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """One record per line; non-finite floats use the Python JSON dialect."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_records(path: str | Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
