"""Residual attention blocks over feature grids.

A feature grid is a plain ``(channels, height, width)`` float array; its
``positions x channels`` matrix view (one row per spatial position) is what
the response and feature maps act on. The maps up to the residual branch
also take a ``(batch, channels, height, width)`` stack of grids and act on
each grid of it independently; one grid is a stack with no leading axis.
Four response kinds are supported (gaussian, embedded, dot, concat), each in
a non-invertible and an invertible variant. The invertible variant wraps raw
scores so they are nonnegative, normalizes response columns to sum to one
(making the matrix L1 norm exactly 1), and bounds the focus and output 1x1
convolutions by a spectral target c, so the residual branch is empirically
contractive and the block f(x) = x + g(x) can be inverted by fixed-point
iteration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, NonFiniteError
from .linalg import PowerIterState, as_matrix, power_iteration, spectral_normalize

FeatureGrid = np.ndarray

KINDS = ("gaussian", "embedded", "dot", "concat")
VARIANTS = ("invertible", "noninvertible")
PHI_CHOICES = ("softplus", "relu", "elu")
_EXP_KINDS = ("gaussian", "embedded")

BLOCK_FORMAT = "invattn-block"
BLOCK_FORMAT_VERSION = 1
# A stacked branch call holds a few (grids, m, m) responses: cap grids * m^2 so
# that each stays within 4 MB in float64. Past 64 grids the per-call overhead is
# already spread thin, and a larger stack only adds memory and cache misses.
_STACK_ELEMENTS = 2**19
_STACK_GRIDS = 64

_REFRESH_ITERS = 5  # power-iteration steps when re-normalizing from a kept state


# ---------------------------------------------------------------------------
# Feature grids
# ---------------------------------------------------------------------------


def as_grid(x: np.ndarray) -> FeatureGrid:
    """Validate a (C, H, W) grid, or a (B, C, H, W) stack of grids, of finite reals."""
    a = np.asarray(x)
    if a.ndim not in (3, 4):
        raise ValueError(f"expected a (C, H, W) grid or a (B, C, H, W) stack, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("empty grid")
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    if not np.isfinite(a).all():
        raise NonFiniteError("grid contains non-finite entries")
    return a


def grid_to_matrix(x: FeatureGrid) -> np.ndarray:
    """Positions-by-channels view of a grid (or stack); shares storage with ``x``."""
    channels = x.shape[-3]
    return x.reshape(x.shape[:-3] + (channels, -1)).swapaxes(-1, -2)


def matrix_to_grid(mat: np.ndarray, height: int, width: int) -> FeatureGrid:
    """Inverse of :func:`grid_to_matrix` for an (m, C) matrix or a stack of them."""
    if mat.shape[-2] != height * width:
        raise ValueError(f"matrix has {mat.shape[-2]} positions, grid wants {height * width}")
    return np.ascontiguousarray(mat.swapaxes(-1, -2)).reshape(
        mat.shape[:-2] + (mat.shape[-1], height, width)
    )


def _grids_per_call(shape: tuple[int, ...]) -> int:
    """How many grids of ``shape`` (height and width last) one stacked branch
    call may take; the log-det probes, the dense oracle and the experiment's
    image stacks all keep to it."""
    positions = shape[-2] * shape[-1]
    return max(1, min(_STACK_GRIDS, _STACK_ELEMENTS // positions**2))


# ---------------------------------------------------------------------------
# Nonnegative activations for invertible dot/concat responses
# ---------------------------------------------------------------------------


def apply_phi(x: np.ndarray, selector: str) -> np.ndarray:
    """Apply the selected activation; output is >= 0 for every real input."""
    if selector == "softplus":
        # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), in one buffer: stable at
        # both ends and cheaper than logaddexp
        out = np.abs(x)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        return np.add(out, x, out=out, where=x > 0.0)
    if selector == "relu":
        return np.maximum(x, 0.0)
    if selector == "elu":
        # shifted ELU: x+1 for x > 0, exp(x) otherwise; smooth at 0 and > 0
        return np.where(x > 0.0, x + 1.0, np.exp(np.minimum(x, 0.0)))
    raise ValueError(f"unknown phi selector {selector!r}; choose from {PHI_CHOICES}")


# ---------------------------------------------------------------------------
# Spectrally bounded 1x1 convolutions
# ---------------------------------------------------------------------------


@dataclass
class SpectralLinear:
    """A channel-mixing weight matrix (1x1 conv), optionally bound-enforced.

    ``bound`` is the Lipschitz target c; ``None`` leaves the weight
    unconstrained. :meth:`normalize` must run after any weight change and
    before forward use; with no training in this package that is once,
    at construction.
    """

    weight: np.ndarray
    bound: float | None = None
    state: PowerIterState | None = None

    def __post_init__(self) -> None:
        self.weight = as_matrix(self.weight)
        if self.bound is not None and not (0.0 < self.bound <= 1.0):
            raise ValueError(f"spectral bound must be in (0, 1], got {self.bound}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def normalize(self, seed: int = 0) -> None:
        """Refresh the sigma estimate and rescale the weight under the bound.

        The cold start runs power iteration to machine convergence so the
        enforced bound is tight and repeated calls are idempotent; a refresh
        runs a few more iterations from the kept state.
        """
        if self.bound is None:
            return
        dtype = self.weight.dtype
        w64 = self.weight.astype(np.float64, copy=False)
        if self.state is None:
            self.state = power_iteration(w64, None, iters=1000, tol=1e-15, seed=seed)
        else:
            power_iteration(w64, self.state, iters=_REFRESH_ITERS, tol=1e-15)
        self.weight = spectral_normalize(w64, self.bound, self.state).astype(dtype, copy=False)


def apply_1x1_conv(x: FeatureGrid, w: SpectralLinear) -> FeatureGrid:
    """Multiply every position's channel vector by the weight matrix.

    Positions are independent, so the Lipschitz constant of the grid map
    equals the largest singular value of the weight.
    """
    x = as_grid(x)
    if w.in_dim != x.shape[-3]:
        raise ValueError(f"conv expects {w.in_dim} channels, grid has {x.shape[-3]}")
    out = grid_to_matrix(x) @ w.weight.T
    return matrix_to_grid(out, x.shape[-2], x.shape[-1])


# ---------------------------------------------------------------------------
# Attention blocks
# ---------------------------------------------------------------------------


@dataclass
class AttentionBlock:
    """Configuration plus weights for one residual attention block.

    Weight roles: ``focus`` is the feature-map conv F; ``embed1``/``embed2``
    are the pairwise-response embeddings (absent for the gaussian kind);
    ``pair_scorer`` maps a concatenated embedding pair to a scalar score
    (concat kind only); ``last`` is the bounded output conv on the residual
    branch (invertible variant only).
    """

    kind: str
    variant: str
    focus: SpectralLinear
    last: SpectralLinear | None = None
    embed1: SpectralLinear | None = None
    embed2: SpectralLinear | None = None
    pair_scorer: np.ndarray | None = None
    c: float = 0.9
    phi: str = "softplus"
    logit_scale: float = 1.0
    column_sum_target: float = 1.0
    global_sum: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.phi not in PHI_CHOICES:
            raise ValueError(f"unknown phi {self.phi!r}; choose from {PHI_CHOICES}")
        if not (0.0 < self.c < 1.0):
            raise ValueError(f"c must be in (0, 1), got {self.c}")
        if not (0.0 < self.column_sum_target <= 1.0):
            raise ValueError(f"column_sum_target must be in (0, 1], got {self.column_sum_target}")
        needs_embed = self.kind != "gaussian"
        if needs_embed and (self.embed1 is None or self.embed2 is None):
            raise ValueError(f"kind {self.kind!r} requires embed1 and embed2")
        if not needs_embed and (self.embed1 is not None or self.embed2 is not None):
            raise ValueError("gaussian kind takes no embedding weights")
        if self.kind == "concat":
            if self.pair_scorer is None:
                raise ValueError("concat kind requires a pair_scorer")
            self.pair_scorer = as_matrix(self.pair_scorer)
            if self.pair_scorer.shape != (1, 2 * self.embed1.out_dim):
                raise ValueError(
                    f"pair_scorer shape {self.pair_scorer.shape} does not match "
                    f"(1, {2 * self.embed1.out_dim})"
                )
        elif self.pair_scorer is not None:
            raise ValueError("pair_scorer is only meaningful for the concat kind")
        if self.variant == "invertible":
            if self.last is None:
                raise ValueError("invertible variant requires the output conv (last)")
            if self.focus.bound is None or self.last.bound is None:
                raise ValueError("invertible variant requires bounded focus and last convs")
        elif self.last is not None:
            raise ValueError("noninvertible variant carries no output conv")

    @property
    def channels(self) -> int:
        return self.focus.in_dim

    def normalize_weights(self, seed: int = 0) -> None:
        """Enforce all spectral bounds; run before any forward fan-out."""
        for i, w in enumerate((self.focus, self.last, self.embed1, self.embed2)):
            if w is not None:
                w.normalize(seed=seed + i)


def build_block(
    kind: str,
    variant: str,
    channels: int,
    c: float = 0.9,
    phi: str = "softplus",
    seed: int = 0,
    dtype: np.dtype = np.float64,
    logit_scale: float = 1.0,
    column_sum_target: float = 1.0,
    global_sum: bool = False,
    constrain_embeddings: bool = False,
) -> AttentionBlock:
    """Construct a block with seeded uniform(-1/sqrt(fan_in), ..) weights,
    embeddings of width ``max(1, channels // 2)``, and every spectral bound
    enforced.

    ``constrain_embeddings`` additionally bounds the response-path weights
    (one of the invertibility-enhancement knobs); the default leaves them
    free, matching the relaxed conditions the invertible variant targets.
    """
    rng = np.random.default_rng(seed)
    invertible = variant == "invertible"

    def init(out_dim: int, in_dim: int) -> np.ndarray:
        scale = 1.0 / np.sqrt(in_dim)
        return rng.uniform(-scale, scale, size=(out_dim, in_dim)).astype(dtype)

    focus = SpectralLinear(init(channels, channels), bound=c if invertible else None)
    last = SpectralLinear(init(channels, channels), bound=c) if invertible else None
    embed_bound = c if (invertible and constrain_embeddings) else None
    embed1 = embed2 = None
    pair_scorer = None
    if kind != "gaussian":
        width = max(1, channels // 2)
        embed1 = SpectralLinear(init(width, channels), bound=embed_bound)
        embed2 = SpectralLinear(init(width, channels), bound=embed_bound)
        if kind == "concat":
            pair_scorer = init(1, 2 * width)
            if invertible and constrain_embeddings:
                nrm = float(np.linalg.norm(pair_scorer))
                if nrm > c:
                    pair_scorer = pair_scorer * (c / nrm)
    block = AttentionBlock(
        kind=kind,
        variant=variant,
        focus=focus,
        last=last,
        embed1=embed1,
        embed2=embed2,
        pair_scorer=pair_scorer,
        c=c,
        phi=phi,
        logit_scale=logit_scale,
        column_sum_target=column_sum_target,
        global_sum=global_sum,
    )
    block.normalize_weights(seed=seed)
    return block


# ---------------------------------------------------------------------------
# Response maps
# ---------------------------------------------------------------------------


def raw_response(x: FeatureGrid, block: AttentionBlock) -> np.ndarray:
    """Unnormalized m x m pairwise responses, entry (i, j) = r(x_i, x_j);
    (B, m, m) for a stack of grids.

    The exponential kinds subtract the maximum logit along the axis that is
    later normalized (rows for the non-invertible variant, columns for the
    invertible one); the normalized map is unchanged by the shift and the
    exponentials cannot overflow. Invertible dot/concat scores pass through
    the nonnegative activation phi.
    """
    x = as_grid(x)
    if x.shape[-3] != block.channels:
        raise ValueError(f"block expects {block.channels} channels, grid has {x.shape[-3]}")
    pos = grid_to_matrix(x)
    if block.kind == "gaussian":
        logits = pos @ pos.swapaxes(-1, -2)
    else:
        e1 = pos @ block.embed1.weight.T
        e2 = pos @ block.embed2.weight.T
        if block.kind == "concat":
            row = block.pair_scorer[0]
            half = row.size // 2
            left = e1 @ row[:half]
            right = e2 @ row[half:]
            logits = left[..., :, None] + right[..., None, :]
        else:
            logits = e1 @ e2.swapaxes(-1, -2)
    if block.logit_scale != 1.0:
        logits = logits * logits.dtype.type(block.logit_scale)
    if block.kind in _EXP_KINDS:
        axis = -2 if block.variant == "invertible" else -1
        return np.exp(logits - logits.max(axis=axis, keepdims=True))
    if block.variant == "invertible":
        return apply_phi(logits, block.phi)
    return logits


def normalize_response(
    raw: np.ndarray,
    kind: str,
    variant: str,
    column_sum_target: float = 1.0,
    global_sum: bool = False,
) -> np.ndarray:
    """Normalize raw responses (one m x m matrix or a stack) into R(x).

    Invertible variant: columns scaled to sum to ``column_sum_target``
    (1 by default, so the matrix L1 norm is exactly 1); with ``global_sum``
    the whole matrix is scaled to sum to 1 instead. Non-invertible gaussian
    and embedded rows are scaled to sum to 1; non-invertible dot/concat
    entries are divided by the position count. Columns or rows that sum to
    zero are replaced by uniform weights rather than dividing by zero.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a = np.asarray(raw)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"response matrix must be square, got {a.shape}")
    m = a.shape[-1]
    a = as_matrix(a.reshape(math.prod(a.shape[:-1]), m)).reshape(a.shape)
    if variant == "invertible":
        if np.any(a < 0):
            raise InvariantViolation("negative raw response under invertible normalization")
        target = 1.0 if global_sum else column_sum_target
        sums = a.sum(axis=(-2, -1) if global_sum else -2, keepdims=True)
        dead = sums == 0.0
        out = a * (target / np.where(dead, 1.0, sums))
        fill = target / (m * m if global_sum else m)
    elif kind in _EXP_KINDS:
        sums = a.sum(axis=-1, keepdims=True)
        dead = sums == 0.0
        out = a / np.where(dead, 1.0, sums)
        fill = 1.0 / m
    else:
        return a * a.dtype.type(1.0 / m)
    if dead.any():
        out = np.where(dead, a.dtype.type(fill), out)
    return out


def response_map(x: FeatureGrid, block: AttentionBlock) -> np.ndarray:
    """The normalized m x m response map for ``x``."""
    return normalize_response(
        raw_response(x, block),
        block.kind,
        block.variant,
        column_sum_target=block.column_sum_target,
        global_sum=block.global_sum,
    )


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------


def attention_apply(x: FeatureGrid, block: AttentionBlock) -> FeatureGrid:
    """A(x) = R(x) F(x), computed in the positions-by-channels view."""
    x = as_grid(x)
    resp = response_map(x, block)
    feat = grid_to_matrix(apply_1x1_conv(x, block.focus))
    return matrix_to_grid(resp @ feat, x.shape[-2], x.shape[-1])


def residual_branch(x: FeatureGrid, block: AttentionBlock) -> FeatureGrid:
    """g(x): the residual branch, with the bounded output conv when invertible."""
    out = attention_apply(x, block)
    if block.last is not None:
        out = apply_1x1_conv(out, block.last)
    return out


def residual_forward(x: FeatureGrid, block: AttentionBlock) -> FeatureGrid:
    """f(x) = x + g(x)."""
    x = as_grid(x)
    return x + residual_branch(x, block)


def make_residual_branch(block: AttentionBlock):
    """Close over an immutable, normalized block; safe for concurrent calls."""

    def branch(x: FeatureGrid) -> FeatureGrid:
        return residual_branch(x, block)

    return branch


# ---------------------------------------------------------------------------
# Squeeze layer (space-to-depth with 2x2 blocks)
# ---------------------------------------------------------------------------


def squeeze(x: FeatureGrid) -> FeatureGrid:
    """Reshape (C, H, W) -> (4C, H/2, W/2).

    Output channel 4c + k holds input channel c's sub-pixel k, with k
    enumerating (top-left, top-right, bottom-left, bottom-right).
    """
    x = as_grid(x)
    channels, height, width = x.shape
    if height % 2 != 0 or width % 2 != 0:
        raise ValueError(f"squeeze requires even spatial dims, got {height}x{width}")
    blocks = x.reshape(channels, height // 2, 2, width // 2, 2)
    return np.ascontiguousarray(blocks.transpose(0, 2, 4, 1, 3)).reshape(
        4 * channels, height // 2, width // 2
    )


def unsqueeze(x: FeatureGrid) -> FeatureGrid:
    """Exact inverse of :func:`squeeze`."""
    x = as_grid(x)
    channels, height, width = x.shape
    if channels % 4 != 0:
        raise ValueError(f"unsqueeze requires channels divisible by 4, got {channels}")
    blocks = x.reshape(channels // 4, 2, 2, height, width)
    return np.ascontiguousarray(blocks.transpose(0, 3, 1, 4, 2)).reshape(
        channels // 4, 2 * height, 2 * width
    )


# ---------------------------------------------------------------------------
# Block serialization (versioned JSON, round-trip exact)
# ---------------------------------------------------------------------------


def _weight_to_dict(w: SpectralLinear | None) -> dict | None:
    if w is None:
        return None
    state = None
    if w.state is not None:
        state = {
            "u": w.state.u.tolist(),
            "v": w.state.v.tolist(),
            "sigma": w.state.sigma_estimate,
        }
    return {
        "shape": list(w.weight.shape),
        "bound": w.bound,
        "data": w.weight.ravel().tolist(),
        "state": state,
    }


def _weight_from_dict(d: dict | None, dtype: np.dtype) -> SpectralLinear | None:
    if d is None:
        return None
    weight = np.array(d["data"], dtype=dtype).reshape(d["shape"])
    state = None
    if d.get("state") is not None:
        state = PowerIterState(
            np.array(d["state"]["u"], dtype=np.float64),
            np.array(d["state"]["v"], dtype=np.float64),
            float(d["state"]["sigma"]),
        )
    return SpectralLinear(weight, bound=d.get("bound"), state=state)


def block_to_dict(block: AttentionBlock) -> dict:
    precision = "float32" if block.focus.weight.dtype == np.float32 else "float64"
    pair = None
    if block.pair_scorer is not None:
        pair = {"shape": list(block.pair_scorer.shape), "data": block.pair_scorer.ravel().tolist()}
    return {
        "format": BLOCK_FORMAT,
        "version": BLOCK_FORMAT_VERSION,
        "kind": block.kind,
        "variant": block.variant,
        "c": block.c,
        "phi": block.phi,
        "precision": precision,
        "logit_scale": block.logit_scale,
        "column_sum_target": block.column_sum_target,
        "global_sum": block.global_sum,
        "weights": {
            "focus": _weight_to_dict(block.focus),
            "last": _weight_to_dict(block.last),
            "embed1": _weight_to_dict(block.embed1),
            "embed2": _weight_to_dict(block.embed2),
            "pair_scorer": pair,
        },
    }


def block_from_dict(d: dict) -> AttentionBlock:
    if d.get("format") != BLOCK_FORMAT:
        raise ValueError(f"not a {BLOCK_FORMAT} container: format={d.get('format')!r}")
    if d.get("version") != BLOCK_FORMAT_VERSION:
        raise ValueError(f"unsupported container version {d.get('version')!r}")
    dtype = np.float32 if d["precision"] == "float32" else np.float64
    weights = d["weights"]
    pair = None
    if weights.get("pair_scorer") is not None:
        pair = np.array(weights["pair_scorer"]["data"], dtype=dtype).reshape(
            weights["pair_scorer"]["shape"]
        )
    return AttentionBlock(
        kind=d["kind"],
        variant=d["variant"],
        focus=_weight_from_dict(weights["focus"], dtype),
        last=_weight_from_dict(weights.get("last"), dtype),
        embed1=_weight_from_dict(weights.get("embed1"), dtype),
        embed2=_weight_from_dict(weights.get("embed2"), dtype),
        pair_scorer=pair,
        c=float(d["c"]),
        phi=d["phi"],
        logit_scale=float(d["logit_scale"]),
        column_sum_target=float(d["column_sum_target"]),
        global_sum=bool(d["global_sum"]),
    )


def save_block(block: AttentionBlock, path: str | Path) -> None:
    Path(path).write_text(json.dumps(block_to_dict(block)) + "\n")


def load_block(path: str | Path) -> AttentionBlock:
    return block_from_dict(json.loads(Path(path).read_text()))
