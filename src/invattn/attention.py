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
from typing import Callable

import numpy as np

from .errors import InvariantViolation, NonFiniteError
from .linalg import as_matrix, power_iteration, spectral_normalize

FeatureGrid = np.ndarray

KINDS = ("gaussian", "embedded", "dot", "concat")
VARIANTS = ("invertible", "noninvertible")
PHI_CHOICES = ("softplus", "relu", "elu")
_EXP_KINDS = ("gaussian", "embedded")

BLOCK_FORMAT = "invattn-block"
BLOCK_FORMAT_VERSION = 4
# A stacked apply of :func:`linearize` holds a few (grids, m, m) arrays (its
# q), and so does a row-normalized (non-invertible gaussian or embedded)
# branch call: cap grids * m^2 so that each stays within 4 MB in float64.
# Past 64 grids the per-call overhead is already spread thin, and a larger
# stack only adds memory and cache misses.
_STACK_ELEMENTS = 2**19
_STACK_GRIDS = 64
# The attention forward sums R[:, J] F[J] over column slabs J of at most this
# many positions: every grid of up to 16x16 positions is one slab, and m = 1024
# takes four (m, 256) slabs, which stay in cache where one (m, m) response does
# not. 32-column slabs lose that gain to per-slab overhead.
_BLOCK_COLS = 256
_CONTAINER_KEYS = ("format", "version", "kind", "variant", "c", "phi", "precision", "logit_scale", "weights")


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
    call or linearized apply may take; :func:`_in_stacks` (the log-det's
    probes and dense oracle) and the experiment's image stacks keep to it."""
    positions = shape[-2] * shape[-1]
    return max(1, min(_STACK_GRIDS, _STACK_ELEMENTS // positions**2))


def _in_stacks(step, v: np.ndarray, source: str) -> np.ndarray:
    """``step`` over a ``(P, C, H, W)`` direction stack ``v`` in stacks of at
    most :func:`_grids_per_call` grids of ``v``'s grid shape; non-finite
    output raises :class:`FloatingPointError` naming ``source``."""
    chunk = _grids_per_call(v.shape)
    outs = []
    for start in range(0, v.shape[0], chunk):
        out = step(v[start : start + chunk])
        if not np.isfinite(out).all():
            raise FloatingPointError(f"non-finite values from {source}")
        outs.append(out)
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


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


def phi_slope(x: np.ndarray, selector: str) -> np.ndarray:
    """Derivative of :func:`apply_phi` at ``x``; relu takes slope 0 at 0."""
    if selector == "softplus":
        return 0.5 * (1.0 + np.tanh(0.5 * x))  # the logistic sigmoid, stable at both ends
    if selector == "relu":
        return (x > 0.0).astype(x.dtype)
    if selector == "elu":
        return np.exp(np.minimum(x, 0.0))
    raise ValueError(f"unknown phi selector {selector!r}; choose from {PHI_CHOICES}")


# ---------------------------------------------------------------------------
# 1x1 convolutions
# ---------------------------------------------------------------------------


def apply_1x1_conv(x: FeatureGrid, w: np.ndarray) -> FeatureGrid:
    """Multiply every position's channel vector by the (out, in) weight matrix.

    Positions are independent, so the Lipschitz constant of the grid map
    equals the largest singular value of the weight.
    """
    x = as_grid(x)
    if w.shape[1] != x.shape[-3]:
        raise ValueError(f"conv expects {w.shape[1]} channels, grid has {x.shape[-3]}")
    out = grid_to_matrix(x) @ w.T
    return matrix_to_grid(out, x.shape[-2], x.shape[-1])


# ---------------------------------------------------------------------------
# Attention blocks
# ---------------------------------------------------------------------------


def check_settings(kind: str, variant: str, phi: str, c: float, logit_scale: float) -> None:
    """Refuse a block setting outside its domain: kind, variant and phi must
    be known, ``c`` in (0, 1) and ``logit_scale`` finite."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if phi not in PHI_CHOICES:
        raise ValueError(f"unknown phi {phi!r}; choose from {PHI_CHOICES}")
    if not (0.0 < c < 1.0):
        raise ValueError(f"c must be in (0, 1), got {c}")
    if not math.isfinite(logit_scale):
        raise ValueError(f"logit_scale must be finite, got {logit_scale}")


def _weight_shapes(kind: str, variant: str, channels: int, width: int) -> dict[str, tuple[int, int]]:
    """The weights a ``kind``/``variant`` block carries, by role in the order
    :func:`build_block` draws them, with their (out, in) shapes for C =
    ``channels`` and embedding width w = ``width``: focus (C, C); last (C, C),
    invertible only; embed1 and embed2 (w, C), every kind but gaussian;
    pair_scorer (1, 2w), concat only."""
    shapes = {"focus": (channels, channels)}
    if variant == "invertible":
        shapes["last"] = (channels, channels)
    if kind != "gaussian":
        shapes["embed1"] = shapes["embed2"] = (width, channels)
    if kind == "concat":
        shapes["pair_scorer"] = (1, 2 * width)
    return shapes


# every role a block can carry, in table order
_WEIGHT_ROLES = tuple(_weight_shapes("concat", "invertible", 1, 1))
# the weights spectrally bounded at c in the invertible variant
_BOUNDED_ROLES = ("focus", "last")


@dataclass
class AttentionBlock:
    """Configuration plus weights for one residual attention block.

    Every weight is a plain (out, in) matrix. Roles: ``focus`` is the
    feature-map conv F; ``embed1``/``embed2`` are the pairwise-response
    embeddings; ``pair_scorer`` maps a concatenated embedding pair to a
    scalar score; ``last`` is the output conv on the residual branch.
    :func:`_weight_shapes` says which of them a kind and variant carry, and
    at which shapes. Construction refuses settings outside
    :func:`check_settings`, a missing or extra weight, and a weight whose
    shape is not the table's for C = ``focus.shape[1]`` channels and w =
    ``embed1.shape[0]``. No bound is stored on a weight: in the invertible
    variant focus and last are meant to have spectral norm at most ``c``,
    which :func:`build_block` enforces once; the block itself does not
    re-check it.
    """

    kind: str
    variant: str
    focus: np.ndarray
    last: np.ndarray | None = None
    embed1: np.ndarray | None = None
    embed2: np.ndarray | None = None
    pair_scorer: np.ndarray | None = None
    c: float = 0.9
    phi: str = "softplus"
    logit_scale: float = 1.0

    def __post_init__(self) -> None:
        check_settings(self.kind, self.variant, self.phi, self.c, self.logit_scale)
        given = {}
        for role in _WEIGHT_ROLES:
            if getattr(self, role) is not None:
                given[role] = as_matrix(getattr(self, role))
                setattr(self, role, given[role])
        shapes = _weight_shapes(
            self.kind,
            self.variant,
            given["focus"].shape[1] if "focus" in given else 0,
            given["embed1"].shape[0] if "embed1" in given else 0,
        )
        for role in _WEIGHT_ROLES:
            if (role in shapes) != (role in given):
                verb = "requires the" if role in shapes else "takes no"
                raise ValueError(f"{self.variant} {self.kind} block {verb} weight {role!r}")
        for role, shape in shapes.items():
            if given[role].shape != shape:
                raise ValueError(f"{role} shape {given[role].shape} is not {shape}")

    @property
    def channels(self) -> int:
        return self.focus.shape[1]


def build_block(
    kind: str,
    variant: str,
    channels: int,
    c: float = 0.9,
    phi: str = "softplus",
    seed: int = 0,
    dtype: np.dtype = np.float64,
    logit_scale: float = 1.0,
) -> AttentionBlock:
    """Construct a block with seeded uniform(-1/sqrt(fan_in), ..) weights and
    embeddings of width ``max(1, channels // 2)``. The weights and their
    draw order are :func:`_weight_shapes`'s.

    In the invertible variant the focus and output convs are spectrally
    normalized to ``c`` here, once: a cold-start power iteration in float64
    (seed ``seed`` for focus, ``seed + 1`` for last) gives sigma, and a
    weight with sigma > c is scaled by c/sigma and cast back to ``dtype``.
    The response-path weights (embeddings and pair scorer) stay free,
    matching the relaxed conditions the invertible variant targets; a
    noninvertible block keeps its focus as drawn.
    """
    rng = np.random.default_rng(seed)
    weights = {}
    for role, (out_dim, in_dim) in _weight_shapes(kind, variant, channels, max(1, channels // 2)).items():
        scale = 1.0 / np.sqrt(in_dim)
        weights[role] = rng.uniform(-scale, scale, size=(out_dim, in_dim)).astype(dtype)
    if variant == "invertible":
        for power_seed, role in enumerate(_BOUNDED_ROLES, start=seed):
            w64 = weights[role].astype(np.float64, copy=False)
            estimate = power_iteration(w64, iters=1000, tol=1e-15, seed=power_seed)
            weights[role] = spectral_normalize(w64, c, estimate).astype(dtype, copy=False)
    return AttentionBlock(kind=kind, variant=variant, **weights, c=c, phi=phi, logit_scale=logit_scale)


# ---------------------------------------------------------------------------
# Response maps
# ---------------------------------------------------------------------------


def pairwise_logits(pos: np.ndarray, block: AttentionBlock, cols: slice = slice(None)) -> np.ndarray:
    """Scaled logits of a positions-by-channels matrix (or stack) against the
    positions ``cols``, an m x b slab of the m x m logits: ``pos pos[cols]ᵀ``
    for gaussian, ``E1 E2[cols]ᵀ`` for embedded and dot, and
    ``E1 a1 + (E2[cols] a2)ᵀ`` for concat, ``a1, a2`` the halves of the pair
    scorer. The default takes every column."""
    if block.kind == "gaussian":
        logits = pos @ pos[..., cols, :].swapaxes(-1, -2)
    else:
        e1 = pos @ block.embed1.T
        e2 = pos[..., cols, :] @ block.embed2.T
        if block.kind == "concat":
            a1, a2 = np.split(block.pair_scorer[0], 2)
            logits = (e1 @ a1)[..., :, None] + (e2 @ a2)[..., None, :]
        else:
            logits = e1 @ e2.swapaxes(-1, -2)
    if block.logit_scale != 1.0:
        logits = logits * logits.dtype.type(block.logit_scale)
    return logits


def raw_response(x: FeatureGrid, block: AttentionBlock, cols: slice = slice(None)) -> np.ndarray:
    """Unnormalized pairwise responses, entry (i, j) = r(x_i, x_j), for every
    position i and the positions j in ``cols``: the m x m matrix by default,
    an m x b column slab otherwise; (B, m, b) for a stack of grids.

    The exponential kinds subtract the maximum logit along the axis that is
    later normalized (rows for the non-invertible variant, columns for the
    invertible one); the normalized map is unchanged by the shift and the
    exponentials cannot overflow. The column shift lies within any column
    slab; the row shift needs every column. Invertible dot/concat scores pass
    through the nonnegative activation phi.
    """
    x = as_grid(x)
    if x.shape[-3] != block.channels:
        raise ValueError(f"block expects {block.channels} channels, grid has {x.shape[-3]}")
    return _activate(pairwise_logits(grid_to_matrix(x), block, cols), block)


def _activate(logits: np.ndarray, block: AttentionBlock) -> np.ndarray:
    """Raw responses from logits: the shifted exp or phi of :func:`raw_response`."""
    if block.kind in _EXP_KINDS:
        axis = -2 if block.variant == "invertible" else -1
        return np.exp(logits - logits.max(axis=axis, keepdims=True))
    if block.variant == "invertible":
        return apply_phi(logits, block.phi)
    return logits


def _normalizes_rows(kind: str, variant: str) -> bool:
    """Whether R(x) is normalized by rows (non-invertible gaussian and
    embedded) rather than column by column."""
    return variant == "noninvertible" and kind in _EXP_KINDS


def normalize_response(raw: np.ndarray, kind: str, variant: str) -> np.ndarray:
    """Normalize raw responses (one m x b matrix or a stack) into R(x), or
    into the slab of R(x) at those b <= m columns.

    The invertible variant's columns, and the non-invertible gaussian and
    embedded rows, are scaled to sum to 1, each by the reciprocal of its
    sum; a line that sums to zero is filled with 1/m. So an invertible R is
    column-stochastic, with matrix L1 norm exactly 1. Non-invertible
    dot/concat entries are divided by the position count m. Column scaling
    acts on each column alone, so a column slab normalizes as its part of
    the whole matrix; row scaling needs the whole square matrix.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a = np.asarray(raw)
    rows_normalized = _normalizes_rows(kind, variant)
    if a.ndim not in (2, 3) or a.shape[-1] > a.shape[-2] or (rows_normalized and a.shape[-1] != a.shape[-2]):
        what = "square" if rows_normalized else "an m x b slab with b <= m"
        raise ValueError(f"response matrix must be {what}, got {a.shape}")
    m, cols = a.shape[-2:]
    a = as_matrix(a.reshape(math.prod(a.shape[:-1]), cols)).reshape(a.shape)
    if variant == "invertible" and np.any(a < 0):
        raise InvariantViolation("negative raw response under invertible normalization")
    if variant == "noninvertible" and not rows_normalized:
        return a * a.dtype.type(1.0 / m)
    sums = a.sum(axis=-1 if rows_normalized else -2, keepdims=True)
    dead = sums == 0.0
    out = a * (1.0 / np.where(dead, 1.0, sums))
    if dead.any():
        out = np.where(dead, a.dtype.type(1.0 / m), out)
    return out


def response_map(x: FeatureGrid, block: AttentionBlock) -> np.ndarray:
    """The normalized m x m response map for ``x``."""
    return normalize_response(raw_response(x, block), block.kind, block.variant)


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------


def attention_apply(x: FeatureGrid, block: AttentionBlock) -> FeatureGrid:
    """A(x) = R(x) F(x), computed in the positions-by-channels view.

    Summed over column slabs J of at most ``_BLOCK_COLS`` positions as
    ``R[:, J] F[J]``, so no m x m response is held when m is larger. The sum
    is exact, with no rescaling between slabs, because each column of R is
    normalized on its own (see :func:`normalize_response`). The
    row-normalized responses (non-invertible gaussian and embedded) take one
    slab of every column.
    """
    x = as_grid(x)
    feat = grid_to_matrix(apply_1x1_conv(x, block.focus))
    positions = feat.shape[-2]
    width = positions if _normalizes_rows(block.kind, block.variant) else _BLOCK_COLS
    out = None
    for start in range(0, positions, width):
        cols = slice(start, start + width)
        resp = normalize_response(raw_response(x, block, cols), block.kind, block.variant)
        part = resp @ feat[..., cols, :]
        if out is None:
            out = part
        else:
            out += part
    return matrix_to_grid(out, x.shape[-2], x.shape[-1])


def residual_branch(x: FeatureGrid, block: AttentionBlock) -> FeatureGrid:
    """g(x): the residual branch, with the bounded output conv when invertible."""
    out = attention_apply(x, block)
    if block.last is not None:
        out = apply_1x1_conv(out, block.last)
    return out


def linearize(block: AttentionBlock, x: FeatureGrid) -> Callable[[np.ndarray], np.ndarray]:
    """The exact Jacobian J_g(x) of an invertible-variant block's branch at
    one grid ``x``, as a map from a ``(P,) + x.shape`` direction stack to the
    stack of J_g(x) V.

    The logits L are evaluated once, and raw = phi(L) as in
    :func:`raw_response` (exp(L) for the exp kinds, whose column shift the
    normalization cancels, so their slope phi'(L) is raw itself). Every
    kind's logit step is ``dL = dX Pᵀ + Q dXᵀ``, with E1, E2 the embeddings
    and a1, a2 the pair scorer's halves:

        kind           P                    Q
        gaussian       X                    X
        embedded, dot  E2 W1                E1 W2
        concat         constant rows W1ᵀa1  constant rows W2ᵀa2

    With column sums s, R = raw / s and F = X W_fᵀ, the branch is
    g = R F W_lᵀ; so for q = logit_scale phi'(L) * dL,
    ``dR = (q - R colsum(q)) / s`` and ``dg = (dR F + R dX W_fᵀ) W_lᵀ``,
    with 1/s folded into F so that dR is never formed. A dead column (sum
    zero, filled uniform) has zero derivative; relu has slope 0 at 0. Each
    call splits its stack with :func:`_in_stacks`; all is in float64.
    """
    if block.variant != "invertible":
        raise ValueError("linearize requires an invertible-variant block")
    x = as_grid(x).astype(np.float64, copy=False)
    if x.ndim != 3:
        raise ValueError(f"linearize takes one (C, H, W) grid, got shape {x.shape}")
    if x.shape[0] != block.channels:
        raise ValueError(f"block expects {block.channels} channels, grid has {x.shape[0]}")
    height, width = x.shape[-2:]
    pos = grid_to_matrix(x)
    logits = pairwise_logits(pos, block)
    raw = _activate(logits, block)
    slope = (raw if block.kind in _EXP_KINDS else phi_slope(logits, block.phi)) * block.logit_scale
    resp = normalize_response(raw, block.kind, block.variant)
    sums = raw.sum(axis=0)
    inv_sums = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0.0)[:, None]
    focus_t = block.focus.T
    feat_scaled = inv_sums * (pos @ focus_t)  # F / s, row j scaled by column j's sum
    ones = np.ones(height * width)
    if block.kind == "gaussian":
        p_rows = q_rows = pos
    elif block.kind == "concat":  # float64 before the product, for float32 blocks
        a1, a2 = np.split(block.pair_scorer[0].astype(np.float64), 2)
        p_rows, q_rows = np.outer(ones, block.embed1.T @ a1), np.outer(ones, block.embed2.T @ a2)
    else:
        p_rows, q_rows = (pos @ block.embed2.T) @ block.embed1, (pos @ block.embed1.T) @ block.embed2

    def step(v: np.ndarray) -> np.ndarray:
        dpos = grid_to_matrix(v)
        q = slope * (dpos @ p_rows.T + q_rows @ dpos.swapaxes(-1, -2))
        q_sums = ones @ q  # column sums, (P, m)
        # dR F + R dF = q (F / s) + R (dF - colsum(q) F / s)
        d_attn = q @ feat_scaled + resp @ (dpos @ focus_t - q_sums[..., :, None] * feat_scaled)
        return matrix_to_grid(d_attn @ block.last.T, height, width)

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[1:] != x.shape:
            raise ValueError(f"direction stack shape {v.shape} is not (P,) + {x.shape}")
        return _in_stacks(step, v, "the linearized branch")

    return apply


def residual_forward(x: FeatureGrid, block: AttentionBlock) -> FeatureGrid:
    """f(x) = x + g(x)."""
    x = as_grid(x)
    return x + residual_branch(x, block)


def make_residual_branch(block: AttentionBlock):
    """Close over ``block``, which the branch only reads; safe for concurrent
    calls. Its weights are bounded only if nothing rescaled them after
    :func:`build_block`, as a ``stress_weight_scale`` run does."""

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


def _matrix_to_dict(w: np.ndarray | None) -> dict | None:
    return None if w is None else {"shape": list(w.shape), "data": w.ravel().tolist()}


def _matrix_from_dict(role: str, d: object, dtype: np.dtype) -> np.ndarray | None:
    """One weight entry; a malformed entry is refused by its role and key."""
    if d is None:
        return None
    if not isinstance(d, dict):
        raise ValueError(f"weight {role!r} is not a mapping with 'shape' and 'data'")
    for key in ("shape", "data"):
        if not isinstance(d.get(key), list):
            raise ValueError(f"weight {role!r} lacks a list under the key {key!r}")
    try:
        data = np.array(d["data"], dtype=dtype)
    except (TypeError, ValueError) as err:
        raise ValueError(f"weight {role!r} has malformed 'data': {err}") from None
    try:
        if len(d["shape"]) == 2:
            return data.reshape(d["shape"])
    except (TypeError, ValueError):
        pass
    raise ValueError(f"weight {role!r} has a 'shape' {d['shape']!r} that is not the 2-D shape of its 'data'")


def block_to_dict(block: AttentionBlock) -> dict:
    precision = "float32" if block.focus.dtype == np.float32 else "float64"
    return {
        "format": BLOCK_FORMAT,
        "version": BLOCK_FORMAT_VERSION,
        "kind": block.kind,
        "variant": block.variant,
        "c": block.c,
        "phi": block.phi,
        "precision": precision,
        "logit_scale": block.logit_scale,
        "weights": {role: _matrix_to_dict(getattr(block, role)) for role in _WEIGHT_ROLES},
    }


def block_from_dict(d: dict) -> AttentionBlock:
    """Rebuild a block from :func:`block_to_dict` output. A container that
    lacks a key it writes, has a precision other than float32 or float64, or
    has a malformed ``weights`` mapping or weight entry, is refused by name.
    So is an invertible container whose focus or last has spectral norm
    above ``c`` (past a 1e-6 rounding allowance, from a dense float64 SVD):
    only :func:`build_block` bounds the weights, so a container edited or
    saved after a bound-breaking stress would load as an uncertified
    block."""
    for key in _CONTAINER_KEYS:
        if key not in d:
            raise ValueError(f"block container lacks the key {key!r}")
    if d["format"] != BLOCK_FORMAT:
        raise ValueError(f"not a {BLOCK_FORMAT} container: format={d['format']!r}")
    if d["version"] != BLOCK_FORMAT_VERSION:
        raise ValueError(f"unsupported container version {d['version']!r}")
    if d["precision"] not in ("float32", "float64"):
        raise ValueError(f"unsupported container precision {d['precision']!r}; choose float32 or float64")
    if not isinstance(d["weights"], dict):
        raise ValueError("block container 'weights' is not a mapping of role to matrix")
    dtype = np.dtype(d["precision"])
    weights = {role: _matrix_from_dict(role, d["weights"].get(role), dtype) for role in _WEIGHT_ROLES}
    block = AttentionBlock(
        kind=d["kind"],
        variant=d["variant"],
        **weights,
        c=float(d["c"]),
        phi=d["phi"],
        logit_scale=float(d["logit_scale"]),
    )
    if block.variant == "invertible":
        for role in _BOUNDED_ROLES:
            sigma = float(np.linalg.norm(getattr(block, role).astype(np.float64), 2))
            if not sigma <= block.c + 1e-6:
                raise ValueError(f"{role} has spectral norm {sigma:.6g} above c = {block.c}")
    return block


def save_block(block: AttentionBlock, path: str | Path) -> None:
    Path(path).write_text(json.dumps(block_to_dict(block)) + "\n")


def load_block(path: str | Path) -> AttentionBlock:
    return block_from_dict(json.loads(Path(path).read_text()))
