"""Residual attention blocks over feature grids.

A feature grid is a plain ``(channels, height, width)`` float64 array. The
response maps act on its ``positions x channels`` matrix view (one row per
spatial position); the 1x1 convolutions and the attention forward act on its
own ``channels x positions`` layout, so they return grids without a
transposing copy. Every grid map, the squeeze included, also takes a
``(batch, channels, height, width)`` stack of grids and acts on each grid of
it independently; one grid is a stack with no leading axis.
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
_EXP_KINDS = ("gaussian", "embedded")

BLOCK_FORMAT = "invattn-block"
BLOCK_FORMAT_VERSION = 6
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
_CONTAINER_KEYS = ("format", "version", "kind", "variant", "c", "logit_scale", "weights")


# ---------------------------------------------------------------------------
# Feature grids
# ---------------------------------------------------------------------------


def as_grid(x: np.ndarray) -> FeatureGrid:
    """Validate a (C, H, W) grid, or a (B, C, H, W) stack of grids, of finite
    reals, and return it as a float64 array (a copy only if ``x`` is not one)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (3, 4):
        raise ValueError(f"expected a (C, H, W) grid or a (B, C, H, W) stack, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("empty grid")
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
# The nonnegative activation of invertible dot/concat responses
# ---------------------------------------------------------------------------


def apply_phi(x: np.ndarray) -> np.ndarray:
    """Softplus of a copy of ``x``; output is >= 0 for every real input, and
    ``x`` is left as it was."""
    a = np.asarray(x)
    return _phi_in_place(a.astype(np.result_type(a, 1.0)))


def _phi_in_place(a: np.ndarray) -> np.ndarray:
    """:func:`apply_phi` written over the float array ``a``, which it returns.

    log1p(e^a) in place, in two passes with no scratch array. From log(max
    float) up, e^a overflows and softplus(a) rounds to a, so those entries
    (and NaN) keep a; the mask is built only when one is there (huge logit
    scales)."""
    big = np.log(np.finfo(a.dtype).max)
    live = a < big if a.size and not a.max() < big else True
    np.exp(a, out=a, where=live)
    np.log1p(a, out=a, where=live)
    return a


# ---------------------------------------------------------------------------
# 1x1 convolutions
# ---------------------------------------------------------------------------


def apply_1x1_conv(x: FeatureGrid, w: np.ndarray) -> FeatureGrid:
    """Multiply every position's channel vector by the (out, in) weight matrix.

    Computed as ``w @ x`` on the channels-by-positions view of the grid (or
    of each grid of a stack), which is the grid's own layout, so the result
    is a new C-contiguous grid and no transposing copy is made.
    Positions are independent, so the Lipschitz constant of the grid map
    equals the largest singular value of the weight.
    """
    x = as_grid(x)
    if w.shape[1] != x.shape[-3]:
        raise ValueError(f"conv expects {w.shape[1]} channels, grid has {x.shape[-3]}")
    out = w @ x.reshape(x.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + x.shape[-2:])


# ---------------------------------------------------------------------------
# Attention blocks
# ---------------------------------------------------------------------------


def check_settings(kind: str, variant: str, c: float, logit_scale: float) -> None:
    """Refuse a block setting outside its domain: kind and variant must be
    known, ``c`` in (0, 1) and ``logit_scale`` finite."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {KINDS}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
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
    logit_scale: float = 1.0

    def __post_init__(self) -> None:
        check_settings(self.kind, self.variant, self.c, self.logit_scale)
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
    logit_scale: float = 1.0,
) -> AttentionBlock:
    """Construct a block with seeded uniform(-1/sqrt(fan_in), ..) weights and
    embeddings of width ``max(1, channels // 2)``. The weights and their
    draw order are :func:`_weight_shapes`'s; ``channels`` below 1 is refused
    before any draw.

    In the invertible variant the focus and output convs are spectrally
    normalized to ``c`` here, once: a cold-start power iteration (seed
    ``seed`` for focus, ``seed + 1`` for last) gives sigma, and a weight
    with sigma > c is scaled by c/sigma.
    The response-path weights (embeddings and pair scorer) stay free,
    matching the relaxed conditions the invertible variant targets; a
    noninvertible block keeps its focus as drawn.

    Softplus is the one activation of invertible dot and concat responses:
    ``phi`` is accepted only as ``"softplus"`` and refused otherwise.
    """
    if phi != "softplus":
        raise ValueError(f"phi is softplus, the one activation; got phi={phi!r}")
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    rng = np.random.default_rng(seed)
    weights = {}
    for role, (out_dim, in_dim) in _weight_shapes(kind, variant, channels, max(1, channels // 2)).items():
        scale = 1.0 / np.sqrt(in_dim)
        weights[role] = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    if variant == "invertible":
        for power_seed, role in enumerate(_BOUNDED_ROLES, start=seed):
            estimate = power_iteration(weights[role], iters=1000, tol=1e-15, seed=power_seed)
            weights[role] = spectral_normalize(weights[role], c, estimate)
    return AttentionBlock(kind=kind, variant=variant, **weights, c=c, logit_scale=logit_scale)


# ---------------------------------------------------------------------------
# Response maps
# ---------------------------------------------------------------------------


def pairwise_logits(
    pos: np.ndarray, block: AttentionBlock, cols: slice = slice(None), out: np.ndarray | None = None
) -> np.ndarray:
    """Scaled logits of a positions-by-channels matrix (or stack) against the
    positions ``cols``, an m x b slab of the m x m logits: ``pos pos[cols]ᵀ``
    for gaussian, ``E1 E2[cols]ᵀ`` for embedded and dot, and
    ``u 1ᵀ + 1 vᵀ`` for concat, with ``u = E1 a1``, ``v = E2[cols] a2`` and
    ``a1, a2`` the halves of the pair scorer. Concat forms its logits as the
    rank-2 product ``[u, 1] [1, v]ᵀ``: each product with 1 is exact and the
    sum rounds once, so they equal the broadcast sum ``u_i + v_j`` bit for
    bit, except that a sum of two -0 reads +0. The default takes every
    column. They are written into ``out`` (a float64 array of the slab's
    shape) if given, else into a new array."""
    if block.kind == "gaussian":
        logits = np.matmul(pos, pos[..., cols, :].swapaxes(-1, -2), out=out)
    else:
        e1 = pos @ block.embed1.T
        e2 = pos[..., cols, :] @ block.embed2.T
        if block.kind == "concat":
            a1, a2 = np.split(block.pair_scorer[0], 2)
            left = np.ones(e1.shape[:-1] + (2,))
            left[..., 0] = e1 @ a1
            right = np.ones(e2.shape[:-2] + (2,) + e2.shape[-2:-1])
            right[..., 1, :] = e2 @ a2
            logits = np.matmul(left, right, out=out)
        else:
            logits = np.matmul(e1, e2.swapaxes(-1, -2), out=out)
    if block.logit_scale != 1.0:
        logits *= block.logit_scale
    return logits


def raw_response(
    x: FeatureGrid, block: AttentionBlock, cols: slice = slice(None), out: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized pairwise responses, entry (i, j) = r(x_i, x_j), for every
    position i and the positions j in ``cols``: the m x m matrix by default,
    an m x b column slab otherwise; (B, m, b) for a stack of grids.

    The exponential kinds subtract the maximum logit along the axis that is
    later normalized (rows for the non-invertible variant, columns for the
    invertible one); the normalized map is unchanged by the shift and the
    exponentials cannot overflow. The column shift lies within any column
    slab; the row shift needs every column. Invertible dot/concat scores pass
    through softplus, which makes them nonnegative.

    The shifted exp or softplus overwrites the logits in place. With ``out`` (a
    float64 array of the result's shape, such as a view of a caller's
    workspace) the logits are written and activated there and ``out`` is
    returned; without it a new array is. The values are the same.
    """
    x = as_grid(x)
    if x.shape[-3] != block.channels:
        raise ValueError(f"block expects {block.channels} channels, grid has {x.shape[-3]}")
    logits = pairwise_logits(grid_to_matrix(x), block, cols, out)
    if block.kind in _EXP_KINDS:
        logits -= logits.max(axis=-2 if block.variant == "invertible" else -1, keepdims=True)
        return np.exp(logits, out=logits)
    if block.variant == "invertible":
        return _phi_in_place(logits)
    return logits


def _normalizes_rows(kind: str, variant: str) -> bool:
    """Whether R(x) is normalized by rows (non-invertible gaussian and
    embedded) rather than column by column."""
    return variant == "noninvertible" and kind in _EXP_KINDS


def normalize_response(
    raw: np.ndarray, kind: str, variant: str, out: np.ndarray | None = None
) -> np.ndarray:
    """Normalize raw responses (one m x b matrix or a stack) into R(x), or
    into the slab of R(x) at those b <= m columns.

    The invertible variant's columns, and the non-invertible gaussian and
    embedded rows, are scaled to sum to 1, each by the reciprocal of its
    sum; a line that sums to zero is filled with 1/m. So an invertible R is
    column-stochastic, with matrix L1 norm exactly 1. Non-invertible
    dot/concat entries are divided by the position count m. Column scaling
    acts on each column alone, so a column slab normalizes as its part of
    the whole matrix; row scaling needs the whole square matrix.

    A non-finite entry raises :class:`NonFiniteError`, and a negative entry
    under the invertible variant :class:`InvariantViolation`. The result is
    written into ``out`` if given (a float64 array of ``raw``'s shape, which
    may be ``raw`` itself, to normalize in place) and is ``out``; without it
    a new array is returned. The values are the same.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a = np.asarray(raw, dtype=np.float64)
    rows_normalized = _normalizes_rows(kind, variant)
    if a.ndim not in (2, 3) or a.shape[-1] > a.shape[-2] or (rows_normalized and a.shape[-1] != a.shape[-2]):
        what = "square" if rows_normalized else "an m x b slab with b <= m"
        raise ValueError(f"response matrix must be {what}, got {a.shape}")
    m, cols = a.shape[-2:]
    if variant == "noninvertible" and not rows_normalized:
        as_matrix(a.reshape(math.prod(a.shape[:-1]), cols))
        return np.multiply(a, 1.0 / m, out=out)
    sums = a.sum(axis=-1 if rows_normalized else -2, keepdims=True)
    # a non-finite entry makes its line's sum non-finite, so only then is
    # every entry checked (finite entries may also overflow their sum)
    if a.size == 0 or not np.isfinite(sums).all():
        as_matrix(a.reshape(math.prod(a.shape[:-1]), cols))
    if variant == "invertible" and a.min() < 0.0:
        raise InvariantViolation("negative raw response under invertible normalization")
    dead = sums == 0.0
    out = np.multiply(a, 1.0 / np.where(dead, 1.0, sums), out=out)
    if dead.any():
        np.copyto(out, 1.0 / m, where=dead)
    return out


def response_map(x: FeatureGrid, block: AttentionBlock) -> np.ndarray:
    """The normalized m x m response map for ``x``."""
    return normalize_response(raw_response(x, block), block.kind, block.variant)


# ---------------------------------------------------------------------------
# Forward maps
# ---------------------------------------------------------------------------


def attention_apply(x: FeatureGrid, block: AttentionBlock) -> FeatureGrid:
    """A(x) = R(x) F(x), computed in the grid layout: with F the focus conv
    of the grid as a channels-by-positions matrix, A's matrix is F Rᵀ, so
    the result is a new grid with no transposing copy.

    Summed over column slabs J of at most ``_BLOCK_COLS`` positions as
    ``F[:, J] R[:, J]ᵀ``, so no m x m response is held when m is larger. The sum is exact, with no rescaling
    between slabs, because each column of R is normalized on its own (see
    :func:`normalize_response`). The row-normalized responses (non-invertible
    gaussian and embedded) take one slab of every column.

    One float64 workspace of one slab's shape is allocated per call: each
    slab's logits are written, activated and normalized in a view of it, so
    ``F[:, J] R[:, J]ᵀ`` is the only new array a slab makes. It is local to
    the call, so concurrent calls share nothing.
    """
    x = as_grid(x)
    feat = apply_1x1_conv(x, block.focus).reshape(x.shape[:-2] + (-1,))
    positions = feat.shape[-1]
    width = positions if _normalizes_rows(block.kind, block.variant) else _BLOCK_COLS
    workspace = np.empty(feat.shape[:-2] + (positions, min(width, positions)))
    out = None
    for start in range(0, positions, width):
        cols = slice(start, start + width)
        slab = workspace[..., : min(width, positions - start)]
        resp = normalize_response(raw_response(x, block, cols, slab), block.kind, block.variant, slab)
        part = feat[..., cols] @ resp.swapaxes(-1, -2)
        if out is None:
            out = part
        else:
            out += part
    return out.reshape(x.shape)


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

    raw = phi(L) comes from :func:`raw_response`, which evaluates the
    logits L once, and the slope phi'(L) is read off raw: raw itself for
    the exp kinds (exp(L), whose column shift the normalization cancels),
    and 1 - e^-raw for dot and concat's softplus (the logistic, exact where
    1 + tanh(L/2) rounds to 0). Every kind takes the one logit step
    ``dL = dX Pᵀ + Q dXᵀ`` in the positions-by-channels view, with E1, E2
    the embeddings and a1, a2 the pair scorer's halves:

        kind           P                    Q
        gaussian       X                    X
        embedded, dot  E2 W1                E1 W2
        concat         constant rows W1ᵀa1  constant rows W2ᵀa2

    With column sums s, R = raw / s and F = X W_fᵀ, the branch is
    g = R F W_lᵀ; so for q = logit_scale phi'(L) * dL,
    ``dR = (q - R colsum(q)) / s`` and ``dg = (dR F + R dX W_fᵀ) W_lᵀ``.
    W_l and 1/s are folded into two constants, ``G = (F / s) W_lᵀ`` and
    ``K = W_fᵀ W_lᵀ``, so each apply is ``q G + R (dX K - colsum(q) G)``,
    with colsum(q) scaling G's rows, and neither dR nor a trailing product
    with W_l is formed. A dead column (sum zero, filled uniform) has zero
    derivative. Each call splits its stack with :func:`_in_stacks`.
    """
    if block.variant != "invertible":
        raise ValueError("linearize requires an invertible-variant block")
    x = as_grid(x)
    if x.ndim != 3:
        raise ValueError(f"linearize takes one (C, H, W) grid, got shape {x.shape}")
    height, width = x.shape[-2:]
    raw = raw_response(x, block)
    if block.kind in _EXP_KINDS:
        slope = raw.copy()
    else:
        slope = np.negative(raw)
        np.expm1(slope, out=slope)
        np.negative(slope, out=slope)
    slope *= block.logit_scale
    pos = grid_to_matrix(x)
    sums = raw.sum(axis=0)
    # past its column sums raw is needed only as R, so it is normalized in place
    resp = normalize_response(raw, block.kind, block.variant, raw)
    inv_sums = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0.0)[:, None]
    last_t = block.last.T
    gain = (inv_sums * (pos @ block.focus.T)) @ last_t  # G: row j of F W_lᵀ over column j's sum
    conv = block.focus.T @ last_t  # K
    ones = np.ones(height * width)
    if block.kind == "gaussian":
        p_rows = q_rows = pos
    elif block.kind == "concat":
        a1, a2 = np.split(block.pair_scorer[0], 2)
        p_rows = np.broadcast_to(block.embed1.T @ a1, pos.shape)
        q_rows = np.broadcast_to(block.embed2.T @ a2, pos.shape)
    else:
        p_rows, q_rows = (pos @ block.embed2.T) @ block.embed1, (pos @ block.embed1.T) @ block.embed2

    def step(v: np.ndarray) -> np.ndarray:
        dpos = grid_to_matrix(v)
        q = dpos @ p_rows.T + q_rows @ dpos.swapaxes(-1, -2)
        q *= slope
        q_sums = ones @ q  # column sums, (P, m)
        # (dR F + R dF) W_lᵀ = q G + R (dX K - colsum(q) G)
        d_branch = q @ gain + resp @ (dpos @ conv - q_sums[..., :, None] * gain)
        return matrix_to_grid(d_branch, height, width)

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
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


def squeeze(x: FeatureGrid, levels: int) -> FeatureGrid:
    """Space-to-depth ``levels`` times: (C, H, W) -> (4^L C, H/2^L, W/2^L)
    for L = ``levels``, on a grid or on each grid of a stack.

    One level maps channel c to channels 4c + k, k holding the sub-pixel
    (top-left, top-right, bottom-left, bottom-right) of each 2x2 block. So at
    depth L, channel 4^L c + 4^(L-1) k1 + ... + kL holds input channel c's
    sub-pixel k1 of the first level, then k2 of the second, and so on.
    """
    x = as_grid(x)
    if levels < 0:
        raise ValueError(f"squeeze levels must be >= 0, got {levels}")
    for _ in range(levels):
        *lead, channels, height, width = x.shape
        if height % 2 != 0 or width % 2 != 0:
            raise ValueError(f"squeeze requires even spatial dims, got {height}x{width}")
        blocks = x.reshape(*lead, channels, height // 2, 2, width // 2, 2)
        # (..., c, h, row, w, col) -> (..., c, row, col, h, w)
        x = np.ascontiguousarray(np.moveaxis(blocks, (-3, -1), (-4, -3))).reshape(
            *lead, 4 * channels, height // 2, width // 2
        )
    return x


def unsqueeze(x: FeatureGrid, levels: int) -> FeatureGrid:
    """Exact inverse of :func:`squeeze` at the same ``levels``."""
    x = as_grid(x)
    if levels < 0:
        raise ValueError(f"unsqueeze levels must be >= 0, got {levels}")
    for _ in range(levels):
        *lead, channels, height, width = x.shape
        if channels % 4 != 0:
            raise ValueError(f"unsqueeze requires channels divisible by 4, got {channels}")
        blocks = x.reshape(*lead, channels // 4, 2, 2, height, width)
        # (..., c, row, col, h, w) -> (..., c, h, row, w, col)
        x = np.ascontiguousarray(np.moveaxis(blocks, (-4, -3), (-3, -1))).reshape(
            *lead, channels // 4, 2 * height, 2 * width
        )
    return x


# ---------------------------------------------------------------------------
# Block serialization (versioned JSON, round-trip exact)
# ---------------------------------------------------------------------------


def _matrix_to_dict(w: np.ndarray | None) -> dict | None:
    return None if w is None else {"shape": list(w.shape), "data": w.ravel().tolist()}


def _matrix_from_dict(role: str, d: object) -> np.ndarray | None:
    """One weight entry; a malformed entry is refused by its role and key."""
    if d is None:
        return None
    if not isinstance(d, dict):
        raise ValueError(f"weight {role!r} is not a mapping with 'shape' and 'data'")
    for key in ("shape", "data"):
        if not isinstance(d.get(key), list):
            raise ValueError(f"weight {role!r} lacks a list under the key {key!r}")
    try:
        data = np.array(d["data"], dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ValueError(f"weight {role!r} has malformed 'data': {err}") from None
    try:
        if len(d["shape"]) == 2:
            return data.reshape(d["shape"])
    except (TypeError, ValueError):
        pass
    raise ValueError(f"weight {role!r} has a 'shape' {d['shape']!r} that is not the 2-D shape of its 'data'")


def block_to_dict(block: AttentionBlock) -> dict:
    return {
        "format": BLOCK_FORMAT,
        "version": BLOCK_FORMAT_VERSION,
        "kind": block.kind,
        "variant": block.variant,
        "c": block.c,
        "logit_scale": block.logit_scale,
        "weights": {role: _matrix_to_dict(getattr(block, role)) for role in _WEIGHT_ROLES},
    }


def block_from_dict(d: dict) -> AttentionBlock:
    """Rebuild a block from :func:`block_to_dict` output. A container with a
    key it does not write (such as an earlier version's ``phi``) or that
    lacks one it writes, or that has a malformed ``weights`` mapping or
    weight entry, is refused by name, the keys before the version; weights
    are read as float64. So is an invertible container whose focus or last
    has spectral norm above ``c`` (past a 1e-6 rounding allowance, from a
    dense SVD): only :func:`build_block` bounds the weights, so a container
    edited or saved after a bound-breaking stress would load as an
    uncertified block."""
    for key in d:
        if key not in _CONTAINER_KEYS:
            raise ValueError(f"block container has the unknown key {key!r}")
    for key in _CONTAINER_KEYS:
        if key not in d:
            raise ValueError(f"block container lacks the key {key!r}")
    if d["format"] != BLOCK_FORMAT:
        raise ValueError(f"not a {BLOCK_FORMAT} container: format={d['format']!r}")
    if d["version"] != BLOCK_FORMAT_VERSION:
        raise ValueError(f"unsupported container version {d['version']!r}")
    if not isinstance(d["weights"], dict):
        raise ValueError("block container 'weights' is not a mapping of role to matrix")
    weights = {role: _matrix_from_dict(role, d["weights"].get(role)) for role in _WEIGHT_ROLES}
    block = AttentionBlock(
        kind=d["kind"],
        variant=d["variant"],
        **weights,
        c=float(d["c"]),
        logit_scale=float(d["logit_scale"]),
    )
    if block.variant == "invertible":
        for role in _BOUNDED_ROLES:
            sigma = float(np.linalg.norm(getattr(block, role), 2))
            if not sigma <= block.c + 1e-6:
                raise ValueError(f"{role} has spectral norm {sigma:.6g} above c = {block.c}")
    return block


def save_block(block: AttentionBlock, path: str | Path) -> None:
    Path(path).write_text(json.dumps(block_to_dict(block)) + "\n")


def load_block(path: str | Path) -> AttentionBlock:
    return block_from_dict(json.loads(Path(path).read_text()))
