"""Numeric kernels behind the correctness oracles, on numpy/LAPACK.

``lu_logabsdet_kernel`` reduces a dense LU factorization to (log|det|, sign)
for the dense-Jacobian log-det oracle; ``ssim_mean`` averages SSIM over every
sliding window of a pair of images, or of each pair in two stacks.
"""

from __future__ import annotations

import numpy as np


def lu_logabsdet_kernel(a: np.ndarray) -> tuple[float, int]:
    """(log|det|, sign) of square float64 ``a``; (-inf, 0) when singular."""
    sign, logabs = np.linalg.slogdet(a)
    if sign == 0.0:
        return -np.inf, 0
    return float(logabs), int(sign)


def ssim_mean(
    a: np.ndarray, b: np.ndarray, win: int, c1: float, c2: float
) -> float | np.ndarray:
    """Mean SSIM over all ``win`` x ``win`` windows and channels of (C, H, W)
    arrays on the 0..255 scale, with population window moments.

    For (B, C, H, W) stacks it returns the B per-grid means as an array, each
    equal to the value for that pair of grids alone.

    Each channel is centred on its mean before the moments are summed; the
    (co)variances are shift-invariant, and centring keeps the summed-area
    tables small so their differences lose little to cancellation.
    """

    def window_sums(x: np.ndarray) -> np.ndarray:
        # read off a zero-padded summed-area table
        table = np.zeros(x.shape[:-2] + (x.shape[-2] + 1, x.shape[-1] + 1))
        np.cumsum(np.cumsum(x, axis=-2), axis=-1, out=table[..., 1:, 1:])
        return (
            table[..., win:, win:]
            - table[..., :-win, win:]
            - table[..., win:, :-win]
            + table[..., :-win, :-win]
        )

    shift_a = a.mean(axis=(-2, -1), keepdims=True)
    shift_b = b.mean(axis=(-2, -1), keepdims=True)
    da = a - shift_a
    db = b - shift_b
    inv_n = 1.0 / (win * win)
    m1 = window_sums(da) * inv_n
    m2 = window_sums(db) * inv_n
    s1 = window_sums(da * da) * inv_n - m1 * m1
    s2 = window_sums(db * db) * inv_n - m2 * m2
    s12 = window_sums(da * db) * inv_n - m1 * m2
    mu1 = m1 + shift_a
    mu2 = m2 + shift_b
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s1 + s2 + c2)
    ratio = num / den
    if ratio.ndim == 3:
        return float(ratio.mean())
    return ratio.mean(axis=(-3, -2, -1))
