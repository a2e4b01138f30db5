"""Structural similarity, computed on the 0-255 RGB scale.

Grids are passed in the internal [0, 1] convention and rescaled here. The
reconstruction MSE on the same scale is `inversion.mse_0_255`.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..attention import _float64_grid


_DYNAMIC_RANGE = 255.0
# the standard SSIM stabilizers (k1 L)^2 and (k2 L)^2, k1 = 0.01 and k2 = 0.03
_C1 = (0.01 * _DYNAMIC_RANGE) ** 2
_C2 = (0.03 * _DYNAMIC_RANGE) ** 2


def compute_ssim(a: np.ndarray, b: np.ndarray, window: int = 8) -> float | np.ndarray:
    """Mean structural similarity over sliding windows and channels.

    Uniform square windows, population window moments, and the standard
    luminance-contrast-structure product with stabilizers (0.01 L)^2 and
    (0.03 L)^2, L = 255 being the dynamic range. A (C, H, W) pair gives a
    float; a (B, C, H, W) pair of stacks gives an array of B values, each
    the same as scoring that pair of grids alone.
    """
    a = _float64_grid(a)
    b = _float64_grid(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > min(a.shape[-2], a.shape[-1]):
        raise ValueError(
            f"window {window} exceeds spatial dims {a.shape[-2]}x{a.shape[-1]}"
        )
    return kernels.ssim_mean(a * _DYNAMIC_RANGE, b * _DYNAMIC_RANGE, window, _C1, _C2)
