"""Reconstruction metrics, computed on the 0-255 RGB scale.

Grids are passed in the internal [0, 1] convention and rescaled here, so a
unit difference on the 8-bit lattice contributes exactly 1 to the MSE.
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from ..attention import as_grid


def compute_mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference after scaling both grids to 0-255."""
    a = as_grid(a)
    b = as_grid(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = 255.0 * (a.astype(np.float64) - b.astype(np.float64))
    return float(np.mean(diff * diff))


def compute_ssim(
    a: np.ndarray,
    b: np.ndarray,
    window: int = 8,
    k1: float = 0.01,
    k2: float = 0.03,
    dynamic_range: float = 255.0,
) -> float:
    """Mean structural similarity over sliding windows and channels.

    Uniform square windows, population window moments, and the standard
    luminance-contrast-structure product with stabilizers (k1*L)^2 and
    (k2*L)^2 where L is the dynamic range.
    """
    a = as_grid(a)
    b = as_grid(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > min(a.shape[-2], a.shape[-1]):
        raise ValueError(
            f"window {window} exceeds spatial dims {a.shape[-2]}x{a.shape[-1]}"
        )
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    a255 = a.astype(np.float64) * dynamic_range
    b255 = b.astype(np.float64) * dynamic_range
    return float(kernels.ssim_mean(a255, b255, window, c1, c2))
