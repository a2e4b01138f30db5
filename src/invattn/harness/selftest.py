"""Compact oracle suites behind `invattn selftest`.

Each suite re-derives a core contract from an independent direction (naive
summations, the exact-SVD oracle, closed forms, finite differences, bit-exact
round trips) and prints one PASS/FAIL line. The pytest suite covers the same
ground far more thoroughly; this battery exists so a deployed install can be
sanity-checked without a test checkout.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from .. import linalg
from ..attention import KINDS, build_block, linearize, make_residual_branch, response_map
from ..inversion import InversionConfig, roundtrip_check
from ..logdet import LogDetConfig, jvp, logdet_series_from_branch
from .experiment import EXIT_INVARIANT, EXIT_OK
from .ppm import load_ppm, save_ppm


def _norm_properties() -> str | None:
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, inner, cols = rng.integers(1, 9, size=3)
        g = rng.standard_normal((rows, inner))
        f = rng.standard_normal((inner, cols))
        prod = g @ f
        if linalg.norm_l1(prod) > linalg.norm_l1(g) * linalg.norm_l1(f) + 1e-9:
            return "L1 sub-multiplicativity violated"
        if linalg.norm_frobenius(prod) > linalg.norm_frobenius(g) * linalg.norm_frobenius(f) + 1e-9:
            return "Frobenius sub-multiplicativity violated"
    for _ in range(20):
        a = rng.standard_normal((8, 8))
        top = float(linalg.exact_svd_oracle(a)[0])
        if top > linalg.norm_frobenius(a) + 1e-9:
            return "spectral norm exceeded Frobenius norm"
    return None


def _power_iteration_vs_oracle() -> str | None:
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.standard_normal((12, 12))
        sigma = linalg.exact_svd_oracle(a)
        est = linalg.power_iteration(a, iters=500, tol=1e-15, seed=3).sigma_estimate
        if est > sigma[0] + 1e-9:
            return f"power iteration overshot: {est} > {sigma[0]}"
        gap = (sigma[0] - sigma[1]) / sigma[0]
        if gap >= 0.05 and abs(est - sigma[0]) / sigma[0] > 1e-6:
            return f"power iteration off by {abs(est - sigma[0]) / sigma[0]:.2e} at gap {gap:.3f}"
    return None


def _spectral_bound() -> str | None:
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal((12, 12))
        state = linalg.power_iteration(a, iters=1000, tol=1e-15, seed=5)
        scaled = linalg.spectral_normalize(a, 0.9, state)
        if float(linalg.exact_svd_oracle(scaled)[0]) > 0.9 + 1e-6:
            return "normalized matrix exceeds the 0.9 bound"
    return None


def _response_contracts() -> str | None:
    rng = np.random.default_rng(14)
    x = rng.uniform(0.0, 1.0, size=(3, 4, 4))
    for kind in ("gaussian", "embedded", "dot", "concat"):
        inv = build_block(kind, "invertible", 3, seed=21)
        resp = response_map(x, inv)
        if resp.min() < 0.0:
            return f"{kind}: negative response entry"
        if np.abs(resp.sum(axis=0) - 1.0).max() > 1e-9:
            return f"{kind}: invertible column sums off"
        non = build_block(kind, "noninvertible", 3, seed=22)
        resp = response_map(x, non)
        if kind in ("gaussian", "embedded") and np.abs(resp.sum(axis=1) - 1.0).max() > 1e-9:
            return f"{kind}: non-invertible row sums off"
    return None


def _roundtrip_inversion() -> str | None:
    rng = np.random.default_rng(15)
    cfg = InversionConfig(max_iters=100, early_stop_tol=1e-12)
    for kind in ("gaussian", "embedded", "concat"):
        block = build_block(kind, "invertible", 3, seed=31)
        for _ in range(3):
            x = rng.uniform(0.0, 1.0, size=(3, 8, 8))
            report = roundtrip_check(x, block, cfg)
            if not report.converged or report.reconstruction_mse >= 1e-6:
                return f"{kind}: mse={report.reconstruction_mse:.2e} converged={report.converged}"
    return None


def _logdet_closed_form() -> str | None:
    x = np.zeros((10, 1, 1))
    cfg = LogDetConfig(series_terms=30, hutchinson_samples=4, seed=7)
    est = logdet_series_from_branch(lambda y: 0.5 * y, x, cfg)
    want = 10.0 * math.log(1.5)
    if abs(est.value - want) > 1e-4:
        return f"series {est.value:.6f} vs closed form {want:.6f}"
    return None


def _exact_derivative() -> str | None:
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, size=(3, 4, 4))
    directions = rng.standard_normal((4, 3, 4, 4))
    for kind in KINDS:
        block = build_block(kind, "invertible", 3, seed=41)
        exact = linearize(block, x)(directions)
        reference = jvp(make_residual_branch(block), x, directions)
        gap = float(np.abs(exact - reference).max() / np.abs(reference).max())
        if gap > 1e-8:
            return f"{kind}: linearization off the finite difference by {gap:.2e}"
    return None


def _ppm_roundtrip() -> str | None:
    rng = np.random.default_rng(16)
    grid = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) / 255.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.ppm"
        save_ppm(grid, path)
        back = load_ppm(path)
    if not np.array_equal(back, grid):
        return "save/load round trip not bit-exact on the 8-bit lattice"
    return None


_SUITES = (
    ("norm properties", _norm_properties),
    ("power iteration vs SVD oracle", _power_iteration_vs_oracle),
    ("spectral normalization bound", _spectral_bound),
    ("response map contracts", _response_contracts),
    ("roundtrip inversion", _roundtrip_inversion),
    ("log-det closed form", _logdet_closed_form),
    ("exact derivative vs finite difference", _exact_derivative),
    ("ppm round trip", _ppm_roundtrip),
)


def run_selftest() -> int:
    failures = 0
    for name, suite in _SUITES:
        message = suite()
        if message is None:
            print(f"[PASS] {name}")
        else:
            print(f"[FAIL] {name}: {message}")
            failures += 1
    return EXIT_INVARIANT if failures else EXIT_OK
