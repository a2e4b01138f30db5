"""Desk-scale reconstruction experiment: build blocks with fresh seeded
weights, roundtrip a batch of images through forward + fixed-point inverse,
and emit a summary table, per-image records, reconstructions, and block
files. Runs are deterministic given a fixed seed: each work item inverts one
kind's stack of same-shape images in lockstep, per-image work gets
index-derived seeds, and records merge by (kind, input index).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ..attention import (
    KINDS,
    AttentionBlock,
    _grids_per_call,
    build_block,
    check_settings,
    save_block,
    squeeze,
    unsqueeze,
)
from ..errors import InvariantViolation
from ..inversion import InversionConfig, InversionReport, report_to_record, roundtrip, write_records
from ..logdet import DENSE_ORACLE_MAX_DIM, LogDetConfig, brute_force_logdet, logdet_series
from .metrics import compute_ssim
from .ppm import load_ppm, save_ppm

SYNTHETIC_SOURCES = ("gradient", "checkerboard", "gaussian-noise")
_VSCORE_MSE_LIMIT = 10.0  # an image counts as reconstructed below this MSE
# memory guard for what stays quadratic in the m grid positions: linearize's
# m x m pieces and its (P, m, m) q, the row-normalized non-invertible
# branch, and response_map (the invertible forward is column-blocked)
_MAX_IMAGE_SIZE = 64
# what a record notes as its error instead of failing the run
_RECORDED_ERRORS = (InvariantViolation, FloatingPointError, ValueError)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONFIG = 3
EXIT_IO = 4


@dataclass
class ExperimentConfig:
    """Defaults, value types and limits (:meth:`validate`) of every CLI
    subcommand's run; config file keys and CLI flag dests map 1:1 here."""

    kinds: tuple[str, ...] = KINDS
    variant: str = "invertible"
    image_dir: str | None = None
    synthetic: str = "checkerboard"
    size: int = 16
    batch: int = 8
    c: float = 0.9
    phi: str = "softplus"
    iters: int = 100
    tol: float = 1e-10
    seed: int = 0
    precision: int = 64
    squeeze_levels: int = 1
    logdet: bool = False
    logdet_terms: int = 20
    logdet_samples: int = 64
    workers: int = 4
    vscore_floor: float = 0.0
    stress_weight_scale: float = 1.0
    stress_logit_scale: float = 1.0
    out_dir: str = "out"

    def validate(self) -> None:
        if not self.kinds:
            raise ValueError("at least one kind is required")
        for kind in self.kinds:
            check_settings(kind, self.variant, self.phi, self.c, self.stress_logit_scale)
        if self.image_dir is None and self.synthetic not in SYNTHETIC_SOURCES:
            raise ValueError(f"unknown synthetic source {self.synthetic!r}")
        if not (2 <= self.size <= _MAX_IMAGE_SIZE):
            raise ValueError(f"size must be in [2, {_MAX_IMAGE_SIZE}], got {self.size}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if not 0.0 <= self.tol < math.inf:  # also refuses NaN
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if self.precision not in (32, 64):
            raise ValueError(f"precision must be 32 or 64, got {self.precision}")
        if self.squeeze_levels < 0:
            raise ValueError("squeeze_levels must be >= 0")
        if self.size % (2**self.squeeze_levels) != 0:
            raise ValueError(
                f"size {self.size} is not divisible by 2^{self.squeeze_levels} for squeezing"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (0.0 <= self.vscore_floor <= 1.0):
            raise ValueError("vscore_floor must be in [0, 1]")
        if self.logdet_terms < 1 or self.logdet_samples < 1:
            raise ValueError("logdet_terms and logdet_samples must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.stress_weight_scale):
            raise ValueError(f"stress_weight_scale must be finite, got {self.stress_weight_scale}")

    @property
    def dtype(self) -> np.dtype:
        return np.float32 if self.precision == 32 else np.float64

    @property
    def inversion(self) -> InversionConfig:
        return InversionConfig(max_iters=self.iters, early_stop_tol=self.tol)


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    return _BOOL_WORDS[raw.strip().lower()]


def _parse_names(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


# how a config value is read from its string, by field annotation; any other
# annotation (`str`, `str | None`) is read as the string itself
_PARSERS = {int: int, float: float, bool: _parse_bool, tuple[str, ...]: _parse_names}
CONFIG_TYPES = get_type_hints(ExperimentConfig)


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a validated config from string key=value pairs (file or CLI flags)."""
    kwargs: dict = {}
    for key, raw in mapping.items():
        if key not in CONFIG_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS.get(CONFIG_TYPES[key], str)(str(raw))
        except (KeyError, ValueError) as err:
            raise ValueError(f"bad value for config key {key!r}: {raw!r}") from err
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments ignored."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


# ---------------------------------------------------------------------------
# Image sources
# ---------------------------------------------------------------------------


def synthetic_batch(source: str, size: int, batch: int, seed: int, dtype=np.float64) -> list[np.ndarray]:
    """Deterministic batch of (3, size, size) grids with values in [0, 1]."""
    if source not in SYNTHETIC_SOURCES:
        raise ValueError(f"unknown synthetic source {source!r}")
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    images = []
    for _ in range(batch):
        if source == "gradient":
            angle = rng.uniform(0.0, 2.0 * np.pi)
            ramp = np.cos(angle) * xs + np.sin(angle) * ys
            span = ramp.max() - ramp.min()
            ramp = (ramp - ramp.min()) / (span if span > 0 else 1.0)
            phases = rng.uniform(0.0, 1.0, size=3)
            img = np.stack([(ramp + p) % 1.0 for p in phases])
        elif source == "checkerboard":
            cell = int(rng.choice([c for c in (1, 2, 4, 8) if c <= size // 2] or [1]))
            pattern = ((ys // cell + xs // cell) % 2).astype(np.float64)
            lo = rng.uniform(0.0, 0.4, size=3)
            hi = rng.uniform(0.6, 1.0, size=3)
            img = np.stack([lo[ch] + (hi[ch] - lo[ch]) * pattern for ch in range(3)])
        else:  # gaussian-noise
            img = np.clip(rng.normal(0.5, 0.2, size=(3, size, size)), 0.0, 1.0)
        images.append(img.astype(dtype))
    return images


def load_image_dir(path: str | Path, dtype=np.float64) -> list[np.ndarray]:
    files = sorted(Path(path).glob("*.ppm"))
    if not files:
        raise ValueError(f"no .ppm files in {path}")
    return [load_ppm(f, dtype=dtype) for f in files]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class KindSummary:
    """Aggregate metrics for one attention kind."""

    kind: str
    mean_mse: float
    mean_ssim: float
    v_score: float


def _scale_weights_inplace(block: AttentionBlock, factor: float) -> None:
    # deliberately applied after normalization: this is the bound-breaking stress
    block.focus = block.focus * factor
    if block.last is not None:
        block.last = block.last * factor


def squeeze_levels(x: np.ndarray, levels: int) -> np.ndarray:
    """Apply :func:`squeeze` ``levels`` times."""
    for _ in range(levels):
        x = squeeze(x)
    return x


def unsqueeze_levels(x: np.ndarray, levels: int) -> np.ndarray:
    """Apply :func:`unsqueeze` ``levels`` times, undoing :func:`squeeze_levels`."""
    for _ in range(levels):
        x = unsqueeze(x)
    return x


def make_block(cfg: ExperimentConfig, kind: str, seed: int) -> AttentionBlock:
    """The configured block of ``kind`` for ``3 * 4**squeeze_levels`` channels."""
    block = build_block(
        kind,
        cfg.variant,
        3 * 4**cfg.squeeze_levels,
        c=cfg.c,
        phi=cfg.phi,
        seed=seed,
        dtype=cfg.dtype,
        logit_scale=cfg.stress_logit_scale,
    )
    if cfg.stress_weight_scale != 1.0:
        _scale_weights_inplace(block, cfg.stress_weight_scale)
    return block


def check_image(image: np.ndarray, cfg: ExperimentConfig) -> None:
    """Refuse an input the configured run cannot take: it must be square, at
    most the size guard, and squeezable ``cfg.squeeze_levels`` times."""
    side = image.shape[-1]
    if image.shape[-2] != side or side > _MAX_IMAGE_SIZE:
        raise ValueError(f"image shape {image.shape} outside the supported square sizes")
    if side % (2**cfg.squeeze_levels) != 0:
        raise ValueError(
            f"image side {side} is not divisible by 2^{cfg.squeeze_levels} for squeezing"
        )


def _run_one_image(
    index: int,
    image: np.ndarray,
    working: np.ndarray,
    block: AttentionBlock,
    cfg: ExperimentConfig,
    out_dir: Path,
    solved: tuple[np.ndarray | None, InversionReport] | None,
) -> dict:
    """The record of one image, given its squeezed ``working`` grid; ``solved``
    is its (reconstruction, report) from a stacked roundtrip, or None to run
    the roundtrip here."""
    record: dict = {"index": index, "kind": block.kind}
    if cfg.variant != "invertible":
        record["note"] = "no invertibility contract"
    try:
        xhat, report = roundtrip(working, block, cfg.inversion) if solved is None else solved
        ssim = None
        if xhat is not None:
            recon = np.clip(unsqueeze_levels(xhat, cfg.squeeze_levels), 0.0, 1.0)
            window = min(8, image.shape[1], image.shape[2])
            ssim = compute_ssim(image, recon, window=window)
            save_ppm(recon, out_dir / f"recon_{block.kind}_{index:03d}.ppm")
        record = report_to_record(report, **record)
        record["ssim"] = ssim
        if cfg.logdet and cfg.variant == "invertible":
            _attach_logdet(record, working, block, cfg, index)
    except _RECORDED_ERRORS as err:
        record["error"] = f"{type(err).__name__}: {err}"
        record.setdefault("mse", float("inf"))
        record.setdefault("converged", False)
        record.setdefault("diverged", True)
    return record


def _run_stack(
    indices: list[int],
    images: list[np.ndarray],
    block: AttentionBlock,
    cfg: ExperimentConfig,
    out_dir: Path,
) -> list[dict]:
    """Records of the same-shape images at ``indices``, inverted as one stack.

    If the stacked roundtrip raises, each image is run alone, so every
    record carries the error its own roundtrip raises.
    """
    working = np.stack([squeeze_levels(images[i], cfg.squeeze_levels) for i in indices])
    try:
        xhat, report = roundtrip(working, block, cfg.inversion)
        solved = [(None if r.diverged else x, r) for x, r in zip(xhat, report.images)]
    except _RECORDED_ERRORS:
        solved = [None] * len(indices)
    return [
        _run_one_image(i, images[i], w, block, cfg, out_dir, s)
        for i, w, s in zip(indices, working, solved)
    ]


def _image_stacks(images: list[np.ndarray], levels: int) -> list[list[int]]:
    """Image indices grouped by shape, in first-seen order, and cut into
    stacks of at most :func:`~invattn.attention._grids_per_call` grids of
    the squeezed shape."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, image in enumerate(images):
        groups.setdefault(image.shape, []).append(i)
    stacks = []
    for shape, indices in groups.items():
        size = _grids_per_call((shape[-2] >> levels, shape[-1] >> levels))
        stacks += [indices[start : start + size] for start in range(0, len(indices), size)]
    return stacks


def _attach_logdet(
    record: dict, working: np.ndarray, block: AttentionBlock, cfg: ExperimentConfig, index: int
) -> None:
    dim = working.size
    if dim > DENSE_ORACLE_MAX_DIM:
        record["logdet_note"] = f"d={dim} exceeds dense-oracle budget"
        return
    ld_cfg = LogDetConfig(
        series_terms=cfg.logdet_terms,
        hutchinson_samples=cfg.logdet_samples,
        seed=cfg.seed * 100003 + index,
    )
    estimate = logdet_series(block, working, ld_cfg)
    oracle = brute_force_logdet(block, working)
    record["logdet_estimate"] = estimate.value
    record["logdet_oracle"] = oracle
    denom = abs(oracle)
    record["logdet_rel_err"] = abs(estimate.value - oracle) / denom if denom > 0 else None
    if estimate.divergence_warning:
        record["logdet_warning"] = "per-term magnitudes not decaying"


def _aggregate(kind: str, records: list[dict]) -> KindSummary:
    mses = [r.get("mse") for r in records]
    mses = [np.inf if m is None else float(m) for m in mses]
    ssims = [r.get("ssim") for r in records if r.get("ssim") is not None]
    mean_mse = float(np.mean(mses)) if mses else np.inf
    mean_ssim = float(np.mean(ssims)) if ssims else float("nan")
    v_score = float(np.mean([m < _VSCORE_MSE_LIMIT for m in mses])) if mses else 0.0
    return KindSummary(kind=kind, mean_mse=mean_mse, mean_ssim=mean_ssim, v_score=v_score)


def format_summary(summaries: list[KindSummary]) -> str:
    """Aligned table (kind | MSE | SSIM | V-score); stable bytes for a fixed run."""
    header = f"{'kind':<12} | {'MSE':>14} | {'SSIM':>9} | {'V-score':>8}"
    rule = "-" * len(header)
    lines = [header, rule]
    for s in summaries:
        lines.append(
            f"{s.kind:<12} | {s.mean_mse:>14.6f} | {s.mean_ssim:>9.6f} | {100.0 * s.v_score:>7.3f}%"
        )
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured run; returns the process exit code."""
    cfg.validate()
    dtype = cfg.dtype
    if cfg.image_dir is not None:
        images = load_image_dir(cfg.image_dir, dtype=dtype)
    else:
        images = synthetic_batch(cfg.synthetic, cfg.size, cfg.batch, cfg.seed, dtype=dtype)
    for image in images:
        check_image(image, cfg)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    blocks = [make_block(cfg, kind, cfg.seed * 1009 + k) for k, kind in enumerate(cfg.kinds)]
    for block in blocks:
        save_block(block, out_dir / f"block_{block.kind}.json")

    # One work item per (kind, image stack); records merge by (kind, index).
    stacks = _image_stacks(images, cfg.squeeze_levels)
    items = [(k, stack) for k in range(len(blocks)) for stack in stacks]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        done = pool.map(lambda item: _run_stack(item[1], images, blocks[item[0]], cfg, out_dir), items)
        by_kind: list[list[dict]] = [[] for _ in blocks]
        for (k, _), records in zip(items, done):
            by_kind[k] += records
    summaries: list[KindSummary] = []
    all_records: list[dict] = []
    for kind, records in zip(cfg.kinds, by_kind):
        records.sort(key=lambda r: r["index"])
        summaries.append(_aggregate(kind, records))
        all_records.extend(records)

    write_records(out_dir / "records.jsonl", all_records)
    table = format_summary(summaries)
    (out_dir / "summary.txt").write_text(table)
    print(table, end="")

    if cfg.variant == "invertible":
        failing = [s for s in summaries if s.v_score < cfg.vscore_floor]
        if failing:
            for s in failing:
                print(f"V-score floor violated: {s.kind} at {100 * s.v_score:.3f}%")
            return EXIT_INVARIANT
    return EXIT_OK
