"""Correctness gate for one `invattn run` job, independent of the program's
own checks.

The benchmark keeps its own copy of every input (8-bit pixels) and reads the
program's outputs back with its own PPM reader: the records, the
reconstructions and the summary. A *gate violation* is output that is
missing or contradicts itself; a *failed roundtrip* is the program honestly
reporting an inversion that did not recover the input. Violations make the
run incorrect; failed roundtrips are measured.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np

MSE_LIMIT = 10.0  # on the 0-255 scale, as the program's V-score uses
LOGDET_WITHIN = 0.05
# Rounding to 8 bits moves each pixel by at most 0.5, so the RMS error of a
# saved reconstruction exceeds the record's RMS error by at most 0.5.
_QUANTIZATION_RMS = 0.5
_PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+255\s")


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    """Write (3, H, W) uint8 pixels as a binary PPM."""
    _, height, width = pixels.shape
    header = f"P6\n{width} {height}\n255\n".encode()
    path.write_bytes(header + np.ascontiguousarray(pixels.transpose(1, 2, 0)).tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Read a binary 8-bit PPM into (3, H, W) uint8 pixels."""
    data = path.read_bytes()
    match = _PPM_HEADER.match(data)
    if match is None:
        raise ValueError(f"{path.name}: not an 8-bit binary PPM")
    width, height = int(match.group(1)), int(match.group(2))
    payload = data[match.end() : match.end() + 3 * width * height]
    if len(payload) != 3 * width * height:
        raise ValueError(f"{path.name}: truncated payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).transpose(2, 0, 1)


@dataclasses.dataclass
class JobOutcome:
    """What the gate found in one job's outputs."""

    roundtrips: int
    violations: list[str] = dataclasses.field(default_factory=list)
    failed: int = 0  # diverged, not converged, missing, or MSE >= MSE_LIMIT
    converged: int = 0
    false_converged: int = 0  # reported converged, but MSE >= MSE_LIMIT
    logdet_rel_errs: list[float] = dataclasses.field(default_factory=list)
    summary: bytes = b""

    @property
    def violated_roundtrips(self) -> int:
        return self.roundtrips if self.violations else 0


def _read_records(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_job(
    out_dir: Path,
    inputs: list[np.ndarray],
    kinds: tuple[str, ...],
    exit_code: int | None,
    logdet: bool,
) -> JobOutcome:
    """Gate one job: exit code, one record per kind x image, reconstructions
    re-measured against the benchmark's own inputs, log-det errors recomputed."""
    outcome = JobOutcome(roundtrips=len(kinds) * len(inputs))
    bad = outcome.violations
    if exit_code != 0:
        bad.append(f"exit code {exit_code}")
        return outcome
    try:
        records = _read_records(out_dir / "records.jsonl")
        outcome.summary = (out_dir / "summary.txt").read_bytes()
    except (OSError, ValueError) as err:
        bad.append(f"unreadable output: {err}")
        return outcome
    keys = sorted((r.get("kind"), r.get("index")) for r in records)
    expected = sorted((k, i) for k in kinds for i in range(len(inputs)))
    if keys != expected:
        bad.append(f"records cover {len(keys)} kind x image pairs, expected {len(expected)}")
        return outcome

    for record in records:
        kind, index = record["kind"], record["index"]
        label = f"{kind}[{index}]"
        recon_path = out_dir / f"recon_{kind}_{index:03d}.ppm"
        mse = math.inf
        if recon_path.exists():
            try:
                recon = read_ppm(recon_path)
            except ValueError as err:
                bad.append(str(err))
                continue
            if recon.shape != inputs[index].shape:
                bad.append(f"{label}: reconstruction shape {recon.shape}")
                continue
            diff = recon.astype(np.float64) - inputs[index].astype(np.float64)
            mse = float(np.mean(diff * diff))
            claimed = record.get("mse")
            if claimed is None or math.sqrt(mse) > math.sqrt(claimed) + _QUANTIZATION_RMS + 1e-9:
                bad.append(f"{label}: saved reconstruction MSE {mse:.4g} exceeds the record's {claimed}")
        elif not record.get("diverged"):
            bad.append(f"{label}: no reconstruction although the record is not diverged")
        converged = bool(record.get("converged")) and not record.get("diverged")
        outcome.converged += converged
        outcome.false_converged += converged and mse >= MSE_LIMIT
        outcome.failed += not converged or mse >= MSE_LIMIT
        if logdet:
            outcome.logdet_rel_errs.append(_logdet_rel_err(record, label, bad))
    return outcome


def _logdet_rel_err(record: dict, label: str, bad: list[str]) -> float:
    """Relative error of the series estimate against the dense oracle,
    recomputed from the record; infinite when either value is missing."""
    estimate, oracle = record.get("logdet_estimate"), record.get("logdet_oracle")
    if estimate is None or oracle is None or oracle == 0.0:
        return math.inf
    rel = abs(estimate - oracle) / abs(oracle)
    claimed = record.get("logdet_rel_err")
    if claimed is None or not math.isclose(claimed, rel, rel_tol=1e-9, abs_tol=1e-12):
        bad.append(f"{label}: logdet_rel_err {claimed} disagrees with estimate/oracle ({rel:.6g})")
    return rel
