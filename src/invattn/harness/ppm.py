"""Binary PPM (P6, 8-bit) image I/O.

PPM was picked as the interchange format because it is dependency-free and
byte-auditable. Loaded pixels map to [0, 1]; saving clamps to [0, 255] and
rounds half-to-even, so grids already on the 8-bit lattice survive a
save/load round trip bit-exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import PpmParseError

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _skip_separators(data: bytes, pos: int) -> int:
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch in (b"#",):
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch and ch in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    pos = _skip_separators(data, pos)
    start = pos
    while pos < len(data) and data[pos : pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise PpmParseError(f"expected integer for {what}", start)
    return int(data[start:pos]), pos


def load_ppm(path: str | Path) -> np.ndarray:
    """Read a P6 file into a (3, H, W) grid with values in [0, 1]."""
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise PpmParseError("not a binary PPM (expected magic 'P6')", 0)
    pos = 2
    width, pos = _read_int(data, pos, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width <= 0 or height <= 0:
        raise PpmParseError(f"bad dimensions {width}x{height}", pos)
    if maxval != 255:
        raise PpmParseError(f"unsupported maxval {maxval} (only 8-bit, 255)", pos)
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise PpmParseError("expected single whitespace after maxval", pos)
    pos += 1
    need = 3 * width * height
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise PpmParseError(
            f"truncated payload: need {need} bytes, have {len(payload)}", pos + len(payload)
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return pixels.transpose(2, 0, 1).astype(np.float64) / 255.0


def save_ppm(grid: np.ndarray, path: str | Path) -> None:
    """Write a (3, H, W) grid in [0, 1] as a P6 file."""
    arr = np.asarray(grid)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"save_ppm expects a (3, H, W) grid, got shape {arr.shape}")
    scaled = np.clip(arr.astype(np.float64) * 255.0, 0.0, 255.0)
    quantized = np.rint(scaled).astype(np.uint8)  # np.rint rounds half to even
    header = f"P6\n{arr.shape[2]} {arr.shape[1]}\n255\n".encode()
    Path(path).write_bytes(header + quantized.transpose(1, 2, 0).tobytes())
