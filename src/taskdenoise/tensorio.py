"""TSR1 portable tensor files.

Layout: 4-byte magic ``TSR1``, u8 rank, rank u32 little-endian extents,
then the payload as little-endian float32, row-major.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"TSR1"


def write_tensor(path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=np.float32, order="C")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", data.ndim))
        for extent in data.shape:
            fh.write(struct.pack("<I", extent))
        fh.write(data.astype("<f4").tobytes())


def read_tensor(path) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise FormatError(path, 0, f"cannot read: {exc.strerror}") from exc
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise FormatError(path, 0, "bad magic (expected TSR1)")
    if len(raw) < 5:
        raise FormatError(path, 4, "truncated before rank byte")
    rank = raw[4]
    header_end = 5 + 4 * rank
    if len(raw) < header_end:
        raise FormatError(path, len(raw), f"truncated extents (rank {rank})")
    shape = struct.unpack_from(f"<{rank}I", raw, 5) if rank else ()
    if any(e == 0 for e in shape):
        raise FormatError(path, 5, f"zero extent in shape {shape}")
    count = 1
    for e in shape:
        count *= e
    expected = header_end + 4 * count
    if len(raw) != expected:
        raise FormatError(
            path, min(len(raw), expected), f"payload is {len(raw) - header_end} bytes, expected {4 * count}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=count, offset=header_end)
    return data.reshape(shape).astype(np.float32)


def write_pgm(path, image: np.ndarray, normalize: bool = False) -> None:
    """Binary PGM (P5) export for human inspection.

    With ``normalize``, scales the max entry to 255; otherwise values are
    clamped to [0, 255].
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3 and img.shape[0] == 1:
        img = img[0]
    if img.ndim != 2:
        raise FormatError(path, 0, f"PGM export needs a 2-d image, got shape {img.shape}")
    if normalize:
        peak = img.max()
        img = img / peak * 255.0 if peak > 0 else np.zeros_like(img)
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
