"""Binary PGM (P5) reader and writer, and a PPM (P6) writer.

Masks are stored as 8-bit PGM, 0 = outside and 255 = inside, one file per
frame per object, named f{frame:04}_o{object}.pgm. Renders are 8-bit PPM.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .blobs import BinaryMask
from .errors import ParseError, ShapeError


def _read_header(data: bytes):
    # Returns (width, height, offset of first data byte) of a PGM.
    if not data.startswith(b"P5"):
        raise ParseError("expected P5 header", byte_offset=0)
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("truncated header", byte_offset=pos)
        token = data[start:pos]
        if not token.isdigit():
            raise ParseError(f"header field {token.decode('latin-1')!r} is not a decimal integer",
                             byte_offset=start)
        if len(fields) < 2 and int(token) < 1:
            raise ParseError(f"width and height must be at least 1, got {int(token)}",
                             byte_offset=start)
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ParseError(f"only maxval 255 is supported, got {maxval}", byte_offset=pos)
    return w, h, pos


def write_pgm(path, gray: np.ndarray) -> None:
    arr = np.ascontiguousarray(gray, dtype=np.uint8)
    if arr.ndim != 2:
        raise ShapeError(f"PGM payload must be 2-d, got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    w, h, pos = _read_header(data)
    body = data[pos : pos + w * h]
    if len(body) != w * h:
        raise ParseError(f"expected {w * h} data bytes, got {len(body)}", byte_offset=pos)
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)


def write_ppm(path, rgb: np.ndarray) -> None:
    arr = np.ascontiguousarray(rgb, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"PPM payload must be h x w x 3, got shape {arr.shape}")
    h, w, _ = arr.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def mask_filename(frame: int, object_id) -> str:
    return f"f{frame:04d}_o{object_id}.pgm"


def write_mask_pgm(directory, frame: int, object_id, mask: BinaryMask) -> Path:
    path = Path(directory) / mask_filename(frame, object_id)
    write_pgm(path, np.where(mask.bits, 255, 0).astype(np.uint8))
    return path


def read_mask_pgm(path) -> BinaryMask:
    return BinaryMask(read_pgm(path) > 127)
