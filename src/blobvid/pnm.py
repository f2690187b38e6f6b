"""Binary PGM (P5) reader and writer, and a PPM (P6) writer.

Masks are stored as 8-bit PGM, 0 = outside and 255 = inside, one file per
frame per object, named f{frame:04}_o{object}.pgm. Renders are 8-bit PPM.
numpy and BinaryMask are imported by the functions that use them, so
write_mask_window runs without numpy on rows of bools (it also takes numpy rows).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParseError, ShapeError

if TYPE_CHECKING:
    import numpy as np

    from .blobs import BinaryMask

# Maps mask cell bytes 0/1 to their gray levels 0/255 (bytes.translate).
_GRAY = bytes([0, 255]) + bytes(254)


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
        if len(token) > 18:  # no file holds 10**18 bytes, and int() refuses 4,301 digits
            raise ParseError(f"header field of {len(token)} digits is too large",
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


def _write_pnm(path, magic: str, w: int, h: int, payload) -> None:
    # The one place a P5 or P6 header is written: maxval 255, then the payload.
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        f.write(payload)


def read_pgm(path) -> np.ndarray:
    import numpy as np

    data = Path(path).read_bytes()
    w, h, pos = _read_header(data)
    body = data[pos : pos + w * h]
    if len(body) != w * h:
        raise ParseError(f"expected {w * h} data bytes, got {len(body)}", byte_offset=pos)
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)


def write_ppm(path, rgb: np.ndarray) -> None:
    import numpy as np

    arr = np.ascontiguousarray(rgb, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"PPM payload must be h x w x 3, got shape {arr.shape}")
    h, w, _ = arr.shape
    _write_pnm(path, "P6", w, h, arr)


def mask_filename(frame: int, object_id) -> str:
    return f"f{frame:04d}_o{object_id}.pgm"


def write_mask_pgm(directory, frame: int, object_id, mask: BinaryMask) -> Path:
    path = Path(directory) / mask_filename(frame, object_id)
    _write_pnm(path, "P5", mask.w, mask.h, mask.bits.tobytes().translate(_GRAY))
    return path


def write_mask_window(path, h: int, w: int, r0: int, c0: int, rows) -> None:
    """Write the PGM of an h x w mask whose set cells all lie in a window at
    offset (r0, c0), given as one sequence of bools per window row, translated
    to gray as it is copied: the bytes write_mask_pgm writes for that mask."""
    cells = bytearray(h * w)
    for r, row in enumerate(rows, r0):
        cells[r * w + c0:r * w + c0 + len(row)] = bytes(row).translate(_GRAY)
    _write_pnm(path, "P5", w, h, cells)


def read_mask_pgm(path) -> BinaryMask:
    from .blobs import BinaryMask

    return BinaryMask(read_pgm(path) > 127)
