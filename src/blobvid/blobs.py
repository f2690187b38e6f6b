"""Blob rasterization and mask IOU on grids of cells.

Rasterization samples cell centers of an arbitrary grid, so the same blob can
be drawn at any resolution, or on its window alone (_blob_window, for mask and
render). Blob params, frame geometry, canonical form and window live in
geometry, which needs no numpy, as does _blob_window's plain-float twin;
BlobParams, FrameGeometry and canonicalize stay bound here for their callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, ShapeError
from .geometry import BlobParams, FrameGeometry, _ellipse_bounds, canonicalize

__all__ = ["BinaryMask", "rasterize", "mask_iou"]

# The most window cells _ellipse_window tests at once (512 KiB per float64).
_WINDOW_CELLS = 1 << 16


@dataclass(frozen=True)
class BinaryMask:
    """Row-major boolean grid. Immutable after construction."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.array(self.bits, dtype=np.bool_, order="C", copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"mask must be a 2-d grid with positive extent, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def _own(cls, arr: np.ndarray) -> "BinaryMask":
        # Wrap a fresh C-ordered 2-d bool array that nothing else references,
        # without the copy __post_init__ makes.
        arr.setflags(write=False)
        mask = object.__new__(cls)
        object.__setattr__(mask, "bits", arr)
        return mask

    @property
    def h(self) -> int:
        return self.bits.shape[0]

    @property
    def w(self) -> int:
        return self.bits.shape[1]


def _cell_centers(geom: FrameGeometry, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    # Source coordinates of an h x w grid's cell centers: x per column, y per row.
    xs = (np.arange(w, dtype=np.float64) + 0.5) * (geom.width / w)
    ys = (np.arange(h, dtype=np.float64) + 0.5) * (geom.height / h)
    return xs, ys


def _ellipse_window(cx: float, cy: float, a: float, b: float, theta: float,
                    geom: FrameGeometry, xs: np.ndarray, ys: np.ndarray,
                    rho: float) -> tuple[int, int, np.ndarray]:
    """Cell-in-ellipse test on the blob's window of the grid with cell centers
    xs, ys (from _cell_centers).

    The window (geometry._ellipse_bounds) is the bounding square of half-side
    rho * max(a, b) around the center, padded by at least one cell and
    clipped to the grid. Every cell outside it fails the test, so only the
    window's cells are evaluated. Returns the window's offset (r0, c0) and
    its boolean block.
    """
    r0, r1, c0, c1 = _ellipse_bounds(cx, cy, a, b, geom, ys.size, xs.size, rho)
    dx = xs[c0:c1] - cx
    ct = math.cos(theta)
    st = math.sin(theta)
    band = _WINDOW_CELLS // max(1, c1 - c0)
    if r1 - r0 <= band:
        return r0, c0, _inside(dx, ys[r0:r1, None] - cy, ct, st, rho * a, rho * b)
    # A larger window is tested a band of rows (at least one) at a time, so
    # that its float64 temporaries stay small whatever its size.
    band = max(1, band)
    block = np.empty((r1 - r0, c1 - c0), dtype=np.bool_)
    for r in range(r0, r1, band):
        dy = ys[r:min(r + band, r1), None] - cy
        block[r - r0:r - r0 + band] = _inside(dx, dy, ct, st, rho * a, rho * b)
    return r0, c0, block


def _inside(dx: np.ndarray, dy: np.ndarray, ct: float, st: float, ra: float,
            rb: float) -> np.ndarray:
    # The cell-in-ellipse test at offsets dx (columns) and dy (rows) from the center.
    u = (dx * ct + dy * st) / ra
    v = (-dx * st + dy * ct) / rb
    return u * u + v * v <= 1.0


def _blob_window(p: BlobParams, geom: FrameGeometry, h: int, w: int,
                 rho: float) -> tuple[int, int, np.ndarray]:
    """rasterize's checks, then _ellipse_window: the window (r0, c0, block)."""
    if h < 1 or w < 1:
        raise ShapeError(f"grid must be at least 1x1, got {h}x{w}")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise RangeError(f"rescale factor must be positive and finite, got {rho}")
    return _ellipse_window(p.cx, p.cy, p.a, p.b, p.theta, geom, *_cell_centers(geom, h, w), rho)


def rasterize(p: BlobParams, geom: FrameGeometry, h: int, w: int, rho: float = 1.0) -> BinaryMask:
    """Rasterize a blob onto an h x w grid of cells covering the source frame.

    Cell (r, c) is set iff its center, mapped to source coordinates as
    x = (c + 0.5) * W / w and y = (r + 0.5) * H / h, lies inside the ellipse
    with both semi-axes rescaled by rho. The test runs only on the blob's
    window, its bounding square of half-side rho * max(a, b) padded by at
    least one cell; cells outside the window are never set.
    """
    r0, c0, block = _blob_window(p, geom, h, w, rho)
    bits = np.zeros((h, w), dtype=np.bool_)
    bits[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block
    return BinaryMask._own(bits)


def mask_iou(m1: BinaryMask, m2: BinaryMask) -> float:
    """Intersection over union of two same-shape masks; 1.0 when both are empty."""
    if m1.bits.shape != m2.bits.shape:
        raise ShapeError(f"mask shapes differ: {m1.bits.shape} vs {m2.bits.shape}")
    inter = int(np.count_nonzero(m1.bits & m2.bits))
    union = int(np.count_nonzero(m1.bits)) + int(np.count_nonzero(m2.bits)) - inter
    if union == 0:
        return 1.0
    return inter / union
