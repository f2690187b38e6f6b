"""Blob geometry in plain floats: frame size, ellipse params, canonical form, interpolation.

A blob is an ellipse [cx, cy, a, b, theta] in source-pixel coordinates plus,
elsewhere in the package, a free-form caption. Nothing here needs numpy (only
BlobParams.as_array imports it, when called), so the commands that read,
check and interpolate layouts start without loading it, and mask draws small
grids with the plain-float cell test (_ellipse_rows on the window of
_ellipse_bounds); rasterization and fitting, which do array math, live in
blobs and fitting.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidBlob, RangeError, ShapeError

__all__ = ["BlobParams", "FrameGeometry", "canonicalize", "interpolate_blob_params"]

_HALF_PI = math.pi / 2.0


def _wrap_half_pi(theta: float) -> float:
    # Reduce an angle modulo pi into (-pi/2, pi/2].
    t = math.fmod(theta, math.pi)
    if t <= -_HALF_PI:
        t += math.pi
    elif t > _HALF_PI:
        t -= math.pi
    return t


@dataclass(frozen=True)
class FrameGeometry:
    """Source frame size in pixels. Grid cells map into this coordinate space."""

    width: int
    height: int

    def __post_init__(self):
        if int(self.width) != self.width or int(self.height) != self.height:
            raise ShapeError(f"frame geometry must be integral, got {self.width}x{self.height}")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))
        if self.width < 1 or self.height < 1:
            raise ShapeError(f"frame geometry must be at least 1x1, got {self.width}x{self.height}")
        if max(self.width, self.height) > sys.float_info.max:
            raise ShapeError("frame geometry must be within the float range")


def _require_finite(vals: tuple[float, ...]) -> None:
    if not all(math.isfinite(v) for v in vals):
        raise InvalidBlob(f"blob parameters must be finite, got {vals}")


@dataclass(frozen=True)
class BlobParams:
    """One tilted ellipse.

    cx, cy: center in source-pixel coordinates.
    a, b: semi-axis lengths, a along the theta direction.
    theta: rotation in radians. Canonical form keeps theta in (-pi/2, pi/2]
    with a >= b; raw values outside that range are legal input for
    :func:`canonicalize` and for validation reporting.
    """

    cx: float
    cy: float
    a: float
    b: float
    theta: float

    def __post_init__(self):
        try:
            vals = tuple(float(v) for v in (self.cx, self.cy, self.a, self.b, self.theta))
        except OverflowError:
            raise InvalidBlob("blob parameters must be finite, got an integer beyond "
                              "the float range") from None
        _require_finite(vals)
        for name, value in zip(("cx", "cy", "a", "b", "theta"), vals):
            object.__setattr__(self, name, value)
        if self.a <= 0.0 or self.b <= 0.0:
            raise InvalidBlob(f"semi-axes must be positive, got a={self.a}, b={self.b}")

    @classmethod
    def from_sequence(cls, seq) -> "BlobParams":
        vals = list(seq)
        if len(vals) != 5:
            raise InvalidBlob(f"blob needs exactly 5 parameters, got {len(vals)}")
        return cls(*vals)

    def as_array(self):
        """The params [cx, cy, a, b, theta] as a float64 numpy array."""
        import numpy as np

        return np.array([self.cx, self.cy, self.a, self.b, self.theta], dtype=np.float64)

    def is_canonical(self) -> bool:
        if self.a < self.b:
            return False
        if self.a == self.b:
            return self.theta == 0.0
        return -_HALF_PI < self.theta <= _HALF_PI


def canonicalize(p: BlobParams) -> BlobParams:
    """Return the canonical form of a blob: a >= b, theta in (-pi/2, pi/2].

    Circles get theta = 0. The returned ellipse covers exactly the same point
    set as the input; the map is idempotent.
    """
    a, b, theta = p.a, p.b, p.theta
    if a < b:
        a, b = b, a
        theta = theta + _HALF_PI
    if a == b:
        theta = 0.0
    else:
        theta = _wrap_half_pi(theta)
    return BlobParams(p.cx, p.cy, a, b, theta)


def interpolate_blob_params(p1: BlobParams, p2: BlobParams, alpha: float) -> BlobParams:
    """Interpolate two canonical blobs: linear in center and radii, shortest
    arc modulo pi in orientation. alpha = 0 and 1 return the endpoints exactly.

    When the orientations are exactly perpendicular both arcs are pi/2 long.
    That tie goes to the raw difference p2.theta - p1.theta: round(+-0.5) is
    0, so the orientation rotates the way that difference points.
    """
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0) or not math.isfinite(alpha):
        raise RangeError(f"alpha must lie in [0, 1], got {alpha}")
    if not p1.is_canonical() or not p2.is_canonical():
        raise InvalidBlob("interpolation expects canonical blob parameters")
    if alpha == 0.0:
        return p1
    if alpha == 1.0:
        return p2
    w0 = 1.0 - alpha
    cx = w0 * p1.cx + alpha * p2.cx
    cy = w0 * p1.cy + alpha * p2.cy
    a = w0 * p1.a + alpha * p2.a
    b = w0 * p1.b + alpha * p2.b
    d = p2.theta - p1.theta
    d -= math.pi * round(d / math.pi)  # shortest arc; orientation is mod pi
    theta = p1.theta + alpha * d
    return canonicalize(BlobParams(cx, cy, a, b, theta))


def _span(center: float, half: float, cell: float, n: int) -> tuple[int, int]:
    # Indices [i0, i1) of the cells, of side `cell`, whose centers
    # (i + 0.5) * cell may lie within `half` of `center`. The pad of one cell
    # plus 2**-30 of the magnitudes covers the rounding of these bounds and of
    # the cell-in-ellipse test. Bounds are clamped in float before int(), so
    # centers near +-1e308 and infinite half-sides cannot overflow.
    pad = cell + (abs(center) + half) * 2.0 ** -30
    lo = (center - half - pad) / cell - 0.5
    hi = (center + half + pad) / cell + 0.5
    return int(min(max(lo, 0.0), n)), int(min(max(hi, 0.0), n))


def _ellipse_bounds(cx: float, cy: float, a: float, b: float, geom: FrameGeometry,
                    h: int, w: int, rho: float) -> tuple[int, int, int, int]:
    """A blob's window (r0, r1, c0, c1) of an h x w grid: the rows and columns
    of its bounding square of half-side rho * max(a, b), padded by at least
    one cell and clipped to the grid. No cell outside it is in the ellipse."""
    half = rho * max(a, b)
    r0, r1 = _span(cy, half, geom.height / h, h)
    c0, c1 = _span(cx, half, geom.width / w, w)
    return r0, r1, c0, c1


def _ellipse_rows(p: BlobParams, geom: FrameGeometry, h: int, w: int,
                  rho: float) -> tuple[int, int, list[list[bool]]]:
    """blobs._ellipse_window in plain floats, for a positive finite rho: the
    window offset (r0, c0) and one list of bools per window row. Each cell
    repeats the array version's float64 operations in order, so the two
    agree bit for bit; where rho * a or rho * b underflows to zero no cell is
    set, as the array version's inf and nan set none."""
    r0, r1, c0, c1 = _ellipse_bounds(p.cx, p.cy, p.a, p.b, geom, h, w, rho)
    ct, st = math.cos(p.theta), math.sin(p.theta)
    ra, rb = rho * p.a, rho * p.b
    if ra == 0.0 or rb == 0.0:
        return r0, c0, [[False] * (c1 - c0) for _ in range(r0, r1)]
    dxs = [(c + 0.5) * (geom.width / w) - p.cx for c in range(c0, c1)]
    rows = []
    for r in range(r0, r1):
        dy = (r + 0.5) * (geom.height / h) - p.cy
        row = []
        for dx in dxs:
            u = (dx * ct + dy * st) / ra
            v = (-dx * st + dy * ct) / rb
            row.append(u * u + v * v <= 1.0)
        rows.append(row)
    return r0, c0, rows
