"""Blob geometry in plain floats: frame size, ellipse params, canonical form, interpolation.

A blob is an ellipse [cx, cy, a, b, theta] in source-pixel coordinates plus,
elsewhere in the package, a free-form caption. Nothing here needs numpy (only
BlobParams.as_array imports it, when called), so the commands that read,
check and interpolate layouts start without loading it; rasterization and
fitting, which do array math, live in blobs and fitting.
"""

from __future__ import annotations

import math
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
        vals = tuple(float(v) for v in (self.cx, self.cy, self.a, self.b, self.theta))
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
