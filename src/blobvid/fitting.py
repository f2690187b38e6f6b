"""Ellipse fitting to a mask by rasterized IOU.

fit_ellipse maximizes the IOU between a rasterized ellipse and a target mask
with derivative-free Nelder-Mead, started from image moments. The objective is
piecewise constant in the parameters, so the simplex steps are sized in cells.
Each vertex is scored on the candidate's own window, the bounding square of
half-side max(a, b) padded by at least one cell, with the cell-in-ellipse test
that rasterize uses: cells outside the window are never set, so the window's
intersection with the target, its count and the target's count give the same
IOU as a full-grid rasterization.

_nelder_mead follows scipy's non-adaptive Nelder-Mead
(scipy.optimize.minimize(method="Nelder-Mead") with an initial simplex and
only maxiter set) step for step: reflection 1, expansion 2, contraction 0.5
and shrink 0.5, no bounds, and the same stopping test. A piecewise-constant
objective ties often, and which tied vertex is best decides the next step,
so the simplex is reordered exactly as scipy reorders it: np.argsort of the
default kind, applied twice to the initial simplex. The same masks therefore
give the same parameters, bit for bit, and the same iteration count.

Blob parameter interpolation needs no numpy and lives in
geometry.interpolate_blob_params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blobs import BinaryMask, _cell_centers, _ellipse_window, mask_iou, rasterize
from .errors import EmptyMask, RangeError
from .geometry import BlobParams, FrameGeometry, _require_finite, canonicalize

__all__ = ["FitResult", "moments_init", "fit_ellipse"]


@dataclass(frozen=True)
class FitResult:
    params: BlobParams
    iou: float
    iterations: int


def moments_init(mask: BinaryMask, geom: FrameGeometry) -> BlobParams:
    """Moment-based initial ellipse for a mask.

    Center is the centroid of set cell centers in source coordinates. Semi-axes
    are 2 * sqrt of the covariance eigenvalues (exact for a solid ellipse),
    orientation is the principal axis. Radii are floored at half a cell so a
    single set cell still yields a valid blob.
    """
    rows, cols = np.nonzero(mask.bits)
    if rows.size == 0:
        raise EmptyMask("cannot initialize from an empty mask")
    cell_w = geom.width / mask.w
    cell_h = geom.height / mask.h
    xs = (cols.astype(np.float64) + 0.5) * cell_w
    ys = (rows.astype(np.float64) + 0.5) * cell_h
    cx = float(xs.mean())
    cy = float(ys.mean())
    dx = xs - cx
    dy = ys - cy
    cov = np.array(
        [[float((dx * dx).mean()), float((dx * dy).mean())],
         [float((dx * dy).mean()), float((dy * dy).mean())]]
    )
    evals, evecs = np.linalg.eigh(cov)
    floor = 0.5 * max(cell_w, cell_h)
    b = max(2.0 * math.sqrt(max(float(evals[0]), 0.0)), floor)
    a = max(2.0 * math.sqrt(max(float(evals[1]), 0.0)), floor)
    theta = math.atan2(float(evecs[1, 1]), float(evecs[0, 1]))
    return canonicalize(BlobParams(cx, cy, a, b, theta))


# Nelder-Mead coefficients (scipy's non-adaptive defaults): reflection,
# expansion, contraction and shrink; and fit_ellipse's stopping tolerances.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_XATOL, _FATOL = 1e-3, 1e-4


def _clamped(vec: np.ndarray, floor: float) -> BlobParams:
    cx, cy, a, b, theta = (float(v) for v in vec)
    return BlobParams(cx, cy, max(a, floor), max(b, floor), theta)


def _nelder_mead(func, simplex: np.ndarray, max_iter: int, xatol: float,
                 fatol: float) -> tuple[np.ndarray, int]:
    """Minimize func from an (N+1, N) simplex; return the best vertex and the
    iteration count, which starts at 1 as scipy's nit does."""
    sim = np.array(simplex, dtype=np.float64)
    n = sim.shape[1]
    fsim = np.array([func(x) for x in sim], dtype=np.float64)
    for _ in range(2):  # scipy sorts the initial simplex twice
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    iterations = 1
    while iterations < max_iter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = func(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
            fxc = func(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
            fxcc = func(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], iterations


def fit_ellipse(mask: BinaryMask, geom: FrameGeometry, max_iter: int = 200) -> FitResult:
    """Fit one ellipse to a mask by maximizing rasterized IOU at the mask's resolution.

    Deterministic: the initial simplex is built from the moment init with fixed
    per-dimension steps, and _nelder_mead reproduces scipy's Nelder-Mead run
    from it (_XATOL, _FATOL, at most max_iter iterations).
    iterations is that run's count, scipy's nit: 1 plus the simplex steps taken.
    The result never scores below the moment init.
    """
    if max_iter < 1:
        raise RangeError(f"max_iter must be at least 1, got {max_iter}")
    init = moments_init(mask, geom)
    cell_w = geom.width / mask.w
    cell_h = geom.height / mask.h
    floor = 0.5 * max(cell_w, cell_h)
    xs, ys = _cell_centers(geom, mask.h, mask.w)
    target = mask.bits
    target_count = int(np.count_nonzero(target))

    def objective(vec: np.ndarray) -> float:
        # -mask_iou(rasterize(_clamped(vec, floor), ...), mask), scored on the
        # candidate's window.
        cx, cy, a, b, theta = vec.tolist()
        a = max(a, floor)
        b = max(b, floor)
        _require_finite((cx, cy, a, b, theta))
        r0, c0, win = _ellipse_window(cx, cy, a, b, theta, geom, xs, ys, 1.0)
        rows, cols = win.shape
        inter = int(np.count_nonzero(win & target[r0:r0 + rows, c0:c0 + cols]))
        return -(inter / (int(np.count_nonzero(win)) + target_count - inter))

    x0 = init.as_array()
    steps = np.array(
        [
            max(cell_w, 0.1 * init.a),
            max(cell_h, 0.1 * init.b),
            max(cell_w, 0.1 * init.a),
            max(cell_h, 0.1 * init.b),
            0.1,
        ]
    )
    simplex = np.vstack([x0] + [x0 + steps[i] * np.eye(5)[i] for i in range(5)])
    x, iterations = _nelder_mead(objective, simplex, max_iter, xatol=_XATOL, fatol=_FATOL)
    best = canonicalize(_clamped(x, floor))
    iou = mask_iou(rasterize(best, geom, mask.h, mask.w, 1.0), mask)
    init_iou = mask_iou(rasterize(init, geom, mask.h, mask.w, 1.0), mask)
    if iou < init_iou:
        best, iou = init, init_iou
    return FitResult(params=best, iou=iou, iterations=iterations)

