"""Finite-difference gradient checks for the attention and embedding backward passes.

The scalar objective for every check is <upstream, forward(inputs)> with a
fixed random upstream, so the analytic backward must reproduce the central
difference of that scalar for every input entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attention import (
    CrossAttnWeights,
    SelfAttnWeights,
    gated_fuse,
    gated_fuse_backward,
    masked_3d_self_attention,
    masked_3d_self_attention_backward,
    masked_cross_attention,
    masked_cross_attention_backward,
)
from .blobs import BinaryMask
from .config import DEFAULT_STEP, DEFAULT_TOL
from .embedding import EmbeddingSeq, MlpWeights, blob_embed, blob_embed_backward
from .errors import RangeError
from .labelfield import AttnMask3D, LabelField

__all__ = ["GradCheckReport", "central_difference_grads", "relative_error", "run_gradcheck"]

# Entries below this magnitude are compared absolutely, scaled by the floor.
_REL_FLOOR = 1e-3


def central_difference_grads(loss: Callable[[Sequence[np.ndarray]], float],
                             arrays: Sequence[np.ndarray],
                             step: float = DEFAULT_STEP) -> list[np.ndarray]:
    """Central finite differences of a scalar loss over a list of arrays."""
    grads = []
    work = [np.array(a, dtype=np.float64) for a in arrays]
    for idx, arr in enumerate(work):
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = loss(work)
            flat[j] = orig - step
            lo = loss(work)
            flat[j] = orig
            gflat[j] = (hi - lo) / (2.0 * step)
        grads.append(grad)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max entrywise |a - n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), _REL_FLOOR)
    if a.size == 0:
        return 0.0
    return float((np.abs(a - n) / denom).max())


def _random_mask(rng: np.random.Generator, h: int, w: int) -> BinaryMask:
    return BinaryMask(rng.random((h, w)) < 0.6)


def _random_label_field(rng: np.random.Generator, T: int, h: int, w: int,
                        n_objects: int) -> LabelField:
    sets = []
    for _ in range(T * h * w):
        labs = [n for n in range(n_objects) if rng.random() < 0.5]
        if not labs:
            labs = [n_objects]  # background
        sets.append(labs)
    return LabelField.from_label_sets(T, h, w, n_objects + 1, sets)


def _check_cross_attention(rng: np.random.Generator, step: float) -> float:
    n_blobs = int(rng.integers(1, 3))
    L = int(rng.integers(1, 4))
    h = int(rng.integers(2, 5))
    w = int(rng.integers(2, 5))
    d = int(rng.integers(3, 7))
    d_g = int(rng.integers(3, 7))
    g = rng.standard_normal((h * w, d_g))
    blobs = [EmbeddingSeq(rng.standard_normal((L, d))) for _ in range(n_blobs)]
    masks = [_random_mask(rng, h, w) for _ in range(n_blobs)]
    wts = CrossAttnWeights.seeded(n_blobs, d, d_g, int(rng.integers(1 << 30)))
    upstream = rng.standard_normal((h * w, d_g))

    arrays = [g] + [b.data.copy() for b in blobs] + [wts.wq.copy()] \
        + [w_.copy() for w_ in wts.wk] + [w_.copy() for w_ in wts.wv]

    def unpack(vals):
        g_ = vals[0]
        blobs_ = [EmbeddingSeq(v) for v in vals[1 : 1 + n_blobs]]
        wq_ = vals[1 + n_blobs]
        wk_ = vals[2 + n_blobs : 2 + 2 * n_blobs]
        wv_ = vals[2 + 2 * n_blobs :]
        return g_, blobs_, CrossAttnWeights(wq_, tuple(wk_), tuple(wv_), gate=wts.gate)

    def loss(vals):
        g_, blobs_, wts_ = unpack(vals)
        return float((upstream * masked_cross_attention(g_, blobs_, masks, wts_)[0]).sum())

    fd = central_difference_grads(loss, arrays, step)
    an = masked_cross_attention_backward(g, blobs, masks, wts, upstream)
    analytic = [an.g] + list(an.blobs) + [an.wq] + list(an.wk) + list(an.wv)
    return max(relative_error(a, f) for a, f in zip(analytic, fd))


def _check_self_attention(rng: np.random.Generator, step: float) -> float:
    T = int(rng.integers(1, 3))
    h = int(rng.integers(2, 4))
    w = int(rng.integers(2, 4))
    d = int(rng.integers(3, 7))
    n_objects = int(rng.integers(1, 4))
    mask = AttnMask3D(_random_label_field(rng, T, h, w, n_objects))
    g = rng.standard_normal((T * h * w, d))
    wts = SelfAttnWeights.seeded(d, int(rng.integers(1 << 30)))
    upstream = rng.standard_normal(g.shape)

    arrays = [g, wts.wq.copy(), wts.wk.copy(), wts.wv.copy()]

    def loss(vals):
        wts_ = SelfAttnWeights(vals[1], vals[2], vals[3], gate=wts.gate)
        return float((upstream * masked_3d_self_attention(vals[0], mask, wts_)[0]).sum())

    fd = central_difference_grads(loss, arrays, step)
    an = masked_3d_self_attention_backward(g, mask, wts, upstream)
    analytic = [an.g, an.wq, an.wk, an.wv]
    return max(relative_error(a, f) for a, f in zip(analytic, fd))


def _check_gated_fuse(rng: np.random.Generator, step: float) -> float:
    shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
    x = rng.standard_normal(shape)
    attn = rng.standard_normal(shape)
    gamma = float(rng.standard_normal())
    upstream = rng.standard_normal(shape)

    def loss(vals):
        return float((upstream * gated_fuse(vals[0], vals[1], float(vals[2][0]))).sum())

    fd = central_difference_grads(loss, [x, attn, np.array([gamma])], step)
    dx, dattn, dgamma = gated_fuse_backward(x, attn, gamma, upstream)
    return max(
        relative_error(dx, fd[0]),
        relative_error(dattn, fd[1]),
        relative_error(np.array([dgamma]), fd[2]),
    )


def _check_blob_embed(rng: np.random.Generator, step: float) -> float:
    # The form run_attend_block calls: a frame of 1-3 blobs in one call.
    half = int(rng.integers(2, 5))
    lengths = rng.integers(1, 4, size=int(rng.integers(1, 4)))
    e_tau = rng.standard_normal((len(lengths), half))
    e_s = [EmbeddingSeq(rng.standard_normal((L, half))) for L in lengths]
    mlp = MlpWeights.seeded(2 * half, int(rng.integers(1 << 30)))
    upstream = [rng.standard_normal((L, 2 * half)) for L in lengths]

    arrays = [e_tau, *(seq.data for seq in e_s), mlp.w1, mlp.b1, mlp.w2, mlp.b2]

    def loss(vals):
        out = blob_embed(vals[0], [EmbeddingSeq(v) for v in vals[1:-4]], MlpWeights(*vals[-4:]))
        return float(sum((u * seq.data).sum() for u, seq in zip(upstream, out)))

    fd = central_difference_grads(loss, arrays, step)
    an = blob_embed_backward(e_tau, e_s, mlp, upstream)
    analytic = [an.e_tau, *an.e_s, an.w1, an.b1, an.w2, an.b2]
    return max(relative_error(a, f) for a, f in zip(analytic, fd))


_CHECKS = {
    "masked_cross_attention": _check_cross_attention,
    "masked_3d_self_attention": _check_self_attention,
    "gated_fuse": _check_gated_fuse,
    "blob_embed": _check_blob_embed,
}


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    per_op: dict[str, float]
    instances: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def run_gradcheck(seed: int = 0, instances: int = 20, step: float = DEFAULT_STEP,
                  tolerance: float = DEFAULT_TOL) -> GradCheckReport:
    """Run every backward check `instances` times and report the worst error.

    A check that runs no instance, or uses a step or tolerance that is not
    positive and finite, proves nothing, so those arguments raise RangeError.
    """
    if instances < 1:
        raise RangeError(f"instances must be at least 1, got {instances}")
    if not 0 < step < np.inf:
        raise RangeError(f"step must be positive and finite, got {step}")
    if not 0 < tolerance < np.inf:
        raise RangeError(f"tolerance must be positive and finite, got {tolerance}")
    rng = np.random.default_rng(seed)
    per_op = {}
    for name, check in _CHECKS.items():
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, check(rng, step))
        per_op[name] = worst
    return GradCheckReport(
        max_rel_err=max(per_op.values()),
        per_op=per_op,
        instances=instances,
        tolerance=tolerance,
    )
