"""Demo assembly of one attention block over a blob video.

Per frame, seeded features cross-attend to the fused caption-and-geometry
tokens of every blob under its rasterized mask, then all frames self-attend
under the shared-label mask. Both attention outputs enter through gated
residual merges. Everything is derived from the seed, so two runs agree byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention
from .attention import (
    CrossAttnWeights,
    SelfAttnWeights,
    gated_fuse,
    masked_3d_self_attention,
    masked_cross_attention,
)
from .config import Config
from .embedding import (
    DeterministicStub,
    EmbeddingSeq,
    MlpWeights,
    blob_embed,
    fourier_encode,
    interp_linear,
    interp_slerp,
)
from .errors import RangeError, ShapeError, TooLarge
from .labelfield import AttnMask3D, build_label_field, per_frame_masks
from .parallel import parallel_map
from .video import BlobVideo, densify, fill_frames

__all__ = ["AttendStats", "context_embeddings", "run_attend_block"]

# The most bytes run_attend_block may plan for (see _attend_bytes).
_ATTEND_BUDGET_BYTES = 1 << 30
# The (n, d) float64 arrays the attend block and its 3D op hold at once: the
# features and their fused copy; the op's projections, [v | 1] and out (dq
# in the backward); and, per part, dk and dv, a class run's two gathers and
# their two gradients.
_OP_ARRAYS = 2 + 5 + 6 * attention._PARTS
# The (tokens, dim + 1) float64 arrays a frame's cross-attention holds over
# all its blobs' tokens: the blob embeddings, their keys and values, the
# stacked keys and values, and [V | 1].
_TOKEN_ARRAYS = 6
# The (tokens, dim) float64 arrays' worth that embedding.blob_embed's MLP
# holds over all of a frame's blob tokens at once, as traced: its input,
# pre-activation, GELU temporaries and output, with the two object arrays of
# np.vectorize(math.erf) at 32 bytes (a pointer and a float) per entry each.
_MLP_ARRAYS = 13
# The (10 F)^2 float64 arrays of the Fourier projection's QR (embedding.
# _projection): the Gaussian, both factors and the sign-fixed factor.
_QR_ARRAYS = 5


@dataclass(frozen=True)
class AttendStats:
    rows: int
    zero_rows: int
    row_sum_max_err: float
    max_abs_output: float


def context_embeddings(v: BlobVideo, provider: DeterministicStub,
                       method: str = "linear",
                       orientation: str = "as_printed") -> dict[tuple[int, int], EmbeddingSeq]:
    """Caption embedding for every (track index, frame).

    Captioned frames embed their caption; frames between two captioned anchors
    interpolate per token; frames outside the captioned span copy the nearest
    anchor. Tracks with no captions embed the empty string everywhere.
    orientation applies to method "linear" only: "slerp" ignores it.
    """
    out: dict[tuple[int, int], EmbeddingSeq] = {}
    for n, track in enumerate(v.tracks):
        anchors = ({t: provider.embed(c) for t, c in sorted(track.captions.items())}
                   or {0: provider.embed("")})

        def blend(t0: int, t1: int, t: int) -> EmbeddingSeq:
            if method == "slerp":
                return interp_slerp(anchors[t0], anchors[t1], (t - t0) / (t1 - t0))
            return interp_linear(anchors[t0], anchors[t1], t, t1 - t0, t_anchor=t0,
                                 orientation=orientation)

        for t, e in fill_frames(anchors, v.num_frames, blend).items():
            out[(n, t)] = e
    return out


def _row_stats(sums: np.ndarray):
    """(rows with zero total weight, largest |sum - 1| over the other rows)."""
    zero = sums == 0.0
    if np.all(zero):
        return int(zero.sum()), 0.0
    return int(zero.sum()), float(np.abs(sums[~zero] - 1.0).max())


def _attend_bytes(num_frames: int, num_tracks: int, h: int, w: int, dim: int,
                  n_tokens: int, fourier_freqs: int, threads: int) -> int:
    """The bytes run_attend_block plans for over n = num_frames*h*w
    positions: the per-frame masks kept until the label field is packed, its
    bitsets and its class of every position; _OP_ARRAYS float64 arrays of
    (n, dim + 1); for each of the 3D op's _PARTS, its live block array of at
    most _BLOCK_BYTES and the key indices of its current class run; the
    caption embedding of every track in every frame; for each frame in
    flight, the cross-attention's (h*w, tracks*tokens) float64 logits and
    three boolean masks of that shape (the mask, its per-blob parts and its
    complement), _TOKEN_ARRAYS arrays of (tracks*tokens, dim + 1) and
    _MLP_ARRAYS of (tracks*tokens, dim); and the _QR_ARRAYS arrays of the
    Fourier projection."""
    n = num_frames * h * w
    label_bytes = n * (num_tracks + 1) + n * ((num_tracks + 1 + 7) // 8) + n * 8
    work_bytes = _OP_ARRAYS * n * (dim + 1) * 8
    block_bytes = attention._PARTS * (attention._BLOCK_BYTES + n * 8)
    context_bytes = num_frames * num_tracks * n_tokens * (dim // 2) * 8
    keys = num_tracks * n_tokens
    cross_bytes = max(1, min(threads, num_frames)) * (
        h * w * keys * (8 + 3) + _TOKEN_ARRAYS * keys * (dim + 1) * 8
        + _MLP_ARRAYS * keys * dim * 8)
    projection_bytes = _QR_ARRAYS * (10 * fourier_freqs) ** 2 * 8
    return (label_bytes + work_bytes + block_bytes + context_bytes + cross_bytes
            + projection_bytes)


def run_attend_block(v: BlobVideo, cfg: Config, dim: int = 16, n_tokens: int = 4,
                     threads: int = 1):
    """Run cross-attention then 3D self-attention on seeded features.

    Returns (output array of shape (T*h*w, dim), AttendStats). Raises
    ShapeError for an odd or too small dim, RangeError for n_tokens below 1,
    and TooLarge, before allocating, when _attend_bytes exceeds
    _ATTEND_BUDGET_BYTES.
    """
    if dim < 2 or dim % 2 != 0:
        raise ShapeError(f"feature width must be even and >= 2, got {dim}")
    if n_tokens < 1:
        raise RangeError(f"caption token count must be at least 1, got {n_tokens}")
    h, w = cfg.feature_h, cfg.feature_w
    need = _attend_bytes(v.num_frames, v.num_tracks, h, w, dim, n_tokens,
                         cfg.fourier_freqs, threads)
    if need > _ATTEND_BUDGET_BYTES:
        raise TooLarge(
            f"attention over {v.num_frames} frames of {h}x{w} features at width {dim}, "
            f"{n_tokens} tokens and {cfg.fourier_freqs} Fourier frequencies "
            f"needs {need} bytes, above the budget of {_ATTEND_BUDGET_BYTES}")
    v = densify(v)
    hw = h * w
    rng = np.random.default_rng(cfg.seed)
    g = rng.standard_normal((v.num_frames * hw, dim))
    provider = DeterministicStub(dim=dim // 2, n_tokens=n_tokens)
    ctx = context_embeddings(v, provider, method=cfg.interp_method,
                             orientation=cfg.interp_orientation)
    mlp = MlpWeights.seeded(dim, seed=cfg.seed + 1)
    ca_w = CrossAttnWeights.seeded(v.num_tracks, dim, dim, seed=cfg.seed + 2)
    sa_w = SelfAttnWeights.seeded(dim, seed=cfg.seed + 3)

    def frame_cross(t: int):
        e_tau = fourier_encode([track.params[t] for track in v.tracks], v.geom,
                               cfg.fourier_freqs, dim // 2, cfg.seed)
        blobs = blob_embed(e_tau, [ctx[(n, t)] for n in range(v.num_tracks)], mlp)
        masks, background = per_frame_masks(v, t, h, w, cfg.rescale)
        g_t = g[t * hw : (t + 1) * hw]
        ca_out, sums = masked_cross_attention(g_t, blobs, masks, ca_w)
        return gated_fuse(g_t, ca_out, ca_w.gate), sums, (masks, background)

    per_frame = parallel_map(frame_cross, range(v.num_frames), threads)
    x = np.vstack([fused for fused, _, _ in per_frame])
    ca_zero = 0
    ca_err = 0.0
    for _, sums, _ in per_frame:
        z, e = _row_stats(sums)
        ca_zero += z
        ca_err = max(ca_err, e)

    field = build_label_field(v, h, w, frames=[frame for _, _, frame in per_frame])
    del per_frame
    sa_out, sa_sums = masked_3d_self_attention(x, AttnMask3D(field), sa_w)
    y = gated_fuse(x, sa_out, sa_w.gate)
    sa_zero, sa_err = _row_stats(sa_sums)

    stats = AttendStats(
        rows=int(y.shape[0]),
        zero_rows=ca_zero + sa_zero,
        row_sum_max_err=max(ca_err, sa_err),
        max_abs_output=float(np.abs(y).max()),
    )
    return y, stats
