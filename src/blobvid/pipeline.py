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

from . import attention, embedding
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
    positions: its own per-frame masks, label bitsets and classes, features,
    fused copy, output and caption embeddings; the Fourier projection's QR;
    and the larger of two stages that never overlap, the frames in flight
    (each holding its blobs' tokens while it embeds and cross-attends to
    them) and the 3D forward."""
    n = num_frames * h * w
    tokens = num_tracks * n_tokens
    own = (n * (num_tracks + 1 + (num_tracks + 1 + 7) // 8 + 8) + 3 * n * dim * 8
           + num_frames * tokens * (dim // 2) * 8)
    frame = tokens * dim * 8 + max(embedding._blob_embed_bytes(tokens, dim),
                                   attention._cross_attention_bytes(h * w, tokens, dim))
    frames = max(1, min(threads, num_frames)) * frame
    return (own + embedding._projection_bytes(10 * fourier_freqs)
            + max(frames, attention._self_attention_bytes(n, dim)))


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
        # Row stats only: the sums are a view of the whole (h*w, dim + 1) product.
        return gated_fuse(g_t, ca_out, ca_w.gate), _row_stats(sums), (masks, background)

    per_frame = parallel_map(frame_cross, range(v.num_frames), threads)
    x = np.vstack([fused for fused, _, _ in per_frame])
    ca_zero = sum(z for _, (z, _), _ in per_frame)
    ca_err = max(e for _, (_, e), _ in per_frame)

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
