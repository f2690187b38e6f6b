"""Blob token embeddings: Fourier-encoded geometry, caption sequences, and the
per-frame context interpolators that bridge captioned anchor frames.

Caption embeddings come from a deterministic stub seeded by the caption text.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import CHOICES
from .errors import DegenerateVector, RangeError, SchemaError, ShapeError, read_json
from .geometry import BlobParams, FrameGeometry, canonicalize

__all__ = [
    "EmbeddingSeq",
    "MlpWeights",
    "fourier_features",
    "normalize_params",
    "fourier_encode",
    "blob_embed",
    "blob_embed_backward",
    "interp_weights",
    "interp_linear",
    "interp_slerp",
    "DeterministicStub",
    "write_embedding",
    "read_embedding",
]


@dataclass(frozen=True)
class EmbeddingSeq:
    """Token sequence, (L, dim) float64: a caption's embedding, or the fused
    tokens of one blob (blob_embed)."""

    data: np.ndarray

    def __post_init__(self):
        # Private copy: freezing an aliased buffer would mutate the caller's flags.
        out = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
            raise ShapeError(f"embedding sequence must be a (tokens, dim) array, got shape {out.shape}")
        if not np.all(np.isfinite(out)):
            raise ShapeError("embedding sequence must be finite")
        out.setflags(write=False)
        object.__setattr__(self, "data", out)

    @property
    def L(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# Fourier geometry encoding


def normalize_params(p: BlobParams, geom: FrameGeometry) -> np.ndarray:
    """Canonicalize and scale blob parameters into a 5-vector of order-1 values.

    Center is scaled by frame extent, radii by sqrt(W*H), orientation mapped
    from (-pi/2, pi/2] to (0, 1].
    """
    p = canonicalize(p)
    d = math.sqrt(geom.width * geom.height)
    return np.array(
        [
            p.cx / geom.width,
            p.cy / geom.height,
            p.a / d,
            p.b / d,
            (p.theta + math.pi / 2.0) / math.pi,
        ],
        dtype=np.float64,
    )


def fourier_features(u, n_freqs: int) -> np.ndarray:
    """Raw sin/cos features of 5-vectors u, shape (..., 5): [sin(2^f pi u_i),
    cos(2^f pi u_i)] for f in [0, n_freqs), i in [0, 5). Shape (...,
    10 * n_freqs), all in [-1, 1].
    """
    if n_freqs < 1:
        raise RangeError(f"need at least one frequency, got {n_freqs}")
    u = np.asarray(u, dtype=np.float64)
    if u.ndim < 1 or u.shape[-1] != 5:
        raise ShapeError(f"normalized params must be 5-vectors, got shape {u.shape}")
    ang = (2.0 ** np.arange(n_freqs, dtype=np.float64))[:, None] * math.pi * u[..., None, :]
    feats = np.stack([np.sin(ang), np.cos(ang)], axis=-1)  # (..., F, 5, 2)
    return feats.reshape(u.shape[:-1] + (10 * n_freqs,))


@lru_cache(maxsize=64)
def _projection(raw_dim: int, out_dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((raw_dim, raw_dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))[None, :]  # fix column signs so QR is unique
    p = np.ascontiguousarray(q.T[:out_dim])
    p.setflags(write=False)
    return p


def _projection_bytes(raw_dim: int) -> int:
    """Bytes of _projection's QR, (raw_dim, raw_dim) arrays: the Gaussian,
    its factored copy, both factors, the sign-fixed Q and R's boolean mask;
    and 4 KiB for its small allocations, which the arrays' own slack does
    not cover at raw_dim 40 and below."""
    return (5 * 8 + 1) * raw_dim * raw_dim + 4096


def fourier_encode(p, geom: FrameGeometry, n_freqs: int = 8,
                   out_dim: int = 8, seed: int = 0) -> np.ndarray:
    """Deterministic geometry embedding: Fourier features followed by a fixed
    seeded projection with orthonormal rows. p is one BlobParams, giving an
    (out_dim,) vector, or a sequence of N, giving (N, out_dim) rows that
    equal N one-blob calls bit for bit."""
    one = isinstance(p, BlobParams)
    u = np.array([normalize_params(q, geom) for q in ([p] if one else p)]).reshape(-1, 5)
    raw = fourier_features(u, n_freqs)
    raw_dim = raw.shape[1]
    if not (1 <= out_dim <= raw_dim):
        raise ShapeError(f"out_dim must lie in [1, {raw_dim}], got {out_dim}")
    # One mat-vec per row: a single (N, raw_dim) @ P.T moves the low bits.
    enc = np.matmul(_projection(raw_dim, out_dim, seed), raw[:, :, None])[:, :, 0]
    return enc[0] if one else enc


# ---------------------------------------------------------------------------
# Token fusion MLP

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _erf(x: np.ndarray) -> np.ndarray:
    """math.erf elementwise, into float64: the package needs no scipy."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + _erf(x * _INV_SQRT2))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return cdf + x * pdf


@dataclass(frozen=True)
class MlpWeights:
    """Two-layer token MLP with a GELU, width d in, d hidden, d out."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        d = w1.shape[0]
        if w1.shape != (d, d) or w2.shape != (d, d) or b1.shape != (d,) or b2.shape != (d,):
            raise ShapeError(
                f"MLP weights must be (d,d)/(d,) with one width, got {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}"
            )
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            object.__setattr__(self, name, arr)

    @property
    def width(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def seeded(cls, d: int, seed: int) -> "MlpWeights":
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(d)
        return cls(
            w1=rng.standard_normal((d, d)) * scale,
            b1=np.zeros(d),
            w2=rng.standard_normal((d, d)) * scale,
            b2=np.zeros(d),
        )


def _mlp_input(e_tau: np.ndarray, e_s, mlp: MlpWeights):
    """The MLP's input rows [e_tau ; e_s_l] of N blobs' tokens and each blob's
    slice of them. ShapeError unless e_tau has one row per token sequence
    and its width, the tokens' and the MLP's agree."""
    if e_tau.ndim != 2 or len(e_tau) != len(e_s):
        raise ShapeError(f"geometry embeddings must be a vector or one row per token "
                         f"sequence, got shape {e_tau.shape}")
    half = e_tau.shape[1]
    starts = np.cumsum([0] + [seq.L for seq in e_s])
    spans = [slice(start, start + seq.L) for seq, start in zip(e_s, starts)]
    x = np.empty((starts[-1], 2 * half))
    for e, seq, span in zip(e_tau, e_s, spans):
        if seq.dim != half:
            raise ShapeError(f"geometry width {half} must match token width {seq.dim}")
        x[span, :half] = e
        x[span, half:] = seq.data
    if mlp.width != 2 * half:
        raise ShapeError(f"MLP width {mlp.width} does not match token width {2 * half}")
    return x, spans


def blob_embed(e_tau, e_s, mlp: MlpWeights):
    """Fuse geometry embeddings with every caption token.

    One blob: e_tau a (dim,) vector and e_s an EmbeddingSeq; returns an
    EmbeddingSeq. N blobs: e_tau (N, dim) and e_s a sequence of N
    EmbeddingSeq; returns a tuple of N EmbeddingSeq. Each token row is
    [e_tau ; e_s_l], width d = 2 * dim, and all tokens go through the shared
    two-layer MLP in one pass. Token order is preserved. A blob's tokens are
    bit for bit those of its own call when it has at least two; numpy
    multiplies a single row as a vector, which may round differently.
    """
    e_tau = np.asarray(e_tau, dtype=np.float64)
    if e_tau.ndim == 1:
        return blob_embed(e_tau[None], [e_s], mlp)[0]
    x, spans = _mlp_input(e_tau, e_s, mlp)
    y = _gelu(x @ mlp.w1 + mlp.b1) @ mlp.w2 + mlp.b2
    return tuple(EmbeddingSeq(y[span]) for span in spans)


def _blob_embed_bytes(tokens: int, d: int) -> int:
    """Bytes blob_embed's MLP holds: its input, pre-activation and output,
    the GELU's x / 2, x / sqrt(2) and erf's result, (tokens, d) float64
    each, and erf's list of Python floats, 32 bytes an entry."""
    return 10 * tokens * d * 8


@dataclass(frozen=True)
class BlobEmbedGrads:
    e_tau: np.ndarray  # (dim,) for one blob, (N, dim) for N
    e_s: np.ndarray | tuple[np.ndarray, ...]  # (L, dim) for one blob, N such for N
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def blob_embed_backward(e_tau, e_s, mlp: MlpWeights, upstream) -> BlobEmbedGrads:
    """Gradients of <upstream, blob_embed(e_tau, e_s, mlp)> with respect to
    every input, for the inputs blob_embed takes: one blob, with upstream
    an (L, d) array, or N, with upstream one (L_n, d) array per blob."""
    e_tau = np.asarray(e_tau, dtype=np.float64)
    if e_tau.ndim == 1:
        grads = blob_embed_backward(e_tau[None], [e_s], mlp, [upstream])
        return replace(grads, e_tau=grads.e_tau[0], e_s=grads.e_s[0])
    x, spans = _mlp_input(e_tau, e_s, mlp)
    shapes, got = [(seq.L, x.shape[1]) for seq in e_s], [np.shape(u) for u in upstream]
    if got != shapes:
        raise ShapeError(f"upstream must have shapes {shapes}, got {got}")
    up = np.concatenate([x[:0], *upstream])  # float64, and (0, d) for no blob
    pre = x @ mlp.w1 + mlp.b1
    dpre = (up @ mlp.w2.T) * _gelu_grad(pre)
    dx = dpre @ mlp.w1.T
    half = e_tau.shape[1]
    return BlobEmbedGrads(
        e_tau=np.array([dx[span, :half].sum(axis=0) for span in spans]).reshape(e_tau.shape),
        e_s=tuple(dx[span, half:] for span in spans),
        w1=x.T @ dpre,
        b1=dpre.sum(axis=0),
        w2=_gelu(pre).T @ up,
        b2=up.sum(axis=0),
    )


# ---------------------------------------------------------------------------
# Context interpolation between captioned anchor frames


def interp_weights(t: int, k: int, t_anchor: int,
                   orientation: str = "as_printed") -> tuple[float, float]:
    """Anchor weights (on the earlier embedding, on the later embedding) for
    frame t inside the anchor interval [t_anchor, t_anchor + k].

    Orientation "as_printed" puts (t1 - t)/k on the later anchor and
    (t - t0)/k on the earlier one; "standard" swaps them so the weight of
    each anchor grows with proximity.
    Defined on the closed interval so the endpoints are expressible.
    """
    if k < 1:
        raise RangeError(f"anchor interval must be >= 1, got {k}")
    if orientation not in CHOICES["interp_orientation"]:
        raise RangeError(f"unknown interpolation orientation {orientation!r}")
    t0 = t_anchor
    t1 = t0 + k
    if not (t0 <= t <= t1):
        raise RangeError(f"frame {t} outside anchor interval [{t0}, {t1}]")
    w_near_lo = (t1 - t) / k
    w_near_hi = (t - t0) / k
    if orientation == "as_printed":
        return w_near_hi, w_near_lo
    return w_near_lo, w_near_hi


def interp_linear(e1: EmbeddingSeq, e2: EmbeddingSeq, t: int, k: int, t_anchor: int,
                  orientation: str = "as_printed") -> EmbeddingSeq:
    """Per-token linear blend of the two bracketing anchor embeddings.

    e1 sits at the earlier anchor t_anchor, e2 at t_anchor + k. t must be
    strictly between the two anchors; at the anchors the caller should use
    the anchor embedding itself.
    """
    if e1.data.shape != e2.data.shape:
        raise ShapeError(f"anchor embeddings differ in shape: {e1.data.shape} vs {e2.data.shape}")
    if not (t_anchor < t < t_anchor + k):
        raise RangeError(f"frame {t} not strictly inside anchor interval ({t_anchor}, {t_anchor + k})")
    w1, w2 = interp_weights(t, k, t_anchor, orientation=orientation)
    return EmbeddingSeq(w1 * e1.data + w2 * e2.data)


def interp_slerp(e1: EmbeddingSeq, e2: EmbeddingSeq, alpha: float) -> EmbeddingSeq:
    """Per-token spherical interpolation; falls back to linear for nearly
    parallel tokens. Zero-norm tokens have no direction and are rejected."""
    if e1.data.shape != e2.data.shape:
        raise ShapeError(f"anchor embeddings differ in shape: {e1.data.shape} vs {e2.data.shape}")
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise RangeError(f"alpha must lie in [0, 1], got {alpha}")
    out = np.empty_like(e1.data)
    for l in range(e1.L):
        a = e1.data[l]
        b = e2.data[l]
        na = float(np.linalg.norm(a))
        nb = float(np.linalg.norm(b))
        if na == 0.0 or nb == 0.0:
            raise DegenerateVector(f"token {l} has zero norm")
        cos_om = float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
        omega = math.acos(cos_om)
        sin_om = math.sin(omega)
        if omega < 1e-6 or sin_om < 1e-12:
            out[l] = (1.0 - alpha) * a + alpha * b
        else:
            out[l] = (math.sin((1.0 - alpha) * omega) / sin_om) * a + (
                math.sin(alpha * omega) / sin_om
            ) * b
    return EmbeddingSeq(out)


# ---------------------------------------------------------------------------
# Caption embeddings and their on-disk format


@dataclass(frozen=True)
class DeterministicStub:
    """Caption embeddings seeded from the caption hash: unit-norm rows, fixed
    token count so sequences from different captions stay alignable."""

    dim: int
    n_tokens: int = 4

    def embed(self, caption: str) -> EmbeddingSeq:
        seed = int.from_bytes(hashlib.sha256(caption.encode("utf-8")).digest()[:8], "little")
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((self.n_tokens, self.dim))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        return EmbeddingSeq(m)


def write_embedding(path, data: np.ndarray) -> None:
    """Raw little-endian float32 rows plus a JSON sidecar at <path>.json."""
    arr = np.ascontiguousarray(data, dtype="<f4")
    if arr.ndim != 2:
        raise ShapeError(f"embedding payload must be 2-d, got shape {arr.shape}")
    path = Path(path)
    arr.tofile(path)
    sidecar = {"shape": [int(arr.shape[0]), int(arr.shape[1])], "dtype": "f32le"}
    Path(str(path) + ".json").write_text(json.dumps(sidecar), encoding="utf-8")


def read_embedding(path) -> np.ndarray:
    path = Path(path)
    sidecar_path = str(path) + ".json"
    sidecar = read_json(sidecar_path)
    if not isinstance(sidecar, dict):
        raise SchemaError(f"{sidecar_path}: must be a JSON object")
    if sidecar.get("dtype") != "f32le":
        raise ShapeError(f"unsupported embedding dtype {sidecar.get('dtype')!r}")
    shape = sidecar.get("shape")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(x) is int and x >= 0 for x in shape)):
        raise SchemaError(f"{sidecar_path}: shape must be a list of two non-negative integers")
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != shape[0] * shape[1]:
        raise ShapeError(f"embedding file holds {raw.size} values, sidecar says {shape}")
    return raw.reshape(shape).astype(np.float64)
