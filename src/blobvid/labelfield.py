"""Per-position label sets over video feature grids, stored as packed bitsets.

Every position of a T x h x w grid carries the set of object labels whose
rasterized blob covers it; positions covered by no object carry the background
label. Two positions may attend to each other iff their label sets intersect.
The pairwise relation is implicit: storage stays at ceil((N+1)/8) bytes per
position and queries AND two bitsets. Positions with equal bitsets form a
class; LabelField.classes groups them once per field, and the 3D
self-attention reads its row blocks and their masks from that grouping (see
the attention module), so the full Thw x Thw relation is built only by
allowed_rows(0, Thw) in test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .blobs import BinaryMask, rasterize
from .errors import RangeError, ShapeError
from .video import BlobVideo

__all__ = [
    "NEG_INF",
    "LabelField",
    "AttnMask3D",
    "build_label_field",
    "per_frame_masks",
    "shares_label",
]

# Additive mask value: most negative finite float64. Using a finite value keeps
# softmax shifting free of (-inf) - (-inf) NaNs; exp underflows to exactly 0.
NEG_INF = float(np.finfo(np.float64).min)


@dataclass(frozen=True)
class LabelField:
    """Packed label bitsets for every position of a T x h x w grid.

    bits has shape (T*h*w, ceil(n_labels/8)), uint8, LSB-first within a byte,
    with no bit at or above n_labels set. Label n_labels - 1 is the
    background label, so n_labels >= 1.
    """

    T: int
    h: int
    w: int
    n_labels: int
    bits: np.ndarray

    def __post_init__(self):
        if self.n_labels < 1:
            raise RangeError(f"a label field needs at least 1 label, got {self.n_labels}")
        arr = np.array(self.bits, dtype=np.uint8, order="C", copy=True)
        expected = (self.size, (self.n_labels + 7) // 8)
        if arr.shape != expected:
            raise ShapeError(f"label bits must have shape {expected}, got {arr.shape}")
        if self.n_labels % 8 and (arr[:, -1] >> self.n_labels % 8).any():
            raise RangeError(f"label bits set at or above label {self.n_labels}")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @cached_property
    def classes(self):
        """(codes, inverse, counts): the distinct bitsets in np.unique's order,
        the class of every position and the positions per class. Computed
        once per field and shared by every caller, so read-only.

        Each bitset is grouped as one opaque byte string (a void view), which
        sorts in the same order as np.unique(bits, axis=0) and costs a
        fraction of its per-column structured sort."""
        nbytes = self.bits.shape[1]
        keys, inverse, counts = np.unique(self.bits.view(f"V{nbytes}").ravel(),
                                          return_inverse=True, return_counts=True)
        codes = keys.view(np.uint8).reshape(-1, nbytes)
        for arr in (codes, inverse, counts):
            arr.setflags(write=False)
        return codes, inverse, counts

    @property
    def size(self) -> int:
        return self.T * self.h * self.w

    @classmethod
    def from_label_sets(cls, T: int, h: int, w: int, n_labels: int,
                        sets: Iterable[Iterable[int]]) -> "LabelField":
        nbytes = (n_labels + 7) // 8
        bits = np.zeros((T * h * w, nbytes), dtype=np.uint8)
        count = 0
        for i, labs in enumerate(sets):
            count += 1
            for lab in labs:
                if not (0 <= lab < n_labels):
                    raise RangeError(f"label {lab} outside [0, {n_labels})")
                bits[i, lab >> 3] |= np.uint8(1 << (lab & 7))
        if count != T * h * w:
            raise ShapeError(f"expected {T * h * w} label sets, got {count}")
        return cls(T, h, w, n_labels, bits)


def build_label_field(v: BlobVideo, h: int, w: int, rho: float = 1.0, *,
                      frames=None) -> LabelField:
    """Rasterize every track of a dense video onto a T x h x w grid of label sets.

    Label n is the index of the n-th track; background fills exactly the
    positions no object covers. frames, when given, holds each frame's
    (object masks, background mask) from per_frame_masks, which are packed
    instead of rasterized again.
    """
    if not v.is_dense():
        raise ShapeError("label field needs a dense video; call densify first")
    if h < 1 or w < 1:
        raise ShapeError(f"grid must be at least 1x1, got {h}x{w}")
    if frames is not None and len(frames) != v.num_frames:
        raise ShapeError(f"expected masks for {v.num_frames} frames, got {len(frames)}")
    n_labels = v.num_tracks + 1
    nbytes = (n_labels + 7) // 8
    bits = np.zeros((v.num_frames, h * w, nbytes), dtype=np.uint8)
    for t in range(v.num_frames):
        masks, background = per_frame_masks(v, t, h, w, rho) if frames is None else frames[t]
        # The background mask comes last, so its label is n_labels - 1.
        layers = [*masks, background]
        if len(layers) != n_labels or any(m.bits.shape != (h, w) for m in layers):
            raise ShapeError(f"frame {t} needs {n_labels} masks of {h}x{w}")
        for n, m in enumerate(layers):
            bits[t, :, n >> 3] |= m.bits.ravel().astype(np.uint8) << np.uint8(n & 7)
    return LabelField(v.num_frames, h, w, n_labels, bits.reshape(-1, nbytes))


@dataclass(frozen=True)
class AttnMask3D:
    """Attention mask over all Thw positions: positions i and j may attend
    to each other when they share at least one label (same object, or both
    background). The relation is symmetric, and reflexive for every position
    with a nonempty label set, but not transitive.
    """

    field: LabelField

    @property
    def size(self) -> int:
        return self.field.size

    def allowed_rows(self, start: int, stop: int) -> np.ndarray:
        """Boolean block (stop-start, size): which pairs may attend."""
        n = self.size
        if not (0 <= start <= stop <= n):
            raise RangeError(f"row range [{start}, {stop}) outside [0, {n}]")
        return shares_label(self.field.bits[start:stop], self.field.bits)


def shares_label(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean (len(a), len(b)): whether label bitset rows of a and b intersect."""
    out = np.zeros((a.shape[0], b.shape[0]), dtype=bool)
    for byte in range(a.shape[1]):
        out |= (a[:, byte, None] & b[None, :, byte]) != 0
    return out


def per_frame_masks(v: BlobVideo, t: int, h: int, w: int, rho: float = 1.0):
    """Rasterize all tracks at frame t. Returns (object masks, background mask).

    The background mask is the complement of the union, so object coverage and
    background partition the grid.
    """
    if not (0 <= t < v.num_frames):
        raise RangeError(f"frame {t} outside [0, {v.num_frames})")
    masks = []
    union = np.zeros((h, w), dtype=bool)
    for track in v.tracks:
        if t not in track.params:
            raise ShapeError(f"track {track.object_id} has no params at frame {t}; densify first")
        m = rasterize(track.params[t], v.geom, h, w, rho)
        masks.append(m)
        union |= m.bits
    return masks, BinaryMask(~union)
