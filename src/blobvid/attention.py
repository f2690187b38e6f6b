"""Masked attention reference operations with analytic gradients.

Two forward ops in float64:

* masked_cross_attention: every feature location attends over the stacked
  caption tokens of all blobs, but a blob's tokens are reachable only from
  locations inside that blob's mask. Locations covered by no blob get a zero
  output row rather than a softmax over nothing.
* masked_3d_self_attention: all T*h*w locations attend to each other, a pair
  allowed iff the two label sets share a label.

Both run one row-block kernel, _attend, and its backward, _attend_backward,
which holds the one softmax VJP; the cross-attention is a single block, and
a single tile, over all tokens. Backward passes are checked against central
finite differences in the gradcheck module.

Both passes form a block's weights by one rule (_shift and _weights). Row i
is shifted by a bound, b_i = |q_i| max_j |k_j| over the keys its block
reads, which no logit of the row exceeds (Cauchy-Schwarz); it enters the
logits GEMM as one more column, [q | -b] @ [k | 1].T, so there is no
row-max pass. A row's largest allowed weight is then at least exp(-2 b_i);
a row whose bound is above _SHIFT_LIMIT takes its exact allowed row max
from a pre-pass instead. Blocked weights are exactly zero: the mask
multiplies them after the exp. The shift moves the low bits: a row with one
allowed key gets its value within 2 ulp, as (e v) / e, not exactly. Both
kernels keep the weights e unnormalized and divide by their row sums on the
thin side, as FlashAttention-2 does: with the values as v1 = [v | 1], one
GEMM e @ v1 gives e @ v and, in its last column, the row sums. As the shift
is fixed before any key is read, the forward walks a block's keys in tiles
of at most _TILE_BYTES that stay in cache, as "Self-attention Does Not Need
O(n^2) Memory" and FlashAttention-2 do, adding up each tile's weights and
e @ v1 without the online softmax's rescaling. The backward recomputes each
block's weights from the forward's inputs and shift, as FlashAttention-2's
backward does, and forms the logit gradients in the weights' own buffer,
_ROW_CHUNK rows at a time, so it holds about one block array per thread.

The 3D self-attention never builds its n x n logits (n = T*h*w). Positions
of one label class (LabelField.classes) attend to the same keys, so the op
runs in row blocks by class (the row-tiled softmax of "Self-attention Does
Not Need O(n^2) Memory" and FlashAttention): a large class over its keys,
classes of fewer than _SMALL_CLASS positions packed together under a
boolean mask. A block reads only the keys its rows can reach, the positions
whose class meets one of its rows' classes, as the block masks of
FlexAttention and the block-sparse attention of "Generating Long Sequences
with Sparse Transformers" skip what no row of a block can reach. A block's
rows are cut so that its (rows, |keys|) float64 array is at most
_BLOCK_BYTES whatever n is (_rows_per_block), a packed block's by the keys
its own rows reach: each block costs a fixed amount beside its work, so
fewer and fuller blocks run faster. The backward holds that array, the
forward its mask and one tile, so the forward's working set
(_self_attention_bytes) is O(n d).

Both passes walk the blocks of a part (below) in class runs (_self_runs),
the blocks of one large class or a single packed block. One label test per
run (_class_runs) gives its keys and a packed block's mask, the mask the
op multiplies. A run gathers its keys and v1 rows once, or reads them in
place when its keys are all n, and in the backward accumulates its key and
value gradients in (d, |keys|) buffers that are scattered once.

The blocks are dealt into _PARTS fixed parts (block i goes to part i %
_PARTS), the split FlashAttention-2 uses across workers: each part writes its
own rows, and in the backward keeps its own partial key and value gradients,
which are added in part order at the end. The parts run on up to _PARTS
threads while OpenBLAS is pinned to one thread (see the blas module), else
one after another. The split never depends on the thread or CPU count, so
while the pin holds results are bitwise the same at one or two CPUs. Without
the pin, OpenBLAS may split a product across its own threads, which can move
the low bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from . import blas
from .blobs import BinaryMask
from .embedding import EmbeddingSeq
from .errors import ShapeError
from .labelfield import NEG_INF, AttnMask3D, LabelField, shares_label
from .parallel import parallel_map

__all__ = [
    "CrossAttnWeights",
    "SelfAttnWeights",
    "masked_softmax",
    "masked_cross_attention",
    "masked_3d_self_attention",
    "gated_fuse",
    "CrossAttnGrads",
    "SelfAttnGrads",
    "masked_cross_attention_backward",
    "masked_3d_self_attention_backward",
    "gated_fuse_backward",
]

# The most rows of a block of the 3D self-attention, and the most bytes of
# its (rows, keys) float64 array: 2 MiB, the L2 cache per core of the Xeon
# the block size was measured on.
_BLOCK = 128
_BLOCK_BYTES = 2 << 20
# The most bytes of one key tile of a forward block's float64 logits: 256
# KiB, so that a tile stays in a core's L2 cache while the block walks its
# keys (_attend). On that 2-core Xeon, tiles of 128 KiB and of 512 KiB to
# 2 MiB ran slower.
_TILE_BYTES = 256 << 10
# The largest norm bound a row is shifted by, so that its largest allowed
# weight is at least exp(-128); a row whose bound is above it takes its
# exact allowed row max instead (_shift).
_SHIFT_LIMIT = 64.0
# Fixed parts the blocks are dealt into, and the most threads that run them.
_PARTS = 2
# Label classes with fewer positions than this share packed, masked blocks.
# A class run's label test, key gathers and (d, |keys|) scatters cost in
# proportion to |keys|, its kernel to rows x |keys|, so the break-even is a
# row count, whatever n is. In an in-process sweep of an attend-many-labels
# op over 8, 16, ..., 48 (2 CPUs, seeds 1 and 0), 32 ran fastest, 24-48
# within its quartiles and 8 16-19% slower; at most 48 keeps the plan of
# the cli's 8x8 exemplar field (classes of 48 to 643 positions).
_SMALL_CLASS = 32
# Rows of a backward block whose logit gradients are formed at a time.
_ROW_CHUNK = 16


@dataclass(frozen=True)
class CrossAttnWeights:
    """Cross-attention projections: one query map plus per-blob key/value maps."""

    wq: np.ndarray                 # (d_g, d_g)
    wk: tuple[np.ndarray, ...]     # N entries, each (d, d_g)
    wv: tuple[np.ndarray, ...]     # N entries, each (d, d_g)
    gate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "wq", np.asarray(self.wq, dtype=np.float64))
        object.__setattr__(self, "wk", tuple(np.asarray(w, dtype=np.float64) for w in self.wk))
        object.__setattr__(self, "wv", tuple(np.asarray(w, dtype=np.float64) for w in self.wv))
        if self.wq.ndim != 2 or self.wq.shape[0] != self.wq.shape[1]:
            raise ShapeError(f"query projection must be square, got {self.wq.shape}")
        if len(self.wk) != len(self.wv):
            raise ShapeError(f"{len(self.wk)} key maps vs {len(self.wv)} value maps")
        d_g = self.wq.shape[1]
        for i, (wk, wv) in enumerate(zip(self.wk, self.wv)):
            if wk.ndim != 2 or wk.shape[1] != d_g or wv.shape != wk.shape:
                raise ShapeError(f"blob {i}: key/value maps must be (d, {d_g}), got {wk.shape} and {wv.shape}")

    @property
    def n_blobs(self) -> int:
        return len(self.wk)

    @classmethod
    def seeded(cls, n_blobs: int, d: int, d_g: int, seed: int) -> "CrossAttnWeights":
        rng = np.random.default_rng(seed)
        s_q = 1.0 / math.sqrt(d_g)
        s_kv = 1.0 / math.sqrt(d)
        return cls(
            wq=rng.standard_normal((d_g, d_g)) * s_q,
            wk=tuple(rng.standard_normal((d, d_g)) * s_kv for _ in range(n_blobs)),
            wv=tuple(rng.standard_normal((d, d_g)) * s_kv for _ in range(n_blobs)),
            gate=float(rng.standard_normal() * 0.5),
        )


@dataclass(frozen=True)
class SelfAttnWeights:
    """Shared projections for 3D self-attention."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    gate: float = 0.0

    def __post_init__(self):
        for name in ("wq", "wk", "wv"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        d = self.wq.shape[0]
        for name in ("wq", "wk", "wv"):
            if getattr(self, name).shape != (d, d):
                raise ShapeError(f"{name} must be ({d}, {d}), got {getattr(self, name).shape}")

    @classmethod
    def seeded(cls, d: int, seed: int) -> "SelfAttnWeights":
        rng = np.random.default_rng(seed)
        s = 1.0 / math.sqrt(d)
        return cls(
            wq=rng.standard_normal((d, d)) * s,
            wk=rng.standard_normal((d, d)) * s,
            wv=rng.standard_normal((d, d)) * s,
            gate=float(rng.standard_normal() * 0.5),
        )


def _nonzero(l: np.ndarray) -> np.ndarray:
    """Row sums l with 1 on the rows that have nothing allowed (l = 0), whose
    weights are all zero, so that dividing by l leaves them zero."""
    l[l == 0.0] = 1.0
    return l


def masked_softmax(logits: np.ndarray, allow: np.ndarray) -> np.ndarray:
    """Row softmax under a boolean mask.

    Blocked entries get exactly zero weight; rows with nothing allowed come
    back as all-zero rows. Works on a float64 copy of logits, shifted by each
    row's allowed max; the ops never call it, and form their weights in
    their blocks' own buffers instead (_shift and _weights).
    """
    if logits.shape != allow.shape:
        raise ShapeError(f"logits {logits.shape} vs mask {allow.shape}")
    e = np.where(allow, np.asarray(logits, dtype=np.float64), NEG_INF)
    e -= e.max(axis=1, keepdims=True, initial=NEG_INF)
    np.exp(e, out=e)
    e *= allow
    e /= _nonzero(e.sum(axis=1, keepdims=True))
    return e


def _stack_cross(g, blobs: Sequence[EmbeddingSeq], masks: Sequence[BinaryMask],
                 wts: CrossAttnWeights):
    """The inputs of both cross-attention passes, (g, qb, k1T, v1, allow,
    scale): every blob's keys and values filled into k1T = [K | 1].T and v1
    = [V | 1] in turn, qb = [q | b] over all keys and the (hw, tokens) mask."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"features must be (hw, d_g), got shape {g.shape}")
    hw, d_g = g.shape
    if wts.wq.shape != (d_g, d_g):
        raise ShapeError(f"query projection {wts.wq.shape} does not match feature width {d_g}")
    if len(blobs) != len(masks) or len(blobs) != wts.n_blobs:
        raise ShapeError(
            f"inconsistent blob count: {len(blobs)} embeddings, {len(masks)} masks, {wts.n_blobs} weight pairs"
        )
    tokens = sum(emb.L for emb in blobs)
    k1T = np.ones((d_g + 1, tokens))
    v1 = np.ones((tokens, d_g + 1))
    allow = np.empty((hw, tokens), dtype=bool)
    k_max, offset = 0.0, 0
    for i, (emb, mask) in enumerate(zip(blobs, masks)):
        if mask.h * mask.w != hw:
            raise ShapeError(f"blob {i}: mask {mask.h}x{mask.w} does not cover {hw} locations")
        if emb.dim != wts.wk[i].shape[0]:
            raise ShapeError(f"blob {i}: embedding width {emb.dim} vs key map {wts.wk[i].shape}")
        sl = slice(offset, offset + emb.L)
        offset += emb.L
        k = emb.data @ wts.wk[i]
        k1T[:-1, sl] = k.T
        k_max = max(k_max, _norms(k).max(initial=0.0))
        v1[sl, :-1] = emb.data @ wts.wv[i]
        allow[:, sl] = mask.bits.reshape(-1, 1)
    scale = 1.0 / math.sqrt(d_g)
    q = (g @ wts.wq) * scale
    return g, _with_column(q, _norms(q) * k_max), k1T, v1, allow, scale


def masked_cross_attention(g, blobs: Sequence[EmbeddingSeq], masks: Sequence[BinaryMask],
                           wts: CrossAttnWeights):
    """Blob-masked cross-attention over stacked caption tokens.

    Location j scores every token of every blob, tokens of blob n are allowed
    only where mask n covers j, and the softmax runs over all allowed tokens
    jointly: one _attend block, and one tile, over all keys. Returns (out, row_sums): out is
    (hw, d_g), zero on rows covered by no blob, and row_sums each row's total
    softmax weight, 1 up to rounding and 0 for a location covered by no blob.
    """
    _, qb, k1T, v1, allow, _ = _stack_cross(g, blobs, masks, wts)
    return _attend(qb, k1T, v1, allow, max(1, len(v1)))


def _cross_attention_bytes(hw: int, tokens: int, d: int) -> int:
    """Bytes masked_cross_attention holds beyond its inputs: the query, its
    unscaled product and [q | b]; the running and the last (hw, d + 1)
    products, and the bounds, row sums and row maxima; one blob's keys and
    values and [K | 1] and [V | 1]; the (hw, tokens) logits and their mask;
    and numpy's buffer for the mask's cast to float64."""
    return (8 * (hw * (3 * d + 6) + 4 * tokens * (d + 1)) + 9 * hw * tokens
            + 8 * np.getbufsize())


class _ClassBlocks(NamedTuple):
    """One entry of the block plan (_label_blocks): the rows of one label
    class, or of one packed block, and how they are blocked."""

    cls: int          # index into LabelField.classes; -1 for a packed block
    rows: np.ndarray  # the query positions, in class order
    n_keys: int       # the keys a block reads: its class's, or its own rows' if packed
    step: int         # rows per block; all its rows if packed

    @property
    def blocks(self) -> int:
        return -(-self.rows.size // self.step)


def _rows_per_block(n_keys):
    """Rows of a block over n_keys keys, one count or an array of them: at
    most _BLOCK, and few enough that its float64 array fits in
    _BLOCK_BYTES, but at least one."""
    return np.minimum(_BLOCK, np.maximum(1, _BLOCK_BYTES // (8 * n_keys)))


def _label_blocks(field: LabelField) -> list:
    """The plan of the 3D self-attention's row blocks, grouped by label set:
    one _ClassBlocks per class run, in run order.

    Positions with equal label sets form a class and attend to the same
    keys, the positions of every class their set meets; the key count adds
    those classes' counts. The counts come from label tests of a few
    classes at a time against every class, so no class x class matrix is
    built. A class of at least _SMALL_CLASS positions gets blocks of its own
    over its keys. The smaller classes are packed, in class order, into
    masked blocks cut greedily by their own reach: a block is closed when
    one more row would take it past _BLOCK rows or its (rows, keys) array
    past _BLOCK_BYTES, its keys those of all its rows' classes, so a class
    may be split between two blocks. Each packed block is an entry of its
    own. Positions with an empty label set attend to nothing and are in no
    block. The plan holds rows, not blocks: each part cuts its own from it
    as it runs (_class_runs). The classes are the field's
    (LabelField.classes), so the order depends on the field alone: the same
    on every run.
    """
    codes, inverse, counts = field.classes
    order = np.argsort(inverse, kind="stable")
    starts = np.cumsum(counts) - counts
    # At most _BLOCK classes, and _TILE_BYTES of label tests, at a time.
    chunk = max(1, min(_BLOCK, _TILE_BYTES // len(codes)))
    reach = np.concatenate([np.einsum("ij,j->i", shares_label(codes[c:c + chunk], codes), counts)
                            for c in range(0, len(codes), chunk)])
    nonempty = reach > 0  # a class with a label reaches at least itself
    small = nonempty & (counts < _SMALL_CLASS)
    plan = [_ClassBlocks(int(c), order[starts[c]:starts[c] + counts[c]], int(reach[c]),
                         int(_rows_per_block(reach[c])))
            for c in np.flatnonzero(nonempty & ~small)]
    packed = order[small[inverse[order]]]
    start = 0
    while start < packed.size:
        # The classes of the most rows a block over its first row's keys
        # holds, and the keys and rows of a block that runs into each.
        cls = inverse[packed[start:start + _rows_per_block(reach[inverse[packed[start]]])]]
        first = np.flatnonzero(np.diff(cls, prepend=-1))
        meets = np.logical_or.accumulate(shares_label(codes[cls[first]], codes))
        n_keys = np.einsum("ij,j->i", meets, counts)
        cap = _rows_per_block(n_keys)
        j = np.count_nonzero(first < cap) - 1  # the last class the block reaches
        step = int(min(cap[j], first[j + 1] if j + 1 < first.size else cls.size))
        plan.append(_ClassBlocks(-1, packed[start:start + step], int(n_keys[j]), step))
        start += step
    return plan


def _with_column(a: np.ndarray, c) -> np.ndarray:
    """[a | c]: a with one more column, c a number or one per row. The
    values with ones, [v | 1], let one GEMM with the weights give both the
    weighted values and the weights' row sums."""
    out = np.empty((a.shape[0], a.shape[1] + 1))
    out[:, :-1] = a
    out[:, -1] = c
    return out


def _norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a."""
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def _class_runs(plan: list, part: int, field: LabelField):
    """The class runs of one part: block i of the plan, in plan order, goes
    to part i % _PARTS. A run is the part's blocks of one large class, or
    one packed block. Yields (keys, blocks) per run, blocks an iterator over
    the (rows, allow) of its blocks, cut from the plan as they run. One
    label test of the run's classes (the large class, or each packed row's)
    against every class gives its keys, the positions whose class meets one
    of them (slice(None) when that is all n), and a packed block's mask
    allow over them (None for a large class). A part holds the keys of at
    most two runs at a time: a run's are dropped here when the next starts."""
    codes, inverse, _ = field.classes
    first = 0
    for entry in plan:
        c, rows, _, step = entry
        mine = range((part - first) % _PARTS, entry.blocks, _PARTS)
        first += entry.blocks
        cuts = (rows[j * step:(j + 1) * step] for j in mine)
        if c < 0:
            runs = ((inverse[block], (block,)) for block in cuts)
        else:
            runs = ((slice(c, c + 1), cuts),) if mine else ()
        for classes, blocks in runs:
            meets = shares_label(codes[classes], codes)
            reach = meets.any(axis=0) if c < 0 else meets[0]
            keys = slice(None) if reach.all() else np.flatnonzero(reach[inverse])
            allow = meets[:, inverse[keys]] if c < 0 else None
            del meets, reach
            yield keys, zip(blocks, repeat(allow))
            del keys, allow


def _shift(qb, k1T, allow, tile) -> bool:
    """Sets the last column of the scaled query rows qb = [q | b], b their
    norm bounds, to minus each row's shift over the keys k1T = [k | 1].T
    under the mask allow (None: all allowed), and returns whether any row
    is guarded: its bound is above _SHIFT_LIMIT, so it is shifted by its
    exact allowed row max, from a pre-pass over tiles of at most tile keys,
    instead of by b."""
    shift = qb[:, -1].copy()
    guard = shift > _SHIFT_LIMIT
    guarded = guard.any()
    if guarded:
        qb[:, -1] = 0.0
        top = np.full(len(qb), -np.inf)
        for j in range(0, k1T.shape[1], tile):
            np.maximum(top, (qb @ k1T[:, j:j + tile]).max(
                axis=1, initial=-np.inf, where=True if allow is None else allow[:, j:j + tile]),
                out=top)
        # A row with nothing allowed keeps its bound: all its weights are zeroed.
        np.copyto(shift, top, where=guard & (top > -np.inf))
    qb[:, -1] = -shift
    return guarded


def _weights(qb, k1T, allow, guarded: bool) -> np.ndarray:
    """The unnormalized weights e = exp(qb @ k1T) of rows qb = [q | -shift]
    (_shift), times the mask allow (None: all allowed). On a guarded row a
    blocked logit can exceed the shift, so then the mask zeroes the logits
    before the exp too."""
    e = qb @ k1T
    if allow is not None and guarded:
        e *= allow
    np.exp(e, out=e)
    if allow is not None:
        e *= allow
    return e


def _attend(qb, k1T, v1, allow, tile):
    """One block of masked attention over tiles of at most tile keys:
    returns (p @ v, the row sums of p), p the block's softmax weights, for
    the scaled query rows qb = [q | b] (_shift) over the gathered keys,
    transposed with a row of ones, k1T = [k | 1].T, values v1 = [v | 1] and
    the mask allow (None: all allowed). Overwrites qb's last column.

    The tiles add up their weights and their products with v1 with no
    rescaling, the shift being fixed before the first. The last column of
    the summed e @ v1 is the sum of the weights as the GEMMs applied them,
    so the row sums check those products. Rows with nothing allowed get
    zero output and sum."""
    guarded = _shift(qb, k1T, allow, tile)
    ev = np.zeros((len(qb), v1.shape[1]))
    l = np.zeros(len(qb))
    for j in range(0, len(v1), tile):
        e = _weights(qb, k1T[:, j:j + tile], None if allow is None else allow[:, j:j + tile],
                     guarded)
        l += e.sum(axis=1)
        ev += e @ v1[j:j + tile]
        del e  # before the next tile's logits
    ev /= _nonzero(l)[:, None]
    return ev[:, :-1], ev[:, -1]


def _attend_backward(qb, k1T, v1, allow, up, dkT, dvT):
    """Backward of one _attend block, from its inputs, for the upstream rows
    up: adds the key-space gradients, transposed, into the (d, |keys|)
    buffers dkT and dvT and returns the gradient of q = qb[:, :-1].

    Recomputes the block's weights e with the forward's shift over all its
    keys; p = e / l, with the division on the thin side, up' = up / l. One
    GEMM, ev = e @ v1, gives e @ v and l. Then dvT += up'.T @ e, and
    dlogits = p * (dp - rowsum(dp * p)), dp = up @ v.T, is e * ([up', -c] @
    v1.T), c = rowsum(up' * (e @ v)) / l, formed in e's own buffer
    _ROW_CHUNK rows at a time. Rows with nothing allowed have e = 0, so
    their gradient is zero."""
    guarded = _shift(qb, k1T, allow, max(1, len(v1)))
    e = _weights(qb, k1T, allow, guarded)
    ev = e @ v1
    l = _nonzero(ev[:, -1:])
    up = up / l
    dvT += up.T @ e
    c = np.einsum("ij,ij->i", up, ev[:, :-1])[:, None] / l
    up_c = np.hstack([up, -c])
    for i in range(0, e.shape[0], _ROW_CHUNK):
        e[i:i + _ROW_CHUNK] *= up_c[i:i + _ROW_CHUNK] @ v1.T
    dkT += qb[:, :-1].T @ e
    return e @ k1T[:-1].T


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parts(fn, plan: list, pinned: bool) -> list:
    """fn over the _PARTS fixed part indices, results in part order. The
    parts run on up to _PARTS threads when OpenBLAS is pinned to one thread
    and the plan has more than one block, else one after another in this
    thread; either way every part does the same arithmetic in the same
    order."""
    blocks = sum(entry.blocks for entry in plan)
    threads = min(_PARTS, _usable_cpus()) if pinned and blocks > 1 else 1
    return parallel_map(fn, range(_PARTS), threads)


def _self_inputs(g, mask: AttnMask3D, wts: SelfAttnWeights):
    """The inputs of both 3D passes: (g, q1, k1T, v1, k_norms, scale), with
    the scaled queries and their norms q1 = [q | |q|], k1T = [k | 1].T, v1
    = [v | 1] and the key norms. A block scales q1's last column by its
    run's largest key norm, to the bound that _shift shifts its rows by."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeError(f"features must be (Thw, d), got shape {g.shape}")
    n, d = g.shape
    if n != mask.size:
        raise ShapeError(f"{n} feature rows vs mask over {mask.size} positions")
    if wts.wq.shape != (d, d):
        raise ShapeError(f"projections {wts.wq.shape} do not match feature width {d}")
    scale = 1.0 / math.sqrt(d)
    q = g @ wts.wq
    q *= scale
    q1 = _with_column(q, _norms(q))
    del q  # each product before the next: a lower peak
    k = g @ wts.wk
    k1T = np.ones((d + 1, n))
    k1T[:-1] = k.T
    k_norms = _norms(k)
    del k
    return g, q1, k1T, _with_column(g @ wts.wv, 1.0), k_norms, scale


def _self_runs(plan: list, part: int, field: LabelField, q1, k1T, v1, k_norms):
    """The class runs of one part (_class_runs) with their gathers: yields
    (keys, k1T[:, keys], v1[keys], blocks) per run, blocks yielding (rows,
    qb, allow) per block, qb = q1[rows] scaled to its bounds [q | b] and
    allow a packed block's mask, else None. Drops a run's gathers when the
    next run is asked for, so a caller that drops its own holds one run's."""

    def cut(blocks, k_max):
        for rows, allow in blocks:
            qb = q1[rows]
            qb[:, -1] *= k_max
            yield rows, qb, allow

    for keys, blocks in _class_runs(plan, part, field):
        k1T_keys, v1_keys = k1T[:, keys], v1[keys]
        yield keys, k1T_keys, v1_keys, cut(blocks, k_norms[keys].max())
        del k1T_keys, v1_keys


def masked_3d_self_attention(g, mask: AttnMask3D, wts: SelfAttnWeights):
    """Self-attention over all T*h*w locations under the pairwise label mask.

    Evaluated block by block over the plan of _label_blocks, so no
    intermediate is larger than a block's _BLOCK_BYTES or the (n, d) arrays.
    Returns (out, row_sums): out is (n, d), and row_sums each row's total
    softmax weight, 1 up to rounding and 0 for a position with an empty
    label set.
    """
    with blas.one_thread() as pinned:
        g, q1, k1T, v1, k_norms, _ = _self_inputs(g, mask, wts)
        out = np.zeros_like(g)
        sums = np.zeros(g.shape[0])

        plan = _label_blocks(mask.field)

        def part(p):
            # Blocks own disjoint rows, so the parts never write the same entry.
            for _, k1T_keys, v1_keys, blocks in _self_runs(plan, p, mask.field,
                                                           q1, k1T, v1, k_norms):
                for rows, qb, allow in blocks:
                    out[rows], sums[rows] = _attend(qb, k1T_keys, v1_keys, allow,
                                                    max(1, _TILE_BYTES // (8 * rows.size)))
                del k1T_keys, v1_keys  # before the next run's keys

        _run_parts(part, plan, pinned)
    return out, sums


def _self_attention_bytes(n: int, d: int) -> int:
    """Bytes masked_3d_self_attention holds beyond its inputs: the
    projections, the query's unscaled product, [q | |q|], [k | 1], [v | 1],
    the key norms, out, the row sums and the plan's rows; and per part, a
    class run's keys and their two gathers, and one block: its mask of at
    most _BLOCK_BYTES / 8 entries, one tile of at most _TILE_BYTES with
    numpy's buffer for the mask's cast to float64, [q | b], the running and
    the last (rows, d + 1) products, and four row vectors."""
    part = (8 * (n * (2 * d + 3) + _BLOCK * (3 * d + 7)) + _BLOCK_BYTES // 8 + _TILE_BYTES
            + 8 * np.getbufsize())
    return 8 * n * (6 * d + 4) + _PARTS * part


def gated_fuse(x, attn_out, gamma: float) -> np.ndarray:
    """Residual merge x + tanh(gamma) * attn_out; gamma = 0 is the identity."""
    x = np.asarray(x, dtype=np.float64)
    attn_out = np.asarray(attn_out, dtype=np.float64)
    if x.shape != attn_out.shape:
        raise ShapeError(f"residual {x.shape} vs attention output {attn_out.shape}")
    return x + math.tanh(gamma) * attn_out


# ---------------------------------------------------------------------------
# Backward passes: gradients of <upstream, forward(...)>


@dataclass(frozen=True)
class CrossAttnGrads:
    g: np.ndarray
    blobs: tuple[np.ndarray, ...]
    wq: np.ndarray
    wk: tuple[np.ndarray, ...]
    wv: tuple[np.ndarray, ...]


def masked_cross_attention_backward(g, blobs: Sequence[EmbeddingSeq],
                                    masks: Sequence[BinaryMask],
                                    wts: CrossAttnWeights,
                                    upstream: np.ndarray) -> CrossAttnGrads:
    g, qb, k1T, v1, allow, scale = _stack_cross(g, blobs, masks, wts)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != g.shape:
        raise ShapeError(f"upstream must have shape {g.shape}, got {upstream.shape}")
    dKT = np.zeros((g.shape[1], len(v1)))
    dVT = np.zeros_like(dKT)
    dq = _attend_backward(qb, k1T, v1, allow, upstream, dKT, dVT) * scale
    dK, dV = dKT.T, dVT.T
    dg = dq @ wts.wq.T
    dwq = g.T @ dq

    dblobs, dwk, dwv = [], [], []
    offset = 0
    for emb, wk_n, wv_n in zip(blobs, wts.wk, wts.wv):
        sl = slice(offset, offset + emb.L)
        offset += emb.L
        dblobs.append(dK[sl] @ wk_n.T + dV[sl] @ wv_n.T)
        dwk.append(emb.data.T @ dK[sl])
        dwv.append(emb.data.T @ dV[sl])
    return CrossAttnGrads(g=dg, blobs=tuple(dblobs), wq=dwq, wk=tuple(dwk), wv=tuple(dwv))


@dataclass(frozen=True)
class SelfAttnGrads:
    g: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray


def masked_3d_self_attention_backward(g, mask: AttnMask3D, wts: SelfAttnWeights,
                                      upstream: np.ndarray) -> SelfAttnGrads:
    """Recomputes each block's softmax, FlashAttention-style, in the forward's
    block order, so no intermediate is larger than a block's _BLOCK_BYTES or
    the (n, d) arrays."""
    with blas.one_thread() as pinned:
        g, q1, k1T, v1, k_norms, scale = _self_inputs(g, mask, wts)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != g.shape:
            raise ShapeError(f"upstream must have shape {g.shape}, got {upstream.shape}")
        dq = np.zeros_like(g)

        plan = _label_blocks(mask.field)

        def part(p):
            # dq rows are disjoint across blocks; each part keeps its own dk, dv.
            dk = np.zeros_like(g)
            dv = np.zeros_like(g)
            # A class run accumulates its keys' gradients transposed, in
            # (d, |keys|) buffers, and scatters them once.
            for keys, k1T_keys, v1_keys, blocks in _self_runs(plan, p, mask.field,
                                                              q1, k1T, v1, k_norms):
                dkT = np.zeros((g.shape[1], len(v1_keys)))
                dvT = np.zeros_like(dkT)
                for rows, qb, allow in blocks:
                    dq[rows] = _attend_backward(qb, k1T_keys, v1_keys, allow, upstream[rows],
                                                dkT, dvT)
                dk[keys] += dkT.T
                dv[keys] += dvT.T
                del k1T_keys, v1_keys, dkT, dvT  # before the next run's keys
            return dk, dv

        (dk, dv), *rest = _run_parts(part, plan, pinned)
        for part_dk, part_dv in rest:
            dk += part_dk
            dv += part_dv
        dq *= scale
        dg = dq @ wts.wq.T + dk @ wts.wk.T + dv @ wts.wv.T
        return SelfAttnGrads(
            g=dg,
            wq=g.T @ dq,
            wk=g.T @ dk,
            wv=g.T @ dv,
        )


def gated_fuse_backward(x, attn_out, gamma: float, upstream: np.ndarray):
    """Returns (dx, dattn_out, dgamma) for <upstream, gated_fuse(...)>."""
    x = np.asarray(x, dtype=np.float64)
    attn_out = np.asarray(attn_out, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != x.shape:
        raise ShapeError(f"upstream must have shape {x.shape}, got {upstream.shape}")
    t = math.tanh(gamma)
    dgamma = (1.0 - t * t) * float((upstream * attn_out).sum())
    return upstream.copy(), t * upstream, dgamma
