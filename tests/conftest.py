"""Shared fixtures and independent reference implementations.

The reference functions here deliberately avoid the package's own attention,
rasterization, and bitset machinery: they recompute everything from first
principles (explicit logit matrices, literal -inf entries, per-pixel loops,
Python set intersections) so that agreement is evidence, not tautology.
The one exception is plan_matrix, which reads the 3D ops' own block walk so
that tests can hold it against those references.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest

from blobvid import attention, blas
from blobvid.blobs import BinaryMask, BlobParams, FrameGeometry
from blobvid.metrics import MatchResult


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def openblas_threads():
    """numpy's bundled OpenBLAS's thread count, or None where none is found."""
    funcs = blas._lookup()
    return funcs[0]() if funcs else None


@pytest.fixture(scope="session", autouse=True)
def openblas_threads_unchanged():
    # A pin to one thread that outlived its op would slow every later BLAS
    # call in the process, so the suite must end at the count it started at.
    before = openblas_threads()
    yield
    assert openblas_threads() == before, "OpenBLAS thread count changed by the test session"


# ---------------------------------------------------------------------------
# Geometry references


def point_in_ellipse(x: float, y: float, p: BlobParams, rho: float = 1.0) -> bool:
    """Scalar containment test, no vectorization shared with the package."""
    dx = x - p.cx
    dy = y - p.cy
    u = dx * math.cos(p.theta) + dy * math.sin(p.theta)
    v = -dx * math.sin(p.theta) + dy * math.cos(p.theta)
    return (u / (rho * p.a)) ** 2 + (v / (rho * p.b)) ** 2 <= 1.0


def rasterize_reference(p: BlobParams, geom: FrameGeometry, h: int, w: int,
                        rho: float = 1.0) -> np.ndarray:
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            x = (c + 0.5) * geom.width / w
            y = (r + 0.5) * geom.height / h
            out[r, c] = point_in_ellipse(x, y, p, rho)
    return out


def ellipse_form_full_grid(p: BlobParams, geom: FrameGeometry, h: int, w: int,
                           rho: float = 1.0) -> np.ndarray:
    """u*u + v*v at every cell centre of the grid, in the blob's own axes
    scaled by rho*a and rho*b: at most 1 inside the ellipse, 1 on its edge."""
    xs = (np.arange(w, dtype=np.float64) + 0.5) * (geom.width / w)
    ys = (np.arange(h, dtype=np.float64) + 0.5) * (geom.height / h)
    dx = xs[None, :] - p.cx
    dy = ys[:, None] - p.cy
    ct = math.cos(p.theta)
    st = math.sin(p.theta)
    with np.errstate(over="ignore", invalid="ignore"):
        u = (dx * ct + dy * st) / (rho * p.a)
        v = (-dx * st + dy * ct) / (rho * p.b)
        return u * u + v * v


def rasterize_full_grid(p: BlobParams, geom: FrameGeometry, h: int, w: int,
                        rho: float = 1.0) -> np.ndarray:
    """The cell-in-ellipse test evaluated on every cell of the grid: the same
    float64 operations rasterize applies on the blob's window, so the two
    must agree bit for bit."""
    return ellipse_form_full_grid(p, geom, h, w, rho) <= 1.0


def iou_reference(m1: np.ndarray, m2: np.ndarray) -> float:
    inter = 0
    union = 0
    for a, b in zip(m1.reshape(-1).tolist(), m2.reshape(-1).tolist()):
        inter += a and b
        union += a or b
    return inter / union if union else 1.0


def random_canonical_blob(rng: np.random.Generator, geom: FrameGeometry,
                          min_axis: float = 1.0, margin: float = 0.15) -> BlobParams:
    """Canonical blob whose center stays away from the border."""
    cx = rng.uniform(margin * geom.width, (1 - margin) * geom.width)
    cy = rng.uniform(margin * geom.height, (1 - margin) * geom.height)
    hi = 0.35 * min(geom.width, geom.height)
    a = rng.uniform(min_axis, hi)
    b = rng.uniform(min_axis, a)
    theta = rng.uniform(-math.pi / 2, math.pi / 2)
    if theta <= -math.pi / 2:
        theta = math.pi / 2
    if a == b:
        theta = 0.0
    return BlobParams(cx, cy, a, b, theta)


# ---------------------------------------------------------------------------
# Attention references


def softmax_reference(logits: np.ndarray) -> np.ndarray:
    """Row softmax over a matrix that may contain literal -inf; all--inf rows
    come back as all-zero rows."""
    out = np.zeros_like(logits, dtype=np.float64)
    for i in range(logits.shape[0]):
        row = logits[i]
        m = np.max(row)
        if m == -np.inf:
            continue
        e = np.exp(row - m)
        out[i] = e / e.sum()
    return out


def stacked_tokens(blob_arrays, w_list, width):
    """Every token of every blob through its blob's map, stacked in blob
    order: a (tokens, width) array."""
    rows = [tok @ w_list[n] for n, tokens in enumerate(blob_arrays) for tok in tokens]
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def cross_attention_probs_reference(g, blob_arrays, mask_arrays, wq, wk_list):
    """Dense (hw, tokens) cross-attention weights: the explicit logit matrix
    over every blob token, with -inf where the blob's mask is off, through
    the reference softmax."""
    hw, d_g = g.shape
    keys = stacked_tokens(blob_arrays, wk_list, d_g)
    key_blob = [n for n, tokens in enumerate(blob_arrays) for _ in tokens]
    if not key_blob:
        return np.zeros((hw, 0))
    q = g @ wq
    scale = 1.0 / math.sqrt(d_g)
    logits = np.empty((hw, len(keys)), dtype=np.float64)
    for i in range(hw):
        for j in range(len(keys)):
            n = key_blob[j]
            flat_mask = mask_arrays[n].reshape(-1)
            if flat_mask[i]:
                logits[i, j] = float(q[i] @ keys[j]) * scale
            else:
                logits[i, j] = -np.inf
    return softmax_reference(logits)


def cross_attention_reference(g, blob_arrays, mask_arrays, wq, wk_list, wv_list):
    """Dense reference: the weights of cross_attention_probs_reference
    times the stacked values of every blob token."""
    probs = cross_attention_probs_reference(g, blob_arrays, mask_arrays, wq, wk_list)
    return probs @ stacked_tokens(blob_arrays, wv_list, g.shape[1])


def cross_attention_backward_reference(g, blob_arrays, mask_arrays, wq, wk_list, wv_list,
                                       upstream):
    """Gradients (g, blobs, wq, wk, wv) of <upstream, cross_attention_reference(...)>,
    the last three one array per blob, by the chain rule through the dense
    weights P, as self_attention_backward_reference: dS_ij = P_ij (dP_ij -
    sum_l P_il dP_il). Blocked entries and locations covered by no blob have
    P = 0, so their logit gradients are zero."""
    d_g = g.shape[1]
    scale = 1.0 / math.sqrt(d_g)
    probs = cross_attention_probs_reference(g, blob_arrays, mask_arrays, wq, wk_list)
    keys = stacked_tokens(blob_arrays, wk_list, d_g)
    values = stacked_tokens(blob_arrays, wv_list, d_g)
    dprobs = upstream @ values.T
    dlogits = np.zeros_like(probs)
    for i in range(probs.shape[0]):
        dlogits[i] = probs[i] * (dprobs[i] - probs[i] @ dprobs[i])
    dq = dlogits @ keys * scale
    dkeys = dlogits.T @ (g @ wq) * scale
    dvalues = probs.T @ upstream
    dblobs, dwk, dwv = [], [], []
    start = 0
    for tokens, wk, wv in zip(blob_arrays, wk_list, wv_list):
        dk, dv = dkeys[start:start + len(tokens)], dvalues[start:start + len(tokens)]
        start += len(tokens)
        dblobs.append(dk @ wk.T + dv @ wv.T)
        dwk.append(tokens.T @ dk)
        dwv.append(tokens.T @ dv)
    return dq @ wq.T, dblobs, g.T @ dq, dwk, dwv


def self_attention_probs_reference(q, k, label_sets):
    """Dense (Thw, Thw) weights; allowed iff the Python label sets intersect."""
    n, d = q.shape
    scale = 1.0 / math.sqrt(d)
    logits = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if label_sets[i] & label_sets[j]:
                logits[i, j] = float(q[i] @ k[j]) * scale
            else:
                logits[i, j] = -np.inf
    return softmax_reference(logits)


def self_attention_reference(g, label_sets, wq, wk, wv):
    """Dense reference over Thw positions; allowed iff the Python label sets
    intersect."""
    return self_attention_probs_reference(g @ wq, g @ wk, label_sets) @ (g @ wv)


def self_attention_backward_reference(g, label_sets, wq, wk, wv, upstream):
    """Gradients (g, wq, wk, wv) of <upstream, self_attention_reference(...)>
    by the chain rule through the dense weight matrix P: with Y = P V and
    P = softmax(Q K^T / sqrt(d)) over the explicit -inf logits,
    dS_ij = P_ij (dP_ij - sum_l P_il dP_il). Blocked entries and rows with
    nothing allowed have P = 0, so their logit gradients are zero."""
    d = g.shape[1]
    scale = 1.0 / math.sqrt(d)
    q, k, v = g @ wq, g @ wk, g @ wv
    probs = self_attention_probs_reference(q, k, label_sets)
    dprobs = upstream @ v.T
    dlogits = np.zeros_like(probs)
    for i in range(probs.shape[0]):
        dlogits[i] = probs[i] * (dprobs[i] - probs[i] @ dprobs[i])
    dq = dlogits @ k * scale
    dk = dlogits.T @ q * scale
    dv = probs.T @ upstream
    return (dq @ wq.T + dk @ wk.T + dv @ wv.T, g.T @ dq, g.T @ dk, g.T @ dv)


def self_attention_oracle(g, bits, wq, wk, wv, upstream, chunk=128):
    """The 3D self-attention at the sizes the dense references cannot reach:
    (output, row sums, (g, wq, wk, wv) gradients) of <upstream, output> over
    n positions whose raw label bitsets are the rows of bits, LSB-first.

    Positions i and j may attend iff they share a label, counted here from
    the unpacked label bits as a float product, not by the package's bitset
    AND or its label classes. Runs in row chunks of the explicit logits with
    literal -inf entries, each chunk's softmax and the chain rule of
    self_attention_backward_reference, so it takes O(chunk x n) memory and
    one O(n^2 d) pass, which also sums the key and value gradients in full.
    Rows with nothing allowed get zero weights."""
    n, d = g.shape
    scale = 1.0 / math.sqrt(d)
    q, k, v = g @ wq, g @ wk, g @ wv
    labels = np.unpackbits(bits, axis=1, bitorder="little").astype(np.float64)
    out, sums = np.zeros((n, d)), np.zeros(n)
    dq, dk, dv = np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d))
    for s in range(0, n, chunk):
        r = slice(s, s + chunk)
        allowed = labels[r] @ labels.T > 0
        logits = np.where(allowed, (q[r] @ k.T) * scale, -np.inf)
        top = logits.max(axis=1, keepdims=True)
        probs = np.exp(logits - np.where(allowed.any(axis=1, keepdims=True), top, 0.0))
        total = probs.sum(axis=1, keepdims=True)
        probs /= np.where(total > 0, total, 1.0)
        out[r] = probs @ v
        sums[r] = probs.sum(axis=1)
        dprobs = upstream[r] @ v.T
        dlogits = probs * (dprobs - (probs * dprobs).sum(axis=1, keepdims=True))
        dq[r] = dlogits @ k * scale
        dk += dlogits.T @ q[r] * scale
        dv += probs.T @ upstream[r]
    grads = (dq @ wq.T + dk @ wk.T + dv @ wv.T, g.T @ dq, g.T @ dk, g.T @ dv)
    return out, sums, grads


# ---------------------------------------------------------------------------
# Label bitsets and image files, decoded without the package's readers


def decode(code: np.ndarray, n_labels: int) -> frozenset[int]:
    """The label set of one packed bitset row, LSB-first within a byte."""
    return frozenset(lab for lab in range(n_labels) if int(code[lab // 8]) >> (lab % 8) & 1)


def label_set(field, i: int) -> frozenset[int]:
    """The label set of position i of a LabelField."""
    return decode(field.bits[i], field.n_labels)


def plan_matrix(field):
    """The dense pair mask the 3D ops evaluate, read from the walk they run
    (attention._class_runs): over both parts, every block's rows get its
    mask over its run's keys, or all of them for a block without one. A
    pair outside every block's (rows, keys) stays blocked. Also returns how
    many blocks hold each position as a row, and how many packed blocks
    read fewer than all n keys."""
    n = field.size
    allowed = np.zeros((n, n), dtype=bool)
    blocks_per_row = np.zeros(n, dtype=np.int64)
    gathered = 0
    plan = attention._label_blocks(field)
    for part in range(attention._PARTS):
        for keys, blocks in attention._class_runs(plan, part, field):
            keys = np.arange(n)[keys]  # a run over all n keys reads slice(None)
            for rows, allow in blocks:
                blocks_per_row[rows] += 1
                gathered += allow is not None and keys.size < n
                allowed[np.ix_(rows, keys)] = True if allow is None else allow
    return allowed, blocks_per_row, gathered


def read_ppm(path) -> np.ndarray:
    """An (h, w, 3) uint8 image from a PPM whose header is the three lines
    P6, "<w> <h>" and 255, as write_ppm emits it."""
    data = Path(path).read_bytes()
    magic, size, maxval, body = data.split(b"\n", 3)
    assert magic == b"P6" and maxval == b"255"
    w, h = (int(x) for x in size.split())
    assert len(body) == h * w * 3
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)


def parse_mask_filename(name: str):
    """(frame, object id string) for a name f<frame, 4+ digits>_o<id>.pgm, else None."""
    m = re.fullmatch(r"f(\d{4,})_o(.+)\.pgm", name)
    return (int(m.group(1)), m.group(2)) if m else None


# ---------------------------------------------------------------------------
# Metrics references


def greedy_match_reference(dets, gts, iou_of) -> MatchResult:
    """match_detections(dets, gts, "greedy") by its first implementation,
    O(n^3): at every step, search all free (kept detection, ground truth)
    pairs for the largest (iou, -row, -col). iou_of(det, gt) gives a pair's
    IOU."""
    if not gts:
        return MatchResult(pairs=(), per_gt_iou=(), kept=())
    kept = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)[:len(gts)]
    iou = [[iou_of(dets[i], g) for g in gts] for i in kept]
    per_gt = [0.0] * len(gts)
    pairs = []
    free_rows = set(range(len(kept)))
    free_cols = set(range(len(gts)))
    while free_rows and free_cols:
        _, nr, nc = max((iou[r][c], -r, -c) for r in free_rows for c in free_cols)
        r, c = -nr, -nc
        free_rows.remove(r)
        free_cols.remove(c)
        pairs.append((kept[r], c))
        per_gt[c] = float(iou[r][c])
    pairs.sort(key=lambda rc: rc[1])
    return MatchResult(pairs=tuple(pairs), per_gt_iou=tuple(per_gt), kept=tuple(kept))


# ---------------------------------------------------------------------------
# Misc references


def angle_mean_reference(t1: float, t2: float) -> float:
    """Midpoint of two orientations on the half-circle via the doubled-angle
    complex mean."""
    s = math.sin(2 * t1) + math.sin(2 * t2)
    c = math.cos(2 * t1) + math.cos(2 * t2)
    return 0.5 * math.atan2(s, c)


def make_binary_mask(arr) -> BinaryMask:
    return BinaryMask(np.asarray(arr, dtype=bool))
