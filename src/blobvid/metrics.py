"""Layout-control metrics: box IOU matching and region embedding similarities.

Detections are truncated to the ground-truth count by confidence, then matched
one-to-one to maximize total IOU. The mean IOU pools matched scores over the
evaluation frames. Region similarity metrics average cosines over matched
(object, frame) embedding pairs; a missing counterpart skips the pair and is
counted, never raised.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .config import COSINE_MODES
from .errors import (
    DegenerateVector,
    RangeError,
    SchemaError,
    ShapeError,
    UndefinedMetric,
    read_json,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BBox",
    "FrameEval",
    "MatchResult",
    "RegionEmbedding",
    "MetricReport",
    "bbox_iou",
    "match_detections",
    "mean_iou",
    "region_cosine_metrics",
    "load_frame_evals",
    "load_region_embeddings",
]


# The largest area of a box: the areas of any two boxes then add up to a
# finite union, so every IOU lies in [0, 1].
_MAX_AREA = sys.float_info.max / 2


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with finite corners (x0, y0) < (x1, y1), a finite
    width and height, and an area in (0, _MAX_AREA]."""

    x0: float
    y0: float
    x1: float
    y1: float
    confidence: float = 1.0

    def __post_init__(self):
        corners = (self.x0, self.y0, self.x1, self.y1)
        if not all(_finite(c) for c in corners):
            raise RangeError(f"box corners must be finite, got {corners}")
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise RangeError(f"box corners must be ordered, got {corners}")
        if not (_finite(self.x1 - self.x0) and _finite(self.y1 - self.y0)
                and 0 < self.area <= _MAX_AREA):
            raise RangeError(f"box width, height and area must be positive and finite, "
                             f"and the area at most {_MAX_AREA}, got {corners}")
        if not (0.0 <= self.confidence <= 1.0):
            raise RangeError(f"confidence must lie in [0, 1], got {self.confidence}")

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


def bbox_iou(a: BBox, b: BBox) -> float:
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class FrameEval:
    """Everything needed to score one frame: detections and labeled ground truth."""

    frame: int
    detections: tuple[BBox, ...]
    ground_truth: tuple[tuple[int, BBox], ...]


@dataclass(frozen=True)
class MatchResult:
    """pairs maps (original detection index, ground truth index); per_gt_iou has
    one score per ground-truth box, zero when unmatched."""

    pairs: tuple[tuple[int, int], ...]
    per_gt_iou: tuple[float, ...]
    kept: tuple[int, ...]


def _truncate_by_confidence(dets: Sequence[BBox], n: int) -> list[int]:
    # Stable sort: ties keep input order.
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    return order[:n]


def _min_cost_assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost assignment, for rows <= columns.

    Crouse's shortest augmenting path ("On implementing 2D rectangular
    assignment algorithms", 2016), step for step as scipy's
    linear_sum_assignment runs it: rows are added in order, the columns are
    scanned in the same order, and a tie for the shortest path goes to a free
    column, the last one scanned. Tied matrices get scipy's pairs.
    """
    nr, nc = len(cost), len(cost[0])
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        dist = [math.inf] * nc
        seen_rows = [False] * nr
        seen_cols = [False] * nc
        remaining = list(range(nc - 1, -1, -1))
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            seen_rows[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < dist[j]:
                    path[j] = i
                    dist[j] = r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] == -1):
                    lowest, index = dist[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(nr):
            if seen_rows[i] and i != cur:
                u[i] += min_val - dist[col4row[i]]
        for j in range(nc):
            if seen_cols[j]:
                v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _greedy_assignment(iou: list[list[float]]) -> list[int]:
    """Column of each row, for rows <= columns, when the best free pair is
    taken again and again, ties to the lower row, then column: every
    (iou, -row, -col) key is sorted once and taken if its row and column
    are both free."""
    keys = sorted(((x, -r, -c) for r, row in enumerate(iou) for c, x in enumerate(row)),
                  reverse=True)
    col4row = [-1] * len(iou)
    taken = [False] * len(iou[0])
    for _, nr, nc in keys:
        if col4row[-nr] == -1 and not taken[-nc]:
            col4row[-nr] = -nc
            taken[-nc] = True
    return col4row


def match_detections(dets: Sequence[BBox], gts: Sequence[BBox],
                     method: str = "hungarian") -> MatchResult:
    """One-to-one assignment of detections to ground truth maximizing total IOU.

    Detections beyond the ground-truth count are dropped by descending
    confidence first, so the IOU matrix never has more rows than columns.
    method "hungarian" solves it exactly with _min_cost_assignment on the
    negated IOUs, which picks the same pairs as scipy's linear_sum_assignment,
    ties included. method "greedy" repeatedly takes the best remaining pair
    instead; it exists for comparison and is not optimal.
    """
    if method not in ("hungarian", "greedy"):
        raise RangeError(f"unknown matching method {method!r}")
    if not gts:
        return MatchResult(pairs=(), per_gt_iou=(), kept=())
    kept = _truncate_by_confidence(dets, len(gts))
    if not kept:
        return MatchResult(pairs=(), per_gt_iou=(0.0,) * len(gts), kept=())
    iou = [[bbox_iou(dets[i], g) for g in gts] for i in kept]
    if method == "hungarian":
        cols = _min_cost_assignment([[-x for x in row] for row in iou])
    else:
        cols = _greedy_assignment(iou)
    per_gt = [0.0] * len(gts)
    pairs = []
    for r, c in enumerate(cols):
        pairs.append((kept[r], c))
        per_gt[c] = float(iou[r][c])
    pairs.sort(key=lambda rc: rc[1])
    return MatchResult(pairs=tuple(pairs), per_gt_iou=tuple(per_gt), kept=tuple(kept))


def mean_iou(evals: Iterable[FrameEval], eval_frames: Iterable[int],
             method: str = "hungarian") -> float:
    """Pool matched IOUs of every ground-truth box over the evaluation frames."""
    frames = set(eval_frames)
    if not frames:
        raise RangeError("eval_frames must be non-empty")
    scores: list[float] = []
    for ev in evals:
        if ev.frame not in frames:
            continue
        gts = [g for _, g in ev.ground_truth]
        if not gts:
            continue
        result = match_detections(ev.detections, gts, method=method)
        scores.extend(result.per_gt_iou)
    if not scores:
        raise UndefinedMetric("no ground-truth objects on the evaluation frames")
    return _mean(scores)


def _mean(xs: Sequence[float]) -> float:
    """np.mean of a non-empty sequence of floats, bit for bit: numpy's float64
    pairwise sum, added to the reduction's initial 0.0, over the count."""
    return (0.0 + _pairwise_sum(xs, 0, len(xs))) / len(xs)


def _pairwise_sum(xs: Sequence[float], lo: int, n: int) -> float:
    # numpy's pairwise_sum step for step on xs[lo:lo + n]: a plain loop below
    # 8 items, 8 interleaved accumulators up to 128, and above that two
    # halves split at a multiple of 8.
    if n < 8:
        total = 0.0
        for x in xs[lo:lo + n]:
            total += x
        return total
    if n <= 128:
        r = list(xs[lo:lo + 8])
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += xs[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in xs[end:lo + n]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(xs, lo, half) + _pairwise_sum(xs, lo + half, n - half)


@dataclass(frozen=True)
class RegionEmbedding:
    """One region feature vector tagged by object, frame, and kind
    ("generated", "ground_truth", or "caption")."""

    object_id: int
    frame: int
    kind: str
    vector: np.ndarray

    def __post_init__(self):
        import numpy as np

        vec = np.array(self.vector, dtype=np.float64, copy=True).reshape(-1)
        if vec.size == 0 or not np.all(np.isfinite(vec)):
            raise ShapeError(f"embedding vector must be finite and non-empty, got size {vec.size}")
        if float(np.linalg.norm(vec)) == 0.0:
            raise DegenerateVector(f"object {self.object_id} frame {self.frame}: zero-norm vector")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True)
class MetricReport:
    metric: str
    value: float
    num_pairs: int
    skipped: int
    averaging: str = "pooled"


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    import numpy as np

    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def region_cosine_metrics(embs: Iterable[RegionEmbedding], mode: str) -> MetricReport:
    """Cosine similarity metrics over region embeddings.

    rclip_t: caption vs generated at the same (object, frame).
    rclip_i: ground truth vs generated at the same (object, frame).
    rcfc:    generated at (object, t) vs (object, t+1), consecutive frames only.
    """
    if mode not in COSINE_MODES:
        raise RangeError(f"unknown mode {mode!r}, expected one of {COSINE_MODES}")
    by_kind: dict[str, dict[tuple[int, int], RegionEmbedding]] = {}
    for e in embs:
        slot = by_kind.setdefault(e.kind, {})
        key = (e.object_id, e.frame)
        if key in slot:
            raise ShapeError(f"duplicate {e.kind} embedding for object {key[0]} frame {key[1]}")
        slot[key] = e
    generated = by_kind.get("generated", {})
    cosines: list[float] = []
    skipped = 0
    if mode in ("rclip_t", "rclip_i"):
        reference = by_kind.get("caption" if mode == "rclip_t" else "ground_truth", {})
        for key, ref in sorted(reference.items()):
            gen = generated.get(key)
            if gen is None:
                skipped += 1
                continue
            cosines.append(_cosine(ref.vector, gen.vector))
    else:
        by_object: dict[int, list[int]] = {}
        for obj, frame in generated:
            by_object.setdefault(obj, []).append(frame)
        for obj in sorted(by_object):
            frames = sorted(by_object[obj])
            # Each t from the first generated frame to the last pairs with
            # t + 1; a gap from t to u skips its u - t pairs, counted
            # without visiting them, since frame numbers may be far apart.
            for t, u in zip(frames, frames[1:]):
                if u == t + 1:
                    cosines.append(_cosine(generated[(obj, t)].vector,
                                           generated[(obj, u)].vector))
                else:
                    skipped += u - t
    if not cosines:
        raise UndefinedMetric(f"no scorable pairs for {mode} ({skipped} skipped)")
    return MetricReport(
        metric=mode,
        value=_mean(cosines),
        num_pairs=len(cosines),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# File loaders for the CLI


def _frame_items(path, items_key: str) -> dict[int, list[dict]]:
    """Read {"frames": [{"frame": t, items_key: [{...}]}]} as {t: [{...}]}."""
    doc = read_json(path)
    frames = doc.get("frames", []) if isinstance(doc, dict) else None
    if not isinstance(frames, list):
        raise SchemaError(f"{path}: must be an object with a \"frames\" list")
    out = {}
    for fr in frames:
        # JSON numbers load as int or float; type() also keeps true/false out.
        if not (isinstance(fr, dict) and type(fr.get("frame")) is int):
            raise SchemaError(f"{path}: every frame entry needs an integer \"frame\"")
        if fr["frame"] in out:
            raise SchemaError(f"{path}: frame {fr['frame']} is listed twice")
        items = fr.get(items_key, [])
        if not (isinstance(items, list) and all(isinstance(d, dict) for d in items)):
            raise SchemaError(f"{path} frame {fr['frame']}: {items_key} must be a list of objects")
        out[fr["frame"]] = items
    return out


def _bbox(d: dict, where: str) -> list:
    box = d.get("bbox")
    if not (isinstance(box, list) and len(box) == 4 and all(type(x) in (int, float) for x in box)):
        raise SchemaError(f"{where}: bbox must be a list of 4 numbers")
    return box


def load_frame_evals(detections_path, ground_truth_path) -> list[FrameEval]:
    """Join detection and ground-truth JSON files on frame index."""
    dets_by_frame: dict[int, list[BBox]] = {}
    for t, items in _frame_items(detections_path, "detections").items():
        where = f"{detections_path} frame {t}"
        if not all(type(d.get("confidence", 1.0)) in (int, float) for d in items):
            raise SchemaError(f"{where}: confidence must be a number")
        dets_by_frame[t] = [
            BBox(*_bbox(d, where), confidence=d.get("confidence", 1.0)) for d in items
        ]
    gts_by_frame: dict[int, list[tuple[int, BBox]]] = {}
    for t, items in _frame_items(ground_truth_path, "objects").items():
        where = f"{ground_truth_path} frame {t}"
        if not all(type(o.get("id")) is int for o in items):
            raise SchemaError(f"{where}: object id must be an integer")
        gts_by_frame[t] = [(o["id"], BBox(*_bbox(o, where))) for o in items]
    frames = sorted(set(dets_by_frame) | set(gts_by_frame))
    return [
        FrameEval(
            frame=t,
            detections=tuple(dets_by_frame.get(t, [])),
            ground_truth=tuple(gts_by_frame.get(t, [])),
        )
        for t in frames
    ]


def load_region_embeddings(manifest_path) -> list[RegionEmbedding]:
    """Read region embeddings listed in a manifest JSON.

    Each entry holds object, frame, kind, and a path (relative to the manifest)
    to a binary embedding file with its JSON sidecar.
    """
    # Imported here so that `metrics miou` does not load the embedding module.
    from .embedding import read_embedding

    manifest_file = Path(manifest_path)
    doc = read_json(manifest_file)
    entries = doc.get("embeddings") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise SchemaError(f"{manifest_path}: must be an object with an \"embeddings\" list")
    out = []
    for i, entry in enumerate(entries):
        # type() also keeps true/false out of the integer fields.
        if not (isinstance(entry, dict)
                and type(entry.get("object")) is int and type(entry.get("frame")) is int
                and isinstance(entry.get("kind"), str) and isinstance(entry.get("path"), str)):
            raise SchemaError(f"{manifest_path} embedding {i}: needs integer \"object\" and "
                              f"\"frame\" and string \"kind\" and \"path\"")
        data = read_embedding(manifest_file.parent / entry["path"])
        out.append(
            RegionEmbedding(
                object_id=entry["object"],
                frame=entry["frame"],
                kind=entry["kind"],
                vector=data.reshape(-1),
            )
        )
    return out
