"""In-memory span tracing around the program's public call sites.

A Tracer replaces a named attribute (a module function or a class method)
with a wrapper that records one span per call: name, start, end, parent span
and the op it ran in. With alloc=True tracemalloc runs while the wrappers are
installed, so each span also records the largest number of bytes allocated
above its own starting point; it slows allocation-heavy Python code several
times, so only workloads that report allocation peaks turn it on. restore()
puts every original object back.

Spans stay in memory until the run ends; summarize() turns them into per-op
totals, self times (duration minus the time covered by child spans), call
counts and allocation peaks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import tracemalloc
from collections import defaultdict

# Call sites the benchmark wraps: "module:attribute path" -> span name. Each
# entry is the name a caller actually looks up, so e.g. rasterize is wrapped
# in every module that binds it.
TARGETS = {
    "blobvid.pipeline:run_attend_block": "pipeline.run_attend_block",
    "blobvid.pipeline:masked_3d_self_attention": "attention.masked_3d_self_attention",
    "blobvid.attention:masked_3d_self_attention_backward": "attention.masked_3d_self_attention_backward",
    "blobvid.attention:masked_softmax": "attention.masked_softmax",
    "blobvid.labelfield:AttnMask3D.allowed_rows": "labelfield.allowed_rows",
    "blobvid.pipeline:masked_cross_attention": "attention.masked_cross_attention",
    "blobvid.pipeline:gated_fuse": "attention.gated_fuse",
    "blobvid.pipeline:blob_embed": "embedding.blob_embed",
    "blobvid.pipeline:fourier_encode": "embedding.fourier_encode",
    "blobvid.pipeline:context_embeddings": "pipeline.context_embeddings",
    "blobvid.pipeline:per_frame_masks": "labelfield.per_frame_masks",
    "blobvid.pipeline:build_label_field": "labelfield.build_label_field",
    "blobvid.pipeline:densify": "video.densify",
    "blobvid.labelfield:rasterize": "blobs.rasterize",
    "blobvid.fitting:fit_ellipse": "fitting.fit_ellipse",
    "blobvid.fitting:moments_init": "fitting.moments_init",
    "blobvid.fitting:rasterize": "blobs.rasterize",
    "blobvid.fitting:mask_iou": "blobs.mask_iou",
    "blobvid.metrics:mean_iou": "metrics.mean_iou",
    "blobvid.metrics:match_detections": "metrics.match_detections",
}

# Span record fields, kept as lists for low overhead.
NAME, START, END, PARENT, OP, MEM0, PEAK = range(7)


def resolve(target: str):
    """Return (owner, attribute) for "package.module:Class.attr" or "module:attr"."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for wrapped call sites; one instance per traced run."""

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target, name in TARGETS.items():
            owner, attr = resolve(target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        if self.alloc:
            tracemalloc.start()

    def restore(self) -> None:
        if self.alloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def _enter(self, name: str) -> None:
        # Without tracemalloc running both readings are 0, so peaks stay 0.
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent[PEAK] = max(parent[PEAK], peak)
            parent_index = self._stack[-1]
        else:
            parent_index = -1
        tracemalloc.reset_peak()
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent_index, self.op, cur, cur])

    def _leave(self) -> None:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span[END] = end
        span[PEAK] = max(span[PEAK], tracemalloc.get_traced_memory()[1])
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent[PEAK] = max(parent[PEAK], span[PEAK])
        tracemalloc.reset_peak()

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "op": s[OP],
                                    "alloc_bytes": s[PEAK] - s[MEM0]}) + "\n")


@contextlib.contextmanager
def active(tracer: Tracer | None, op: int):
    """Install the tracer for the duration of op; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.op = op
    try:
        tracer.install()
        yield
    finally:
        tracer.restore()


def summarize(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """Per op and span name: total seconds, self seconds, calls, peak bytes.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap. Under
    the name "<name>@<root>" the same figures are kept for spans that run
    below a top-level span called <root>, so a forward pass can be told apart
    from a backward pass that calls the same layers.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    roots: list[str] = []
    out: dict[int, dict[str, dict[str, float]]] = defaultdict(dict)
    for i, s in enumerate(spans):
        roots.append(s[NAME] if s[PARENT] < 0 else roots[s[PARENT]])
        dur = s[END] - s[START]
        keys = (s[NAME],) if s[PARENT] < 0 else (s[NAME], f"{s[NAME]}@{roots[i]}")
        for key in keys:
            agg = out[s[OP]].setdefault(key, {"s": 0.0, "self_s": 0.0, "calls": 0, "peak_bytes": 0})
            agg["s"] += dur
            agg["self_s"] += dur - child_time[i]
            agg["calls"] += 1
            agg["peak_bytes"] = max(agg["peak_bytes"], s[PEAK] - s[MEM0])
    return dict(out)
