"""Layout documents: the JSON interchange format for generated video layouts.

A layout maps "Frame<idx>" to "Object<id>" entries, each holding a 5-number
blob and an optional caption. Parsing is strict about structure but tolerant
of a surrounding markdown code fence, since the documents typically arrive
from a language model. Parsed entries keep the numbers exactly as written;
orientation canonicalization and center clamping happen only when a document
is turned into a blob video.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass

from .errors import RangeError, SchemaError, parse_json
from .geometry import BlobParams, FrameGeometry, canonicalize
from .video import BlobTrack, BlobVideo, densify

__all__ = [
    "LayoutEntry",
    "LayoutDoc",
    "parse_layout",
    "densify_layout",
    "serialize_layout_doc",
]

_FRAME_KEY = re.compile(r"^Frame(\d+)$")
_OBJECT_KEY = re.compile(r"^Object(.+)$")
_FENCE = re.compile(r"^\s*```[a-zA-Z0-9_-]*\s*\n(.*)\n\s*```\s*$", re.DOTALL)


@dataclass(frozen=True)
class LayoutEntry:
    blob: tuple[float, float, float, float, float]
    caption: str | None = None


@dataclass(frozen=True)
class LayoutDoc:
    """Parsed layout: frame index -> object id suffix -> entry.

    Frame order follows the document and is strictly increasing. Object id
    suffixes are kept as opaque strings; nothing assumes contiguity.
    """

    frames: dict[int, dict[str, LayoutEntry]]

    def object_ids(self) -> list[str]:
        seen: list[str] = []
        for objs in self.frames.values():
            for oid in objs:
                if oid not in seen:
                    seen.append(oid)
        return seen

    def max_frame(self) -> int:
        return max(self.frames) if self.frames else -1


def _strip_fence(text: str) -> str:
    m = _FENCE.match(text)
    return m.group(1) if m else text


def parse_layout(text: str) -> LayoutDoc:
    """Parse layout JSON, optionally wrapped in a markdown code fence.

    Malformed JSON raises ParseError with the byte offset; structurally wrong
    documents raise SchemaError naming the offending frame or object.
    """
    doc = parse_json(_strip_fence(text))
    if not isinstance(doc, dict):
        raise SchemaError(f"layout must be a JSON object, got {type(doc).__name__}")
    frames: dict[int, dict[str, LayoutEntry]] = {}
    last_idx = -1
    for frame_key, objs in doc.items():
        m = _FRAME_KEY.match(frame_key)
        if m is None:
            raise SchemaError(f"unexpected top-level key {frame_key!r}, expected Frame<index>")
        idx = int(m.group(1))
        if idx <= last_idx:
            raise SchemaError(f"frame indices must be strictly increasing, {frame_key} follows Frame{last_idx}")
        last_idx = idx
        if not isinstance(objs, dict):
            raise SchemaError(f"{frame_key} must map object names to entries")
        entries: dict[str, LayoutEntry] = {}
        for obj_key, entry in objs.items():
            om = _OBJECT_KEY.match(obj_key)
            if om is None or not om.group(1):
                raise SchemaError(f"{frame_key}: unexpected key {obj_key!r}, expected Object<id>")
            where = f"{frame_key}/{obj_key}"
            if not isinstance(entry, dict):
                raise SchemaError(f"{where}: entry must be an object")
            for k in entry:
                if k not in ("blob", "caption"):
                    raise SchemaError(f"{where}: unknown key {k!r}")
            if "blob" not in entry:
                raise SchemaError(f"{where}: missing blob")
            blob = entry["blob"]
            if (
                not isinstance(blob, list)
                or len(blob) != 5
                or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in blob)
                or any(not math.isfinite(x) for x in blob)
            ):
                got = len(blob) if isinstance(blob, list) else type(blob).__name__
                raise SchemaError(f"{where}: blob must be a list of 5 finite numbers, got {got}")
            caption = entry.get("caption")
            if caption is not None and not isinstance(caption, str):
                raise SchemaError(f"{where}: caption must be a string")
            # Numbers keep their written type (int stays int) so re-emitting
            # the document reproduces the original literals.
            entries[om.group(1)] = LayoutEntry(tuple(blob), caption)
        frames[idx] = entries
    return LayoutDoc(frames)


def _ingest_blob(blob, geom: FrameGeometry, where: str) -> BlobParams:
    cx, cy, a, b, theta = blob
    if not (0.0 <= cx <= geom.width):
        warnings.warn(f"{where}: cx={cx} outside [0, {geom.width}], clamping", stacklevel=3)
        cx = min(max(cx, 0.0), float(geom.width))
    if not (0.0 <= cy <= geom.height):
        warnings.warn(f"{where}: cy={cy} outside [0, {geom.height}], clamping", stacklevel=3)
        cy = min(max(cy, 0.0), float(geom.height))
    return canonicalize(BlobParams(cx, cy, a, b, theta))


def _assign_track_ids(suffixes: list[str]) -> dict[str, int]:
    if all(s.isdigit() for s in suffixes):
        return {s: int(s) for s in suffixes}
    return {s: i for i, s in enumerate(suffixes)}


def densify_layout(doc: LayoutDoc, num_frames: int, geom: FrameGeometry) -> BlobVideo:
    """Turn a layout document into a dense blob video with num_frames frames.

    Objects missing from some annotated frames are extended by the usual
    nearest-copy and interpolation rules. Captions attach at exactly the
    frames the document provides them.
    """
    if not doc.frames:
        raise SchemaError("layout has no frames")
    if num_frames < doc.max_frame() + 1:
        raise RangeError(f"num_frames={num_frames} is smaller than max frame index {doc.max_frame()} + 1")
    suffixes = doc.object_ids()
    ids = _assign_track_ids(suffixes)
    frame_indices = sorted(doc.frames)
    diffs = [b - a for a, b in zip(frame_indices, frame_indices[1:])]
    anchor_interval = min(diffs) if diffs else 1
    tracks = []
    for suffix in suffixes:
        params: dict[int, BlobParams] = {}
        captions: dict[int, str] = {}
        for t in frame_indices:
            entry = doc.frames[t].get(suffix)
            if entry is None:
                continue
            params[t] = _ingest_blob(entry.blob, geom, f"Frame{t}/Object{suffix}")
            if entry.caption is not None:
                captions[t] = entry.caption
        tracks.append(BlobTrack(ids[suffix], params, captions))
    video = BlobVideo(num_frames, geom, anchor_interval, tuple(tracks))
    return densify(video)


def serialize_layout_doc(doc: LayoutDoc) -> str:
    """Re-emit a parsed layout document.

    Frames appear in increasing order and objects in document order; blob
    numbers are written back with their original types, so the params survive
    parse/serialize byte for byte.
    """
    out: dict[str, dict] = {}
    for t in sorted(doc.frames):
        objs = {}
        for suffix, entry in doc.frames[t].items():
            body: dict = {"blob": list(entry.blob)}
            if entry.caption is not None:
                body["caption"] = entry.caption
            objs[f"Object{suffix}"] = body
        out[f"Frame{t}"] = objs
    return json.dumps(out, ensure_ascii=False, indent=1)
