"""Blob video container: per-frame ellipse tracks with captions at anchor frames.

A video holds N tracks over T frames at a fixed source geometry. Tracks may be
annotated on a sparse subset of frames; densify fills the gaps by parameter
interpolation and copies the nearest annotation outside the annotated span.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .errors import EmptyTrack, RangeError, SchemaError, TooLarge, parse_json
from .geometry import _HALF_PI, BlobParams, FrameGeometry, interpolate_blob_params

__all__ = ["BlobTrack", "BlobVideo", "Violation", "densify", "fill_frames", "validate",
           "video_to_json", "video_from_json"]

V = TypeVar("V")

SCHEMA_VERSION = 1

# The most (frame, track) entries densify fills: each is a Python object.
_MAX_DENSE_ENTRIES = 1_000_000


@dataclass(frozen=True)
class BlobTrack:
    """One object's ellipse per annotated frame plus captions keyed by frame."""

    object_id: int
    params: dict[int, BlobParams] = field(default_factory=dict)
    captions: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class BlobVideo:
    num_frames: int
    geom: FrameGeometry
    anchor_interval: int = 8
    tracks: tuple[BlobTrack, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        if self.num_frames < 1:
            raise RangeError(f"a video needs at least one frame, got {self.num_frames}")
        if self.anchor_interval < 1:
            raise RangeError(f"anchor interval must be >= 1, got {self.anchor_interval}")

    @property
    def num_tracks(self) -> int:
        return len(self.tracks)

    def is_dense(self) -> bool:
        full = set(range(self.num_frames))
        return all(set(t.params) == full for t in self.tracks)


@dataclass(frozen=True)
class Violation:
    track_id: int | None
    frame: int | None
    field: str
    message: str

    def __str__(self) -> str:
        where = []
        if self.track_id is not None:
            where.append(f"track {self.track_id}")
        if self.frame is not None:
            where.append(f"frame {self.frame}")
        prefix = ", ".join(where)
        return f"{prefix}: {self.field}: {self.message}" if prefix else f"{self.field}: {self.message}"


def fill_frames(anchors: dict[int, V], num_frames: int,
                blend: Callable[[int, int, int], V]) -> dict[int, V]:
    """A value for every frame in [0, num_frames) from values at anchor frames.

    Anchor frames keep their value (the same object); frames before the first
    or after the last anchor copy the nearest one; a frame t between
    neighbouring anchors t0 < t < t1 gets blend(t0, t1, t). anchors must not
    be empty.
    """
    frames = sorted(anchors)
    out: dict[int, V] = {}
    hi = 0
    for t in range(num_frames):
        if t in anchors:
            out[t] = anchors[t]
        elif t < frames[0]:
            out[t] = anchors[frames[0]]
        elif t > frames[-1]:
            out[t] = anchors[frames[-1]]
        else:
            while frames[hi + 1] < t:
                hi += 1
            out[t] = blend(frames[hi], frames[hi + 1], t)
    return out


def densify(v: BlobVideo) -> BlobVideo:
    """Fill every frame of every track.

    Annotated params are kept bit-for-bit. Interior gaps interpolate between
    the bracketing annotations; frames before the first or after the last
    annotation copy the nearest one. Idempotent. Raises TooLarge when
    num_frames x tracks exceeds _MAX_DENSE_ENTRIES.
    """
    entries = v.num_frames * v.num_tracks
    if entries > _MAX_DENSE_ENTRIES:
        raise TooLarge(f"densifying {v.num_frames} frames x {v.num_tracks} tracks = {entries} "
                       f"blob entries exceeds the cap of {_MAX_DENSE_ENTRIES}")
    new_tracks = []
    for track in v.tracks:
        p = track.params
        if not p:
            raise EmptyTrack(f"track {track.object_id} has no annotated frames")
        if min(p) < 0 or max(p) >= v.num_frames:
            raise RangeError(
                f"track {track.object_id} annotated outside [0, {v.num_frames}): {min(p)}..{max(p)}"
            )
        params = fill_frames(p, v.num_frames, lambda t0, t1, t: interpolate_blob_params(
            p[t0], p[t1], (t - t0) / (t1 - t0)))
        new_tracks.append(BlobTrack(track.object_id, params, dict(track.captions)))
    return BlobVideo(v.num_frames, v.geom, v.anchor_interval, tuple(new_tracks))


def validate(v: BlobVideo) -> list[Violation]:
    """Collect contract violations instead of raising. Empty list means clean."""
    out: list[Violation] = []
    seen_ids: set[int] = set()
    for track in v.tracks:
        if track.object_id in seen_ids:
            out.append(Violation(track.object_id, None, "id", "duplicate track id"))
        seen_ids.add(track.object_id)
        if not track.params:
            out.append(Violation(track.object_id, None, "params", "track has no annotated frames"))
        for t in sorted(track.params):
            p = track.params[t]
            if not (0 <= t < v.num_frames):
                out.append(Violation(track.object_id, t, "frame",
                                     f"frame {t} outside [0, {v.num_frames})"))
            if p.a < p.b:
                out.append(Violation(track.object_id, t, "radii",
                                     f"a={p.a} smaller than b={p.b} (not canonical)"))
            if not (-_HALF_PI < p.theta <= _HALF_PI):
                out.append(Violation(track.object_id, t, "theta",
                                     f"orientation {p.theta} outside (-pi/2, pi/2]"))
        for t in sorted(track.captions):
            if t not in track.params or not (0 <= t < v.num_frames):
                out.append(Violation(track.object_id, t, "caption",
                                     f"caption at frame {t} has no annotated params in [0, {v.num_frames})"))
    return out


def video_to_json(v: BlobVideo) -> str:
    """Serialize to the canonical JSON schema with full float precision."""
    doc = {
        "version": SCHEMA_VERSION,
        "width": v.geom.width,
        "height": v.geom.height,
        "num_frames": v.num_frames,
        "anchor_interval": v.anchor_interval,
        "tracks": [
            {
                "id": track.object_id,
                "params": {
                    str(t): [p.cx, p.cy, p.a, p.b, p.theta]
                    for t, p in sorted(track.params.items())
                },
                "captions": {str(t): c for t, c in sorted(track.captions.items())},
            }
            for track in v.tracks
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2)


def _expect(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _frame_keyed(raw: dict, where: str) -> dict:
    """raw with its frame keys as integers; a key that is not an integer, or
    two keys that name the same frame ("1" and "01"), raise SchemaError."""
    out, keys = {}, {}
    for k, val in raw.items():
        try:
            t = int(k)
        except ValueError:
            raise SchemaError(f"{where}: frame key {k!r} is not an integer") from None
        if t in keys:
            raise SchemaError(f"{where}: frame keys {keys[t]!r} and {k!r} both name frame {t}")
        out[t], keys[t] = val, k
    return out


def video_from_json(text: str, source: str = "video document") -> BlobVideo:
    """Parse the canonical JSON schema; source names the text in a ParseError."""
    doc = parse_json(text, source)
    _expect(isinstance(doc, dict), "video document must be a JSON object")
    _expect(doc.get("version") == SCHEMA_VERSION,
            f"unsupported schema version {doc.get('version')!r}")
    for key in ("width", "height", "num_frames", "anchor_interval", "tracks"):
        _expect(key in doc, f"missing key {key!r}")
    # JSON numbers load as int or float; type() also keeps true/false out.
    for key in ("width", "height", "num_frames", "anchor_interval"):
        _expect(type(doc[key]) is int, f"{key} must be an integer")
    geom = FrameGeometry(doc["width"], doc["height"])
    tracks = []
    _expect(isinstance(doc["tracks"], list), "tracks must be a list")
    for entry in doc["tracks"]:
        _expect(isinstance(entry, dict), "track entry must be an object")
        _expect(type(entry.get("id")) is int, "track id must be an integer")
        raw_params = entry.get("params", {})
        _expect(isinstance(raw_params, dict), f"track {entry['id']}: params must be an object")
        params = _frame_keyed(raw_params, f"track {entry['id']} params")
        for t, vals in params.items():
            _expect(isinstance(vals, list) and len(vals) == 5
                    and all(type(x) in (int, float) for x in vals),
                    f"track {entry['id']} frame {t}: blob must have 5 numbers")
            params[t] = BlobParams(*vals)
        raw_caps = entry.get("captions", {})
        _expect(isinstance(raw_caps, dict), f"track {entry['id']}: captions must be an object")
        captions = _frame_keyed(raw_caps, f"track {entry['id']} captions")
        for t, c in captions.items():
            _expect(isinstance(c, str), f"track {entry['id']} frame {t}: caption must be a string")
        tracks.append(BlobTrack(entry["id"], params, captions))
    return BlobVideo(doc["num_frames"], geom, doc["anchor_interval"], tuple(tracks))
