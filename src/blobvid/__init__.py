"""Blob-based video layout representation and grounding math.

A video's coarse layout is a handful of tilted ellipses per frame, each with
a free-text caption. This package covers the geometry (canonical params,
rasterization, IOU ellipse fitting, interpolation), the grounding operators
(masked cross-attention over per-blob tokens, masked 3D self-attention over
shared-label positions, gated residual merges, all with analytic gradients),
the LLM layout JSON interchange, and layout-control metrics.
"""

from .blobs import (
    BinaryMask,
    BlobParams,
    FrameGeometry,
    canonicalize,
    mask_iou,
    rasterize,
)
from .config import Config, load_config
from .errors import (
    BlobvidError,
    DegenerateVector,
    EmptyMask,
    EmptyTrack,
    InvalidBlob,
    ParseError,
    RangeError,
    SchemaError,
    ShapeError,
    TooLarge,
    UndefinedMetric,
)
from .fitting import FitResult, fit_ellipse, interpolate_blob_params, moments_init
from .labelfield import NEG_INF, AttnMask3D, LabelField, build_label_field, per_frame_masks
from .video import BlobTrack, BlobVideo, Violation, densify, validate, video_from_json, video_to_json

__version__ = "0.1.0"

__all__ = [
    "AttnMask3D",
    "BinaryMask",
    "BlobParams",
    "BlobTrack",
    "BlobVideo",
    "BlobvidError",
    "Config",
    "DegenerateVector",
    "EmptyMask",
    "EmptyTrack",
    "FitResult",
    "FrameGeometry",
    "InvalidBlob",
    "LabelField",
    "NEG_INF",
    "ParseError",
    "RangeError",
    "SchemaError",
    "ShapeError",
    "TooLarge",
    "UndefinedMetric",
    "Violation",
    "__version__",
    "build_label_field",
    "canonicalize",
    "densify",
    "fit_ellipse",
    "interpolate_blob_params",
    "load_config",
    "mask_iou",
    "moments_init",
    "per_frame_masks",
    "rasterize",
    "validate",
    "video_from_json",
    "video_to_json",
]
