"""Blob-based video layout representation and grounding math.

A video's coarse layout is a handful of tilted ellipses per frame, each with
a free-text caption. This package covers the geometry (canonical params,
rasterization, IOU ellipse fitting, interpolation), the grounding operators
(masked cross-attention over per-blob tokens, masked 3D self-attention over
shared-label positions, gated residual merges, all with analytic gradients),
the LLM layout JSON interchange, and layout-control metrics.
"""

import importlib

# Each exported name and the module that defines it. A name's module loads on
# first access (PEP 562), so `import blobvid` alone loads no numpy.
_HOMES = {
    "blobs": ("BinaryMask", "mask_iou", "rasterize"),
    "config": ("Config", "load_config"),
    "errors": ("BlobvidError", "DegenerateVector", "EmptyMask", "EmptyTrack", "InvalidBlob",
               "ParseError", "RangeError", "SchemaError", "ShapeError", "TooLarge",
               "UndefinedMetric"),
    "fitting": ("FitResult", "fit_ellipse", "moments_init"),
    "geometry": ("BlobParams", "FrameGeometry", "canonicalize", "interpolate_blob_params"),
    "labelfield": ("NEG_INF", "AttnMask3D", "LabelField", "build_label_field", "per_frame_masks"),
    "video": ("BlobTrack", "BlobVideo", "Violation", "densify", "validate", "video_from_json",
              "video_to_json"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
