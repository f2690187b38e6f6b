"""Command-line entry points.

Option precedence is flags over environment (``BLOBVID_*``) over ``--config``
JSON over built-in defaults. Exit codes: 0 success, 1 operational failure
(bad input data, validation violations, failed checks), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

# Each command imports the modules it runs, so that building the parser and
# running the light commands never loads the attention stack.
from .config import CHOICES, COSINE_MODES, DEFAULT_STEP, DEFAULT_TOL, Config, load_config
from .errors import BlobvidError, RangeError, TooLarge, read_text

# mask and render may count 1 byte per cell for each track and the background
# (render 3 more, for RGB) in each frame. Each frame is drawn and written in turn,
# at most --threads at once, of about 2 bytes a cell (render 4): under the count.
_RASTER_BUDGET_BYTES = 1 << 30

# The most window cells (geometry._ellipse_bounds) mask tests in plain floats
# instead of loading numpy. At 0.2-0.6 us a cell that costs less than the
# >= 70 ms of `import numpy`; far above it, numpy's vector test is faster.
_PLAIN_MASK_CELLS = 1 << 16

# The Config fields each command reads; it takes a flag for each, and
# --config. The config file and the BLOBVID_* variables serve every command,
# so load_config still reads and checks all the fields from them.
_CONFIG_READS = {
    "mask": ("feature_h", "feature_w", "rescale"),
    "render": ("rescale",),
    "attend": tuple(f.name for f in dataclasses.fields(Config)),
    "gradcheck": ("seed",),
}

_PALETTE = (
    (230, 80, 80),
    (80, 180, 90),
    (80, 120, 220),
    (230, 200, 70),
    (170, 90, 200),
    (80, 200, 200),
    (240, 140, 60),
    (150, 150, 150),
)


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def _load_video(path: str):
    from .video import video_from_json

    return video_from_json(read_text(path), path)


def _cfg_from_args(args: argparse.Namespace) -> Config:
    overrides = {name: getattr(args, name) for name in _CONFIG_READS[args.command]}
    return load_config(config_file=args.config, env=os.environ, overrides=overrides)


def _frame_list(text: str) -> list[int]:
    try:
        frames = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated frame indices, got {text!r}") from None
    if not frames:
        raise argparse.ArgumentTypeError(f"expected at least one frame index, got {text!r}")
    if len(set(frames)) < len(frames):
        raise argparse.ArgumentTypeError(f"expected each frame index once, got {text!r}")
    return frames


def _check_raster_bytes(command: str, frames, v, h: int, w: int, rgb: bool = False) -> None:
    """Before any frame is drawn, raise TooLarge when the h x w masks (and RGB images)
    of the frames (None: all) exceed _RASTER_BUDGET_BYTES, RangeError for a frame not in v."""
    count = v.num_frames if frames is None else len(frames)
    need = count * (v.num_tracks + 1 + (3 if rgb else 0)) * h * w
    if need > _RASTER_BUDGET_BYTES:
        raise TooLarge(f"{command} of {count} frames of {h}x{w} cells for {v.num_tracks} "
                       f"tracks needs {need} bytes, above the budget of {_RASTER_BUDGET_BYTES}")
    for t in frames or ():
        if not 0 <= t < v.num_frames:
            raise RangeError(f"frame {t} outside [0, {v.num_frames})")


def _thread_count(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"expected a thread count of at least 1, got {text!r}")
    return threads


def _cmd_fit(args: argparse.Namespace) -> int:
    from .fitting import fit_ellipse
    from .geometry import FrameGeometry
    from .pnm import read_mask_pgm

    mask = read_mask_pgm(args.mask)
    width = args.width if args.width is not None else mask.w
    height = args.height if args.height is not None else mask.h
    result = fit_ellipse(mask, FrameGeometry(width, height), max_iter=args.max_iter)
    _print_json({
        "params": list(result.params.as_array()),
        "iou": result.iou,
        "iterations": result.iterations,
    })
    return 0


def _cmd_interp(args: argparse.Namespace) -> int:
    from .geometry import BlobParams, interpolate_blob_params

    p1 = BlobParams.from_sequence(args.p1)
    p2 = BlobParams.from_sequence(args.p2)
    mid = interpolate_blob_params(p1, p2, args.alpha)
    _print_json({"params": [mid.cx, mid.cy, mid.a, mid.b, mid.theta]})
    return 0


def _cmd_mask(args: argparse.Namespace) -> int:
    from .geometry import _ellipse_bounds, _ellipse_rows
    from .parallel import parallel_map
    from .pnm import mask_filename, write_mask_window
    from .video import densify

    cfg = _cfg_from_args(args)
    v = densify(_load_video(args.video))
    h, w, rho = cfg.feature_h, cfg.feature_w, cfg.rescale
    _check_raster_bytes("mask", args.frames, v, h, w)
    frames = args.frames if args.frames is not None else range(v.num_frames)
    blobs = [track.params[t] for track in v.tracks for t in frames]
    windows = [_ellipse_bounds(p.cx, p.cy, p.a, p.b, v.geom, h, w, rho) for p in blobs]
    draw = _ellipse_rows
    if sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in windows) > _PLAIN_MASK_CELLS:
        from .blobs import _blob_window as draw
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def job(t: int) -> None:
        for track in v.tracks:
            write_mask_window(out_dir / mask_filename(t, track.object_id), h, w,
                              *draw(track.params[t], v.geom, h, w, rho))

    if v.tracks:  # else nothing is drawn, however many frames the video has
        parallel_map(job, frames, args.threads)
    _print_json({"written": len(blobs), "dir": str(out_dir)})
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    import numpy as np

    from .blobs import _blob_window
    from .parallel import parallel_map
    from .pnm import write_ppm
    from .video import densify

    for flag, size in (("--render-h", args.render_h), ("--render-w", args.render_w)):
        if size is not None and size < 1:
            raise RangeError(f"{flag} must be at least 1, got {size}")
    cfg = _cfg_from_args(args)
    v = densify(_load_video(args.video))
    h = args.render_h if args.render_h is not None else v.geom.height
    w = args.render_w if args.render_w is not None else v.geom.width
    _check_raster_bytes("render", args.frames, v, h, w, rgb=True)
    frames = args.frames if args.frames is not None else range(v.num_frames)
    colors = np.array(_PALETTE, dtype=np.uint8)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def job(t: int) -> None:
        img = np.zeros((h, w, 3), dtype=np.uint8)
        for n, track in enumerate(v.tracks):
            r0, c0, block = _blob_window(track.params[t], v.geom, h, w, cfg.rescale)
            np.copyto(img[r0:r0 + block.shape[0], c0:c0 + block.shape[1]],
                      colors[n % len(colors)], where=block[..., None])
        write_ppm(out_dir / f"f{t:04d}.ppm", img)

    parallel_map(job, frames, args.threads)
    _print_json({"written": len(frames), "dir": str(out_dir)})
    return 0


def _cmd_attend(args: argparse.Namespace) -> int:
    from .embedding import write_embedding
    from .pipeline import run_attend_block

    cfg = _cfg_from_args(args)
    v = _load_video(args.video)
    out, stats = run_attend_block(v, cfg, dim=args.dim, n_tokens=args.tokens,
                                  threads=args.threads)
    if args.out is not None:
        write_embedding(args.out, out)
    _print_json(dataclasses.asdict(stats))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .video import validate

    v = _load_video(args.video)
    violations = validate(v)
    for item in violations:
        sys.stderr.write(str(item) + "\n")
    if violations:
        return 1
    _print_json({"ok": True, "tracks": v.num_tracks, "frames": v.num_frames})
    return 0


def _cmd_miou(args: argparse.Namespace) -> int:
    from .metrics import load_frame_evals, mean_iou

    evals = load_frame_evals(args.detections, args.ground_truth)
    frames = args.frames if args.frames is not None else sorted(e.frame for e in evals)
    _print_json({
        "metric": "miou",
        "value": mean_iou(evals, frames, method=args.match),
        "averaging": "pooled",
        "match": args.match,
        "frames": frames,
    })
    return 0


def _cmd_cosine(args: argparse.Namespace) -> int:
    from .metrics import load_region_embeddings, region_cosine_metrics

    report = region_cosine_metrics(load_region_embeddings(args.embeddings), args.kind)
    _print_json(dataclasses.asdict(report))
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    from .gradcheck import run_gradcheck

    cfg = _cfg_from_args(args)
    report = run_gradcheck(seed=cfg.seed, instances=args.instances,
                           step=args.step, tolerance=args.tolerance)
    _print_json({
        "passed": report.passed,
        "max_rel_err": report.max_rel_err,
        "per_op": report.per_op,
        "instances": report.instances,
        "tolerance": report.tolerance,
    })
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    # Each parser defines only the flags its command reads, so argparse refuses
    # any other (exit 2). Every command, and each metrics kind, takes --threads.
    parser = argparse.ArgumentParser(prog="blobvid")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, fn, summary: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=summary)
        p.add_argument("--threads", type=_thread_count, default=1)
        if name in _CONFIG_READS:
            p.add_argument("--config", help="JSON config file")
            for f in dataclasses.fields(Config):
                if f.name in _CONFIG_READS[name]:
                    p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                   choices=CHOICES.get(f.name), default=None)
        p.set_defaults(fn=fn)
        return p

    p = command(sub, "fit", _cmd_fit, "fit an ellipse to a mask PGM")
    p.add_argument("mask")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=200)

    p = command(sub, "interp", _cmd_interp, "interpolate two blob params")
    p.add_argument("--p1", type=float, nargs=5, required=True,
                   metavar=("CX", "CY", "A", "B", "THETA"))
    p.add_argument("--p2", type=float, nargs=5, required=True,
                   metavar=("CX", "CY", "A", "B", "THETA"))
    p.add_argument("--alpha", type=float, required=True)

    p = command(sub, "mask", _cmd_mask, "write per-object mask PGMs")
    p.add_argument("video")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--frames", type=_frame_list, default=None,
                   help="comma-separated frame indices")

    p = command(sub, "render", _cmd_render, "write composite PPM frames")
    p.add_argument("video")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--frames", type=_frame_list, default=None)
    p.add_argument("--render-h", type=int, default=None)
    p.add_argument("--render-w", type=int, default=None)

    p = command(sub, "attend", _cmd_attend, "run the attention demo block on a video")
    p.add_argument("video")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--tokens", type=int, default=4)
    p.add_argument("--out", default=None, help="write output features (f32le + sidecar)")

    p = command(sub, "validate", _cmd_validate, "check a video JSON")
    p.add_argument("video")

    kinds = sub.add_parser("metrics", help="layout-control metrics").add_subparsers(
        dest="kind", required=True)
    p = command(kinds, "miou", _cmd_miou, "pooled mean IOU of matched boxes")
    p.add_argument("--detections", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--frames", type=_frame_list, default=None)
    p.add_argument("--match", choices=("hungarian", "greedy"), default="hungarian",
                   help="box matching (default: hungarian)")
    for kind in COSINE_MODES:
        command(kinds, kind, _cmd_cosine, "region cosine metric").add_argument(
            "--embeddings", required=True)

    p = command(sub, "gradcheck", _cmd_gradcheck,
                "finite-difference check of the analytic gradients")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BlobvidError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
