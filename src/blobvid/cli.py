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

# The most bytes mask or render may hold in per-frame masks and images.
_RASTER_BUDGET_BYTES = 1 << 30

# The most window cells (geometry._ellipse_bounds) mask tests in plain floats
# instead of loading numpy. At 0.2-0.6 us a cell that costs less than the
# >= 70 ms of `import numpy`; far above it, numpy's vector test is faster.
_PLAIN_MASK_CELLS = 1 << 16

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
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(Config)}
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


def _check_raster_bytes(command: str, frames, num_tracks: int, h: int, w: int,
                        rgb: bool = False) -> None:
    """Raise TooLarge, before any frame is drawn, when the frames' masks (and
    RGB images) of h x w cells would exceed _RASTER_BUDGET_BYTES."""
    # len() of a range longer than sys.maxsize raises OverflowError.
    count = frames.stop if isinstance(frames, range) else len(frames)
    need = count * (num_tracks + 1 + (3 if rgb else 0)) * h * w
    if need > _RASTER_BUDGET_BYTES:
        raise TooLarge(f"{command} of {count} frames of {h}x{w} cells for {num_tracks} "
                       f"tracks needs {need} bytes, above the budget of {_RASTER_BUDGET_BYTES}")


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
    from .pnm import mask_filename, write_mask_window
    from .video import densify

    cfg = _cfg_from_args(args)
    v = densify(_load_video(args.video))
    frames = args.frames if args.frames is not None else range(v.num_frames)
    h, w, rho = cfg.feature_h, cfg.feature_w, cfg.rescale
    _check_raster_bytes("mask", frames, v.num_tracks, h, w)
    for t in frames:
        if not 0 <= t < v.num_frames:
            raise RangeError(f"frame {t} outside [0, {v.num_frames})")
    blobs = [(t, track.object_id, track.params[t]) for t in frames for track in v.tracks]
    windows = [_ellipse_bounds(p.cx, p.cy, p.a, p.b, v.geom, h, w, rho) for _, _, p in blobs]
    out_dir = Path(args.out_dir)
    if sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in windows) <= _PLAIN_MASK_CELLS:
        drawn = [_ellipse_rows(p, v.geom, h, w, rho) for _, _, p in blobs]
        out_dir.mkdir(parents=True, exist_ok=True)
        for (t, object_id, _), (r0, c0, rows) in zip(blobs, drawn):
            write_mask_window(out_dir / mask_filename(t, object_id), h, w, r0, c0, rows)
    else:
        from .labelfield import per_frame_masks
        from .parallel import parallel_map
        from .pnm import write_mask_pgm

        per_frame = parallel_map(lambda t: per_frame_masks(v, t, h, w, rho)[0],
                                 frames, args.threads)
        out_dir.mkdir(parents=True, exist_ok=True)
        for t, masks in zip(frames, per_frame):
            for track, m in zip(v.tracks, masks):
                write_mask_pgm(out_dir, t, track.object_id, m)
    _print_json({"written": len(blobs), "dir": str(out_dir)})
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    import numpy as np

    from .labelfield import per_frame_masks
    from .parallel import parallel_map
    from .pnm import write_ppm
    from .video import densify

    for flag, size in (("--render-h", args.render_h), ("--render-w", args.render_w)):
        if size is not None and size < 1:
            raise RangeError(f"{flag} must be at least 1, got {size}")
    cfg = _cfg_from_args(args)
    v = densify(_load_video(args.video))
    frames = args.frames if args.frames is not None else range(v.num_frames)
    h = args.render_h if args.render_h is not None else v.geom.height
    w = args.render_w if args.render_w is not None else v.geom.width
    _check_raster_bytes("render", frames, v.num_tracks, h, w, rgb=True)

    def job(t: int):
        img = np.zeros((h, w, 3), dtype=np.uint8)
        for n, m in enumerate(per_frame_masks(v, t, h, w, cfg.rescale)[0]):
            img[m.bits] = _PALETTE[n % len(_PALETTE)]
        return img

    images = parallel_map(job, frames, args.threads)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, img in zip(frames, images):
        write_ppm(out_dir / f"f{t:04d}.ppm", img)
    _print_json({"written": len(images), "dir": str(out_dir)})
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


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import load_frame_evals, load_region_embeddings, mean_iou, region_cosine_metrics

    miou = args.kind == "miou"
    other_kinds = ({"--embeddings": args.embeddings} if miou else
                   {"--frames": args.frames, "--detections": args.detections,
                    "--ground-truth": args.ground_truth, "--match": args.match})
    for flag, value in other_kinds.items():
        if value is not None:
            raise BlobvidError(f"{args.kind} does not take {flag}")
    if miou:
        if args.detections is None or args.ground_truth is None:
            raise BlobvidError("miou needs --detections and --ground-truth")
        evals = load_frame_evals(args.detections, args.ground_truth)
        frames = args.frames if args.frames is not None else sorted(e.frame for e in evals)
        match = args.match or "hungarian"
        value = mean_iou(evals, frames, method=match)
        _print_json({
            "metric": "miou",
            "value": value,
            "averaging": "pooled",
            "match": match,
            "frames": frames,
        })
    else:
        if args.embeddings is None:
            raise BlobvidError("cosine metrics need --embeddings")
        embs = load_region_embeddings(args.embeddings)
        report = region_cosine_metrics(embs, args.kind)
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
    # Every subcommand takes --threads; only those that load a Config take
    # --config and the per-field flags.
    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument("--threads", type=_thread_count, default=1)
    configured = argparse.ArgumentParser(add_help=False, parents=[threaded])
    configured.add_argument("--config", help="JSON config file")
    for f in dataclasses.fields(Config):
        configured.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                choices=CHOICES.get(f.name), default=None)

    parser = argparse.ArgumentParser(prog="blobvid")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[threaded], help="fit an ellipse to a mask PGM")
    p.add_argument("mask")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("interp", parents=[threaded], help="interpolate two blob params")
    p.add_argument("--p1", type=float, nargs=5, required=True,
                   metavar=("CX", "CY", "A", "B", "THETA"))
    p.add_argument("--p2", type=float, nargs=5, required=True,
                   metavar=("CX", "CY", "A", "B", "THETA"))
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(fn=_cmd_interp)

    p = sub.add_parser("mask", parents=[configured], help="write per-object mask PGMs")
    p.add_argument("video")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--frames", type=_frame_list, default=None,
                   help="comma-separated frame indices")
    p.set_defaults(fn=_cmd_mask)

    p = sub.add_parser("render", parents=[configured], help="write composite PPM frames")
    p.add_argument("video")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--frames", type=_frame_list, default=None)
    p.add_argument("--render-h", type=int, default=None)
    p.add_argument("--render-w", type=int, default=None)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("attend", parents=[configured],
                       help="run the attention demo block on a video")
    p.add_argument("video")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--tokens", type=int, default=4)
    p.add_argument("--out", default=None, help="write output features (f32le + sidecar)")
    p.set_defaults(fn=_cmd_attend)

    p = sub.add_parser("validate", parents=[threaded], help="check a video JSON")
    p.add_argument("video")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("metrics", parents=[threaded], help="layout-control metrics")
    p.add_argument("kind", choices=("miou",) + COSINE_MODES)
    p.add_argument("--detections", default=None)
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--frames", type=_frame_list, default=None)
    p.add_argument("--match", choices=("hungarian", "greedy"), default=None,
                   help="miou box matching (default: hungarian)")
    p.add_argument("--embeddings", default=None)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("gradcheck", parents=[configured],
                       help="finite-difference check of the analytic gradients")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BlobvidError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
