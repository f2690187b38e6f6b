#!/usr/bin/env python3
"""End-to-end demo on the bundled example layout.

Parses the first bundled layout document, densifies it to 13 frames at
720x480, validates it and writes it to video.json. Then runs the CLI's
mask, render and attend subcommands on that file: per-object mask PGMs,
composite PPM renders and the seeded attention block. Stdout is the JSON
each subcommand prints.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blobvid.blobs import FrameGeometry
from blobvid.cli import main as blobvid_cli
from blobvid.exemplars import EXEMPLAR_1_LAYOUT
from blobvid.layout import densify_layout, parse_layout
from blobvid.video import validate, video_to_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--feature-size", type=int, default=16)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    doc = parse_layout(EXEMPLAR_1_LAYOUT)
    v = densify_layout(doc, 13, FrameGeometry(720, 480))
    violations = validate(v)
    if violations:
        for item in violations:
            print(f"violation: {item}", file=sys.stderr)
        return 1
    video = out / "video.json"
    video.write_text(video_to_json(v))

    grid = ["--feature-h", str(args.feature_size), "--feature-w", str(args.feature_size)]
    for argv in (
        ["mask", str(video), "--out-dir", str(out / "masks"), *grid],
        ["render", str(video), "--out-dir", str(out / "render"),
         "--render-h", "120", "--render-w", "180"],
        ["attend", str(video), "--dim", "16", "--tokens", "4", "--seed", str(args.seed), *grid],
    ):
        code = blobvid_cli(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
