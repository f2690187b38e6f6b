import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blobvid
from blobvid import blobs, cli, geometry, labelfield, metrics, parallel, pipeline, video
from blobvid.blobs import BlobParams, FrameGeometry, rasterize
from blobvid.cli import _cfg_from_args, build_parser, main
from blobvid.config import CHOICES, COSINE_MODES, ENV_PREFIX, Config, load_config
from blobvid.embedding import read_embedding, write_embedding
from blobvid.errors import BlobvidError
from blobvid.fitting import fit_ellipse
from blobvid.geometry import _ellipse_bounds
from blobvid.pnm import read_mask_pgm, write_mask_pgm
from blobvid.video import BlobTrack, BlobVideo, video_to_json

from conftest import read_ppm


@pytest.fixture
def video_file(tmp_path):
    v = BlobVideo(9, FrameGeometry(64, 64), anchor_interval=4, tracks=(
        BlobTrack(0, {0: BlobParams(20, 20, 8, 5, 0.2),
                      4: BlobParams(30, 24, 8, 5, 0.2),
                      8: BlobParams(40, 28, 8, 5, 0.2)},
                  {0: "a red ball", 8: "a red ball, further right"}),
        BlobTrack(1, {0: BlobParams(48, 48, 6, 6, 0.0),
                      4: BlobParams(48, 44, 6, 6, 0.0),
                      8: BlobParams(48, 40, 6, 6, 0.0)},
                  {4: "a blue box"}),
    ))
    p = tmp_path / "video.json"
    p.write_text(video_to_json(v))
    return p


def _child_env():
    # As in acceptance gate 9: a child runs the source this process imported.
    src = str(Path(blobvid.__file__).resolve().parent.parent)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _flag(name):
    return "--" + name.replace("_", "-")


class TestFit:
    def test_fit_on_synthetic_mask(self, tmp_path, capsys):
        blob = BlobParams(32, 30, 12, 7, 0.4)
        mask = rasterize(blob, FrameGeometry(64, 64), 64, 64)
        path = write_mask_pgm(tmp_path, 0, 0, mask)
        code, out, _ = run_cli(capsys, ["fit", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["iou"] >= 0.9
        assert len(doc["params"]) == 5

    def test_missing_file_is_operational_error(self, capsys):
        code, _, err = run_cli(capsys, ["fit", "/nonexistent/mask.pgm"])
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("max_iter", ["0", "-5"])
    def test_max_iter_below_one_is_one_error_line(self, tmp_path, capsys, max_iter):
        # A fit that may take no step must not report one.
        mask = rasterize(BlobParams(32, 30, 12, 7, 0.4), FrameGeometry(64, 64), 64, 64)
        path = write_mask_pgm(tmp_path, 0, 0, mask)
        code, out, err = run_cli(capsys, ["fit", str(path), "--max-iter", max_iter])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and "max_iter must be at least 1" in err


class TestInterp:
    def test_midpoint(self, capsys):
        code, out, _ = run_cli(capsys, [
            "interp", "--p1", "10", "10", "5", "3", "0",
            "--p2", "20", "20", "5", "3", "0", "--alpha", "0.5",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["params"][:2] == [15.0, 15.0]

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, [
            "interp", "--p1", "10", "10", "5", "3", "0",
            "--p2", "20", "20", "5", "3", "0", "--alpha", "1.5",
        ])
        assert code == 1 and "error:" in err


class TestMask:
    def test_writes_dense_grid_of_masks(self, tmp_path, video_file, capsys):
        out_dir = tmp_path / "masks"
        code, out, _ = run_cli(capsys, [
            "mask", str(video_file), "--out-dir", str(out_dir),
            "--feature-h", "16", "--feature-w", "16",
        ])
        assert code == 0
        assert json.loads(out)["written"] == 18  # 9 frames x 2 objects
        names = sorted(p.name for p in out_dir.iterdir())
        assert names[0] == "f0000_o0.pgm" and len(names) == 18

    def test_mask_content_matches_rasterize(self, tmp_path, video_file, capsys):
        out_dir = tmp_path / "masks"
        code, _, _ = run_cli(capsys, [
            "mask", str(video_file), "--out-dir", str(out_dir),
            "--frames", "0", "--feature-h", "16", "--feature-w", "16",
        ])
        assert code == 0
        got = read_mask_pgm(out_dir / "f0000_o0.pgm")
        want = rasterize(BlobParams(20, 20, 8, 5, 0.2), FrameGeometry(64, 64), 16, 16)
        assert np.array_equal(got.bits, want.bits)

    @pytest.mark.parametrize("grid, numpy_path, threads", [
        (16, False, "1"), (256, True, "1"), (256, True, "3"),
    ], ids=["plain-floats", "numpy", "numpy-on-3-threads"])
    def test_both_paths_write_the_bytes_of_write_mask_pgm(self, tmp_path, video_file, capsys,
                                                          monkeypatch, grid, numpy_path, threads):
        # The blobs' windows hold fewer than cli._PLAIN_MASK_CELLS cells at
        # 16x16 and more at 256x256; each blob is drawn by the plain-float
        # geometry._ellipse_rows on the first and by blobs._blob_window on the second.
        v = video.densify(video.video_from_json(video_file.read_text()))
        cells = sum((r1 - r0) * (c1 - c0) for track in v.tracks for p in track.params.values()
                    for r0, r1, c0, c1 in [_ellipse_bounds(p.cx, p.cy, p.a, p.b, v.geom,
                                                           grid, grid, 1.3)])
        assert (cells > cli._PLAIN_MASK_CELLS) == numpy_path
        calls = []
        for module, name in ((geometry, "_ellipse_rows"), (blobs, "_blob_window")):
            drawn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _name=name, _drawn=drawn:
                                calls.append(_name) or _drawn(*args))
        out_dir = tmp_path / "masks"
        code, _, err = run_cli(capsys, ["mask", str(video_file), "--out-dir", str(out_dir),
                                        "--feature-h", str(grid), "--feature-w", str(grid),
                                        "--rescale", "1.3", "--threads", threads])
        assert code == 0, err
        assert calls == [("_blob_window" if numpy_path else "_ellipse_rows")] * 18
        monkeypatch.undo()
        assert len(list(out_dir.iterdir())) == 18
        for t in range(9):
            for track, m in zip(v.tracks, labelfield.per_frame_masks(v, t, grid, grid, 1.3)[0]):
                want = write_mask_pgm(tmp_path, t, track.object_id, m)
                assert (out_dir / want.name).read_bytes() == want.read_bytes()
                gray = np.where(m.bits, 255, 0).astype(np.uint8).tobytes()
                assert want.read_bytes() == f"P5\n{grid} {grid}\n255\n".encode() + gray

    def test_video_without_tracks_maps_no_frame(self, tmp_path, capsys, monkeypatch):
        # 2**30 frames of one cell fit the raster budget, and a list of them
        # would take tens of GB; with no track to draw, no frame is mapped.
        monkeypatch.setattr(parallel, "parallel_map", None)
        path = tmp_path / "video.json"
        path.write_text(json.dumps({"version": 1, "width": 64, "height": 64,
                                    "num_frames": 2**30, "anchor_interval": 8, "tracks": []}))
        code, out, err = run_cli(capsys, ["mask", str(path), "--out-dir", str(tmp_path / "m"),
                                          "--feature-h", "1", "--feature-w", "1"])
        assert code == 0, err
        assert json.loads(out)["written"] == 0

    def test_frame_subset(self, tmp_path, video_file, capsys):
        out_dir = tmp_path / "masks"
        code, out, _ = run_cli(capsys, [
            "mask", str(video_file), "--out-dir", str(out_dir), "--frames", "0,8",
        ])
        assert code == 0
        assert json.loads(out)["written"] == 4


class TestRender:
    def test_palette_by_track_order(self, tmp_path, video_file, capsys):
        out_dir = tmp_path / "render"
        code, _, _ = run_cli(capsys, [
            "render", str(video_file), "--out-dir", str(out_dir), "--frames", "0",
        ])
        assert code == 0
        img = read_ppm(out_dir / "f0000.ppm")
        assert img.shape == (64, 64, 3)  # native geometry by default
        assert tuple(img[20, 20]) == (230, 80, 80)   # first track's color
        assert tuple(img[48, 48]) == (80, 180, 90)   # second track's color
        assert tuple(img[0, 63]) == (0, 0, 0)        # background stays black

    def test_render_size_override(self, tmp_path, video_file, capsys):
        out_dir = tmp_path / "render"
        code, _, _ = run_cli(capsys, [
            "render", str(video_file), "--out-dir", str(out_dir), "--frames", "0",
            "--render-h", "32", "--render-w", "48",
        ])
        assert code == 0
        assert read_ppm(out_dir / "f0000.ppm").shape == (32, 48, 3)

    @pytest.mark.parametrize("size", ["0", "-5"])
    @pytest.mark.parametrize("flag", ["--render-h", "--render-w"])
    def test_size_below_one_is_one_error_line(self, tmp_path, video_file, capsys, monkeypatch,
                                              flag, size):
        # Refused before the video is densified or any file is written.
        monkeypatch.setattr(video, "densify", None)
        code, out, err = run_cli(capsys, [
            "render", str(video_file), "--out-dir", str(tmp_path / "render"), f"{flag}={size}",
        ])
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be at least 1, got {size}\n"
        assert not (tmp_path / "render").exists()


class TestAttend:
    def test_stats_and_feature_dump(self, tmp_path, video_file, capsys):
        out_path = tmp_path / "features.bin"
        code, out, _ = run_cli(capsys, [
            "attend", str(video_file), "--dim", "8", "--tokens", "2",
            "--feature-h", "6", "--feature-w", "6", "--out", str(out_path),
        ])
        assert code == 0
        stats = json.loads(out)
        assert stats["rows"] == 9 * 36
        assert stats["row_sum_max_err"] < 1e-12
        arr = read_embedding(out_path)
        assert arr.shape == (9 * 36, 8)

    def test_odd_dim_rejected(self, video_file, capsys):
        code, _, err = run_cli(capsys, ["attend", str(video_file), "--dim", "7"])
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("tokens", ["0", "-1"])
    def test_tokens_below_one_is_one_error_line(self, video_file, capsys, tokens):
        code, out, err = run_cli(capsys, ["attend", str(video_file), f"--tokens={tokens}"])
        assert code == 1 and out == ""
        assert err == f"error: caption token count must be at least 1, got {tokens}\n"

    def test_huge_feature_grid_is_one_error_line(self, video_file, capsys, monkeypatch):
        # 9 frames of 100000 x 100000 features: refused by arithmetic alone,
        # before the video is densified or any feature is drawn.
        monkeypatch.setattr(pipeline, "densify", None)
        code, out, err = run_cli(capsys, [
            "attend", str(video_file), "--feature-h", "100000", "--feature-w", "100000",
        ])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: attention over 9 frames of 100000x100000 features")

    @pytest.mark.parametrize("flag, value", [("--tokens", 10**9), ("--fourier-freqs", 10**6)],
                             ids=["tokens", "fourier-freqs"])
    def test_huge_token_or_frequency_count_is_one_error_line(self, video_file, capsys,
                                                             monkeypatch, flag, value):
        # 10**9 caption tokens per track, or a QR of a 10**7-square matrix:
        # refused by arithmetic alone, before the video is densified.
        monkeypatch.setattr(pipeline, "densify", None)
        code, out, err = run_cli(capsys, ["attend", str(video_file), flag, str(value)])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: attention over 9 frames of 16x16 features")

    @pytest.mark.parametrize("command", [
        ["mask", "--out-dir", "m"], ["render", "--out-dir", "r"], ["attend"],
    ], ids=["mask", "render", "attend"])
    def test_huge_frame_count_is_one_error_line(self, tmp_path, capsys, monkeypatch, command):
        # A schema-valid video of 10^8 frames: densify (or, on attend, the
        # byte budget before it) refuses it before filling a single frame.
        monkeypatch.setattr(video, "fill_frames", None)
        path = tmp_path / "video.json"
        path.write_text(json.dumps({
            "version": 1, "width": 64, "height": 64, "num_frames": 100000000,
            "anchor_interval": 8,
            "tracks": [{"id": 0, "params": {"0": [20, 20, 8, 5, 0.2]}}],
        }))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, [command[0], str(path), *command[1:]])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "100000000" in err

    @pytest.mark.parametrize("command, size_flags, need", [
        ("mask", ["--feature-h", "100000", "--feature-w", "100000"], 3 * 10**10),
        ("render", ["--render-h", "100000", "--render-w", "100000"], 6 * 10**10),
    ], ids=["mask", "render"])
    def test_huge_raster_grid_is_one_error_line(self, tmp_path, video_file, capsys, monkeypatch,
                                                command, size_flags, need):
        # Frame 0 of 100000 x 100000 cells: two track masks and the
        # background (and, on render, 3 RGB bytes) per cell, refused by
        # arithmetic alone before any window is bounded or drawn.
        for module, name in ((geometry, "_ellipse_bounds"), (geometry, "_ellipse_rows"),
                             (blobs, "_blob_window"), (blobs, "_ellipse_window")):
            monkeypatch.setattr(module, name, None)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, [
            command, str(video_file), "--out-dir", str(out_dir), "--frames", "0", *size_flags,
        ])
        assert code == 1 and out == ""
        assert err == (f"error: {command} of 1 frames of 100000x100000 cells for 2 tracks needs "
                       f"{need} bytes, above the budget of {cli._RASTER_BUDGET_BYTES}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, need", [
        ("mask", 9 * 3 * 16 * 16), ("render", 9 * 6 * 64 * 64),
    ], ids=["mask", "render"])
    def test_raster_budget_is_inclusive(self, tmp_path, video_file, capsys, monkeypatch,
                                        command, need):
        # All 9 frames: 16 x 16 features on mask, the native 64 x 64 on render.
        argv = [command, str(video_file), "--out-dir", str(tmp_path / "out")]
        if command == "mask":
            argv += ["--feature-h", "16", "--feature-w", "16"]
        monkeypatch.setattr(cli, "_RASTER_BUDGET_BYTES", need)
        assert run_cli(capsys, argv)[0] == 0
        monkeypatch.setattr(cli, "_RASTER_BUDGET_BYTES", need - 1)
        code, _, err = run_cli(capsys, argv)
        assert code == 1 and f"needs {need} bytes" in err

    @pytest.mark.parametrize("command, threads", [("mask", "1"), ("mask", "2"), ("render", "1")],
                             ids=["mask", "mask-on-2-threads", "render"])
    def test_raster_budget_covers_the_traced_peak(self, tmp_path, video_file, capsys,
                                                  monkeypatch, command, threads):
        # Frames 0 and 1 at 2000 x 2000 cells under --rescale 20: each blob's
        # window is the whole grid, so mask takes its numpy path.
        grid = "--feature" if command == "mask" else "--render"
        argv = [command, str(video_file), "--out-dir", str(tmp_path / "out"), "--frames", "0,1",
                "--rescale", "20", "--threads", threads,
                grid + "-h", "2000", grid + "-w", "2000"]
        need = 2 * (2 + 1 + (3 if command == "render" else 0)) * 2000 * 2000
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_RASTER_BUDGET_BYTES", need - 1)
            code, _, err = run_cli(capsys, argv)
        assert code == 1 and f"needs {need} bytes" in err  # the count is cli's own
        self.assert_traced_peak_within_count(capsys, argv, need)

    @staticmethod
    def assert_traced_peak_within_count(capsys, argv, need):
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < need


class TestValidate:
    def test_clean_video(self, video_file, capsys):
        code, out, err = run_cli(capsys, ["validate", str(video_file)])
        assert code == 0 and err == ""
        assert json.loads(out) == {"ok": True, "tracks": 2, "frames": 9}

    def test_violations_exit_1(self, tmp_path, video_file, capsys):
        doc = json.loads(video_file.read_text())
        doc["tracks"][0]["params"]["0"][2] = 40.0  # b > a: not canonical
        doc["tracks"][0]["params"]["0"][3] = 80.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["validate", str(bad)])
        assert code == 1
        assert out == "" and err != ""


class TestMetrics:
    def test_miou(self, tmp_path, capsys):
        (tmp_path / "dets.json").write_text(json.dumps({"frames": [
            {"frame": 0, "detections": [
                {"bbox": [1, 0, 11, 10], "confidence": 0.9},
                {"bbox": [19, 0, 29, 10], "confidence": 0.8},
            ]},
        ]}))
        (tmp_path / "gt.json").write_text(json.dumps({"frames": [
            {"frame": 0, "objects": [
                {"id": 0, "bbox": [0, 0, 10, 10]},
                {"id": 1, "bbox": [20, 0, 30, 10]},
            ]},
        ]}))
        code, out, _ = run_cli(capsys, [
            "metrics", "miou", "--detections", str(tmp_path / "dets.json"),
            "--ground-truth", str(tmp_path / "gt.json"),
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.8181818181818182)
        assert doc["averaging"] == "pooled" and doc["match"] == "hungarian"

    def test_rclip_t(self, tmp_path, capsys):
        write_embedding(tmp_path / "cap.bin", np.array([[1.0, 0.0]]))
        write_embedding(tmp_path / "gen.bin",
                        np.array([[math.cos(0.3), math.sin(0.3)]]))
        (tmp_path / "manifest.json").write_text(json.dumps({"embeddings": [
            {"object": 0, "frame": 0, "kind": "caption", "path": "cap.bin"},
            {"object": 0, "frame": 0, "kind": "generated", "path": "gen.bin"},
        ]}))
        code, out, _ = run_cli(capsys, [
            "metrics", "rclip_t", "--embeddings", str(tmp_path / "manifest.json"),
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["metric"] == "rclip_t"
        assert doc["value"] == pytest.approx(math.cos(0.3), abs=1e-6)

    @pytest.mark.parametrize("box, match", [
        ([-1e308, -1e308, 1e308, 1e308], "hungarian"),
        ([-1e308, -1e308, 1e308, 1e308], "greedy"),
        ([0, 0, 1e-320, 1e-320], "hungarian"),
    ], ids=["width-overflows", "width-overflows-greedy", "area-underflows"])
    def test_box_beyond_the_floats_is_one_error_line(self, tmp_path, box, match):
        # Each once hung in the assignment (a NaN IOU), printed "value": NaN
        # or raised ZeroDivisionError. The child's timeout turns a hang into
        # a failure.
        (tmp_path / "dets.json").write_text(json.dumps({"frames": [
            {"frame": 0, "detections": [{"bbox": box, "confidence": 0.9}]}]}))
        (tmp_path / "gt.json").write_text(json.dumps({"frames": [
            {"frame": 0, "objects": [{"id": 0, "bbox": box}]}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "blobvid", "metrics", "miou", "--detections", "dets.json",
             "--ground-truth", "gt.json", "--match", match],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: box width, height and area")

    def test_miou_without_inputs_is_error(self, capsys):
        # A missing input, as on the cosine kinds, is a usage error.
        for argv, missing in [(["miou"], "--detections, --ground-truth"),
                              (["miou", "--detections", "dets.json"], "--ground-truth"),
                              (["miou", "--ground-truth", "gt.json"], "--detections"),
                              *[([kind], "--embeddings") for kind in COSINE_MODES]]:
            with pytest.raises(SystemExit) as exc:
                main(["metrics", *argv])
            assert exc.value.code == 2
            assert (f"error: the following arguments are required: {missing}\n"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("kind, flag, value", [
        ("rclip_t", "--frames", "7"),
        ("rclip_t", "--detections", "dets.json"),
        ("rclip_t", "--ground-truth", "gt.json"),
        ("rclip_t", "--match", "greedy"),
        ("miou", "--embeddings", "manifest.json"),
    ], ids=["cosine-frames", "cosine-detections", "cosine-ground-truth", "cosine-match",
            "miou-embeddings"])
    def test_other_kinds_flag_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                kind, flag, value):
        # Every input file is valid, so the misplaced flag is the only fault;
        # the kind's parser does not define it, so argparse refuses it.
        write_embedding(tmp_path / "cap.bin", np.array([[1.0, 0.0]]))
        (tmp_path / "manifest.json").write_text(json.dumps({"embeddings": [
            {"object": 0, "frame": 0, "kind": "caption", "path": "cap.bin"},
            {"object": 0, "frame": 0, "kind": "generated", "path": "cap.bin"},
        ]}))
        (tmp_path / "dets.json").write_text(json.dumps({"frames": [
            {"frame": 0, "detections": [{"bbox": [0, 0, 10, 10], "confidence": 0.9}]}]}))
        (tmp_path / "gt.json").write_text(json.dumps({"frames": [
            {"frame": 0, "objects": [{"id": 0, "bbox": [0, 0, 10, 10]}]}]}))
        monkeypatch.chdir(tmp_path)
        inputs = (["--embeddings", "manifest.json"] if kind != "miou"
                  else ["--detections", "dets.json", "--ground-truth", "gt.json"])
        with pytest.raises(SystemExit) as exc:
            main(["metrics", kind, *inputs, flag, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: unrecognized arguments: {flag} {value}\n" in err
        code, out, _ = run_cli(capsys, ["metrics", kind, *inputs])
        assert code == 0 and out


class TestGradcheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["gradcheck", "--instances", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_rel_err"] < 1e-4
        assert set(doc["per_op"]) == {
            "masked_cross_attention", "masked_3d_self_attention",
            "gated_fuse", "blob_embed",
        }

    @pytest.mark.parametrize("argv, detail", [
        (["--instances", "0"], "instances must be at least 1"),
        (["--instances", "-3"], "instances must be at least 1"),
        (["--step", "0"], "step must be positive"),
        (["--tolerance", "-1"], "tolerance must be positive"),
        (["--instances", "1", "--step", "inf"], "step must be positive"),
        (["--instances", "1", "--tolerance", "inf"], "tolerance must be positive"),
    ], ids=["instances-0", "instances-neg", "step-0", "tolerance-neg", "step-inf",
            "tolerance-inf"])
    def test_vacuous_or_degenerate_run_is_one_error_line(self, capsys, argv, detail):
        # A check that runs nothing, divides by a zero or infinite step, or
        # passes any error under an infinite tolerance must not report
        # success or crash with a traceback.
        code, out, err = run_cli(capsys, ["gradcheck", *argv])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and detail in err


class TestConfigPlumbing:
    def test_flag_beats_config_file(self, tmp_path, video_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"feature_h": 4, "feature_w": 4}))
        out_dir = tmp_path / "masks"
        code, _, _ = run_cli(capsys, [
            "mask", str(video_file), "--out-dir", str(out_dir), "--frames", "0",
            "--config", str(cfg), "--feature-h", "10",
        ])
        assert code == 0
        m = read_mask_pgm(out_dir / "f0000_o0.pgm")
        assert (m.h, m.w) == (10, 4)

    def test_env_beats_config_file(self, tmp_path, video_file, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"feature_h": 4, "feature_w": 4}))
        monkeypatch.setenv("BLOBVID_FEATURE_W", "12")
        out_dir = tmp_path / "masks"
        code, _, _ = run_cli(capsys, [
            "mask", str(video_file), "--out-dir", str(out_dir), "--frames", "0",
            "--config", str(cfg),
        ])
        assert code == 0
        m = read_mask_pgm(out_dir / "f0000_o0.pgm")
        assert (m.h, m.w) == (4, 12)

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_negative_seed_is_one_error_line(self, tmp_path, video_file, capsys, monkeypatch,
                                             source):
        # Each source once; numpy's seeding would refuse a negative seed with
        # a traceback.
        argv = _attend(video_file)
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -3}))
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv("BLOBVID_SEED", "-2")
            argv = ["gradcheck", "--instances", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: seed must be non-negative")


class TestConfigSurface:
    def test_every_field_is_set_by_file_env_and_flag(self, tmp_path, monkeypatch):
        # Two values suffice: file=A, then env=B over it, then flag=A over that.
        cfg = tmp_path / "cfg.json"
        for f in dataclasses.fields(Config):
            allowed = CHOICES.get(f.name)
            a = next(c for c in allowed if c != f.default) if allowed else f.default + 1
            b = f.default if allowed else f.default + 2
            flag = "--" + f.name.replace("_", "-")
            env_key = "BLOBVID_" + f.name.upper()
            cfg.write_text(json.dumps({f.name: a}))
            argv = ["attend", "v.json", "--config", str(cfg)]  # attend reads every field

            monkeypatch.delenv(env_key, raising=False)
            assert getattr(_cfg_from_args(build_parser().parse_args(argv)), f.name) == a
            monkeypatch.setenv(env_key, str(b))
            assert getattr(_cfg_from_args(build_parser().parse_args(argv)), f.name) == b
            args = build_parser().parse_args(argv + [flag, str(a)])
            assert getattr(_cfg_from_args(args), f.name) == a
            monkeypatch.delenv(env_key)

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, reads in cli._CONFIG_READS.items() for name in reads])
    def test_every_accepted_flag_changes_the_output(self, tmp_path, video_file, capsys,
                                                    monkeypatch, command, name):
        # The default and one other value: stdout or the written bytes differ.
        default = next(f.default for f in dataclasses.fields(Config) if f.name == name)
        argv = {"mask": ["mask", str(video_file), "--out-dir", "out", "--frames", "0,4"],
                "render": ["render", str(video_file), "--out-dir", "out", "--frames", "0,4"],
                "attend": ["attend", str(video_file), "--dim", "8", "--tokens", "2",
                           "--out", "out.bin"],
                "gradcheck": ["gradcheck", "--instances", "1"]}[command]
        outputs = []
        for value in CHOICES.get(name) or (default, default + 1):
            run_dir = tmp_path / str(value)
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            code, out, _ = run_cli(capsys, argv + [_flag(name), str(value)])
            assert code == 0
            outputs.append((out, {p.relative_to(run_dir): p.read_bytes()
                                  for p in run_dir.rglob("*") if p.is_file()}))
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("command", ["render", "gradcheck"])
    def test_config_file_may_set_fields_the_command_does_not_read(self, tmp_path, video_file,
                                                                  capsys, monkeypatch, command):
        # One file serves every command: all seven fields load, and each is
        # still checked.
        monkeypatch.chdir(tmp_path)
        argv = {"render": ["render", str(video_file), "--out-dir", "out"],
                "gradcheck": ["gradcheck", "--instances", "1"]}[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_CONFIG_DOC))
        assert set(_CONFIG_DOC) == {f.name for f in dataclasses.fields(Config)}
        code, out, _ = run_cli(capsys, argv + ["--config", str(cfg)])
        assert code == 0 and json.loads(out)
        cfg.write_text(json.dumps({**_CONFIG_DOC, "interp_method": "cubic"}))
        code, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert code == 1 and out == ""
        assert err.startswith("error: interp method must be one of")

    @pytest.mark.parametrize("name", ["dense_cap", "anchor_interval"])
    def test_removed_knobs_are_rejected(self, tmp_path, video_file, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["mask", str(video_file), "--out-dir", str(tmp_path),
                  "--" + name.replace("_", "-"), "8"])
        assert exc.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: 8}))
        code, out, err = run_cli(capsys, [
            "mask", str(video_file), "--out-dir", str(tmp_path / "masks"), "--config", str(cfg),
        ])
        assert code == 1 and out == ""
        assert err.startswith("error: unknown config key")


_DELETE = object()
_DETS = {"frames": [{"frame": 0, "detections": [{"bbox": [1, 0, 11, 10], "confidence": 0.9}]}]}
_GT = {"frames": [{"frame": 0, "objects": [{"id": 0, "bbox": [0, 0, 10, 10]}]}]}


class TestMalformedInput:
    @pytest.mark.parametrize("target, path, value", [
        ("video", ("tracks", 0, "params", "x"), [20, 20, 8, 5, 0.2]),
        ("video", ("num_frames",), "2"),
        ("video", ("anchor_interval",), "8"),
        ("video", ("tracks", 0, "params", "0", 0), "a"),
        ("video", ("tracks", 0, "params", "0", 0), True),
        ("dets", ("frames", 0, "detections", 0, "bbox"), [1, 0, 11]),
        ("dets", ("frames", 0, "detections", 0, "confidence"), "high"),
        ("dets", ("frames", 0, "frame"), _DELETE),
        ("gt", ("frames",), [{"frame": 0, "objects": [{"id": 0, "bbox": [1, 0, 11, 10]}]},
                             _GT["frames"][0]]),
        ("video", ("tracks", 0, "params", "04"), [30, 24, 8, 5, 0.2]),
        ("video", ("tracks", 0, "captions", "+0"), "a red ball"),
    ], ids=["frame-key-x", "num-frames-str", "anchor-interval-str", "blob-str", "blob-bool",
            "bbox-3-numbers", "confidence-str", "frame-missing", "gt-frame-twice",
            "params-key-twice", "caption-key-twice"])
    def test_one_error_line_and_exit_1(self, tmp_path, video_file, capsys, target, path, value):
        docs = {"video": json.loads(video_file.read_text()),
                "dets": json.loads(json.dumps(_DETS)), "gt": json.loads(json.dumps(_GT))}
        *parents, last = path
        node = docs[target]
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        if target == "video":
            argv = ["validate", str(tmp_path / "video.json")]
        else:
            argv = ["metrics", "miou", "--detections", str(tmp_path / "dets.json"),
                    "--ground-truth", str(tmp_path / "gt.json")]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_repeated_json_key_is_one_error_line(self, tmp_path, video_file, capsys):
        # json.dumps cannot repeat a key, so the text is edited: the first
        # track's params name frame 0 twice.
        text = video_file.read_text()
        bad = text.replace('"params": {', '"params": {"0": [30, 30, 8, 5, 0.2], ', 1)
        assert bad != text
        path = tmp_path / "repeated.json"
        path.write_text(bad)
        code, out, err = run_cli(capsys, ["validate", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {path}: key '0' repeated in one object\n"

    def test_negative_frame_key_is_a_violation(self, tmp_path, video_file, capsys):
        doc = json.loads(video_file.read_text())
        doc["tracks"][0]["params"]["-1"] = doc["tracks"][0]["params"]["0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["validate", str(bad)])
        assert code == 1 and out == ""
        assert "frame -1 outside" in err and "error:" not in err

    @pytest.mark.parametrize("target, text", [
        ("config", "{not json"),
        ("dets", "{not json"),
        ("gt", "{not json"),
        ("manifest", "[]"),
        ("manifest", json.dumps({"embeddings": [{"object": 0, "frame": 0, "kind": "caption"}]})),
        ("manifest", json.dumps({"embeddings": [
            {"object": "0", "frame": 0, "kind": "caption", "path": "cap.bin"}]})),
        ("sidecar", "{not json"),
        ("sidecar", json.dumps({"shape": [1], "dtype": "f32le"})),
    ], ids=["config-not-json", "dets-not-json", "gt-not-json", "manifest-list",
            "manifest-path-missing", "manifest-object-str", "sidecar-not-json",
            "sidecar-shape-1"])
    def test_bad_json_file_is_one_error_line(self, tmp_path, video_file, capsys, target, text):
        write_embedding(tmp_path / "cap.bin", np.array([[1.0, 0.0]]))
        files = {"config": json.dumps({"seed": 1}), "dets": json.dumps(_DETS),
                 "gt": json.dumps(_GT), "manifest": json.dumps({"embeddings": [
                     {"object": 0, "frame": 0, "kind": kind, "path": "cap.bin"}
                     for kind in ("caption", "generated")]})}
        files["cap.bin" if target == "sidecar" else target] = text
        for name, body in files.items():
            (tmp_path / f"{name}.json").write_text(body)
        if target == "config":
            argv = ["mask", str(video_file), "--out-dir", str(tmp_path / "masks"),
                    "--config", str(tmp_path / "config.json")]
        elif target in ("manifest", "sidecar"):
            argv = ["metrics", "rclip_t", "--embeddings", str(tmp_path / "manifest.json")]
        else:
            argv = ["metrics", "miou", "--detections", str(tmp_path / "dets.json"),
                    "--ground-truth", str(tmp_path / "gt.json")]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err
        if text == "{not json":
            assert "byte offset 1" in err


# JSON values a mutation writes: every JSON type, non-finite and huge
# numbers, and an integer with more digits than int() reads (_HUGE_INT).
_HUGE_INT = "1" + "0" * 5000
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                | st.sampled_from([0, -1, 10**6, 10**30, 10**400, -10**400, 1e308, -1e308,
                                   5e-324, -5e-324, 1e-310, -0.0, math.inf, -math.inf,
                                   math.nan, _HUGE_INT]))
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=5)
                            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                            max_leaves=6)
# Feature grids: plain floats, numpy, and over the raster budget for any video.
_MASK_GRIDS = [16, 512, 1 << 15]


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


@st.composite
def mutated_documents(draw, doc):
    """doc after 1-3 mutations, each replacing, deleting or renaming one node
    of it or adding a member, as JSON text."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))[1:]
        if not paths:  # every node deleted
            break
        *parents, last = draw(st.sampled_from(paths))
        node = doc
        for key in parents:
            node = node[key]
        action = draw(st.sampled_from(["replace", "delete", "rename", "add"]))
        if action == "replace":
            node[last] = draw(_JSON_VALUES)
        elif action == "delete":
            del node[last]
        elif action == "rename":
            if isinstance(node, dict):
                node[draw(st.text(max_size=3) | st.sampled_from(["01", "-1", "999", "1e3"]))] = (
                    node.pop(last))
        elif isinstance(node[last], dict):
            node[last][draw(st.text(max_size=3) | st.sampled_from(["0", "8", "12"]))] = (
                draw(_JSON_VALUES))
        elif isinstance(node[last], list):
            node[last].append(draw(_JSON_VALUES))
    return json.dumps(doc).replace(json.dumps(_HUGE_INT), _HUGE_INT)


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in this thread, the main one, once the body has run
    for seconds: a hang fails its example instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _reject_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


def assert_output_or_one_error_line(argv):
    """Run the CLI in process on argv, under _time_limit: it prints strict
    JSON (no NaN or Infinity) and exits 0, or prints one error: line and
    exits 1."""
    out, err = io.StringIO(), io.StringIO()
    with _time_limit(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        return json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert code == 1 and out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error:")
    return None


class TestMaskRobustness:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_video_is_written_or_one_error_line(self, data):
        doc = json.loads(video_to_json(BlobVideo(9, FrameGeometry(64, 64), tracks=(
            BlobTrack(0, {0: BlobParams(20, 20, 8, 5, 0.2), 8: BlobParams(40, 28, 8, 5, 0.2)},
                      {0: "a red ball"}),
            BlobTrack(1, {4: BlobParams(48, 44, 6, 6, 0.0)})))))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "video.json"
            path.write_text(data.draw(mutated_documents(doc)))
            for grid in _MASK_GRIDS:
                doc = assert_output_or_one_error_line(
                    ["mask", str(path), "--out-dir", str(Path(tmp) / "masks"),
                     "--feature-h", str(grid), "--feature-w", str(grid)])
                assert doc is None or "written" in doc

    @pytest.mark.parametrize("key, value", [
        ("width", 10**400), ("cx", 10**400), ("num_frames", 10**30), ("a", _HUGE_INT),
    ], ids=["width-beyond-floats", "cx-beyond-floats", "frames-beyond-len", "digits-beyond-int"])
    def test_out_of_range_integers_are_one_error_line(self, tmp_path, capsys, key, value):
        # Each once escaped as OverflowError or ValueError. num_frames needs
        # no tracks, so that densify lets it through to the raster budget.
        doc = {"version": 1, "width": 64, "height": 64, "num_frames": 3, "anchor_interval": 4,
               "tracks": [{"id": 0, "params": {"0": [20, 20, 8, 5, 0.2]}}]}
        if key in ("cx", "a"):
            doc["tracks"][0]["params"]["0"][{"cx": 0, "a": 2}[key]] = value
        else:
            doc[key] = value
        if key == "num_frames":
            doc["tracks"] = []
        path = tmp_path / "video.json"
        path.write_text(json.dumps(doc).replace(json.dumps(_HUGE_INT), _HUGE_INT))
        for grid in ("16", "256"):
            code, out, err = run_cli(capsys, ["mask", str(path), "--out-dir",
                                              str(tmp_path / "m"), "--feature-h", grid,
                                              "--feature-w", grid])
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error:")


# Header tokens a PGM mutation writes: numbers around the valid range, huge
# ones (one with more digits than int() reads), signs, exponents, hex,
# non-ASCII digits and nothing.
_PGM_TOKENS = (st.integers(-2, 40).map(lambda i: str(i).encode())
               | st.sampled_from([b"255", b"256", b"65535", b"0", b"01", b"+3", b"3.0", b"1e1",
                                  b"0x10", b"", b"99999999999", _HUGE_INT.encode(),
                                  "\u0663".encode()])
               | st.binary(max_size=3))
_PGM_SPACES = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"  ", b"", b"\n# note\n",
                               b"# note\n", b" # no newline"])


@st.composite
def mutated_pgms(draw):
    """A valid mask PGM of a seeded blob, as bytes, after 1-4 mutations of
    its magic, width, height, maxval, separators and comments, payload
    length or pixel values (including an all-zero mask)."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    bits = rasterize(BlobParams(w / 2, h / 2, w / 3 + 0.5, h / 4 + 0.5, 0.3),
                     FrameGeometry(w, h), h, w).bits
    fields = {"magic": b"P5", "width": str(w).encode(), "height": str(h).encode(),
              "maxval": b"255"}
    spaces = [b"\n", b" ", b"\n", b"\n"]
    payload = bytes((bits.ravel() * 255).astype(np.uint8))
    for _ in range(draw(st.integers(1, 4))):
        part = draw(st.sampled_from(["magic", "width", "height", "maxval", "space",
                                     "length", "pixels"]))
        if part == "magic":
            fields[part] = draw(st.sampled_from([b"P2", b"P6", b"p5", b"P5x", b""])
                                | st.binary(max_size=3))
        elif part in fields:
            fields[part] = draw(_PGM_TOKENS)
        elif part == "space":
            spaces[draw(st.integers(0, 3))] = draw(_PGM_SPACES)
        elif part == "length":
            size = max(0, len(payload) + draw(st.integers(-3, 3)))
            payload = (payload * 2)[:size]
        else:
            payload = draw(st.sampled_from([bytes(len(payload)), b"\xff" * len(payload)])
                           | st.binary(min_size=len(payload), max_size=len(payload)))
    head = [fields["magic"], fields["width"], fields["height"], fields["maxval"]]
    return b"".join(x for pair in zip(head, spaces) for x in pair) + payload


class TestFitRobustness:
    @settings(max_examples=200, deadline=None)
    @given(mutated_pgms())
    def test_mutated_pgm_is_fitted_or_one_error_line(self, pgm):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mask.pgm"
            path.write_bytes(pgm)
            try:  # only BlobvidError may escape the reader and the fit
                mask = read_mask_pgm(path)
                fit_ellipse(mask, FrameGeometry(mask.w, mask.h), max_iter=20)
            except BlobvidError:
                pass
            doc = assert_output_or_one_error_line(["fit", str(path), "--max-iter", "20"])
        assert doc is None or len(doc["params"]) == 5

    def test_all_zero_mask_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 3\n255\n" + bytes(12))
        code, out, err = run_cli(capsys, ["fit", str(path)])
        assert code == 1 and out == ""
        assert err == "error: cannot initialize from an empty mask\n"

    @pytest.mark.parametrize("field, offset", [("width", 3), ("height", 5), ("maxval", 7)])
    def test_header_integer_beyond_int_is_one_error_line(self, tmp_path, capsys, field, offset):
        # Once escaped as ValueError: int() reads at most 4,300 digits.
        header = {"width": b"4", "height": b"3", "maxval": b"255"}
        header[field] = _HUGE_INT.encode()
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n%s %s\n%s\n" % tuple(header.values()) + b"\xff" * 12)
        code, out, err = run_cli(capsys, ["fit", str(path)])
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: header field of 5001 digits is too large (byte offset {offset})"]


_DETS_DOC = {"frames": [
    {"frame": 0, "detections": [{"bbox": [1, 0, 11, 10], "confidence": 0.9},
                                {"bbox": [19.5, 0, 29, 10.25], "confidence": 0.8}]},
    {"frame": 2, "detections": [{"bbox": [0, 0, 4, 4]}]}]}
_GT_DOC = {"frames": [
    {"frame": 0, "objects": [{"id": 0, "bbox": [0, 0, 10, 10]},
                             {"id": 1, "bbox": [20, 0, 30, 10]}]},
    {"frame": 2, "objects": [{"id": 0, "bbox": [1, 1, 5, 5.5]}]}]}
_MANIFEST_DOC = {"embeddings": [
    {"object": 0, "frame": 0, "kind": "caption", "path": "cap.bin"},
    {"object": 0, "frame": 0, "kind": "generated", "path": "gen0.bin"},
    {"object": 0, "frame": 1, "kind": "generated", "path": "gen1.bin"},
    {"object": 0, "frame": 0, "kind": "ground_truth", "path": "gen1.bin"}]}
_CONFIG_DOC = {"feature_h": 6, "feature_w": 6, "rescale": 1.0, "fourier_freqs": 8, "seed": 1,
               "interp_method": "linear", "interp_orientation": "as_printed"}
# Texts a BLOBVID_* variable may hold: numbers at and beyond the float
# range, subnormals, non-numbers, choices and junk. Only what an environment
# can hold: os.environ refuses NUL (C strings) and text UTF-8 cannot encode.
_ENV_TEXTS = (st.sampled_from(["1e308", "-1e308", "1e309", "5e-324", "-5e-324", "nan", "inf",
                               "-inf", "0", "-1", "1.5", "10" * 200, _HUGE_INT, "", " 7 ",
                               "linear", "slerp", "standard", "as_printed", "True"])
              | st.integers().map(str) | st.floats().map(repr)
              | st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=4))
# f32le payloads: finite, huge, subnormal, NaN and infinite values, or a
# length that disagrees with the sidecar.
_F32 = st.floats(width=32) | st.sampled_from([3.4e38, -3.4e38, 1e-45, 0.0, math.nan, math.inf])


class TestMetricsRobustness:
    @settings(max_examples=150, deadline=5000)
    @given(st.data())
    def test_mutated_boxes_are_scored_or_one_error_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            for name, doc in (("dets.json", _DETS_DOC), ("gt.json", _GT_DOC)):
                text = json.dumps(doc)
                if data.draw(st.booleans(), label=f"mutate {name}"):
                    text = data.draw(mutated_documents(json.loads(text)), label=name)
                (Path(tmp) / name).write_text(text)
            try:  # only BlobvidError may escape the loader and the matching
                with _time_limit(10):
                    evals = metrics.load_frame_evals(Path(tmp) / "dets.json",
                                                     Path(tmp) / "gt.json")
                    for method in ("hungarian", "greedy"):
                        for ev in evals:
                            for _, iou in metrics.match_detections(
                                    ev.detections, [b for _, b in ev.ground_truth],
                                    method).pairs:
                                assert 0.0 <= iou <= 1.0
            except BlobvidError:
                pass
            for match in ("hungarian", "greedy"):
                doc = assert_output_or_one_error_line([
                    "metrics", "miou", "--detections", str(Path(tmp) / "dets.json"),
                    "--ground-truth", str(Path(tmp) / "gt.json"), "--match", match])
                if doc is not None:
                    assert 0.0 <= doc["value"] <= 1.0

    @settings(max_examples=150, deadline=5000)
    @given(st.data())
    def test_mutated_manifest_and_sidecars_are_scored_or_one_error_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, row in (("cap.bin", [1.0, 0.0, 0.5]), ("gen0.bin", [0.5, 0.5, 0.0]),
                              ("gen1.bin", [0.0, 1.0, 1e-30])):
                write_embedding(tmp / name, np.array([row]))
            manifest = json.dumps(_MANIFEST_DOC)
            target = data.draw(st.sampled_from(["manifest", "sidecar", "payload"]))
            if target == "manifest":
                manifest = data.draw(mutated_documents(json.loads(manifest)))
            elif target == "sidecar":
                sidecar = tmp / (data.draw(st.sampled_from(["cap", "gen0", "gen1"])) + ".bin.json")
                sidecar.write_text(data.draw(mutated_documents(json.loads(sidecar.read_text()))))
            else:
                values = data.draw(st.lists(_F32, max_size=5))
                (tmp / data.draw(st.sampled_from(["cap.bin", "gen0.bin", "gen1.bin"]))).write_bytes(
                    np.array(values, dtype="<f4").tobytes())
            (tmp / "manifest.json").write_text(manifest)
            for mode in ("rclip_t", "rclip_i", "rcfc"):
                doc = assert_output_or_one_error_line(
                    ["metrics", mode, "--embeddings", str(tmp / "manifest.json")])
                if doc is not None:
                    assert -1.0 - 1e-12 <= doc["value"] <= 1.0 + 1e-12


class TestConfigRobustness:
    @settings(max_examples=150, deadline=5000)
    @given(st.data())
    def test_mutated_config_and_variables_run_or_one_error_line(self, data):
        names = [f.name for f in dataclasses.fields(Config)]
        env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
        env.update({ENV_PREFIX + name.upper(): data.draw(_ENV_TEXTS, label=name)
                    for name in data.draw(st.lists(st.sampled_from(names), unique=True,
                                                   max_size=3))})
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "config.json").write_text(data.draw(mutated_documents(dict(_CONFIG_DOC)))
                                             if data.draw(st.booleans()) else
                                             json.dumps(_CONFIG_DOC))
            (tmp / "video.json").write_text(video_to_json(BlobVideo(2, FrameGeometry(64, 64), tracks=(
                BlobTrack(0, {0: BlobParams(20, 20, 8, 5, 0.2), 1: BlobParams(30, 24, 8, 5, 0.2)},
                          {0: "a red ball"}),))))
            with mock.patch.dict(os.environ, env, clear=True):
                try:  # only BlobvidError may escape loading the config
                    load_config(str(tmp / "config.json"))
                except BlobvidError:
                    pass
                doc = assert_output_or_one_error_line(
                    ["mask", str(tmp / "video.json"), "--out-dir", str(tmp / "m"),
                     "--frames", "0", "--config", str(tmp / "config.json")])
        if doc is not None:
            assert "written" in doc


class TestBadFramesAndFiles:
    @pytest.mark.parametrize("command, frames", [("mask", "999"), ("render", "-1"),
                                                 ("render", "0,9")],
                             ids=["mask-999", "render-minus-1", "render-one-bad-of-two"])
    def test_frame_out_of_range_writes_nothing(self, tmp_path, video_file, capsys, command,
                                               frames):
        code, out, err = run_cli(capsys, [command, str(video_file), "--out-dir",
                                          str(tmp_path / "out"), "--frames", frames])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "outside [0, 9)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["mask", "v.json", "--out-dir", "m", "--frames", "a"],
        ["render", "v.json", "--out-dir", "r", "--frames", "0,x"],
        ["metrics", "miou", "--frames", "x"],
    ], ids=["mask", "render", "metrics"])
    def test_frames_not_integers_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--frames" in capsys.readouterr().err

    @pytest.mark.parametrize("frames, detail", [
        (",", "expected at least one frame index, got ','"),
        ("0,4,0", "expected each frame index once, got '0,4,0'"),
    ], ids=["empty", "repeated"])
    @pytest.mark.parametrize("argv", [
        ["mask", "v.json", "--out-dir", "m"],
        ["render", "v.json", "--out-dir", "r"],
        ["metrics", "miou", "--detections", "d.json", "--ground-truth", "g.json"],
    ], ids=["mask", "render", "metrics"])
    def test_empty_or_repeated_frames_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       argv, frames, detail):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--frames", frames])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --frames: {detail}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("header", [b"P5\nab 3\n255\n", b"P5\n-3 -3\n255\n"],
                             ids=["letters", "negative"])
    def test_fit_bad_pgm_header(self, tmp_path, capsys, header):
        path = tmp_path / "m.pgm"
        path.write_bytes(header + b"\x00" * 9)
        code, out, err = run_cli(capsys, ["fit", str(path)])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "byte offset 3" in err

    @pytest.mark.parametrize("body, detail", [
        (b'{"version": 1, "caption": "\xff"}', "not UTF-8 text (byte offset 27)"),
        (b'{"version": 1,}', "not valid JSON: Expecting property name enclosed in double quotes"
                            " (byte offset 14)"),
    ], ids=["not-utf8", "not-json"])
    @pytest.mark.parametrize("command", [
        ["validate"], ["mask", "--out-dir", "m"], ["render", "--out-dir", "r"], ["attend"],
    ], ids=["validate", "mask", "render", "attend"])
    def test_bad_video_file_names_it_and_the_byte_offset(self, tmp_path, capsys, body, detail,
                                                         command):
        path = tmp_path / "video.json"
        path.write_bytes(body)
        code, out, err = run_cli(capsys, [command[0], str(path), *command[1:]])
        assert code == 1 and out == ""
        assert err == f"error: {path}: {detail}\n"


# One valid argument list per command, without --threads.
_NO_CONFIG_ARGVS = [
    ["fit", "m.pgm"],
    ["interp", "--p1", "1", "1", "2", "1", "0", "--p2", "1", "1", "2", "1", "0",
     "--alpha", "0.5"],
    ["validate", "v.json"],
    ["metrics", "miou", "--detections", "d.json", "--ground-truth", "g.json"],
]
_CONFIG_ARGVS = {
    "mask": ["mask", "v.json", "--out-dir", "m"],
    "render": ["render", "v.json", "--out-dir", "r"],
    "attend": ["attend", "v.json"],
    "gradcheck": ["gradcheck"],
}


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "rclip_q"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        *[pytest.param(argv, flag, id=f"{argv[0]}-flag{i}")
          for argv in _NO_CONFIG_ARGVS
          for i, flag in enumerate([["--seed", "1"], ["--config", "x.json"]])],
        # A command that loads a Config takes no flag for a field it does not read.
        *[pytest.param(_CONFIG_ARGVS[command], [_flag(f.name), str(f.default)],
                       id=f"{command}-{_flag(f.name)[2:]}")
          for command, reads in cli._CONFIG_READS.items()
          for f in dataclasses.fields(Config) if f.name not in reads],
    ])
    def test_config_flags_only_where_a_config_is_read(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
        assert build_parser().parse_args(argv + ["--threads", "2"]).threads == 2

    def test_readme_cli_examples_parse(self, capsys):
        # A flag dropped from a command cannot stay in README's CLI examples.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("blobvid ")]
        assert len(lines) == 9
        for line in lines:
            try:
                build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README example refused: {line}\n{capsys.readouterr().err}")

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    @pytest.mark.parametrize("argv", [*_NO_CONFIG_ARGVS, *_CONFIG_ARGVS.values()],
                             ids=lambda argv: argv[0])
    def test_threads_below_one_is_a_usage_error(self, capsys, argv, threads):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--threads", threads])
        assert exc.value.code == 2
        assert "--threads: expected a thread count of at least 1" in capsys.readouterr().err
        assert build_parser().parse_args(argv + ["--threads", "1"]).threads == 1


# Runs each argv through cli.main in a fresh interpreter, then prints which of
# the named modules, or modules under them, that interpreter has loaded.
_LOADED = """
import json, sys
import blobvid, blobvid.cli
for argv in json.loads(sys.argv[1]):
    assert blobvid.cli.main(argv) == 0, argv
names = json.loads(sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules
                        if any(m == n or m.startswith(n + ".") for n in names))))
"""


def _loaded(commands, cwd, names):
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(commands),
                           json.dumps(names)],
                          capture_output=True, text=True, cwd=cwd, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# What only attend and gradcheck run.
_ATTENTION_STACK = ["blobvid.attention", "blobvid.embedding", "blobvid.gradcheck",
                    "blobvid.pipeline", "concurrent.futures"]


def _light_commands(tmp_path, video_file):
    mask = rasterize(BlobParams(16, 16, 8, 5, 0.3), FrameGeometry(32, 32), 32, 32)
    (tmp_path / "dets.json").write_text(json.dumps(_DETS))
    (tmp_path / "gt.json").write_text(json.dumps(_GT))
    return [
        ["validate", str(video_file)],
        ["interp", "--p1", "10", "10", "5", "3", "0", "--p2", "20", "20", "5", "3", "0",
         "--alpha", "0.5"],
        ["mask", str(video_file), "--out-dir", "masks", "--frames", "0"],
        ["render", str(video_file), "--out-dir", "render", "--frames", "0"],
        ["fit", str(write_mask_pgm(tmp_path, 0, 0, mask))],
        ["metrics", "miou", "--detections", "dets.json", "--ground-truth", "gt.json"],
    ]


def _attend(video_file):
    return ["attend", str(video_file), "--dim", "8", "--tokens", "2",
            "--feature-h", "6", "--feature-w", "6"]


class TestStartup:
    def test_commands_without_scipy_do_not_load_it(self, tmp_path, video_file):
        commands = _light_commands(tmp_path, video_file)
        commands += [_attend(video_file), ["gradcheck", "--instances", "1"]]
        assert _loaded(commands, tmp_path, ["scipy"]) == []

    def test_light_commands_do_not_load_the_attention_stack(self, tmp_path, video_file):
        assert _loaded(_light_commands(tmp_path, video_file), tmp_path, _ATTENTION_STACK) == []
        assert "blobvid.attention" in _loaded([_attend(video_file)], tmp_path, _ATTENTION_STACK)

    def test_layout_commands_do_not_load_numpy(self, tmp_path, video_file):
        # validate, interp and metrics miou do no array math; a bare import of
        # the package and the CLI module loads nothing of it either.
        commands = [argv for argv in _light_commands(tmp_path, video_file)
                    if argv[0] in ("validate", "interp", "metrics")]
        assert len(commands) == 3
        assert _loaded([], tmp_path, ["numpy"]) == []
        assert _loaded(commands, tmp_path, ["numpy"]) == []
        assert "numpy" in _loaded([_attend(video_file)], tmp_path, ["numpy"])

    @pytest.mark.parametrize("grid, threads, loads_numpy", [
        (24, "1", False), (24, "2", False), (512, "1", True),
    ], ids=["below-the-window-cell-limit", "below-it-on-2-threads", "above-it"])
    def test_mask_loads_numpy_only_for_large_windows(self, tmp_path, video_file, grid, threads,
                                                     loads_numpy):
        argv = ["mask", str(video_file), "--out-dir", "masks", "--threads", threads,
                "--feature-h", str(grid), "--feature-w", str(grid)]
        assert ("numpy" in _loaded([argv], tmp_path, ["numpy"])) == loads_numpy

    def test_fit_still_loads_the_optimizer(self, tmp_path, capsys, monkeypatch):
        # fit runs the package's own Nelder-Mead, not a shortcut around it.
        import blobvid.fitting as fitting
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return nelder_mead(*args, **kwargs)

        nelder_mead = fitting._nelder_mead
        monkeypatch.setattr(fitting, "_nelder_mead", counted)
        mask = rasterize(BlobParams(16, 16, 8, 5, 0.3), FrameGeometry(32, 32), 32, 32)
        code, _, err = run_cli(capsys, ["fit", str(write_mask_pgm(tmp_path, 0, 0, mask))])
        assert code == 0, err
        assert calls

    def test_miou_still_loads_the_optimizer(self, tmp_path, capsys, monkeypatch):
        # metrics miou's default match runs the package's own optimal assignment.
        import blobvid.metrics as metrics
        calls = []

        def counted(cost):
            calls.append(1)
            return assignment(cost)

        assignment = metrics._min_cost_assignment
        monkeypatch.setattr(metrics, "_min_cost_assignment", counted)
        (tmp_path / "dets.json").write_text(json.dumps(_DETS))
        (tmp_path / "gt.json").write_text(json.dumps(_GT))
        code, _, err = run_cli(capsys, ["metrics", "miou",
                                        "--detections", str(tmp_path / "dets.json"),
                                        "--ground-truth", str(tmp_path / "gt.json")])
        assert code == 0, err
        assert calls

    def test_package_imports_nothing_third_party_but_numpy(self):
        # Every import statement, function-local ones included, of every module.
        package = Path(blobvid.__file__).resolve().parent
        outside = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                outside.update((path.name, name) for name in names
                               if name.split(".")[0] not in sys.stdlib_module_names)
        assert {name.split(".")[0] for _, name in outside} == {"numpy"}, sorted(outside)
