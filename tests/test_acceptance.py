"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with -s (or -rP) to see the report lines. Every test re-derives its
expected values from independent references (explicit logit matrices,
permutation search, per-pixel loops, unpacked label sets) rather than from
the code under test.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import blobvid
from blobvid.attention import (
    CrossAttnWeights,
    SelfAttnWeights,
    masked_3d_self_attention,
    masked_cross_attention,
)
from blobvid.blobs import BinaryMask, BlobParams, FrameGeometry, mask_iou, rasterize
from blobvid.embedding import EmbeddingSeq, interp_weights
from blobvid.exemplars import EXEMPLAR_1_LAYOUT, EXEMPLAR_2_LAYOUT
from blobvid.fitting import fit_ellipse, moments_init
from blobvid.gradcheck import run_gradcheck
from blobvid.labelfield import (
    AttnMask3D,
    LabelField,
    build_label_field,
    per_frame_masks,
)
from blobvid.layout import densify_layout, parse_layout, serialize_layout_doc
from blobvid.metrics import BBox, bbox_iou, match_detections
from blobvid.pnm import write_mask_pgm
from blobvid.video import BlobTrack, BlobVideo, video_to_json

from conftest import (
    angle_mean_reference,
    cross_attention_reference,
    plan_matrix,
    random_canonical_blob,
    self_attention_reference,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_1_attention_matches_dense_oracles():
    t_start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n_blobs = int(rng.integers(1, 4))
        L = int(rng.integers(1, 5))
        s = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        d_g = int(rng.integers(2, 17))
        g = rng.standard_normal((s * s, d_g))
        blob_arrays = [rng.standard_normal((L, d)) for _ in range(n_blobs)]
        bits = [rng.random((s, s)) < 0.6 for _ in range(n_blobs)]
        wts = CrossAttnWeights.seeded(n_blobs, d, d_g, seed=int(rng.integers(1 << 30)))
        got, _ = masked_cross_attention(
            g, [EmbeddingSeq(x) for x in blob_arrays], [BinaryMask(b) for b in bits], wts
        )
        want = cross_attention_reference(g, blob_arrays, bits, wts.wq, list(wts.wk), list(wts.wv))
        worst = max(worst, float(np.abs(got - want).max()))
    for _ in range(50):
        T = int(rng.integers(1, 5))
        s = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        n = T * s * s
        n_labels = int(rng.integers(2, 5))
        label_sets = [
            frozenset(rng.choice(n_labels, size=int(rng.integers(1, n_labels + 1)),
                                 replace=False).tolist())
            for _ in range(n)
        ]
        field = LabelField.from_label_sets(T, s, s, n_labels, label_sets)
        g = rng.standard_normal((n, d))
        wts = SelfAttnWeights.seeded(d, seed=int(rng.integers(1 << 30)))
        got, _ = masked_3d_self_attention(g, AttnMask3D(field), wts)
        want = self_attention_reference(g, label_sets, wts.wq, wts.wk, wts.wv)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - t_start
    _report(1, "cross and 3d self-attention match dense references",
            worst < 1e-6 and elapsed < 10.0,
            f"max abs err {worst:.3e}, {elapsed:.1f}s over 50+50 instances")


def test_2_analytic_gradients_match_finite_differences():
    t_start = time.perf_counter()
    report = run_gradcheck(seed=2026, instances=20, step=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - t_start
    ops_covered = set(report.per_op) == {
        "masked_cross_attention", "masked_3d_self_attention", "gated_fuse", "blob_embed",
    }
    _report(2, "analytic backward passes match central differences",
            report.passed and report.max_rel_err < 1e-4 and ops_covered and elapsed < 60.0,
            f"max rel err {report.max_rel_err:.3e}, {elapsed:.1f}s, 20 instances per op")


def _label_matrix(field: LabelField) -> np.ndarray:
    # Independent unpacking of the bitsets into a (size, n_labels) bool matrix.
    bits = np.unpackbits(field.bits, axis=1, bitorder="little")
    return bits[:, : field.n_labels].astype(bool)


def test_3_implicit_pair_mask_equals_dense_materialization():
    rng = np.random.default_rng(303)
    instances = []
    for T, s, n_labels, empty in ((1, 4, 3, 0.0), (2, 8, 4, 0.0), (4, 16, 5, 0.0),
                                  (4, 32, 11, 0.0), (2, 8, 4, 0.25)):
        n = T * s * s
        sets = [
            frozenset() if rng.random() < empty else
            frozenset(rng.choice(n_labels, size=int(rng.integers(1, 4)),
                                 replace=False).tolist())
            for _ in range(n)
        ]
        instances.append(LabelField.from_label_sets(T, s, s, n_labels, sets))
    video = BlobVideo(4, FrameGeometry(64, 64), 1, tuple(
        BlobTrack(i, {t: random_canonical_blob(rng, FrameGeometry(64, 64), min_axis=6.0)
                      for t in range(4)}, {})
        for i in range(2)
    ))
    instances.append(build_label_field(video, 8, 8))

    ok = True
    empty_rows = gathered_runs = 0
    for field in instances:
        assert field.size <= 4096
        labels = _label_matrix(field)
        expected = (labels.astype(np.int64) @ labels.T.astype(np.int64)) > 0
        nonempty = labels.any(axis=1)
        empty_rows += int((~nonempty).sum())
        dense, blocks_per_row, gathered = plan_matrix(field)
        gathered_runs += gathered
        ok &= np.array_equal(dense, expected)
        ok &= np.array_equal(dense, dense.T)
        ok &= np.array_equal(np.diag(dense), nonempty)
        # Every position with a label is a row of exactly one block; a
        # position with an empty label set is in none.
        ok &= np.array_equal(blocks_per_row, nonempty.astype(np.int64))

    # Sharing a label is not transitive: 0~1 and 1~2 but 0 and 2 are blocked.
    counter, _, _ = plan_matrix(LabelField.from_label_sets(1, 1, 3, 2, [{0}, {0, 1}, {1}]))
    ok &= counter[0, 1] and counter[1, 2] and not counter[0, 2]
    ok &= empty_rows > 0 and gathered_runs > 0
    _report(3, "the 3D ops' pair mask == dense label product, symmetric, allowed diagonal,"
               " empty label sets in no block, non-transitive", ok,
            f"{len(instances)} fields up to {max(f.size for f in instances)} positions,"
            f" {empty_rows} empty label sets, {gathered_runs} packed runs over some keys")


def test_4_ellipse_fit_recovers_synthetic_blobs():
    t_start = time.perf_counter()
    rng = np.random.default_rng(404)
    geom = FrameGeometry(64, 64)
    recovered = 0
    never_below_init = True
    for _ in range(100):
        blob = random_canonical_blob(rng, geom, min_axis=4.0)
        mask = rasterize(blob, geom, 64, 64)
        init_iou = mask_iou(rasterize(moments_init(mask, geom), geom, 64, 64), mask)
        result = fit_ellipse(mask, geom)
        recovered += result.iou >= 0.9
        never_below_init &= result.iou >= init_iou
    elapsed = time.perf_counter() - t_start
    _report(4, "fit reaches IOU >= 0.9 on >= 95/100 blobs, never below moment init",
            recovered >= 95 and never_below_init and elapsed < 120.0,
            f"{recovered}/100 recovered, {elapsed:.1f}s")


def test_5_anchor_weight_exactness():
    rng = np.random.default_rng(505)
    e1 = rng.standard_normal((3, 5))
    e2 = rng.standard_normal((3, 5))
    t0, k = 16, 8
    t1 = t0 + k
    ok = True

    # Endpoints reproduce the anchors bitwise in both weight orientations.
    ok &= interp_weights(t0, k, t_anchor=t0, orientation="standard") == (1.0, 0.0)
    ok &= interp_weights(t1, k, t_anchor=t0, orientation="standard") == (0.0, 1.0)
    ok &= interp_weights(t0, k, t_anchor=t0, orientation="as_printed") == (0.0, 1.0)
    ok &= interp_weights(t1, k, t_anchor=t0, orientation="as_printed") == (1.0, 0.0)
    for orientation, at_t0, at_t1 in (("standard", e1, e2), ("as_printed", e2, e1)):
        w_lo = interp_weights(t0, k, t_anchor=t0, orientation=orientation)
        w_hi = interp_weights(t1, k, t_anchor=t0, orientation=orientation)
        ok &= np.array_equal(w_lo[0] * e1 + w_lo[1] * e2, at_t0)
        ok &= np.array_equal(w_hi[0] * e1 + w_hi[1] * e2, at_t1)

    # Interior weights sum to exactly 1 at the default anchor interval k = 8.
    for orientation in ("standard", "as_printed"):
        for t in range(t0 + 1, t1):
            w = interp_weights(t, k, t_anchor=t0, orientation=orientation)
            ok &= w[0] + w[1] == 1.0

    # Midpoint equals the elementwise mean.
    w = interp_weights(t0 + 4, k, t_anchor=t0)
    ok &= w == (0.5, 0.5)
    mid_err = float(np.abs((w[0] * e1 + w[1] * e2) - (e1 + e2) / 2.0).max())
    ok &= mid_err <= 1e-12
    _report(5, "anchor weights: exact endpoints, unit sums at k=8, exact midpoint",
            ok, f"midpoint err {mid_err:.1e}")


def _params_as_strings(text: str):
    # Numeric literals kept verbatim, so byte-stability is literal equality.
    doc = json.loads(text, parse_float=str, parse_int=str)
    return {
        frame: {obj: body["blob"] for obj, body in objs.items()}
        for frame, objs in doc.items()
    }


def _angle_gap(x: float, y: float) -> float:
    d = abs(x - y) % math.pi
    return min(d, math.pi - d)


def test_6_bundled_layout_roundtrip_and_densify():
    ok = True
    doc1 = parse_layout(EXEMPLAR_1_LAYOUT)
    doc2 = parse_layout(EXEMPLAR_2_LAYOUT)
    ok &= doc1.frames[0]["2"].blob == (443, 252, 102, 72, -2.353)
    for text, doc in ((EXEMPLAR_1_LAYOUT, doc1), (EXEMPLAR_2_LAYOUT, doc2)):
        ok &= _params_as_strings(text) == _params_as_strings(serialize_layout_doc(doc))

    v = densify_layout(doc1, 13, FrameGeometry(720, 480))
    ok &= all(set(track.params) == set(range(13)) for track in v.tracks)
    worst_lin = 0.0
    worst_ang = 0.0
    for track in v.tracks:
        for t in range(1, 12, 2):
            lo, mid, hi = track.params[t - 1], track.params[t], track.params[t + 1]
            for f in ("cx", "cy", "a", "b"):
                worst_lin = max(worst_lin, abs(
                    getattr(mid, f) - (getattr(lo, f) + getattr(hi, f)) / 2.0
                ))
            worst_ang = max(worst_ang, _angle_gap(
                mid.theta, angle_mean_reference(lo.theta, hi.theta)
            ))
    ok &= worst_lin <= 1e-9 and worst_ang <= 1e-9
    _report(6, "bundled layouts parse, re-serialize byte-stable, densify to midpoints",
            ok, f"midpoint err {worst_lin:.1e}, angle err {worst_ang:.1e}")


def test_7_matching_equals_exhaustive_permutation_search():
    t_start = time.perf_counter()
    rng = np.random.default_rng(707)
    ok = True
    worst = 0.0
    for _ in range(500):
        n_det = int(rng.integers(1, 7))
        n_gt = int(rng.integers(1, 7))
        dets = []
        for _ in range(n_det):
            x0, y0 = rng.uniform(0, 40, size=2)
            dets.append(BBox(x0, y0, x0 + rng.uniform(1, 20), y0 + rng.uniform(1, 20),
                             confidence=float(rng.uniform(0, 1))))
        gts = []
        for _ in range(n_gt):
            x0, y0 = rng.uniform(0, 40, size=2)
            gts.append(BBox(x0, y0, x0 + rng.uniform(1, 20), y0 + rng.uniform(1, 20)))
        kept = sorted(range(n_det), key=lambda i: -dets[i].confidence)[:n_gt]
        iou = np.array([[bbox_iou(dets[i], g) for g in gts] for i in kept])
        k = min(len(kept), n_gt)
        best = 0.0
        for rows in itertools.permutations(range(len(kept)), k):
            for cols in itertools.combinations(range(n_gt), k):
                best = max(best, sum(iou[r, c] for r, c in zip(rows, cols)))
        got = sum(match_detections(dets, gts).per_gt_iou)
        worst = max(worst, abs(got - best))
        ok &= abs(got - best) <= 1e-12
    elapsed = time.perf_counter() - t_start
    _report(7, "assignment equals permutation search on 500 instances with <= 6 GT",
            ok and elapsed < 5.0, f"max total gap {worst:.1e}, {elapsed:.1f}s")


def test_8_masks_partition_cover_and_bitset_memory_bound():
    rng = np.random.default_rng(808)
    geom = FrameGeometry(64, 64)
    ok = True
    for _ in range(100):
        T = int(rng.integers(1, 5))
        s = int(rng.integers(4, 17))
        n_tracks = int(rng.integers(1, 5))
        v = BlobVideo(T, geom, 1, tuple(
            BlobTrack(i, {t: random_canonical_blob(rng, geom, min_axis=2.0)
                          for t in range(T)}, {})
            for i in range(n_tracks)
        ))
        for t in range(T):
            masks, bg = per_frame_masks(v, t, s, s)
            union = np.zeros((s, s), dtype=bool)
            for m in masks:
                union |= m.bits
                ok &= not np.any(m.bits & bg.bits)
            ok &= np.all(union | bg.bits)

    big = BlobVideo(16, geom, 1, tuple(
        BlobTrack(i, {t: random_canonical_blob(rng, geom, min_axis=2.0)
                      for t in range(16)}, {})
        for i in range(10)
    ))
    field = build_label_field(big, 32, 32)
    nbytes = field.bits.nbytes
    ok &= nbytes == 16 * 32 * 32 * 2  # 11 labels -> 2 bytes per position
    ok &= nbytes < 40 * 1024
    _report(8, "object + background masks cover the grid; label field fits bitset bound",
            ok, f"label field {nbytes} bytes for N=10, T=16, 32x32")


def _run_cli(args, cwd):
    # The child runs in a tmp cwd, where a relative PYTHONPATH such as
    # "src" resolves to nothing; put the directory the parent imported
    # blobvid from in front, so the child runs the same source.
    src = str(Path(blobvid.__file__).resolve().parent.parent)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "blobvid", *args],
        capture_output=True, cwd=cwd, env=env, timeout=300,
    )
    assert proc.returncode == 0, f"{args}: {proc.stderr.decode()}"
    return proc.stdout


def _hash_tree(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_9_cli_subcommands_deterministic(tmp_path):
    geom = FrameGeometry(64, 64)
    v = BlobVideo(9, geom, 4, (
        BlobTrack(0, {0: BlobParams(20, 20, 8, 5, 0.2),
                      4: BlobParams(30, 24, 8, 5, 0.2),
                      8: BlobParams(40, 28, 8, 5, 0.2)},
                  {0: "a red ball", 8: "a red ball, further right"}),
        BlobTrack(1, {0: BlobParams(48, 48, 6, 6, 0.0),
                      4: BlobParams(48, 44, 6, 6, 0.0),
                      8: BlobParams(48, 40, 6, 6, 0.0)}, {4: "a blue box"}),
    ))
    video = tmp_path / "video.json"
    video.write_text(video_to_json(v))
    mask_path = write_mask_pgm(tmp_path, 0, 0, rasterize(BlobParams(32, 30, 12, 7, 0.4),
                                                         geom, 64, 64))
    (tmp_path / "dets.json").write_text(json.dumps({"frames": [
        {"frame": 0, "detections": [{"bbox": [1, 0, 11, 10], "confidence": 0.9}]},
    ]}))
    (tmp_path / "gt.json").write_text(json.dumps({"frames": [
        {"frame": 0, "objects": [{"id": 0, "bbox": [0, 0, 10, 10]}]},
    ]}))
    from blobvid.embedding import write_embedding
    write_embedding(tmp_path / "cap.bin", np.array([[1.0, 0.0, 0.5]]))
    write_embedding(tmp_path / "gen.bin", np.array([[0.9, 0.1, 0.4]]))
    (tmp_path / "manifest.json").write_text(json.dumps({"embeddings": [
        {"object": 0, "frame": 0, "kind": "caption", "path": "cap.bin"},
        {"object": 0, "frame": 0, "kind": "generated", "path": "gen.bin"},
    ]}))

    def commands(threads: int):
        # Output paths are relative; each run gets its own working directory
        # so stdout stays byte-comparable across runs.
        t = str(threads)
        return {
            "fit": ["fit", str(mask_path), "--threads", t],
            "interp": ["interp", "--p1", "10", "10", "5", "3", "0",
                       "--p2", "20", "20", "5", "3", "1.2", "--alpha", "0.25",
                       "--threads", t],
            "mask": ["mask", str(video), "--out-dir", "masks",
                     "--feature-h", "16", "--feature-w", "16", "--threads", t],
            "render": ["render", str(video), "--out-dir", "render",
                       "--render-h", "32", "--render-w", "32", "--threads", t],
            "attend": ["attend", str(video), "--dim", "8", "--tokens", "2",
                       "--feature-h", "6", "--feature-w", "6", "--seed", "7",
                       "--out", "features.bin", "--threads", t],
            "validate": ["validate", str(video), "--threads", t],
            "metrics-miou": ["metrics", "miou", "--detections", str(tmp_path / "dets.json"),
                             "--ground-truth", str(tmp_path / "gt.json"), "--threads", t],
            "metrics-rclip": ["metrics", "rclip_t", "--embeddings",
                              str(tmp_path / "manifest.json"), "--threads", t],
            "gradcheck": ["gradcheck", "--instances", "2", "--seed", "7", "--threads", t],
        }

    outputs: dict[tuple[str, str], tuple[bytes, dict]] = {}
    for run, threads in (("a", 1), ("b", 1), ("c", 4)):
        run_dir = tmp_path / f"run_{run}_{threads}"
        run_dir.mkdir(exist_ok=True)
        for name, args in commands(threads).items():
            stdout = _run_cli(args, run_dir)
            outputs[(name, run)] = (stdout, _hash_tree(run_dir))

    ok = True
    diffs = []
    names = sorted({name for name, _ in outputs})
    for name in names:
        a = outputs[(name, "a")]
        b = outputs[(name, "b")]
        c = outputs[(name, "c")]
        ok &= a == b                         # same seed, two runs
        ok &= a[0] == c[0] and a[1] == c[1]  # threads 1 vs 4
        for what, i in (("stdout", 0), ("file tree", 1)):
            if a[i] != b[i]:
                diffs.append(f"{name} {what} differs between reruns")
            if a[i] != c[i]:
                diffs.append(f"{name} {what} differs between threads 1 and 4")
    _report(9, "every CLI subcommand byte-identical across reruns and threads {1,4}",
            ok, "; ".join([f"{len(names)} subcommands x 3 runs", *diffs]))
