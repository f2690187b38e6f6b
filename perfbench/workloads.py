"""Seeded workloads of the blobvid benchmark.

Every workload builds its inputs from the workload seed alone, then runs one
op at a time in a closed loop (one client; the next op starts when the last
one ends). The program only ever sees the generated inputs. Each op's output
is checked; a failed check or an exception is a counted failure and never
stops the run. Outputs are hashed so that two commits can show identical
results for the same seed.

The reason each workload exists is the WHY string beside its class.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from blobvid import attention, fitting, metrics, pipeline
from blobvid.blobs import BlobParams, FrameGeometry, canonicalize, mask_iou, rasterize
from blobvid.config import Config
from blobvid.exemplars import EXEMPLAR_2_LAYOUT
from blobvid.labelfield import AttnMask3D, build_label_field
from blobvid.layout import densify_layout, parse_layout
from blobvid.pnm import write_mask_pgm
from blobvid.video import BlobTrack, BlobVideo, densify, video_to_json

import tracing

# Seed for developing a change, and a second one for checking a claim on
# inputs the change was not tuned on.
DEV_SEED = 0
HELDOUT_SEED = 1

# Op ids of untimed steps whose spans are kept apart from the timed ops.
SCORE_OP = -1
COUNT_OP = -2

ROW_SUM_TOL = 1e-12


class OutputMismatch(Exception):
    """An op returned an output that fails the benchmark's checks."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OutputMismatch(message)


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def random_blob(rng: np.random.Generator, geom: FrameGeometry, min_axis: float = 4.0) -> BlobParams:
    """Random canonical blob drawn as in scripts/fit_recovery.py."""
    cx = rng.uniform(0.15 * geom.width, 0.85 * geom.width)
    cy = rng.uniform(0.15 * geom.height, 0.85 * geom.height)
    a = rng.uniform(min_axis, 0.35 * min(geom.width, geom.height))
    b = rng.uniform(min_axis, a)
    theta = rng.uniform(-math.pi / 2, math.pi / 2)
    return BlobParams(cx, cy, a, b, 0.0 if a == b else theta)


def blob_box(p: BlobParams, confidence: float = 1.0) -> metrics.BBox:
    """Axis-aligned bounding box of a tilted ellipse."""
    hx = math.hypot(p.a * math.cos(p.theta), p.b * math.sin(p.theta))
    hy = math.hypot(p.a * math.sin(p.theta), p.b * math.cos(p.theta))
    return metrics.BBox(p.cx - hx, p.cy - hy, p.cx + hx, p.cy + hy, confidence)


def exemplar_video() -> BlobVideo:
    """The bundled three-track exemplar, densified to 13 frames at 720x480."""
    return densify_layout(parse_layout(EXEMPLAR_2_LAYOUT), 13, FrameGeometry(720, 480))


def label_structure(mask: AttnMask3D) -> dict[str, float]:
    """Input properties a 3D self-attention optimisation may depend on.

    Positions with equal label bitsets form one class; two classes may attend
    to each other iff their bitsets intersect. Computed from the label bits
    directly, so no traced call site runs.
    """
    bits = mask.field.bits
    n = bits.shape[0]
    codes, counts = np.unique(bits, axis=0, return_counts=True)
    meet = (codes[:, None, :] & codes[None, :, :]).any(axis=2)
    counts = counts.astype(np.float64)
    allowed = float(counts @ meet @ counts)
    return {
        "attention.self.n": n,
        "labelfield.classes": int(codes.shape[0]),
        "labelfield.label_bytes": int(bits.shape[1]),
        "labelfield.allowed_pair_frac": allowed / float(n * n),
        "attention.self.logits_bytes": n * n * 8,
    }


class Workload:
    """One benchmark workload; subclasses generate inputs in __init__."""

    name = ""
    why = ""
    traceable = True  # whether the program runs in this process, so spans can be taken
    trace_alloc = False  # whether traced runs record allocation peaks (tracemalloc)

    def __init__(self, seed: int, workdir: Path, tracer: tracing.Tracer | None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.outputs: dict[str, str] = {}

    def op(self, i: int) -> tuple[float, float | None, dict[str, float]]:
        """Run op i and check it. Returns (latency, inference latency or None,
        per-op layer values measured by the workload itself)."""
        raise NotImplementedError

    def finish(self) -> float:
        """Untimed completion work, then any timed closing step; returns its seconds."""
        return 0.0

    def quality(self) -> float:
        """fit_mean_iou: mean IOU of the ellipse fits this workload makes.
        Workloads that fit nothing report 1.0, the IOU of two empty masks."""
        return 1.0

    def facts(self) -> dict[str, float]:
        """Sizes and structural counts of the inputs, printed with every run."""
        return {}

    def counts(self, by_op: dict) -> dict[str, float]:
        """Per-layer values fixed by the inputs rather than timed per op;
        by_op is the span summary of the traced run."""
        return {}

    def derived(self, layer: dict[str, float]) -> dict[str, float]:
        """Per-op layer values computed from the traced ones."""
        return {}

    def record(self, key: str, digest: str) -> None:
        """Keep the first digest of an output; a later different one fails the op."""
        first = self.outputs.setdefault(key, digest)
        expect(first == digest, f"output {key} differs from its first run")


class Attend(Workload):
    """Forward attention block plus 3D self-attention backward over one label field."""

    trace_alloc = True
    grid = 24
    dim = 16
    n_tokens = 4

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.video = self.make_video(np.random.default_rng(seed))
        self.cfg = Config(feature_h=self.grid, feature_w=self.grid, seed=seed)
        field = build_label_field(densify(self.video), self.grid, self.grid, self.cfg.rescale)
        self.mask = AttnMask3D(field)
        self.n = self.mask.size
        rng = np.random.default_rng([seed, 1])
        self.g = rng.standard_normal((self.n, self.dim))
        self.upstream = rng.standard_normal((self.n, self.dim))
        self.weights = attention.SelfAttnWeights.seeded(self.dim, seed=seed + 3)
        self._structure = label_structure(self.mask)

    def make_video(self, rng: np.random.Generator) -> BlobVideo:
        raise NotImplementedError

    def op(self, i):
        t0 = time.perf_counter()
        y, stats = pipeline.run_attend_block(self.video, self.cfg, dim=self.dim,
                                             n_tokens=self.n_tokens, threads=1)
        t1 = time.perf_counter()
        grads = attention.masked_3d_self_attention_backward(self.g, self.mask, self.weights,
                                                            self.upstream)
        t2 = time.perf_counter()
        expect(stats.rows == self.n and y.shape == (self.n, self.dim),
               f"{stats.rows} output rows for {self.n} positions")
        expect(stats.row_sum_max_err <= ROW_SUM_TOL,
               f"row sums off by {stats.row_sum_max_err}")
        arrays = (y, grads.g, grads.wq, grads.wk, grads.wv)
        expect(all(np.isfinite(a).all() for a in arrays), "non-finite output")
        expect(grads.g.shape == self.g.shape, f"input gradient shape {grads.g.shape}")
        self.record("attend", sha256(*(np.ascontiguousarray(a).tobytes() for a in arrays)))
        return t2 - t0, t1 - t0, {}

    def facts(self):
        return dict(self._structure)

    def counts(self, by_op):
        return dict(self._structure)

    def derived(self, layer):
        fwd = layer.get("pipeline.run_attend_block.s", 0.0)
        if not fwd:
            return {}
        covered = sum(layer.get(f"{name}@pipeline.run_attend_block.self_s", 0.0) for name in (
            "attention.masked_softmax", "labelfield.allowed_rows",
            "attention.masked_3d_self_attention"))
        return {"pipeline.run_attend_block.covered_frac": covered / fwd}


class AttendFewLabels(Attend):
    name = "attend-few-labels"
    why = ("The paper's own 3-track layout at the largest grid that fits (n=7488): "
           "4 label classes, so masked_softmax dominates; where label grouping wins.")

    def make_video(self, rng):
        return exemplar_video()


class AttendManyLabels(Attend):
    name = "attend-many-labels"
    why = ("10 seeded, heavily overlapping tracks (n=5200): hundreds of label classes and "
           "2-byte bitsets, so allowed_rows weighs more; a few-classes gain must not win here.")
    grid = 20
    n_tracks = 10

    def make_video(self, rng):
        geom = FrameGeometry(720, 480)
        anchors = range(0, 13, 4)
        tracks = []
        for k in range(self.n_tracks):
            params, captions = {}, {}
            for t in anchors:
                cx = rng.uniform(200, 520)
                cy = rng.uniform(140, 340)
                a = rng.uniform(120, 220)
                b = rng.uniform(60, a)
                theta = rng.uniform(-1.5, 1.5)
                params[t] = canonicalize(BlobParams(cx, cy, a, b, theta))
                captions[t] = f"object {k} seen at frame {t} ({rng.integers(1 << 30)})"
            tracks.append(BlobTrack(k, params, captions))
        return BlobVideo(13, geom, 4, tuple(tracks))


class Annotate(Workload):
    """One op is one fit_ellipse on a mask from a seeded pool. After the timed
    fits, one mean_iou call scores the fitted boxes against the true ones."""

    name = "annotate"
    why = ("Dataset preparation: ellipse fits of seeded 64x64 blob masks, where rasterize "
           "and mask_iou dominate and attention does no work.")
    size = 64
    pool = 256  # large enough that the pool's median fit cost varies <1% across seeds
    blobs_per_frame = 4

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        rng = np.random.default_rng(seed)
        self.geom = FrameGeometry(self.size, self.size)
        self.truth = [random_blob(rng, self.geom) for _ in range(self.pool)]
        self.masks = [rasterize(p, self.geom, self.size, self.size) for p in self.truth]
        self.init_iou = [
            mask_iou(rasterize(fitting.moments_init(m, self.geom), self.geom, self.size, self.size), m)
            for m in self.masks
        ]
        self.results: dict[int, fitting.FitResult] = {}
        self.rasterize_calls: dict[int, int] = {}
        self.box_miou = None

    def _fit(self, i: int) -> float:
        k = i % self.pool
        tracer = self.tracer
        first_span = len(tracer.spans) if tracer is not None and tracer.installed else None
        t0 = time.perf_counter()
        res = fitting.fit_ellipse(self.masks[k], self.geom)
        latency = time.perf_counter() - t0
        expect(res.params.is_canonical(), f"mask {k}: fitted params are not canonical")
        expect(0.0 < res.iou <= 1.0, f"mask {k}: IOU {res.iou} outside (0, 1]")
        expect(res.iou >= self.init_iou[k],
               f"mask {k}: fit IOU {res.iou} below moment-init IOU {self.init_iou[k]}")
        self.record(f"fit{k}", sha256(res.params.as_array().tobytes(),
                                      repr((res.iou, res.iterations)).encode()))
        self.results.setdefault(k, res)
        if first_span is not None:
            self.rasterize_calls[k] = sum(
                1 for s in tracer.spans[first_span:] if s[tracing.NAME] == "blobs.rasterize")
        return latency

    def op(self, i):
        latency = self._fit(i)
        return latency, latency, {}

    def finish(self):
        # Untimed: fit any pool mask the timed loop did not reach, traced when
        # tracing so that every mask's rasterize count is known.
        for k in range(self.pool):
            if k not in self.results or (self.tracer is not None and k not in self.rasterize_calls):
                with tracing.active(self.tracer, COUNT_OP):
                    self._fit(k)
        evals = []
        for f in range(self.pool // self.blobs_per_frame):
            ks = range(f * self.blobs_per_frame, (f + 1) * self.blobs_per_frame)
            evals.append(metrics.FrameEval(
                frame=f,
                detections=tuple(blob_box(self.results[k].params) for k in ks),
                ground_truth=tuple((k, blob_box(self.truth[k])) for k in ks),
            ))
        frames = [e.frame for e in evals]
        with tracing.active(self.tracer, SCORE_OP):
            t0 = time.perf_counter()
            value = metrics.mean_iou(evals, frames, method="hungarian")
            wall = time.perf_counter() - t0
        expect(0.0 < value <= 1.0, f"box mean IOU {value} outside (0, 1]")
        self.box_miou = value
        self.outputs["box_miou"] = sha256(repr(value).encode())
        return wall

    def quality(self):
        if not self.results:
            return None
        return statistics.fmean(r.iou for r in self.results.values())

    def facts(self):
        return {"annotate.pool": self.pool, "annotate.blobs_per_frame": self.blobs_per_frame,
                "annotate.box_miou": self.box_miou}

    def counts(self, by_op):
        if not self.results:
            return {}
        out = {
            "fitting.iterations": statistics.fmean(r.iterations for r in self.results.values()),
            "fitting.improved_frac": statistics.fmean(
                r.iou > self.init_iou[k] for k, r in self.results.items()),
        }
        if self.rasterize_calls:
            out["blobs.rasterize.calls_per_fit"] = statistics.fmean(self.rasterize_calls.values())
        score = by_op.get(SCORE_OP, {})
        for name in ("metrics.mean_iou", "metrics.match_detections"):
            if name in score:
                out[f"{name}.s"] = score[name]["s"]
                out[f"{name}.calls"] = score[name]["calls"]
        return out


class Cli(Workload):
    """One op is one `python -m blobvid <command>` child process."""

    name = "cli"
    why = ("Seven one-shot `python -m blobvid` commands on the exemplar: every call pays the "
           "interpreter and `import blobvid.cli`; the only workload that measures start-up.")
    traceable = False  # the program runs in child processes
    render_h, render_w = 120, 180
    attend_grid = 8

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        root = Path(__file__).resolve().parents[1]
        # An absolute path: children run in workdir, and a relative
        # PYTHONPATH would not find the package from there.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        v = exemplar_video()
        self.video = v
        (workdir / "video.json").write_text(video_to_json(v), encoding="utf-8")
        # The fit input is one exemplar blob at 64x64, the same for every seed,
        # so the reported IOU does not vary from seed to seed.
        fit_track, fit_frame = v.tracks[2], 6
        self.mask_file = write_mask_pgm(
            workdir, fit_frame, fit_track.object_id,
            rasterize(fit_track.params[fit_frame], v.geom, 64, 64)).name
        track = v.tracks[0]
        p1, p2 = track.params[0], track.params[v.num_frames - 1]
        alpha = rng.uniform(0.05, 0.95)
        gt_frames, det_frames = [], []
        for t in range(v.num_frames):
            objs, dets = [], []
            for tr in v.tracks:
                box = blob_box(tr.params[t])
                objs.append({"id": tr.object_id, "bbox": [box.x0, box.y0, box.x1, box.y1]})
                jitter = rng.normal(0.0, 6.0, 4)
                x0, y0 = box.x0 + jitter[0], box.y0 + jitter[1]
                dets.append({"bbox": [x0, y0, max(box.x1 + jitter[2], x0 + 1.0),
                                      max(box.y1 + jitter[3], y0 + 1.0)],
                             "confidence": float(rng.uniform(0.5, 1.0))})
            gt_frames.append({"frame": t, "objects": objs})
            det_frames.append({"frame": t, "detections": dets})
        (workdir / "gt.json").write_text(json.dumps({"frames": gt_frames}), encoding="utf-8")
        (workdir / "dets.json").write_text(json.dumps({"frames": det_frames}), encoding="utf-8")
        g = str(self.attend_grid)
        # attend and fit come first so that every run, however slow, runs them.
        self.commands = [
            ("attend", ["attend", "video.json", "--feature-h", g, "--feature-w", g,
                        "--dim", "16", "--tokens", "4", "--seed", str(seed)]),
            ("fit", ["fit", self.mask_file, "--width", str(v.geom.width),
                     "--height", str(v.geom.height)]),
            ("validate", ["validate", "video.json"]),
            ("interp", ["interp", "--p1", *map(repr, p1.as_array().tolist()),
                        "--p2", *map(repr, p2.as_array().tolist()), "--alpha", repr(alpha)]),
            ("mask", ["mask", "video.json", "--out-dir", "masks",
                      "--feature-h", "24", "--feature-w", "24"]),
            ("render", ["render", "video.json", "--out-dir", "render",
                        "--render-h", str(self.render_h), "--render-w", str(self.render_w)]),
            ("metrics", ["metrics", "miou", "--detections", "dets.json",
                         "--ground-truth", "gt.json"]),
        ]
        self.fit_iou: float | None = None
        self.probes: dict[str, float] = {}

    def run_child(self, args: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.workdir, env=self.env,
                              capture_output=True, timeout=timeout)

    def op(self, i):
        name, args = self.commands[i % len(self.commands)]
        t0 = time.perf_counter()
        proc = self.run_child(["-m", "blobvid", *args, "--threads", "1"])
        latency = time.perf_counter() - t0
        expect(proc.returncode == 0,
               f"{name}: exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        try:
            doc = json.loads(proc.stdout)
        except ValueError as e:
            raise OutputMismatch(f"{name}: stdout is not one JSON document: {e}") from e
        parts = [proc.stdout]
        self.check(name, doc)
        if name in ("mask", "render"):
            out_dir = self.workdir / doc["dir"]
            parts += [p.name.encode() + p.read_bytes() for p in sorted(out_dir.iterdir())]
        self.record(name, sha256(*parts))
        return latency, latency if name == "attend" else None, {f"cli.{name}.s": latency}

    def check(self, name: str, doc: dict) -> None:
        v = self.video
        if name == "attend":
            expect(doc["rows"] == v.num_frames * self.attend_grid ** 2, f"attend rows {doc['rows']}")
            expect(doc["row_sum_max_err"] <= ROW_SUM_TOL, f"row sums off by {doc['row_sum_max_err']}")
        elif name == "fit":
            expect(len(doc["params"]) == 5 and 0.0 < doc["iou"] <= 1.0, f"fit output {doc}")
            self.fit_iou = float(doc["iou"])
        elif name == "validate":
            expect(doc == {"ok": True, "tracks": v.num_tracks, "frames": v.num_frames},
                   f"validate output {doc}")
        elif name == "interp":
            expect(len(doc["params"]) == 5 and all(map(math.isfinite, doc["params"])),
                   f"interp output {doc}")
        elif name == "mask":
            expect(doc["written"] == v.num_frames * v.num_tracks, f"mask wrote {doc['written']}")
        elif name == "render":
            expect(doc["written"] == v.num_frames, f"render wrote {doc['written']}")
        elif name == "metrics":
            expect(0.0 < doc["value"] <= 1.0, f"miou {doc['value']}")

    def finish(self):
        if self.tracer is not None:
            # Untimed start-up probes: a bare interpreter, and one that
            # imports the CLI module.
            bare = [self._probe(["-c", "pass"]) for _ in range(3)]
            imp = [self._probe(["-c", "import blobvid.cli"]) for _ in range(3)]
            self.probes = {"cli.interpreter_s": statistics.median(bare),
                           "cli.import_s": statistics.median(imp) - statistics.median(bare)}
        return 0.0

    def _probe(self, args: list[str]) -> float:
        t0 = time.perf_counter()
        proc = self.run_child(args)
        wall = time.perf_counter() - t0
        expect(proc.returncode == 0, f"probe {args}: exit {proc.returncode}")
        return wall

    def quality(self):
        # The IOU the `fit` command reports; None when this process ran no fit.
        return self.fit_iou

    def counts(self, by_op):
        return dict(self.probes)


WORKLOADS = {w.name: w for w in (AttendFewLabels, AttendManyLabels, Annotate, Cli)}

