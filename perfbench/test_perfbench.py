"""Tests of the benchmark itself: seeded inputs, trace wrappers, failure counting.

Run from the repository root with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import blobvid.fitting
import blobvid.pipeline
import tracing
import worker
import workloads
from blobvid.blobs import BlobParams, FrameGeometry, rasterize
from blobvid.fitting import FitResult
from blobvid.video import video_to_json


def _inputs(wl: workloads.Workload) -> list:
    """Everything a workload hands to the program, in comparable form."""
    if isinstance(wl, workloads.Attend):
        return [video_to_json(wl.video), wl.g.tobytes(), wl.upstream.tobytes(), wl.cfg,
                wl.mask.field.bits.tobytes()]
    if isinstance(wl, workloads.Annotate):
        return [wl.truth, [m.bits.tobytes() for m in wl.masks], wl.init_iou]
    if isinstance(wl, workloads.Cli):
        return [wl.commands] + [(p.name, p.read_bytes()) for p in sorted(wl.workdir.iterdir())]
    raise AssertionError(type(wl))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a = _inputs(cls(5, tmp_path / "a", None))
    b = _inputs(cls(5, tmp_path / "b", None))
    c = _inputs(cls(6, tmp_path / "c", None))
    assert a == b
    assert a != c


def test_attend_structure_matches_workload_description(tmp_path):
    few = workloads.AttendFewLabels(0, tmp_path, None).facts()
    assert few["attention.self.n"] == 13 * 24 * 24
    assert few["labelfield.classes"] == 4
    assert few["labelfield.label_bytes"] == 1
    many = workloads.AttendManyLabels(0, tmp_path, None).facts()
    assert many["attention.self.n"] == 13 * 20 * 20
    assert many["labelfield.label_bytes"] == 2
    assert many["labelfield.classes"] > 100


def test_label_structure_counts_allowed_pairs_exactly(tmp_path):
    wl = workloads.AttendFewLabels(0, tmp_path, None)
    allowed = wl.mask.allowed_rows(0, wl.n)
    assert wl.facts()["labelfield.allowed_pair_frac"] == pytest.approx(allowed.mean(), rel=1e-12)


def test_trace_wrappers_record_spans_and_restore_originals():
    originals = {t: vars(tracing.resolve(t)[0])[tracing.resolve(t)[1]] for t in tracing.TARGETS}
    tracer = tracing.Tracer(alloc=True)
    with tracing.active(tracer, 7):
        for target, original in originals.items():
            owner, attr = tracing.resolve(target)
            assert vars(owner)[attr] is not original
        geom = FrameGeometry(16, 16)
        blobvid.fitting.fit_ellipse(rasterize(BlobParams(8, 8, 5, 3, 0.3), geom, 16, 16), geom,
                                    max_iter=5)
    for target, original in originals.items():
        owner, attr = tracing.resolve(target)
        assert vars(owner)[attr] is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "fitting.fit_ellipse" and "blobs.rasterize" in names
    assert all(s[tracing.OP] == 7 for s in tracer.spans)
    summary = tracing.summarize(tracer.spans)[7]
    fit = summary["fitting.fit_ellipse"]
    children = sum(v["s"] for k, v in summary.items() if "@" in k)
    assert fit["self_s"] == pytest.approx(fit["s"] - children, abs=1e-9)


def test_wrappers_are_restored_when_an_op_raises():
    original = blobvid.fitting.fit_ellipse
    with pytest.raises(ZeroDivisionError):
        with tracing.active(tracing.Tracer(alloc=False), 0):
            1 / 0
    assert blobvid.fitting.fit_ellipse is original


def test_tampered_fit_is_a_counted_failure(tmp_path, monkeypatch):
    wl = workloads.Annotate(0, tmp_path, None)
    real = blobvid.fitting.fit_ellipse

    def worse_than_init(mask, geom, **kw):
        res = real(mask, geom, **kw)
        return FitResult(params=res.params, iou=0.5 * res.iou, iterations=res.iterations)

    monkeypatch.setattr(blobvid.fitting, "fit_ellipse", worse_than_init)
    report = worker.measure(wl, None, first_op=0, seconds=0.05)
    fits = len(report["ops"]) + 1  # timed ops plus the warm-up
    assert report["failed"] >= fits
    assert not any(op["ok"] for op in report["ops"])
    assert "moment-init" in report["errors"][0]


def test_tampered_attention_output_is_a_counted_failure(tmp_path, monkeypatch):
    class Tiny(workloads.AttendFewLabels):
        grid = 4

    wl = Tiny(0, tmp_path, None)
    real = blobvid.pipeline.run_attend_block
    calls = []

    def nan_on_second_call(*args, **kw):
        y, stats = real(*args, **kw)
        calls.append(1)
        if len(calls) == 2:
            y = y.copy()
            y[0, 0] = np.nan
        return y, stats

    monkeypatch.setattr(blobvid.pipeline, "run_attend_block", nan_on_second_call)
    report = worker.measure(wl, None, first_op=0, seconds=0.0)
    assert report["attempted"] == 3  # warm-up, one timed op, the closing step
    assert report["failed"] == 1
    assert [op["ok"] for op in report["ops"]] == [False]


def test_changed_output_between_ops_is_a_counted_failure(tmp_path):
    wl = workloads.Annotate(0, tmp_path, None)
    wl.op(0)
    wl.outputs["fit0"] = "0" * 64
    with pytest.raises(workloads.OutputMismatch):
        wl.op(0)


def test_benchmark_json_names_every_workload_with_its_reason():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
