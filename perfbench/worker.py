"""One benchmark worker process: set up, warm up, run timed ops, report.

Started by run.py, never by hand. It prints "ready" once imports are done,
the inputs exist and one untimed warm-up op has run, so the parent can time
set-up from process start. Its last stdout line is a JSON report.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]


def blas_info() -> dict:
    """Name and thread count of the BLAS numpy loaded, where they can be read."""
    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    # numpy wheels bundle their OpenBLAS here; loading it again returns the
    # library numpy already uses.
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = int(fn())
                return info
    return info


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl, tracer, first_op: int, seconds: float, on_ready=lambda: None) -> dict:
    """Warm up, then run ops of wl in a closed loop for about `seconds`.

    An op starts only while, at the mean op time so far, it should end within
    `seconds`; at least one op runs. Every op's failure (an exception or a
    failed output check) is counted and the loop goes on. With a tracer, every
    other op runs traced, starting with the first timed one, and at least one
    op of each kind runs.
    """
    trace_ops = tracer is not None and wl.traceable
    attempted = failed = 0
    errors: list[str] = []

    def attempt(fn):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            return True, fn()
        except Exception:  # a failed op is counted, never fatal
            failed += 1
            if len(errors) < 5:
                errors.append(traceback.format_exc(limit=3))
            return False, time.perf_counter() - t0

    def run_op(i: int, traced: bool):
        with tracing.active(tracer if traced else None, i):
            return attempt(lambda: wl.op(i))

    i = first_op
    run_op(i, False)  # warm-up: untimed, but its output is checked
    on_ready()

    ops = []
    layer_ops: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    while True:
        traced = trace_ops and (i - first_op) % 2 == 0
        ok, res = run_op(i, traced)
        latency, infer, extra = res if ok else (res, None, {})
        ops.append({"op": i, "latency": latency, "infer": infer, "ok": ok, "traced": traced})
        if ok and tracer is not None:
            for k, v in extra.items():
                layer_ops[k].append(v)
        i += 1
        done = i - first_op
        elapsed = time.perf_counter() - start
        if elapsed * (done + 1) / done > seconds and (not trace_ops or done >= 2):
            break
    timed_wall = time.perf_counter() - start
    ok, res = attempt(wl.finish)
    if ok:
        timed_wall += res

    counts = {}
    if tracer is not None:
        by_op = tracing.summarize(tracer.spans)
        for rec in ops:
            if not (rec["traced"] and rec["ok"]):
                continue
            layer = {}
            for span, agg in by_op.get(rec["op"], {}).items():
                layer[f"{span}.s"] = agg["s"]
                layer[f"{span}.self_s"] = agg["self_s"]
                layer[f"{span}.calls"] = agg["calls"]
                layer[f"{span}.peak_alloc_mb"] = agg["peak_bytes"] / 2**20
            layer.update(wl.derived(layer))
            for k, v in layer.items():
                if "@" not in k:
                    layer_ops[k].append(v)
        counts = wl.counts(by_op)

    return {
        "ops": ops,
        "timed_wall": timed_wall,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "outputs": wl.outputs,
        "quality": wl.quality(),
        "facts": wl.facts(),
        "counts": counts,
        "layer_ops": layer_ops,
        "next_op": i,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--first-op", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="file to write the spans to")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(alloc=cls.trace_alloc) if args.trace else None
    wl = cls(args.seed, Path(args.workdir), tracer)
    report = measure(wl, tracer, args.first_op, args.seconds,
                     on_ready=lambda: print("ready", flush=True))
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    who = resource.RUSAGE_SELF if wl.traceable else resource.RUSAGE_CHILDREN
    report["peak_rss_mb"] = peak_rss_mb(who)
    report["env"] = {"python": platform.python_version(), **blas_info()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
