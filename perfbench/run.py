#!/usr/bin/env python3
"""Benchmark of blobvid: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload attend-few-labels --seed 0 --seconds 15 --trace 0

The run starts WORKERS worker processes one after another. Each one imports
the package from ./src, generates the workload's inputs from the seed, runs
one untimed warm-up op, then runs ops in a closed loop for its share of
--seconds. Set-up time is taken per worker and reported as their median.

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, taken from
spans around the program's call sites on every other op, and the tracing
overhead (traced minus untraced op median). Earlier lines give the run
header, the input facts, the output digest and every metric with its unit.
The full report is also written to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKERS = 3
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_worker(cmd: list[str], limit: float) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to "ready", its report)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker exited with {proc.returncode} "
                         f"({'timed out' if time.perf_counter() - t0 >= limit else 'see stderr'})")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "blobvid").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def header(args, env: dict) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        **versions,
        "blas": env.get("blas"),
        "blas_threads": env.get("blas_threads"),
        "pipeline_threads": 1,
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "machine": platform.machine(),
    }


def end_to_end(reports: list[dict], setups: list[float], untraced_only: bool) -> dict:
    ops = [o for r in reports for o in r["ops"] if not (untraced_only and o["traced"])]
    lat = [o["latency"] for o in ops]
    infer = [o["infer"] for o in ops if o["infer"] is not None]
    quality = [r["quality"] for r in reports if r["quality"] is not None]
    done = sum(o["ok"] for o in ops)
    # A traced run interleaves traced ops, so only its untraced ops' own time counts.
    wall = sum(lat) if untraced_only else sum(r["timed_wall"] for r in reports)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": done / wall,
        "op_p50_s": statistics.median(lat),
        "op_p90_s": quantile(lat, 0.9),
        "infer_p50_s": statistics.median(infer) if infer else None,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "fit_mean_iou": statistics.median(quality) if quality else None,
    }


def per_layer(reports: list[dict], names: list[str]) -> dict:
    pooled: dict[str, list[float]] = {}
    counts: dict[str, list[float]] = {}
    for r in reports:
        for k, v in r["layer_ops"].items():
            pooled.setdefault(k, []).extend(v)
        for k, v in r["counts"].items():
            if v is not None:
                counts.setdefault(k, []).append(v)
    traced = [o["latency"] for r in reports for o in r["ops"] if o["traced"]]
    plain = [o["latency"] for r in reports for o in r["ops"] if not o["traced"]]
    overhead = statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0
    derived = {"trace.overhead_s": overhead,
               "trace.overhead_frac": overhead / statistics.median(plain) if plain else 0.0}
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in pooled:
            out[name] = statistics.median(pooled[name])
        elif name in counts:
            out[name] = statistics.median(counts[name])
        else:
            out[name] = 0.0  # the layer does not run on this workload
    return out


def merge_outputs(reports: list[dict]) -> tuple[dict, list[str]]:
    merged: dict[str, str] = {}
    clashes = []
    for r in reports:
        for k, v in r["outputs"].items():
            if merged.setdefault(k, v) != v:
                clashes.append(k)
    return merged, clashes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0, help="timed seconds, split over the workers")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in known:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(known)}")
    if not (ROOT / "src" / "blobvid" / "__init__.py").is_file():
        raise BenchError(f"no blobvid sources under {ROOT / 'src'}")
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    started = time.perf_counter()
    reports, setups = [], []
    first_op = 0
    for k in range(WORKERS):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
               "--trace", str(args.trace), "--first-op", str(first_op),
               "--workdir", str(workdir)]
        if args.trace:
            cmd += ["--spans", str(WORKDIR / f"spans-{tag}-w{k}.jsonl")]
        setup_s, report = run_worker(cmd, RUN_LIMIT_S - (time.perf_counter() - started))
        setups.append(setup_s)
        reports.append(report)
        first_op = report["next_op"]

    e2e = end_to_end(reports, setups, untraced_only=bool(args.trace))
    values = per_layer(reports, [m["name"] for m in metric_specs]) if args.trace else e2e
    outputs, clashes = merge_outputs(reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    missing = [m["name"] for m in metric_specs if values.get(m["name"]) is None]
    correct = failed == 0 and not clashes and not missing
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    n_ops = sum(len(r["ops"]) for r in reports)

    full = {
        "header": header(args, reports[0]["env"]),
        "why": known[args.workload],
        "facts": reports[-1]["facts"],
        "digest": digest,
        "outputs_hashed": len(outputs),
        "output_clashes": clashes,
        "timed_ops": n_ops,
        "error_rate": failed / attempted,
        "errors": [e for r in reports for e in r["errors"]],
        "setup_s_each": setups,
        "end_to_end": e2e,
        "per_layer": values if args.trace else None,
        "workers": reports,
    }
    (WORKDIR / f"report-{tag}.json").write_text(json.dumps(full, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {known[args.workload]}")
    print("header " + json.dumps(full["header"]))
    print("facts " + json.dumps(full["facts"]))
    print(f"digest {digest} over {len(outputs)} outputs" + (f"; CLASH in {clashes}" if clashes else ""))
    print(f"ops {n_ops} timed, {attempted} attempted, {failed} failed, "
          f"error_rate {failed / attempted:.6g}")
    for err in full["errors"]:
        print("error " + err.strip().replace("\n", " | "), file=sys.stderr)
    shown = dict(e2e)
    if args.trace:
        shown.update(values)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in shown.items():
        print(f"  {name:<55} {value!s:>24} {units.get(name, '')}")
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
