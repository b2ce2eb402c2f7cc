#!/usr/bin/env python3
"""pointdet benchmark: one command for every workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the root of a pointdet checkout; it imports the package from
``src/`` of that checkout and nothing else. Workloads: ``train``, ``eval``
and ``eval-dense`` (see README.md in this directory). ``--trace 0`` prints
the end-to-end metrics, measured with tracing off; ``--trace 1`` prints the
per-layer metrics of a traced phase that follows an untraced one. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the checks. Spans and the full report go to
``perfbench/results/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here: imports are set-up

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# set-up is sampled in this many fresh processes
SETUP_PROBES = 5


def bootstrap() -> None:
    """Pin BLAS to one thread and import pointdet from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pointdet" / "__init__.py").is_file():
        raise SystemExit(f"error: no pointdet package under {SRC}; run from a pointdet checkout")
    sys.path.insert(0, str(SRC))
    import pointdet

    if Path(pointdet.__file__).resolve().parent != (SRC / "pointdet").resolve():
        raise SystemExit(f"error: imported pointdet from {pointdet.__file__}, not from {SRC}")


def source_sha256() -> str:
    """Hash of every file under src/, so a result names the code it measured
    even in a checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD commit of this checkout; None if it is no git work tree (git is
    kept from searching the directories above it) or git is missing."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints instead
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed):
    """Everything an eval run does before its first timed op; ``None`` for
    train, whose warm-up steps are the first steps of the measured run."""
    import workloads

    if workload == "train":
        return None
    manifest = workloads.load_manifest()
    model = workloads.load_eval_model(manifest)
    scenes = workloads.eval_scenes(seed)
    workloads.eval_warmup(model, scenes, workloads.SCORE_THRESH[workload])
    return manifest, model, scenes


def probe_setup(workload, seed) -> dict:
    """Set-up seconds of this fresh process, imports and warm-up included:
    raw, and at reference machine speed like the op times (see Phase)."""
    import workloads

    if workload == "train":
        end = workloads.train_phase(seed, steps=workloads.TRAIN_WARMUP_STEPS).setup_end
    else:
        setup(workload, seed)
        end = time.perf_counter()
    raw = end - T0
    cal = statistics.median(workloads.calibrate() for _ in range(3))
    return {"raw": raw, "norm": raw * workloads.REFERENCE_CAL_S / cal}


def setup_samples(args) -> list[dict]:
    """Set-up times of SETUP_PROBES fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# metrics


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(phase, setups) -> dict:
    # Medians of op and pass times at reference machine speed (see Phase):
    # the shared machine runs up to 1.6x faster or slower for stretches of
    # seconds to minutes, which moves raw medians by 6-25 % between runs.
    # Normalising steadies medians but not tails, so p90 is only reported.
    return {
        "setup_s": (statistics.median(s["norm"] for s in setups), "s"),
        "norm_op_ms_p50": (1e3 * statistics.median(phase.norm_op_s()), "ms"),
        "norm_pass_s_p50": (statistics.median(phase.pass_s(normalised=True)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def summary(phase, setups=()) -> dict:
    """Ungated figures of a phase for the report: raw wall-clock times."""
    passes = phase.pass_s()
    return {
        "setup_s": statistics.median(s["raw"] for s in setups) if setups else None,
        "ops": len(phase.op_s),
        "passes": len(passes),
        "op_ms_p50": 1e3 * statistics.median(phase.op_s),
        "op_ms_p90": 1e3 * p90(phase.op_s),
        "norm_op_ms_p90": 1e3 * p90(phase.norm_op_s()),
        "pass_s_p50": statistics.median(passes),
        "ops_per_s": len(phase.op_s) / sum(passes),
        "calibration_ms_p50": 1e3 * statistics.median(phase.cal_s),
    }


def per_layer(workload, traced, untraced) -> dict:
    """Per-op self time of every traced layer, plus counters and shares."""
    import workloads
    from spans import CONV_NAMES, aggregate

    tracer = traced.tracer
    if workload == "train":
        first = workloads.TRAIN_WARMUP_STEPS
        agg = aggregate(tracer.spans, keep_run=lambda run: first <= run < first + traced.attempted)
    else:
        agg = aggregate(tracer.spans)
    n = traced.attempted
    zero = {"self": 0.0, "incl": 0.0, "calls": 0}

    def get(name):
        return agg.get(name, zero)

    def ms(name, kind="self"):
        return (1e3 * get(name)[kind] / n, "ms")

    def per_op(value, unit):
        return (value / n, unit)

    counters = tracer.counters
    root = "bench.train_step" if workload == "train" else "bench.detect"
    # every traced op time, AP passes included: the base of the shares
    total = sum(a["self"] for a in agg.values()) - get("checkpoint.load")["self"]
    conv = get("ops.conv2d")["self"] + get("ops.conv2d_backward")["self"]
    post = sum(get(k)["incl"] for k in (
        "inference.decode_detections", "inference.nms", "inference.average_precision"))
    nms_in = counters.get("inference.nms.in", 0.0)
    out = {
        "ops.conv2d.ms": ms("ops.conv2d"),
        "ops.conv2d.calls": per_op(get("ops.conv2d")["calls"], "count"),
        "ops.conv2d.gflop": per_op(counters.get("ops.conv2d.flop", 0.0) / 1e9, "GFLOP"),
        "ops.conv2d.im2col_mb": per_op(counters.get("ops.conv2d.im2col_bytes", 0.0) / 1e6, "MB"),
        "ops.conv2d_backward.ms": ms("ops.conv2d_backward"),
        "ops.conv2d_backward.calls": per_op(get("ops.conv2d_backward")["calls"], "count"),
    }
    for conv_name in CONV_NAMES:
        # inclusive: each layer span holds exactly one ops.conv2d{,_backward} span
        out[f"layers.{conv_name}.fwd_ms"] = ms(f"layers.{conv_name}.fwd", "incl")
        out[f"layers.{conv_name}.bwd_ms"] = ms(f"layers.{conv_name}.bwd", "incl")
    for name in ("backbone.forward", "backbone.backward", "head.forward", "head.backward",
                 "head.collect_level", "head.collect_level_backward",
                 "ops.bilinear_gather", "ops.bilinear_gather_backward",
                 "model.forward", "model.backward",
                 "training.compute_losses", "training.assign_samples",
                 "geometry.giou_loss_grad_array", "optim.SGD.step", "scenes.generate_scene",
                 "inference.decode_detections", "inference.nms",
                 "inference.average_precision", "geometry.iou_matrix"):
        out[f"{name}.ms"] = ms(name)
    out.update({
        "ops.bilinear_gather.samples": per_op(counters.get("ops.bilinear_gather.samples", 0.0), "count"),
        "ops.bilinear_gather_backward.samples": per_op(
            counters.get("ops.bilinear_gather_backward.samples", 0.0), "count"),
        "training.n_positives": per_op(counters.get("training.n_positives", 0.0), "count"),
        "inference.decode_detections.candidates": per_op(
            counters.get("inference.decode_detections.candidates", 0.0), "count"),
        "inference.nms.kept_ratio": (counters.get("inference.nms.out", 0.0) / nms_in if nms_in else 0.0,
                                     "ratio"),
        "geometry.iou_matrix.calls": per_op(get("geometry.iou_matrix")["calls"], "count"),
        # per load, not per op: the traced phase loads the checkpoint once
        "checkpoint.load.ms": (1e3 * get("checkpoint.load")["self"] / max(1, get("checkpoint.load")["calls"]),
                               "ms"),
        "bench.op.self_ms": ms(root),
        "split.conv_pct": (100.0 * conv / total, "%"),
        "split.postprocess_pct": (100.0 * post / total, "%"),
        "trace.spans_per_op": per_op(sum(a["calls"] for a in agg.values()), "count"),
        "trace.overhead.norm_op_ms_p50": (
            1e3 * (statistics.median(traced.norm_op_s()) - statistics.median(untraced.norm_op_s())), "ms"),
        "trace.overhead.norm_pass_s_p50": (
            statistics.median(traced.pass_s(True)) - statistics.median(untraced.pass_s(True)), "s"),
    })
    return out


# ---------------------------------------------------------------------------
# the run


def run_phase(workload, seed, state, seconds=None, ops=None, tracer=None):
    import workloads

    if workload == "train":
        steps = None if ops is None else workloads.TRAIN_WARMUP_STEPS + ops
        return workloads.train_phase(seed, seconds=seconds, steps=steps, tracer=tracer)
    manifest, model, scenes = state
    if tracer is not None:
        model = workloads.load_eval_model(manifest)  # traced: checkpoint.load
    return workloads.eval_phase(model, scenes, workloads.SCORE_THRESH[workload],
                                seconds=seconds, images=ops, tracer=tracer)


def run(args) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result line, full report)``."""
    import workloads
    from spans import Tracer

    state = setup(args.workload, args.seed)
    checks = {}
    setups = ()
    if args.trace:
        untraced = run_phase(args.workload, args.seed, state, seconds=args.seconds / 2)
        with Tracer() as tracer:
            traced = run_phase(args.workload, args.seed, state, seconds=args.seconds / 2,
                               tracer=tracer)
        measured = traced
        metrics = per_layer(args.workload, traced, untraced)
    else:
        untraced = run_phase(args.workload, args.seed, state, seconds=args.seconds)
        setups = setup_samples(args)
        with Tracer() as tracer:
            traced = run_phase(args.workload, args.seed, state, ops=workloads.REPLAY_OPS,
                               tracer=tracer)
        measured = untraced
        metrics = end_to_end(untraced, setups)
    checks["traced_outputs_bit_identical"] = workloads.same_outputs(untraced, traced)
    info = {"pass_ap": untraced.pass_ap} if untraced.pass_ap else {}
    if args.workload != "train":
        manifest, model, _ = state
        ref = manifest["reference"]
        ap = workloads.reference_ap(model, workloads.SCORE_THRESH[args.workload], manifest)
        checks["reference_ap_matches"] = abs(ap - ref["ap"][args.workload]) <= ref["ap_tolerance"]
        info["reference_ap"] = ap
    failed_ops = untraced.failed + traced.failed
    failed = failed_ops + sum(not ok for ok in checks.values())
    attempted = untraced.attempted + traced.attempted + len(checks)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "checks": checks,
        "summary": summary(measured, setups), "failed_ops": failed_ops, **info,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_jsonl(RESULTS / f"{stem}.spans.jsonl")
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({**report, "result": result, "op_s": measured.op_s,
                   "norm_op_s": measured.norm_op_s(), "cal_s": measured.cal_s}, f)
    return result, report


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    bootstrap()
    args = parse_args(argv)
    if args.setup_only:
        print(json.dumps(probe_setup(args.workload, args.seed)))
        return 0
    result, report = run(args)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
