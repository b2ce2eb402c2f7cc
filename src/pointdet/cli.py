"""Command-line interface.

Subcommands: gen-data, train, eval, gradcheck, analyze, render, ablate.
Every command is deterministic given its seed/config; failures exit nonzero
with a single machine-readable JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

from . import analysis, dataio, gradcheck, ppm
from .config import TrainConfig, format_config, load_config
from .inference import average_precision, detect, postprocess, write_detections
from .model import MODES, DetectionModel, ModelConfig
from .scenes import GroundTruth, check_real
from .training import TrainingDiverged, holdout_scenes, train_from_config

__all__ = ["main", "build_parser"]


def _count(minimum):
    """Argparse type: an integer of at least ``minimum``."""
    def count(text):
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text}")
        return int(text)
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointdet",
        description="Prediction-decoupled toy detector: data, training, eval, analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic scene dataset")
    p.add_argument("--seed", type=_count(0), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--image-size", type=_count(1), default=64)
    p.add_argument("--max-objects", type=_count(1), default=3)
    p.add_argument("--classes", type=_count(1), default=3)
    p.add_argument("--render", action="store_true", help="also write PPM previews")

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=MODES, default=ModelConfig.mode)
    p.add_argument("--assign", choices=("coarse-iou", "inside-box"), default="coarse-iou",
                   help="positive-sample rule; inside-box is the dense recipe "
                        "used to train the accuracy-map analysis baseline")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--score-thresh", type=float, default=0.05)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--op", default=None, help="run a single named check")
    p.add_argument("--tolerance", type=float, default=gradcheck.DEFAULT_TOLERANCE)

    p = sub.add_parser("analyze", help="accuracy maps, histograms, point distances")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--max-heatmaps", type=_count(0), default=8)

    p = sub.add_parser("render", help="render detections and points over an image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True, help="input scene (.ppm or .npy)")
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=_count(1), default=4)
    p.add_argument("--score-thresh", type=float, default=0.3)

    p = sub.add_parser("ablate", help="train one collection mode and evaluate it")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--eval-count", type=_count(1), default=100)

    return parser


def _cmd_gen_data(args) -> int:
    manifest = dataio.write_dataset(
        args.out, seed=args.seed, count=args.count, width=args.image_size,
        height=args.image_size, max_objects=args.max_objects, classes=args.classes,
    )
    if args.render:
        images, _, _ = dataio.load_dataset(args.out)
        preview_dir = os.path.join(args.out, "previews")
        os.makedirs(preview_dir, exist_ok=True)
        for i, img in enumerate(images):
            ppm.render_scene(img, os.path.join(preview_dir, f"scene_{i:04d}.ppm"), scale=1)
    print(json.dumps(manifest, sort_keys=True))
    return 0


def _train_common(cfg: TrainConfig, mode: str, out_dir: str, assignment_rule="coarse-iou"):
    """Train, writing ``config.txt``, ``train_log.jsonl`` and ``model.pdn`` to
    ``out_dir``. The directory is made at the first log entry or checkpoint,
    after every check on the config has passed: a rejected config leaves none."""
    config_text = format_config(cfg)
    ckpt_path = os.path.join(out_dir, "model.pdn")
    with contextlib.ExitStack() as files:
        @functools.cache
        def open_run():
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as f:
                f.write(config_text)
            return files.enter_context(
                open(os.path.join(out_dir, "train_log.jsonl"), "w", encoding="utf-8"))

        try:
            model, history = train_from_config(
                cfg, mode=mode, assignment_rule=assignment_rule,
                log_fn=lambda entry: open_run().write(json.dumps(entry) + "\n"))
        except TrainingDiverged as e:
            # keep the last parameters that produced a finite loss
            open_run()
            e.model.save(ckpt_path)
            raise RuntimeError(
                f"training diverged: {e}; last-good checkpoint saved to {ckpt_path}"
            ) from e
        open_run()
    model.save(ckpt_path)
    return model, history, ckpt_path


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    model, history, ckpt_path = _train_common(cfg, args.mode, cfg.out_dir, args.assign)
    final = history[-1] if history else {}
    print(json.dumps({"checkpoint": ckpt_path, "final": final}, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    model = DetectionModel.load(args.ckpt)
    images, gts, _ = dataio.load_dataset(args.data)
    dets, detect_s = {}, []
    for i in range(len(images)):
        start = time.perf_counter()
        dets[i] = detect(model, images[i], score_thresh=args.score_thresh, image_id=i)
        detect_s.append(time.perf_counter() - start)
    report = average_precision(dets, gts)
    os.makedirs(os.path.dirname(os.path.abspath(args.report)), exist_ok=True)
    dataio.write_json(args.report, report)
    write_detections(os.path.splitext(args.report)[0] + "_detections.jsonl", dets)
    # latency goes to the printed line only: the report file stays deterministic
    ms = np.percentile(np.array(detect_s) * 1e3, [50, 90]).tolist() if detect_s else [None] * 2
    print(json.dumps({**report, "detect_ms_p50": ms[0], "detect_ms_p90": ms[1]}, sort_keys=True))
    return 0


def _cmd_gradcheck(args) -> int:
    check_real("--tolerance", args.tolerance, 0, ends="(]")
    names = [args.op] if args.op else None
    results = gradcheck.run_checks(names)
    ok = True
    for name, err in results.items():
        passed = err < args.tolerance
        ok &= passed
        print(f"{name}: max_rel_err={err:.3e} {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    model = DetectionModel.load(args.ckpt)
    images, gts, _ = dataio.load_dataset(args.data)
    all_maps = []
    scenes = []
    for i in range(len(images)):
        gt = gts.get(i, GroundTruth(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)))
        scenes.append((images[i], gt))
        if len(gt):
            all_maps.extend(
                analysis.compute_accuracy_maps(model, images[i], gt, level=args.level,
                                               margin=args.margin)
            )

    hist = analysis.best_location_histogram(all_maps)
    hist_json = {
        "analyzed": hist["analyzed"],
        "bins": hist["bins"],
        "range": list(hist["range"]),
        "hist": {t: h.tolist() for t, h in hist["hist"].items()},
    }
    dists = analysis.point_distance_distribution(model, scenes)
    # --out is made only now: arguments the analyses reject leave nothing behind
    heat_dir = os.path.join(args.out, "accuracy_maps")
    os.makedirs(heat_dir, exist_ok=True)
    dataio.write_json(os.path.join(args.out, "histograms.json"), hist_json)
    dataio.write_json(os.path.join(args.out, "distances.json"), dists)
    for n, m in enumerate(all_maps[: args.max_heatmaps]):
        ppm.render_heatmap(m.cls_conf, os.path.join(heat_dir, f"obj{n:03d}_cls.ppm"),
                           valid=m.valid)
        for side_idx, side in enumerate("ltrb"):
            ppm.render_heatmap(
                m.inv_err[side_idx],
                os.path.join(heat_dir, f"obj{n:03d}_{side}.ppm"), valid=m.valid,
            )
    summary = {
        "objects_analyzed": hist["analyzed"],
        "median_distances": {k: dists[k]["median"] for k in analysis.DISTANCE_CONFIGS},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _load_image_file(path) -> np.ndarray:
    if path.endswith(".npy"):
        img = np.load(path).astype(np.float64)
    elif path.endswith(".ppm"):
        img = ppm.read_ppm(path).astype(np.float64).transpose(2, 0, 1) / 255.0
    else:
        raise ValueError(f"unsupported image format {path!r} (expected .ppm or .npy)")
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"image {path!r} must be [3,H,W], got {img.shape}")
    return img


def _cmd_render(args) -> int:
    model = DetectionModel.load(args.ckpt)
    image = _load_image_file(args.image)
    state = model.forward(image, keep_cache=False)
    dets = postprocess(state, image.shape[2], image.shape[1], score_thresh=args.score_thresh)
    col = state.collection
    grids = [col.cuts[det.source_level].start + det.source_grid for det in dets]
    points = [(np.stack([col.bx[:, g], col.by[:, g]], axis=1),
               np.stack([col.sx[:, g], col.sy[:, g]], axis=1)) for g in grids]
    grid_points = [(col.grid_cx[g], col.grid_cy[g]) for g in grids]
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    ppm.render_scene(image, args.out, dets=dets, points=points,
                     grid_points=grid_points, scale=args.scale)
    print(json.dumps({"detections": len(dets), "out": args.out}, sort_keys=True))
    return 0


def _cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out_dir = os.path.join(cfg.out_dir, args.mode)
    model, history, ckpt_path = _train_common(cfg, args.mode, out_dir)
    scenes = holdout_scenes(cfg, args.eval_count)
    dets = {i: detect(model, img, image_id=i) for i, (img, _) in enumerate(scenes)}
    gts = {i: gt for i, (_, gt) in enumerate(scenes)}
    report = average_precision(dets, gts)
    dataio.write_json(os.path.join(out_dir, "report.json"), report)
    print(json.dumps({"mode": args.mode, "AP": report["AP"], "AP50": report["AP50"]},
                     sort_keys=True))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "analyze": _cmd_analyze,
    "render": _cmd_render,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # single machine-readable error line
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
