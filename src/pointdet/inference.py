"""Detection decoding, class-wise NMS, and COCO-style average precision."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, clamp_box, iou_matrix
from .model import DetectionModel, ModelState
from .scenes import GroundTruth

__all__ = [
    "Detection",
    "decode_detections",
    "nms",
    "detect",
    "postprocess",
    "average_precision",
    "write_detections",
    "read_detections",
    "write_ground_truths",
    "read_ground_truths",
    "DEFAULT_SCORE_THRESH",
    "DEFAULT_TOPK_PER_LEVEL",
    "DEFAULT_MAX_DETECTIONS",
    "DEFAULT_NMS_IOU",
    "AP_IOU_THRESHOLDS",
]

DEFAULT_SCORE_THRESH = 0.05
DEFAULT_TOPK_PER_LEVEL = 1000
DEFAULT_MAX_DETECTIONS = 100
DEFAULT_NMS_IOU = 0.6
AP_IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass
class Detection:
    box: Box
    class_id: int
    score: float
    image_id: int = 0
    source_level: int | None = field(default=None, compare=False)
    source_grid: int | None = field(default=None, compare=False)


def decode_detections(state: ModelState, image_width: float, image_height: float,
                      score_thresh: float = DEFAULT_SCORE_THRESH,
                      topk_per_level: int = DEFAULT_TOPK_PER_LEVEL) -> list[Detection]:
    """Threshold and top-k filter the per-grid collected results.

    Per level: keep grid-class pairs with score strictly above the threshold,
    cap at ``topk_per_level`` by score (ties keep lower flat index), fold and
    clamp boxes to the image, concatenate levels.
    """
    if not (0.0 <= score_thresh < 1.0):
        raise ValueError(f"score threshold must be in [0,1), got {score_thresh}")
    if topk_per_level < 1:
        raise ValueError(f"topk_per_level must be >= 1, got {topk_per_level}")
    out: list[Detection] = []
    for col in state.collections:
        scores = col.scores  # [C,G]
        c, g = scores.shape
        flat_scores = scores.ravel()
        keep = np.nonzero(flat_scores > score_thresh)[0]
        if len(keep) == 0:
            continue
        if len(keep) > topk_per_level:
            order = np.lexsort((keep, -flat_scores[keep]))
            keep = keep[order[:topk_per_level]]
        for fi in keep:
            ci, gi = divmod(int(fi), g)
            bl, bt, br, bb = col.boxes[gi]
            box = Box(min(bl, br), min(bt, bb), max(bl, br), max(bt, bb))
            box = clamp_box(box, image_width, image_height)
            out.append(
                Detection(box=box, class_id=ci, score=float(flat_scores[fi]),
                          source_level=col.level, source_grid=gi)
            )
    return out


def nms(dets: list[Detection], iou_thresh: float = DEFAULT_NMS_IOU) -> list[Detection]:
    """Greedy class-wise non-maximum suppression.

    Repeatedly keeps the highest-score remaining detection (ties: earlier
    insertion) and suppresses same-class detections with IoU strictly above
    the threshold.
    """
    if not (0.0 < iou_thresh <= 1.0):
        raise ValueError(f"NMS IoU threshold must be in (0,1], got {iou_thresh}")
    if not dets:
        return []
    scores = np.array([d.score for d in dets])
    order = np.lexsort((np.arange(len(dets)), -scores))
    boxes = np.array([d.box.as_array() for d in dets])
    classes = np.array([d.class_id for d in dets])
    suppressed = np.zeros(len(dets), dtype=bool)
    kept: list[int] = []
    for idx in order:
        if suppressed[idx]:
            continue
        kept.append(int(idx))
        same = (classes == classes[idx]) & ~suppressed
        same[idx] = False
        cand = np.nonzero(same)[0]
        if len(cand):
            overl = iou_matrix(boxes[idx][None], boxes[cand])[0]
            suppressed[cand[overl > iou_thresh]] = True
    return [dets[i] for i in kept]


def detect(model: DetectionModel, image, score_thresh: float = DEFAULT_SCORE_THRESH,
           topk_per_level: int = DEFAULT_TOPK_PER_LEVEL,
           nms_iou: float = DEFAULT_NMS_IOU,
           max_detections: int = DEFAULT_MAX_DETECTIONS,
           image_id: int = 0) -> list[Detection]:
    """Full inference for one image: forward, then :func:`postprocess`."""
    image = np.asarray(image, dtype=np.float64)
    return postprocess(model.forward(image), image.shape[2], image.shape[1], score_thresh,
                       topk_per_level, nms_iou, max_detections, image_id)


def postprocess(state: ModelState, image_width: float, image_height: float,
                score_thresh: float = DEFAULT_SCORE_THRESH,
                topk_per_level: int = DEFAULT_TOPK_PER_LEVEL,
                nms_iou: float = DEFAULT_NMS_IOU,
                max_detections: int = DEFAULT_MAX_DETECTIONS,
                image_id: int = 0) -> list[Detection]:
    """Detections of one forward pass: decode, NMS, cap."""
    dets = decode_detections(state, image_width, image_height, score_thresh, topk_per_level)
    dets = nms(dets, nms_iou)[:max_detections]  # nms output is already score-sorted
    for d in dets:
        d.image_id = image_id
    return dets


# ---------------------------------------------------------------------------
# average precision


def _interpolated_ap(tp_flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from ordered TP/FP flags."""
    if n_gt == 0:
        return 0.0
    if len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope: best precision at recall >= r
    ap = 0.0
    for r in _RECALL_POINTS:
        mask = recall >= r - 1e-12
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / len(_RECALL_POINTS)


def average_precision(dets_per_image: dict, gts_per_image: dict,
                      iou_thresholds=AP_IOU_THRESHOLDS) -> dict:
    """COCO-style AP over IoU thresholds 0.50:0.05:0.95.

    ``dets_per_image`` maps image id to a list of Detections;
    ``gts_per_image`` maps image id to a GroundTruth. Detections are matched
    greedily in score order (ties: image id, then insertion order) to the
    best unmatched ground truth of the same class with IoU >= threshold (IoU
    ties pick the lowest gt index). Classes with zero ground truths are
    excluded from the means. Returns ``{"AP", "AP50", "AP75", "per_class"}``.
    """
    image_ids = sorted(gts_per_image.keys())
    classes = set()
    for img in image_ids:
        classes.update(int(label) for label in gts_per_image[img].labels)
    iou_thresholds = [float(t) for t in iou_thresholds]

    per_class: dict[int, float] = {}
    per_class_at: dict[float, dict[int, float]] = {t: {} for t in iou_thresholds}
    for cls in sorted(classes):
        n_gt = sum(int((gts_per_image[i].labels == cls).sum()) for i in image_ids)
        # global score-ordered detection list for this class
        entries = []
        for img in image_ids:
            for k, det in enumerate(dets_per_image.get(img, [])):
                if det.class_id == cls:
                    entries.append((-det.score, img, k, det))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        gt_boxes = {i: gts_per_image[i].boxes[gts_per_image[i].labels == cls] for i in image_ids}

        aps = []
        for thr in iou_thresholds:
            matched = {i: np.zeros(len(gt_boxes[i]), dtype=bool) for i in image_ids}
            flags = np.zeros(len(entries), dtype=bool)
            for n, (_, img, _, det) in enumerate(entries):
                boxes = gt_boxes[img]
                if len(boxes) == 0:
                    continue
                ious = iou_matrix(det.box.as_array()[None], boxes)[0]
                ious = np.where(matched[img], -1.0, ious)
                best = int(ious.argmax())
                if ious[best] >= thr:
                    matched[img][best] = True
                    flags[n] = True
            ap_t = _interpolated_ap(flags, n_gt)
            aps.append(ap_t)
            per_class_at[thr][cls] = ap_t
        per_class[cls] = float(np.mean(aps))

    def mean_over_classes(values: dict[int, float]) -> float:
        return float(np.mean(list(values.values()))) if values else 0.0

    report = {
        "AP": mean_over_classes(per_class),
        "AP50": mean_over_classes(per_class_at.get(0.5, {})),
        "AP75": mean_over_classes(per_class_at.get(0.75, {})),
        "per_class": {int(k): float(v) for k, v in per_class.items()},
    }
    return report


# ---------------------------------------------------------------------------
# JSONL wire formats


def write_detections(path, dets_per_image: dict) -> None:
    """One JSON object per line: {image_id, class_id, score, box:[l,t,r,b]}."""
    with open(path, "w", encoding="utf-8") as f:
        for img in sorted(dets_per_image.keys()):
            for det in dets_per_image[img]:
                rec = {
                    "image_id": int(img),
                    "class_id": int(det.class_id),
                    "score": float(det.score),
                    "box": [det.box.l, det.box.t, det.box.r, det.box.b],
                }
                f.write(json.dumps(rec) + "\n")


def read_detections(path) -> dict:
    out: dict[int, list[Detection]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            det = Detection(
                box=Box(*rec["box"]), class_id=int(rec["class_id"]),
                score=float(rec["score"]), image_id=int(rec["image_id"]),
            )
            out.setdefault(det.image_id, []).append(det)
    return out


def write_ground_truths(path, gts_per_image: dict) -> None:
    """Ground-truth JSONL: {image_id, class_id, box:[l,t,r,b]} per object,
    and one bare {image_id} line for an image without objects."""
    with open(path, "w", encoding="utf-8") as f:
        for img in sorted(gts_per_image.keys()):
            gt = gts_per_image[img]
            if len(gt) == 0:
                f.write(json.dumps({"image_id": int(img)}) + "\n")
            for box, label in zip(gt.boxes, gt.labels):
                rec = {
                    "image_id": int(img),
                    "class_id": int(label),
                    "box": [float(v) for v in box],
                }
                f.write(json.dumps(rec) + "\n")


def read_ground_truths(path) -> dict:
    rows: dict[int, list] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            recs = rows.setdefault(int(rec["image_id"]), [])
            if ("class_id" in rec) != ("box" in rec):
                raise ValueError(
                    f"ground-truth line {lineno} of {str(path)!r} has only one of "
                    f"'class_id' and 'box'; an image without objects has neither"
                )
            if "box" in rec:
                recs.append(rec)
    out = {}
    for img, recs in rows.items():
        boxes = np.array([r["box"] for r in recs], dtype=np.float64)
        labels = np.array([r["class_id"] for r in recs], dtype=np.int64)
        out[img] = GroundTruth(boxes, labels)
    return out
