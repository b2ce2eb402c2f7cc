"""Detection decoding, class-wise NMS, COCO-style average precision, and the
JSONL wire formats.

Post-processing runs on arrays from the collection to the final cap.
:func:`decode_detections` returns one :class:`Candidates` struct of arrays,
:func:`nms` takes box, score and class arrays and returns the kept indices,
and :func:`postprocess` (and so :func:`detect`) builds :class:`Detection`
objects only for the at most ``max_detections`` survivors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, fold_boxes, iou_matrix
from .model import DetectionModel, ModelState
from .scenes import GroundTruth, check_int, check_real

__all__ = [
    "Detection",
    "Candidates",
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
    "TOPK_PER_LEVEL",
    "DEFAULT_MAX_DETECTIONS",
    "DEFAULT_NMS_IOU",
    "AP_IOU_THRESHOLDS",
]

DEFAULT_SCORE_THRESH = 0.05
TOPK_PER_LEVEL = 1000
DEFAULT_MAX_DETECTIONS = 100
DEFAULT_NMS_IOU = 0.6
AP_IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)
# NMS fills its table of IoU > threshold over the distinct boxes in blocks of
# rows of at most this many pairs, each against the columns from the block on:
# the float temporaries of a block stay in cache (a whole 336 x 336 float
# matrix at once ran 3x slower) and only the boolean table stays alive.
_IOU_BLOCK_PAIRS = 1 << 14


@dataclass
class Detection:
    box: Box
    class_id: int
    score: float
    image_id: int = 0
    source_level: int | None = field(default=None, compare=False)
    source_grid: int | None = field(default=None, compare=False)


@dataclass
class Candidates:
    """Decoded candidates of one image as a struct of arrays, levels in
    collection order: ``boxes`` [n,4] (l, t, r, b) folded and clamped to the
    image, ``scores`` [n], and the integer arrays ``class_ids``, ``levels``
    and ``grids`` [n] (``grids`` is the grid index within its level)."""

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray
    levels: np.ndarray
    grids: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)


def decode_detections(state: ModelState, image_width: float, image_height: float,
                      score_thresh: float = DEFAULT_SCORE_THRESH) -> Candidates:
    """Threshold and top-k filter the per-grid collected results.

    Per level: keep grid-class pairs with score strictly above the threshold,
    cap at ``TOPK_PER_LEVEL`` by score (ties keep lower flat index ``class *
    grids + grid``; below the cap, flat index order), then concatenate the
    levels, fold each box with :func:`~pointdet.geometry.fold_boxes` and clamp it to
    [0, width] x [0, height]. A surviving box with a non-finite coordinate
    raises ValueError, as does an image extent that is not a positive finite
    number.
    """
    check_real("score threshold", score_thresh, 0, 1, "[)")
    check_real("image_width", image_width, 0, ends="(]")
    check_real("image_height", image_height, 0, ends="(]")
    col = state.collection
    parts = []
    for level, sl in enumerate(col.cuts):
        flat_scores = col.scores[:, sl].ravel()  # [C*G_level], class-major
        keep = np.nonzero(flat_scores > score_thresh)[0]
        if len(keep) > TOPK_PER_LEVEL:
            keep = keep[np.lexsort((keep, -flat_scores[keep]))[:TOPK_PER_LEVEL]]
        class_ids, grids = np.divmod(keep, sl.stop - sl.start)
        parts.append((col.boxes[sl][grids], flat_scores[keep], class_ids,
                      np.full(len(keep), level), grids))
    boxes, scores, class_ids, levels, grids = (np.concatenate(p) for p in zip(*parts))
    finite = np.isfinite(boxes).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"decoded box coordinates must be finite, got {boxes[bad].tolist()} "
                         f"at level {levels[bad]}, grid {grids[bad]}")
    boxes = fold_boxes(boxes)[0]
    boxes = np.where(boxes < 0.0, 0.0, boxes)
    hi = np.array([image_width, image_height] * 2, dtype=np.float64)
    boxes = np.where(boxes > hi, hi, boxes)
    return Candidates(boxes, scores, class_ids, levels, grids)


def nms(boxes, scores, class_ids, iou_thresh: float = DEFAULT_NMS_IOU,
        max_kept: int | None = None) -> list[int]:
    """Greedy class-wise non-maximum suppression on arrays.

    ``boxes`` [n,4], ``scores`` [n], ``class_ids`` [n]. Repeatedly keeps the
    highest-score remaining entry (ties: lower index) and suppresses the
    same-class entries whose IoU with it is strictly above the threshold.
    Returns the kept indices in selection order, score descending, then
    index ascending: the contract of ``tests/oracles.py::nms_reference``.
    With ``max_kept``, returns the first ``max_kept`` of them.

    Classes of one grid share its box, so ``IoU > iou_thresh`` is built once
    as a table over the distinct boxes (by their bytes), each row packed into
    an int bitset. One scan in score order keeps an entry unless its box's
    bit is set in its class's suppression bitset, then ORs in the box's row.
    An entry is decided by the entries kept before it alone, so with a cap
    the table and scan cover the first ``2 * max_kept`` entries in score
    order, and the prefix doubles until the cap is met or it holds them all;
    each doubling builds the table and runs the scan afresh over the prefix.
    """
    check_real("iou_thresh", iou_thresh, 0, 1, "(]")
    if max_kept is not None:
        check_int("max_kept", max_kept, 1)
    boxes = np.ascontiguousarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    class_ids = np.asarray(class_ids).reshape(-1)
    if not len(boxes) == len(scores) == len(class_ids):
        raise ValueError(f"nms needs one score and class per box, got {len(boxes)} boxes, "
                         f"{len(scores)} scores and {len(class_ids)} class ids")
    order = np.lexsort((np.arange(len(scores)), -scores))
    size = len(order) if max_kept is None else 2 * max_kept
    keys = boxes.view(np.dtype((np.void, 32))).ravel()
    while True:
        chunk = order[:size]
        uniq, box_of = np.unique(keys[chunk], return_inverse=True)
        distinct, u, lo = uniq.view(np.float64).reshape(-1, 4), len(uniq), 0
        over = np.empty((u, u), dtype=bool)
        while lo < u:  # IoU is exactly symmetric: fill the upper triangle and mirror it
            hi = lo + max(1, _IOU_BLOCK_PAIRS // (u - lo))
            over[lo:hi, lo:] = iou_matrix(distinct[lo:hi], distinct[lo:]) > iou_thresh
            over[hi:, lo:hi] = over[lo:hi, hi:].T
            lo = hi
        rows = [int.from_bytes(r.tobytes(), "little")
                for r in np.packbits(over, axis=1, bitorder="little")]
        suppressed, kept = {}, []
        for i, b, cls in zip(chunk.tolist(), box_of.tolist(), class_ids[chunk].tolist()):
            bits = suppressed.get(cls, 0)
            if not bits >> b & 1:
                kept.append(i)
                if len(kept) == max_kept:
                    return kept
                suppressed[cls] = bits | rows[b]
        if size >= len(order):
            return kept
        size *= 2


def detect(model: DetectionModel, image, score_thresh: float = DEFAULT_SCORE_THRESH,
           nms_iou: float = DEFAULT_NMS_IOU,
           max_detections: int = DEFAULT_MAX_DETECTIONS,
           image_id: int = 0) -> list[Detection]:
    """Full inference for one image: forward, then :func:`postprocess`."""
    image = np.asarray(image, dtype=np.float64)
    return postprocess(model.forward(image, keep_cache=False), image.shape[2], image.shape[1],
                       score_thresh, nms_iou, max_detections, image_id)


def postprocess(state: ModelState, image_width: float, image_height: float,
                score_thresh: float = DEFAULT_SCORE_THRESH,
                nms_iou: float = DEFAULT_NMS_IOU,
                max_detections: int = DEFAULT_MAX_DETECTIONS,
                image_id: int = 0) -> list[Detection]:
    """Detections of one forward pass, score-sorted: decode, NMS, cap at
    ``max_detections``. Only the survivors become :class:`Detection` objects,
    carrying their ``source_level`` and ``source_grid``. A ``max_detections``
    that is not a positive integer, or an ``nms_iou`` that is not a number in
    (0,1], raises ValueError naming it."""
    check_int("max_detections", max_detections, 1)
    check_real("nms_iou", nms_iou, 0, 1, "(]")
    cand = decode_detections(state, image_width, image_height, score_thresh)
    kept = nms(cand.boxes, cand.scores, cand.class_ids, nms_iou, max_detections)
    return [
        Detection(Box(*box), class_id, score, image_id, level, grid)
        for box, class_id, score, level, grid in zip(
            cand.boxes[kept].tolist(), cand.class_ids[kept].tolist(), cand.scores[kept].tolist(),
            cand.levels[kept].tolist(), cand.grids[kept].tolist())
    ]


# ---------------------------------------------------------------------------
# average precision


def _interpolated_ap(tp_flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from ordered TP/FP flags."""
    if n_gt == 0 or len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    # precision envelope: best precision at recall >= r. Recall never falls,
    # so that is the suffix maximum from the first entry reaching r.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, _RECALL_POINTS - 1e-12, side="left")
    ap = 0.0
    for value in np.where(first < len(recall), envelope[np.minimum(first, len(recall) - 1)], 0.0):
        ap += value  # in recall-point order, so the sum rounds the same every time
    return ap / len(_RECALL_POINTS)


def average_precision(dets_per_image: dict, gts_per_image: dict) -> dict:
    """COCO-style AP over the IoU thresholds ``AP_IOU_THRESHOLDS``, 0.50:0.05:0.95.

    ``dets_per_image`` maps image id to a list of Detections;
    ``gts_per_image`` maps image id to a GroundTruth. Detections are matched
    greedily in score order (ties: image id, then insertion order) to the
    best unmatched ground truth of the same class with IoU >= threshold (IoU
    ties pick the lowest gt index). Classes with zero ground truths are
    excluded from the means. Returns ``{"AP", "AP50", "AP75", "per_class"}``.

    Matching in one image never affects another, so each (image, class)
    pair computes its detection-to-gt IoU matrix once and matches at all
    thresholds together.
    """
    image_ids = sorted(gts_per_image.keys())
    classes = set()
    for img in image_ids:
        classes.update(int(label) for label in gts_per_image[img].labels)
    thresholds = np.array(AP_IOU_THRESHOLDS)
    every_t = np.arange(len(thresholds))

    # every detection of the evaluated images: image position, index in its list
    dets = [(n, k, d) for n, img in enumerate(image_ids)
            for k, d in enumerate(dets_per_image.get(img, []))]
    det_img = np.array([n for n, _, _ in dets], dtype=np.int64)
    det_k = np.array([k for _, k, _ in dets], dtype=np.int64)
    det_cls = np.array([d.class_id for _, _, d in dets], dtype=np.int64)
    det_score = np.array([d.score for _, _, d in dets], dtype=np.float64)
    det_boxes = np.array([(d.box.l, d.box.t, d.box.r, d.box.b) for _, _, d in dets],
                         dtype=np.float64).reshape(-1, 4)

    aps: dict[int, list] = {}  # per class, its AP at each IoU threshold
    for cls in sorted(classes):
        n_gt = sum(int((gts_per_image[i].labels == cls).sum()) for i in image_ids)
        # global score-ordered detection list for this class
        entries = np.nonzero(det_cls == cls)[0]
        entries = entries[np.lexsort((det_k[entries], det_img[entries], -det_score[entries]))]
        flags = np.zeros((len(thresholds), len(entries)), dtype=bool)
        for n, img in enumerate(image_ids):
            gt_boxes = gts_per_image[img].boxes[gts_per_image[img].labels == cls]
            pos = np.nonzero(det_img[entries] == n)[0]  # this image's entries, in order
            if len(gt_boxes) == 0 or len(pos) == 0:
                continue
            ious = iou_matrix(det_boxes[entries[pos]], gt_boxes)
            # an entry whose best IoU is below the lowest threshold matches nothing
            live = ious.max(axis=1) >= thresholds[0]
            matched = np.zeros((len(thresholds), len(gt_boxes)), dtype=bool)
            for p, row in zip(pos[live], ious[live]):
                masked = np.where(matched, -1.0, row)
                best = masked.argmax(axis=1)
                hit = masked[every_t, best] >= thresholds
                matched[every_t[hit], best[hit]] = True
                flags[:, p] = hit
        aps[cls] = [_interpolated_ap(flags[t], n_gt) for t in every_t]

    def mean_over_classes(values: list) -> float:
        return float(np.mean(values)) if values else 0.0

    per_class = {cls: float(np.mean(a)) for cls, a in aps.items()}
    at50, at75 = (AP_IOU_THRESHOLDS.index(t) for t in (0.5, 0.75))
    return {"AP": mean_over_classes(list(per_class.values())),
            "AP50": mean_over_classes([a[at50] for a in aps.values()]),
            "AP75": mean_over_classes([a[at75] for a in aps.values()]), "per_class": per_class}


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


def _jsonl_records(path, what: str):
    """``(where, record)`` for each non-blank line of a JSONL file, where
    ``where`` names the line and the file for error messages. A line that
    is not a JSON object with an integer ``image_id`` raises ValueError."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{what} line {lineno} of {str(path)!r}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{where} is not valid JSON: {e.msg}") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{where} is not a JSON object")
            _integer(rec, "image_id", where)
            yield where, rec


def _integer(rec: dict, key: str, where: str) -> int:
    value = rec.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or not -2**63 <= value < 2**63:
        raise ValueError(f"{where} needs an integer {key!r}, got {value!r}")
    return value


def _finite(value) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


def _box(rec: dict, where: str) -> list[float]:
    box = rec.get("box")
    coords = [_finite(v) for v in box] if isinstance(box, list) and len(box) == 4 else [None]
    if None in coords or coords[2] < coords[0] or coords[3] < coords[1]:
        raise ValueError(f"{where} needs a 'box' of 4 finite numbers [l, t, r, b] with "
                         f"r >= l and b >= t, got {box!r}")
    return coords


def read_detections(path) -> dict:
    """Image id -> list of Detections, from :func:`write_detections` JSONL.
    A malformed line raises ValueError naming the file and the line."""
    out: dict[int, list[Detection]] = {}
    for where, rec in _jsonl_records(path, "detection"):
        score = _finite(rec.get("score"))
        if score is None:
            raise ValueError(f"{where} needs a finite number 'score', got {rec.get('score')!r}")
        det = Detection(box=Box(*_box(rec, where)), class_id=_integer(rec, "class_id", where),
                        score=score, image_id=rec["image_id"])
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
    """Image id -> GroundTruth, from :func:`write_ground_truths` JSONL.
    A malformed line raises ValueError naming the file and the line."""
    rows: dict[int, list] = {}
    for where, rec in _jsonl_records(path, "ground-truth"):
        objects = rows.setdefault(rec["image_id"], [])
        if ("class_id" in rec) != ("box" in rec):
            raise ValueError(
                f"{where} has only one of 'class_id' and 'box'; an image without "
                f"objects has neither"
            )
        if "box" in rec:
            objects.append((_box(rec, where), _integer(rec, "class_id", where)))
    return {
        img: GroundTruth([box for box, _ in objects], [label for _, label in objects])
        for img, objects in rows.items()
    }
