"""Diagnostic analyses of dense detection quality.

Three views, all computed from a trained model on synthetic scenes:

  * accuracy maps: per object, the per-grid confidence on the true class and
    the negated absolute regression error of each box side;
  * best-location histograms: where (in box-normalized coordinates) the most
    accurate estimate of each target comes from;
  * point-to-edge distance distributions for the point configurations that
    can localize a side: the raw grid center, the grid displaced by the
    coarse regression, the coarse edge midpoint, and the dynamic boundary
    point.

The point-to-edge distance is the Euclidean distance from the point to the
matching ground-truth edge segment, component-wise normalized by box
width/height; histograms span [0, 1.5]. A secondary diagnostic distance to
the edge center is also reported: for rectangle silhouettes every position
on the edge is equidistant from the segment, so the center variant is the
only view in which movement along the edge registers at all.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import fold_boxes, iou_array
from .model import DetectionModel
from .scenes import GroundTruth
from .training import assign_samples

__all__ = [
    "AccuracyMaps",
    "compute_accuracy_maps",
    "best_location_histogram",
    "point_distance_distribution",
    "HIST_BINS",
    "HIST_RANGE",
    "DISTANCE_CONFIGS",
    "TARGETS",
]

HIST_BINS = 21
HIST_RANGE = (-0.5, 1.5)
TARGETS = ("l", "t", "r", "b", "c")
DISTANCE_CONFIGS = ("grid", "grid_offset", "midpoint", "dynamic")
_SIDES = ("l", "t", "r", "b")


@dataclass
class AccuracyMaps:
    """Per-object accuracy over one level's grid (full level extents)."""

    level: int
    stride: int
    gt_box: np.ndarray        # [4]
    label: int
    cls_conf: np.ndarray      # [h,w] score on the true class
    inv_err: np.ndarray       # [4,h,w] negated |predicted edge - gt edge|
    det_iou: np.ndarray       # [h,w] IoU of the grid's collected box vs gt
    valid: np.ndarray         # [h,w] grids inside the dilated gt box


def compute_accuracy_maps(model: DetectionModel, image, gt: GroundTruth,
                          level: int = 0, margin: float = 0.5,
                          state=None) -> list[AccuracyMaps]:
    """Accuracy maps for every ground truth of one scene.

    Grids whose centers fall inside the gt box dilated by ``margin`` times
    its extents are marked valid. Ground truths without any valid grid at
    the chosen level are skipped with a warning. A level outside
    ``[0, levels)`` raises ValueError.
    """
    if not 0 <= level < model.config.levels:
        raise ValueError(f"level {level} is outside the pyramid's [0, {model.config.levels})")
    if state is None:
        state = model.forward(np.asarray(image, dtype=np.float64))
    col, lmaps = state.collection, state.maps[level]
    sl = col.cuts[level]
    h, w = lmaps.h, lmaps.w
    cx = col.grid_cx[sl].reshape(h, w)
    cy = col.grid_cy[sl].reshape(h, w)
    pred, _, _ = fold_boxes(col.boxes[sl])  # same folded view inference uses
    out = []
    for k in range(len(gt)):
        box = gt.boxes[k]
        label = int(gt.labels[k])
        bw = box[2] - box[0]
        bh = box[3] - box[1]
        valid = (
            (cx >= box[0] - margin * bw) & (cx <= box[2] + margin * bw)
            & (cy >= box[1] - margin * bh) & (cy <= box[3] + margin * bh)
        )
        if not valid.any():
            warnings.warn(
                f"ground truth {k} has no interior grids at level {level}; skipped"
            )
            continue
        conf = col.scores[label, sl].reshape(h, w).copy()
        inv_err = -np.abs(pred - box[None, :]).T.reshape(4, h, w)
        det_iou = iou_array(pred, box[None, :]).reshape(h, w)
        out.append(
            AccuracyMaps(level=level, stride=lmaps.stride, gt_box=box.copy(), label=label,
                         cls_conf=conf, inv_err=inv_err, det_iou=det_iou, valid=valid)
        )
    return out


def best_location_histogram(maps: list[AccuracyMaps], bins: int = HIST_BINS,
                            value_range=HIST_RANGE, iou_min: float = 0.5) -> dict:
    """Bin the argmax locations of each target over box-normalized coordinates.

    Only grids with collected-box IoU above ``iou_min`` (and inside the
    dilated box) compete. Returns ``{"hist": {target: [bins,bins]},
    "analyzed": n, "bins": bins, "range": value_range}``; each target's bin
    counts sum to the number of analyzed objects.
    """
    lo, hi = value_range
    hists = {t: np.zeros((bins, bins), dtype=np.int64) for t in TARGETS}
    analyzed = 0
    for m in maps:
        eligible = m.valid & (m.det_iou > iou_min)
        if not eligible.any():
            continue
        analyzed += 1
        h, w = eligible.shape
        iy, ix = np.nonzero(eligible)
        cx = (ix + 0.5) * m.stride
        cy = (iy + 0.5) * m.stride
        bw = m.gt_box[2] - m.gt_box[0]
        bh = m.gt_box[3] - m.gt_box[1]
        nx = (cx - m.gt_box[0]) / bw
        ny = (cy - m.gt_box[1]) / bh
        for t in TARGETS:
            values = m.cls_conf if t == "c" else m.inv_err[_SIDES.index(t)]
            flat_vals = values[iy, ix]
            best = int(flat_vals.argmax())
            bx = int(np.clip((nx[best] - lo) / (hi - lo) * bins, 0, bins - 1))
            by = int(np.clip((ny[best] - lo) / (hi - lo) * bins, 0, bins - 1))
            hists[t][by, bx] += 1
    return {"hist": hists, "analyzed": analyzed, "bins": bins, "range": tuple(value_range)}


# per side: True for the vertical edges (l, r), whose x is fixed
_VERTICAL = np.array([True, False, True, False])


def _edge_distance(px, py, boxes):
    """Normalized distance from points to gt edge segments.

    ``px``, ``py`` broadcast against ``boxes`` [P,4]; column k is side k.
    """
    l, t, r, b = (boxes[:, i:i + 1] for i in range(4))
    bw = np.maximum(r - l, 1e-9)
    bh = np.maximum(b - t, 1e-9)
    # along a vertical edge x is fixed and y spans [t, b]; the reverse for a horizontal one
    beyond_x = np.maximum(0.0, np.abs(px - 0.5 * (l + r)) - 0.5 * (r - l))
    beyond_y = np.maximum(0.0, np.abs(py - 0.5 * (t + b)) - 0.5 * (b - t))
    dx = np.where(_VERTICAL, px - boxes, beyond_x)
    dy = np.where(_VERTICAL, beyond_y, py - boxes)
    return np.hypot(dx / bw, dy / bh)


def _edge_center_distance(px, py, boxes):
    """Normalized distance from points to the centers of gt edges, laid out
    as in :func:`_edge_distance`."""
    l, t, r, b = (boxes[:, i:i + 1] for i in range(4))
    bw = np.maximum(r - l, 1e-9)
    bh = np.maximum(b - t, 1e-9)
    edge_x = np.where(_VERTICAL, boxes, 0.5 * (l + r))
    edge_y = np.where(_VERTICAL, 0.5 * (t + b), boxes)
    return np.hypot((px - edge_x) / bw, (py - edge_y) / bh)


def point_distance_distribution(model: DetectionModel, scenes, bins: int = 30,
                                dist_range=(0.0, 1.5)) -> dict:
    """Normalized point-to-edge distances per point configuration.

    For every positive grid and every side, four candidate sampling points
    are measured against the matching ground-truth edge: the grid center, the
    grid displaced to the coarse edge along the side's axis, the coarse edge
    midpoint, and the dynamic boundary point. Returns per-config pooled
    distances, medians, and fixed-range histograms.
    """
    # per config, one [P,4] array (positive, side) per scene
    dist = {c: [np.zeros((0, 4))] for c in DISTANCE_CONFIGS}
    center = {c: [np.zeros((0, 4))] for c in DISTANCE_CONFIGS}
    for image, gt in scenes:
        if len(gt) == 0:
            continue
        state = model.forward(np.asarray(image, dtype=np.float64))
        col = state.collection
        asn = assign_samples(col, gt)
        pos = asn.pos_grid
        box = gt.boxes[asn.pos_gt]
        cx = col.grid_cx[pos, None]
        cy = col.grid_cy[pos, None]
        coarse = col.coarse[pos]  # L,T,R,B
        midx = 0.5 * (coarse[:, 0:1] + coarse[:, 2:3])
        midy = 0.5 * (coarse[:, 1:2] + coarse[:, 3:4])
        # points per configuration, in image space; each side moves its own coordinate
        points = {
            "grid": (cx, cy),
            "grid_offset": (np.where(_VERTICAL, coarse, cx), np.where(_VERTICAL, cy, coarse)),
            "midpoint": (np.where(_VERTICAL, coarse, midx), np.where(_VERTICAL, midy, coarse)),
            "dynamic": (col.bx[:, pos].T, col.by[:, pos].T),
        }
        for cfg_name, (px, py) in points.items():
            dist[cfg_name].append(_edge_distance(px, py, box))
            center[cfg_name].append(_edge_center_distance(px, py, box))

    lo, hi = dist_range
    result = {}
    for cfg_name in DISTANCE_CONFIGS:
        per_side = np.concatenate(dist[cfg_name])
        arr = per_side.ravel()  # pooled in (scene, positive, side) order
        to_center = np.concatenate(center[cfg_name]).ravel()
        hist, _ = np.histogram(arr, bins=bins, range=(lo, hi))
        result[cfg_name] = {
            "count": int(arr.size),
            "median": float(np.median(arr)) if arr.size else float("nan"),
            "mean": float(arr.mean()) if arr.size else float("nan"),
            "median_to_edge_center": (float(np.median(to_center)) if to_center.size
                                      else float("nan")),
            "histogram": hist.tolist(),
            "per_side_median": {
                s: (float(np.median(per_side[:, k])) if len(per_side) else float("nan"))
                for k, s in enumerate(_SIDES)
            },
        }
    result["bins"] = bins
    result["range"] = (lo, hi)
    return result
