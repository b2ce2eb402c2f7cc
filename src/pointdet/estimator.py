"""Scikit-learn style estimator facade.

``PointDetector`` wraps model construction, the training loop, and inference
behind ``fit`` / ``predict`` / ``score`` with ``get_params`` / ``set_params``
so it composes with the wider estimator ecosystem (duck-typed; no sklearn
dependency). Training data is a stack of images plus per-image box/label
annotations; scenes can also be produced with :func:`pointdet.scenes.generate_scene`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import TrainConfig
from .inference import (
    DEFAULT_MAX_DETECTIONS,
    DEFAULT_NMS_IOU,
    DEFAULT_SCORE_THRESH,
    average_precision,
    detect,
)
from .model import ModelConfig
from .scenes import GroundTruth, check_int
from .training import train_model

__all__ = ["PointDetector", "check_images", "check_annotations"]


def check_images(X) -> np.ndarray:
    """Validate detection inputs into an [n,3,H,W] float64 stack."""
    try:
        arr = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValueError(f"images are not numeric array-like: {e}") from e
    if arr.ndim == 3 and arr.shape[0] == 3:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[1] != 3:
        raise ValueError(
            f"expected images shaped [n,3,H,W] (or a single [3,H,W]), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("images contain non-finite values")
    return arr


def check_annotations(y, n_images: int, classes: int) -> list[GroundTruth]:
    """Validate per-image annotations.

    Accepts GroundTruth instances, ``(boxes, labels)`` pairs, or dicts with
    ``boxes``/``labels`` keys; boxes are [M,4], labels M integers in
    [0, classes). A malformed annotation raises one ValueError naming its index.
    """
    if y is None:
        raise ValueError("annotations are required for fitting")
    items = list(y)
    if len(items) != n_images:
        raise ValueError(f"{n_images} images but {len(items)} annotation entries")
    return [_annotation(item, classes, f"annotation {i}") for i, item in enumerate(items)]


def _annotation(item, classes: int, where: str) -> GroundTruth:
    if isinstance(item, GroundTruth):
        boxes, labels = item.boxes, item.labels
    elif isinstance(item, dict) and "boxes" in item and "labels" in item:
        boxes, labels = item["boxes"], item["labels"]
    elif isinstance(item, (tuple, list)) and len(item) == 2:
        boxes, labels = item
    else:
        raise ValueError(f"{where} must be a GroundTruth, a (boxes, labels) pair or a dict "
                         f"with 'boxes' and 'labels', got {type(item).__name__}")
    try:
        gt = GroundTruth(boxes, labels)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
    if len(gt) and (gt.labels.min() < 0 or gt.labels.max() >= classes):
        raise ValueError(f"{where} has labels outside [0, {classes}): {gt.labels}")
    return gt


@dataclass(eq=False)
class PointDetector:
    """Prediction-decoupled dense detector with a fit/predict interface.

    Parameters mirror the training config: model shape (classes, semantic
    point count, pyramid levels, neighbor level offsets, collection mode)
    and optimization settings, with their defaults. ``fit`` trains from scratch
    on the path ``pointdet train`` takes; ``predict`` returns per-image Detection
    lists; ``score`` is the COCO-style AP on the given annotations. The repr
    lists the parameters; equality and hashing stay by identity.
    """

    classes: int = ModelConfig.classes
    n_semantic: int = ModelConfig.n_semantic
    channels: int = ModelConfig.channels
    levels: int = ModelConfig.levels
    neighbor_offsets: tuple = ModelConfig.neighbor_offsets
    mode: str = ModelConfig.mode
    iters: int = TrainConfig.iters
    lr: float = TrainConfig.lr
    momentum: float = TrainConfig.momentum
    weight_decay: float = TrainConfig.weight_decay
    lambda1: float = TrainConfig.lambda1
    lambda2: float = TrainConfig.lambda2
    score_thresh: float = DEFAULT_SCORE_THRESH
    nms_iou: float = DEFAULT_NMS_IOU
    max_detections: int = DEFAULT_MAX_DETECTIONS
    seed: int = TrainConfig.seed

    # -- sklearn protocol ------------------------------------------------
    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "PointDetector":
        valid = {f.name for f in fields(self)}
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for PointDetector; valid: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    # -- estimator API -----------------------------------------------------
    def fit(self, X, y) -> "PointDetector":
        """Train on images ``X`` [n,3,H,W] with per-image annotations ``y``.

        Iterations cycle deterministically over the provided scenes.
        """
        images = check_images(X)
        gts = check_annotations(y, len(images), self.classes)
        shape = {f.name: getattr(self, f.name) for f in fields(ModelConfig)}
        config = ModelConfig(**dict(shape, neighbor_offsets=tuple(self.neighbor_offsets)))
        check_int("seed", self.seed, 0)  # the order draws from it before the model does
        order = np.random.default_rng([self.seed, 2]).permutation(len(images))

        def provider(it):
            idx = int(order[it % len(order)])
            return images[idx], gts[idx]

        self.model_, self.history_ = train_model(config, self, provider)
        return self

    def _require_fitted(self):
        if not hasattr(self, "model_"):
            raise RuntimeError("this PointDetector is not fitted yet; call fit first")

    def predict(self, X) -> list:
        """Detections for each image: a list of Detection lists."""
        self._require_fitted()
        images = check_images(X)
        return [
            detect(self.model_, img, score_thresh=self.score_thresh,
                   nms_iou=self.nms_iou, max_detections=self.max_detections,
                   image_id=i)
            for i, img in enumerate(images)
        ]

    def score(self, X, y) -> float:
        """COCO-style AP (mean over IoU 0.50:0.05:0.95) on the given data."""
        self._require_fitted()
        images = check_images(X)
        gts = check_annotations(y, len(images), self.classes)
        dets = {i: d for i, d in enumerate(self.predict(images))}
        report = average_precision(dets, dict(enumerate(gts)))
        return report["AP"]
