"""Scikit-learn style estimator facade.

``PointDetector`` wraps model construction, the training loop, and inference
behind ``fit`` / ``predict`` / ``score`` with ``get_params`` / ``set_params``
so it composes with the wider estimator ecosystem (duck-typed; no sklearn
dependency). Training data is a stack of images plus per-image box/label
annotations; scenes can also be produced with :func:`pointdet.scenes.generate_scene`.
"""

from __future__ import annotations

import inspect

import numpy as np

from .inference import (
    DEFAULT_MAX_DETECTIONS,
    DEFAULT_NMS_IOU,
    DEFAULT_SCORE_THRESH,
    average_precision,
    detect,
)
from .model import DetectionModel, ModelConfig
from .scenes import GroundTruth
from .training import run_training

__all__ = ["PointDetector", "check_images", "check_annotations"]


def check_images(X) -> np.ndarray:
    """Validate detection inputs into an [n,3,H,W] float64 stack."""
    if isinstance(X, np.ndarray) and X.ndim == 3:
        X = X[None]
    try:
        arr = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ValueError(f"images are not numeric array-like: {e}") from e
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


class PointDetector:
    """Prediction-decoupled dense detector with a fit/predict interface.

    Parameters mirror the training config: model shape (classes, semantic
    point count, pyramid levels, neighbor level offsets, collection mode)
    and optimization settings. ``fit`` trains from scratch; ``predict``
    returns per-image Detection lists; ``score`` is the COCO-style AP on the
    given annotations.
    """

    def __init__(self, classes=3, n_semantic=9, channels=32, levels=3,
                 neighbor_offsets=(-1, 0), mode="decoupled", iters=2000,
                 lr=0.01, momentum=0.9, weight_decay=1e-4, lambda1=2.0,
                 lambda2=0.5, score_thresh=DEFAULT_SCORE_THRESH,
                 nms_iou=DEFAULT_NMS_IOU, max_detections=DEFAULT_MAX_DETECTIONS,
                 seed=0):
        self.classes = classes
        self.n_semantic = n_semantic
        self.channels = channels
        self.levels = levels
        self.neighbor_offsets = neighbor_offsets
        self.mode = mode
        self.iters = iters
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.score_thresh = score_thresh
        self.nms_iou = nms_iou
        self.max_detections = max_detections
        self.seed = seed

    # -- sklearn protocol ------------------------------------------------
    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "PointDetector":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for PointDetector; valid: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    # -- estimator API -----------------------------------------------------
    def _model_config(self) -> ModelConfig:
        return ModelConfig(
            classes=self.classes, n_semantic=self.n_semantic, channels=self.channels,
            levels=self.levels, neighbor_offsets=tuple(self.neighbor_offsets),
            mode=self.mode,
        )

    def fit(self, X, y) -> "PointDetector":
        """Train on images ``X`` [n,3,H,W] with per-image annotations ``y``.

        Iterations cycle deterministically over the provided scenes.
        """
        images = check_images(X)
        gts = check_annotations(y, len(images), self.classes)
        model = DetectionModel(self._model_config(), seed=self.seed)
        order = np.random.default_rng(np.random.SeedSequence([self.seed, 2])).permutation(
            len(images)
        )

        def provider(it):
            idx = int(order[it % len(order)])
            return images[idx], gts[idx]

        self.history_ = run_training(
            model, provider, iters=self.iters, lr=self.lr, momentum=self.momentum,
            weight_decay=self.weight_decay, lambda1=self.lambda1, lambda2=self.lambda2,
        )
        self.model_ = model
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
