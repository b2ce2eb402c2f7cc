"""Sample assignment, losses, and the optimization loop.

The total loss is ``L_cls + lambda1 * L_reg + lambda2 * L_reg2`` where L_cls
is a focal loss on the aggregated class scores of every grid, L_reg is the
mean GIoU loss of the collected boxes over positive grids, and L_reg2 is the
mean GIoU loss of the coarse boxes matched to each ground truth's
center-closest grid. A grid is positive iff its coarse box overlaps its
best-IoU ground truth strictly above 0.6.

Everything here indexes the grids of all pyramid levels as one axis, the
grid index of the collection: the levels in order, each level row-major,
so level ``l`` grid ``g`` has index ``cuts[l].start + g``. Assignments and
loss gradients use that index, and so does the collection's backward,
which takes the gradients whole.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .geometry import giou_loss_grad_array, iou_matrix
from .model import DetectionModel, ModelConfig, ModelState
from .ops import sigmoid, softplus
from .optim import SGD, NonFiniteGradientError
from .scenes import GroundTruth, generate_scene, scene_seed

__all__ = [
    "Assignment",
    "assign_samples",
    "focal_loss_from_logits",
    "total_loss",
    "compute_losses",
    "TrainingDiverged",
    "run_training",
    "train_from_config",
    "model_config_from",
    "holdout_scenes",
    "lr_at",
    "IOU_POSITIVE_THRESHOLD",
]

IOU_POSITIVE_THRESHOLD = 0.6
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
MAX_GRAD_NORM = 2.0


@dataclass
class Assignment:
    """Positive grids and per-gt center matches, as grid indices over all levels."""

    pos_grid: np.ndarray     # [P]
    pos_gt: np.ndarray       # [P]
    center_grid: np.ndarray  # [M]

    @property
    def n_positives(self) -> int:
        return len(self.pos_grid)


def assign_samples(col, gt: GroundTruth, rule: str = "coarse-iou") -> Assignment:
    """Match the grids of collection ``col`` to ground truths.

    Under the default ``coarse-iou`` rule a grid is positive iff the IoU
    between its coarse box and its best-IoU ground truth exceeds 0.6
    strictly. The ``inside-box`` rule (the dense per-pixel recipe used to
    train the accuracy-map analysis baseline) makes every grid whose center
    lies inside a gt box positive, matched to the smallest containing box.
    Each ground truth additionally gets one center match: the grid (over all
    levels) whose center is closest to the gt center; distance ties prefer
    the coarser level, then row-major order within a level.
    """
    if rule not in ("coarse-iou", "inside-box"):
        raise ValueError(f"unknown assignment rule {rule!r}")
    if len(gt) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return Assignment(empty, empty, empty)
    cx, cy = col.grid_cx, col.grid_cy
    if rule == "coarse-iou":
        ious = iou_matrix(col.coarse, gt.boxes)
        best_gt = ious.argmax(axis=1)
        pos = np.nonzero(ious[np.arange(len(best_gt)), best_gt] > IOU_POSITIVE_THRESHOLD)[0]
    else:
        inside = (
            (cx[:, None] > gt.boxes[None, :, 0]) & (cx[:, None] < gt.boxes[None, :, 2])
            & (cy[:, None] > gt.boxes[None, :, 1]) & (cy[:, None] < gt.boxes[None, :, 3])
        )
        areas = (gt.boxes[:, 2] - gt.boxes[:, 0]) * (gt.boxes[:, 3] - gt.boxes[:, 1])
        best_gt = np.where(inside, areas[None, :], np.inf).argmin(axis=1)
        pos = np.nonzero(inside.any(axis=1))[0]

    gcx = 0.5 * (gt.boxes[:, 0] + gt.boxes[:, 2])
    gcy = 0.5 * (gt.boxes[:, 1] + gt.boxes[:, 3])
    d = (cx[:, None] - gcx[None, :]) ** 2 + (cy[:, None] - gcy[None, :]) ** 2
    # argmin keeps the first minimum, so list the levels coarsest first
    coarse_first = np.concatenate([np.arange(sl.start, sl.stop) for sl in col.cuts[::-1]])
    center = coarse_first[d[coarse_first].argmin(axis=0)]
    return Assignment(pos, best_gt[pos], center)


# ---------------------------------------------------------------------------
# losses


def focal_loss_from_logits(z, targets, alpha=FOCAL_ALPHA, gamma=FOCAL_GAMMA,
                           n_positives=None):
    """Focal loss and gradient computed stably from summed logits.

    ``z`` is [C,G]; ``targets`` [G]. Returns ``(loss, dloss_dz [C,G])``.
    """
    z = np.asarray(z, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    c, g = z.shape
    onehot = np.arange(c)[:, None] == targets[None, :]
    s = sigmoid(z)
    sp_neg = softplus(-z)   # -log(s)
    sp_pos = softplus(z)    # -log(1-s)
    pos_elem = alpha * (1.0 - s) ** gamma * sp_neg
    neg_elem = (1.0 - alpha) * s**gamma * sp_pos
    dpos = -alpha * (1.0 - s) ** gamma * (gamma * s * sp_neg + (1.0 - s))
    dneg = (1.0 - alpha) * s**gamma * (gamma * (1.0 - s) * sp_pos + s)
    elem = np.where(onehot, pos_elem, neg_elem)
    delem = np.where(onehot, dpos, dneg)
    if n_positives is None:
        n_positives = int((targets >= 0).sum())
    norm = 1.0 / max(1, n_positives)
    return float(elem.sum() * norm), delem * norm


def total_loss(l_cls: float, l_reg: float, l_reg2: float,
               lambda1: float = 2.0, lambda2: float = 0.5) -> float:
    """Loss balance: ``L_cls + lambda1*L_reg + lambda2*L_reg2``."""
    return l_cls + lambda1 * l_reg + lambda2 * l_reg2


def compute_losses(state: ModelState, gt: GroundTruth, lambda1=2.0, lambda2=0.5,
                   assignment=None, assignment_rule: str = "coarse-iou"):
    """Losses plus their gradients with respect to the collection.

    Returns ``(total, components, (gz, gboxes, gcoarse), assignment)``. The
    gradients are dense over the grid index: ``gz`` [C,G] with respect to
    the summed logits, ``gboxes`` [G,4] to the collected boxes and
    ``gcoarse`` [G,4] to the coarse boxes, zero where a grid takes no part.
    They are the arguments of :meth:`DetectionModel.backward`.
    """
    col = state.collection
    if assignment is None:
        assignment = assign_samples(col, gt, rule=assignment_rule)
    m = len(gt)
    p = assignment.n_positives

    targets = np.full(col.z.shape[1], -1, dtype=np.int64)
    targets[assignment.pos_grid] = gt.labels[assignment.pos_gt]
    l_cls, gz = focal_loss_from_logits(col.z, targets, n_positives=p)

    gboxes = np.zeros_like(col.boxes)
    l_reg = 0.0
    if p > 0:
        losses, gpred = giou_loss_grad_array(col.boxes[assignment.pos_grid],
                                             gt.boxes[assignment.pos_gt])
        l_reg = float(losses.mean())
        np.add.at(gboxes, assignment.pos_grid, lambda1 / p * gpred)

    gcoarse = np.zeros_like(col.coarse)
    l_reg2 = 0.0
    if m > 0:
        losses2, gcenter = giou_loss_grad_array(col.coarse[assignment.center_grid], gt.boxes)
        l_reg2 = float(losses2.mean())
        np.add.at(gcoarse, assignment.center_grid, lambda2 / m * gcenter)

    total = total_loss(l_cls, l_reg, l_reg2, lambda1, lambda2)
    comps = {"l_cls": l_cls, "l_reg": l_reg, "l_reg2": l_reg2}
    return total, comps, (gz, gboxes, gcoarse), assignment


# ---------------------------------------------------------------------------
# optimization loop


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient goes non-finite. The model has
    been restored to the last parameters that produced a finite loss and is
    attached as ``model`` so callers can checkpoint it."""

    def __init__(self, iteration: int, detail: str, model=None):
        super().__init__(f"training diverged at iteration {iteration}: {detail}")
        self.iteration = iteration
        self.model = model


def lr_at(base_lr: float, it: int, total_iters: int) -> float:
    """Step schedule: x0.1 at 2/3 of the run and x0.01 at 8/9."""
    if it >= (8 * total_iters) // 9:
        return base_lr * 0.01
    if it >= (2 * total_iters) // 3:
        return base_lr * 0.1
    return base_lr


def run_training(model: DetectionModel, provider, iters: int, lr: float,
                 momentum: float = 0.9, weight_decay: float = 1e-4,
                 lambda1: float = 2.0, lambda2: float = 0.5,
                 assignment_rule: str = "coarse-iou", log_fn=None):
    """Optimize ``model`` for ``iters`` steps over scenes from ``provider``.

    ``provider(it)`` returns ``(image, GroundTruth)``. Gradients are clipped
    to a global norm of ``MAX_GRAD_NORM`` before each step; single-scene
    batches occasionally spike otherwise and momentum then overshoots the
    coarse boxes into GIoU saturation. On divergence the model is restored
    to the last parameters that produced a finite loss and
    :class:`TrainingDiverged` is raised. Returns the loss history. A
    negative or non-integer ``iters``, a non-positive ``lr`` or a non-finite
    value raises ValueError.
    """
    if not (isinstance(iters, numbers.Integral) and not isinstance(iters, bool) and iters >= 0):
        raise ValueError(f"training argument 'iters' must be a non-negative integer, got {iters!r}")
    for name, value in (("lr", lr), ("momentum", momentum), ("weight_decay", weight_decay),
                        ("lambda1", lambda1), ("lambda2", lambda2)):
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
        if not finite or (name == "lr" and value <= 0):
            raise ValueError(f"training argument {name!r} must be finite (lr also positive), "
                             f"got {value!r}")
    opt = SGD(model.parameters(), lr, momentum=momentum, weight_decay=weight_decay)
    history = []
    last_good = model.clone_params()
    for it in range(iters):
        image, gt = provider(it)
        try:
            state = model.forward(image)
            total, comps, grads, _ = compute_losses(
                state, gt, lambda1=lambda1, lambda2=lambda2,
                assignment_rule=assignment_rule,
            )
        except ValueError as e:
            # non-finite parameters trip a kernel guard mid-forward
            model.restore_params(last_good)
            raise TrainingDiverged(it, f"forward failed: {e}", model) from e
        if not np.isfinite(total):
            model.restore_params(last_good)
            raise TrainingDiverged(it, f"loss became {total}", model)
        last_good = model.clone_params()
        model.backward(state, *grads)
        with np.errstate(over="ignore"):
            gnorm = np.sqrt(sum(float((p.grad**2).sum()) for p in model.parameters()))
        if not np.isfinite(gnorm):
            model.restore_params(last_good)
            raise TrainingDiverged(it, f"gradient norm became {gnorm}", model)
        if gnorm > MAX_GRAD_NORM:
            scale = MAX_GRAD_NORM / gnorm
            for p in model.parameters():
                p.grad *= scale
        try:
            opt.step(lr=lr_at(lr, it, iters))
        except NonFiniteGradientError as e:
            model.restore_params(last_good)
            raise TrainingDiverged(it, str(e), model) from e
        entry = {"iter": it, **{k: float(v) for k, v in comps.items()}, "total": float(total)}
        history.append(entry)
        if log_fn is not None:
            log_fn(entry)
    return history


def model_config_from(cfg: TrainConfig, mode: str = "decoupled") -> ModelConfig:
    return ModelConfig(
        classes=cfg.classes, n_semantic=cfg.n_semantic, levels=cfg.levels,
        neighbor_offsets=tuple(cfg.neighbor_set), mode=mode,
    )


def train_from_config(cfg: TrainConfig, mode: str = "decoupled",
                      assignment_rule: str = "coarse-iou", log_fn=None):
    """Build a model from the config and train it on generated scenes.

    Fully deterministic per seed. Returns ``(model, history)``.
    """
    model = DetectionModel(model_config_from(cfg, mode), seed=cfg.seed)

    def provider(it):
        return generate_scene(
            scene_seed(cfg.seed, 0, it), width=cfg.image_size, height=cfg.image_size,
            max_objects=cfg.max_objects, classes=cfg.classes,
        )

    history = run_training(
        model, provider, iters=cfg.iters, lr=cfg.lr, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, lambda1=cfg.lambda1, lambda2=cfg.lambda2,
        assignment_rule=assignment_rule, log_fn=log_fn,
    )
    return model, history


def holdout_scenes(cfg: TrainConfig, count: int):
    """Evaluation scenes drawn from a stream disjoint from training."""
    return [
        generate_scene(
            scene_seed(cfg.seed, 1, i), width=cfg.image_size, height=cfg.image_size,
            max_objects=cfg.max_objects, classes=cfg.classes,
        )
        for i in range(count)
    ]
