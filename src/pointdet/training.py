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

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .geometry import giou_loss_grad_array, iou_matrix
from .model import DetectionModel, ModelConfig, ModelState
from .ops import NonFiniteError, sigmoid, softplus
from .optim import SGD
from .scenes import GroundTruth, check_int, check_real, generate_scene, scene_seed

__all__ = [
    "Assignment",
    "assign_samples",
    "focal_loss_from_logits",
    "compute_losses",
    "TrainingDiverged",
    "run_training",
    "train_model",
    "train_from_config",
    "model_config_from",
    "holdout_scenes",
    "lr_at",
    "IOU_POSITIVE_THRESHOLD",
    "ASSIGNMENT_RULES",
]

IOU_POSITIVE_THRESHOLD = 0.6
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
MAX_GRAD_NORM = 2.0
ASSIGNMENT_RULES = ("coarse-iou", "inside-box")  # positive-sample rules, the default first


@dataclass
class Assignment:
    """Positive grids and per-gt center matches, as grid indices over all levels."""

    pos_grid: np.ndarray     # [P]
    pos_gt: np.ndarray       # [P]
    center_grid: np.ndarray  # [M]

    @property
    def n_positives(self) -> int:
        return len(self.pos_grid)


def assign_samples(col, gt: GroundTruth, rule: str = ASSIGNMENT_RULES[0]) -> Assignment:
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
    if rule not in ASSIGNMENT_RULES:
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


def compute_losses(state: ModelState, gt: GroundTruth, lambda1=TrainConfig.lambda1,
                   lambda2=TrainConfig.lambda2, assignment=None,
                   assignment_rule=ASSIGNMENT_RULES[0]):
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

    total = l_cls + lambda1 * l_reg + lambda2 * l_reg2
    comps = {"l_cls": l_cls, "l_reg": l_reg, "l_reg2": l_reg2}
    return total, comps, (gz, gboxes, gcoarse), assignment


# ---------------------------------------------------------------------------
# optimization loop


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient goes non-finite. The model has
    been restored to the last parameters that produced a finite loss (its
    starting parameters if the first forward already failed) and is
    attached as ``model`` so callers can checkpoint it."""

    def __init__(self, iteration: int, detail: str, model):
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
                 momentum: float = TrainConfig.momentum,
                 weight_decay: float = TrainConfig.weight_decay,
                 lambda1: float = TrainConfig.lambda1, lambda2: float = TrainConfig.lambda2,
                 assignment_rule: str = ASSIGNMENT_RULES[0], log_fn=None):
    """Optimize ``model`` for ``iters`` steps over scenes from ``provider``.

    ``provider(it)`` returns ``(image, GroundTruth)``. Gradients are clipped
    to a global norm of ``MAX_GRAD_NORM`` before each step; single-scene
    batches occasionally spike otherwise and momentum then overshoots the
    coarse boxes into GIoU saturation. On divergence the model is restored
    to the last parameters that produced a finite loss, or keeps its
    starting parameters if the first forward already failed, and
    :class:`TrainingDiverged` is raised. Returns the loss history. A negative
    or non-integer ``iters``, an ``lr`` not above 0.0 (or decaying to it), or a
    setting that is not a finite number, a bool included, raises ValueError.

    ``log_fn`` gets each history entry plus the step's gradient norm before
    clipping ``gnorm``, ``clipped``, ``lr`` and positive grids ``n_pos``.
    """
    check_int("training argument 'iters'", iters, 0)
    check_real("training argument 'lr'", lr, 0, ends="(]")
    for name, value in (("momentum", momentum), ("weight_decay", weight_decay),
                        ("lambda1", lambda1), ("lambda2", lambda2)):
        check_real(f"training argument {name!r}", value)
    if iters and lr_at(lr, iters - 1, iters) == 0.0:  # the last step's lr is the least
        raise ValueError(f"training argument 'lr' {lr!r} decays to 0.0 in the schedule")
    params = model.parameters()
    opt = SGD(params, lr, momentum=momentum, weight_decay=weight_decay)
    history = []
    last_good = params.values.copy()
    for it in range(iters):
        image, gt = provider(it)
        try:
            state = model.forward(image)
            total, comps, grads, assignment = compute_losses(
                state, gt, lambda1=lambda1, lambda2=lambda2,
                assignment_rule=assignment_rule,
            )
        except NonFiniteError as e:
            # non-finite parameters trip a kernel guard mid-forward
            params.values[:] = last_good
            raise TrainingDiverged(it, f"forward failed: {e}", model) from e
        if not np.isfinite(total):
            params.values[:] = last_good
            raise TrainingDiverged(it, f"loss became {total}", model)
        last_good[:] = params.values
        model.backward(state, *grads)
        # per-parameter sums, the pinned float order: gnorm decides clipping, and
        # np.dot over the flat grads would round by BLAS thread count
        with np.errstate(over="ignore"):
            gnorm = np.sqrt(sum(float((p.grad**2).sum()) for p in params))
        # nothing changes the values from the snapshot to the step: no restore below
        if not np.isfinite(gnorm):
            raise TrainingDiverged(it, f"gradient norm became {gnorm}", model)
        if gnorm > MAX_GRAD_NORM:
            params.grads *= MAX_GRAD_NORM / gnorm
        step_lr = lr_at(lr, it, iters)
        opt.step(lr=step_lr)
        entry = {"iter": it, **{k: float(v) for k, v in comps.items()}, "total": float(total)}
        history.append(entry)
        if log_fn is not None:
            log_fn({**entry, "gnorm": float(gnorm), "clipped": bool(gnorm > MAX_GRAD_NORM),
                    "lr": step_lr, "n_pos": assignment.n_positives})
    return history


def model_config_from(cfg: TrainConfig, mode: str = ModelConfig.mode) -> ModelConfig:
    return ModelConfig(classes=cfg.classes, n_semantic=cfg.n_semantic, levels=cfg.levels,
                       neighbor_offsets=tuple(cfg.neighbor_set), mode=mode)


def train_model(model_config: ModelConfig, settings, provider,
                assignment_rule: str = ASSIGNMENT_RULES[0], log_fn=None):
    """A ``model_config`` model seeded by ``settings.seed`` and trained on
    ``provider`` at the run settings of ``settings``, a :class:`TrainConfig`
    or a ``PointDetector``. Returns ``(model, history)``."""
    model = DetectionModel(model_config, seed=settings.seed)
    history = run_training(
        model, provider, iters=settings.iters, lr=settings.lr, momentum=settings.momentum,
        weight_decay=settings.weight_decay, lambda1=settings.lambda1, lambda2=settings.lambda2,
        assignment_rule=assignment_rule, log_fn=log_fn,
    )
    return model, history


def train_from_config(cfg: TrainConfig, mode: str = ModelConfig.mode,
                      assignment_rule: str = ASSIGNMENT_RULES[0], log_fn=None):
    """:func:`train_model` on the config's generated scenes: deterministic per seed."""
    return train_model(model_config_from(cfg, mode), cfg, lambda it: _scene(cfg, 0, it),
                       assignment_rule, log_fn)


def _scene(cfg: TrainConfig, stream: int, index: int):
    """Scene ``index`` of the config's ``stream`` (0 = training, 1 = holdout)."""
    return generate_scene(scene_seed(cfg.seed, stream, index), width=cfg.image_size,
                          height=cfg.image_size, max_objects=cfg.max_objects,
                          classes=cfg.classes)


def holdout_scenes(cfg: TrainConfig, count: int):
    """Evaluation scenes drawn from a stream disjoint from training."""
    return [_scene(cfg, 1, i) for i in range(count)]
