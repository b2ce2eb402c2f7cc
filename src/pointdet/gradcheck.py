"""Central finite-difference checks for every differentiable operation.

Each check builds a deterministic random problem, computes analytic
gradients through the hand-written backward passes, and compares against
central differences (eps=1e-5, float64). The reported number is the max
relative error ``|a - n| / max(1, |a|, |n|)``. Full-pipeline checks probe a
fixed random subset of each parameter tensor plus one directional
derivative across all parameters.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .geometry import giou_loss_grad_array
from .model import DetectionModel, ModelConfig
from .scenes import generate_scene
from .training import Assignment, compute_losses, focal_loss_from_logits

__all__ = ["rel_err", "run_checks", "CHECKS", "DEFAULT_TOLERANCE"]

EPS = 1e-5
DEFAULT_TOLERANCE = 1e-4
_SAMPLES_PER_TENSOR = 6


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _fd(f, arr, idx, eps=EPS) -> float:
    old = arr[idx]
    arr[idx] = old + eps
    hi = f()
    arr[idx] = old - eps
    lo = f()
    arr[idx] = old
    return (hi - lo) / (2 * eps)


def _max_err_over(f, arr, grad, indices=None, eps=EPS) -> float:
    if indices is None:
        indices = list(np.ndindex(arr.shape))
    worst = 0.0
    for idx in indices:
        worst = max(worst, rel_err(grad[idx], _fd(f, arr, idx, eps)))
    return worst


def check_conv(seed: int = 3) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    # 5x8 at stride 2 leaves the last input column unread: (8 + 2 - 3) % 2 != 0
    for (h, wd), stride in (((4, 4), 1), ((4, 4), 2), ((5, 8), 2)):
        x = rng.normal(size=(2, h, wd))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y0, cache = ops.conv2d(x, w, b, stride=stride, padding=1)
        r = rng.normal(size=y0.shape)
        gx, gw, gb = ops.conv2d_backward(cache, r)

        def f():
            y, _ = ops.conv2d(x, w, b, stride=stride, padding=1)
            return float((y * r).sum())

        worst = max(worst, _max_err_over(f, x, gx))
        worst = max(worst, _max_err_over(f, w, gw))
        worst = max(worst, _max_err_over(f, b, gb))
    return worst


def check_bilinear(seed: int = 5) -> float:
    rng = np.random.default_rng(seed)
    maps = rng.normal(size=(3, 5, 7))
    n = 14
    ch = rng.integers(0, 3, size=n)
    # interior points with fractions away from cell boundaries, plus points
    # clearly outside the map (clamped, zero coordinate gradient)
    xs = np.concatenate([rng.uniform(0.2, 5.6, size=n - 4), [-1.3, 7.4, 2.3, 3.7]])
    ys = np.concatenate([rng.uniform(0.2, 3.6, size=n - 4), [1.4, 2.6, -0.8, 4.9]])
    xs = np.where(np.abs(xs - np.round(xs)) < 0.1, xs + 0.17, xs)
    ys = np.where(np.abs(ys - np.round(ys)) < 0.1, ys + 0.17, ys)
    r = rng.normal(size=n)

    def f():
        vals, _ = ops.bilinear_gather([maps], ch, xs, ys)
        return float((vals * r).sum())

    _, cache = ops.bilinear_gather([maps], ch, xs, ys)
    (gmaps,), gxs, gys = ops.bilinear_gather_backward(cache, r)
    worst = _max_err_over(f, maps, gmaps)
    worst = max(worst, _max_err_over(f, xs, gxs, indices=[(i,) for i in range(n)]))
    worst = max(worst, _max_err_over(f, ys, gys, indices=[(i,) for i in range(n)]))
    return worst


def check_softmax(seed: int = 7) -> float:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=6)
    r = rng.normal(size=6)

    def f():
        return float((ops.softmax(v) * r).sum())

    s = ops.softmax(v)
    gv = ops.softmax_backward(s, r)
    return _max_err_over(f, v, gv)


def check_sigmoid(seed: int = 9) -> float:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) * 3.0
    r = rng.normal(size=8)

    def f():
        return float((ops.sigmoid(v) * r).sum())

    g = r * ops.sigmoid_grad(ops.sigmoid(v))
    return _max_err_over(f, v, g)


def _random_boxes_with_margin(rng, n, margin=5e-3):
    """Box pairs whose min/max and clip arguments stay away from ties."""
    out = []
    while len(out) < n:
        a = np.sort(rng.uniform(0, 10, size=2))
        b = np.sort(rng.uniform(0, 10, size=2))
        c = np.sort(rng.uniform(0, 10, size=2))
        d = np.sort(rng.uniform(0, 10, size=2))
        pa = np.array([a[0], b[0], a[1], b[1]])
        pb = np.array([c[0], d[0], c[1], d[1]])
        diffs = [
            pa[0] - pb[0], pa[2] - pb[2], pa[1] - pb[1], pa[3] - pb[3],
            min(pa[2], pb[2]) - max(pa[0], pb[0]),
            min(pa[3], pb[3]) - max(pa[1], pb[1]),
            pa[2] - pa[0], pa[3] - pa[1], pb[2] - pb[0], pb[3] - pb[1],
        ]
        if min(abs(v) for v in diffs) > margin:
            out.append((pa, pb))
    return out


def check_giou(seed: int = 11) -> float:
    rng = np.random.default_rng(seed)
    pairs = _random_boxes_with_margin(rng, 24)
    worst = 0.0
    # GIoU is symmetric, so the swapped pair checks the second argument too
    for pred, gt in pairs + [(pb, pa) for pa, pb in pairs]:
        def f():
            return float(giou_loss_grad_array(pred[None], gt[None])[0][0])

        _, gpred = giou_loss_grad_array(pred[None], gt[None])
        worst = max(worst, _max_err_over(f, pred, gpred[0], indices=[(i,) for i in range(4)]))
    return worst


def check_focal(seed: int = 13) -> float:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 12)) * 2.5
    targets = rng.integers(-1, 3, size=12)

    def f():
        loss, _ = focal_loss_from_logits(z, targets)
        return loss

    _, dz = focal_loss_from_logits(z, targets)
    return _max_err_over(f, z, dz)


def _tiny_model(seed=0, mode="decoupled", offsets=(-1, 0)):
    cfg = ModelConfig(classes=2, n_semantic=4, channels=8, levels=3, mode=mode,
                      neighbor_offsets=offsets)
    return DetectionModel(cfg, seed=seed)


def _sampled_indices(rng, arr, count=_SAMPLES_PER_TENSOR):
    flat = rng.choice(arr.size, size=min(count, arr.size), replace=False)
    return [np.unravel_index(i, arr.shape) for i in flat]


def _param_fd_check(model, loss_and_grads, rng) -> float:
    """Sampled per-parameter FD plus a directional derivative over all.

    ``loss_and_grads(backward=False)`` returns the loss as a float and, with
    ``backward=True``, also accumulates the parameter gradients.
    """
    model.zero_grad()
    loss_and_grads(backward=True)
    grads = {p.name: p.grad.copy() for p in model.parameters()}
    model.zero_grad()

    worst = 0.0
    for p in model.parameters():
        for idx in _sampled_indices(rng, p.value):
            worst = max(worst, rel_err(grads[p.name][idx], _fd(loss_and_grads, p.value, idx)))

    direction = {p.name: rng.normal(size=p.value.shape) for p in model.parameters()}
    norm = np.sqrt(sum((d**2).sum() for d in direction.values()))
    for d in direction.values():
        d /= norm
    analytic_dir = sum((grads[p.name] * direction[p.name]).sum() for p in model.parameters())
    for p in model.parameters():
        p.value += EPS * direction[p.name]
    hi = loss_and_grads()
    for p in model.parameters():
        p.value -= 2 * EPS * direction[p.name]
    lo = loss_and_grads()
    for p in model.parameters():
        p.value += EPS * direction[p.name]
    worst = max(worst, rel_err(analytic_dir, (hi - lo) / (2 * EPS)))
    return worst


def check_backbone(seed: int = 15) -> float:
    rng = np.random.default_rng(seed)
    model = _tiny_model(seed=4)
    image = rng.uniform(0.1, 0.9, size=(3, 16, 16))
    projections = None

    def loss_and_grads(backward=False):
        nonlocal projections
        feats, cache = model.backbone.forward(image)
        if projections is None:
            projections = [rng.normal(size=f.shape) for f in feats]
        val = float(sum((f * r).sum() for f, r in zip(feats, projections)))
        if backward:
            model.backbone.backward(cache, list(projections))
        return val

    return _param_fd_check(model, loss_and_grads, rng)


def check_head(seed: int = 17, mode: str = "decoupled", offsets=(-1, 0)) -> float:
    """Head and collection on a 16x16 image: levels of 4x4, 2x2 and 1x1 grids."""
    rng = np.random.default_rng(seed)
    model = _tiny_model(seed=6, mode=mode, offsets=offsets)
    image = rng.uniform(0.1, 0.9, size=(3, 16, 16))
    col0 = model.forward(image).collection
    r_box = rng.normal(size=col0.boxes.shape)
    r_sc = rng.normal(size=col0.scores.shape)
    r_co = rng.normal(size=col0.coarse.shape) * 0.1

    def loss_and_grads(backward=False):
        state = model.forward(image)
        col = state.collection
        if backward:
            model.backward(state, r_sc * ops.sigmoid_grad(col.scores), r_box, r_co)
        return float((col.boxes * r_box).sum() + (col.scores * r_sc).sum()
                     + (col.coarse * r_co).sum())

    return _param_fd_check(model, loss_and_grads, rng)


def check_total_loss(seed: int = 19) -> float:
    rng = np.random.default_rng(seed)
    model = _tiny_model(seed=8)
    image, gt = generate_scene(21, width=32, height=32, max_objects=2, classes=2)
    state = model.forward(image)
    # frozen synthetic assignment: exercises all three loss paths without
    # depending on the untrained coarse boxes crossing the IoU threshold
    n0, n1 = (sl.stop - sl.start for sl in state.collection.cuts[:2])
    m = len(gt)
    assignment = Assignment(
        pos_grid=np.array([n0 // 3, 2 * n0 // 3, n0 + n1 // 2], dtype=np.int64),
        pos_gt=np.array([0, m - 1, 0], dtype=np.int64),
        center_grid=(np.arange(m) * 7 % n0).astype(np.int64),
    )

    def loss_and_grads(backward=False):
        st = model.forward(image)
        total, _, grads, _ = compute_losses(st, gt, assignment=assignment)
        if backward:
            model.backward(st, *grads)
        return float(total)

    return _param_fd_check(model, loss_and_grads, rng)


CHECKS = {
    "conv": check_conv,
    "bilinear": check_bilinear,
    "softmax": check_softmax,
    "sigmoid": check_sigmoid,
    "giou": check_giou,
    "focal": check_focal,
    "backbone": check_backbone,
    "head": check_head,
    "total-loss": check_total_loss,
}


def run_checks(names=None) -> dict[str, float]:
    """Run the named checks (all by default); returns op -> max rel error."""
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown gradcheck op(s): {unknown}; available: {sorted(CHECKS)}")
    return {name: CHECKS[name]() for name in names}
