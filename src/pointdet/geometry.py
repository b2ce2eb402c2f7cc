"""Axis-aligned boxes, overlap metrics, and the GIoU loss with gradients.

Boxes are (l, t, r, b) in image-pixel coordinates with r >= l and b >= t;
zero-area boxes are legal. Array functions take [..., 4] float arrays in the
same coordinate order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "iou_array",
    "iou_matrix",
    "giou_loss_grad_array",
    "fold_boxes",
]


@dataclass(frozen=True)
class Box:
    l: float
    t: float
    r: float
    b: float

    def __post_init__(self):
        for field in ("l", "t", "r", "b"):
            object.__setattr__(self, field, float(getattr(self, field)))
        if not all(map(math.isfinite, (self.l, self.t, self.r, self.b))):
            raise ValueError(f"box coordinates must be finite, got {self}")
        if self.r < self.l or self.b < self.t:
            raise ValueError(f"invalid box (needs r >= l and b >= t): {self}")


# ---------------------------------------------------------------------------
# array core


def iou_array(a, b):
    """Element-wise IoU of two [..., 4] box arrays (0 when the union is 0)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    out = np.zeros(np.broadcast(inter, union).shape, dtype=np.float64)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def iou_matrix(a, b):
    """Pairwise IoU between [n,4] and [m,4] box arrays, shape [n,m]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return iou_array(a[:, None, :], b[None, :, :])


def fold_boxes(boxes):
    """Sort each box's coordinate pairs so r >= l and b >= t.

    Returns ``(folded, swap_x, swap_y)``; the swap masks (r < l, b < t) let a
    caller route gradients back. The folded l is ``np.where(r < l, r, l)`` and
    r is r unless ``r <= l`` (t, b alike): Python's ``min(l, r)`` and
    ``max(l, r)`` down to which of two equal zeros comes out (np.minimum and
    np.maximum return the second operand on ties), except that a NaN stays.
    Guards raw predicted boxes, which may come out inverted mid-training.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    l, t, r, b = (boxes[..., i] for i in range(4))
    swap_x, swap_y = r < l, b < t
    folded = np.stack([np.where(swap_x, r, l), np.where(swap_y, b, t),
                       np.where(r <= l, l, r), np.where(b <= t, t, b)], axis=-1)
    return folded, swap_x, swap_y


def _over_square(a, da, b):
    """``a * da / b**2`` row-wise; where ``b**2`` leaves the normal range it
    is ``(a / b) * (da / b)``, which cannot underflow to 0/0."""
    sq = b**2
    tiny = sq < np.finfo(np.float64).tiny
    return np.where(tiny[:, None], (a / b)[:, None] * (da / b[:, None]),
                    a[:, None] * da / np.where(tiny, 1.0, sq)[:, None])


def giou_loss_grad_array(pred, gt):
    """GIoU loss ``1 - giou`` and its gradients for [n,4] box arrays.

    Returns ``(loss [n], gpred [n,4])``. Ties in the min/max terms route the
    subgradient to the predicted box; degenerate pairs (union and
    enclosing area both zero) get loss 1 and zero gradient. Inverted
    predictions are folded to valid boxes first, with gradients routed
    through the swap. A gradient beyond the float64 range (box extents
    near 1e-308) comes out as +-inf, or nan where two such terms cancel.
    """
    pred_in = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    pred, swap_x, swap_y = fold_boxes(pred_in)

    al, at, ar, ab = (pred[:, i] for i in range(4))
    bl, bt, br, bb = (gt[:, i] for i in range(4))

    wa = ar - al
    ha = ab - at
    area_a = wa * ha
    area_b = (br - bl) * (bb - bt)

    ix1 = np.maximum(al, bl)
    ix2 = np.minimum(ar, br)
    iy1 = np.maximum(at, bt)
    iy2 = np.minimum(ab, bb)
    iw = ix2 - ix1
    ih = iy2 - iy1
    act_x = iw > 0
    act_y = ih > 0
    iwp = np.clip(iw, 0.0, None)
    ihp = np.clip(ih, 0.0, None)
    inter = iwp * ihp
    union = area_a + area_b - inter

    cx1 = np.minimum(al, bl)
    cx2 = np.maximum(ar, br)
    cy1 = np.minimum(at, bt)
    cy2 = np.maximum(ab, bb)
    cw = cx2 - cx1
    chh = cy2 - cy1
    enclose = cw * chh

    ok = union > 0
    n = pred.shape[0]
    loss = np.ones(n, dtype=np.float64)
    safe_u = np.where(ok, union, 1.0)
    safe_c = np.where(enclose > 0, enclose, 1.0)
    giou_v = inter / safe_u + union / safe_c - 1.0
    loss[ok] = 1.0 - giou_v[ok]

    # partials of inter/union/enclose w.r.t. the predicted coordinates
    both = (act_x & act_y).astype(np.float64)
    di = np.zeros((n, 4))
    di[:, 0] = -both * (al >= bl).astype(np.float64) * ihp
    di[:, 2] = both * (ar <= br).astype(np.float64) * ihp
    di[:, 1] = -both * (at >= bt).astype(np.float64) * iwp
    di[:, 3] = both * (ab <= bb).astype(np.float64) * iwp

    darea = np.zeros((n, 4))
    darea[:, 0] = -ha
    darea[:, 2] = ha
    darea[:, 1] = -wa
    darea[:, 3] = wa
    du = darea - di

    dc = np.zeros((n, 4))
    dc[:, 0] = -(al <= bl).astype(np.float64) * chh
    dc[:, 2] = (ar >= br).astype(np.float64) * chh
    dc[:, 1] = -(at <= bt).astype(np.float64) * cw
    dc[:, 3] = (ab >= bb).astype(np.float64) * cw

    # d giou = dI/U - I dU/U^2 + dU/C - U dC/C^2 ; d loss = -d giou
    with np.errstate(over="ignore", invalid="ignore"):  # see the docstring
        g = (
            di / safe_u[:, None]
            - _over_square(inter, du, safe_u)
            + du / safe_c[:, None]
            - _over_square(union, dc, safe_c)
        )
    gpred = np.where(ok[:, None], -g, 0.0)

    # route gradients back through the fold
    gp = gpred.copy()
    gp[:, 0] = np.where(swap_x, gpred[:, 2], gpred[:, 0])
    gp[:, 2] = np.where(swap_x, gpred[:, 0], gpred[:, 2])
    gp[:, 1] = np.where(swap_y, gpred[:, 3], gpred[:, 1])
    gp[:, 3] = np.where(swap_y, gpred[:, 1], gpred[:, 3])
    return loss, gp
