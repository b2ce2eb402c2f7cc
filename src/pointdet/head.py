"""Decoupled detection head.

Per pyramid level the head emits dense maps: four regression maps (one per
box side, values are image-space offsets once scaled by the level stride),
N*C classification logit maps, and the raw maps of the two-step point
generation module (coarse box, boundary shifts, semantic shifts, level
weights).

Collection then runs per grid: decode a coarse box, place one dynamic point
on each coarse edge and N semantic points inside, sample the regression maps
of the neighboring levels at the boundary points (blended with softmax level
weights), sample each semantic point's own classification map, and reduce to
a final box plus C class scores. :func:`collect_level` does this for every
grid of a level at once and :func:`collect_level_backward` reverses it.
The loss side sees all levels' grids as one grid index (levels in
collection order, each row-major); :meth:`DetectionModel.backward` slices
its gradients back into the per-level arguments of
:func:`collect_level_backward`.

Coordinate conventions: grid (i, j) at stride s sits at image point
((j+0.5)s, (i+0.5)s); image point x maps to level grid coordinate
x/s - 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .layers import ConvLayer, relu_chain, relu_chain_backward

__all__ = [
    "LevelMaps",
    "LevelCollection",
    "Head",
    "available_levels",
    "semantic_prior_fractions",
    "CLASS_PRIOR",
]

# initial class probability after summing N logit maps (focal-loss friendly)
CLASS_PRIOR = 0.01
# initial coarse half-extent in strides: exp(0.7) ~ 2 strides per side, so
# level-0 boxes start near the small end of the object size range and each
# coarser level doubles, which hands objects to a size-matched level early
COARSE_BIAS = 0.7
# exp argument clamp in coarse decoding; keeps runaway raws from producing
# astronomically large boxes whose GIoU gradients vanish irrecoverably
COARSE_RAW_LIMIT = 6.0


@dataclass
class LevelMaps:
    """Dense raw outputs of one pyramid level."""

    stride: int
    reg: np.ndarray                 # [4,h,w], image offsets are reg*stride
    cls: np.ndarray                 # [N*C,h,w] logits
    coarse: np.ndarray              # [4,h,w]
    bshift: np.ndarray | None = None   # [4,h,w]
    sshift: np.ndarray | None = None   # [2N,h,w]
    lvlw: np.ndarray | None = None     # [4K,h,w]

    @property
    def h(self) -> int:
        return self.reg.shape[1]

    @property
    def w(self) -> int:
        return self.reg.shape[2]


def semantic_prior_fractions(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major prior grid fractions: point k sits at ((k%root+0.5)/root,
    (k//root+0.5)/root) of the coarse box. Requires n_points be square."""
    root = math.isqrt(n_points)
    if root * root != n_points:
        raise ValueError(f"semantic point count must be a perfect square, got {n_points}")
    k = np.arange(n_points)
    fx = (k % root + 0.5) / root
    fy = (k // root + 0.5) / root
    return fx, fy


def available_levels(s0: int, n_levels: int, offsets) -> list[tuple[int | None, int]]:
    """Neighbor levels for collection: ``(q, level)`` pairs where q indexes
    the configured offsets. Falls back to [(None, s0)] if truncation at the
    pyramid ends empties the set."""
    av = [(q, s0 + off) for q, off in enumerate(offsets) if 0 <= s0 + off < n_levels]
    if not av:
        av = [(None, s0)]
    return av


# ---------------------------------------------------------------------------
# collection


@dataclass
class LevelCollection:
    """All per-grid collection results of one level, grids in row-major order."""

    level: int
    stride: int
    h: int
    w: int
    grid_cx: np.ndarray      # [G]
    grid_cy: np.ndarray      # [G]
    coarse: np.ndarray       # [G,4] L,T,R,B
    bx: np.ndarray           # [4,G] boundary point x per side
    by: np.ndarray           # [4,G]
    sx: np.ndarray           # [N,G] semantic point x
    sy: np.ndarray           # [N,G]
    weights: np.ndarray      # [4,K_av,G]
    avail: list              # [(q or None, level)]
    boxes: np.ndarray        # [G,4] final collected box (may be unfolded)
    z: np.ndarray            # [C,G] summed logits
    scores: np.ndarray       # [C,G]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_grids(self) -> int:
        return self.h * self.w


def collect_level(maps, i0: int, cfg) -> LevelCollection:
    """Vectorized per-grid collection for pyramid level ``i0``.

    ``cfg`` provides loc_decoupled, cls_decoupled, offsets, n_points and
    classes.
    """
    m0 = maps[i0]
    s0 = float(m0.stride)
    h, w = m0.h, m0.w
    g = h * w
    ii, jj = np.divmod(np.arange(g), w)
    cx = (jj + 0.5) * s0
    cy = (ii + 0.5) * s0

    cr = m0.coarse.reshape(4, g)
    cr_inside = np.abs(cr) < COARSE_RAW_LIMIT
    d = np.exp(np.clip(cr, -COARSE_RAW_LIMIT, COARSE_RAW_LIMIT)) * s0
    box_l = cx - d[0]
    box_t = cy - d[1]
    box_r = cx + d[2]
    box_b = cy + d[3]
    wbox = d[0] + d[2]
    hbox = d[1] + d[3]
    midx = 0.5 * (box_l + box_r)
    midy = 0.5 * (box_t + box_b)

    cache: dict = {"d": d, "cr_inside": cr_inside, "wbox": wbox, "hbox": hbox}

    if cfg.loc_decoupled:
        tb = np.tanh(m0.bshift.reshape(4, g))
        bx = np.stack([box_l, midx + tb[1] * 0.5 * wbox, box_r, midx + tb[3] * 0.5 * wbox])
        by = np.stack([midy + tb[0] * 0.5 * hbox, box_t, midy + tb[2] * 0.5 * hbox, box_b])
        cache["tb"] = tb
    else:
        bx = np.broadcast_to(cx, (4, g)).copy()
        by = np.broadcast_to(cy, (4, g)).copy()

    avail = available_levels(i0, len(maps), cfg.offsets)
    kav = len(avail)
    if cfg.loc_decoupled and m0.lvlw is not None and avail[0][0] is not None:
        k_model = m0.lvlw.shape[0] // 4
        lw = m0.lvlw.reshape(4, k_model, g)
        raws_av = lw[:, [q for q, _ in avail], :]
        weights = ops.softmax(raws_av, axis=1)
        cache["weights_from_softmax"] = True
    else:
        weights = np.full((4, kav, g), 1.0 / kav)
        cache["weights_from_softmax"] = False

    side_ch = np.repeat(np.arange(4), g)
    v_img = np.empty((kav, 4, g))
    reg_caches = []
    for a, (_, li) in enumerate(avail):
        sl = float(maps[li].stride)
        gx = bx / sl - 0.5
        gy = by / sl - 0.5
        vals, gc = ops.bilinear_gather(maps[li].reg, side_ch, gx.ravel(), gy.ravel())
        v_img[a] = vals.reshape(4, g) * sl
        reg_caches.append(gc)
    offset = np.einsum("akg,akg->kg", weights.transpose(1, 0, 2), v_img)
    boxes = np.stack(
        [offset[0] + bx[0], offset[1] + by[1], offset[2] + bx[2], offset[3] + by[3]], axis=1
    )
    cache["v_img"] = v_img
    cache["reg_caches"] = reg_caches

    n_pts = cfg.n_points
    c = cfg.classes
    if cfg.cls_decoupled:
        fx, fy = semantic_prior_fractions(n_pts)
        ts = np.tanh(m0.sshift.reshape(n_pts, 2, g))
        sx = box_l[None] + (fx[:, None] + 0.5 * ts[:, 0]) * wbox[None]
        sy = box_t[None] + (fy[:, None] + 0.5 * ts[:, 1]) * hbox[None]
        cache["ts"] = ts
        cache["prior_fx"] = fx
        cache["prior_fy"] = fy
    else:
        sx = cx[None].copy()
        sy = cy[None].copy()

    gsx = sx / s0 - 0.5
    gsy = sy / s0 - 0.5
    cls_ch = (np.arange(n_pts)[:, None, None] * c + np.arange(c)[None, :, None])
    cls_ch = np.broadcast_to(cls_ch, (n_pts, c, g))
    xs = np.broadcast_to(gsx[:, None, :], (n_pts, c, g))
    ys = np.broadcast_to(gsy[:, None, :], (n_pts, c, g))
    logits_flat, cls_cache = ops.bilinear_gather(m0.cls, cls_ch.ravel(), xs.ravel(), ys.ravel())
    logits = logits_flat.reshape(n_pts, c, g)
    z = logits.sum(axis=0)
    scores = ops.sigmoid(z)
    cache["cls_cache"] = cls_cache

    return LevelCollection(
        level=i0, stride=int(s0), h=h, w=w, grid_cx=cx, grid_cy=cy,
        coarse=np.stack([box_l, box_t, box_r, box_b], axis=1),
        bx=bx, by=by, sx=sx, sy=sy, weights=weights, avail=avail,
        boxes=boxes, z=z, scores=scores, _cache=cache,
    )


def collect_level_backward(maps, col: LevelCollection, cfg, gboxes, gz, gcoarse, gmaps) -> None:
    """Reverse the collection of one level.

    ``gboxes`` [G,4] is dLoss/d(final box), ``gz`` [C,G] is dLoss/d(summed
    logits), ``gcoarse`` [G,4] is the direct dLoss/d(coarse L,T,R,B). An
    all-zero ``gboxes`` skips the regression path, which would only add
    zeros. Gradients accumulate into ``gmaps`` (per-level dicts of arrays
    keyed like LevelMaps fields).
    """
    cache = col._cache
    g = col.n_grids
    n_pts = cfg.n_points
    c = cfg.classes
    s0 = float(col.stride)
    d = cache["d"]
    wbox, hbox = cache["wbox"], cache["hbox"]

    # fresh accumulators that start from +0, like every other sum here
    box_grad_l, box_grad_t, box_grad_r, box_grad_b = 0.0 + gcoarse.T

    gbx = np.zeros((4, g))
    gby = np.zeros((4, g))

    # classification path
    glogits = np.broadcast_to(gz[None], (n_pts, c, g))
    _, gxs_flat, gys_flat = ops.bilinear_gather_backward(
        cache["cls_cache"], glogits.ravel(), gmaps[col.level]["cls"]
    )
    gsx = gxs_flat.reshape(n_pts, c, g).sum(axis=1) / s0
    gsy = gys_flat.reshape(n_pts, c, g).sum(axis=1) / s0
    if cfg.cls_decoupled:
        ts = cache["ts"]
        fx, fy = cache["prior_fx"], cache["prior_fy"]
        coef_x = fx[:, None] + 0.5 * ts[:, 0]
        coef_y = fy[:, None] + 0.5 * ts[:, 1]
        box_grad_l += (gsx * (1.0 - coef_x)).sum(axis=0)
        box_grad_r += (gsx * coef_x).sum(axis=0)
        box_grad_t += (gsy * (1.0 - coef_y)).sum(axis=0)
        box_grad_b += (gsy * coef_y).sum(axis=0)
        gts = np.empty((n_pts, 2, g))
        gts[:, 0] = gsx * 0.5 * wbox[None]
        gts[:, 1] = gsy * 0.5 * hbox[None]
        graw = gts * (1.0 - cache["ts"] ** 2)
        gmaps[col.level]["sshift"] += graw.reshape(2 * n_pts, col.h, col.w)
    # else: points are grid centers; nothing to propagate

    # regression path
    if gboxes.any():
        goffset = gboxes.T.copy()  # [4,G]
        gbx[0] += gboxes[:, 0]
        gby[1] += gboxes[:, 1]
        gbx[2] += gboxes[:, 2]
        gby[3] += gboxes[:, 3]

        v_img = cache["v_img"]
        weights = col.weights
        gweights = goffset[None] * v_img if cache["weights_from_softmax"] else None
        for a, (_, li) in enumerate(col.avail):
            sl = float(maps[li].stride)
            gv_raw = goffset * weights[:, a, :] * sl
            _, gxs, gys = ops.bilinear_gather_backward(
                cache["reg_caches"][a], gv_raw.ravel(), gmaps[li]["reg"]
            )
            gbx += gxs.reshape(4, g) / sl
            gby += gys.reshape(4, g) / sl
        if gweights is not None:
            graws_av = ops.softmax_backward(weights, gweights.transpose(1, 0, 2).copy(), axis=1)
            lvlw_grad = gmaps[col.level]["lvlw"]
            k_model = lvlw_grad.shape[0] // 4
            lvlw_grad_v = lvlw_grad.reshape(4, k_model, g)
            for a, (q, _) in enumerate(col.avail):
                lvlw_grad_v[:, q, :] += graws_av[:, a, :]

    # boundary points -> coarse box / shift raws
    if cfg.loc_decoupled:
        tb = cache["tb"]
        box_grad_l += gbx[0]
        box_grad_r += gbx[2]
        box_grad_t += gby[1]
        box_grad_b += gby[3]
        # top/bottom x = mid + tb*w/2 ; left/right y = mid + tb*h/2
        gtb = np.empty((4, g))
        for side, gx_side in ((1, gbx[1]), (3, gbx[3])):
            box_grad_l += gx_side * (0.5 - 0.5 * tb[side])
            box_grad_r += gx_side * (0.5 + 0.5 * tb[side])
            gtb[side] = gx_side * 0.5 * wbox
        for side, gy_side in ((0, gby[0]), (2, gby[2])):
            box_grad_t += gy_side * (0.5 - 0.5 * tb[side])
            box_grad_b += gy_side * (0.5 + 0.5 * tb[side])
            gtb[side] = gy_side * 0.5 * hbox
        gmaps[col.level]["bshift"] += ((gtb * (1.0 - tb**2)).reshape(4, col.h, col.w))
    # else: boundary points are grid centers (constants)

    # coarse box L,T,R,B -> coarse raw via d = exp(clamped raw)*stride
    gd = np.stack([-box_grad_l, -box_grad_t, box_grad_r, box_grad_b])
    gmaps[col.level]["coarse"] += (gd * d * cache["cr_inside"]).reshape(4, col.h, col.w)


# ---------------------------------------------------------------------------
# head network


class Head:
    """Shared-weight conv branches applied to every pyramid level.

    ``trunks`` maps each branch (``reg``, ``cls``, ``gen``) to its conv-ReLU
    chain over the level feature. ``outputs`` is the ordered table
    ``{map name: (trunk, ConvLayer)}`` of the raw maps read off the trunk
    ends; it holds only the maps the mode needs, and its names are the
    :class:`LevelMaps` fields. Both orders are the creation order, which
    fixes the initial weights and the parameter order.
    """

    def __init__(self, cfg, rng):
        ch = cfg.channels
        self.trunks = {
            name: [ConvLayer(f"head.{name}{i}", ch, ch, rng) for i in range(2)]
            for name in ("reg", "cls", "gen")
        }
        prior_bias = -math.log((1.0 - CLASS_PRIOR) / CLASS_PRIOR) / cfg.n_points
        # map, trunk, channels, init weight scale, init bias, needed by the mode;
        # the per-side reg bias breaks the left/right (top/bottom) role
        # symmetry at init: boxes start properly oriented around their anchor,
        # so the GIoU loss never settles into a globally swapped solution
        specs = (
            ("reg", "reg", 4, 0.05, np.array([-0.5, -0.5, 0.5, 0.5]), True),
            ("cls", "cls", cfg.n_points * cfg.classes, 0.01, prior_bias, True),
            ("coarse", "gen", 4, 0.05, COARSE_BIAS, True),
            ("bshift", "gen", 4, 0.01, 0.0, cfg.loc_decoupled),
            ("sshift", "gen", 2 * cfg.n_points, 0.01, 0.0, cfg.cls_decoupled),
            ("lvlw", "gen", 4 * len(cfg.offsets), 0.01, 0.0, cfg.has_lvlw),
        )
        self.outputs = {
            name: (trunk, ConvLayer(f"head.out_{name}", ch, cout, rng,
                                    weight_scale=scale, bias_fill=bias))
            for name, trunk, cout, scale, bias, needed in specs if needed
        }

    def parameters(self):
        layers = [layer for trunk in self.trunks.values() for layer in trunk]
        layers += [layer for _, layer in self.outputs.values()]
        return [p for layer in layers for p in layer.parameters()]

    def forward(self, feats, strides):
        maps = []
        caches = []
        for feat, stride in zip(feats, strides):
            ends, trunk_caches = {}, {}
            for name, trunk in self.trunks.items():
                ends[name], trunk_caches[name] = relu_chain(trunk, feat)
            raw, out_caches = {}, {}
            for name, (trunk, layer) in self.outputs.items():
                raw[name], out_caches[name] = layer.forward(ends[trunk])
            maps.append(LevelMaps(stride=stride, **raw))
            caches.append((trunk_caches, out_caches))
        return maps, caches

    def backward(self, caches, gmaps):
        gfeats = []
        for (trunk_caches, out_caches), gm in zip(caches, gmaps):
            gends = {}
            for name, (trunk, layer) in self.outputs.items():
                g = layer.backward(out_caches[name], gm[name])
                gends[trunk] = gends[trunk] + g if trunk in gends else g
            gfeat = None
            for name, trunk in self.trunks.items():
                g = relu_chain_backward(trunk, trunk_caches[name], gends[name])
                gfeat = g if gfeat is None else gfeat + g
            gfeats.append(gfeat)
        return gfeats
