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
grid of every level in one pass over the grid index (the levels'
grids concatenated in level order, each row-major), with the stride as a
per-grid array, into one :class:`Collection` whose ``cuts`` mark each
level's slice; :func:`collect_level_backward` reverses it from gradients
over the same index. Neighbor slot q of a level reads the level of
offset q, and a level without that neighbor has a padding slot of weight 0
and value 0, so every blended sum keeps the bits of a per-level pass. The
two bilinear gathers (regression, classification) run once each; the
regression gather's backward adds map gradients in (collection level,
slot, corner, side, grid) order, which keeps the bits where a level's
regression map is read by its own collection and the level above.

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
    "Collection",
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
class Collection:
    """Per-grid collection results over the grid index, ``cuts[i]`` being
    level i's slice. Slot q of ``weights`` holds the level of offset q (a
    level's lone fallback uses slot 0); a padding slot has weight 0."""

    level: np.ndarray        # [G] pyramid level of each grid
    grid_cx: np.ndarray      # [G]
    grid_cy: np.ndarray      # [G]
    coarse: np.ndarray       # [G,4] L,T,R,B
    bx: np.ndarray           # [4,G] boundary point x per side
    by: np.ndarray           # [4,G]
    sx: np.ndarray           # [N,G] semantic point x
    sy: np.ndarray           # [N,G]
    weights: np.ndarray      # [4,K,G]
    boxes: np.ndarray        # [G,4] final collected box (may be unfolded)
    z: np.ndarray            # [C,G] summed logits
    scores: np.ndarray       # [C,G]
    cuts: list               # [slice] per level
    _cache: dict = field(default_factory=dict, repr=False)


def _grid_rows(maps, name, rows):
    """Field ``name`` of every level as [rows, G] over the grid index."""
    return np.concatenate([getattr(m, name).reshape(rows, -1) for m in maps], axis=1)


def collect_level(maps, cfg) -> Collection:
    """Vectorized collection of every grid of every level in one pass.

    Works on the grid index with the stride as a per-grid array and returns
    one :class:`Collection` over it. ``cfg`` provides loc_decoupled,
    cls_decoupled, offsets, n_points and classes.
    """
    sizes = [m.h * m.w for m in maps]
    ends = np.cumsum(sizes)
    g = int(ends[-1])
    cuts = [slice(end - size, end) for size, end in zip(sizes, ends)]
    level = np.repeat(np.arange(len(maps)), sizes)
    strides = np.array([float(m.stride) for m in maps])
    s = strides[level]
    ii, jj = np.divmod(np.arange(g) - (ends - sizes)[level], np.repeat([m.w for m in maps], sizes))
    cx = (jj + 0.5) * s
    cy = (ii + 0.5) * s

    cr = _grid_rows(maps, "coarse", 4)
    d = np.exp(np.clip(cr, -COARSE_RAW_LIMIT, COARSE_RAW_LIMIT)) * s
    box_l, box_t, box_r, box_b = cx - d[0], cy - d[1], cx + d[2], cy + d[3]
    wbox = d[0] + d[2]
    hbox = d[1] + d[3]
    midx = 0.5 * (box_l + box_r)
    midy = 0.5 * (box_t + box_b)

    tb = np.tanh(_grid_rows(maps, "bshift", 4)) if cfg.loc_decoupled else None
    if cfg.loc_decoupled:
        bx = np.stack([box_l, midx + tb[1] * 0.5 * wbox, box_r, midx + tb[3] * 0.5 * wbox])
        by = np.stack([midy + tb[0] * 0.5 * hbox, box_t, midy + tb[2] * 0.5 * hbox, box_b])
    else:
        bx = np.broadcast_to(cx, (4, g)).copy()
        by = np.broadcast_to(cy, (4, g)).copy()

    # slot q of level i reads level src[q, i], the level of offset q; the
    # (None, i) fallback reads level i in slot 0; slots without a level are
    # padding with weight 0 and value 0. Regression samples go in
    # (collection level, slot, side, grid) order, one backward segment each.
    k = len(cfg.offsets)
    src = np.tile(np.arange(len(maps)), (k, 1))
    present = np.zeros((k, len(maps)), dtype=bool)
    slots = np.arange(k * 4 * g).reshape(k, 4, g)
    order, segments = [], []
    for i in range(len(maps)):
        for q, li in available_levels(i, len(maps), cfg.offsets):
            src[q or 0, i], present[q or 0, i] = li, True
            order.append(slots[q or 0, :, cuts[i]])
            segments.append(4 * sizes[i])
    order = np.concatenate(order, axis=None)
    src_stride = strides[src][:, level]  # [K,G]
    # a fallback or lvlw-less level gets softmax(0) = uniform weights
    use_softmax = cfg.loc_decoupled and maps[0].lvlw is not None
    raws = _grid_rows(maps, "lvlw", 4 * k).reshape(4, k, g) if use_softmax else np.zeros((4, k, g))
    weights = ops.softmax(raws, axis=1, where=present[:, level])
    reg_ch = 4 * src[:, level][:, None] + np.arange(4)[:, None]  # [K,4,G]
    gx = bx / src_stride[:, None] - 0.5
    gy = by / src_stride[:, None] - 0.5
    vals, reg_cache = ops.bilinear_gather([m.reg for m in maps], reg_ch.ravel()[order],
                                          gx.ravel()[order], gy.ravel()[order], segments)
    v_img = np.zeros((k, 4, g))
    v_img.reshape(-1)[order] = vals
    v_img *= src_stride[:, None]
    offset = np.einsum("akg,akg->kg", weights.transpose(1, 0, 2), v_img)
    boxes = np.stack(
        [offset[0] + bx[0], offset[1] + by[1], offset[2] + bx[2], offset[3] + by[3]], axis=1
    )

    n_pts = cfg.n_points
    c = cfg.classes
    ts = None
    if cfg.cls_decoupled:
        fx, fy = semantic_prior_fractions(n_pts)
        ts = np.tanh(_grid_rows(maps, "sshift", 2 * n_pts).reshape(n_pts, 2, g))
        sx = box_l[None] + (fx[:, None] + 0.5 * ts[:, 0]) * wbox[None]
        sy = box_t[None] + (fy[:, None] + 0.5 * ts[:, 1]) * hbox[None]
    else:
        sx = cx[None].copy()
        sy = cy[None].copy()
    # the C classes of semantic point n at grid g share its cells: [N*G,C]
    cls_ch = (level * (n_pts * c) + np.arange(n_pts)[:, None] * c)[..., None] + np.arange(c)
    logits, cls_cache = ops.bilinear_gather([m.cls for m in maps], cls_ch.reshape(-1, c),
                                            (sx / s - 0.5).ravel(), (sy / s - 0.5).ravel())
    z = logits.reshape(n_pts, g, c).sum(axis=0).T
    scores = ops.sigmoid(z)

    cache = dict(s=s, d=d, cr_inside=np.abs(cr) < COARSE_RAW_LIMIT, wbox=wbox, hbox=hbox, tb=tb,
                 ts=ts, weights=weights, v_img=v_img, src_stride=src_stride, order=order,
                 reg_cache=reg_cache, cls_cache=cls_cache, use_softmax=use_softmax)
    return Collection(level=level, grid_cx=cx, grid_cy=cy,
                      coarse=np.stack([box_l, box_t, box_r, box_b], axis=1), bx=bx, by=by,
                      sx=sx, sy=sy, weights=weights, boxes=boxes, z=z, scores=scores, cuts=cuts,
                      _cache=cache)


def collect_level_backward(maps, col, cfg, gz, gboxes, gcoarse) -> list[dict]:
    """Reverse :func:`collect_level` for every level at once.

    The arguments are loss gradients over the grid index: ``gz`` [C,G] with
    respect to the summed logits, ``gboxes`` [G,4] to the final boxes and
    ``gcoarse`` [G,4] to the coarse L,T,R,B; ``maps`` and ``col`` are the
    forward's input and output. Returns per level a dict of map gradients
    keyed like the LevelMaps fields the mode reads, with the bits of
    per-level accumulation into zero buffers.
    """
    cache = col._cache
    n_pts = cfg.n_points
    c = cfg.classes
    s = cache["s"]
    g = len(s)
    wbox, hbox, tb, ts = cache["wbox"], cache["hbox"], cache["tb"], cache["ts"]

    # fresh accumulators that start from +0, like every other sum here
    box_grad_l, box_grad_t, box_grad_r, box_grad_b = 0.0 + gcoarse.T
    per_grid = {}

    # classification path
    glogits = np.broadcast_to(gz[:, None], (c, n_pts, g)).reshape(c, -1).T  # [N*G,C]
    gcls, gsx, gsy = ops.bilinear_gather_backward(cache["cls_cache"], glogits)
    gsx = gsx.reshape(n_pts, g) / s
    gsy = gsy.reshape(n_pts, g) / s
    if cfg.cls_decoupled:
        fx, fy = semantic_prior_fractions(n_pts)
        coef_x = fx[:, None] + 0.5 * ts[:, 0]
        coef_y = fy[:, None] + 0.5 * ts[:, 1]
        box_grad_l += (gsx * (1.0 - coef_x)).sum(axis=0)
        box_grad_r += (gsx * coef_x).sum(axis=0)
        box_grad_t += (gsy * (1.0 - coef_y)).sum(axis=0)
        box_grad_b += (gsy * coef_y).sum(axis=0)
        gts = np.empty((n_pts, 2, g))
        gts[:, 0] = gsx * 0.5 * wbox[None]
        gts[:, 1] = gsy * 0.5 * hbox[None]
        per_grid["sshift"] = (gts * (1.0 - ts**2)).reshape(2 * n_pts, g)
    # else: points are grid centers; nothing to propagate

    # regression path; a grid without a box gradient adds only zeros
    goffset = gboxes.T
    gbx, gby = np.zeros((2, 4, g))
    gbx[0::2] += goffset[0::2]
    gby[1::2] += goffset[1::2]
    weights, v_img, src_stride = cache["weights"], cache["v_img"], cache["src_stride"]
    gv_raw = goffset * weights.transpose(1, 0, 2) * src_stride[:, None]
    greg, gxs, gys = ops.bilinear_gather_backward(cache["reg_cache"],
                                                  gv_raw.ravel()[cache["order"]])
    for gpts, acc in ((gxs, gbx), (gys, gby)):
        slots = np.zeros_like(v_img)
        slots.reshape(-1)[cache["order"]] = gpts
        slots /= src_stride[:, None]
        for slot in slots:  # slot by slot, as the neighbor levels came
            acc += slot
    if cache["use_softmax"]:
        gweights = goffset[None] * v_img
        graws = ops.softmax_backward(weights, gweights.transpose(1, 0, 2).copy(), axis=1)
        # a padding slot (weight 0) and a lone weight get a zero gradient
        per_grid["lvlw"] = graws.reshape(-1, g)

    # boundary points -> coarse box / shift raws
    if cfg.loc_decoupled:
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
        per_grid["bshift"] = gtb * (1.0 - tb**2)
    # else: boundary points are grid centers (constants)

    # coarse box L,T,R,B -> coarse raw via d = exp(clamped raw)*stride
    gd = np.stack([-box_grad_l, -box_grad_t, box_grad_r, box_grad_b])
    per_grid["coarse"] = gd * cache["d"] * cache["cr_inside"]
    # each level's slice, added to +0 like a fresh zero buffer
    return [dict(reg=gr, cls=gc, **{name: (0.0 + a[:, sl]).reshape(-1, m.h, m.w)
                                    for name, a in per_grid.items()})
            for m, sl, gr, gc in zip(maps, col.cuts, greg, gcls)]


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
