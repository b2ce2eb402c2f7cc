"""Decoupled detection head.

Per pyramid level the head emits dense maps: four regression maps (one per
box side, values are image-space offsets once scaled by the level stride),
N*C classification logit maps, and the raw maps of the two-step point
generation module (coarse box, boundary shifts, semantic shifts, level
weights), as one [C,G] array per map over the grid index (the levels'
grids concatenated in level order, each row-major) in a :class:`Maps`.

Collection then runs per grid: decode a coarse box, place one dynamic point
on each coarse edge and N semantic points inside, sample the regression maps
of the neighboring levels at the boundary points (blended with softmax level
weights), sample each semantic point's own classification map, and reduce to
a final box plus C class scores. :func:`collect_level` does this for every
grid of every level in one pass over the grid index, with the stride as a
per-grid array, into one :class:`Collection` whose ``cuts`` mark each
level's slice; :func:`collect_level_backward` reverses it into map
gradients over the same index. Neighbor slot q of a level reads the level of
offset q, and a level without that neighbor has a padding slot of weight 0
and value 0, so every blended sum keeps the bits of a per-level pass. The
two bilinear gathers (regression, classification) run once each; the
regression gather samples the present slots in (slot, side, grid) order,
and the backward reads and writes through the same slots.

Grid centers, strides, cuts, neighbor slots and both gather layouts depend
only on the pyramid's shape: :func:`_plan` builds them once as read-only
arrays, memoized by each level's (stride, h, w) and the config fields the
collection reads: one entry per image shape a model sees, at most ``_PLAN_MEMO_SIZE``.

Coordinate conventions: grid (i, j) at stride s sits at image point
((j+0.5)s, (i+0.5)s); image point x maps to level grid coordinate
x/s - 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import ops
from .layers import ConvLayer, relu_chain, relu_chain_backward

__all__ = [
    "Maps",
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
# collection plans kept, least recently used out first, see :func:`_plan`
_PLAN_MEMO_SIZE = 32


@dataclass
class Maps:
    """Dense raw outputs over the grid index: level i, of (stride, h, w) =
    ``levels[i]``, holds the next h*w columns of each map; unread maps are None."""

    levels: tuple
    reg: np.ndarray                    # [4,G], image offsets are reg*stride
    cls: np.ndarray                    # [N*C,G] logits
    coarse: np.ndarray                 # [4,G]
    bshift: np.ndarray | None = None   # [4,G]
    sshift: np.ndarray | None = None   # [2N,G]
    lvlw: np.ndarray | None = None     # [4K,G]


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


@lru_cache(maxsize=_PLAN_MEMO_SIZE)
def _plan(levels, offsets, n_pts, c) -> dict:
    """Read-only geometry and gather layouts of a collection over ``levels``
    ((stride, h, w) each) with these neighbor offsets, points and classes: all
    it reads, so modes that agree on them (coupled, loc-only at (0,)) share it."""
    extents = np.array(levels)[:, 1:]  # [L,2] h, w
    sizes = extents[:, 0] * extents[:, 1]
    ends = np.cumsum(sizes)
    level = np.repeat(np.arange(len(sizes)), sizes)
    g = len(level)
    strides = np.array([float(stride) for stride, _, _ in levels])
    s = strides[level]
    ii, jj = np.divmod(np.arange(g) - (ends - sizes)[level], np.repeat(extents[:, 1], sizes))
    # slot q of level i reads level src[q, i], the level of offset q; the
    # (None, i) fallback reads level i in slot 0; slots without a level are
    # padding of weight 0, and ``on`` is the present ones' flat [K,4,G] index
    k = len(offsets)
    src = np.tile(np.arange(len(sizes)), (k, 1))
    present = np.zeros((k, len(sizes)), dtype=bool)
    for i in range(len(sizes)):
        for q, li in available_levels(i, len(sizes), offsets):
            src[q or 0, i], present[q or 0, i] = li, True
    on = np.flatnonzero(np.broadcast_to(present[:, None, level], (k, 4, g)))
    reg_ch = 4 * src[:, level][:, None] + np.arange(4)[:, None]  # [K,4,G]
    # the C classes of semantic point n at grid g share its cells: [N*G,C]
    cls_ch = (level * (n_pts * c) + np.arange(n_pts)[:, None] * c)[..., None] + np.arange(c)
    plan = dict(
        cuts=[slice(end - size, end) for size, end in zip(sizes, ends)], level=level, s=s,
        cx=(jj + 0.5) * s, cy=(ii + 0.5) * s, src_stride=strides[src][:, level], on=on,
        where=present[:, level], fractions=semantic_prior_fractions(n_pts),
        reg_layout=ops.gather_layout(4, extents, np.take(reg_ch, on)),
        cls_layout=ops.gather_layout(n_pts * c, extents, cls_ch.reshape(-1, c)))
    for a in (*plan.values(), *plan["fractions"], *plan["reg_layout"], *plan["cls_layout"]):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return plan


def collect_level(maps, cfg) -> Collection:
    """Vectorized collection of every grid of every level in one pass.

    Works on the grid index with the stride as a per-grid array and returns
    one :class:`Collection` over it. ``cfg`` provides loc_decoupled,
    cls_decoupled, offsets, n_points and classes.
    """
    plan = _plan(maps.levels, cfg.offsets, cfg.n_points, cfg.classes)
    s, cx, cy, g = plan["s"], plan["cx"], plan["cy"], len(plan["s"])

    d = np.exp(np.clip(maps.coarse, -COARSE_RAW_LIMIT, COARSE_RAW_LIMIT)) * s
    box_l, box_t, box_r, box_b = cx - d[0], cy - d[1], cx + d[2], cy + d[3]
    wbox = d[0] + d[2]
    hbox = d[1] + d[3]
    midx = 0.5 * (box_l + box_r)
    midy = 0.5 * (box_t + box_b)

    tb = np.tanh(maps.bshift) if cfg.loc_decoupled else None
    if cfg.loc_decoupled:
        bx = np.stack([box_l, midx + tb[1] * 0.5 * wbox, box_r, midx + tb[3] * 0.5 * wbox])
        by = np.stack([midy + tb[0] * 0.5 * hbox, box_t, midy + tb[2] * 0.5 * hbox, box_b])
    else:
        bx = np.broadcast_to(cx, (4, g)).copy()
        by = np.broadcast_to(cy, (4, g)).copy()

    # a fallback or lvlw-less level gets softmax(0) = uniform weights
    k = len(cfg.offsets)
    use_softmax = cfg.loc_decoupled and maps.lvlw is not None
    raws = maps.lvlw.reshape(4, k, g) if use_softmax else np.zeros((4, k, g))
    weights = ops.softmax(raws, axis=1, where=plan["where"])
    src_stride, on = plan["src_stride"], plan["on"]
    gx = bx / src_stride[:, None] - 0.5
    gy = by / src_stride[:, None] - 0.5
    vals, reg_cache = ops.bilinear_gather(maps.reg, plan["reg_layout"], np.take(gx, on),
                                          np.take(gy, on))
    v_img = np.zeros((k, 4, g))
    v_img.reshape(-1)[on] = vals
    v_img *= src_stride[:, None]
    offset = np.einsum("akg,akg->kg", weights.transpose(1, 0, 2), v_img)
    boxes = np.stack(
        [offset[0] + bx[0], offset[1] + by[1], offset[2] + bx[2], offset[3] + by[3]], axis=1
    )

    n_pts = cfg.n_points
    c = cfg.classes
    ts = None
    if cfg.cls_decoupled:
        fx, fy = plan["fractions"]
        ts = np.tanh(maps.sshift.reshape(n_pts, 2, g))
        sx = box_l[None] + (fx[:, None] + 0.5 * ts[:, 0]) * wbox[None]
        sy = box_t[None] + (fy[:, None] + 0.5 * ts[:, 1]) * hbox[None]
    else:
        sx = cx[None].copy()
        sy = cy[None].copy()
    logits, cls_cache = ops.bilinear_gather(maps.cls, plan["cls_layout"], (sx / s - 0.5).ravel(),
                                            (sy / s - 0.5).ravel())
    z = logits.reshape(n_pts, g, c).sum(axis=0).T
    scores = ops.sigmoid(z)

    cache = dict(plan=plan, d=d, cr_inside=np.abs(maps.coarse) < COARSE_RAW_LIMIT, wbox=wbox,
                 hbox=hbox, tb=tb, ts=ts, weights=weights, v_img=v_img, reg_cache=reg_cache,
                 cls_cache=cls_cache, use_softmax=use_softmax)
    return Collection(level=plan["level"], grid_cx=cx, grid_cy=cy,
                      coarse=np.stack([box_l, box_t, box_r, box_b], axis=1), bx=bx, by=by,
                      sx=sx, sy=sy, weights=weights, boxes=boxes, z=z, scores=scores,
                      cuts=list(plan["cuts"]), _cache=cache)


def collect_level_backward(maps, col, cfg, gz, gboxes, gcoarse) -> Maps:
    """Reverse :func:`collect_level` for every level at once.

    The arguments are loss gradients over the grid index: ``gz`` [C,G] with
    respect to the summed logits, ``gboxes`` [G,4] to the final boxes and
    ``gcoarse`` [G,4] to the coarse L,T,R,B; ``maps`` and ``col`` are the
    forward's input and output. Returns the gradients of the maps the mode
    reads as a :class:`Maps` with the forward's ``levels``.
    """
    cache, plan = col._cache, col._cache["plan"]
    n_pts = cfg.n_points
    c = cfg.classes
    s = plan["s"]
    g = len(s)
    wbox, hbox, tb, ts = cache["wbox"], cache["hbox"], cache["tb"], cache["ts"]

    box_grad_l, box_grad_t, box_grad_r, box_grad_b = gcoarse.T.copy()
    per_grid = {}

    # classification path
    glogits = np.broadcast_to(gz[:, None], (c, n_pts, g)).reshape(c, -1).T  # [N*G,C]
    gcls, gsx, gsy = ops.bilinear_gather_backward(cache["cls_cache"], glogits)
    gsx = gsx.reshape(n_pts, g) / s
    gsy = gsy.reshape(n_pts, g) / s
    if cfg.cls_decoupled:
        fx, fy = plan["fractions"]
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
    weights, v_img, src_stride = cache["weights"], cache["v_img"], plan["src_stride"]
    gv_raw = goffset * weights.transpose(1, 0, 2) * src_stride[:, None]
    greg, gxs, gys = ops.bilinear_gather_backward(cache["reg_cache"], np.take(gv_raw, plan["on"]))
    for gpts, acc in ((gxs, gbx), (gys, gby)):
        slots = np.zeros_like(v_img)
        slots.reshape(-1)[plan["on"]] = gpts
        acc += (slots / src_stride[:, None]).sum(axis=0)
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
    return Maps(levels=maps.levels, reg=greg, cls=gcls, **per_grid)


# ---------------------------------------------------------------------------
# head network


class Head:
    """Shared-weight conv branches applied to every pyramid level.

    ``trunks`` maps each branch (``reg``, ``cls``, ``gen``) to its conv-ReLU
    chain over the level feature. ``outputs`` is the ordered table
    ``{map name: (trunk, ConvLayer)}`` of the raw maps read off the trunk
    ends; it holds only the maps the mode needs, and its names are the
    :class:`Maps` fields. Both orders are the creation order, which
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

    def forward(self, feats, strides, keep_cache=True):
        """The :class:`Maps` of every level and, with ``keep_cache``, the
        per-level caches :meth:`backward` reads (else an empty list)."""
        raws, caches = [], []
        for feat, stride in zip(feats, strides):
            # all head convs are 3x3, stride 1, padding 1: readers share patches
            cols = ops.im2col(feat, 3, 1, 1)
            ends, trunk_caches = {}, {}
            for name, trunk in self.trunks.items():
                ends[name], trunk_caches[name] = relu_chain(trunk, feat, cols, keep_cache)
            # the table groups outputs by trunk: each end's patches are built
            # just before its first output and, unless cached, freed after its last
            raw, out_caches, cols_of = {}, {}, None
            for name, (trunk, layer) in self.outputs.items():
                if trunk != cols_of:
                    cols, cols_of = ops.im2col(ends[trunk], 3, 1, 1), trunk
                raw[name], cache = layer.forward(ends[trunk], cols)
                if keep_cache:
                    out_caches[name] = cache
            raws.append(raw)
            if keep_cache:
                caches.append((trunk_caches, out_caches))
        levels = tuple((stride, *r["reg"].shape[1:]) for stride, r in zip(strides, raws))
        maps = Maps(levels=levels, **{
            name: np.concatenate([r[name].reshape(len(r[name]), -1) for r in raws], axis=1)
            for name in self.outputs})
        return maps, caches

    def backward(self, caches, gmaps):
        """Per-level feature gradients from the :class:`Maps` ``gmaps``. Every
        tensor's readers share one :func:`ops.conv2d_input_grad` call, stacked
        in table order: the trunk ends' output convs, then the trunks' first
        convs on the feature. A conv whose output gradient is all zero runs no backward."""
        gfeats, start = [], 0
        for (trunk_caches, out_caches), (_, h, w) in zip(caches, gmaps.levels):
            readers = {name: [] for name in self.trunks}
            live = set()
            for name, (trunk, layer) in self.outputs.items():
                gm = getattr(gmaps, name)[:, start:start + h * w].reshape(-1, h, w)
                if gm.any():  # NaN is non-zero
                    layer.backward(out_caches[name], gm)
                    live.add(trunk)
                readers[trunk].append((out_caches[name], gm))
            start += h * w
            # a trunk without a backward gives its first conv a zero gy, shaped like its
            # ReLU mask: the feature's stacked GEMM keeps its shape and bits
            firsts = [relu_chain_backward(trunk, trunk_caches[name],
                                          ops.conv2d_input_grad(*zip(*readers[name])))
                      if name in live else
                      (trunk_caches[name][0][0], np.zeros(trunk_caches[name][0][1].shape))
                      for name, trunk in self.trunks.items()]
            gfeats.append(ops.conv2d_input_grad(*zip(*firsts)))
        return gfeats
