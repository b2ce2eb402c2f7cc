from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet import head, ops
from pointdet.head import (
    Maps,
    available_levels,
    collect_level,
    collect_level_backward,
    semantic_prior_fractions,
)
from pointdet.layers import ConvLayer
from pointdet.model import MODES, DetectionModel, ModelConfig

from oracles import (
    boundary_points_reference,
    class_scores_reference,
    coarse_box_reference,
    collect_box_reference,
    collect_grid_reference,
    level_weights_reference,
    map_views,
    neighbor_levels_reference,
    pack_maps,
    semantic_points_reference,
)


def _random_collections(seed, draws, cfg=None, coarse=1.5, shift=2.0, lvlw=3.0):
    """``(per-level map views, collection)`` for each of ``draws`` sets of
    dense maps of a 128x128 image (1344 grids per draw) with random raw
    values."""
    cfg = cfg or ModelConfig()
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        levels = []
        for stride in cfg.strides:
            h = w = 128 // stride
            levels.append(dict(
                stride=stride,
                reg=rng.normal(size=(4, h, w)),
                cls=rng.normal(size=(cfg.n_points * cfg.classes, h, w)),
                coarse=rng.normal(scale=coarse, size=(4, h, w)),
                bshift=rng.normal(scale=shift, size=(4, h, w)),
                sshift=rng.normal(scale=shift, size=(2 * cfg.n_points, h, w)),
                lvlw=rng.normal(scale=lvlw, size=(4 * len(cfg.offsets), h, w)),
            ))
        maps = Maps(**pack_maps(levels))
        yield map_views(maps), collect_level(maps, cfg)


def _level_weights(col, li, n_levels, offsets):
    """Level ``li``'s weights [4,K_av,G_li] over its available neighbor slots."""
    slots = [q or 0 for q, _ in available_levels(li, n_levels, offsets)]
    return col.weights[:, slots, col.cuts[li]]


def _ragged_maps(cfg, h0, w0, rng):
    """Random raw maps of a ``cfg`` pyramid whose level 0 is h0 x w0 grids and
    each coarser level halves it, rounding up (so coarse levels reach 1x1)."""
    levels = []
    for lv, stride in enumerate(cfg.strides):
        h, w = -(-h0 // 2**lv), -(-w0 // 2**lv)
        levels.append(dict(
            stride=stride,
            reg=rng.normal(size=(4, h, w)),
            cls=rng.normal(size=(cfg.n_points * cfg.classes, h, w)),
            coarse=rng.normal(scale=1.5, size=(4, h, w)),
            bshift=rng.normal(scale=2.0, size=(4, h, w)) if cfg.loc_decoupled else None,
            sshift=(rng.normal(scale=2.0, size=(2 * cfg.n_points, h, w))
                    if cfg.cls_decoupled else None),
            lvlw=rng.normal(scale=3.0, size=(4 * len(cfg.offsets), h, w)) if cfg.has_lvlw else None,
        ))
    return Maps(**pack_maps(levels))


# ---------------------------------------------------------------------------
# coarse box decoding


def test_decode_coarse_zero_raw():
    assert coarse_box_reference(10.0, 10.0, 4, [0.0] * 4) == (6, 6, 14, 14)


def test_decode_coarse_hand_value():
    box = coarse_box_reference(10.0, 10.0, 4, [np.log(2), 0.0, np.log(2), 0.0])
    assert box == pytest.approx((2.0, 6.0, 18.0, 14.0))


def test_decode_coarse_matches_formula_randomized():
    for maps, col in _random_collections(0, 2, coarse=1.0):
        for m, sl in zip(maps, col.cuts):
            d = np.exp(m.coarse.reshape(4, -1)) * m.stride
            coarse, cx, cy = col.coarse[sl], col.grid_cx[sl], col.grid_cy[sl]
            np.testing.assert_allclose(coarse[:, 0], cx - d[0], rtol=1e-12)
            np.testing.assert_allclose(coarse[:, 1], cy - d[1], rtol=1e-12)
            np.testing.assert_allclose(coarse[:, 2], cx + d[2], rtol=1e-12)
            np.testing.assert_allclose(coarse[:, 3], cy + d[3], rtol=1e-12)
        assert np.all(col.coarse[:, 2] > col.coarse[:, 0])
        assert np.all(col.coarse[:, 3] > col.coarse[:, 1])


# ---------------------------------------------------------------------------
# boundary points


def test_boundary_zero_shift_is_midpoints():
    pts = boundary_points_reference((0, 0, 4, 8), [0.0] * 4)
    np.testing.assert_allclose(pts, [[0, 4], [2, 0], [4, 4], [2, 8]])


def test_boundary_saturation_limit():
    pts = boundary_points_reference((0, 0, 4, 8), [100.0, 0, 0, 0])
    np.testing.assert_allclose(pts[0], [0.0, 8.0])


def test_boundary_on_edge_property_1e4_draws():
    grids = 0
    for _, col in _random_collections(1, 8):
        l, t, r, b = col.coarse.T
        # exact edge-coordinate equality, transverse coordinate within segment
        assert np.all(col.bx[0] == l) and np.all((t <= col.by[0]) & (col.by[0] <= b))
        assert np.all(col.by[1] == t) and np.all((l <= col.bx[1]) & (col.bx[1] <= r))
        assert np.all(col.bx[2] == r) and np.all((t <= col.by[2]) & (col.by[2] <= b))
        assert np.all(col.by[3] == b) and np.all((l <= col.bx[3]) & (col.bx[3] <= r))
        grids += len(col.level)
    assert grids >= 10_000


# ---------------------------------------------------------------------------
# semantic points


def test_semantic_prior_grid_n9():
    pts = semantic_points_reference((0, 0, 6, 6), [0.0] * 18)
    xs = sorted(set(round(p[0], 9) for p in pts))
    ys = sorted(set(round(p[1], 9) for p in pts))
    assert xs == [1.0, 3.0, 5.0]
    assert ys == [1.0, 3.0, 5.0]
    assert len(pts) == 9


def test_semantic_single_point_center():
    pts = semantic_points_reference((0, 0, 4, 4), [0.0, 0.0])
    np.testing.assert_allclose(pts, [[2.0, 2.0]])


def test_semantic_points_within_dilated_box_property():
    grids = 0
    for _, col in _random_collections(2, 8, shift=3.0):
        l, t, r, b = col.coarse.T
        w, h = r - l, b - t
        assert np.all((col.sx >= l - 0.5 * w) & (col.sx <= r + 0.5 * w))
        assert np.all((col.sy >= t - 0.5 * h) & (col.sy <= b + 0.5 * h))
        grids += len(col.level)
    assert grids >= 10_000


def test_semantic_nonsquare_n_rejected():
    with pytest.raises(ValueError, match="square"):
        semantic_prior_fractions(8)
    with pytest.raises(ValueError, match="square"):
        ModelConfig(n_semantic=8)


# ---------------------------------------------------------------------------
# level weights


def test_level_weights_symmetric():
    w = level_weights_reference([0.0] * 8, 2)
    np.testing.assert_allclose(w, np.full((4, 2), 0.5))


def test_level_weights_hand_value():
    w = level_weights_reference([np.log(3.0), 0.0] * 4, 2)
    np.testing.assert_allclose(w, np.tile([0.75, 0.25], (4, 1)), atol=1e-12)


def test_level_weights_simplex_property():
    cfg = ModelConfig(neighbor_offsets=(-2, -1, 0))
    for maps, col in _random_collections(3, 1, cfg=cfg, lvlw=4.0):
        for li, sl in enumerate(col.cuts):
            weights = _level_weights(col, li, len(maps), cfg.offsets)
            assert weights.shape == (4, li + 1, sl.stop - sl.start)
            assert np.all(weights > 0)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# collection reference


def _flat_maps(stride, h, w, reg_fill=0.0, n=1, c=2):
    return SimpleNamespace(
        stride=stride,
        reg=np.full((4, h, w), reg_fill),
        cls=np.zeros((n * c, h, w)),
        coarse=np.zeros((4, h, w)),
    )


def test_collect_regression_single_level_example():
    # x_l = 7, sampled offset -2 (raw -2/stride scaled by stride) -> B_l = 5
    maps = [_flat_maps(stride=4, h=8, w=8, reg_fill=-0.5)]
    boundary = [(7.0, 10.0), (10.0, 6.0), (13.0, 10.0), (10.0, 14.0)]
    box = collect_box_reference(maps, boundary, [[1.0]] * 4, 0, (0,))
    assert box[0] == pytest.approx(7.0 - 2.0)


def test_collect_regression_weighted_example():
    # weights (0.25, 0.75), image-space offsets (-2, -4), x_l = 10 -> 6.5
    maps = [
        _flat_maps(stride=4, h=16, w=16, reg_fill=-0.5),   # -2 px offsets
        _flat_maps(stride=8, h=8, w=8, reg_fill=-0.5),     # -4 px offsets
    ]
    boundary = [(10.0, 20.0), (20.0, 10.0), (30.0, 20.0), (20.0, 30.0)]
    box = collect_box_reference(maps, boundary, [[0.25, 0.75]] * 4, 1, (-1, 0))
    assert box[0] == pytest.approx(10.0 + 0.25 * -2.0 + 0.75 * -4.0)


def test_collect_regression_constant_maps_weight_independent():
    rng = np.random.default_rng(4)
    maps = [
        _flat_maps(stride=4, h=16, w=16, reg_fill=0.75),
        _flat_maps(stride=8, h=8, w=8, reg_fill=0.375),  # same 3 px image offset
    ]
    boundary = [(10.0, 20.0), (20.0, 10.0), (30.0, 20.0), (20.0, 30.0)]
    results = [
        collect_box_reference(maps, boundary, rng.dirichlet([1, 1], size=4), 1, (-1, 0))
        for _ in range(5)
    ]
    for r in results[1:]:
        np.testing.assert_allclose(r, results[0], atol=1e-12)


def test_available_levels_truncation():
    assert available_levels(0, 3, (-1, 0)) == [(1, 0)]
    assert available_levels(1, 3, (-1, 0)) == [(0, 0), (1, 1)]
    assert available_levels(2, 3, (-1, 0)) == [(0, 1), (1, 2)]
    assert available_levels(0, 3, (-1,)) == [(None, 0)]  # fallback to {s0}


def test_aggregate_classification_zero_logits():
    scores = class_scores_reference(np.zeros((6, 8, 8)), 3, [(10.0, 10.0), (20.0, 12.0)], 4)
    np.testing.assert_allclose(scores, 0.5)


def test_aggregate_classification_saturation():
    scores = class_scores_reference(np.full((1, 4, 4), 60.0), 1, [(8.0, 8.0)], 4)
    assert scores[0] == pytest.approx(1.0)


def test_aggregate_classification_permutation_invariant():
    rng = np.random.default_rng(5)
    cls = rng.normal(size=(4, 3, 8, 8))
    pts = rng.uniform(4, 28, size=(4, 2))
    base = class_scores_reference(cls.reshape(12, 8, 8), 3, pts, 4)
    perm = rng.permutation(4)
    permuted = class_scores_reference(cls[perm].reshape(12, 8, 8), 3, pts[perm], 4)
    np.testing.assert_allclose(base, permuted, atol=1e-12)


# ---------------------------------------------------------------------------
# full head forward


def test_head_forward_candidate_count():
    model = DetectionModel(ModelConfig(), seed=0)
    img = np.random.default_rng(6).uniform(size=(3, 64, 64))
    state = model.forward(img)
    assert [sl.stop - sl.start for sl in state.collection.cuts] == [256, 64, 16]
    assert len(state.collection.level) == 336


def test_head_zero_shift_raws_give_prior_points():
    model = DetectionModel(ModelConfig(channels=8), seed=1)
    img = np.random.default_rng(7).uniform(size=(3, 32, 32))
    # force shift heads to zero output
    for _, layer in (model.head.outputs["bshift"], model.head.outputs["sshift"]):
        layer.w.value[...] = 0.0
        layer.b.value[...] = 0.0
    col = model.forward(img).collection
    mid_y = 0.5 * (col.coarse[:, 1] + col.coarse[:, 3])
    mid_x = 0.5 * (col.coarse[:, 0] + col.coarse[:, 2])
    np.testing.assert_allclose(col.by[0], mid_y, atol=1e-12)
    np.testing.assert_allclose(col.bx[1], mid_x, atol=1e-12)
    # semantic points on the prior grid of the coarse box
    fx, fy = semantic_prior_fractions(9)
    w = col.coarse[:, 2] - col.coarse[:, 0]
    h = col.coarse[:, 3] - col.coarse[:, 1]
    np.testing.assert_allclose(col.sx, col.coarse[:, 0] + fx[:, None] * w, atol=1e-12)
    np.testing.assert_allclose(col.sy, col.coarse[:, 1] + fy[:, None] * h, atol=1e-12)


def test_vectorized_collection_matches_scalar_ops():
    cfg = ModelConfig(classes=3, n_semantic=9, channels=8)
    model = DetectionModel(cfg, seed=2)
    img = np.random.default_rng(8).uniform(size=(3, 32, 32))
    state = model.forward(img)
    col, views = state.collection, map_views(state.maps)
    for li, (m, sl) in enumerate(zip(views, col.cuts)):
        avail = neighbor_levels_reference(li, len(views), cfg.offsets)
        k_model = m.lvlw.shape[0] // 4
        level_weights = _level_weights(col, li, len(views), cfg.offsets)
        for flat in range(m.h * m.w):
            i, j = divmod(flat, m.w)
            g = sl.start + flat
            cx, cy = (j + 0.5) * m.stride, (i + 0.5) * m.stride
            coarse = coarse_box_reference(cx, cy, m.stride, m.coarse[:, i, j])
            np.testing.assert_allclose(col.coarse[g], coarse, atol=1e-9)
            bpts = boundary_points_reference(coarse, m.bshift[:, i, j])
            np.testing.assert_allclose(np.stack([col.bx[:, g], col.by[:, g]], axis=1),
                                       bpts, atol=1e-9)
            spts = semantic_points_reference(coarse, m.sshift[:, i, j])
            np.testing.assert_allclose(np.stack([col.sx[:, g], col.sy[:, g]], axis=1),
                                       spts, atol=1e-9)
            weights = level_weights_reference(m.lvlw[:, i, j], k_model, [q for q, _ in avail])
            np.testing.assert_allclose(level_weights[:, :, flat], weights, atol=1e-9)
            box = collect_box_reference(views, bpts, weights, li, cfg.offsets)
            np.testing.assert_allclose(col.boxes[g], box, atol=1e-9)
            scores = class_scores_reference(m.cls, cfg.classes, spts, m.stride)
            np.testing.assert_allclose(col.scores[:, g], scores, atol=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(levels=st.integers(1, 4), h0=st.integers(1, 8), w0=st.integers(1, 8),
       offsets=st.sampled_from([(-1, 0), (-1, 0, 1), (0,), (1,)]), mode=st.sampled_from(MODES),
       seed=st.integers(0, 2**16))
def test_collection_matches_scalar_oracles_on_ragged_pyramids(levels, h0, w0, offsets, mode,
                                                              seed):
    """Every level count, 1x1 coarse levels (the extent-1 cell branch), the
    fallback of (1,) at the top level and every mode, grid by grid."""
    cfg = ModelConfig(classes=2, n_semantic=4, levels=levels, neighbor_offsets=offsets,
                      mode=mode)
    maps = _ragged_maps(cfg, h0, w0, np.random.default_rng(seed))
    col, views = collect_level(maps, cfg), map_views(maps)
    for li, (m, sl) in enumerate(zip(views, col.cuts)):
        level_weights = _level_weights(col, li, len(views), cfg.offsets)
        for flat in range(m.h * m.w):
            i, j = divmod(flat, m.w)
            g = sl.start + flat
            coarse, boundary, semantic, weights, box, scores = collect_grid_reference(
                views, li, i, j, cfg.loc_decoupled, cfg.cls_decoupled, cfg.offsets, cfg.classes)
            for got, want in (
                (col.coarse[g], coarse),
                (np.stack([col.bx[:, g], col.by[:, g]], axis=1), boundary),
                (np.stack([col.sx[:, g], col.sy[:, g]], axis=1), semantic),
                (level_weights[:, :, flat], weights),
                (col.boxes[g], box),
                (col.scores[:, g], scores),
            ):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("levels, h0, w0, offsets", [
    (1, 1, 1, (0,)), (3, 8, 8, (-1, 0)), (4, 5, 7, (-1, 0, 1)), (3, 1, 6, (1,)),
    (4, 8, 3, (-2, -1, 0)),
])
def test_collection_cuts_partition_the_grid_index(levels, h0, w0, offsets):
    cfg = ModelConfig(classes=2, n_semantic=4, levels=levels, neighbor_offsets=offsets)
    maps = _ragged_maps(cfg, h0, w0, np.random.default_rng(levels))
    col = collect_level(maps, cfg)
    g = len(col.level)
    # the level slices, in level order, cover the grid index exactly once
    assert [k for sl in col.cuts for k in range(g)[sl]] == list(range(g))
    assert len(col.cuts) == levels
    assert col.coarse.shape == col.boxes.shape == (g, 4)
    assert col.bx.shape == (4, g) and col.sx.shape == (cfg.n_points, g)
    assert col.weights.shape == (4, len(cfg.offsets), g) and col.z.shape == (cfg.classes, g)
    for i, ((_, h, w), sl) in enumerate(zip(maps.levels, col.cuts)):
        assert sl.stop - sl.start == h * w
        assert np.all(col.level[sl] == i)
        # a slot without an available level is padding of weight 0
        used = {q or 0 for q, _ in available_levels(i, levels, cfg.offsets)}
        padding = [q for q in range(len(cfg.offsets)) if q not in used]
        assert np.all(col.weights[:, padding, sl] == 0.0)


def test_weight_simplex_invariant_on_random_models():
    for seed in range(5):
        model = DetectionModel(ModelConfig(channels=8), seed=seed)
        img = np.random.default_rng(seed).uniform(size=(3, 32, 32))
        state = model.forward(img)
        for li in range(len(state.maps.levels)):
            weights = _level_weights(state.collection, li, len(state.maps.levels),
                                     model.config.offsets)
            sums = weights.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert np.all(weights > 0)


def test_eq3_consistency_offset_plus_coordinate():
    model = DetectionModel(ModelConfig(channels=8), seed=3)
    img = np.random.default_rng(9).uniform(size=(3, 32, 32))
    state = model.forward(img)
    col = state.collection
    for li, sl in enumerate(col.cuts):
        n_grids = sl.stop - sl.start
        bx, by = col.bx[0, sl], col.by[0, sl]
        sampled_l = np.zeros(n_grids)
        levels = state.maps.levels
        for q, lvl in available_levels(li, len(levels), model.config.offsets):
            stride = levels[lvl][0]
            vals, _ = ops.bilinear_gather(
                state.maps.reg, ops.gather_layout(4, [(h, w) for _, h, w in levels],
                                                  np.full(n_grids, 4 * lvl)),
                bx / stride - 0.5, by / stride - 0.5,
            )
            sampled_l += col.weights[0, q or 0, sl] * vals * stride
        np.testing.assert_allclose(col.boxes[sl, 0] - bx, sampled_l, atol=1e-9)


def test_baseline_degeneracy_reduces_to_per_grid_reading():
    """Coupled collection equals reading each map at the grid itself."""
    cfg = ModelConfig(classes=3, n_semantic=9, channels=8, mode="coupled")
    model = DetectionModel(cfg, seed=4)
    img = np.random.default_rng(10).uniform(size=(3, 32, 32))
    state = model.forward(img)
    col = state.collection
    for m, sl in zip(map_views(state.maps), col.cuts):
        h, w = m.h, m.w
        boxes, cx, cy = col.boxes[sl], col.grid_cx[sl], col.grid_cy[sl]
        reg = m.reg.reshape(4, h * w) * m.stride
        np.testing.assert_allclose(boxes[:, 0], reg[0] + cx, atol=1e-9)
        np.testing.assert_allclose(boxes[:, 1], reg[1] + cy, atol=1e-9)
        np.testing.assert_allclose(boxes[:, 2], reg[2] + cx, atol=1e-9)
        np.testing.assert_allclose(boxes[:, 3], reg[3] + cy, atol=1e-9)
        logits = m.cls.reshape(cfg.classes, h * w)
        np.testing.assert_allclose(col.scores[:, sl], ops.sigmoid(logits), atol=1e-12)


def test_gradient_locality_follows_sampling_points():
    """Perturbing a regression map changes B only where points sample it."""
    cfg = ModelConfig(channels=8)
    model = DetectionModel(cfg, seed=5)
    img = np.random.default_rng(11).uniform(size=(3, 32, 32))
    state = model.forward(img)
    col = state.collection
    m = map_views(state.maps)[0]
    grid = 20  # level 0 comes first in the grid index
    x_l = col.bx[0, grid] / m.stride - 0.5
    y_l = col.by[0, grid] / m.stride - 0.5
    cell = (int(np.floor(y_l)), int(np.floor(x_l)))

    base = col.boxes[grid, 0]
    m.reg[0, cell[0], cell[1]] += 1.0
    state2_col = collect_level(state.maps, cfg)
    m.reg[0, cell[0], cell[1]] -= 1.0
    assert abs(state2_col.boxes[grid, 0] - base) > 1e-6

    # a far-away cell leaves this grid's left edge untouched
    far = ((cell[0] + 4) % m.h, (cell[1] + 4) % m.w)
    m.reg[0, far[0], far[1]] += 1.0
    state3_col = collect_level(state.maps, cfg)
    m.reg[0, far[0], far[1]] -= 1.0
    assert state3_col.boxes[grid, 0] == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# collection plan


def _plan_cases():
    """``(cfg, maps)`` of every mode and offset set on four ragged pyramids,
    whose coarse levels reach 1x1 and width-1 shapes. Cases that differ in
    one key field only, or only in offsets a mode ignores, are all here."""
    cases = []
    for (h0, w0), levels in (((1, 1), 1), ((3, 5), 3), ((8, 8), 4), ((7, 2), 2)):
        for mode in MODES:
            for offsets in ((-1, 0), (1,), (-1, 0, 1)):
                cfg = ModelConfig(classes=2, n_semantic=4, levels=levels, mode=mode,
                                  neighbor_offsets=offsets)
                cases.append((cfg, _ragged_maps(cfg, h0, w0, np.random.default_rng(len(cases)))))
    return cases


def _collect_both_ways(maps, cfg, seed):
    """The collection of ``maps`` and the map gradients of random loss
    gradients through its backward."""
    col = collect_level(maps, cfg)
    g = len(col.level)
    rng = np.random.default_rng(seed)
    return col, collect_level_backward(maps, col, cfg, rng.normal(size=(cfg.classes, g)),
                                       rng.normal(size=(g, 4)), rng.normal(size=(g, 4)))


def test_a_cached_plan_collects_like_a_fresh_one():
    """Forward and backward through a plan fetched from the cache equal,
    bit for bit, the same collection through a plan built just for it,
    visiting the cases in an order that alternates modes, offsets and
    shapes; 1x1 levels give the gathers axes of extent 1."""
    cases = _plan_cases()
    cold = []
    for i, (cfg, maps) in enumerate(cases):
        head._plan.cache_clear()
        cold.append(_collect_both_ways(maps, cfg, i))
    assert any(h == w == 1 for _, maps in cases for _, h, w in maps.levels)
    head._plan.cache_clear()
    for cfg, maps in cases:
        collect_level(maps, cfg)
    n_plans = head._plan.cache_info().currsize
    for i in (7 * k % len(cases) for k in range(len(cases))):
        cfg, maps = cases[i]
        col, grads = _collect_both_ways(maps, cfg, i)
        _assert_same_bytes(vars(col), vars(cold[i][0]))
        _assert_same_tree(vars(grads), vars(cold[i][1]))
    # coupled and cls-only ignore the offsets, so three of each mode's cases share a plan
    assert head._plan.cache_info().currsize == n_plans == 4 * (3 + 1 + 3 + 1)


def test_same_shape_forwards_share_one_plan():
    head._plan.cache_clear()
    model = DetectionModel(ModelConfig(channels=8), seed=0)
    rng = np.random.default_rng(13)
    cols = [model.forward(rng.uniform(size=(3, 32, 32)), keep_cache=False).collection
            for _ in range(3)]
    assert head._plan.cache_info().currsize == 1
    assert cols[0].level is cols[2].level and cols[0].grid_cx is cols[1].grid_cx
    # another image shape or another mode gets an entry of its own
    model.forward(rng.uniform(size=(3, 32, 48)), keep_cache=False)
    DetectionModel(ModelConfig(channels=8, mode="coupled"), seed=0).forward(
        rng.uniform(size=(3, 32, 32)), keep_cache=False)
    assert head._plan.cache_info().currsize == 3


def test_modes_that_read_the_same_plan_share_it():
    """coupled and loc-only with the lone offset 0 read the same grid
    geometry and layouts, so they share one plan."""
    head._plan.cache_clear()
    image = np.random.default_rng(15).uniform(size=(3, 32, 32))
    for mode in ("coupled", "loc-only"):
        DetectionModel(ModelConfig(channels=8, mode=mode, neighbor_offsets=(0,)), seed=0).forward(
            image, keep_cache=False)
    assert head._plan.cache_info().currsize == 1


def test_shape_memos_are_bounded():
    for memo in (head._plan, ops._col2im_indices):
        assert isinstance(memo.cache_info().maxsize, int)


def test_shared_collection_arrays_are_read_only():
    col = DetectionModel(ModelConfig(channels=8), seed=0).forward(
        np.random.default_rng(14).uniform(size=(3, 32, 32))).collection
    for shared in (col.level, col.grid_cx, col.grid_cy):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0
    # the per-forward results stay the caller's to edit
    col.scores[0, 0] = col.boxes[0, 0] = col.bx[0, 0] = col.sx[0, 0] = 0.0


def _assert_same_tree(a, b):
    """``a`` and ``b`` hold equal arrays (bit for bit) in the same nesting."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape and np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_tree(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_same_tree(a[key], b[key])
    else:
        assert a == b


@pytest.mark.parametrize("mode", MODES)
def test_head_forward_shares_patches_bit_for_bit(mode, monkeypatch):
    """Convs that read one tensor share its im2col patches, and the maps and
    caches equal a forward in which every conv builds its own."""
    model = DetectionModel(ModelConfig(mode=mode), seed=3)
    feats, _ = model.backbone.forward(np.random.default_rng(12).uniform(size=(3, 64, 64)))
    maps, caches = model.head.forward(feats, model.backbone.strides)

    own_patches = ConvLayer.forward
    monkeypatch.setattr(ConvLayer, "forward", lambda self, x, cols=None: own_patches(self, x))
    ref_maps, ref_caches = model.head.forward(feats, model.backbone.strides)
    monkeypatch.undo()
    _assert_same_tree(vars(maps), vars(ref_maps))
    _assert_same_tree(caches, ref_caches)

    for trunk_caches, out_caches in caches:
        first = [trunk_caches[name][0][0][0] for name in ("reg", "cls", "gen")]
        assert first[0] is first[1] is first[2]
        assert trunk_caches["reg"][1][0][0] is not first[0]
        gen_cols = [out_caches[name][0] for name in out_caches
                    if model.head.outputs[name][0] == "gen"]
        assert all(c is gen_cols[0] for c in gen_cols)
        assert not gen_cols[0].flags.writeable
        if mode in ("decoupled", "loc-only"):
            assert out_caches["coarse"][0] is out_caches["bshift"][0]


def _assert_same_bytes(a, b):
    """Equal field names, and every array field equal byte for byte."""
    assert list(a) == list(b)
    for key, x in a.items():
        if isinstance(x, np.ndarray):
            assert x.dtype == b[key].dtype and x.shape == b[key].shape, key
            assert x.tobytes() == b[key].tobytes(), key
        elif key != "_cache":
            assert x == b[key], key


@pytest.mark.parametrize("mode", MODES)
def test_forward_without_cache_gives_the_same_bytes(mode):
    """Inference's forward keeps no conv caches or ReLU masks, and its maps
    and collection equal the training forward's byte for byte."""
    model = DetectionModel(ModelConfig(mode=mode), seed=5)
    image = np.random.default_rng(8).uniform(size=(3, 64, 64))
    full = model.forward(image)
    light = model.forward(image, keep_cache=False)
    assert light._bcache == [] and light._hcache == []
    assert len(full._bcache) == 3 and len(full._hcache) == 3
    _assert_same_bytes(vars(light.maps), vars(full.maps))
    _assert_same_bytes(vars(light.collection), vars(full.collection))


def test_backward_after_a_forward_without_cache_raises():
    model = DetectionModel(ModelConfig(channels=8), seed=0)
    state = model.forward(np.random.default_rng(1).uniform(size=(3, 32, 32)), keep_cache=False)
    g = len(state.collection.level)
    with pytest.raises(ValueError, match="kept no caches"):
        model.backward(state, np.zeros((3, g)), np.zeros((g, 4)), np.zeros((g, 4)))


def test_second_backward_on_a_consumed_state_raises():
    model = DetectionModel(ModelConfig(channels=8), seed=0)
    state = model.forward(np.random.default_rng(1).uniform(size=(3, 32, 32)))
    g = len(state.collection.level)
    grads = np.zeros((3, g)), np.zeros((g, 4)), np.zeros((g, 4))
    model.backward(state, *grads)
    assert state._bcache == [] and state._hcache == []
    with pytest.raises(ValueError, match="or a backward consumed it"):
        model.backward(state, *grads)


@pytest.mark.parametrize("mode", MODES)
def test_collection_backward_returns_the_maps_the_head_outputs(mode):
    """``Head.backward`` reads the gradient of each map of its output table
    by name: the collection backward gives exactly those, over the forward's
    levels and each shaped like its forward map."""
    model = DetectionModel(ModelConfig(channels=8, mode=mode), seed=0)
    state = model.forward(np.random.default_rng(15).uniform(size=(3, 32, 48)))
    _, grads = _collect_both_ways(state.maps, model.config, 16)
    assert isinstance(grads, Maps) and grads.levels == state.maps.levels
    present = {name: a for name, a in vars(grads).items() if name != "levels" and a is not None}
    assert set(present) == set(model.head.outputs)
    for name, a in present.items():
        assert a.shape == getattr(state.maps, name).shape, name


def test_one_training_step_makes_one_input_gradient_per_conv_input(monkeypatch):
    """A default training step runs all 40 conv backwards but makes one input
    gradient per tensor the convs read: per head level the gen trunk end, the
    four other trunk convs' inputs and the level feature (7), plus stem1,
    down0 and down1. The image, stem0's input, gets none."""
    from pointdet.config import TrainConfig
    from pointdet.training import train_from_config

    calls = {"conv2d_backward": [], "conv2d_input_grad": []}
    for name, log in calls.items():
        fn = getattr(ops, name)
        monkeypatch.setattr(ops, name, lambda *a, fn=fn, log=log: log.append(a) or fn(*a))
    train_from_config(TrainConfig(iters=1))
    assert len(calls["conv2d_backward"]) == 40
    assert len(calls["conv2d_input_grad"]) == 24
    readers = sorted(len(caches) for caches, _ in calls["conv2d_input_grad"])
    assert readers == [1] * 18 + [3] * 3 + [4] * 3
    assert all(c[1][0] != 3 for caches, _ in calls["conv2d_input_grad"] for c in caches)
