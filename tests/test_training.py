import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet.config import TrainConfig, format_config, parse_config_text
from pointdet.model import DetectionModel, ModelConfig
from pointdet.ops import sigmoid
from pointdet.scenes import GroundTruth, generate_scene, scene_seed
from pointdet.training import (
    assign_samples,
    compute_losses,
    focal_loss_from_logits,
    holdout_scenes,
    lr_at,
    run_training,
    total_loss,
    train_from_config,
)

from oracles import assign_reference, focal_loss_reference, iou_scalar, level_views


def _forward_state(seed=0, image_seed=0, size=32, **cfg_kw):
    cfg = ModelConfig(channels=8, **cfg_kw)
    model = DetectionModel(cfg, seed=seed)
    img = np.random.default_rng(image_seed).uniform(size=(3, size, size))
    return model, model.forward(img)


# ---------------------------------------------------------------------------
# assignment


class _FakeCollection:
    """Minimal one-level stand-in with hand-placed coarse boxes and grid centers."""

    def __init__(self, coarse, cx, cy):
        self.coarse = np.asarray(coarse, dtype=np.float64)
        self.grid_cx = np.asarray(cx, dtype=np.float64)
        self.grid_cy = np.asarray(cy, dtype=np.float64)
        self.cuts = [slice(0, len(self.grid_cx))]


def test_assignment_threshold_strictness():
    # grid 0 matches the gt exactly (IoU 1 -> positive); grid 1 overlaps at
    # exactly IoU 0.6 (I=12, U=20, all-integer arithmetic) -> negative
    gt = GroundTruth(np.array([[1.0, 0.0, 5.0, 4.0]]), np.array([0]))
    box_exact_06 = np.array([0.0, 0.0, 4.0, 4.0])
    fake = _FakeCollection(
        np.stack([gt.boxes[0], box_exact_06]), np.array([2.0, 2.0]), np.array([2.0, 2.0])
    )
    assert iou_scalar(box_exact_06, gt.boxes[0]) == 0.6
    asn = assign_samples(fake, gt)
    assert 0 in asn.pos_grid
    assert 1 not in asn.pos_grid

    # IoU just above the threshold is positive: I=13, U=19 -> 13/19 > 0.6
    box = np.array([0.0, 0.0, 4.0, 4.0])
    gt_above = GroundTruth(np.array([[0.75, 0.0, 4.75, 4.0]]), np.array([0]))
    assert iou_scalar(box, gt_above.boxes[0]) == pytest.approx(13.0 / 19.0)
    asn2 = assign_samples(_FakeCollection(box[None], [2.0], [2.0]), gt_above)
    assert asn2.n_positives == 1


def test_assignment_empty_scene():
    model, state = _forward_state()
    gt = GroundTruth(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    asn = assign_samples(state.collection, gt)
    assert asn.n_positives == 0
    assert len(asn.center_grid) == 0
    total, comps, grads, _ = compute_losses(state, gt)
    assert comps["l_reg"] == 0.0 and comps["l_reg2"] == 0.0
    assert total == comps["l_cls"]


def test_assignment_center_match_is_closest_grid():
    model, state = _forward_state()
    gt = GroundTruth(np.array([[10.0, 10.0, 26.0, 24.0]]), np.array([1]))
    asn = assign_samples(state.collection, gt)
    # gt center (18, 17): nearest stride-4 grid center is (18, 18) = grid (4, 4)
    col = level_views(state.collection)[0]
    flat = asn.center_grid[0]
    assert flat < len(col.grid_cx)  # level 0 comes first in the grid index
    cx, cy = col.grid_cx[flat], col.grid_cy[flat]
    d_star = (cx - 18.0) ** 2 + (cy - 17.0) ** 2
    dall = (col.grid_cx - 18.0) ** 2 + (col.grid_cy - 17.0) ** 2
    assert d_star == dall.min()


def test_assignment_positive_soundness_recheck():
    model, state = _forward_state(image_seed=5)
    img, gt = generate_scene(17)
    state = model.forward(img)
    asn = assign_samples(state.collection, gt)
    coarse = state.collection.coarse
    for grid, gi in zip(asn.pos_grid, asn.pos_gt):
        ious = [iou_scalar(coarse[grid], g) for g in gt.boxes]
        assert max(ious) > 0.6
        assert int(np.argmax(ious)) == gi


@pytest.mark.parametrize("rule", ["coarse-iou", "inside-box"])
def test_assignment_matches_reference(rule):
    positives = 0
    for seed in range(3):
        model = DetectionModel(ModelConfig(channels=8), seed=seed)
        for index in range(4):
            img, gt = generate_scene(scene_seed(seed, 0, index))
            col = model.forward(img).collection
            asn = assign_samples(col, gt, rule=rule)
            got = (asn.pos_grid.tolist(), asn.pos_gt.tolist(), asn.center_grid.tolist())
            assert got == assign_reference(level_views(col), gt.boxes, rule)
            positives += asn.n_positives
    assert positives > 0


def test_assignment_center_tie_goes_to_the_coarser_level():
    # the gt center (3, 3) is equally far from level 0 grid 0 at (2, 2) and
    # level 1 grid 0 at (4, 4); on a 64x64 image level 0 has 256 grids
    _, state = _forward_state(size=64)
    gt = GroundTruth([[1.0, 1.0, 5.0, 5.0]], [0])
    asn = assign_samples(state.collection, gt)
    assert asn.center_grid.tolist() == [256]
    assert assign_reference(level_views(state.collection), gt.boxes)[2] == [256]


# ---------------------------------------------------------------------------
# focal loss


def test_focal_perfect_prediction_zero():
    loss, _ = focal_loss_from_logits(np.array([[800.0], [-800.0], [-800.0]]), np.array([0]))
    assert loss == 0.0
    assert focal_loss_reference([[1.0, 0.0, 0.0]], [0]) == 0.0


def test_focal_hand_value():
    # positive class with p=0.9 (logit ln 9): 0.25 * 0.01 * (-ln 0.9)
    expected = 0.25 * 0.01 * -np.log(0.9)
    loss, _ = focal_loss_from_logits(np.array([[np.log(9.0)]]), np.array([0]))
    assert loss == pytest.approx(expected, rel=1e-9)
    assert focal_loss_reference([[0.9]], [0]) == pytest.approx(expected, rel=1e-9)


def test_focal_gamma_zero_reduces_to_weighted_ce():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 6))
    targets = rng.integers(-1, 3, size=6)
    alpha = 0.5
    got, _ = focal_loss_from_logits(z, targets, alpha=alpha, gamma=0.0)
    scores = sigmoid(z).T
    ce = 0.0
    for g in range(6):
        for c in range(3):
            p = scores[g, c] if targets[g] == c else 1.0 - scores[g, c]
            ce += -alpha * np.log(p)
    ce /= max(1, int((targets >= 0).sum()))
    assert got == pytest.approx(ce, rel=1e-12)


def test_focal_logits_path_matches_probability_path():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(3, 20)) * 3
    targets = rng.integers(-1, 3, size=20)
    loss_z, _ = focal_loss_from_logits(z, targets)
    loss_p = focal_loss_reference(sigmoid(z).T, targets)
    assert loss_z == pytest.approx(loss_p, rel=1e-12)


def test_focal_normalized_by_positives():
    z = np.zeros((2, 4))
    targets = np.array([0, 1, -1, -1])
    a, _ = focal_loss_from_logits(z, targets)
    b, _ = focal_loss_from_logits(z, targets, n_positives=1)
    assert a == pytest.approx(b / 2)


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_zero_case():
    assert total_loss(0.0, 0.0, 0.0) == 0.0


def test_total_loss_balance_arithmetic():
    assert total_loss(1.0, 0.5, 0.2) == pytest.approx(2.1)


def test_reg2_averages_over_gt_count():
    model, _ = _forward_state()
    img, _ = generate_scene(3)
    state = model.forward(img)
    boxes = np.array([[4.0, 4.0, 20.0, 20.0], [30.0, 8.0, 50.0, 30.0]])
    gt = GroundTruth(boxes, np.array([0, 1]))
    _, comps, _, asn = compute_losses(state, gt)
    from pointdet.geometry import giou_loss_grad_array

    sel = state.collection.coarse[asn.center_grid]
    losses, _ = giou_loss_grad_array(sel, boxes)
    assert comps["l_reg2"] == pytest.approx(float(losses.mean()), rel=1e-12)


def test_loss_nonnegative_components():
    model, _ = _forward_state()
    for seed in range(5):
        img, gt = generate_scene(seed)
        state = model.forward(img)
        total, comps, _, _ = compute_losses(state, gt)
        assert comps["l_cls"] >= 0
        assert 0 <= comps["l_reg"] < 2
        assert 0 <= comps["l_reg2"] < 2
        assert total >= 0


# ---------------------------------------------------------------------------
# training loop


def test_lr_schedule_steps():
    assert lr_at(0.01, 0, 900) == 0.01
    assert lr_at(0.01, 599, 900) == 0.01
    assert lr_at(0.01, 600, 900) == pytest.approx(0.001)
    assert lr_at(0.01, 799, 900) == pytest.approx(0.001)
    assert lr_at(0.01, 800, 900) == pytest.approx(0.0001)


def test_zero_iteration_training_keeps_init(tmp_path):
    cfg = TrainConfig(iters=0, out_dir=str(tmp_path))
    model, history = train_from_config(cfg)
    ref = DetectionModel(ModelConfig(), seed=0)
    assert history == []
    for p, q in zip(model.parameters(), ref.parameters()):
        assert np.array_equal(p.value, q.value)


def test_short_training_is_bit_reproducible():
    cfg = TrainConfig(iters=60, image_size=32, max_objects=2)

    def run():
        model, history = train_from_config(cfg)
        return model, history

    model_a, hist_a = run()
    model_b, hist_b = run()
    for p, q in zip(model_a.parameters(), model_b.parameters()):
        assert p.value.tobytes() == q.value.tobytes(), f"non-deterministic {p.name}"
    assert hist_a == hist_b



# SHA-256 of the default-config 200-iteration run: the JSON loss history, then
# each parameter's name and value bytes in ``parameters()`` order.
TRAINING_SHA256 = "816c23667f91ea4d64f5899dc76197bdc348d03a0590e6f7ce0b5b07f5e4423e"


def test_default_training_numerics_fingerprint_is_pinned():
    """Pins every bit of ``train_from_config(TrainConfig(iters=200))``.

    Taken with numpy 2.4.6 on scipy-openblas 0.3.31 (Haswell kernels,
    DYNAMIC_ARCH, x86_64, Python 3.11), the same with one BLAS thread or
    more. Another numpy or BLAS build may round its GEMMs differently; a
    change that reorders float operations on purpose updates the value and
    says why.
    """
    model, history = train_from_config(TrainConfig(iters=200))
    h = hashlib.sha256(json.dumps(history).encode())
    for p in model.parameters():
        h.update(p.name.encode())
        h.update(p.value.tobytes())
    assert h.hexdigest() == TRAINING_SHA256


def test_short_training_decreases_loss():
    # loss first rises as positives appear, then falls; compare 50-iter means
    cfg = TrainConfig(iters=300, image_size=32, max_objects=2)
    _, hist = train_from_config(cfg)
    early_total = np.mean([h["total"] for h in hist[:50]])
    late_total = np.mean([h["total"] for h in hist[-50:]])
    early_cls = np.mean([h["l_cls"] for h in hist[:50]])
    late_cls = np.mean([h["l_cls"] for h in hist[-50:]])
    assert late_total < early_total
    assert late_cls < early_cls


def test_divergence_restores_last_good_params():
    from pointdet.training import TrainingDiverged

    cfg = TrainConfig(iters=30, image_size=32, max_objects=2, lr=1e12)
    with pytest.raises(TrainingDiverged) as exc:
        with np.errstate(all="ignore"):
            train_from_config(cfg)
    model = exc.value.model
    assert model is not None
    for p in model.parameters():
        assert np.all(np.isfinite(p.value)), f"non-finite restored param {p.name}"


def test_holdout_scene_stream_disjoint_from_training():
    cfg = TrainConfig()
    train_img, _ = generate_scene(
        np.random.SeedSequence([cfg.seed, 0, 0]), 64, 64, 3, 3
    )
    (hold_img, _), = holdout_scenes(cfg, 1)
    assert not np.array_equal(train_img, hold_img)


# ---------------------------------------------------------------------------
# config file format


def test_config_parse_roundtrip():
    cfg = TrainConfig(seed=5, iters=123, lr=0.02, neighbor_set=(-1, 0), out_dir="x/y")
    back = parse_config_text(format_config(cfg))
    assert back == cfg


_float_fields = st.floats(allow_nan=False, allow_infinity=False)
_config_strategy = st.builds(
    TrainConfig,
    seed=st.integers(min_value=0), iters=st.integers(min_value=0), lr=_float_fields,
    momentum=_float_fields,
    weight_decay=_float_fields, lambda1=_float_fields, lambda2=_float_fields,
    n_semantic=st.integers(), classes=st.integers(), image_size=st.integers(),
    max_objects=st.integers(), levels=st.integers(),
    neighbor_set=st.lists(st.integers(), max_size=4).map(tuple),
    out_dir=st.text().filter(lambda s: s == s.strip() and len(s.splitlines()) <= 1),
)


@settings(max_examples=200, deadline=None)
@given(cfg=_config_strategy)
def test_config_format_parse_roundtrip_property(cfg):
    assert parse_config_text(format_config(cfg)) == cfg


@pytest.mark.parametrize("out_dir", ["runs/a\n", " runs/a", "runs/a ", "runs\r/a", "a\x85b"])
def test_config_format_rejects_out_dir_that_cannot_read_back(out_dir):
    # parsing strips the value and splits lines, so these would not read back
    with pytest.raises(ValueError, match="one config line"):
        format_config(TrainConfig(out_dir=out_dir))


@pytest.mark.parametrize("field, value", [
    ("iters", -3), ("seed", -1), ("lr", float("nan")), ("momentum", float("inf")),
    ("iters", 2.5), ("classes", True), ("neighbor_set", (0.5,)),
])
def test_config_format_refuses_what_parse_refuses(field, value):
    with pytest.raises(ValueError, match=repr(field)):
        format_config(TrainConfig(**{field: value}))


@pytest.mark.parametrize("kwargs, name", [
    ({"iters": -5, "lr": float("nan")}, "iters"), ({"iters": 2.5}, "iters"),
    ({"iters": True}, "iters"), ({"lr": float("nan")}, "lr"), ({"lr": 0.0}, "lr"),
    ({"lr": -0.1}, "lr"), ({"momentum": float("inf")}, "momentum"),
    ({"weight_decay": float("nan")}, "weight_decay"), ({"lambda1": float("inf")}, "lambda1"),
    ({"lambda2": float("nan")}, "lambda2"),
])
def test_run_training_rejects_invalid_values(kwargs, name):
    model = DetectionModel(ModelConfig(channels=8), seed=0)
    args = dict({"iters": 1, "lr": 0.01}, **kwargs)
    with pytest.raises(ValueError, match=f"training argument {name!r}"):
        run_training(model, lambda it: None, **args)


def test_train_from_config_rejects_negative_iters():
    with pytest.raises(ValueError, match="'iters'"):
        train_from_config(TrainConfig(iters=-3))


def test_config_defaults_and_overrides():
    cfg = parse_config_text("iters = 10\nlambda1 = 1.5\nneighbor_set = 0\n")
    assert cfg.iters == 10
    assert cfg.lambda1 == 1.5
    assert cfg.neighbor_set == (0,)
    assert cfg.seed == 0  # default preserved


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key 'bogus'"):
        parse_config_text("bogus = 3\n")


def test_config_bad_value_rejected():
    with pytest.raises(ValueError, match="expects"):
        parse_config_text("iters = banana\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("justtext\n")


def test_config_comments_and_blanks():
    cfg = parse_config_text("# comment\n\nseed = 9\n")
    assert cfg.seed == 9


@pytest.mark.parametrize("text, match", [
    ("lr = 0.1\niters = 5\nlr = 0.2\n", "'lr' on line 3 repeats line 1"),
    ("lr = nan\n", "'lr' must be finite, got 'nan' on line 1"),
    ("seed = 3\nlr = inf\n", "'lr' must be finite, got 'inf' on line 2"),
    ("momentum = -inf\n", "'momentum' must be finite"),
    ("iters = -5\n", "'iters' must be non-negative, got '-5' on line 1"),
    ("\nseed = -1\n", "'seed' must be non-negative, got '-1' on line 2"),
    ("iters = banana\n", "'iters' expects a int, got 'banana' on line 1"),
])
def test_config_rejects_values_it_would_misuse(text, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        parse_config_text(text)


# Each corruption turns one line of a valid config text into one the parser
# must refuse: (the keys it applies to, the bad values). A "repeat" copies a
# line right below itself instead.
_CONFIG_CORRUPTIONS = {
    "non-finite": (("lr", "momentum", "weight_decay", "lambda1", "lambda2"),
                   st.sampled_from(["nan", "inf", "-inf"])),
    "negative": (("seed", "iters"), st.integers(max_value=-1).map(str)),
    "not a number": (("seed", "lr", "classes"), st.sampled_from(["x", "1.5.", ""])),
}


@settings(max_examples=200, deadline=None)
@given(cfg=_config_strategy, data=st.data())
def test_config_names_the_corrupt_line_property(cfg, data):
    lines = format_config(cfg).splitlines()
    kind = data.draw(st.sampled_from(["repeat", *_CONFIG_CORRUPTIONS]))
    if kind == "repeat":
        at = data.draw(st.integers(0, len(lines) - 1)) + 1
        lines.insert(at, lines[at - 1])
        key = lines[at].partition(" = ")[0]
    else:
        keys, values = _CONFIG_CORRUPTIONS[kind]
        key = data.draw(st.sampled_from(keys))
        at = [ln.partition(" = ")[0] for ln in lines].index(key)
        lines[at] = f"{key} = {data.draw(values)}"
    with pytest.raises(ValueError) as err:
        parse_config_text("\n".join(lines) + "\n")
    assert repr(key) in str(err.value)
    assert re.search(rf"line {at + 1}\b", str(err.value))
