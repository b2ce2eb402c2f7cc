import numpy as np
import pytest

from pointdet.backbone import Backbone
from pointdet.ops import NonFiniteError
from pointdet.scenes import GroundTruth, check_int, generate_scene, scene_seed


def test_backbone_level_shapes():
    bb = Backbone(np.random.default_rng(0), channels=32, levels=3)
    feats, _ = bb.forward(np.zeros((3, 64, 64)))
    assert [f.shape for f in feats] == [(32, 16, 16), (32, 8, 8), (32, 4, 4)]
    assert bb.strides == (4, 8, 16)


def test_backbone_zero_image_zero_biases_gives_zero_features():
    bb = Backbone(np.random.default_rng(1), channels=32, levels=3)
    for layer in [layer for chain in bb.chains for layer in chain]:
        layer.b.value[...] = 0.0
    feats, _ = bb.forward(np.zeros((3, 64, 64)))
    for f in feats:
        assert np.all(f == 0.0)


def test_backbone_rejects_indivisible_size_with_diagnostic():
    bb = Backbone(np.random.default_rng(2), channels=32, levels=3)
    with pytest.raises(ValueError, match="pad to 64x64"):
        bb.forward(np.zeros((3, 62, 64)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_backbone_rejects_a_non_finite_image(bad):
    img = np.zeros((3, 32, 32))
    img[1, 5, 7] = bad
    with pytest.raises(ValueError, match="image contains non-finite values") as exc:
        Backbone(np.random.default_rng(0), channels=8, levels=3).forward(img)
    # bad input, not a kernel meeting non-finite parameters
    assert not isinstance(exc.value, NonFiniteError)


def test_backbone_no_dead_parameters_over_seeds():
    for seed in range(10):
        bb = Backbone(np.random.default_rng(seed), channels=8, levels=3)
        img = np.random.default_rng(100 + seed).uniform(0.2, 0.8, size=(3, 32, 32))
        feats, cache = bb.forward(img)
        gfeats = [np.ones_like(f) for f in feats]
        bb.backward(cache, gfeats)
        for p in bb.parameters():
            assert float(np.abs(p.grad).sum()) > 0.0, f"dead parameter {p.name} seed {seed}"


def test_backbone_spatial_sizes_exact():
    bb = Backbone(np.random.default_rng(3), channels=8, levels=3)
    feats, _ = bb.forward(np.zeros((3, 128, 64)))
    for f, s in zip(feats, bb.strides):
        assert f.shape[1] == 128 // s
        assert f.shape[2] == 64 // s


# ---------------------------------------------------------------------------
# synthetic scenes


def test_scene_determinism():
    a_img, a_gt = generate_scene(1234)
    b_img, b_gt = generate_scene(1234)
    assert np.array_equal(a_img, b_img)
    assert np.array_equal(a_gt.boxes, b_gt.boxes)
    assert np.array_equal(a_gt.labels, b_gt.labels)


def test_scene_single_object_bound():
    img, gt = generate_scene(7, max_objects=1)
    assert len(gt) == 1
    assert img.shape == (3, 64, 64)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_scene_boxes_valid_and_min_side():
    for seed in range(30):
        _, gt = generate_scene(seed, max_objects=3)
        assert 1 <= len(gt) <= 3
        w = gt.boxes[:, 2] - gt.boxes[:, 0]
        h = gt.boxes[:, 3] - gt.boxes[:, 1]
        assert np.all(w >= 8) and np.all(h >= 8)
        assert np.all(gt.boxes[:, 0] >= 0) and np.all(gt.boxes[:, 2] <= 64)
        assert np.all(gt.labels >= 0) and np.all(gt.labels < 3)


def test_scene_rasterization_matches_gt_box():
    """Rendered pixel extent equals the gt box within half a pixel."""
    from pointdet.scenes import class_color

    for seed in (3, 11, 42):
        img, gt = generate_scene(seed, max_objects=1)
        l, t, r, b = (int(v) for v in gt.boxes[0])
        color = class_color(int(gt.labels[0]), 3)
        # pixels near the object's class color (jitter + texture stay small)
        dist = np.abs(img - color[:, None, None]).sum(axis=0)
        lit = dist < 0.3
        ys, xs = np.nonzero(lit)
        assert abs(xs.min() - l) <= 0.5
        assert abs(xs.max() + 1 - r) <= 0.5
        assert abs(ys.min() - t) <= 0.5
        assert abs(ys.max() + 1 - b) <= 0.5


@pytest.mark.parametrize("kwargs, message", [
    (dict(classes=0), "classes must be an integer of at least 1, got 0"),
    (dict(max_objects=0), "max_objects must be an integer of at least 1, got 0"),
    (dict(classes=2.5), "classes must be an integer"),
    (dict(width=-4), "width must be an integer of at least 12 px"),
    (dict(width=11), "width must be an integer of at least 12 px to hold a 10 px object"),
    (dict(width=16.5), "width must be an integer"),
    (dict(height=8), "height must be an integer of at least 12 px"),
    (dict(width=9, size_range=(8, 56)), "width must be an integer of at least 10 px"),
    (dict(size_range=(20, 12)), "size_range"),
    (dict(classes=True), "classes must be an integer of at least 1, got True"),
])
def test_scene_rejects_arguments_it_cannot_draw_with(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_scene(0, **kwargs)


@pytest.mark.parametrize("value, least, message", [
    (True, 1, "n must be a positive integer, got True"),
    (False, 0, "n must be a non-negative integer, got False"),
    (-1, 0, "n must be a non-negative integer, got -1"),
    (2, 3, "n must be an integer of at least 3, got 2"),
    (3.0, 3, "n must be an integer of at least 3, got 3.0"),
    ("3", 1, "n must be a positive integer, got '3'"),
])
def test_check_int_rejects_bools_non_integers_and_small_values(value, least, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_int("n", value, least)
    check_int("n", np.int64(least), least)


@pytest.mark.parametrize("size_range, side", [((10, 36), 12), ((8, 56), 10), ((4, 9), 10)])
def test_scene_draws_at_its_smallest_size(size_range, side):
    # the smallest object fills the scene but for a 1 px margin on each side
    _, gt = generate_scene(3, width=side, height=side, max_objects=1, size_range=size_range)
    assert gt.boxes.tolist() == [[1.0, 1.0, side - 1.0, side - 1.0]]


def test_scene_stream_namespacing():
    img_train, _ = generate_scene(scene_seed(0, 0, 5))
    img_hold, _ = generate_scene(scene_seed(0, 1, 5))
    assert not np.array_equal(img_train, img_hold)


def test_groundtruth_validation():
    with pytest.raises(ValueError, match="boxes but"):
        GroundTruth(np.zeros((2, 4)), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match="r >= l"):
        GroundTruth(np.array([[5.0, 0.0, 1.0, 2.0]]), np.array([0]))


@pytest.mark.parametrize("boxes, labels, message", [
    (np.zeros((2, 2)), [0], r"shaped \[M,4\]"),  # read as one box
    (np.zeros(8), [0, 0], r"shaped \[M,4\]"),
    ([[0.0, 0.0, 5.0, 5.0]], [1.7], "integer labels"),  # read as label 1
    ([[0.0, 0.0, 5.0, 5.0]], [True], "integer labels"),
], ids=["2x2 boxes", "flat boxes", "fractional label", "bool label"])
def test_groundtruth_rejects_malformed_boxes_and_labels(boxes, labels, message):
    with pytest.raises(ValueError, match=message):
        GroundTruth(boxes, labels)


@pytest.mark.parametrize("boxes", [[], np.zeros((0, 4))], ids=["empty list", "0x4"])
def test_groundtruth_accepts_no_objects(boxes):
    gt = GroundTruth(boxes, [])
    assert gt.boxes.shape == (0, 4) and gt.labels.dtype == np.int64 and len(gt) == 0


@pytest.mark.parametrize("box", [[np.nan, 0.0, 10.0, 10.0], [0.0, 0.0, np.inf, 10.0],
                                 [0.0, -np.inf, 10.0, 10.0], [0.0, 0.0, 10.0, np.nan]])
def test_groundtruth_rejects_non_finite_boxes(box):
    with pytest.raises(ValueError, match="finite"):
        GroundTruth([box], [0])
