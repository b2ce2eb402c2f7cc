import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet.analysis import (
    AccuracyMaps,
    best_location_histogram,
    compute_accuracy_maps,
    point_distance_distribution,
)
from pointdet.model import DetectionModel, ModelConfig
from pointdet.ppm import colorize, read_ppm, render_heatmap, render_scene, write_ppm
from pointdet.scenes import GroundTruth, generate_scene


def _model_and_scene(seed=0):
    model = DetectionModel(ModelConfig(channels=8), seed=seed)
    img, gt = generate_scene(5)
    return model, img, gt


# ---------------------------------------------------------------------------
# accuracy maps


def test_accuracy_maps_shape_and_mask():
    model, img, gt = _model_and_scene()
    maps = compute_accuracy_maps(model, img, gt, level=0)
    assert len(maps) == len(gt)
    for m in maps:
        assert m.cls_conf.shape == (16, 16)
        assert m.inv_err.shape == (4, 16, 16)
        assert m.valid.any()
        assert np.all(m.inv_err <= 0)


def test_accuracy_maps_perfect_predictor_zero_error():
    """If collected boxes equal the gt exactly, inverse errors are 0."""
    model, img, gt = _model_and_scene()
    state = model.forward(img)
    state.collection.boxes[state.collection.cuts[0]] = gt.boxes[0]
    maps = compute_accuracy_maps(model, img, gt, level=0, state=state)
    assert np.all(maps[0].inv_err == 0.0)


def test_accuracy_maps_constant_bias_everywhere():
    model, img, gt = _model_and_scene()
    state = model.forward(img)
    level0 = state.collection.cuts[0]
    state.collection.boxes[level0] = gt.boxes[0] + np.array([2.0, 2.0, 2.0, 2.0])
    maps = compute_accuracy_maps(model, img, gt, level=0, state=state)
    assert np.all(maps[0].inv_err == -2.0)


@pytest.mark.parametrize("level, match", [
    (-1, r"level -1 is outside the pyramid's \[0, 3\)"),
    (3, r"level 3 is outside the pyramid's \[0, 3\)"),
    (True, "level must be an integer, got True"),
    (1.0, "level must be an integer, got 1.0"),
    ("1", "level must be an integer, got '1'"),
], ids=["-1", "3", "True", "1.0", "str"])
def test_accuracy_maps_reject_a_level_outside_the_pyramid(level, match):
    model, img, gt = _model_and_scene()
    with pytest.raises(ValueError, match=match):
        compute_accuracy_maps(model, img, gt, level=level)


@pytest.mark.parametrize("call, match", [
    (lambda m, img, gt: best_location_histogram([], bins=0), "bins must be a positive integer"),
    (lambda m, img, gt: best_location_histogram([], bins=True), "bins must be"),
    (lambda m, img, gt: best_location_histogram([], bins=2.5), "bins must be"),
    (lambda m, img, gt: point_distance_distribution(m, [(img, gt)], bins=True), "bins must be"),
    (lambda m, img, gt: compute_accuracy_maps(m, img, gt, margin=float("nan")),
     "margin must be a finite number, got nan"),
], ids=["hist-bins-0", "hist-bins-bool", "hist-bins-float", "distance-bins-bool", "margin-nan"])
def test_analysis_arguments_are_checked(call, match):
    model, img, gt = _model_and_scene()
    with pytest.raises(ValueError, match=match):
        call(model, img, gt)


def test_accuracy_maps_skips_tiny_object_with_warning():
    model = DetectionModel(ModelConfig(channels=8), seed=0)
    img, _ = generate_scene(5)
    # margin 0 object placed off the coarsest grid centers
    gt = GroundTruth(np.array([[0.0, 0.0, 1.0, 1.0]]), np.array([0]))
    with pytest.warns(UserWarning, match="skipped"):
        maps = compute_accuracy_maps(model, img, gt, level=2, margin=0.0)
    assert maps == []


# ---------------------------------------------------------------------------
# best-location histogram


def _synthetic_map(extent=16, stride=4, gt_box=(8.0, 8.0, 40.0, 40.0), argmax_cell=(3, 3)):
    h = w = extent
    conf = np.zeros((h, w))
    conf[argmax_cell] = 1.0
    inv = np.zeros((4, h, w))
    inv -= 1.0
    for side in range(4):
        inv[side][argmax_cell] = 0.0
    return AccuracyMaps(
        stride=stride, gt_box=np.array(gt_box),
        cls_conf=conf, inv_err=inv, det_iou=np.ones((h, w)),
        valid=np.ones((h, w), dtype=bool),
    )


def test_histogram_singleton_argmax():
    m = _synthetic_map()
    out = best_location_histogram([m])
    assert out["analyzed"] == 1
    for t, h in out["hist"].items():
        assert h.sum() == 1


def test_histogram_counts_conserved():
    maps = [_synthetic_map(argmax_cell=(i, 2 * i)) for i in range(5)]
    out = best_location_histogram(maps)
    assert out["analyzed"] == 5
    for h in out["hist"].values():
        assert h.sum() == 5


def test_histogram_symmetry_under_mirror():
    """A left-right mirrored synthetic predictor mirrors the histograms."""
    # columns 2 and 9 sit at box-normalized x of 0.0625 and 1 - 0.0625
    a = _synthetic_map(argmax_cell=(8, 2))
    b = _synthetic_map(argmax_cell=(8, 9))
    out_a = best_location_histogram([a])
    out_b = best_location_histogram([b])
    ha = out_a["hist"]["l"]
    hb = out_b["hist"]["l"]
    assert np.array_equal(ha, hb[:, ::-1])


def test_histogram_iou_filter():
    m = _synthetic_map()
    m.det_iou[...] = 0.2  # nothing passes the IoU > 0.5 filter
    out = best_location_histogram([m])
    assert out["analyzed"] == 0
    assert all(h.sum() == 0 for h in out["hist"].values())


# ---------------------------------------------------------------------------
# point distances


def test_point_distances_nonnegative_normalized():
    model, img, gt = _model_and_scene()
    out = point_distance_distribution(model, [(img, gt)])
    for cfg in ("grid", "grid_offset", "midpoint", "dynamic"):
        assert out[cfg]["count"] >= 0
        hist = np.array(out[cfg]["histogram"])
        assert hist.sum() <= out[cfg]["count"]


def test_analysis_does_not_mutate_model():
    model, img, gt = _model_and_scene()
    before = {p.name: p.value.copy() for p in model.parameters()}
    compute_accuracy_maps(model, img, gt, level=0)
    point_distance_distribution(model, [(img, gt)])
    for p in model.parameters():
        assert np.array_equal(p.value, before[p.name])
        assert np.all(p.grad == 0.0)


def test_point_distances_zero_shift_dynamic_equals_midpoint():
    model, img, gt = _model_and_scene()
    for _, layer in (model.head.outputs["bshift"],):
        layer.w.value[...] = 0.0
        layer.b.value[...] = 0.0
    out = point_distance_distribution(model, [(img, gt)])
    assert out["dynamic"]["histogram"] == out["midpoint"]["histogram"]
    if out["dynamic"]["count"]:
        assert out["dynamic"]["median"] == pytest.approx(out["midpoint"]["median"])


# ---------------------------------------------------------------------------
# PPM rendering


# SHA-256 of the JSON of ``point_distance_distribution`` and a level-0
# ``best_location_histogram`` (iou_min 0) for the fresh seed-0 default model
# on scenes 0-15 (18 positives, 29 analyzed objects).
ANALYSIS_SHA256 = "a815b97640760343710d531f4877808df20461c78e7d9eaf08a7e343eb5cee8e"


def test_analysis_output_is_pinned():
    model = DetectionModel(ModelConfig(), seed=0)
    scenes = [generate_scene(s) for s in range(16)]
    dist = point_distance_distribution(model, scenes)
    maps = [m for img, gt in scenes for m in compute_accuracy_maps(model, img, gt, level=0)]
    hist = best_location_histogram(maps, iou_min=0.0)
    hist["hist"] = {t: h.tolist() for t, h in hist["hist"].items()}
    blob = json.dumps({"distances": dist, "best_location": hist}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == ANALYSIS_SHA256


def test_ppm_header_and_roundtrip(tmp_path):
    arr = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    path = tmp_path / "img.ppm"
    write_ppm(path, arr)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n2 2\n255\n")
    back = read_ppm(path)
    assert np.array_equal(back, arr)


_RASTER = bytes(range(6))  # 2x1 pixels


@pytest.mark.parametrize("header, raster", [
    (b"P6\n# made by gimp\n2 1\n255\n", _RASTER),
    (b"P6 2 1 255\n", _RASTER),
    (b"P6\n2 # width\n1\n# maxval next\n255\t", _RASTER),
    (b"P6\r\n2 1\r\n255\n", _RASTER),
    (b"P6 2 1 255\n", b"\n \t\r\n\x0b"),  # raster bytes that look like whitespace
], ids=["comment", "one-line", "inline-comments", "crlf", "whitespace-raster"])
def test_ppm_reads_netpbm_headers(tmp_path, header, raster):
    path = tmp_path / "img.ppm"
    path.write_bytes(header + raster)
    assert read_ppm(path).tobytes() == raster


@pytest.mark.parametrize("data, match", [
    (b"P6\n2 1\n255\n" + _RASTER[:-1], "truncated PPM payload"),
    (b"P6\n2 1\n65535\n" + _RASTER * 2, "unsupported max value 65535"),
    (b"P6\n2 1\n", "PPM header"),
    (b"P6\n# comment without end", "PPM header"),
    (b"P6\n-2 1\n255\n" + _RASTER, "PPM header"),
    (b"P3\n2 1\n255\n0 0 0 0 0 0\n", "not a binary PPM"),
], ids=["short-raster", "16-bit", "no-raster", "open-comment", "negative-width", "ascii"])
def test_ppm_rejects_malformed(tmp_path, data, match):
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        read_ppm(path)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(0, 5), w=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_ppm_write_read_roundtrip_property(tmp_path_factory, h, w, seed):
    arr = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    path = tmp_path_factory.mktemp("ppm") / "img.ppm"
    write_ppm(path, arr)
    back = read_ppm(path)
    assert back.shape == arr.shape and np.array_equal(back, arr)


def test_heatmap_pixel_dimensions_match_map(tmp_path):
    m = np.random.default_rng(0).normal(size=(5, 9))
    path = tmp_path / "heat.ppm"
    render_heatmap(m, path)
    img = read_ppm(path)
    assert img.shape == (5, 9, 3)


def test_heatmap_constant_map_uniform_fallback(tmp_path):
    path = tmp_path / "const.ppm"
    render_heatmap(np.full((3, 4), 2.5), path)
    img = read_ppm(path)
    assert (img == img[0, 0]).all()


def test_colorize_minmax_endpoints():
    img = colorize(np.array([[0.0, 1.0]]))
    assert not np.array_equal(img[0, 0], img[0, 1])


def test_render_scene_writes_expected_size(tmp_path):
    img, gt = generate_scene(2)
    path = tmp_path / "scene.ppm"
    render_scene(img, path, scale=2)
    out = read_ppm(path)
    assert out.shape == (128, 128, 3)


def test_render_scene_rejects_a_non_positive_scale(tmp_path):
    img, _ = generate_scene(2)
    path = tmp_path / "scene.ppm"
    with pytest.raises(ValueError, match="render scale must be a positive integer, got 0"):
        render_scene(img, path, scale=0)
    assert not path.exists()


def test_render_scene_deterministic_bytes(tmp_path):
    model, img, gt = _model_and_scene()
    from pointdet.inference import detect

    dets = detect(model, img, score_thresh=0.0)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    render_scene(img, p1, dets=dets[:5])
    render_scene(img, p2, dets=dets[:5])
    assert p1.read_bytes() == p2.read_bytes()
