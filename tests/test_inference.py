import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet.geometry import Box
from pointdet.inference import (
    AP_IOU_THRESHOLDS,
    DEFAULT_MAX_DETECTIONS,
    DEFAULT_NMS_IOU,
    Detection,
    average_precision,
    decode_detections,
    detect,
    nms,
    postprocess,
    read_detections,
    read_ground_truths,
    write_detections,
    write_ground_truths,
)
from pointdet.model import DetectionModel, ModelConfig
from pointdet.scenes import GroundTruth

from oracles import average_precision_reference, decode_reference, level_views, nms_reference


def _det(l, t, r, b, cls=0, score=0.5, img=0):
    return Detection(box=Box(l, t, r, b), class_id=cls, score=score, image_id=img)


# ---------------------------------------------------------------------------
# decode


def _tiny_state():
    model = DetectionModel(ModelConfig(channels=8, classes=2, n_semantic=4), seed=0)
    img = np.random.default_rng(0).uniform(size=(3, 32, 32))
    return model.forward(img)


def test_decode_all_below_threshold_empty():
    state = _tiny_state()
    cand = decode_detections(state, 32, 32, score_thresh=0.9999)
    assert len(cand) == 0 and cand.boxes.shape == (0, 4)


def test_decode_single_survivor():
    state = _tiny_state()
    levels = level_views(state.collection)
    col = levels[0]
    thresh = float(np.sort(col.scores.ravel())[-1]) - 1e-9
    # make all other levels quiet
    for other in levels[1:]:
        other.scores[...] = 0.0
    cand = decode_detections(state, 32, 32, score_thresh=thresh)
    assert len(cand) == 1
    assert cand.scores[0] == pytest.approx(col.scores.max())
    l, t, r, b = cand.boxes[0]
    assert 0 <= l <= r <= 32 and 0 <= t <= b <= 32


def test_decode_respects_topk_cap():
    state = _tiny_state()
    cand = decode_detections(state, 32, 32, score_thresh=0.0, topk_per_level=3)
    assert len(cand) <= 3 * len(state.collection.cuts)
    per_level = {}
    for level in cand.levels.tolist():
        per_level[level] = per_level.get(level, 0) + 1
    assert all(v <= 3 for v in per_level.values())


def test_decode_validates_arguments():
    state = _tiny_state()
    with pytest.raises(ValueError, match="threshold"):
        decode_detections(state, 32, 32, score_thresh=1.2)
    with pytest.raises(ValueError, match="topk"):
        decode_detections(state, 32, 32, topk_per_level=0)


def test_decode_folds_and_clamps_boxes_to_the_image():
    state = _tiny_state()
    state.collection.scores[...] = 0.0
    col = level_views(state.collection)[0]
    col.scores[0, :4] = 0.9
    col.boxes[:4] = [[-5, -5, 40, 10], [12, 9, 3, 4], [33, 33, 36, 40], [-0.0, 0.0, 0.0, -0.0]]
    cand = decode_detections(state, 32, 32, score_thresh=0.5)
    assert cand.boxes[:3].tolist() == [[0, 0, 32, 10], [3, 4, 12, 9], [32, 32, 32, 32]]
    # down to the sign of zero, as Python's min/max fold and clamp it
    want = decode_reference(level_views(state.collection), 32, 32, 0.5, 1000)
    assert [tuple(v.hex() for v in row) for row in cand.boxes.tolist()] == [
        tuple(v.hex() for v in box) for box, *_ in want]
    with pytest.raises(ValueError, match="positive"):
        decode_detections(state, 0, 32)


def test_decode_rejects_non_finite_surviving_box():
    state = _tiny_state()
    state.collection.boxes[0, 0] = np.nan  # level 0, grid 0
    with pytest.raises(ValueError, match="finite"):
        decode_detections(state, 32, 32, score_thresh=0.0)


def test_postprocess_equals_scalar_reference_pipeline():
    # fresh model, every candidate above 0: top-k binds on the two finer
    # levels and several hundred candidates reach NMS
    model = DetectionModel(ModelConfig(), seed=0)
    state = model.forward(np.random.default_rng(0).uniform(size=(3, 64, 64)))
    topk = 150
    levels = level_views(state.collection)
    ref = decode_reference(levels, 64, 64, 0.0, topk)
    assert len(ref) == 2 * topk + levels[2].scores.size
    kept = nms_reference([r[0] for r in ref], [r[1] for r in ref], [r[2] for r in ref],
                         DEFAULT_NMS_IOU)[:DEFAULT_MAX_DETECTIONS]
    want = [tuple(v.hex() for v in ref[i][0]) + (ref[i][1].hex(),) + ref[i][2:] for i in kept]
    dets = postprocess(state, 64, 64, score_thresh=0.0, topk_per_level=topk, image_id=5)
    got = [(d.box.l.hex(), d.box.t.hex(), d.box.r.hex(), d.box.b.hex(), d.score.hex(),
            d.class_id, d.source_level, d.source_grid) for d in dets]
    assert len(got) == DEFAULT_MAX_DETECTIONS and got == want
    assert all(d.image_id == 5 for d in dets)


# ---------------------------------------------------------------------------
# NMS


def test_nms_spec_example():
    boxes = [[0, 0, 10, 10],
             [0.5, 0.5, 10, 10.8],   # IoU(box 0) ~ 0.79 > 0.6
             [6, 6, 16, 16]]         # IoU(box 0) ~ 0.19
    scores = [0.9, 0.8, 0.7]
    kept = nms(boxes, scores, [0, 0, 0], 0.6)
    assert [scores[i] for i in kept] == [0.9, 0.7]


def test_nms_disjoint_all_kept():
    boxes = [[i * 20, 0, i * 20 + 10, 10] for i in range(4)]
    assert len(nms(boxes, [0.5 + i * 0.01 for i in range(4)], [0] * 4)) == 4


def test_nms_classwise_rule():
    assert len(nms([[0, 0, 10, 10], [0, 0, 10, 10]], [0.9, 0.8], [0, 1])) == 2


def test_nms_tie_break_by_insertion_order():
    boxes = [[0, 0, 10, 10],
             [1, 0, 11, 10]]   # overlaps box 0 above 0.6
    kept = nms(boxes, [0.5, 0.5], [0, 0], 0.6)
    assert len(kept) == 1 and kept[0] == 0


def test_nms_validates_arguments():
    with pytest.raises(ValueError, match="IoU threshold"):
        nms([[0, 0, 1, 1]], [0.5], [0], 0.0)
    with pytest.raises(ValueError, match="one score and class per box"):
        nms([[0, 0, 1, 1], [0, 0, 2, 2]], [0.5], [0, 0])
    assert nms(np.zeros((0, 4)), [], []) == []


def _random_instance(rng, n_max=200):
    n = int(rng.integers(0, n_max + 1))
    boxes = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 80, size=2)
        w, h = rng.uniform(1, 30, size=2)
        boxes.append([x1, y1, x1 + w, y1 + h])
    boxes = np.array(boxes).reshape(n, 4)
    scores = rng.uniform(0.01, 1.0, size=n)
    if n and rng.random() < 0.5:
        scores = np.round(scores, 2)  # force score ties
    classes = rng.integers(0, 3, size=n)
    return boxes, scores, classes


def test_nms_matches_bruteforce_reference_small():
    rng = np.random.default_rng(42)
    for _ in range(50):
        boxes, scores, classes = _random_instance(rng, n_max=60)
        kept_idx = nms(boxes, scores, classes, 0.6)
        ref = nms_reference(boxes, scores, classes, 0.6)
        assert kept_idx == ref


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_detection():
    gt = {0: GroundTruth(np.array([[10.0, 10.0, 30.0, 30.0]]), np.array([0]))}
    # IoU with gt = 0.9 (area ratio trick: shrink one side)
    det_box = Box(10, 10, 30, 28.0)
    assert det_box.area / Box(10, 10, 30, 30).area == pytest.approx(0.9)
    dets = {0: [Detection(det_box, 0, 0.8, 0)]}
    rep = average_precision(dets, gt)
    assert rep["AP50"] == 1.0
    assert rep["AP75"] == 1.0
    # thresholds above 0.9 cannot match
    assert rep["AP"] == pytest.approx(np.mean([1.0] * 9 + [0.0]))


def test_ap_below_threshold_is_zero():
    gt = {0: GroundTruth(np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([0]))}
    dets = {0: [_det(6, 6, 16, 16, score=0.9)]}  # IoU = 16/136 ~ 0.12
    rep = average_precision(dets, gt)
    assert rep["AP50"] == 0.0
    assert rep["AP"] == 0.0


def test_ap_zero_gt_class_excluded():
    gt = {0: GroundTruth(np.array([[0.0, 0.0, 10.0, 10.0]]), np.array([1]))}
    dets = {0: [_det(0, 0, 10, 10, cls=0, score=0.9),
                _det(0, 0, 10, 10, cls=1, score=0.9)]}
    rep = average_precision(dets, gt)
    assert list(rep["per_class"].keys()) == [1]
    assert rep["AP"] == 1.0  # class 0 has no gts and is excluded


def test_ap_matches_exhaustive_oracle_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n_img = int(rng.integers(1, 3))
        gts, dets, o_gts, o_dets = {}, {}, {}, {}
        for img in range(n_img):
            m = int(rng.integers(1, 4))
            boxes = []
            for _ in range(m):
                x, y = rng.uniform(0, 40, size=2)
                w, h = rng.uniform(4, 20, size=2)
                boxes.append([x, y, x + w, y + h])
            labels = rng.integers(0, 2, size=m)
            gts[img] = GroundTruth(np.array(boxes), labels)
            o_gts[img] = [(int(labels[k]), boxes[k]) for k in range(m)]
            nd = int(rng.integers(0, 5))
            d_list, o_list = [], []
            for _ in range(nd):
                if rng.random() < 0.7 and m:
                    base = boxes[int(rng.integers(0, m))]
                    jit = rng.normal(0, 2.0, size=4)
                    cand = [base[0] + jit[0], base[1] + jit[1],
                            base[2] + jit[2], base[3] + jit[3]]
                    cand = [min(cand[0], cand[2]), min(cand[1], cand[3]),
                            max(cand[0], cand[2]), max(cand[1], cand[3])]
                else:
                    x, y = rng.uniform(0, 40, size=2)
                    w, h = rng.uniform(4, 20, size=2)
                    cand = [x, y, x + w, y + h]
                cls = int(rng.integers(0, 2))
                score = float(np.round(rng.uniform(0.1, 1.0), 2))
                d_list.append(Detection(Box(*cand), cls, score, img))
                o_list.append((cls, score, cand))
            dets[img] = d_list
            o_dets[img] = o_list
        rep = average_precision(dets, gts)
        ref = average_precision_reference(o_dets, o_gts, list(AP_IOU_THRESHOLDS))
        assert rep["AP"] == pytest.approx(ref["AP"], abs=1e-9)
        assert rep["AP50"] == pytest.approx(ref["AP50"], abs=1e-9)
        assert rep["AP75"] == pytest.approx(ref["AP75"], abs=1e-9)


def test_ap_monotone_removing_false_positive():
    rng = np.random.default_rng(9)
    for _ in range(40):
        gt = {0: GroundTruth(np.array([[5.0, 5.0, 25.0, 25.0]]), np.array([0]))}
        good = _det(5, 5, 25, 24, score=float(rng.uniform(0.3, 0.9)))
        fp = _det(50, 50, 60, 60, score=float(rng.uniform(0.05, 0.95)))
        with_fp = average_precision({0: [good, fp]}, gt)["AP"]
        without = average_precision({0: [good]}, gt)["AP"]
        assert without >= with_fp - 1e-12


def test_detect_pipeline_deterministic():
    model = DetectionModel(ModelConfig(channels=8, classes=2, n_semantic=4), seed=0)
    img = np.random.default_rng(3).uniform(size=(3, 32, 32))
    a = detect(model, img, score_thresh=0.0)
    b = detect(model, img, score_thresh=0.0)
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert da.box == db.box and da.score == db.score and da.class_id == db.class_id


# ---------------------------------------------------------------------------
# wire formats


def test_detections_jsonl_roundtrip(tmp_path):
    dets = {
        0: [_det(1, 2, 3, 4, cls=1, score=0.5, img=0)],
        2: [_det(5, 6, 9, 9, cls=0, score=0.25, img=2),
            _det(0, 0, 2, 2, cls=2, score=0.75, img=2)],
    }
    path = tmp_path / "dets.jsonl"
    write_detections(path, dets)
    back = read_detections(path)
    assert set(back.keys()) == {0, 2}
    assert back[2][0].box == Box(5, 6, 9, 9)
    assert back[2][1].score == 0.75


def test_ground_truth_jsonl_roundtrip(tmp_path):
    gts = {
        0: GroundTruth(np.array([[1.0, 2.0, 3.0, 4.0]]), np.array([2])),
        1: GroundTruth(np.array([[0.0, 0.0, 5.0, 5.0], [2.0, 2.0, 9.0, 9.0]]),
                       np.array([0, 1])),
    }
    path = tmp_path / "gts.jsonl"
    write_ground_truths(path, gts)
    back = read_ground_truths(path)
    assert np.array_equal(back[1].boxes, gts[1].boxes)
    assert np.array_equal(back[0].labels, gts[0].labels)


_coords = st.floats(-1e6, 1e6, allow_nan=False)
_boxes = st.tuples(_coords, _coords, _coords, _coords).map(
    lambda v: (min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3]))
)
_image_ids = st.integers(0, 2**31 - 1)


@settings(max_examples=100, deadline=None)
@given(raw=st.dictionaries(_image_ids, st.lists(
    st.tuples(_boxes, st.integers(0, 20), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    max_size=4))
def test_detections_jsonl_roundtrip_property(tmp_path_factory, raw):
    # an image without detections writes no line; readers take a missing image as empty
    dets = {img: [Detection(Box(*box), cls, score, img) for box, cls, score in rows]
            for img, rows in raw.items()}
    path = tmp_path_factory.mktemp("dets") / "dets.jsonl"
    write_detections(path, dets)
    assert read_detections(path) == dets


@settings(max_examples=100, deadline=None)
@given(raw=st.dictionaries(_image_ids, st.lists(
    st.tuples(_boxes, st.integers(0, 20)), min_size=0, max_size=4), max_size=4))
def test_ground_truth_jsonl_roundtrip_property(tmp_path_factory, raw):
    gts = {img: GroundTruth([box for box, _ in rows], [label for _, label in rows])
           for img, rows in raw.items()}
    path = tmp_path_factory.mktemp("gts") / "gts.jsonl"
    write_ground_truths(path, gts)
    back = read_ground_truths(path)
    assert sorted(back) == sorted(gts)
    for img, gt in gts.items():
        assert back[img].boxes.tobytes() == gt.boxes.tobytes()
        assert back[img].labels.tobytes() == gt.labels.tobytes()


def test_ground_truth_jsonl_keeps_image_without_objects(tmp_path):
    # detections on an image without objects are false positives, also after
    # the ground truths went through a JSONL round trip
    gts = {0: GroundTruth([[10.0, 10.0, 30.0, 30.0]], [0]), 1: GroundTruth([], [])}
    dets = {0: [_det(10, 10, 30, 30, score=0.5, img=0)],
            1: [_det(10, 10, 30, 30, score=0.9, img=1)]}
    path = tmp_path / "gts.jsonl"
    write_ground_truths(path, gts)
    back = read_ground_truths(path)
    assert sorted(back) == [0, 1] and len(back[1]) == 0
    assert average_precision(dets, gts)["AP50"] == pytest.approx(0.5)
    assert average_precision(dets, back)["AP50"] == pytest.approx(0.5)


@pytest.mark.parametrize("record", [{"image_id": 3, "class_id": 1},
                                    {"image_id": 3, "box": [0, 0, 1, 1]}])
def test_ground_truth_jsonl_rejects_half_record(tmp_path, record):
    path = tmp_path / "gts.jsonl"
    path.write_text(json.dumps({"image_id": 0}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="line 2"):
        read_ground_truths(path)


# Each corruption turns one well-formed object line into a malformed one.
_CORRUPTIONS = {
    "no image_id": lambda rec: json.dumps({k: v for k, v in rec.items() if k != "image_id"}),
    "string image_id": lambda rec: json.dumps({**rec, "image_id": str(rec["image_id"])}),
    "JSON array": lambda rec: json.dumps(list(rec.values())),
    "JSON scalar": lambda rec: json.dumps(rec["image_id"]),
    "invalid JSON": lambda rec: json.dumps(rec)[:-1],
    "3-element box": lambda rec: json.dumps({**rec, "box": rec["box"][:3]}),
    "non-finite box": lambda rec: json.dumps({**rec, "box": [0.0, float("nan"), 1.0, 1.0]}),
    "infinite box": lambda rec: json.dumps({**rec, "box": [0.0, 0.0, float("inf"), 1.0]}),
    "string in box": lambda rec: json.dumps({**rec, "box": [0, 0, "1", 1]}),
    "r < l": lambda rec: json.dumps({**rec, "box": [1.0, 0.0, 0.0, 1.0]}),
    "b < t": lambda rec: json.dumps({**rec, "box": [0.0, 1.0, 1.0, 0.0]}),
    "box not a list": lambda rec: json.dumps({**rec, "box": 4}),
    "fractional class_id": lambda rec: json.dumps({**rec, "class_id": 1.5}),
    "string class_id": lambda rec: json.dumps({**rec, "class_id": "1"}),
}


def _assert_names_line(read, path, lineno):
    with pytest.raises(ValueError) as err:
        read(path)
    assert f"line {lineno} of {str(path)!r}" in str(err.value)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_image_ids, st.integers(0, 20), _boxes, st.floats(0.0, 1.0)),
                     min_size=1, max_size=5),
       data=st.data())
def test_detections_jsonl_names_the_corrupt_line_property(tmp_path_factory, rows, data):
    lines = [{"image_id": img, "class_id": cls, "score": score, "box": list(box)}
             for img, cls, box, score in rows]
    bad = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(sorted(_CORRUPTIONS) + ["no score", "string score"]))
    corrupt = {"no score": lambda rec: json.dumps({k: v for k, v in rec.items() if k != "score"}),
               "string score": lambda rec: json.dumps({**rec, "score": "0.5"}),
               **_CORRUPTIONS}[kind]
    text = [corrupt(rec) if k == bad else json.dumps(rec) for k, rec in enumerate(lines)]
    path = tmp_path_factory.mktemp("dets") / "dets.jsonl"
    path.write_text("\n".join(text) + "\n")
    _assert_names_line(read_detections, path, bad + 1)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_image_ids, st.integers(0, 20), _boxes), min_size=1, max_size=5),
       data=st.data())
def test_ground_truth_jsonl_names_the_corrupt_line_property(tmp_path_factory, rows, data):
    lines = [{"image_id": img, "class_id": cls, "box": list(box)} for img, cls, box in rows]
    bad = data.draw(st.integers(0, len(lines) - 1))
    corrupt = _CORRUPTIONS[data.draw(st.sampled_from(sorted(_CORRUPTIONS)))]
    text = [corrupt(rec) if k == bad else json.dumps(rec) for k, rec in enumerate(lines)]
    path = tmp_path_factory.mktemp("gts") / "gts.jsonl"
    path.write_text("\n".join(text) + "\n")
    _assert_names_line(read_ground_truths, path, bad + 1)


# SHA-256 of every detection of a fresh seed-0 default model on the first 5
# holdout scenes at score threshold 0: per detection one line of the hex box
# coordinates and score, the class, the source level and the source grid.
DETECT_SHA256 = "fbd795acafa028e94d37c57ac9515e47ff3b26b44fdeb3df30507ab78133cf68"


def test_detect_numerics_fingerprint_is_pinned():
    """Pins every bit of ``detect``, the way the training fingerprint pins
    training; taken on the same numpy and BLAS build as that one."""
    import hashlib

    from pointdet.config import TrainConfig
    from pointdet.training import holdout_scenes

    model = DetectionModel(ModelConfig(), seed=0)
    h = hashlib.sha256()
    count = 0
    for image, _ in holdout_scenes(TrainConfig(), 5):
        for d in detect(model, image, score_thresh=0.0):
            fields = [float(v).hex() for v in (d.box.l, d.box.t, d.box.r, d.box.b, d.score)]
            fields += [str(d.class_id), str(d.source_level), str(d.source_grid)]
            h.update(" ".join(fields).encode() + b"\n")
            count += 1
    assert count == 5 * DEFAULT_MAX_DETECTIONS
    assert h.hexdigest() == DETECT_SHA256
