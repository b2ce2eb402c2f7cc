import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet.geometry import Box
from pointdet.inference import (
    AP_IOU_THRESHOLDS,
    Detection,
    average_precision,
    decode_detections,
    detect,
    nms,
    read_detections,
    read_ground_truths,
    write_detections,
    write_ground_truths,
)
from pointdet.model import DetectionModel, ModelConfig
from pointdet.scenes import GroundTruth

from oracles import average_precision_reference, nms_reference


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
    dets = decode_detections(state, 32, 32, score_thresh=0.9999)
    assert dets == []


def test_decode_single_survivor():
    state = _tiny_state()
    col = state.collections[0]
    thresh = float(np.sort(col.scores.ravel())[-1]) - 1e-9
    # make all other levels quiet
    for other in state.collections[1:]:
        other.scores[...] = 0.0
    dets = decode_detections(state, 32, 32, score_thresh=thresh)
    assert len(dets) == 1
    assert dets[0].score == pytest.approx(col.scores.max())
    b = dets[0].box
    assert 0 <= b.l <= b.r <= 32 and 0 <= b.t <= b.b <= 32


def test_decode_respects_topk_cap():
    state = _tiny_state()
    dets = decode_detections(state, 32, 32, score_thresh=0.0, topk_per_level=3)
    assert len(dets) <= 3 * len(state.collections)
    per_level = {}
    for d in dets:
        per_level[d.source_level] = per_level.get(d.source_level, 0) + 1
    assert all(v <= 3 for v in per_level.values())


def test_decode_validates_arguments():
    state = _tiny_state()
    with pytest.raises(ValueError, match="threshold"):
        decode_detections(state, 32, 32, score_thresh=1.2)
    with pytest.raises(ValueError, match="topk"):
        decode_detections(state, 32, 32, topk_per_level=0)


# ---------------------------------------------------------------------------
# NMS


def test_nms_spec_example():
    b1 = _det(0, 0, 10, 10, score=0.9)
    b2 = _det(0.5, 0.5, 10, 10.8, score=0.8)   # IoU(b1) ~ 0.79 > 0.6
    b3 = _det(6, 6, 16, 16, score=0.7)         # IoU(b1) ~ 0.19
    kept = nms([b1, b2, b3], iou_thresh=0.6)
    assert [d.score for d in kept] == [0.9, 0.7]


def test_nms_disjoint_all_kept():
    dets = [_det(i * 20, 0, i * 20 + 10, 10, score=0.5 + i * 0.01) for i in range(4)]
    assert len(nms(dets)) == 4


def test_nms_classwise_rule():
    a = _det(0, 0, 10, 10, cls=0, score=0.9)
    b = _det(0, 0, 10, 10, cls=1, score=0.8)
    assert len(nms([a, b])) == 2


def test_nms_tie_break_by_insertion_order():
    a = _det(0, 0, 10, 10, cls=0, score=0.5)
    b = _det(1, 0, 11, 10, cls=0, score=0.5)   # overlaps a above 0.6
    kept = nms([a, b], iou_thresh=0.6)
    assert len(kept) == 1 and kept[0] is a


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
        dets = [
            _det(*boxes[i], cls=int(classes[i]), score=float(scores[i]))
            for i in range(len(boxes))
        ]
        kept = nms(dets, iou_thresh=0.6)
        by_id = {id(d): i for i, d in enumerate(dets)}
        kept_idx = [by_id[id(d)] for d in kept]
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
