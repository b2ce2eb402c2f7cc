import dataclasses
import hashlib
import inspect
import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet.config import TrainConfig
from pointdet.estimator import PointDetector, check_annotations, check_images
from pointdet.model import ModelConfig
from pointdet.scenes import GroundTruth, generate_scene
from pointdet.training import compute_losses, run_training


def _dataset(n=6, seed=0, size=32):
    images, gts = [], []
    for i in range(n):
        img, gt = generate_scene(
            np.random.SeedSequence([seed, i]), width=size, height=size,
            max_objects=2, classes=2,
        )
        images.append(img)
        gts.append(gt)
    return np.stack(images), gts


# ---------------------------------------------------------------------------
# validation helpers


def test_check_images_accepts_single_image():
    arr = check_images(np.zeros((3, 32, 32)))
    assert arr.shape == (1, 3, 32, 32)


def test_check_images_accepts_single_image_as_nested_lists():
    img = np.random.default_rng(0).uniform(size=(3, 32, 32))
    arr = check_images(img.tolist())
    assert arr.shape == (1, 3, 32, 32)
    assert np.array_equal(arr[0], img)


def test_check_images_rejects_bad_shapes():
    with pytest.raises(ValueError, match=r"\[n,3,H,W\]"):
        check_images(np.zeros((2, 4, 32, 32)))
    # the shape the caller passed, not the [1,...] a single image is wrapped into
    with pytest.raises(ValueError, match=r"got \(2, 32, 32\)$"):
        check_images(np.zeros((2, 32, 32)))
    with pytest.raises(ValueError, match="non-finite"):
        check_images(np.full((1, 3, 32, 32), np.nan))
    with pytest.raises(ValueError, match="array-like"):
        check_images([object()])


def test_check_annotations_forms():
    gt = GroundTruth(np.array([[0.0, 0.0, 5.0, 5.0]]), np.array([1]))
    out = check_annotations(
        [gt, (np.array([[1.0, 1.0, 4.0, 4.0]]), np.array([0])),
         {"boxes": np.array([[2.0, 2.0, 6.0, 6.0]]), "labels": np.array([1])}],
        3, classes=2,
    )
    assert all(isinstance(g, GroundTruth) for g in out)


def test_check_annotations_rejects_label_out_of_range():
    with pytest.raises(ValueError, match="labels outside"):
        check_annotations(
            [(np.array([[0.0, 0.0, 5.0, 5.0]]), np.array([7]))], 1, classes=2
        )


def test_check_annotations_rejects_non_finite_box():
    with pytest.raises(ValueError, match="finite"):
        check_annotations([([[np.nan, 0.0, 10.0, 10.0]], [0])], 1, classes=3)


def test_check_annotations_length_mismatch():
    with pytest.raises(ValueError, match="annotation entries"):
        check_annotations([], 2, classes=2)


# Each corruption turns one well-formed (boxes, labels) pair into a malformed
# annotation of another form.
_ANNOTATION_CORRUPTIONS = {
    "fractional label": lambda boxes, labels: (boxes, labels[:-1] + [1.5]),
    "non-finite label": lambda boxes, labels: (boxes, labels[:-1] + [float("nan")]),
    "string label": lambda boxes, labels: (boxes, labels[:-1] + ["1"]),
    "bool labels": lambda boxes, labels: (boxes, [True] * len(labels)),
    "label out of range": lambda boxes, labels: (boxes, labels[:-1] + [2]),
    "dict without boxes": lambda boxes, labels: {"labels": labels},
    "dict without labels": lambda boxes, labels: {"boxes": boxes},
    "scalar": lambda boxes, labels: 3,
    "None": lambda boxes, labels: None,
    "triple": lambda boxes, labels: (boxes, labels, labels),
    "3-column box": lambda boxes, labels: ([b[:3] for b in boxes], labels),
    "flat boxes": lambda boxes, labels: ([c for b in boxes for c in b], labels),
    "string in box": lambda boxes, labels: ([b[:3] + ["x"] for b in boxes], labels),
    "non-finite box": lambda boxes, labels: ([b[:3] + [float("inf")] for b in boxes], labels),
    "r < l": lambda boxes, labels: ([[b[2] + 1.0, b[1], b[0], b[3]] for b in boxes], labels),
    "one label short": lambda boxes, labels: (boxes, labels[:-1]),
}

_ann_coord = st.floats(0.0, 100.0)
_ann_box = st.tuples(_ann_coord, _ann_coord, st.floats(0.0, 50.0), st.floats(0.0, 50.0)).map(
    lambda b: [b[0], b[1], b[0] + b[2], b[1] + b[3]])


@settings(max_examples=150, deadline=None)
@given(items=st.lists(st.lists(st.tuples(_ann_box, st.integers(0, 1)), min_size=1, max_size=3),
                      min_size=1, max_size=4),
       data=st.data())
def test_check_annotations_names_the_corrupt_annotation_property(items, data):
    pairs = [([box for box, _ in objs], [label for _, label in objs]) for objs in items]
    assert len(check_annotations(pairs, len(pairs), classes=2)) == len(pairs)
    bad = data.draw(st.integers(0, len(pairs) - 1))
    corrupt = _ANNOTATION_CORRUPTIONS[data.draw(st.sampled_from(sorted(_ANNOTATION_CORRUPTIONS)))]
    pairs[bad] = corrupt(*pairs[bad])
    with pytest.raises(ValueError, match=f"^annotation {bad}[ :]"):
        check_annotations(pairs, len(pairs), classes=2)


# ---------------------------------------------------------------------------
# estimator protocol


def test_get_set_params_roundtrip():
    det = PointDetector(classes=2, iters=11)
    params = det.get_params()
    assert params["classes"] == 2
    assert params["iters"] == 11
    det.set_params(lr=0.5, n_semantic=4)
    assert det.lr == 0.5
    assert det.n_semantic == 4
    with pytest.raises(ValueError, match="invalid parameter"):
        det.set_params(not_a_param=1)


def test_params_constructor_convention():
    # sklearn clone convention: get_params returns exactly the init kwargs
    det = PointDetector()
    params = det.get_params()
    clone = PointDetector(**params)
    assert clone.get_params() == params


def test_predict_requires_fit():
    det = PointDetector()
    with pytest.raises(RuntimeError, match="not fitted"):
        det.predict(np.zeros((1, 3, 32, 32)))


def test_fit_predict_score_smoke():
    images, gts = _dataset()
    det = PointDetector(classes=2, n_semantic=4, channels=8, iters=40, seed=0)
    out = det.fit(images, gts)
    assert out is det
    assert len(det.history_) == 40
    preds = det.predict(images[:2])
    assert len(preds) == 2
    for dets_i in preds:
        for d in dets_i:
            assert 0 < d.score < 1
            assert d.box.r >= d.box.l and d.box.b >= d.box.t
    score = det.score(images, gts)
    assert 0.0 <= score <= 1.0


def test_fit_deterministic_per_seed():
    images, gts = _dataset(n=4)
    a = PointDetector(classes=2, n_semantic=4, channels=8, iters=15, seed=3).fit(images, gts)
    b = PointDetector(classes=2, n_semantic=4, channels=8, iters=15, seed=3).fit(images, gts)
    for p, q in zip(a.model_.parameters(), b.model_.parameters()):
        assert p.value.tobytes() == q.value.tobytes()


def test_fit_rejects_invalid_training_values():
    images, gts = _dataset(n=1, size=32)
    with pytest.raises(ValueError, match="'iters'"):
        PointDetector(classes=3, iters=-5, lr=float("nan")).fit(images, gts)
    with pytest.raises(ValueError, match="'lr'"):
        PointDetector(classes=3, iters=1, lr=float("nan")).fit(images, gts)
    for name in ("lr", "momentum", "weight_decay"):
        for bad in (True, "0.1", None):  # True trained at lr 1.0
            with pytest.raises(ValueError, match=f"training argument {name!r}"):
                PointDetector(classes=3, iters=1, **{name: bad}).fit(images, gts)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_fit_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    images, gts = _dataset(n=1, size=32)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        PointDetector(classes=2, n_semantic=4, channels=8, iters=1, seed=seed).fit(images, gts)


def test_fit_reports_an_indivisible_image_size_as_an_input_error():
    images = np.full((1, 3, 63, 63), 0.5)
    gts = [GroundTruth(np.array([[10.0, 10.0, 30.0, 30.0]]), np.array([0]))]
    # TrainingDiverged is a RuntimeError, so this ValueError is not one
    with pytest.raises(ValueError, match="image size 63x63 not divisible"):
        PointDetector(classes=2, n_semantic=4, channels=8, iters=2).fit(images, gts)


ESTIMATOR_SHA256 = "bed0198091aaaab1950b98f37a1691bc6ccd9336e8f58a466b5be7813aabc9be"


def test_estimator_training_numerics_fingerprint_is_pinned():
    """Pins every bit of a short ``PointDetector.fit``: its history and its
    parameters, hashed as the training pin in ``test_training.py`` hashes them.
    Taken on the same numpy and BLAS build as that pin; the estimator trains
    through ``train_model``, so a change to that path shows here too."""
    images, gts = _dataset(n=4)
    est = PointDetector(channels=8, iters=20, seed=0).fit(images, gts)
    h = hashlib.sha256(json.dumps(est.history_).encode())
    for p in est.model_.parameters():
        h.update(p.name.encode())
        h.update(p.value.tobytes())
    assert h.hexdigest() == ESTIMATOR_SHA256


def _defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


def _keyword_defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_every_training_setting_has_one_default():
    """Each setting the estimator shares with ``TrainConfig`` or ``ModelConfig``
    (its ``neighbor_offsets`` is the config's ``neighbor_set``), and each
    setting keyword of ``run_training`` and ``compute_losses``, defaults to the
    value its config declares."""
    est, train, shape = _defaults(PointDetector), _defaults(TrainConfig), _defaults(ModelConfig)
    train["neighbor_offsets"] = train.pop("neighbor_set")
    pairs = [(name, est[name], config[name]) for config in (train, shape)
             for name in est.keys() & config.keys()]
    for fn in (run_training, compute_losses):
        pairs += [(name, value, train[name]) for name, value in _keyword_defaults(fn).items()
                  if name in train]
    assert {name for name, *_ in pairs} >= {
        "classes", "n_semantic", "channels", "levels", "neighbor_offsets", "mode", "iters",
        "lr", "momentum", "weight_decay", "lambda1", "lambda2", "seed"}
    assert [(name, a) for name, a, b in pairs if a != b] == []
