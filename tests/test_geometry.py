import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet.geometry import (
    Box,
    fold_boxes,
    giou_loss_grad_array,
    iou_array,
    iou_matrix,
)

from oracles import giou_scalar, iou_scalar

UNIT = (0.0, 0.0, 1.0, 1.0)


def boxes(max_coord=10.0):
    coord = st.floats(0, max_coord, allow_nan=False)

    def build(a, b, c, d):
        return (min(a, c), min(b, d), max(a, c), max(b, d))

    return st.builds(build, coord, coord, coord, coord)


def iou(a, b):
    return float(iou_array(a, b))


def giou_loss(a, b):
    return float(giou_loss_grad_array(np.array([a]), np.array([b]))[0][0])


def test_box_validation():
    with pytest.raises(ValueError, match="r >= l"):
        Box(1, 0, 0, 1)
    with pytest.raises(ValueError, match="finite"):
        Box(0, 0, np.inf, 1)
    assert Box(1, 2, 1, 2) == Box(1.0, 2.0, 1.0, 2.0)  # degenerate allowed


def test_iou_identity_and_disjoint():
    assert iou(UNIT, UNIT) == 1.0
    assert iou((0, 0, 1, 1), (2, 2, 3, 3)) == 0.0


def test_iou_hand_value():
    assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)


def test_iou_zero_union_defined_as_zero():
    degenerate = (1, 1, 1, 1)
    assert iou(degenerate, degenerate) == 0.0


def test_giou_identity():
    assert giou_scalar(UNIT, UNIT) == 1.0
    assert giou_loss(UNIT, UNIT) == 0.0


def test_giou_hand_values():
    assert giou_scalar((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1.0 / 7.0 - 2.0 / 9.0)
    assert giou_scalar((0, 0, 1, 1), (2, 2, 3, 3)) == pytest.approx(-7.0 / 9.0)


def test_giou_both_degenerate_defined_zero():
    a = (1.0, 1.0, 1.0, 1.0)
    b = (4.0, 2.0, 4.0, 2.0)
    assert giou_scalar(a, b) == 0.0
    for pred, gt in ((a, b), (b, a)):
        loss, gpred = giou_loss_grad_array(np.array([pred]), np.array([gt]))
        assert loss[0] == 1.0
        assert np.all(gpred == 0)


@settings(max_examples=200, deadline=None)
@given(a=boxes(), b=boxes())
def test_symmetry_and_giou_bounds(a, b):
    assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-12)
    g = giou_scalar(a, b)
    assert g == pytest.approx(giou_scalar(b, a), abs=1e-12)
    assert -1.0 <= g <= 1.0 + 1e-12
    assert g <= iou(a, b) + 1e-12
    assert 0.0 <= giou_loss(a, b) < 2.0 + 1e-12
    assert giou_loss(a, b) == pytest.approx(1.0 - g, abs=1e-12)


def test_giou_equals_iou_under_containment():
    outer = (0, 0, 10, 10)
    inner = (2, 3, 5, 6)
    assert giou_scalar(outer, inner) == pytest.approx(iou(outer, inner))


def test_giou_gradients_match_fd():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(30):
        raw = rng.uniform(0, 10, size=8)
        pa = np.array([min(raw[0], raw[2]), min(raw[1], raw[3]),
                       max(raw[0], raw[2]), max(raw[1], raw[3])])
        pb = np.array([min(raw[4], raw[6]), min(raw[5], raw[7]),
                       max(raw[4], raw[6]), max(raw[5], raw[7])])
        # keep away from tie/kink configurations for FD
        diffs = [pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2], pa[3] - pb[3],
                 min(pa[2], pb[2]) - max(pa[0], pb[0]),
                 min(pa[3], pb[3]) - max(pa[1], pb[1]),
                 pa[2] - pa[0], pa[3] - pa[1], pb[2] - pb[0], pb[3] - pb[1]]
        if min(abs(d) for d in diffs) < 1e-2:
            continue
        eps = 1e-6
        # GIoU is symmetric, so the swapped pair checks the second argument
        for pred, gt in ((pa, pb), (pb, pa)):
            _, gpred = giou_loss_grad_array(pred[None], gt[None])
            for i in range(4):
                old = pred[i]
                pred[i] = old + eps
                hi = float(giou_loss_grad_array(pred[None], gt[None])[0][0])
                pred[i] = old - eps
                lo = float(giou_loss_grad_array(pred[None], gt[None])[0][0])
                pred[i] = old
                num = (hi - lo) / (2 * eps)
                worst = max(worst, abs(num - gpred[0, i]) / max(1.0, abs(num), abs(gpred[0, i])))
    assert worst < 1e-6


def test_fold_boxes_routes_inverted_coordinates():
    inverted = np.array([[5.0, 1.0, 2.0, 4.0]])
    folded, swap_x, swap_y = fold_boxes(inverted)
    np.testing.assert_array_equal(folded, [[2.0, 1.0, 5.0, 4.0]])
    assert swap_x[0] and not swap_y[0]
    # loss of the folded box equals loss computed on the pre-sorted box
    gt = np.array([[2.0, 1.0, 5.0, 4.0]])
    loss_inv, _ = giou_loss_grad_array(inverted, gt)
    loss_ok, _ = giou_loss_grad_array(folded, gt)
    assert loss_inv[0] == loss_ok[0] == pytest.approx(0.0)


@pytest.mark.parametrize("box", [[0.0, 0.0, np.nan, 5.0], [np.nan, 0.0, 3.0, 5.0],
                                 [0.0, 1.0, 3.0, np.nan], [0.0, np.nan, 3.0, 5.0]])
def test_fold_boxes_keeps_a_nan_in_the_box(box):
    """Python's max(l, nan) is l; the fold keeps the NaN instead, so the GIoU
    loss treats the prediction as a degenerate pair (loss 1, zero gradient)
    and never takes a gradient from a made-up zero-width box."""
    folded, _, _ = fold_boxes([box])
    assert np.isnan(folded).any()
    loss, grad = giou_loss_grad_array([box], [[0.0, 0.0, 3.0, 5.0]])
    assert loss.tolist() == [1.0] and not grad.any()


def test_iou_matrix_matches_scalar():
    rng = np.random.default_rng(11)
    a = np.sort(rng.uniform(0, 10, size=(5, 2, 2)), axis=2).reshape(5, 4)[:, [0, 2, 1, 3]]
    b = np.sort(rng.uniform(0, 10, size=(4, 2, 2)), axis=2).reshape(4, 4)[:, [0, 2, 1, 3]]
    mat = iou_matrix(a, b)
    for i in range(5):
        for j in range(4):
            assert mat[i, j] == pytest.approx(iou_scalar(a[i], b[j]), abs=1e-12)


def test_giou_gradient_finite_when_union_square_underflows():
    # union 2e-320 is positive, but its square underflows to 0
    pred = np.array([[0.0, 0.0, 1e-160, 1e-160]])
    gt = np.array([[0.0, 0.0, 2e-160, 1e-160]])
    loss, gpred = giou_loss_grad_array(pred, gt)
    assert loss[0] == 0.5
    assert np.all(np.isfinite(gpred))
    # GIoU is scale-free, so the gradient scales as 1 / scale
    _, unit = giou_loss_grad_array(pred * 1e160, gt * 1e160)
    np.testing.assert_allclose(gpred * 1e-160, unit, rtol=1e-4)


def test_giou_gradient_beyond_float_range_saturates_without_warning():
    # a gt box 2.2e-311 high: the loss is fine, but the gradient of the top
    # edge of a point box inside it is about -1 / 2.2e-311, beyond float64
    pred = np.array([[0.0, 0.0, 0.0, 0.0]])
    gt = np.array([[0.0, 0.0, 1.0, 2.225073858507e-311]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loss, gpred = giou_loss_grad_array(pred, gt)
        same, gsame = giou_loss_grad_array(gt, gt)
    assert loss[0] == 1.0 and same[0] == 0.0
    assert gpred[0, 1] == -np.inf and np.all(np.isfinite(gpred[0, [0, 2, 3]]))
    # identical boxes: the top edge's two saturated terms cancel to nan
    assert np.isnan(gsame[0, 1])
