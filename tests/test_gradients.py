"""Finite-difference verification of every differentiable operation."""

import pytest

from pointdet.gradcheck import CHECKS, run_checks

KERNEL_TOLERANCE = 1e-5     # elementary ops
PIPELINE_TOLERANCE = 1e-4   # full head / full loss


@pytest.mark.parametrize("name", ["conv", "bilinear", "softmax", "sigmoid", "giou", "focal"])
def test_kernel_gradients(name):
    err = CHECKS[name]()
    assert err < KERNEL_TOLERANCE, f"{name}: max rel err {err:.3e}"


@pytest.mark.parametrize("name", ["backbone", "head", "total-loss"])
def test_pipeline_gradients(name):
    err = CHECKS[name]()
    assert err < PIPELINE_TOLERANCE, f"{name}: max rel err {err:.3e}"


def test_run_checks_rejects_unknown():
    with pytest.raises(ValueError, match="unknown gradcheck"):
        run_checks(["nope"])


@pytest.mark.parametrize("mode", ["coupled", "loc-only", "cls-only"])
def test_head_gradients_in_ablation_modes(mode):
    err = CHECKS["head"](seed=31, mode=mode)
    assert err < PIPELINE_TOLERANCE, f"{mode}: max rel err {err:.3e}"


@pytest.mark.parametrize("offsets", [(1,), (-1, 0, 1)])
def test_head_gradients_on_ragged_pyramids(offsets):
    # the check's top level is 1x1; (1,) leaves it no neighbour level
    err = CHECKS["head"](seed=37, offsets=offsets)
    assert err < PIPELINE_TOLERANCE, f"{offsets}: max rel err {err:.3e}"


def test_check_head_runs_one_forward_per_loss_evaluation(monkeypatch):
    from pointdet import gradcheck
    from pointdet.model import DetectionModel

    calls = 0
    forward = DetectionModel.forward

    def counting_forward(self, image):
        nonlocal calls
        calls += 1
        return forward(self, image)

    monkeypatch.setattr(DetectionModel, "forward", counting_forward)
    gradcheck.check_head()
    samples = sum(min(gradcheck._SAMPLES_PER_TENSOR, p.value.size)
                  for p in gradcheck._tiny_model().parameters())
    # probe shapes, analytic gradients, two per sampled entry, two directional
    assert calls == 1 + 1 + 2 * samples + 2
