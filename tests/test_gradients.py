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
    import numpy as np

    from pointdet import ops
    from pointdet.gradcheck import _param_fd_check
    from pointdet.model import DetectionModel, ModelConfig

    rng = np.random.default_rng(31)
    model = DetectionModel(
        ModelConfig(classes=2, n_semantic=4, channels=8, mode=mode), seed=6
    )
    image = rng.uniform(0.1, 0.9, size=(3, 16, 16))
    st0 = model.forward(image)
    r_box = [rng.normal(size=c.boxes.shape) for c in st0.collections]
    r_sc = [rng.normal(size=c.scores.shape) for c in st0.collections]
    r_co = [rng.normal(size=c.coarse.shape) * 0.1 for c in st0.collections]

    def loss_and_grads(backward=False):
        state = model.forward(image)
        val = 0.0
        grads = []
        for c, rb, rs, rc in zip(state.collections, r_box, r_sc, r_co):
            val += (c.boxes * rb).sum() + (c.scores * rs).sum() + (c.coarse * rc).sum()
            grads.append({"gboxes": rb, "gz": rs * ops.sigmoid_grad(c.scores), "gcoarse": rc})
        if backward:
            model.backward(state, grads)
        return float(val)

    err = _param_fd_check(model, loss_and_grads, rng)
    assert err < PIPELINE_TOLERANCE, f"{mode}: max rel err {err:.3e}"


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
