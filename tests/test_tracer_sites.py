"""The benchmark's tracer patches pointdet functions by module and name.

A renamed or moved function makes ``Tracer.install`` raise, which otherwise
only shows when the benchmark runs. These tests run the tracer from
``perfbench/`` over one default training step and one ``detect``.
"""

from pathlib import Path

import numpy as np
import pytest

from pointdet import ops
from pointdet.config import TrainConfig
from pointdet.head import available_levels
from pointdet.inference import detect
from pointdet.model import DetectionModel, ModelConfig
from pointdet.training import holdout_scenes, train_from_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


def test_every_patch_site_exists(spans):
    for owner, attr, *_ in spans._patch_sites():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_tracer_sees_the_collection_in_training_and_detect(spans):
    with spans.Tracer() as tracer:
        train_from_config(TrainConfig(iters=1))
    calls = spans.aggregate(tracer.spans)
    assert calls["head.collect_level"]["calls"] == 1
    assert calls["head.collect_level_backward"]["calls"] == 1
    for name in ("ops.bilinear_gather", "ops.bilinear_gather_backward"):
        assert calls[name]["incl"] > 0
        assert tracer.counters[f"{name}.samples"] > 0

    image, _ = holdout_scenes(TrainConfig(), 1)[0]
    with spans.Tracer() as tracer:
        detect(DetectionModel(ModelConfig(), seed=0), np.asarray(image))
    calls = spans.aggregate(tracer.spans)
    assert calls["head.collect_level"]["calls"] == 1
    assert "head.collect_level_backward" not in calls
    assert tracer.counters["ops.bilinear_gather.samples"] > 0
    # both gathers are ops.bilinear_gather lookups with the points third, as
    # the counter reads len(args[2]): the present regression slots, 4 per
    # available neighbor level of each grid, plus N semantic points per grid
    cfg = ModelConfig()
    maps = DetectionModel(cfg, seed=0).forward(np.asarray(image), keep_cache=False).maps
    sizes = [h * w for _, h, w in maps.levels]
    present = sum(4 * len(available_levels(i, len(sizes), cfg.offsets)) * size
                  for i, size in enumerate(sizes))
    assert calls["ops.bilinear_gather"]["calls"] == 2
    assert tracer.counters["ops.bilinear_gather.samples"] == present + cfg.n_points * sum(sizes)


def test_every_conv_runs_through_ops_conv2d_under_its_layer(spans):
    """The benchmark times convs through ``ops.conv2d`` spans, each inside
    its layer's ``layers.<name>.fwd`` span, and their backward through
    ``ops.conv2d_backward``: 4 backbone convs and 12 head convs on each of
    3 levels of the default model."""
    image, _ = holdout_scenes(TrainConfig(), 1)[0]
    model = DetectionModel(ModelConfig(), seed=0)
    with spans.Tracer() as tracer:
        detect(model, np.asarray(image))
    parents = [parent for name, _, _, parent, _ in tracer.spans if name == "ops.conv2d"]
    assert len(parents) == 40
    for parent in parents:
        layer = tracer.spans[parent][0]
        assert layer.startswith("layers.") and layer.endswith(".fwd"), layer

    with spans.Tracer() as tracer:
        train_from_config(TrainConfig(iters=1))
    assert spans.aggregate(tracer.spans)["ops.conv2d_backward"]["calls"] == 40


def test_conv_flop_counter_follows_each_convs_output_shape(spans, monkeypatch):
    """``ops.conv2d.flop`` is computed from ``ops.conv2d``'s ``stride`` and
    ``padding`` arguments; it must equal 2*Cout*Cin*9*H'*W' read off the
    outputs of the default model's 40 convs in one 64x64 ``detect``."""
    image = np.random.default_rng(0).uniform(size=(3, 64, 64))
    model = DetectionModel(ModelConfig(), seed=0)
    conv2d, flops = ops.conv2d, []

    def recording(x, w, *args, **kwargs):
        y, cache = conv2d(x, w, *args, **kwargs)
        assert w.shape[2:] == (3, 3)
        flops.append(2 * w.shape[0] * w.shape[1] * 9 * y.shape[1] * y.shape[2])
        return y, cache

    with monkeypatch.context() as patched:
        patched.setattr(ops, "conv2d", recording)
        detect(model, image)
    assert len(flops) == 40
    with spans.Tracer() as tracer:
        detect(model, image)
    assert tracer.counters["ops.conv2d.flop"] == sum(flops)
