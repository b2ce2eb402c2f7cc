import hashlib
import math
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointdet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pointdet.model import DetectionModel, ModelConfig
from pointdet.optim import SGD, NonFiniteGradientError, Parameter, ParamSet

from oracles import sgd_step_reference


def test_sgd_zero_grad_leaves_param():
    p = Parameter("w", np.array([1.0]))
    opt = SGD(ParamSet([p]), lr=0.1, momentum=0.0, weight_decay=0.0)
    opt.step()
    assert p.value[0] == 1.0


def test_sgd_single_step_arithmetic():
    p = Parameter("w", np.array([1.0]))
    p.grad[:] = 2.0
    opt = SGD(ParamSet([p]), lr=0.1, momentum=0.0, weight_decay=0.0)
    opt.step()
    assert p.value[0] == pytest.approx(0.8)
    assert p.grad[0] == 0.0  # gradients zeroed after the step


def test_sgd_momentum_and_decay_form():
    p = Parameter("w", np.array([2.0]))
    opt = SGD(ParamSet([p]), lr=0.5, momentum=0.5, weight_decay=0.1)
    p.grad[:] = 1.0
    opt.step()
    # v = 0.5*0 + 1 + 0.1*2 = 1.2 ; param = 2 - 0.5*1.2 = 1.4
    assert p.value[0] == pytest.approx(1.4)
    p.grad[:] = 0.0
    opt.step()
    # v = 0.5*1.2 + 0 + 0.1*1.4 = 0.74 ; param = 1.4 - 0.37 = 1.03
    assert p.value[0] == pytest.approx(1.03)


def test_sgd_nonfinite_gradient_aborts_naming_param():
    p1 = Parameter("good", np.array([1.0]))
    p2 = Parameter("model.bad_layer.w", np.array([1.0]))
    p1.grad[:] = 1.0
    p2.grad[:] = np.nan
    opt = SGD(ParamSet([p1, p2]), lr=0.1, momentum=0.9, weight_decay=0.0)
    with pytest.raises(NonFiniteGradientError, match="model.bad_layer.w"):
        opt.step()
    # aborted before touching any parameter
    assert p1.value[0] == 1.0 and p2.value[0] == 1.0


def test_sgd_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(0)
        p = Parameter("w", rng.normal(size=16))
        opt = SGD(ParamSet([p]), lr=0.05, momentum=0.9, weight_decay=1e-4)
        for i in range(10):
            p.grad[:] = np.sin(p.value * (i + 1))
            opt.step()
        return p.value.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_sgd_rejects_bad_lr():
    with pytest.raises(ValueError, match="positive"):
        SGD(ParamSet([Parameter("w", np.zeros(1))]), lr=0.0, momentum=0.9, weight_decay=0.0)


@pytest.mark.parametrize("name", ["lr", "momentum", "weight_decay"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "0.1", None,
                                   pytest.param(10**400, id="int-past-float")])
def test_sgd_rejects_a_non_finite_setting_naming_it(name, value):
    settings = {"lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a (positive )?finite number"):
        SGD(ParamSet([Parameter("w", np.zeros(1))]), **settings)


@pytest.mark.parametrize("lr", [float("nan"), 0.0, True])
def test_sgd_step_rejects_a_bad_lr_before_touching_any_state(lr):
    p = Parameter("w", np.array([1.0, -2.0]))
    opt = SGD(ParamSet([p]), lr=0.1, momentum=0.9, weight_decay=1e-4)
    p.grad[:] = [0.5, 0.25]
    opt.step()
    p.grad[:] = [0.75, -1.0]
    values, velocity, grads = (a.tobytes() for a in (opt.params.values, opt._velocity, p.grad))
    with pytest.raises(ValueError, match="^lr must be a positive finite number"):
        opt.step(lr=lr)
    assert opt.params.values.tobytes() == values
    assert opt._velocity.tobytes() == velocity
    assert p.grad.tobytes() == grads


_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(_shapes, min_size=1, max_size=4), lr=st.floats(1e-6, 10.0),
       momentum=st.just(0.0) | st.floats(0.0, 0.99),
       weight_decay=st.just(0.0) | st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_sgd_matches_the_per_parameter_step_property(shapes, lr, momentum, weight_decay, seed):
    rng = np.random.default_rng(seed)
    init = [rng.normal(size=shape) for shape in shapes]
    params = ParamSet([Parameter(f"p{i}", v) for i, v in enumerate(init)])
    ref = [SimpleNamespace(value=v.copy(), grad=np.zeros_like(v)) for v in init]
    velocity = [np.zeros_like(v) for v in init]
    opt = SGD(params, lr, momentum=momentum, weight_decay=weight_decay)
    for _ in range(4):
        for p, q in zip(params, ref):
            q.grad[...] = p.grad[...] = rng.normal(size=p.value.shape)
        opt.step()
        sgd_step_reference(ref, velocity, lr, momentum, weight_decay)
        for p, q in zip(params, ref):
            assert np.array_equal(p.value, q.value) and np.array_equal(p.grad, q.grad)


@pytest.mark.parametrize("reload", [False, True])
def test_model_parameters_are_views_of_the_flat_vectors(tmp_path, reload):
    model = DetectionModel(ModelConfig(channels=8, classes=2, n_semantic=4), seed=3)
    if reload:
        model.save(tmp_path / "model.pdn")
        model = DetectionModel.load(tmp_path / "model.pdn")
    params = model.parameters()
    assert params.values.shape == params.grads.shape == (sum(p.value.size for p in params),)
    start = 0
    for p in params:
        for view, flat in ((p.value, params.values), (p.grad, params.grads)):
            assert view.flags.c_contiguous
            # the view starts where the previous parameter's ended
            assert (view.__array_interface__["data"][0]
                    == flat.__array_interface__["data"][0] + start * flat.itemsize)
        start += p.value.size
    assert start == params.values.size
    params.values[-1] = 42.0
    params.grads[0] = 7.0
    assert params[-1].value.flat[-1] == 42.0 and params[0].grad.flat[0] == 7.0


# ---------------------------------------------------------------------------
# checkpoint format



def _conv_params(name, cout, cin=32):
    return [(f"{name}.w", (cout, cin, 3, 3)), (f"{name}.b", (cout,))]


_TRUNK_PARAMS = [
    p for name, cin in (("backbone.stem0", 3), ("backbone.stem1", 32), ("backbone.down0", 32),
                        ("backbone.down1", 32), ("head.reg0", 32), ("head.reg1", 32),
                        ("head.cls0", 32), ("head.cls1", 32), ("head.gen0", 32),
                        ("head.gen1", 32))
    for p in _conv_params(name, 32, cin)
]
# per mode: the head outputs with their channel counts, then the SHA-256 of
# the seed-0 checkpoint of a fresh default model
_MODE_FINGERPRINTS = {
    "decoupled": (
        [("out_reg", 4), ("out_cls", 27), ("out_coarse", 4), ("out_bshift", 4),
         ("out_sshift", 18), ("out_lvlw", 8)],
        "b8761280ea8e834b726f3b71870c29209184d1535baf1a8fb3038e143f575806",
    ),
    "coupled": (
        [("out_reg", 4), ("out_cls", 3), ("out_coarse", 4)],
        "1d0fa6c03d02b29ba68cccde3b3396f51d3d682c69fe8f82ba5ffb0b134bcad8",
    ),
    "loc-only": (
        [("out_reg", 4), ("out_cls", 3), ("out_coarse", 4), ("out_bshift", 4), ("out_lvlw", 8)],
        "55595cb649b67c74d58b5894da05c1cd7c33931ba71b4fbf602d09de30e0d821",
    ),
    "cls-only": (
        [("out_reg", 4), ("out_cls", 27), ("out_coarse", 4), ("out_sshift", 18)],
        "bffb577c577ac8bb9d2a0182a1f21287fb8566ea9a79f0b709b0d206ed06c2a9",
    ),
}


@pytest.mark.parametrize("mode", sorted(_MODE_FINGERPRINTS))
def test_fresh_model_parameters_and_checkpoint_bytes_are_pinned(tmp_path, mode):
    # the parameter order fixes the initial RNG draws, the checkpoint record
    # order and the summation order of the gradient norm
    outputs, digest = _MODE_FINGERPRINTS[mode]
    expected = _TRUNK_PARAMS + [p for name, cout in outputs
                                for p in _conv_params(f"head.{name}", cout)]
    model = DetectionModel(ModelConfig(mode=mode), seed=0)
    assert [(p.name, p.value.shape) for p in model.parameters()] == expected
    path = tmp_path / "fresh.pdn"
    model.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {
        "a.w": rng.normal(size=(3, 2, 3, 3)),
        "a.b": rng.normal(size=3),
        "deep/nested.name": rng.normal(size=(2, 2, 2, 2, 2)),
        "scalar_like": np.array([7.5]),
    }
    path = tmp_path / "ck.pdn"
    save_checkpoint(path, arrays)
    back = load_checkpoint(path)
    assert list(back.keys()) == list(arrays.keys())
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)
        assert back[name].tobytes() == arr.tobytes()


def test_checkpoint_magic_and_layout(tmp_path):
    path = tmp_path / "ck.pdn"
    save_checkpoint(path, {"x": np.array([1.0, 2.0])})
    raw = path.read_bytes()
    assert raw[:4] == b"PDN1"
    # name length 1, name 'x', rank 1, extent 2, two f8 payload values
    assert raw[4:8] == (1).to_bytes(4, "little")
    assert raw[8:9] == b"x"
    assert raw[9:13] == (1).to_bytes(4, "little")
    assert raw[13:17] == (2).to_bytes(4, "little")
    assert np.frombuffer(raw[17:], dtype="<f8").tolist() == [1.0, 2.0]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.pdn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    path = tmp_path / "ck.pdn"
    save_checkpoint(path, {"x": np.arange(4.0)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["classes", "n_semantic", "channels", "levels"])
@pytest.mark.parametrize("value", [0, -1, 2.5, True, "4", None])
def test_model_config_rejects_a_size_that_is_not_a_positive_integer(name, value):
    with pytest.raises(ValueError, match=f"'{name}' must be a positive integer"):
        ModelConfig(**{name: value})


@pytest.mark.parametrize("offsets", [(0.5, -1.7), (True,), (-1, False), (-1, "0"), (0, None),
                                     (-1.0, 0), 0, "-1,0", None])
def test_model_config_rejects_neighbor_offsets_that_are_not_integers(offsets):
    with pytest.raises(ValueError, match="'neighbor_offsets' must be a sequence of integers"):
        ModelConfig(neighbor_offsets=offsets)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None, np.int64(-2)])
def test_model_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        DetectionModel(ModelConfig(channels=8), seed=seed)


def test_model_takes_a_numpy_integer_seed_as_its_value():
    a = DetectionModel(ModelConfig(channels=8), seed=np.int64(3)).parameters().values
    b = DetectionModel(ModelConfig(channels=8), seed=3).parameters().values
    assert a.tobytes() == b.tobytes()


def test_model_config_sorts_and_dedups_integer_neighbor_offsets():
    assert ModelConfig(neighbor_offsets=[0, np.int64(-1), 0]).neighbor_offsets == (-1, 0)


def test_model_save_load_roundtrip(tmp_path):
    model = DetectionModel(ModelConfig(channels=8, classes=2, n_semantic=4), seed=3)
    path = tmp_path / "model.pdn"
    model.save(path)
    back = DetectionModel.load(path)
    assert back.config == model.config
    for p, q in zip(model.parameters(), back.parameters()):
        assert p.name == q.name
        assert p.value.tobytes() == q.value.tobytes()
    img = np.random.default_rng(0).uniform(size=(3, 32, 32))
    a = model.forward(img)
    b = back.forward(img)
    ca, cb = a.collection, b.collection
    assert np.array_equal(ca.boxes, cb.boxes)
    assert np.array_equal(ca.scores, cb.scores)


def test_model_load_mode_roundtrip(tmp_path):
    for mode in ("coupled", "loc-only", "cls-only"):
        model = DetectionModel(
            ModelConfig(channels=8, classes=2, n_semantic=4, mode=mode), seed=1
        )
        path = tmp_path / f"{mode}.pdn"
        model.save(path)
        assert DetectionModel.load(path).config.mode == mode


def _tampered_checkpoint(tmp_path, edit):
    """Save a small model, let ``edit`` change its record dict, write it back."""
    path = tmp_path / "model.pdn"
    DetectionModel(ModelConfig(channels=8, classes=2, n_semantic=4), seed=0).save(path)
    records = load_checkpoint(path)
    edit(records)
    save_checkpoint(path, records)
    return path


@pytest.mark.parametrize("name, value", [
    ("meta.format_version", [0.0]),
    ("meta.format_version", [2.0]),
    ("meta.format_version", [99.0]),
    ("meta.mode", [0.9]),
    ("meta.mode", [4.0]),
    ("meta.mode", [-1.0]),
    ("meta.classes", [np.nan]),
    ("meta.channels", [8.5]),
    ("meta.levels", [0.0]),
    ("meta.base_stride", [4.0, 4.0]),
    ("meta.neighbor_offsets", [-1.0, np.inf]),
])
def test_model_load_rejects_bad_meta(tmp_path, name, value):
    path = _tampered_checkpoint(tmp_path, lambda r: r.__setitem__(name, np.array(value)))
    with pytest.raises(ValueError, match=name):
        DetectionModel.load(path)


def test_model_load_rejects_unknown_record(tmp_path):
    path = _tampered_checkpoint(
        tmp_path, lambda r: r.__setitem__("head.extra.w", np.zeros(3))
    )
    with pytest.raises(ValueError, match="unknown record 'head.extra.w'"):
        DetectionModel.load(path)


@pytest.mark.parametrize("name", ["head.out_cls.w", "backbone.stem0.b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_load_rejects_non_finite_parameters(tmp_path, name, bad):
    def poison(records):
        records[name].flat[0] = bad

    path = _tampered_checkpoint(tmp_path, poison)
    with pytest.raises(ValueError, match=f"parameter '{name}' holds NaN or infinity") as exc:
        DetectionModel.load(path)
    assert str(path) in str(exc.value)


def test_bundled_benchmark_checkpoint_still_loads():
    DetectionModel.load(Path(__file__).resolve().parents[1] / "perfbench" / "eval_model.pdn")


def test_checkpoint_overflowing_extents_rejected(tmp_path):
    # three extents of 2^31 hold 2^93 elements: more than any int64 count
    path = tmp_path / "huge.pdn"
    path.write_bytes(
        b"PDN1" + struct.pack("<I", 1) + b"x" + struct.pack("<4I", 3, 2**31, 2**31, 2**31)
    )
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "ck.pdn"
    save_checkpoint(path, [("a", np.zeros(1)), ("bc", np.ones(2))])
    raw = path.read_bytes()
    # magic (4), record "a" (4 + 1 + 4 + 4 + 8), then the second name length (4)
    at = raw.index(b"bc")
    assert at == 29
    path.write_bytes(raw[:at] + b"\xff\xfe" + raw[at + 2 :])
    with pytest.raises(CheckpointError, match="record name at byte 29 is not UTF-8"):
        load_checkpoint(path)


def test_checkpoint_repeated_name_rejected(tmp_path):
    path = tmp_path / "ck.pdn"
    save_checkpoint(path, [("x", np.zeros(1)), ("x", np.ones(2))])
    with pytest.raises(CheckpointError, match="repeated record name 'x'"):
        load_checkpoint(path)


_names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_arrays = st.lists(st.integers(0, 3), max_size=3).flatmap(
    lambda shape: st.lists(
        st.floats(allow_nan=False, width=64), min_size=math.prod(shape),
        max_size=math.prod(shape),
    ).map(lambda vals: np.array(vals, dtype=np.float64).reshape(shape))
)


@settings(max_examples=60, deadline=None)
@given(records=st.dictionaries(_names, _arrays, max_size=4), cut=st.integers(1, 10**6))
def test_checkpoint_roundtrip_and_truncation_property(tmp_path_factory, records, cut):
    path = tmp_path_factory.mktemp("ck") / "ck.pdn"
    save_checkpoint(path, records)
    back = load_checkpoint(path)
    assert list(back) == list(records)
    for name, arr in records.items():
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()
    # a proper prefix that ends inside a record is rejected, never misread
    raw = path.read_bytes()
    if len(raw) > 4:
        path.write_bytes(raw[: 4 + cut % (len(raw) - 4)])
        try:
            partial = load_checkpoint(path)
        except CheckpointError as e:
            assert "truncated" in str(e)
        else:
            # the cut fell between two records: the ones before it read back
            assert list(partial) == list(records)[: len(partial)]
            for name, arr in partial.items():
                assert arr.tobytes() == records[name].tobytes()
