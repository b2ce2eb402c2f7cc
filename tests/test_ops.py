import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bilinear_backward_reference,
    conv2d_backward_reference,
    conv2d_reference,
    im2col_reference,
)
from pointdet import ops
from pointdet.config import TrainConfig
from pointdet.inference import detect
from pointdet.model import DetectionModel, ModelConfig
from pointdet.scenes import generate_scene
from pointdet.training import compute_losses, train_from_config


def test_conv_identity_1x1():
    x = np.array([[[5.0]]])
    w = np.array([[[[1.0]]]])
    y, _ = ops.conv2d(x, w, np.zeros(1), stride=1, padding=0)
    assert y.shape == (1, 1, 1)
    assert y[0, 0, 0] == 5.0


def test_conv_all_ones_center():
    x = np.ones((1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    y, _ = ops.conv2d(x, w, np.zeros(1), stride=1, padding=1)
    assert y.shape == (1, 3, 3)
    assert y[0, 1, 1] == 9.0
    assert y[0, 0, 0] == 4.0  # corner sees a 2x2 patch


def test_conv_output_shape_stride2():
    x = np.zeros((2, 8, 8))
    w = np.zeros((5, 2, 3, 3))
    y, _ = ops.conv2d(x, w, np.zeros(5), stride=2, padding=1)
    assert y.shape == (5, 4, 4)


def test_conv_weight_gradient_matches_fd():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    r = rng.normal(size=(3, 4, 4))

    def loss():
        y, _ = ops.conv2d(x, w, b, stride=1, padding=1)
        return float((y * r).sum())

    _, cache = ops.conv2d(x, w, b, stride=1, padding=1)
    gw, _ = ops.conv2d_backward(cache, r)
    eps = 1e-6
    worst = 0.0
    for idx in np.ndindex(w.shape):
        old = w[idx]
        w[idx] = old + eps
        hi = loss()
        w[idx] = old - eps
        lo = loss()
        w[idx] = old
        num = (hi - lo) / (2 * eps)
        worst = max(worst, abs(num - gw[idx]) / max(1.0, abs(num), abs(gw[idx])))
    assert worst < 1e-6


def test_conv_shape_errors_name_dimension():
    with pytest.raises(ValueError, match="channel"):
        ops.conv2d(np.zeros((3, 4, 4)), np.zeros((2, 4, 3, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="odd"):
        ops.conv2d(np.zeros((3, 4, 4)), np.zeros((2, 3, 2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="stride"):
        ops.conv2d(np.zeros((3, 4, 4)), np.zeros((2, 3, 3, 3)), np.zeros(2), stride=3)
    with pytest.raises(ValueError, match="bias"):
        ops.conv2d(np.zeros((3, 4, 4)), np.zeros((2, 3, 3, 3)), np.zeros(5))


@settings(max_examples=150, deadline=None)
@given(cin=st.integers(1, 4), h=st.integers(1, 9), w=st.integers(1, 9),
       k=st.sampled_from([1, 3, 5]), stride=st.sampled_from([1, 2]),
       padding=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_im2col_equals_slice_build(cin, h, w, k, stride, padding, seed):
    assume(h + 2 * padding >= k and w + 2 * padding >= k)
    x = np.random.default_rng(seed).normal(size=(cin, h, w))
    cols = ops.im2col(x, k, stride, padding)
    ref = im2col_reference(x, k, stride, padding)
    assert cols.shape == ref.shape and np.array_equal(cols, ref)
    assert not cols.flags.writeable


def test_conv_rejects_cols_of_another_shape():
    rng = np.random.default_rng(2)
    x, w = rng.normal(size=(3, 6, 6)), rng.normal(size=(4, 3, 3, 3))
    y, (cols, *_) = ops.conv2d(x, w, None, 1, 1, cols=ops.im2col(x, 3, 1, 1))
    assert np.array_equal(y, ops.conv2d(x, w, None, 1, 1)[0])
    for wrong in (ops.im2col(x, 3, 2, 1), ops.im2col(x, 3, 1, 0), ops.im2col(x[:2], 3, 1, 1),
                  ops.im2col(x, 1, 1, 1), cols.T, cols.ravel()):
        with pytest.raises(ValueError, match="cols shape"):
            ops.conv2d(x, w, None, 1, 1, cols=wrong)


def test_conv_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    y1, _ = ops.conv2d(x, w, b, padding=1)
    y2, _ = ops.conv2d(x, w, b, padding=1)
    assert np.array_equal(y1, y2)


def _max_rel_err(a, ref):
    a, ref = np.asarray(a), np.asarray(ref, dtype=np.float64)
    assert a.shape == ref.shape
    return float((np.abs(a - ref) / np.maximum(1.0, np.abs(ref))).max(initial=0.0))


@settings(max_examples=150, deadline=None)
@given(cin=st.integers(1, 4), cout=st.integers(1, 5), h=st.integers(1, 9),
       w=st.integers(1, 9), k=st.sampled_from([1, 3, 5]), stride=st.sampled_from([1, 2]),
       padding=st.integers(0, 5), bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conv_matches_direct_loop_oracle(cin, cout, h, w, k, stride, padding, bias, seed):
    assume(padding <= k and h + 2 * padding >= k and w + 2 * padding >= k)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cin, h, w))
    wt = rng.normal(size=(cout, cin, k, k))
    b = rng.normal(size=cout) if bias else None
    y, cache = ops.conv2d(x, wt, b, stride=stride, padding=padding)
    assert _max_rel_err(y, conv2d_reference(x, wt, b, stride, padding)) < 1e-12
    gy = rng.normal(size=y.shape)
    gw, gb = ops.conv2d_backward(cache, gy)
    gx = ops.conv2d_input_grad([cache], [gy])
    rgx, rgw, rgb = conv2d_backward_reference(x, wt, gy, stride, padding, has_bias=bias)
    assert _max_rel_err(gx, rgx) < 1e-12
    assert _max_rel_err(gw, rgw) < 1e-12
    assert (gb is None) == (rgb is None)
    if bias:
        assert _max_rel_err(gb, rgb) < 1e-12


@settings(max_examples=80, deadline=None)
@given(cin=st.integers(1, 3), h=st.integers(1, 8), w=st.integers(1, 8),
       k=st.sampled_from([1, 3, 5]), stride=st.sampled_from([1, 2]), padding=st.integers(0, 2),
       couts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_conv_input_grad_matches_the_summed_oracle_gradients(cin, h, w, k, stride, padding,
                                                              couts, seed):
    """Convs of one geometry on one input, stacked or not: one input gradient
    equals the sum of every conv's own input gradient."""
    assume(h + 2 * padding >= k and w + 2 * padding >= k)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(cin, h, w))
    caches, gys, ref = [], [], np.zeros_like(x)
    for cout in couts:
        wt = rng.normal(size=(cout, cin, k, k))
        y, cache = ops.conv2d(x, wt, None, stride=stride, padding=padding)
        gy = rng.normal(size=y.shape)
        caches.append(cache)
        gys.append(gy)
        ref += np.asarray(conv2d_backward_reference(x, wt, gy, stride, padding)[0])
    assert _max_rel_err(ops.conv2d_input_grad(caches, gys), ref) < 1e-12


@pytest.mark.parametrize("xshape, k, stride, padding", [
    ((2, 5, 8), 3, 2, 1), ((2, 5, 6), 3, 2, 1), ((3, 4, 4), 3, 1, 1), ((3, 4, 4), 3, 1, 0),
    ((1, 6, 7), 1, 2, 0), ((2, 3, 4), 5, 1, 2), ((2, 7, 5), 5, 2, 1), ((32, 16, 16), 3, 1, 1),
])
def test_patch_index_reads_the_unpadded_input_plus_one_zero(xshape, k, stride, padding):
    """Against the index into the zero-framed [Cin,H+2p,W+2p] copy: a padding
    cell names ``x.size``, every other entry the same cell of ``x``."""
    cin, h, w = xshape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    oy, ox = np.divmod(np.arange(ho * wo), wo)
    ci, u, v = np.unravel_index(np.arange(cin * k * k), (cin, k, k))
    framed = ((oy * stride * wp + ox * stride)[:, None] + (ci * hp * wp + u * wp + v)).ravel()
    # each cell of the frame names its cell of x; the frame's border names x.size
    cell = np.full((cin, hp, wp), cin * h * w)
    cell[:, padding:padding + h, padding:padding + w] = np.arange(cin * h * w).reshape(xshape)
    idx = ops._col2im_indices.__wrapped__(xshape, k, stride, padding)
    np.testing.assert_array_equal(idx, cell.ravel()[framed])
    assert idx.flags.writeable


def test_memoized_im2col_indices_stay_unchanged_by_training_and_detection():
    # the memo hands every conv of a shape the same writeable index, kept
    # writeable because np.take runs several times slower on a read-only one
    model, _ = train_from_config(TrainConfig(iters=1))
    detect(model, np.random.default_rng(0).uniform(size=(3, 64, 64)))
    keys = [(shape, 3, 2, 1) for shape in ((3, 64, 64), (32, 32, 32), (32, 16, 16), (32, 8, 8))]
    keys += [(shape, 3, 1, 1) for shape in ((32, 16, 16), (32, 8, 8), (32, 4, 4))]
    for key in keys:
        misses = ops._col2im_indices.cache_info().misses
        memo = ops._col2im_indices(*key)
        assert ops._col2im_indices.cache_info().misses == misses, key  # the model's own index
        np.testing.assert_array_equal(memo, ops._col2im_indices.__wrapped__(*key))


def _patch_buffers(state):
    """The distinct buffers under the im2col patches of ``state``'s conv caches, by id."""
    convs = [conv for chain in state._bcache for conv, _ in chain]
    for trunks, outs in state._hcache:
        convs += [conv for chain in trunks.values() for conv, _ in chain] + list(outs.values())
    return {id(conv[0].base): conv[0].base for conv in convs}


def test_backward_frees_the_consumed_states_patches():
    """Backward empties the state's conv caches, so once the loss gradients
    are in, nothing holds the 25 distinct patch buffers any more."""
    model = DetectionModel(ModelConfig(channels=8), seed=0)
    image, gt = generate_scene(3, width=32, height=32, max_objects=2, classes=3)
    state = model.forward(image)
    refs = [weakref.ref(buf) for buf in _patch_buffers(state).values()]
    # 4 backbone convs; per head level the feature, 3 trunk middles and 3 trunk ends
    assert len(refs) == 4 + 3 * 7
    _, _, grads, _ = compute_losses(state, gt)
    model.backward(state, *grads)
    assert [ref for ref in refs if ref() is not None] == []


def test_conv_input_grad_rejects_convs_of_different_inputs():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(2, 3, 3, 3))
    (y1, c1), (y2, c2) = (ops.conv2d(rng.normal(size=(3, n, n)), w, None, 1, 1) for n in (4, 5))
    with pytest.raises(ValueError, match="inputs of shapes"):
        ops.conv2d_input_grad([c1, c2], [y1, y2])


@pytest.mark.parametrize("other", [(3, 2, 1), (1, 1, 0), (3, 1, 2)],
                         ids=["stride", "kernel", "padding"])
def test_conv_input_grad_rejects_convs_of_different_geometries(other):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 6, 6))
    (y1, c1), (y2, c2) = (ops.conv2d(x, rng.normal(size=(3, 2, k, k)), None, stride, padding)
                          for k, stride, padding in ((3, 1, 1), other))
    with pytest.raises(ValueError, match=r"\(kernel, stride, padding\) \(3, 1, 1\) and "
                                         + re.escape(str(other))):
        ops.conv2d_input_grad([c1, c2], [y1, y2])


# ---------------------------------------------------------------------------
# bilinear sampling


def _sample(m, x, y):
    """One bilinear sample of the [H,W] map ``m`` through the batched kernel."""
    layout = ops.gather_layout(1, [m.shape], np.zeros(1, dtype=np.intp))
    vals, _ = ops.bilinear_gather(m.reshape(1, -1), layout, [x], [y])
    return float(vals[0])


def _sample_grad(m, x, y):
    """``(value, dvalue/dmap [H,W], dvalue/dx, dvalue/dy)`` of one sample."""
    layout = ops.gather_layout(1, [m.shape], np.zeros(1, dtype=np.intp))
    vals, cache = ops.bilinear_gather(m.reshape(1, -1), layout, [x], [y])
    gmaps, gxs, gys = ops.bilinear_gather_backward(cache, np.ones(1))
    return float(vals[0]), gmaps.reshape(m.shape), float(gxs[0]), float(gys[0])


def test_bilinear_gather_rejects_maps_of_another_shape():
    """A layout of one 2x2 level read flat cell 3 of a [2,6] array (3.0) without error."""
    layout = ops.gather_layout(1, [(2, 2)], np.zeros(1, dtype=np.intp))
    with pytest.raises(ValueError, match=r"shape \(2, 6\).*shape \(1, 4\)"):
        ops.bilinear_gather(np.arange(12.0).reshape(2, 6), layout, [1.0], [1.0])


def test_bilinear_integer_gridpoint_exact():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(4, 5))
    assert _sample(m, 1.0, 2.0) == m[2, 1]


def test_bilinear_midpoint_average():
    m = np.zeros((2, 2))
    m[0, 0] = 1.0
    m[0, 1] = 3.0
    assert _sample(m, 0.5, 0.0) == pytest.approx(2.0)


def test_bilinear_clamps_to_border():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 4))
    assert _sample(m, -1.0, 0.0) == m[0, 0]
    assert _sample(m, 99.0, 99.0) == m[2, 3]


def test_bilinear_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        _sample(np.zeros((2, 2)), np.nan, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        _sample(np.zeros((2, 2)), 0.0, np.inf)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-2.0, 6.0, allow_nan=False),
    y=st.floats(-2.0, 5.0, allow_nan=False),
    seed=st.integers(0, 100),
)
def test_bilinear_output_within_support_hull(x, y, seed):
    m = np.random.default_rng(seed).normal(size=(4, 5))
    v = _sample(m, x, y)
    # support cell under the clamp convention
    xc = min(max(x, 0.0), 4.0)
    yc = min(max(y, 0.0), 3.0)
    x0 = min(int(np.floor(xc)), 3)
    y0 = min(int(np.floor(yc)), 2)
    corners = [m[y0, x0], m[y0, x0 + 1], m[y0 + 1, x0], m[y0 + 1, x0 + 1]]
    assert min(corners) - 1e-12 <= v <= max(corners) + 1e-12


def test_bilinear_single_pixel_map():
    m = np.array([[7.0]])
    assert _sample(m, 0.3, -2.0) == 7.0
    value, gmap, dx, dy = _sample_grad(m, 0.3, -2.0)
    assert value == 7.0 and dx == 0.0 and dy == 0.0
    assert gmap[0, 0] == 1.0


def test_bilinear_gradient_wrt_map_and_coords():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(5, 6))
    x, y = 2.3, 1.7
    value, gmap, dx, dy = _sample_grad(m, x, y)
    eps = 1e-6
    ndx = (_sample(m, x + eps, y) - _sample(m, x - eps, y)) / (2 * eps)
    ndy = (_sample(m, x, y + eps) - _sample(m, x, y - eps)) / (2 * eps)
    assert dx == pytest.approx(ndx, rel=1e-6, abs=1e-9)
    assert dy == pytest.approx(ndy, rel=1e-6, abs=1e-9)
    for idx in np.ndindex(m.shape):
        old = m[idx]
        m[idx] = old + eps
        hi = _sample(m, x, y)
        m[idx] = old - eps
        lo = _sample(m, x, y)
        m[idx] = old
        assert gmap[idx] == pytest.approx((hi - lo) / (2 * eps), abs=1e-9)


# a few exact integers and cell midpoints make samples share cells and edges
_COORDS = st.one_of(st.floats(-2.0, 7.0, allow_nan=False),
                    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 6.5]))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), shared=st.booleans(), seed=st.integers(0, 2**16))
def test_bilinear_backward_over_several_maps_matches_the_scatter_oracle(data, shared, seed):
    """Map and coordinate gradients of a gather over 1-4 levels of M
    channels side by side (1x1 and 1xW ones included) against one scalar
    scatter-add per sample. ``shared`` rows read C channels of one level at
    each point; otherwise each point reads one channel of any level."""
    rng = np.random.default_rng(seed)
    n_rows = data.draw(st.integers(1, 3))
    extents = data.draw(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                                 min_size=1, max_size=4))
    maps = [rng.normal(size=(n_rows, *extent)) for extent in extents]
    starts = np.cumsum([0] + [m.shape[0] for m in maps])
    n = data.draw(st.integers(1, 12))
    if shared:
        c = data.draw(st.integers(1, 3))
        rows = []
        for _ in range(n):
            i = data.draw(st.integers(0, len(maps) - 1))
            rows.append([starts[i] + data.draw(st.integers(0, len(maps[i]) - 1))
                         for _ in range(c)])
        channels = np.array(rows, dtype=np.intp)
    else:
        channels = np.array(data.draw(st.lists(st.integers(0, starts[-1] - 1),
                                               min_size=n, max_size=n)), dtype=np.intp)
    xs = data.draw(st.lists(_COORDS, min_size=n, max_size=n))
    ys = data.draw(st.lists(_COORDS, min_size=n, max_size=n))
    gvals = rng.normal(size=channels.shape)
    packed = np.concatenate([a.reshape(n_rows, -1) for a in maps], axis=1)
    _, cache = ops.bilinear_gather(packed, ops.gather_layout(n_rows, extents, channels), xs, ys)
    gmaps, gxs, gys = ops.bilinear_gather_backward(cache, gvals)
    ref_maps, ref_xs, ref_ys = bilinear_backward_reference(maps, channels, xs, ys, gvals)
    want = np.concatenate([a.reshape(n_rows, -1) for a in ref_maps], axis=1)
    np.testing.assert_allclose(gmaps, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gxs, ref_xs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gys, ref_ys, rtol=0, atol=1e-12)


def test_bilinear_integer_coordinate_uses_right_cell():
    # value slope differs left/right of x=1; right-limit convention applies
    m = np.array([[0.0, 1.0, 5.0]])
    _, _, dx, _ = _sample_grad(m, 1.0, 0.0)
    assert dx == pytest.approx(4.0)  # slope of the right cell


# ---------------------------------------------------------------------------
# softmax / sigmoid


def test_softmax_symmetry():
    np.testing.assert_allclose(ops.softmax(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_hand_value():
    s = ops.softmax(np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(s, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        ops.softmax(np.array([]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8))
def test_softmax_simplex_and_shift_invariance(vals):
    v = np.array(vals)
    s = ops.softmax(v)
    assert abs(s.sum() - 1.0) < 1e-12
    assert np.all(s > 0)
    s_shift = ops.softmax(v + 3.7)
    assert np.max(np.abs(s - s_shift)) < 1e-12
    gap = np.sort(v)[-2:] if len(v) > 1 else None
    if gap is not None and gap[1] - gap[0] > 1e-6:  # argmax resolvable in float
        assert s.argmax() == v.argmax()


def test_sigmoid_extremes_stable():
    assert ops.sigmoid(np.array([800.0]))[0] == 1.0
    assert ops.sigmoid(np.array([-800.0]))[0] == 0.0
    assert ops.sigmoid(np.array([0.0]))[0] == 0.5
