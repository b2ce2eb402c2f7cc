"""Dense float64 kernels with explicit backward passes.

All tensors are plain numpy float64 arrays. Every differentiable operation
comes as a forward function returning ``(output, cache)`` and a matching
``*_backward`` that converts output gradients into input gradients. There is
no expression graph: callers chain backwards by hand in reverse order. The
conv backward is split by what it produces: :func:`conv2d_backward` gives
one conv's parameter gradients, and :func:`conv2d_input_grad` gives the
gradient of an input from every conv that read it, so the caller hands it
the convs of one tensor together and skips it where nothing consumes it.

Conventions:
  * bilinear sampling clamps coordinates to the map border; the coordinate
    gradient is zero in the clamped region and uses the right-limit cell at
    exact integer coordinates.
  * everything is deterministic: same inputs, bit-identical outputs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "NonFiniteError",
    "im2col",
    "conv2d",
    "conv2d_backward",
    "conv2d_input_grad",
    "relu",
    "relu_backward",
    "sigmoid",
    "sigmoid_grad",
    "softplus",
    "softmax",
    "softmax_backward",
    "gather_layout",
    "bilinear_gather",
    "bilinear_gather_backward",
]


class NonFiniteError(ValueError):
    """A kernel's guard met NaN or infinity; training counts it as divergence."""


# ---------------------------------------------------------------------------
# convolution

# patch indices kept, least recently used out first; 7 serve a model at one image size
_COL2IM_MEMO_SIZE = 128


def im2col(x, k, stride, padding):
    """Read-only patches of ``x`` [Cin,H,W]: rows are output positions
    (row-major), columns (cin, ky, kx); padding cells read the zero appended
    to the flat input. This layout is fixed: training is bit-identical only
    for ``cols @ w.T``; ``w @ cols.T`` rounds differently.

    The patches view a new buffer; they live as long as a conv cache holds
    them, and :meth:`DetectionModel.backward` empties a training state's
    caches, so training holds one step's patches, not two."""
    # the memoized index is in range, and mode="clip" skips the bounds check
    cols = np.append(x, 0.0).take(_col2im_indices(x.shape, k, stride, padding), mode="clip")
    cols.flags.writeable = False
    return cols.reshape(-1, x.shape[0] * k * k)


def conv2d(x, w, b=None, stride=1, padding=0, cols=None):
    """Cross-correlate ``x`` [Cin,H,W] with ``w`` [Cout,Cin,k,k] plus bias.

    Returns ``(y, cache)`` with ``y`` of shape [Cout,H',W'],
    H' = (H + 2*padding - k)//stride + 1. ``cols`` may pass in
    ``im2col(x, k, stride, padding)`` built once for several convs of x.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"conv2d input must be 3-d [C,H,W], got shape {x.shape}")
    if w.ndim != 4:
        raise ValueError(f"conv2d weights must be 4-d [Cout,Cin,k,k], got shape {w.shape}")
    cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if kh != kw:
        raise ValueError(f"kernel must be square, got {kh}x{kw}")
    if kh % 2 != 1:
        raise ValueError(f"kernel size must be odd, got {kh}")
    if cin_w != cin:
        raise ValueError(f"input channel mismatch: input has {cin} channels, "
                         f"weights expect {cin_w}")
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    ho, wo = ((n + 2 * padding - kh) // stride + 1 for n in (h, wd))
    if ho < 1 or wo < 1:
        raise ValueError(f"output would be empty: input {h}x{wd}, kernel {kh}, padding {padding}")
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (cout,):
            raise ValueError(f"bias shape {b.shape} does not match {cout} output channels")

    if cols is None:
        cols = im2col(x, kh, stride, padding)
    elif cols.shape != (ho * wo, cin * kh * kw):
        raise ValueError(f"cols shape {cols.shape} does not fit; want {(ho * wo, cin * kh * kw)}")
    y = cols @ w.reshape(cout, -1).T
    if b is not None:
        y += b
    y = np.ascontiguousarray(y.T.reshape(cout, ho, wo))
    cache = (cols, x.shape, w, stride, padding, b is not None)
    return y, cache


@lru_cache(maxsize=_COL2IM_MEMO_SIZE)
def _col2im_indices(xshape, k, stride, padding):
    """Patch indices into ``x.ravel()`` plus one trailing zero, for the
    im2col gather and the col2im bincount: a cell inside the image names its
    flat index in ``x``, a padding cell ``x.size``. Writeable, as ``np.take``
    runs slower on a large read-only index."""
    cin, h, wd = xshape
    # the input rows [H',k] and columns [W',k] that each output position reads
    r, c = (np.arange((n + 2 * padding - k) // stride + 1)[:, None] * stride
            + np.arange(k) - padding for n in (h, wd))
    # [H',W',Cin,k,k], built in place: no other array is near its size
    idx = np.empty((len(r), len(c), cin, k, k), dtype=np.intp)
    np.add((r * wd)[:, None, None, :, None] + (np.arange(cin) * (h * wd))[:, None, None],
           c[:, None, None, :], out=idx)
    np.copyto(idx, cin * h * wd, where=((r < 0) | (r >= h))[:, None, None, :, None]
              | ((c < 0) | (c >= wd))[:, None, None, :])
    return idx.ravel()


def conv2d_backward(cache, gy):
    """Parameter gradients of conv2d: ``(gw, gb)``; ``gb`` is None if no bias."""
    cols, _, w, _, _, has_bias = cache
    gy = np.asarray(gy, dtype=np.float64)
    gw = (gy.reshape(w.shape[0], -1) @ cols).reshape(w.shape)
    gb = gy.sum(axis=(1, 2)) if has_bias else None
    return gw, gb


def conv2d_input_grad(caches, gys):
    """Gradient of the one input ``x`` that every conv of ``caches`` read,
    given their output gradients ``gys``: the sum of each conv's ``gx``.

    The convs, of one geometry (kernel, stride, padding; else ValueError),
    stack output gradients and weights into one patch gradient, scattered by
    one ``bincount`` through :func:`im2col`'s index; the padding cells' bin,
    the last, is dropped. A lone conv gets the bits of its own backward.
    """
    _, xshape, w, stride, padding, _ = caches[0]
    key = (xshape, w.shape[2], stride, padding)  # of the patch index all readers share
    gyfs, ws = [], []
    for (_, xshape, w, stride, padding, _), gy in zip(caches, gys, strict=True):
        if (xshape, w.shape[2], stride, padding) != key:
            raise ValueError(f"convs read inputs of shapes {key[0]} and {xshape} with (kernel, "
                             f"stride, padding) {key[1:]} and {(w.shape[2], stride, padding)}")
        gyfs.append(np.asarray(gy, dtype=np.float64).reshape(len(w), -1))
        ws.append(w.reshape(len(w), -1))
    # a lone conv's rows are used in place, without a copy
    gyf, wf = (r[0] if len(r) == 1 else np.concatenate(r) for r in (gyfs, ws))
    gx = np.bincount(_col2im_indices(*key), weights=(gyf.T @ wf).ravel(),
                     minlength=math.prod(key[0]) + 1)
    return gx[:-1].reshape(key[0])


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(x):
    x = np.asarray(x, dtype=np.float64)
    mask = x > 0.0
    return x * mask, mask


def relu_backward(mask, gy):
    return gy * mask


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_grad(s):
    """Derivative of sigmoid given its output ``s``."""
    return s * (1.0 - s)


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def softmax(v, axis=-1, where=True):
    """Shift-invariant softmax along ``axis``; entries positive, summing to 1.
    Entries where ``where`` is false get weight 0 (each row needs one that is not)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("softmax input contains non-finite values")
    shifted = v - v.max(axis=axis, keepdims=True, where=where, initial=-np.inf)
    e = np.exp(np.where(where, shifted, -np.inf))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(s, gs, axis=-1):
    """Backward of softmax: ``gv = s * (gs - sum(gs * s))``."""
    inner = (gs * s).sum(axis=axis, keepdims=True)
    return s * (gs - inner)


# ---------------------------------------------------------------------------
# bilinear sampling


def gather_layout(rows, extents, channels):
    """Everything :func:`bilinear_gather` needs besides the points, built
    once for a [rows,G] array holding levels of ``extents`` ((H_i, W_i) pairs)
    side by side, channel ``i*rows + m`` being row m in level i's columns,
    and ``channels`` ([S], or [S,C] for C channels of one level sharing each
    point's cells): corner offsets, widths, and per axis of extent e the
    clamp bounds e-1.0, e-2.0 and e>1."""
    ch = np.asarray(channels, dtype=np.intp)
    # [C,S] in memory too, so elementwise loops run along the points
    level, row = np.divmod(np.ascontiguousarray((ch[:, None] if ch.ndim == 1 else ch).T), rows)
    wh = np.asarray(extents)[:, ::-1].T  # [2,L] width, height per level
    ends = np.cumsum(wh[0] * wh[1])
    ext = np.take(wh, level[0], axis=1)  # [2,S]
    # [4,C,S] flat offsets of corners 00, 01, 10, 11; an extent-1 axis reads one cell twice
    dx, dy = (ext[0] > 1).astype(np.intp), (ext[1] > 1) * ext[0]
    first = row * ends[-1] + (ends - wh[0] * wh[1])[level]  # [C,S] channel's cell 0
    base = np.stack([0 * dx, dx, dy, dy + dx])[:, None] + first
    return (rows, int(ends[-1])), ch.shape, base, ext[0], ext - 1.0, ext - 2.0, ext > 1


def bilinear_gather(maps, layout, xs, ys):
    """Sample channels of ``maps`` bilinearly at grid coords ``(xs, ys)``.

    ``maps`` is one [M,G] array of levels side by side, and ``layout`` is
    :func:`gather_layout` of its rows, extents and the channels to sample;
    ``xs`` and ``ys`` hold its S points, clamped to the border of the level
    read. Returns ``(values shaped like channels, cache)``; ``maps`` of
    another shape than the layout's raises ValueError.
    """
    shape, out_shape, base, width, hi, last, wide = layout
    maps = np.asarray(maps, dtype=np.float64)
    if maps.shape != shape:
        raise ValueError(f"maps of shape {maps.shape} do not fit a gather layout built "
                         f"for shape {shape}")
    pts = np.stack([np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)])
    if not np.isfinite(pts).all():
        raise NonFiniteError("non-finite sample coordinates")
    # clamped cell, fraction and interior mask per axis; an axis of extent 1
    # gives cell 0, fraction 0 and no interior
    c = np.clip(pts, 0.0, hi)
    cell = np.maximum(np.minimum(np.floor(c), last), 0.0)
    frac = np.where(wide, c - cell, 0.0)
    inside = (pts >= 0.0) & (pts < hi)
    x, y = cell.astype(np.intp)
    # flat indices of the corners 00, 01, 10, 11 of every channel: [4,C,S]
    idx = base + (y * width + x)
    corners = np.take(maps, idx)
    (fx, fy), (v00, v01, v10, v11) = frac, corners
    # convex form is exact at cell corners (fx, fy in {0, 1})
    top = (1.0 - fx) * v00 + fx * v01
    bot = (1.0 - fx) * v10 + fx * v11
    vals = (1.0 - fy) * top + fy * bot
    cache = (shape, idx, frac, inside, corners)
    return vals.T.reshape(out_shape), cache


def bilinear_gather_backward(cache, gvals):
    """Backward of :func:`bilinear_gather`: ``(gmaps, gxs, gys)`` with
    ``gmaps`` shaped like the maps.

    The map gradient is one ``np.bincount`` over the corner-major index, so
    every cell adds its contributions in (corner, channel, point) order.
    """
    shape, idx, (fx, fy), (inx, iny), (v00, v01, v10, v11) = cache
    gv = np.ascontiguousarray(np.asarray(gvals, dtype=np.float64).reshape(idx.shape[:0:-1]).T)
    corner = np.stack([(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy), (1.0 - fx) * fy, fx * fy])
    gmaps = np.bincount(idx.ravel(), weights=(corner[:, None] * gv).ravel(),
                        minlength=shape[0] * shape[1]).reshape(shape)
    dfx = (1.0 - fy) * (v01 - v00) + fy * (v11 - v10)
    dfy = (1.0 - fx) * (v10 - v00) + fx * (v11 - v01)
    # a point's channels add up one after another, as the [C,S] rows sum
    gxs = (gv * dfx * inx).sum(axis=0)
    gys = (gv * dfy * iny).sum(axis=0)
    return gmaps, gxs, gys
