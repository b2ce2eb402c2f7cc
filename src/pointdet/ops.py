"""Dense float64 kernels with explicit backward passes.

All tensors are plain numpy float64 arrays. Every differentiable operation
comes as a forward function returning ``(output, cache)`` and a matching
``*_backward`` that converts output gradients into input gradients. There is
no expression graph: callers chain backwards by hand in reverse order.

Conventions:
  * bilinear sampling clamps coordinates to the map border; the coordinate
    gradient is zero in the clamped region and uses the right-limit cell at
    exact integer coordinates.
  * everything is deterministic: same inputs, bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv2d",
    "conv2d_backward",
    "relu",
    "relu_backward",
    "sigmoid",
    "sigmoid_grad",
    "softplus",
    "softmax",
    "softmax_backward",
    "bilinear_gather",
    "bilinear_gather_backward",
]


# ---------------------------------------------------------------------------
# convolution

# col2im scatter indices, keyed by (input shape, kernel, stride, padding)
_COL2IM_CACHE: dict[tuple, np.ndarray] = {}


def conv2d(x, w, b=None, stride=1, padding=0):
    """Cross-correlate ``x`` [Cin,H,W] with ``w`` [Cout,Cin,k,k] plus bias.

    Returns ``(y, cache)`` with ``y`` of shape [Cout,H',W'],
    H' = (H + 2*padding - k)//stride + 1.
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
        raise ValueError(
            f"input channel mismatch: input has {cin} channels, weights expect {cin_w}"
        )
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(
            f"output would be empty: input {h}x{wd}, kernel {kh}, padding {padding}"
        )
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (cout,):
            raise ValueError(f"bias shape {b.shape} does not match {cout} output channels")

    # im2col rows are output positions (row-major), columns (cin, ky, kx). This
    # layout is fixed: training is bit-identical only for this GEMM, cols @ w.T;
    # w @ cols.T rounds differently at some shapes. Built from one zero-framed
    # channels-last copy of x and k*k strided slices of it.
    xp = np.zeros((h + 2 * padding, wd + 2 * padding, cin))
    xp[padding : padding + h, padding : padding + wd] = x.transpose(1, 2, 0)
    cols = np.empty((ho, wo, cin, kh, kw))
    for u in range(kh):
        for v in range(kw):
            cols[..., u, v] = xp[u : u + stride * ho : stride, v : v + stride * wo : stride]
    cols = cols.reshape(ho * wo, cin * kh * kw)
    y = cols @ w.reshape(cout, -1).T
    if b is not None:
        y += b
    y = np.ascontiguousarray(y.T.reshape(cout, ho, wo))
    cache = (cols, x.shape, w, stride, padding, ho, wo, b is not None)
    return y, cache


def _col2im_indices(xshape, k, stride, padding, ho, wo):
    key = (xshape, k, stride, padding)
    idx = _COL2IM_CACHE.get(key)
    if idx is None:
        cin, h, wd = xshape
        hp, wp = h + 2 * padding, wd + 2 * padding
        rows = np.arange(ho * wo)
        oy, ox = np.divmod(rows, wo)
        row_base = (oy * stride) * wp + (ox * stride)
        cols = np.arange(cin * k * k)
        ci, rem = np.divmod(cols, k * k)
        u, v = np.divmod(rem, k)
        col_base = ci * (hp * wp) + u * wp + v
        idx = (row_base[:, None] + col_base[None, :]).ravel()
        _COL2IM_CACHE[key] = idx
    return idx


def conv2d_backward(cache, gy):
    """Gradients of conv2d. Returns ``(gx, gw, gb)``; ``gb`` is None if no bias."""
    cols, xshape, w, stride, padding, ho, wo, has_bias = cache
    cout = w.shape[0]
    k = w.shape[2]
    gy = np.asarray(gy, dtype=np.float64)
    gyf = gy.reshape(cout, ho * wo).T
    gw = (gyf.T @ cols).reshape(w.shape)
    gb = gy.sum(axis=(1, 2)) if has_bias else None
    gcols = gyf @ w.reshape(cout, -1)
    cin, h, wd = xshape
    hp, wp = h + 2 * padding, wd + 2 * padding
    idx = _col2im_indices(xshape, k, stride, padding, ho, wo)
    gxp = np.bincount(idx, weights=gcols.ravel(), minlength=cin * hp * wp)
    gxp = gxp.reshape(cin, hp, wp)
    gx = gxp[:, padding : padding + h, padding : padding + wd]
    return np.ascontiguousarray(gx), gw, gb


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


def softmax(v, axis=-1):
    """Shift-invariant softmax along ``axis``; entries positive, summing to 1."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax input contains non-finite values")
    e = np.exp(v - v.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(s, gs, axis=-1):
    """Backward of softmax: ``gv = s * (gs - sum(gs * s))``."""
    inner = (gs * s).sum(axis=axis, keepdims=True)
    return s * (gs - inner)


# ---------------------------------------------------------------------------
# bilinear sampling


def _axis_cells(coords, extent):
    """Clamped cell index, fraction, and interior mask for one axis."""
    c = np.clip(coords, 0.0, extent - 1.0)
    if extent == 1:
        i0 = np.zeros(c.shape, dtype=np.intp)
        frac = np.zeros_like(c)
        interior = np.zeros(c.shape, dtype=bool)
    else:
        i0 = np.minimum(np.floor(c), extent - 2).astype(np.intp)
        frac = c - i0
        interior = (coords >= 0.0) & (coords < extent - 1.0)
    return i0, frac, interior


def bilinear_gather(maps, channels, xs, ys):
    """Sample ``maps[channels[k]]`` bilinearly at grid coords ``(xs[k], ys[k])``.

    ``maps`` is [M,H,W]; ``channels``, ``xs``, ``ys`` are flat arrays of equal
    length. Coordinates outside [0,W-1]x[0,H-1] are clamped to the border.
    Returns ``(values, cache)``.
    """
    maps = np.asarray(maps, dtype=np.float64)
    m, h, w = maps.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("non-finite sample coordinates")
    ch = np.asarray(channels, dtype=np.intp)
    x0, fx, inx = _axis_cells(xs, w)
    y0, fy, iny = _axis_cells(ys, h)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    v00 = maps[ch, y0, x0]
    v01 = maps[ch, y0, x1]
    v10 = maps[ch, y1, x0]
    v11 = maps[ch, y1, x1]
    # convex form is exact at cell corners (fx, fy in {0, 1})
    top = (1.0 - fx) * v00 + fx * v01
    bot = (1.0 - fx) * v10 + fx * v11
    vals = (1.0 - fy) * top + fy * bot
    cache = (maps.shape, ch, x0, x1, y0, y1, fx, fy, inx, iny, v00, v01, v10, v11)
    return vals, cache


def bilinear_gather_backward(cache, gvals, gmaps=None):
    """Backward of :func:`bilinear_gather`.

    Accumulates map gradients into ``gmaps`` (allocated if None) and returns
    ``(gmaps, gxs, gys)``.
    """
    shape, ch, x0, x1, y0, y1, fx, fy, inx, iny, v00, v01, v10, v11 = cache
    if gmaps is None:
        gmaps = np.zeros(shape, dtype=np.float64)
    gvals = np.asarray(gvals, dtype=np.float64)
    w00 = (1.0 - fx) * (1.0 - fy) * gvals
    w01 = fx * (1.0 - fy) * gvals
    w10 = (1.0 - fx) * fy * gvals
    w11 = fx * fy * gvals
    np.add.at(gmaps, (ch, y0, x0), w00)
    np.add.at(gmaps, (ch, y0, x1), w01)
    np.add.at(gmaps, (ch, y1, x0), w10)
    np.add.at(gmaps, (ch, y1, x1), w11)
    dfx = (1.0 - fy) * (v01 - v00) + fy * (v11 - v10)
    dfy = (1.0 - fx) * (v10 - v00) + fx * (v11 - v01)
    gxs = gvals * dfx * inx
    gys = gvals * dfy * iny
    return gmaps, gxs, gys

