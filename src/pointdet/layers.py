"""Thin layer wrappers tying kernels to named parameters."""

from __future__ import annotations

import numpy as np

from . import ops
from .optim import Parameter

__all__ = ["ConvLayer", "relu_chain", "relu_chain_backward"]


class ConvLayer:
    """3x3 convolution with padding 1 and bias.

    ``forward`` returns ``(y, cache)``; ``backward`` accumulates weight/bias
    gradients into the layer's parameters. The input gradient is left to the
    caller, which passes the caches of every conv that read one tensor to
    :func:`ops.conv2d_input_grad` together.
    A layer may be applied several times per forward pass (shared across
    pyramid levels), so caches live with the caller. ``cols`` may pass in
    the input's patches from :func:`ops.im2col`, built once for several layers.
    """

    def __init__(self, name, cin, cout, rng, stride=1, weight_scale=None, bias_fill=0.0):
        if weight_scale is None:
            weight_scale = np.sqrt(2.0 / (cin * 9))
        w = rng.normal(0.0, weight_scale, size=(cout, cin, 3, 3))
        b = np.broadcast_to(np.asarray(bias_fill, dtype=np.float64), (cout,)).copy()
        self.w = Parameter(f"{name}.w", w)
        self.b = Parameter(f"{name}.b", b)
        self.stride = stride

    def forward(self, x, cols=None):
        return ops.conv2d(x, self.w.value, self.b.value, self.stride, 1, cols=cols)

    def backward(self, cache, gy) -> None:
        gw, gb = ops.conv2d_backward(cache, gy)
        self.w.grad += gw
        self.b.grad += gb

    def parameters(self):
        return [self.w, self.b]


def relu_chain(layers, x, cols=None, keep_cache=True):
    """Apply each layer then a ReLU, in order; ``cols`` are the first layer's
    patches of ``x``, if built already. Returns ``(out, caches)``, the caches
    empty without ``keep_cache``; each ReLU masks its conv's output in place."""
    caches = []
    for layer in layers:
        x, conv_cache = layer.forward(x, cols)
        cols = None
        mask = x > 0.0
        x *= mask
        if keep_cache:
            caches.append((conv_cache, mask))
    return x, caches


def relu_chain_backward(layers, caches, g):
    """Reverse :func:`relu_chain` up to its first conv, whose ``(cache, gy)``
    it returns: the caller merges that conv with the other readers of the
    chain's input, or skips the input gradient."""
    for i in range(len(layers) - 1, -1, -1):
        conv_cache, mask = caches[i]
        gy = g * mask
        layers[i].backward(conv_cache, gy)
        if i == 0:
            return conv_cache, gy
        g = ops.conv2d_input_grad([conv_cache], [gy])
