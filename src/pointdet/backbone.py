"""Tiny convolutional pyramid standing in for a backbone + FPN.

Each pyramid level is one conv-ReLU chain that continues from the previous
level's feature: level 0 is the two stride-2 stem convs that bring a
[3,H,W] image to the base stride (4), every further level is one stride-2
``down{i}`` conv. A level's feature is the end of its chain; strides double
per level and all levels share the channel count.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .layers import ConvLayer, relu_chain, relu_chain_backward

__all__ = ["Backbone", "BASE_STRIDE"]

# stride of level 0: the two stride-2 stem convs
BASE_STRIDE = 4


class Backbone:
    def __init__(self, rng, channels=32, levels=3):
        if levels < 1:
            raise ValueError(f"need at least one pyramid level, got {levels}")
        self.levels = levels
        self.strides = tuple(BASE_STRIDE << i for i in range(levels))
        self.chains = [[
            ConvLayer("backbone.stem0", 3, channels, rng, stride=2),
            ConvLayer("backbone.stem1", channels, channels, rng, stride=2),
        ]]
        for i in range(levels - 1):
            self.chains.append([ConvLayer(f"backbone.down{i}", channels, channels, rng, stride=2)])

    def parameters(self):
        return [p for chain in self.chains for layer in chain for p in layer.parameters()]

    def forward(self, image, keep_cache=True):
        """Run the pyramid. Returns ``(features, cache)`` with one [C,H/s,W/s]
        feature per level; the cache is empty without ``keep_cache``."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[0] != 3:
            raise ValueError(f"expected a [3,H,W] image, got shape {image.shape}")
        if not np.isfinite(image).all():
            raise ValueError("image contains non-finite values")
        top = self.strides[-1]
        h, w = image.shape[1:]
        if h % top or w % top:
            raise ValueError(
                f"image size {h}x{w} not divisible by the coarsest stride {top}; "
                f"pad to {-(-h // top) * top}x{-(-w // top) * top}"
            )
        x = image
        feats = []
        cache = []
        for chain in self.chains:
            x, chain_cache = relu_chain(chain, x, keep_cache=keep_cache)
            feats.append(x)
            if keep_cache:
                cache.append(chain_cache)
        return feats, cache

    def backward(self, cache, gfeats) -> None:
        """Accumulate parameter gradients given per-level feature gradients.
        The image gradient, the input of chain 0, is never computed."""
        g = gfeats[-1]
        for level in range(self.levels - 1, -1, -1):
            conv_cache, gy = relu_chain_backward(self.chains[level], cache[level], g)
            if level:
                g = gfeats[level - 1] + ops.conv2d_input_grad([conv_cache], [gy])
