"""Full detection model: backbone pyramid + decoupled head + collection.

The model owns all parameters, runs the fixed forward pipeline, and
backpropagates hand-written gradients. ``mode`` selects how predictions are
collected:

  * ``decoupled``  - dynamic boundary points + semantic points (the default)
  * ``coupled``    - both targets read at the grid location itself, N=1,
                     single-level collection (the forced baseline)
  * ``loc-only``   - only localization decoupled
  * ``cls-only``   - only classification decoupled
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .backbone import BASE_STRIDE, Backbone
from .checkpoint import load_checkpoint, save_checkpoint
from .head import (Collection, Head, Maps, collect_level, collect_level_backward,
                   semantic_prior_fractions)
from .optim import ParamSet
from .scenes import check_int

MODES = ("decoupled", "coupled", "loc-only", "cls-only")

__all__ = ["ModelConfig", "DetectionModel", "ModelState", "MODES"]


@dataclass(frozen=True)
class ModelConfig:
    classes: int = 3
    n_semantic: int = 9
    channels: int = 32
    levels: int = 3
    neighbor_offsets: tuple = (-1, 0)
    mode: str = "decoupled"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        for name in ("classes", "n_semantic", "channels", "levels"):
            check_int(f"model config {name!r}", getattr(self, name), 1)
        semantic_prior_fractions(self.n_semantic)  # raises unless a perfect square
        offs = self.neighbor_offsets
        if not isinstance(offs, (tuple, list)) or not all(
            isinstance(o, numbers.Integral) and not isinstance(o, bool) for o in offs
        ):
            raise ValueError(f"model config 'neighbor_offsets' must be a sequence of integers, "
                             f"got {offs!r}")
        offs = tuple(sorted(set(int(o) for o in offs)))
        if not offs:
            raise ValueError("neighbor offset set must not be empty")
        object.__setattr__(self, "neighbor_offsets", offs)

    @property
    def loc_decoupled(self) -> bool:
        return self.mode in ("decoupled", "loc-only")

    @property
    def cls_decoupled(self) -> bool:
        return self.mode in ("decoupled", "cls-only")

    @property
    def n_points(self) -> int:
        return self.n_semantic if self.cls_decoupled else 1

    @property
    def offsets(self) -> tuple:
        return self.neighbor_offsets if self.loc_decoupled else (0,)

    @property
    def has_lvlw(self) -> bool:
        return self.loc_decoupled and len(self.offsets) > 1

    @property
    def strides(self) -> tuple:
        return tuple(BASE_STRIDE << i for i in range(self.levels))


@dataclass
class ModelState:
    """Forward pass artifacts: dense maps over the grid index and their collection."""

    maps: Maps
    collection: Collection
    _bcache: list = field(repr=False, default_factory=list)
    _hcache: list = field(repr=False, default_factory=list)


_MODE_IDS = {m: i for i, m in enumerate(MODES)}
_INT_MAX = 2**31 - 1
# checkpoint metadata records in file order, and the closed range of their values
_META_RANGES = {
    "meta.format_version": (1, 1),
    "meta.mode": (0, len(MODES) - 1),
    "meta.classes": (1, _INT_MAX),
    "meta.n_semantic": (1, _INT_MAX),
    "meta.channels": (1, _INT_MAX),
    "meta.levels": (1, _INT_MAX),
    "meta.base_stride": (BASE_STRIDE, BASE_STRIDE),
    "meta.neighbor_offsets": (-_INT_MAX, _INT_MAX),
}


def _read_meta(arrays, path) -> dict:
    """Validated metadata by field name: an integer, a tuple for the offsets."""
    meta = {}
    for name, (lo, hi) in _META_RANGES.items():
        if name not in arrays:
            raise ValueError(f"checkpoint {path!r} is missing metadata record {name!r}")
        vals = arrays[name].ravel().tolist()
        single = name != "meta.neighbor_offsets"
        if (single and len(vals) != 1) or not all(
            v.is_integer() and lo <= v <= hi for v in vals
        ):
            what = "one integer" if single else "integers"
            raise ValueError(
                f"checkpoint {path!r}: metadata record {name!r} must hold {what} "
                f"in [{lo}, {hi}], got {vals}"
            )
        meta[name[len("meta."):]] = int(vals[0]) if single else tuple(int(v) for v in vals)
    return meta


class DetectionModel:
    def __init__(self, config: ModelConfig, seed: int = 0):
        check_int("seed", seed, 0)
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([17, seed]))
        self.backbone = Backbone(rng, config.channels, config.levels)
        self.head = Head(config, rng)
        self._params = ParamSet(self.backbone.parameters() + self.head.parameters())

    def parameters(self) -> ParamSet:
        return self._params

    # ------------------------------------------------------------------
    def forward(self, image, keep_cache=True) -> ModelState:
        """Maps and collection of one [3,H,W] image. Without ``keep_cache`` the
        conv caches and ReLU masks that only :meth:`backward` reads are freed
        once the forward is done with them: inference passes it off."""
        feats, bcache = self.backbone.forward(image, keep_cache)
        maps, hcache = self.head.forward(feats, self.backbone.strides, keep_cache)
        return ModelState(maps=maps, collection=collect_level(maps, self.config),
                          _bcache=bcache, _hcache=hcache)

    def backward(self, state: ModelState, gz, gboxes, gcoarse) -> None:
        """Accumulate parameter gradients.

        The arguments are the loss gradients over the grid index of
        :mod:`pointdet.training` (every level's grids concatenated in
        collection order, each row-major): ``gz`` [C,G] with respect to the
        summed logits, ``gboxes`` [G,4] to the collected boxes and
        ``gcoarse`` [G,4] to the coarse boxes, turned into one :class:`Maps`
        of map gradients. ``state`` must come from a forward that kept its caches.
        Backward consumes it: it empties the conv caches, so their patches are
        freed before the next forward builds its own.
        """
        if not (state._bcache and state._hcache):
            raise ValueError("backward needs the conv caches, but the state kept no caches: its "
                             "forward ran with keep_cache=False, or a backward consumed it")
        gmaps = collect_level_backward(state.maps, state.collection, self.config, gz, gboxes,
                                       gcoarse)
        gfeats = self.head.backward(state._hcache, gmaps)
        self.backbone.backward(state._bcache, gfeats)
        state._bcache.clear()
        state._hcache.clear()

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        cfg = self.config
        values = dict(vars(cfg), format_version=1, mode=_MODE_IDS[cfg.mode],
                      base_stride=BASE_STRIDE)
        records = [(name, np.array(values[name[len("meta."):]], dtype=np.float64).reshape(-1))
                   for name in _META_RANGES]
        records.extend((p.name, p.value) for p in self.parameters())
        save_checkpoint(path, records)

    @classmethod
    def load(cls, path) -> "DetectionModel":
        arrays = load_checkpoint(path)
        meta = _read_meta(arrays, path)
        # their ranges admit only the current version and the fixed stride
        del meta["format_version"], meta["base_stride"]
        model = cls(ModelConfig(**dict(meta, mode=MODES[meta["mode"]])), seed=0)
        params = {p.name for p in model.parameters()}
        for name in arrays:
            if name not in _META_RANGES and name not in params:
                raise ValueError(f"checkpoint {path!r} holds unknown record {name!r}")
        for p in model.parameters():
            if p.name not in arrays:
                raise ValueError(f"checkpoint {path!r} is missing parameter {p.name!r}")
            stored = arrays[p.name]
            if stored.shape != p.value.shape:
                raise ValueError(
                    f"checkpoint parameter {p.name!r} has shape {stored.shape}, "
                    f"model expects {p.value.shape}"
                )
            if not np.isfinite(stored).all():
                raise ValueError(f"checkpoint {path!r}: parameter {p.name!r} holds NaN or infinity")
            p.value[...] = stored
        return model
