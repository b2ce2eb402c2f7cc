"""Synthetic detection scenes: colored rectangles on a noisy background.

Scenes are fully determined by their seed. Class identity is color coded;
boxes are integer pixel rectangles at least 8 px per side, with limited
mutual overlap so every object stays visible.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import iou_array

__all__ = [
    "GroundTruth", "generate_scene", "check_scene_args", "check_int", "check_real", "class_color",
    "scene_seed",
]

_BASE_PALETTE = np.array(
    [
        [0.85, 0.25, 0.22],
        [0.25, 0.78, 0.30],
        [0.25, 0.38, 0.88],
        [0.85, 0.75, 0.22],
        [0.75, 0.28, 0.80],
        [0.25, 0.78, 0.78],
    ]
)

_MIN_SIDE = 10
_MAX_SIDE = 36
_MAX_PAIR_IOU = 0.25
_BG_LEVEL = 0.45
_BG_NOISE = 0.06
_FILL_NOISE = 0.03


@dataclass
class GroundTruth:
    """One image's objects: finite boxes (l, t, r, b) with r >= l and b >= t,
    shaped [M,4] (or empty), and M labels that are integer-valued numbers,
    not bools, kept as int64. Any other input raises ValueError."""

    boxes: np.ndarray   # [M,4] (l,t,r,b) floats
    labels: np.ndarray  # [M] ints in [0, classes)

    def __post_init__(self):
        try:
            b, labels = np.asarray(self.boxes, dtype=np.float64), np.asarray(self.labels).ravel()
        except (TypeError, ValueError) as e:
            raise ValueError(f"ground truth is not numeric: {e}") from None
        b = b.reshape(0, 4) if b.size == 0 else b
        if b.ndim != 2 or b.shape[1] != 4:
            raise ValueError(f"ground truth needs boxes shaped [M,4], got shape {b.shape}")
        numeric = labels.dtype.kind in "iuf" or labels.size == 0
        with np.errstate(invalid="ignore"):  # NaN, inf and floats past int64 cast to junk
            as_int = labels.astype(np.int64) if numeric else labels
        if not numeric or (as_int != labels).any():
            raise ValueError(f"ground truth needs integer labels, got {labels.tolist()}")
        if len(b) != len(labels):
            raise ValueError(f"{len(b)} boxes but {len(labels)} labels")
        if not (np.isfinite(b).all() and (b[:, 2] >= b[:, 0]).all() and (b[:, 3] >= b[:, 1]).all()):
            raise ValueError("ground-truth boxes must be finite and satisfy r >= l and b >= t")
        self.boxes, self.labels = b, as_int

    def __len__(self) -> int:
        return len(self.labels)


def class_color(label: int, classes: int) -> np.ndarray:
    """Deterministic base color per class; hue wheel past the palette."""
    if label < len(_BASE_PALETTE):
        return _BASE_PALETTE[label].copy()
    phase = 2.0 * np.pi * (label / classes)
    return 0.5 + 0.35 * np.array(
        [np.sin(phase), np.sin(phase + 2.1), np.sin(phase + 4.2)]
    )


def scene_seed(base_seed: int, stream: int, index: int) -> np.random.SeedSequence:
    """Namespaced seed for scene ``index`` of a stream (0=train, 1=holdout)."""
    return np.random.SeedSequence([base_seed, stream, index])


def check_int(what, value, least=-np.inf):
    """Raise one ValueError naming ``what`` unless ``value`` is an integer,
    not a bool, of at least ``least`` (0 for a seed: numpy seed sequences
    take no other base)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = {-np.inf: "an integer", 0: "a non-negative integer",
                1: "a positive integer"}.get(least, f"an integer of at least {least}")
        raise ValueError(f"{what} must be {kind}, got {value!r}")


def check_real(what, value, low=-np.inf, high=np.inf, ends="[]"):
    """Raise one ValueError naming ``what`` unless ``value`` is a finite real
    number, not a bool, from ``low`` to ``high``; ``ends`` marks each end
    closed or open as interval notation does (``"(]"``: above ``low``)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max  # NaN, inf, an int past float
            or not (low <= value if ends[0] == "[" else low < value)
            or not (value <= high if ends[1] == "]" else value < high)):
        kind = ("a finite number" if (low, high) == (-np.inf, np.inf) else
                "a positive finite number" if (low, high, ends[0]) == (0, np.inf, "(") else
                f"a number in {ends[0]}{low:g},{high:g}{ends[1]}")
        raise ValueError(f"{what} must be {kind}, got {value!r}")


def check_scene_args(width, height, max_objects, classes, size_range=(_MIN_SIDE, _MAX_SIDE)):
    """Raise one ValueError naming the first argument :func:`generate_scene`
    cannot draw a scene with, else return the smallest object side,
    ``max(8, size_range[0])`` px; width and height must hold it plus a 1 px
    margin on both ends."""
    lo_side = max(8, int(size_range[0]))
    if int(size_range[1]) < lo_side:
        raise ValueError(f"size_range {tuple(size_range)} allows no side of at least {lo_side} px")
    fits = f" px to hold a {lo_side} px object with a 1 px margin"
    for name, value, least, why in (("max_objects", max_objects, 1, ""), ("classes", classes, 1, ""),
                                    ("width", width, lo_side + 2, fits),
                                    ("height", height, lo_side + 2, fits)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an integer of at least {least}{why}, got {value!r}")
    return lo_side


def generate_scene(seed, width: int = 64, height: int = 64, max_objects: int = 3,
                   classes: int = 3, size_range=(_MIN_SIDE, _MAX_SIDE)):
    """Render one scene. ``seed`` is an int or a numpy SeedSequence.

    Returns ``(image [3,H,W] float64 in [0,1], GroundTruth)``; the rendered
    pixel extent of each rectangle matches its box coordinates. ``size_range``
    bounds the drawn side lengths (min 8 px); see :func:`check_scene_args`.
    """
    lo_side = check_scene_args(width, height, max_objects, classes, size_range)
    rng = np.random.default_rng(seed)
    image = _BG_LEVEL + rng.normal(0.0, _BG_NOISE, size=(3, height, width))

    hi_w = min(int(size_range[1]), width - 2)
    hi_h = min(int(size_range[1]), height - 2)
    n_target = int(rng.integers(1, max_objects + 1))
    boxes: list[np.ndarray] = []
    labels: list[int] = []
    for _ in range(n_target):
        for _try in range(40):
            bw = int(rng.integers(lo_side, hi_w + 1))
            bh = int(rng.integers(lo_side, hi_h + 1))
            l = int(rng.integers(1, width - bw))
            t = int(rng.integers(1, height - bh))
            cand = np.array([l, t, l + bw, t + bh], dtype=np.float64)
            if boxes:
                ious = iou_array(np.stack(boxes), cand[None])
                if float(ious.max()) > _MAX_PAIR_IOU:
                    continue
            boxes.append(cand)
            labels.append(int(rng.integers(0, classes)))
            break

    for box, label in zip(boxes, labels):
        l, t, r, b = (int(v) for v in box)
        color = class_color(label, classes) + rng.normal(0.0, 0.04, size=3)
        patch = color[:, None, None] + rng.normal(
            0.0, _FILL_NOISE, size=(3, b - t, r - l)
        )
        image[:, t:b, l:r] = patch

    np.clip(image, 0.0, 1.0, out=image)
    return image, GroundTruth(np.stack(boxes), np.array(labels))
