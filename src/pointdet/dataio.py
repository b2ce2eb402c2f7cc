"""Dataset directory layout produced by ``gen-data`` and consumed by
``eval``/``analyze``: exact float scenes in ``scenes.npz``, ground truths as
JSONL, and a manifest with the generation settings."""

from __future__ import annotations

import json
import numbers
import os

import numpy as np

from .inference import read_ground_truths, write_ground_truths
from .scenes import generate_scene

__all__ = ["write_dataset", "load_dataset"]

MANIFEST_NAME = "manifest.json"
SCENES_NAME = "scenes.npz"
GTS_NAME = "gts.jsonl"


def write_dataset(out_dir, seed: int, count: int, width: int = 64, height: int = 64,
                  max_objects: int = 3, classes: int = 3) -> dict:
    """Generate ``count`` >= 0 scenes (seed stream [seed, i]) into ``out_dir``."""
    if not (isinstance(count, numbers.Integral) and count >= 0):
        raise ValueError(f"scene count must be a non-negative integer, got {count!r}")
    os.makedirs(out_dir, exist_ok=True)
    images = np.empty((count, 3, height, width))
    gts = {}
    for i in range(count):
        img, gt = generate_scene(
            np.random.SeedSequence([seed, i]), width=width, height=height,
            max_objects=max_objects, classes=classes,
        )
        images[i] = img
        gts[i] = gt
    np.savez(os.path.join(out_dir, SCENES_NAME), images=images)
    write_ground_truths(os.path.join(out_dir, GTS_NAME), gts)
    manifest = {
        "seed": seed, "count": count, "width": width, "height": height,
        "max_objects": max_objects, "classes": classes,
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def load_dataset(data_dir):
    """Load a dataset directory. Returns ``(images, gts_per_image, manifest)``."""
    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    scenes_path = os.path.join(data_dir, SCENES_NAME)
    gts_path = os.path.join(data_dir, GTS_NAME)
    for path in (manifest_path, scenes_path, gts_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"dataset file missing: {path}")
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    with np.load(scenes_path) as npz:
        images = npz["images"].astype(np.float64)
    gts = read_ground_truths(gts_path)
    return images, gts, manifest
