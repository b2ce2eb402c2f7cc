"""Dataset directory layout produced by ``gen-data`` and consumed by
``eval``/``analyze``: exact float scenes in ``scenes.npz``, ground truths as
JSONL, and a manifest with the generation settings."""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from .inference import read_ground_truths, write_ground_truths
from .scenes import check_int, check_scene_args, generate_scene

__all__ = ["write_dataset", "load_dataset", "write_json"]

MANIFEST_NAME = "manifest.json"
SCENES_NAME = "scenes.npz"
GTS_NAME = "gts.jsonl"


def write_dataset(out_dir, seed: int, count: int, width: int = 64, height: int = 64,
                  max_objects: int = 3, classes: int = 3) -> dict:
    """Generate ``count`` >= 0 scenes (seed stream [seed, i]) into ``out_dir``."""
    check_int("scene count", count, 0)
    check_int("seed", seed, 0)
    check_scene_args(width, height, max_objects, classes)
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
    write_json(os.path.join(out_dir, MANIFEST_NAME), manifest)
    return manifest


def write_json(path, obj) -> None:
    """Write ``obj`` to ``path`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_dataset(data_dir):
    """Load a dataset directory. Returns ``(images, gts_per_image, manifest)``.
    A file that is malformed or disagrees with the manifest raises one
    ValueError naming it."""
    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    scenes_path = os.path.join(data_dir, SCENES_NAME)
    gts_path = os.path.join(data_dir, GTS_NAME)
    for path in (manifest_path, scenes_path, gts_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"dataset file missing: {path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        count, height, width = (manifest[key] for key in ("count", "height", "width"))
        if not all(type(n) is int and n >= 0 for n in (count, height, width)):
            raise ValueError(f"count, height, width {count}, {height}, {width} are not ints >= 0")
    except (ValueError, TypeError, KeyError) as e:
        raise ValueError(
            f"manifest {manifest_path!r} is malformed: {type(e).__name__}: {e}") from None
    shape = (count, 3, height, width)
    try:
        with np.load(scenes_path) as npz:
            images = npz["images"].astype(np.float64)
    except (OSError, EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as e:
        raise ValueError(f"{scenes_path!r} holds no readable 'images' array: "
                         f"{type(e).__name__}: {e}") from None
    if images.shape != shape:
        raise ValueError(f"{scenes_path!r} holds images of shape {images.shape}, "
                         f"but its manifest gives {shape}")
    gts = read_ground_truths(gts_path)
    for image_id in gts:
        if not 0 <= image_id < count:
            raise ValueError(f"{gts_path!r} names image_id {image_id} outside [0, {count})")
    return images, gts, manifest
