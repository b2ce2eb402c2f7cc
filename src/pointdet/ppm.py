"""Binary PPM (P6) output plus small drawing helpers.

Heatmaps are min-max normalized into a fixed five-anchor colormap (dark blue
-> blue -> green -> yellow -> white); a constant map falls back to the
middle color. Scene renderings draw detection boxes, dynamic points, and
source-grid markers over the upscaled image.
"""

from __future__ import annotations

import numbers
import re

import numpy as np

__all__ = ["write_ppm", "read_ppm", "render_heatmap", "render_scene", "COLORMAP_ANCHORS"]

COLORMAP_ANCHORS = np.array(
    [
        [12, 16, 72],
        [38, 70, 180],
        [40, 170, 90],
        [230, 215, 70],
        [255, 255, 255],
    ],
    dtype=np.float64,
)

_FALLBACK_COLOR = np.array([40, 170, 90], dtype=np.uint8)  # middle anchor
_INVALID_COLOR = np.array([60, 60, 60], dtype=np.uint8)

BOX_COLOR = np.array([40, 230, 60], dtype=np.uint8)
BOUNDARY_COLOR = np.array([120, 255, 120], dtype=np.uint8)
SEMANTIC_COLOR = np.array([255, 160, 40], dtype=np.uint8)
GRID_COLOR = np.array([235, 40, 40], dtype=np.uint8)

# Netpbm header: magic, width, height and maxval separated by whitespace and
# "#" comments that run to the end of their line; one whitespace byte then
# starts the raster
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an [H,W,3] uint8 array as binary PPM."""
    rgb = np.ascontiguousarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected [H,W,3] pixels, got shape {rgb.shape}")
    h, w = rgb.shape[:2]
    try:
        with open(path, "wb") as f:
            f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            f.write(rgb.tobytes())
    except OSError as e:
        raise OSError(f"cannot write PPM to {path!r}: {e}") from e


def read_ppm(path) -> np.ndarray:
    """Read a binary (P6) PPM with 8-bit samples into [H,W,3] uint8."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise ValueError(f"{path!r} is not a binary PPM")
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path!r}: truncated or malformed PPM header")
    w, h, maxval = (int(v) for v in header.groups())
    if maxval != 255:
        raise ValueError(f"{path!r}: unsupported max value {maxval}")
    start = header.end()
    pixels = np.frombuffer(data[start : start + w * h * 3], dtype=np.uint8)
    if pixels.size != w * h * 3:
        raise ValueError(f"{path!r}: truncated PPM payload")
    return pixels.reshape(h, w, 3).copy()


def colorize(values: np.ndarray, valid=None) -> np.ndarray:
    """Min-max normalize a 2-d map into the colormap; [H,W,3] uint8."""
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    out = np.empty((h, w, 3), dtype=np.uint8)
    if valid is None:
        valid = np.isfinite(values)
    else:
        valid = np.asarray(valid, dtype=bool) & np.isfinite(values)
    if not valid.any():
        out[...] = _INVALID_COLOR
        return out
    vmin = values[valid].min()
    vmax = values[valid].max()
    if vmax - vmin <= 0:
        out[...] = _FALLBACK_COLOR
        out[~valid] = _INVALID_COLOR
        return out
    t = (np.where(valid, values, vmin) - vmin) / (vmax - vmin)
    pos = t * (len(COLORMAP_ANCHORS) - 1)
    lo = np.clip(np.floor(pos).astype(int), 0, len(COLORMAP_ANCHORS) - 2)
    frac = (pos - lo)[..., None]
    rgb = COLORMAP_ANCHORS[lo] * (1 - frac) + COLORMAP_ANCHORS[lo + 1] * frac
    out[...] = np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
    out[~valid] = _INVALID_COLOR
    return out


def render_heatmap(map2d, path, valid=None) -> None:
    """Write a 2-d map as a colorized PPM with matching pixel extents."""
    map2d = np.asarray(map2d, dtype=np.float64)
    if map2d.ndim != 2:
        raise ValueError(f"heatmap must be 2-d, got shape {map2d.shape}")
    write_ppm(path, colorize(map2d, valid))


def _put(canvas, y, x, color):
    h, w = canvas.shape[:2]
    if 0 <= y < h and 0 <= x < w:
        canvas[y, x] = color


def _draw_marker(canvas, x, y, color, size=1):
    cy, cx = int(round(y)), int(round(x))
    for d in range(-size, size + 1):
        _put(canvas, cy + d, cx, color)
        _put(canvas, cy, cx + d, color)


def _draw_box(canvas, l, t, r, b, color):
    h, w = canvas.shape[:2]
    l_i, t_i = int(round(l)), int(round(t))
    r_i, b_i = int(round(r)), int(round(b))
    for x in range(max(l_i, 0), min(r_i + 1, w)):
        _put(canvas, t_i, x, color)
        _put(canvas, b_i, x, color)
    for y in range(max(t_i, 0), min(b_i + 1, h)):
        _put(canvas, y, l_i, color)
        _put(canvas, y, r_i, color)


def render_scene(image, path, dets=None, points=None, grid_points=None, scale=4) -> None:
    """Render a [3,H,W] image (values in [0,1]) with overlays.

    ``dets`` draws green boxes; ``points`` holds ``(boundary [4,2], semantic
    [N,2])`` pairs of (x, y) points drawn in light green and orange;
    ``grid_points`` marks source grid centers in red. All overlay
    coordinates are image-space and get upscaled by the integer ``scale`` >= 1.
    """
    if not (isinstance(scale, numbers.Integral) and scale >= 1):
        raise ValueError(f"render scale must be a positive integer, got {scale!r}")
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a [3,H,W] image, got shape {image.shape}")
    rgb = np.clip(image * 255.0, 0, 255).astype(np.uint8).transpose(1, 2, 0)
    canvas = np.repeat(np.repeat(rgb, scale, axis=0), scale, axis=1)
    s = float(scale)
    for det in dets or []:
        b = det.box
        _draw_box(canvas, b.l * s, b.t * s, b.r * s - 1, b.b * s - 1, BOX_COLOR)
    for boundary, semantic in points or []:
        for x, y in boundary:
            _draw_marker(canvas, x * s, y * s, BOUNDARY_COLOR)
        for x, y in semantic:
            _draw_marker(canvas, x * s, y * s, SEMANTIC_COLOR)
    for x, y in grid_points or []:
        _draw_marker(canvas, x * s, y * s, GRID_COLOR, size=0)
    write_ppm(path, canvas)
