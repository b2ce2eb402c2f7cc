"""Training configuration and the line-oriented ``key = value`` file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .model import ModelConfig

__all__ = ["TrainConfig", "parse_config_text", "load_config", "format_config"]


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    iters: int = 2000
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lambda1: float = 2.0
    lambda2: float = 0.5
    n_semantic: int = ModelConfig.n_semantic
    classes: int = ModelConfig.classes
    image_size: int = 64
    max_objects: int = 3
    levels: int = ModelConfig.levels
    neighbor_set: tuple = ModelConfig.neighbor_offsets
    out_dir: str = "runs/default"


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}
# a negative seed is no numpy seed, and negative iters would save an untrained model
_NON_NEGATIVE = ("seed", "iters")


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "out_dir":
        return raw
    if key == "neighbor_set":
        try:
            return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
        except ValueError:
            raise ValueError(f"config key 'neighbor_set' expects comma-separated ints, got {raw!r}")
    kind = _FIELD_TYPES[key]
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} expects a {kind}, got {raw!r}")
    if kind == "float" and not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be finite, got {raw!r}")
    if key in _NON_NEGATIVE and value < 0:
        raise ValueError(f"config key {key!r} must be non-negative, got {raw!r}")
    return value


def parse_config_text(text: str) -> TrainConfig:
    """Parse ``key = value`` lines; blank lines and ``#`` comments allowed.

    Unknown or repeated keys, values of the wrong type, non-finite floats
    and a negative ``seed`` or ``iters`` raise a ``ValueError`` that names
    the key and the line.
    """
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        if key in lines:
            raise ValueError(f"config key {key!r} on line {lineno} repeats line {lines[key]}")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as e:
            raise ValueError(f"{e} on line {lineno}") from None
        lines[key] = lineno
    return replace(TrainConfig(), **values)


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


def format_config(cfg: TrainConfig) -> str:
    if cfg.out_dir != cfg.out_dir.strip() or len(cfg.out_dir.splitlines()) > 1:
        raise ValueError(f"out_dir {cfg.out_dir!r} does not fit on one config line")
    lines = []
    for f in fields(TrainConfig):
        val = getattr(cfg, f.name)
        if f.name == "neighbor_set":
            val = ",".join(str(v) for v in val)
        lines.append(f"{f.name} = {val}")
    text = "\n".join(lines) + "\n"
    parse_config_text(text)  # refuse what would not read back
    return text
