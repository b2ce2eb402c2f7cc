"""Binary checkpoint format.

Layout: magic bytes ``PDN1`` followed by repeated records, each
``[name-length u32 LE, UTF-8 name, rank u32 LE, one u32 LE extent per axis,
payload of little-endian float64]``. Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"PDN1"

__all__ = ["MAGIC", "save_checkpoint", "load_checkpoint", "CheckpointError"]


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays) -> None:
    """Write named float64 arrays in iteration order.

    ``arrays`` is a dict or an iterable of ``(name, array)`` pairs.
    """
    items = arrays.items() if hasattr(arrays, "items") else arrays
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in items:
            a = np.asarray(arr, dtype="<f8")  # keeps rank 0; tobytes is C order
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", a.ndim))
            if a.ndim:
                f.write(struct.pack(f"<{a.ndim}I", *a.shape))
            f.write(a.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an ordered name -> float64 array dict."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic in {path!r}: {data[:4]!r}")
    out: dict[str, np.ndarray] = {}
    pos = 4
    n = len(data)

    def take(count, what):
        nonlocal pos
        if pos + count > n:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        chunk = data[pos : pos + count]
        pos += count
        return chunk

    while pos < n:
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name_at = pos
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"record name at byte {name_at} is not UTF-8: {e}") from e
        if name in out:
            raise CheckpointError(f"repeated record name {name!r} at byte {name_at}")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "extents")) if rank else ()
        count = math.prod(shape)  # Python ints: extents cannot overflow
        payload = take(8 * count, f"payload of {name!r}")
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        out[name] = arr
    return out
