"""Versioned binary container for named tensors, stored as float64.

Layout (all little-endian): 4-byte magic ``FVOS``, uint32 format version,
uint32 tensor count; then per tensor a uint16 name length, the UTF-8 name,
a uint8 rank, int64 extents, and the row-major float64 (``<f8``) payload.
Saving widens any float dtype to float64 exactly; ``load_named`` returns
float64 arrays, which ``Model.load`` rounds to the working dtype
(``autodiff.DTYPE``, float32), so a float32 model survives the round trip
bit for bit.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .data_io import atomic_write, read_exact

MAGIC = b"FVOS"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_named(path, items: dict) -> None:
    """Write a container atomically (``data_io.atomic_write``): a failed save
    leaves any previous file at ``path`` intact."""
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(items)))
        for name, arr in items.items():
            a = np.ascontiguousarray(arr, dtype="<f8")
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", a.ndim))
            for d in a.shape:
                fh.write(struct.pack("<q", d))
            fh.write(a.tobytes())


def load_named(path) -> dict:
    """Read a container; any short, malformed or inconsistent field raises
    CheckpointError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")

        def read(size: int, what: str) -> bytes:
            return read_exact(fh, size, path, what, CheckpointError)

        version, count = struct.unpack("<II", read(8, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        items = {}
        for _ in range(count):
            nlen, = struct.unpack("<H", read(2, "tensor name length"))
            raw = read(nlen, "tensor name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor name {raw!r} is not UTF-8") from None
            rank, = struct.unpack("<B", read(1, f"rank of tensor {name!r}"))
            shape = struct.unpack(f"<{rank}q",
                                  read(8 * rank, f"extents of tensor {name!r}"))
            if any(d < 0 for d in shape):
                raise CheckpointError(f"{path}: negative extent in shape {shape} "
                                      f"of tensor {name!r}")
            payload = read(8 * math.prod(shape), f"payload for tensor {name!r}")
            try:
                items[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            except ValueError:      # an empty shape whose other extents numpy cannot index
                raise CheckpointError(f"{path}: shape {shape} of tensor {name!r} is "
                                      "too large for an array") from None
        return items
