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
import os
import struct

import numpy as np

from .data_io import atomic_write

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


def _read(fh, size: int, path, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise CheckpointError(f"{path}: truncated {what}")
    return data


def load_named(path) -> dict:
    """Read a container; any short, malformed or inconsistent field raises
    CheckpointError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, count = struct.unpack("<II", _read(fh, 8, path, "header"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        items = {}
        for _ in range(count):
            nlen, = struct.unpack("<H", _read(fh, 2, path, "tensor name length"))
            raw = _read(fh, nlen, path, "tensor name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: tensor name {raw!r} is not UTF-8") from None
            rank, = struct.unpack("<B", _read(fh, 1, path, f"rank of tensor {name!r}"))
            shape = struct.unpack(f"<{rank}q",
                                  _read(fh, 8 * rank, path, f"extents of tensor {name!r}"))
            if any(d < 0 for d in shape):
                raise CheckpointError(f"{path}: negative extent in shape {shape} "
                                      f"of tensor {name!r}")
            nbytes = 8 * math.prod(shape)
            if nbytes > size - fh.tell():
                raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
            payload = _read(fh, nbytes, path, f"payload for tensor {name!r}")
            try:
                items[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            except ValueError:      # an empty shape whose other extents numpy cannot index
                raise CheckpointError(f"{path}: shape {shape} of tensor {name!r} is "
                                      "too large for an array") from None
        return items
