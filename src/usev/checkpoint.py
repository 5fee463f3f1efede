"""Flat binary checkpoints: named tensors plus a JSON metadata header.

Layout (little-endian): magic, format version, metadata JSON (carries the
model config so training from an `init_checkpoint` can shape-check against
it before loading), then per tensor: name, dtype code, shape,
payload. Every payload is float64, dtype code 1; the reader rejects any
other code, including the float32 code 0 of older writers.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .audio_io import expect_end, read_exact

_MAGIC = b"USEVCKPT"
_VERSION = 1
_F64_CODE = 1


def save_checkpoint(path, tensors: dict, meta: dict | None = None) -> None:
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(meta_blob)))
        f.write(meta_blob)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr)
            blob = name.encode("utf-8")
            f.write(struct.pack("<H", len(blob)))
            f.write(blob)
            f.write(struct.pack("<BB", _F64_CODE, arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict]:
    """Returns (tensors as float64 arrays, metadata dict). A truncated or
    malformed file, or one with bytes after the last tensor, raises
    ValueError naming the file and the field."""
    with open(path, "rb") as f:
        if f.read(8) != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, meta_len = struct.unpack("<II", read_exact(f, 8, path, "header"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        meta = _parse(path, "metadata", json.loads,
                      read_exact(f, meta_len, path, "metadata"))
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: metadata is not a JSON object")
        (count,) = struct.unpack("<I", read_exact(f, 4, path, "tensor count"))
        tensors = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", read_exact(f, 2, path, f"tensor {i} name"))
            name = _parse(path, f"tensor {i} name", bytes.decode,
                          read_exact(f, name_len, path, f"tensor {i} name"))
            code, ndim = struct.unpack("<BB", read_exact(f, 2, path, f"{name} dtype"))
            if code != _F64_CODE:
                raise ValueError(f"{path}: unknown dtype code {code} for {name}")
            shape = struct.unpack(f"<{ndim}I",
                                  read_exact(f, 4 * ndim, path, f"{name} shape"))
            n_bytes = int(np.prod(shape, dtype=np.int64)) * 8
            payload = read_exact(f, n_bytes, path, f"{name} payload")
            tensors[name] = np.frombuffer(payload, dtype="<f8") \
                .astype(np.float64).reshape(shape)
        expect_end(f, path)
    return tensors, meta


def _parse(path, field: str, parse, blob: bytes):
    """parse(blob) for UTF-8 fields; a ValueError names the file and the field."""
    try:
        return parse(blob)
    except ValueError as e:
        raise ValueError(f"{path}: bad {field}: {e}") from None
