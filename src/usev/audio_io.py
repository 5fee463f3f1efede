"""WAV file I/O, plus the bounded reads the binary viseme and checkpoint
readers share.

`write_wav` writes mono 32-bit float: a RIFF/WAVE header, an 18-byte
`fmt ` chunk (format tag 3, IEEE float, with a zero cbSize), a `fact`
chunk holding the sample count, then the `data` chunk. The float64 ->
float32 cast is deterministic, so re-running a simulation reproduces files
byte for byte.

`read_wav` reads mono 32- or 64-bit float and 16-bit PCM (scaled by
1/32767), with a plain or a WAVE_FORMAT_EXTENSIBLE `fmt ` chunk, and skips
any other chunk before `data`. Every malformed or unsupported file is a
ValueError naming the file and the chunk.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .dsp import AudioClip

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_KINDS = {_PCM: "integer", _FLOAT: "float"}
_DTYPES = {(_PCM, 16): np.dtype("<i2"), (_FLOAT, 32): np.dtype("<f4"),
           (_FLOAT, 64): np.dtype("<f8")}
# An extensible sub-format GUID is its 4-byte format tag followed by this
# fixed tail (RFC 2361).
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def write_wav(path, clip: AudioClip) -> None:
    data = clip.samples.astype("<f4")
    rate = clip.sample_rate
    with open(path, "wb") as f:
        f.write(struct.pack(
            "<4sI4s4sIHHIIHHH4sII4sI", b"RIFF", 50 + data.nbytes, b"WAVE",
            b"fmt ", 18, _FLOAT, 1, rate, 4 * rate, 4, 32, 0,
            b"fact", 4, len(data), b"data", data.nbytes))
        f.write(data.tobytes())


def read_wav(path) -> AudioClip:
    with open(path, "rb") as f:
        riff, _, wave = struct.unpack(
            "<4sI4s", read_exact(f, 12, path, "RIFF header"))
        if (riff, wave) != (b"RIFF", b"WAVE"):
            raise ValueError(f"{path}: not a RIFF WAVE file")
        rate = dtype = None
        while True:
            chunk, size = struct.unpack(
                "<4sI", read_exact(f, 8, path, "chunk header"))
            if chunk == b"data":
                break
            name = chunk.decode("latin-1")
            body = read_exact(f, size + size % 2, path, f"'{name}' chunk")
            if chunk == b"fmt ":
                rate, dtype = _parse_fmt(body[:size], path)
        if dtype is None:
            raise ValueError(f"{path}: no 'fmt ' chunk before the 'data' "
                             "chunk")
        if size % dtype.itemsize:
            raise ValueError(f"{path}: 'data' chunk: {size} bytes is not a "
                             f"whole number of {dtype.itemsize}-byte samples")
        data = np.frombuffer(read_exact(f, size, path, "'data' chunk"), dtype)
    samples = data.astype(np.float64)
    if dtype.kind == "i":
        samples /= 32767.0
    try:
        return AudioClip(samples, rate)
    except ValueError as e:
        raise ValueError(f"{path}: 'data' chunk: {e}") from None


def _parse_fmt(body: bytes, path) -> tuple[int, np.dtype]:
    """The sample rate and sample dtype a `fmt ` chunk body describes."""
    where = f"{path}: 'fmt ' chunk"
    if len(body) < 16:
        raise ValueError(f"{where}: {len(body)} bytes, expected at least 16")
    tag, channels, rate, byte_rate, align, bits = struct.unpack(
        "<HHIIHH", body[:16])
    if tag == _EXTENSIBLE:
        if len(body) < 40 or struct.unpack("<H", body[16:18])[0] < 22:
            raise ValueError(f"{where}: WAVE_FORMAT_EXTENSIBLE needs a "
                             f"22-byte extension, got {len(body)} bytes")
        guid = body[24:40]
        if guid[4:] != _GUID_TAIL:
            raise ValueError(f"{where}: unknown WAVE_FORMAT_EXTENSIBLE "
                             f"sub-format {guid.hex()}")
        tag = int.from_bytes(guid[:4], "little")
    if channels != 1:
        raise ValueError(f"{where}: {channels} channels; only mono is read")
    dtype = _DTYPES.get((tag, bits))
    if dtype is None:
        kind = (f"{bits}-bit {_KINDS[tag]}" if tag in _KINDS
                else f"format tag {tag:#x}")
        raise ValueError(f"{where}: unsupported sample format {kind}; reads "
                         f"32/64-bit float or 16-bit integer")
    if not rate or align != dtype.itemsize or byte_rate != rate * align:
        raise ValueError(f"{where}: sample rate {rate} Hz, block align "
                         f"{align} and byte rate {byte_rate} do not describe "
                         f"{bits}-bit mono")
    return rate, dtype


def read_exact(f, n: int, path, field: str) -> bytes:
    """Read exactly n bytes of `field` from a file opened in binary mode.
    Asking for more than the file still holds is a ValueError naming the
    file and the field, raised before anything is allocated."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValueError(f"{path}: truncated {field}: expected {n} bytes, "
                         f"{left} left")
    return f.read(n)


def expect_end(f, path) -> None:
    """Reject bytes after the last field."""
    if f.read(1):
        raise ValueError(f"{path}: trailing bytes after the last field")
