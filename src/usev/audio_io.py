"""WAV file I/O, plus the bounded reads the binary viseme and checkpoint
readers share.

WAVs are written as 32-bit float: the float64 -> float32 cast is
deterministic, so re-running a simulation reproduces files byte for byte.
Reading also accepts 64-bit float and 16-bit PCM WAVs from elsewhere.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.io import wavfile

from .dsp import AudioClip


def write_wav(path, clip: AudioClip) -> None:
    wavfile.write(path, clip.sample_rate, clip.samples.astype("<f4"))


def read_wav(path) -> AudioClip:
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError(f"expected mono WAV, got shape {data.shape}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32767.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype}")
    return AudioClip(samples, int(rate))


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
