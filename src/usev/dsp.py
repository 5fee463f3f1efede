"""Time-domain waveform primitives shared by the simulator, losses and model.

All kernels run in double precision. Functions are pure and hold no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Lip-movement (viseme) frames per second; every sample rate is a multiple.
VISEME_FPS = 25


def _samples(x) -> np.ndarray:
    """Coerce an AudioClip or array-like to a 1-D float64 array."""
    if isinstance(x, AudioClip):
        return x.samples
    return np.asarray(x, dtype=np.float64)


@dataclass
class AudioClip:
    """A mono waveform (dimensionless amplitude) with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = samples
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate


def gather_frames(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Frames of the last axis: [..., n] -> [..., T, frame_len], a copy with
    row t = x[..., t*hop : t*hop + frame_len] and
    T = floor((n - frame_len)/hop) + 1."""
    num = (x.shape[-1] - frame_len) // hop + 1
    return x[..., hop * np.arange(num)[:, None] + np.arange(frame_len)]


def add_frames(frames: np.ndarray, hop: int) -> np.ndarray:
    """Overlap-add of the last two axes: [..., T, L] -> [..., (T-1)*hop + L].
    Loops over the ceil(L/hop) hop-wide offsets inside a frame, highest
    first, so every output sample sums its frames in frame order."""
    *lead, num, flen = frames.shape
    n_off = -(-flen // hop)
    out = np.zeros((*lead, num + n_off - 1, hop))
    for j in reversed(range(n_off)):
        width = min(hop, flen - j * hop)
        out[..., j : j + num, :width] += frames[..., j * hop : j * hop + width]
    return out.reshape(*lead, -1)[..., : (num - 1) * hop + flen]


def energy(x) -> float:
    """Total energy: sum of squared samples."""
    s = _samples(x)
    return float(np.dot(s, s))


def snr_gain(reference_energy: float, signal_energy: float, snr_db: float) -> float:
    """Gain g so that 10*log10(reference_energy / (g^2 * signal_energy)) = snr_db."""
    if reference_energy <= 0.0 or signal_energy <= 0.0:
        raise ValueError("SNR scaling requires strictly positive energies")
    return float(np.sqrt(reference_energy / (signal_energy * 10.0 ** (snr_db / 10.0))))


def measure_snr_db(reference, signal) -> float:
    """Measured 10*log10(E_ref / E_sig); the round-trip check for snr_gain."""
    e_ref = energy(reference)
    e_sig = energy(signal)
    if e_ref <= 0.0 or e_sig <= 0.0:
        raise ValueError("SNR is undefined for zero-energy inputs")
    return float(10.0 * np.log10(e_ref / e_sig))
