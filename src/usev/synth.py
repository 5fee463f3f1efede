"""Deterministic synthetic utterances standing in for recorded corpora.

An utterance is a sum of amplitude-modulated harmonic tones (speaker-specific
fundamental, per-phoneme jitter) gated by an alternating speech/quiet
activity pattern. Viseme frames at dsp.VISEME_FPS are a function of the local
audio envelope and the pseudo-phoneme index; quiet frames are exact zero
vectors, as are quiet audio spans. Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dsp import VISEME_FPS, AudioClip

_N_PHONEMES = 20
_PHONEME_S = (0.08, 0.25)
_RAMP_S = 0.02
_SPEECH_SPAN_S = (0.5, 1.8)  # length range of one speech or quiet run
_UTTERANCE_RMS = 0.1  # over the active samples
MIN_UTTERANCE_S = 3.0  # SimConfig.utterance_s may not start below it
_HARMONIC_DECAY = 0.6 ** np.arange(4)

# Fixed viseme projection of (envelope, phoneme) pairs; positive entries so
# active frames are never accidentally zero.
_BASIS_SEED = 271828


def viseme_basis(dim: int) -> np.ndarray:
    rng = np.random.default_rng(_BASIS_SEED)
    return rng.uniform(0.3, 1.0, size=(_N_PHONEMES, dim))


def speaker_f0(speaker: int, n_speakers: int) -> float:
    """Geometrically spaced fundamentals over ~90-230 Hz."""
    if n_speakers <= 1:
        return 140.0
    return 90.0 * (230.0 / 90.0) ** (speaker / (n_speakers - 1))


@lru_cache(maxsize=None)
def _phoneme_times(sample_rate: int) -> np.ndarray:
    """Sample times of the longest pseudo-phoneme; a phoneme of n samples
    uses the first n, which equal np.arange(n) / sample_rate."""
    t = np.arange(int(round(_PHONEME_S[1] * sample_rate)) + 1) / sample_rate
    t.flags.writeable = False
    return t


@lru_cache(maxsize=None)
def _ramp(r: int) -> np.ndarray:
    """Raised-cosine onset of r samples; its reverse is the offset."""
    win = 0.5 - 0.5 * np.cos(np.pi * np.arange(r) / r)
    win.flags.writeable = False
    return win


@dataclass
class SyntheticUtterance:
    clip: AudioClip
    activity: np.ndarray  # bool per sample
    viseme_frames: np.ndarray  # [ceil(dur*fps), dim]
    speaker_id: str

    @cached_property
    def active_fraction(self) -> float:
        return float(np.mean(self.activity))


def _activity_pattern(rng, n: int, sample_rate: int, duty: float,
                      speech_s: tuple[float, float]) -> np.ndarray:
    """Alternating speech/quiet spans starting with speech, targeting `duty`."""
    mask = np.zeros(n, dtype=bool)
    mean_speech = 0.5 * (speech_s[0] + speech_s[1])
    mean_quiet = max(mean_speech * (1.0 - duty) / max(duty, 1e-3), 0.05)
    pos = 0
    speaking = True
    while pos < n:
        if speaking:
            span = rng.uniform(*speech_s)
        else:
            span = rng.uniform(0.5 * mean_quiet, 1.5 * mean_quiet)
        end = min(n, pos + max(1, int(round(span * sample_rate))))
        if speaking:
            mask[pos:end] = True
        pos = end
        speaking = not speaking
    return mask


def gen_utterance(seed, duration_s: float, cfg, duty: float,
                  speaker: int) -> SyntheticUtterance:
    """Synthesize one utterance; bit-identical for identical arguments.

    duty is the target fraction of active samples; duty >= 1 makes the whole
    utterance active. cfg needs: sample_rate (a multiple of VISEME_FPS),
    visual_dim and n_speakers; the viseme frames run at VISEME_FPS.
    """
    if duration_s < MIN_UTTERANCE_S:
        raise ValueError(
            f"utterance of {duration_s:.2f}s is below the minimum "
            f"{MIN_UTTERANCE_S:.2f}s")
    rng = np.random.default_rng(seed)
    sr = cfg.sample_rate
    n = int(round(duration_s * sr))
    f0 = speaker_f0(speaker, cfg.n_speakers) * rng.uniform(0.97, 1.03)

    if duty >= 1.0:
        activity = np.ones(n, dtype=bool)
    else:
        activity = _activity_pattern(rng, n, sr, duty, _SPEECH_SPAN_S)

    audio = np.zeros(n)
    phoneme = np.full(n, -1, dtype=np.int32)
    ramp_n = int(_RAMP_S * sr)
    omega = 2.0 * np.pi * f0
    times = _phoneme_times(sr)
    wave = np.empty(len(times))

    # Walk each active run, tiling it with pseudo-phonemes. The harmonics are
    # summed in place but in the same order and with the same roundings as
    # seg += amps[h] * sin(omega * jitter * (h + 1) * t + phases[h]).
    edges = np.flatnonzero(np.diff(activity.astype(np.int8)))
    bounds = np.concatenate(([0], edges + 1, [n])).tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        if not activity[a]:
            continue
        pos = a
        while pos < b:
            ph_n = min(b - pos, max(1, int(round(rng.uniform(*_PHONEME_S) * sr))))
            ph = int(rng.integers(_N_PHONEMES))
            jitter = rng.uniform(0.97, 1.03)
            amps = rng.uniform(0.2, 1.0, size=4) * _HARMONIC_DECAY
            phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
            t, w = times[:ph_n], wave[:ph_n]
            seg = audio[pos : pos + ph_n]
            for h in range(4):
                np.multiply(t, omega * jitter * (h + 1), out=w)
                w += phases[h]
                np.sin(w, out=w)
                w *= amps[h]
                seg += w
            r = min(ramp_n, ph_n // 3)
            if r > 0:
                win = _ramp(r)
                seg[:r] *= win
                seg[-r:] *= win[::-1]
            phoneme[pos : pos + ph_n] = ph
            pos += ph_n

    # Every activity pattern starts with speech, so the mean is defined.
    rms = np.sqrt(np.mean(audio[activity] ** 2))
    if rms > 0:
        audio *= _UTTERANCE_RMS / rms
    audio[~activity] = 0.0

    # ceil(duration_s * fps) computed exactly on sample counts
    spf = sr // VISEME_FPS
    n_frames = -(-n // spf)
    # Each frame's envelope is the RMS of its samples, taken row by row so
    # that every mean sums exactly the samples the frame covers.
    full = n // spf
    env = np.sqrt(np.mean(audio[: full * spf].reshape(full, spf) ** 2, axis=1))
    if full < n_frames:
        env = np.append(env, np.sqrt(np.mean(audio[full * spf :] ** 2)))
    center = np.minimum(n - 1, np.arange(n_frames) * spf + spf // 2)
    voiced = activity[center]
    frames = np.zeros((n_frames, cfg.visual_dim))
    frames[voiced] = (env[voiced, None]
                      * viseme_basis(cfg.visual_dim)[phoneme[center[voiced]]])

    return SyntheticUtterance(
        clip=AudioClip(audio, sr),
        activity=activity,
        viseme_frames=frames,
        speaker_id=f"spk{speaker:03d}",
    )


class UtteranceBank:
    """Lazy, cached pool of utterances; utterance i is a pure function of
    (bank seed, i). Speakers cycle so distinct-speaker picks are easy."""

    def __init__(self, cfg, seed: int, count: int, fully_active: bool = False):
        if count < 2:
            raise ValueError("a mixing bank needs at least 2 utterances")
        self.cfg = cfg
        self.seed = int(seed)
        self.count = int(count)
        self.fully_active = fully_active
        self._cache: dict[int, SyntheticUtterance] = {}

    def __len__(self) -> int:
        return self.count

    def speaker_of(self, i: int) -> int:
        return i % self.cfg.n_speakers

    def get(self, i: int) -> SyntheticUtterance:
        if not 0 <= i < self.count:
            raise ValueError(f"utterance index {i} out of range [0, {self.count})")
        if i not in self._cache:
            rng = np.random.default_rng([self.seed, 1000 + i])
            duration = float(rng.uniform(*self.cfg.utterance_s))
            # Snap to the viseme-frame grid so crops stay frame-aligned.
            frame_s = 1.0 / VISEME_FPS
            duration = max(MIN_UTTERANCE_S,
                           round(duration / frame_s) * frame_s)
            duty = 1.0 if self.fully_active else float(rng.uniform(0.35, 0.95))
            self._cache[i] = gen_utterance(
                [self.seed, 1000 + i, 1], duration, self.cfg,
                duty=duty, speaker=self.speaker_of(i))
        return self._cache[i]

    def active_fraction(self, i: int) -> float:
        return self.get(i).active_fraction


def colored_noise(rng, n: int, tilt: float) -> np.ndarray:
    """Unit-RMS filtered white noise with spectral slope f^(tilt/2)."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    shape = np.ones_like(freqs)
    nz = freqs > 0
    shape[nz] = (freqs[nz] / freqs[nz][0]) ** (tilt / 2.0)
    shape[0] = shape[1] if len(shape) > 1 else 1.0
    noise = np.fft.irfft(spec * shape, n=n)
    rms = np.sqrt(np.mean(noise**2))
    return noise / rms if rms > 0 else noise
