"""Scenario algebra for general speech mixtures.

Every sample of a clip falls into one of four target/interference pairing
kinds -- QQ, SQ, SS, QS -- derived from sample-level activity masks. A
ScenarioTrack holds one kind code per sample; it drives the differentiated
loss and the evaluation buckets, and its maximal runs, as (start, end, kind)
triples, are its manifest form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("QQ", "SQ", "SS", "QS")
# Kinds where the target speaks: scored and trained on reconstruction
# (SI-SDR); the quiet-target kinds QQ/QS are scored on output power.
TARGET_SPEAKS = ("SQ", "SS")

# Target-present overlap-ratio buckets and their (lo, hi] bounds; "0%" holds
# exactly 0. TA clips have no ratio and come first in BUCKETS.
BUCKET_BOUNDS = {
    "0%": (0.0, 0.0),
    "(0,20]%": (0.0, 0.2),
    "(20,40]%": (0.2, 0.4),
    "(40,60]%": (0.4, 0.6),
    "(60,80]%": (0.6, 0.8),
    "(80,100]%": (0.8, 1.0),
}
BUCKETS = ("TA", *BUCKET_BOUNDS)

# A sample's kind code is target_active + 2 * interference_active.
_CODE_TO_KIND = ("QQ", "SQ", "QS", "SS")
_KIND_CODE = {kind: code for code, kind in enumerate(_CODE_TO_KIND)}


@dataclass(eq=False)
class ScenarioTrack:
    """The kind code of every sample of a clip, as int8."""

    codes: np.ndarray

    @property
    def clip_len(self) -> int:
        return len(self.codes)

    def kind_mask(self, kind: str) -> np.ndarray:
        """Boolean per-sample mask of one kind."""
        return self.codes == _KIND_CODE[kind]

    def durations(self) -> dict[str, int]:
        """Per-kind total duration in samples."""
        return {k: int(np.count_nonzero(self.kind_mask(k))) for k in KINDS}

    def target_mask(self) -> np.ndarray:
        return (self.codes & 1).astype(bool)

    def interference_mask(self) -> np.ndarray:
        return self.codes >= 2

    def to_triples(self) -> list[tuple[int, int, str]]:
        """The maximal runs of one kind as (start, end, kind), start
        inclusive and end exclusive: the track's manifest form."""
        c = self.codes
        bounds = [0, *(np.flatnonzero(c[1:] != c[:-1]) + 1).tolist(), len(c)]
        return [(a, b, _CODE_TO_KIND[c[a]]) for a, b in zip(bounds, bounds[1:])]

    @classmethod
    def from_triples(cls, triples, clip_len: int) -> "ScenarioTrack":
        """The track whose maximal runs are `triples`; they must tile
        [0, clip_len) in order, each nonempty and of another kind than the
        one before."""
        codes, lengths, pos = [], [], 0
        for a, b, kind in triples:
            a, b, kind = int(a), int(b), str(kind)
            if not a < b:
                raise ValueError(f"empty segment [{a}, {b})")
            if kind not in KINDS:
                raise ValueError(f"unknown scenario kind {kind!r}")
            if a != pos:
                raise ValueError(f"segments must tile the clip; gap at {pos}")
            if codes and codes[-1] == _KIND_CODE[kind]:
                raise ValueError(f"adjacent segments share kind {kind} at {pos}")
            codes.append(_KIND_CODE[kind])
            lengths.append(b - a)
            pos = b
        if pos != clip_len:
            raise ValueError(f"segments cover [0, {pos}), clip_len is {clip_len}")
        return cls(np.repeat(np.array(codes, dtype=np.int8), lengths))


def label_scenarios(target, interference) -> ScenarioTrack:
    """Label each sample of a clip QQ/SQ/SS/QS from two activity masks.

    Multiple interference speakers must be OR-combined into one mask first.
    """
    t = np.asarray(target, dtype=bool)
    i = np.asarray(interference, dtype=bool)
    if t.shape != i.shape or t.ndim != 1:
        raise ValueError(f"mask shapes differ: {t.shape} vs {i.shape}")
    if len(t) == 0:
        raise ValueError("cannot label an empty clip")
    return ScenarioTrack(t.astype(np.int8) + 2 * i.astype(np.int8))


def overlap_ratio(track: ScenarioTrack) -> float | None:
    """duration(SS) / duration(SS + SQ + QS), or None when no speech at all.

    None covers all-QQ clips and TA clips without interference speech; the
    overlap ratio does not apply to them.
    """
    speech = np.count_nonzero(track.codes)  # every kind but QQ
    if speech == 0:
        return None
    return np.count_nonzero(track.kind_mask("SS")) / speech


def classify_clip(track: ScenarioTrack) -> str:
    """'TA' when the target never speaks (no SQ and no SS), else 'TP'."""
    return "TP" if track.target_mask().any() else "TA"


def overlap_bucket(ratio: float | None) -> str:
    """Map an overlap ratio to its report bucket; None maps to the TA bucket."""
    if ratio is None:
        return "TA"
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"overlap ratio must lie in [0, 1], got {ratio}")
    return next(name for name, (_, hi) in BUCKET_BOUNDS.items() if ratio <= hi)


def clip_bucket(track: ScenarioTrack) -> str:
    """Report bucket of a whole clip: TA clips go to the TA column even when
    interference speech gives them a defined (zero) overlap ratio; TP clips
    bucket by their ratio."""
    if classify_clip(track) == "TA":
        return "TA"
    return overlap_bucket(overlap_ratio(track))


def crop_track(track: ScenarioTrack, start: int, end: int) -> ScenarioTrack:
    """Scenario track of the sample window [start, end) of the clip."""
    if not 0 <= start < end <= track.clip_len:
        raise ValueError(f"bad crop [{start}, {end}) for clip_len {track.clip_len}")
    return ScenarioTrack(track.codes[start:end])
