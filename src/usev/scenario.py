"""Scenario algebra for general speech mixtures.

Every sample of a clip falls into one of four target/interference pairing
kinds -- QQ, SQ, SS, QS -- derived from sample-level activity masks. A
ScenarioTrack is the maximal-run partition of a clip into those kinds; it
drives the differentiated loss and the evaluation buckets.
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

# kind = target_active + 2 * interference_active
_CODE_TO_KIND = ("QQ", "SQ", "QS", "SS")


@dataclass
class ScenarioSegment:
    start: int  # sample index, inclusive
    end: int  # sample index, exclusive
    kind: str

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"empty segment [{self.start}, {self.end})")
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class ScenarioTrack:
    """Maximal scenario segments tiling [0, clip_len) exactly."""

    segments: list[ScenarioSegment]
    clip_len: int

    def __post_init__(self):
        pos = 0
        prev_kind = None
        for seg in self.segments:
            if seg.start != pos:
                raise ValueError(f"segments must tile the clip; gap at {pos}")
            if seg.kind == prev_kind:
                raise ValueError(f"adjacent segments share kind {seg.kind} at {pos}")
            pos = seg.end
            prev_kind = seg.kind
        if pos != self.clip_len:
            raise ValueError(f"segments cover [0, {pos}), clip_len is {self.clip_len}")

    def kind_mask(self, kind: str) -> np.ndarray:
        """Boolean per-sample mask of all segments of one kind."""
        mask = np.zeros(self.clip_len, dtype=bool)
        for seg in self.segments:
            if seg.kind == kind:
                mask[seg.start : seg.end] = True
        return mask

    def durations(self) -> dict[str, int]:
        """Per-kind total duration in samples."""
        out = dict.fromkeys(KINDS, 0)
        for seg in self.segments:
            out[seg.kind] += seg.length
        return out

    def target_mask(self) -> np.ndarray:
        return self.kind_mask("SQ") | self.kind_mask("SS")

    def interference_mask(self) -> np.ndarray:
        return self.kind_mask("SS") | self.kind_mask("QS")

    def to_triples(self) -> list[tuple[int, int, str]]:
        return [(s.start, s.end, s.kind) for s in self.segments]

    @classmethod
    def from_triples(cls, triples, clip_len: int) -> "ScenarioTrack":
        segs = [ScenarioSegment(int(a), int(b), str(k)) for a, b, k in triples]
        return cls(segs, int(clip_len))


def label_scenarios(target, interference) -> ScenarioTrack:
    """Partition a clip into maximal QQ/SQ/SS/QS runs from two activity masks.

    Multiple interference speakers must be OR-combined into one mask first.
    """
    t = np.asarray(target, dtype=bool)
    i = np.asarray(interference, dtype=bool)
    if t.shape != i.shape or t.ndim != 1:
        raise ValueError(f"mask shapes differ: {t.shape} vs {i.shape}")
    if len(t) == 0:
        raise ValueError("cannot label an empty clip")
    codes = t.astype(np.int8) + 2 * i.astype(np.int8)
    edges = np.flatnonzero(np.diff(codes)) + 1
    bounds = np.concatenate(([0], edges, [len(codes)]))
    segments = [
        ScenarioSegment(int(a), int(b), _CODE_TO_KIND[codes[a]])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return ScenarioTrack(segments, len(codes))


def overlap_ratio(track: ScenarioTrack) -> float | None:
    """duration(SS) / duration(SS + SQ + QS), or None when no speech at all.

    None covers all-QQ clips and TA clips without interference speech; the
    overlap ratio does not apply to them.
    """
    d = track.durations()
    denom = d["SS"] + d["SQ"] + d["QS"]
    if denom == 0:
        return None
    return d["SS"] / denom


def classify_clip(track: ScenarioTrack) -> str:
    """'TA' when the target never speaks (no SQ and no SS), else 'TP'."""
    d = track.durations()
    return "TA" if d["SQ"] == 0 and d["SS"] == 0 else "TP"


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
    t = track.target_mask()[start:end]
    i = track.interference_mask()[start:end]
    return label_scenarios(t, i)
