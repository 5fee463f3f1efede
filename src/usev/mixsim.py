"""General speech mixture simulation with scenario labels and manifests.

A mixture clip is target speech (possibly absent) plus 1-2 SNR-scaled
interference segments plus optional colored noise, with the ground-truth
scenario track derived from the activity masks. The corpus planner makes
a clip target-absent at the fixed rate TA_PROB, setting its interference
against `SimConfig.ta_reference_rms`; it steers every other clip toward an
overlap bucket drawn by the fixed BUCKET_WEIGHTS, searching interference
alignments over the activity masks, then verifies the bucket exactly.
Clips span whole frames of the fixed viseme rate dsp.VISEME_FPS.

Per-clip randomness comes from (corpus seed, clip index), so generation
order and parallelism never change outputs.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import audio_io
from .dsp import VISEME_FPS, AudioClip, snr_gain
from .scenario import (BUCKET_BOUNDS, BUCKETS, KINDS, ScenarioTrack,
                       clip_bucket, label_scenarios)
from .synth import MIN_UTTERANCE_S, UtteranceBank, colored_noise

TA_PROB = 0.05  # share of target-absent clips
# Target-present overlap-bucket mix, in BUCKETS[1:] order; conversational
# corpora skew toward higher overlap, so the upper buckets carry more weight.
BUCKET_WEIGHTS = np.array([0.092, 0.064, 0.123, 0.194, 0.224, 0.303])

_VISEME_MAGIC = b"VISM"
_MAX_TRIES = 40  # planner draws per clip before the nearest bucket is kept


@dataclass
class SimConfig:
    sample_rate: int = 8000
    visual_dim: int = 8
    n_speakers: int = 10
    n_utterances: int = 40
    utterance_s: tuple = (6.5, 9.5)
    clip_s: tuple = (4.0, 6.0)
    snr_db: tuple = (-10.0, 10.0)
    noisy: bool = False
    noise_snr_db: tuple = (-5.0, 15.0)
    # Interference level of a target-absent clip, which has no target to
    # set it against.
    ta_reference_rms: ClassVar[float] = 0.1
    viseme_fps: ClassVar[int] = VISEME_FPS  # a fixed rate, not a setting

    def __post_init__(self):
        if self.sample_rate <= 0 or self.sample_rate % VISEME_FPS:
            raise ValueError(f"sample_rate must be a positive multiple of "
                             f"{VISEME_FPS}, got {self.sample_rate}")
        if self.n_speakers < 2:
            raise ValueError(f"n_speakers must be at least 2, got {self.n_speakers}")
        for name in ("utterance_s", "clip_s", "snr_db", "noise_snr_db"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo <= hi < math.inf:
                raise ValueError(f"{name} must be a finite range lo,hi with "
                                 f"lo <= hi, got {lo}, {hi}")
        if self.clip_s[0] < 1.0 / VISEME_FPS:
            raise ValueError(f"clip_s must start at or above one viseme frame "
                             f"({1.0 / VISEME_FPS} s), got {self.clip_s[0]}")
        if self.utterance_s[0] < self.clip_s[1]:
            raise ValueError("utterances must be at least as long as the longest clip")
        if self.utterance_s[0] < MIN_UTTERANCE_S:
            raise ValueError(f"utterance_s must start at or above "
                             f"{MIN_UTTERANCE_S} s")

    @property
    def samples_per_frame(self) -> int:
        return self.sample_rate // VISEME_FPS


@dataclass
class MixtureSpec:
    """Everything needed to rebuild one clip from an utterance bank."""

    target_source: int | None
    target_crop: tuple  # (start_sample, length) within the utterance
    interference_sources: list
    interference_crops: list  # (start_sample, length) per source
    interference_offsets: list  # placement within the clip, per source
    snr_db: list
    noise_snr_db: float | None
    target_absent: bool
    clip_len: int
    seed: int  # drives noise synthesis

    def __post_init__(self):
        if not 1 <= len(self.interference_sources) <= 2:
            raise ValueError("need 1 or 2 interference sources")
        if not (len(self.interference_sources) == len(self.interference_crops)
                == len(self.interference_offsets) == len(self.snr_db)):
            raise ValueError("interference field lengths disagree")


@dataclass
class MixtureRecord:
    clip_id: str
    mixture: AudioClip
    target_truth: AudioClip
    viseme_stream: np.ndarray  # [frames, visual_dim]
    track: ScenarioTrack
    spec: MixtureSpec | None
    occlusion_spans: list
    effective_visual_ratio: float
    # Scaled, placed addends of the mixture; None for records loaded from disk.
    components: dict | None = None


# -- core simulation ------------------------------------------------------------

def simulate_general(spec: MixtureSpec, corpus: UtteranceBank,
                     clip_id: str = "clip") -> MixtureRecord:
    """Mix one general speech clip exactly as the MixtureSpec dictates.

    Interference gains are set against the energy of the full target segment
    (or a fixed reference level for target-absent clips), before placement.
    """
    cfg = corpus.cfg
    length = spec.clip_len
    spf = cfg.samples_per_frame
    if length % spf:
        raise ValueError(f"clip_len {length} not on the viseme frame grid ({spf})")
    n_frames = length // spf

    if spec.target_absent:
        target = np.zeros(length)
        t_mask = np.zeros(length, dtype=bool)
        visemes = np.zeros((n_frames, cfg.visual_dim))
        ref_energy = cfg.ta_reference_rms**2 * length
    else:
        utt = corpus.get(spec.target_source)
        t0, tlen = spec.target_crop
        if tlen != length:
            raise ValueError("target segment must span the whole clip")
        if t0 % spf:
            raise ValueError("target crop must start on the viseme frame grid")
        if t0 < 0 or t0 + tlen > len(utt.clip):
            raise ValueError("target crop outside the utterance")
        target = utt.clip.samples[t0 : t0 + length].copy()
        t_mask = utt.activity[t0 : t0 + length].copy()
        f0 = t0 // spf
        visemes = utt.viseme_frames[f0 : f0 + n_frames].copy()
        ref_energy = float(np.dot(target, target))
        if ref_energy <= 0.0:
            raise ValueError("target segment has zero energy; pick an active crop")

    components = {"target": target}
    i_mask = np.zeros(length, dtype=bool)
    for j, (src, crop, off, snr) in enumerate(zip(
            spec.interference_sources, spec.interference_crops,
            spec.interference_offsets, spec.snr_db)):
        utt = corpus.get(src)
        c0, clen = crop
        if c0 < 0 or c0 + clen > len(utt.clip):
            raise ValueError(f"interference crop {crop} outside utterance {src}")
        seg = utt.clip.samples[c0 : c0 + clen]
        seg_act = utt.activity[c0 : c0 + clen]
        seg_energy = float(np.dot(seg, seg))
        if seg_energy <= 0.0:
            raise ValueError(f"interference segment {j} has zero energy")
        gain = snr_gain(ref_energy, seg_energy, snr)
        end = min(length, off + clen)
        if off < 0 or end <= off:
            raise ValueError(f"interference offset {off} outside the clip")
        placed = np.zeros(length)
        placed[off:end] = gain * seg[: end - off]
        components[f"interference_{j}"] = placed
        i_mask[off:end] |= seg_act[: end - off]

    if spec.noise_snr_db is not None:
        nrng = np.random.default_rng(spec.seed)
        tilt = float(nrng.uniform(-1.5, 0.5))
        raw = colored_noise(nrng, length, tilt)
        gain = snr_gain(ref_energy, float(np.dot(raw, raw)), spec.noise_snr_db)
        components["noise"] = gain * raw

    mixture = np.zeros(length)
    for part in components.values():
        mixture += part

    return MixtureRecord(
        clip_id=clip_id,
        mixture=AudioClip(mixture, cfg.sample_rate),
        target_truth=AudioClip(target, cfg.sample_rate),
        viseme_stream=visemes,
        track=label_scenarios(t_mask, i_mask),
        spec=spec,
        occlusion_spans=[],
        effective_visual_ratio=1.0,
        components=components,
    )


def apply_occlusion(record: MixtureRecord, seed,
                    occlusion_fraction_range) -> MixtureRecord:
    """Zero a contiguous span of viseme frames; audio stays intact."""
    lo, hi = occlusion_fraction_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"occlusion fractions must lie in [0, 1], got {lo}, {hi}")
    rng = np.random.default_rng(seed)
    frac = float(rng.uniform(lo, hi)) if hi > lo else lo
    n_frames = record.viseme_stream.shape[0]
    n_occ = int(round(frac * n_frames))
    visemes = record.viseme_stream.copy()
    if n_occ <= 0:
        spans = []
    else:
        start = int(rng.integers(0, n_frames - n_occ + 1))
        visemes[start : start + n_occ] = 0.0
        spans = [(start, start + n_occ)]
    occluded = sum(b - a for a, b in spans)
    return replace(record, viseme_stream=visemes, occlusion_spans=spans,
                   effective_visual_ratio=1.0 - occluded / n_frames)


# -- corpus planning ----------------------------------------------------------------

def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) of every run of True in mask."""
    bounds = np.concatenate(([0], np.flatnonzero(mask[1:] != mask[:-1]) + 1,
                             [len(mask)]))
    first = 0 if mask[0] else 1
    return bounds[first:-1:2], bounds[first + 1 :: 2]


def _shifted_overlaps(ta, tb, sa, sb, n: int) -> np.ndarray:
    """|union of [ta + c, tb + c) AND union of [sa, sb)| for c in [0, n).

    A run [a, b) shifted by c meets a run [p, q) in a trapezoid of c: the sum
    of the ramps max(0, c - x) at the knots x = p - b, p - a, q - b, q - a
    with signs +1, -1, -1, +1. Between knots the count grows linearly, so it
    is one cumulative sum of a piecewise-constant slope, exact in integers.
    """
    knots = np.concatenate([(p[None, :] - a[:, None]).ravel()
                            for p, a in ((sa, tb), (sa, ta), (sb, tb), (sb, ta))])
    signs = np.repeat([1, -1, -1, 1], len(ta) * len(sa))
    order = np.argsort(knots, kind="stable")
    knots, signs = knots[order], signs[order]
    early = knots < 0  # ramps already rising at c = 0
    start = -int(np.dot(signs[early], knots[early]))
    steps = np.clip(knots, 0, n - 1)
    slope = np.repeat(np.concatenate(([0], np.cumsum(signs))),
                      np.diff(steps, prepend=0, append=n - 1))
    out = np.empty(n, dtype=np.int64)
    out[0] = start
    np.cumsum(slope, out=out[1:])
    out[1:] += start
    return out


def _window_overlap(t_mask: np.ndarray, seq: np.ndarray, win: int):
    """Overlap counts of every win-length window of seq against t_mask.

    Returns (ss, act): ss[c] = |t_mask AND seq[c:c+win]| (t_mask may be
    shorter than win; it is compared left-aligned), act[c] = |seq[c:c+win]|.
    Both are exact and built from the masks' runs, not their samples; act
    is the overlap with an all-active window.
    """
    n = len(seq) - win + 1
    sa, sb = _runs(seq)
    ss = _shifted_overlaps(*_runs(t_mask), sa, sb, n).astype(np.float64)
    act = _shifted_overlaps(np.array([0]), np.array([win]), sa, sb, n)
    return ss, act


def _pick_shift(rng, ss, i_act, t_act, lo, hi):
    """Choose a shift whose predicted ratio falls in (lo, hi]; else nearest."""
    i_act = np.broadcast_to(np.asarray(i_act, dtype=np.float64), ss.shape)
    denom = t_act + i_act - ss
    usable = (i_act > 0) & (denom > 0)
    if not usable.any():
        return None
    ratio = np.divide(ss, denom, out=np.full(ss.shape, np.nan), where=usable)
    if hi == 0.0:
        hit = usable & (ss == 0)
    else:
        hit = usable & (ratio > lo) & (ratio <= hi)
    cands = np.flatnonzero(hit)
    if len(cands):
        return int(rng.choice(cands))
    mid = 0.0 if hi == 0.0 else 0.5 * (lo + hi)
    scores = np.where(usable, np.abs(ratio - mid), np.inf)
    return int(np.argmin(scores))


def _pick_utterance(rng, bank: UtteranceBank, min_len: int,
                    exclude_speakers=(), prefer: str | None = None) -> int | None:
    pool = [i for i in range(len(bank))
            if bank.speaker_of(i) not in exclude_speakers
            and len(bank.get(i).clip) >= min_len]
    if not pool:
        return None
    picks = rng.choice(len(pool), size=min(6, len(pool)), replace=False)
    cands = [pool[int(p)] for p in picks]
    if prefer == "dense":
        return max(cands, key=bank.active_fraction)
    if prefer == "sparse":
        return min(cands, key=bank.active_fraction)
    return cands[0]


def _bucket_distance(actual: str, desired: str) -> int:
    return abs(BUCKETS.index(actual) - BUCKETS.index(desired))


def plan_clip(rng, bank: UtteranceBank, cfg: SimConfig) -> MixtureSpec:
    """Draw a clip plan: target-absent at TA_PROB, otherwise aimed at an
    overlap bucket drawn by BUCKET_WEIGHTS."""
    spf = cfg.samples_per_frame
    clip_len = int(round(rng.uniform(*cfg.clip_s) * VISEME_FPS)) * spf

    def plan(parts, target=None, crop=(0, 0)) -> MixtureSpec:
        """The spec of these (source, crop, offset, snr_db) parts; draws the
        noise SNR, then the noise seed."""
        sources, crops, offsets, snrs = (list(f) for f in zip(*parts))
        noise = float(rng.uniform(*cfg.noise_snr_db)) if cfg.noisy else None
        return MixtureSpec(target, crop, sources, crops, offsets, snrs, noise,
                           target is None, clip_len, int(rng.integers(2**62)))

    if rng.random() < TA_PROB:  # target absent
        n_interf = int(rng.integers(1, 3))
        parts = []
        for _ in range(_MAX_TRIES):
            idx = _pick_utterance(rng, bank, clip_len, exclude_speakers=[
                bank.speaker_of(p[0]) for p in parts])
            if idx is None:
                break
            utt = bank.get(idx)
            c0 = int(rng.integers(0, len(utt.clip) - clip_len + 1))
            if not utt.clip.samples[c0 : c0 + clip_len].any():
                continue
            parts.append((idx, (c0, clip_len), 0, float(rng.uniform(*cfg.snr_db))))
            if len(parts) == n_interf:
                break
        if not parts:
            raise ValueError("could not place any audible interference")
        return plan(parts)

    names = BUCKETS[1:]
    desired = names[int(rng.choice(len(names),
                                   p=BUCKET_WEIGHTS / BUCKET_WEIGHTS.sum()))]
    lo, hi = BUCKET_BOUNDS[desired]
    prefer = {"(80,100]%": "dense", "0%": "sparse", "(0,20]%": "sparse"}.get(desired)
    n_interf = 1 if desired in ("0%", "(80,100]%") else int(rng.integers(1, 3))

    best = None
    for _ in range(_MAX_TRIES):
        t_idx = _pick_utterance(rng, bank, clip_len, prefer=prefer)
        if t_idx is None:
            raise ValueError("no utterance long enough for the requested clip")
        t_utt = bank.get(t_idx)
        t0 = int(rng.integers(0, (len(t_utt.clip) - clip_len) // spf + 1)) * spf
        t_mask = t_utt.activity[t0 : t0 + clip_len]
        if not t_mask.any():
            continue
        t_act = int(t_mask.sum())

        parts = []
        combined = np.zeros(clip_len, dtype=bool)
        for _j in range(n_interf):
            idx = _pick_utterance(rng, bank, clip_len, exclude_speakers=[
                bank.speaker_of(i) for i in [t_idx] + [p[0] for p in parts]],
                prefer=prefer)
            if idx is None:
                break
            act = bank.get(idx).activity
            if hi <= 0.4 and rng.random() < 0.5:
                # Short burst placed inside the clip.
                n = min(int(rng.uniform(0.8, 2.5) * cfg.sample_rate), clip_len,
                        len(act))
                c0 = int(rng.integers(0, len(act) - n + 1))
                crop_mask = act[c0 : c0 + n]
                if not crop_mask.any():
                    continue
                ss, _ = _window_overlap(crop_mask, t_mask, n)
                off = _pick_shift(rng, ss, int(crop_mask.sum()), t_act, lo, hi)
                if off is None:
                    continue
            else:
                # Full-cover crop; search the crop start inside the utterance.
                n, off = clip_len, 0
                ss, act_w = _window_overlap(t_mask, act, clip_len)
                c0 = _pick_shift(rng, ss, act_w, t_act, lo, hi)
                if c0 is None or act_w[c0] == 0:
                    continue
            combined[off : off + n] |= act[c0 : c0 + n]
            parts.append((idx, (c0, n), off, float(rng.uniform(*cfg.snr_db))))
        if not parts:
            continue

        actual = clip_bucket(label_scenarios(t_mask, combined))
        spec = plan(parts, t_idx, (t0, clip_len))
        dist = _bucket_distance(actual, desired)
        if best is None or dist < best[0]:
            # A raised-cosine ramp edge is marked active yet can be exactly
            # 0.0, so a crop must be audible in its samples, not its mask.
            crops = [(t_idx, (t0, clip_len))] + [p[:2] for p in parts]
            if not all(bank.get(i).clip.samples[c0 : c0 + n].any()
                       for i, (c0, n) in crops):
                continue
            best = (dist, spec)
        if dist == 0:
            break
    if best is None:
        raise ValueError("corpus planning failed; widen clip/utterance settings")
    return best[1]


def simulate_clip(cfg: SimConfig, bank: UtteranceBank, corpus_seed: int,
                  index: int) -> MixtureRecord:
    """Clip `index` of the corpus; a pure function of (corpus seed, index)."""
    rng = np.random.default_rng([corpus_seed, 2, index])
    spec = plan_clip(rng, bank, cfg)
    return simulate_general(spec, bank, clip_id=f"clip-{index:06d}")


def iter_corpus(cfg: SimConfig, count: int, seed: int, occlusion=None):
    """Yield `count` simulated records without touching the filesystem."""
    bank = UtteranceBank(cfg, seed, cfg.n_utterances)
    for idx in range(count):
        record = simulate_clip(cfg, bank, seed, idx)
        if occlusion is not None:
            record = apply_occlusion(record, [seed, 3, idx], occlusion)
        yield record


def iter_overlapped_corpus(cfg: SimConfig, count: int, seed: int):
    """Highly overlapped clips from a fully-active bank: target and
    interference both start at sample 0 and span the shorter utterance,
    floored to the viseme frame grid, so the track is (near-)all SS. Every
    clip carries noise at an SNR drawn from `cfg.noise_snr_db`, whatever
    `cfg.noisy` says, and no viseme occlusion."""
    bank = UtteranceBank(cfg, seed, cfg.n_utterances, fully_active=True)
    spf = cfg.samples_per_frame
    for idx in range(count):
        rng = np.random.default_rng([seed, 2, idx])
        t_idx = int(rng.integers(len(bank)))
        others = [i for i in range(len(bank))
                  if bank.speaker_of(i) != bank.speaker_of(t_idx)]
        i_idx = others[int(rng.integers(len(others)))]
        shorter = min(len(bank.get(t_idx).clip), len(bank.get(i_idx).clip))
        clip_len = shorter // spf * spf
        spec = MixtureSpec(
            target_source=t_idx, target_crop=(0, clip_len),
            interference_sources=[i_idx], interference_crops=[(0, clip_len)],
            interference_offsets=[0],
            snr_db=[float(rng.uniform(*cfg.snr_db))],
            noise_snr_db=float(rng.uniform(*cfg.noise_snr_db)),
            target_absent=False, clip_len=clip_len, seed=int(rng.integers(2**62)))
        yield simulate_general(spec, bank, clip_id=f"clip-{idx:06d}")


# -- viseme stream files ---------------------------------------------------------------

def write_visemes(path, frames: np.ndarray) -> None:
    """Magic; frames, dim and VISEME_FPS as uint32; the float32 frames."""
    frames = np.asarray(frames, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(_VISEME_MAGIC)
        f.write(struct.pack("<III", frames.shape[0], frames.shape[1], VISEME_FPS))
        f.write(frames.astype("<f4").tobytes())


def read_visemes(path) -> np.ndarray:
    """The frames [F, D_v]; a header of no frames or not at VISEME_FPS is an error."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _VISEME_MAGIC:
            raise ValueError(f"{path}: not a viseme stream file")
        n_frames, dim, fps = struct.unpack(
            "<III", audio_io.read_exact(f, 12, path, "viseme header"))
        if not n_frames or fps != VISEME_FPS:
            raise ValueError(f"{path}: viseme header says {n_frames} frames at "
                             f"{fps} fps; expected 1 or more frames at {VISEME_FPS} fps")
        payload = audio_io.read_exact(f, 4 * n_frames * dim, path, "viseme payload")
        audio_io.expect_end(f, path)
    data = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: viseme payload holds a non-finite value")
    return data.reshape(n_frames, dim).astype(np.float64)


# -- manifests ----------------------------------------------------------------------------

def record_row(record: MixtureRecord, mixture_path: str, target_path: str,
               visemes_path: str) -> dict:
    spec = record.spec
    return {
        "clip_id": record.clip_id,
        "mixture_path": mixture_path,
        "target_path": target_path,
        "visemes_path": visemes_path,
        "sample_rate": record.mixture.sample_rate,
        "clip_len": len(record.mixture),
        "track": record.track.to_triples(),
        "snr_db": list(spec.snr_db),
        "noise_snr_db": spec.noise_snr_db,
        "target_absent": spec.target_absent,
        "seed": spec.seed,
        "occlusion_spans": [list(s) for s in record.occlusion_spans],
        "effective_visual_ratio": record.effective_visual_ratio,
    }


_ROW_REQUIRED = ("clip_id", "sample_rate", "clip_len", "track",
                 "effective_visual_ratio")
_ROW_PATHS = ("mixture_path", "target_path", "visemes_path")


# (field, test, what the field must be); occlusion_spans may be absent.
# json.loads gives exact built-in types, so `type(v) is int` also rules out
# booleans.
_ROW_TYPES = (
    ("clip_id", lambda v: type(v) is str, "a string"),
    ("sample_rate", lambda v: type(v) is int and v > 0, "a positive integer"),
    ("clip_len", lambda v: type(v) is int and v > 0, "a positive integer"),
    ("track", lambda v: type(v) is list and all(
        type(s) is list and len(s) == 3 and type(s[0]) is int
        and type(s[1]) is int and s[2] in KINDS for s in v),
     f"a list of [start, end, kind] with kind in {KINDS}"),
    ("effective_visual_ratio",
     lambda v: type(v) in (int, float) and 0.0 <= v <= 1.0, "a number in [0, 1]"),
    ("occlusion_spans", lambda v: type(v) is list and all(
        type(s) is list and len(s) == 2 and type(s[0]) is int
        and type(s[1]) is int for s in v), "a list of [start, end] frame pairs"),
)


def write_manifest(path, rows) -> None:
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _numbered_rows(path) -> list[tuple[int, dict, ScenarioTrack]]:
    """Each row of the manifest with its line number and scenario track."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: invalid record: {e}") from e
            if not isinstance(row, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            missing = [k for k in _ROW_REQUIRED if k not in row]
            if missing:
                raise ValueError(f"{path}: line {lineno}: missing fields {missing}")
            for k, ok, what in _ROW_TYPES:
                if k in row and not ok(row[k]):
                    raise ValueError(f"{path}: line {lineno}: field {k!r} "
                                     f"must be {what}, got {row[k]!r}")
            try:
                track = ScenarioTrack.from_triples(row["track"], row["clip_len"])
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: field 'track': "
                                 f"{e}") from None
            rows.append((lineno, row, track))
    return rows


def read_manifest(path) -> list[dict]:
    """The manifest's rows; each must carry the composition fields."""
    return [row for _, row, _ in _numbered_rows(path)]


def read_records(path) -> list[MixtureRecord]:
    """Load every clip a manifest lists, relative to the manifest's folder.
    Every row's path fields are checked, and then every named file, before
    any file is opened. A clip that fails to load names the manifest and
    the line."""
    rows, base = _numbered_rows(path), Path(path).parent
    for lineno, row, _ in rows:
        for k in _ROW_PATHS:
            if not isinstance(row.get(k), str) or not row[k]:
                raise ValueError(f"{path}: line {lineno}: field {k!r} must be "
                                 f"a non-empty path string, got {row.get(k)!r}")
    for lineno, row, _ in rows:
        for k in _ROW_PATHS:
            if not (base / row[k]).is_file():
                raise ValueError(f"{path}: line {lineno}: field {k!r} names "
                                 f"no file: {base / row[k]}")
    records = []
    for lineno, row, _ in rows:
        try:
            records.append(load_record(row, base))
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    return records


def load_record(row: dict, base_dir) -> MixtureRecord:
    """Rebuild a record from its manifest row and data files. Each WAV must
    hold clip_len samples at the row's sample_rate, and the viseme file the
    frame count simulate_general writes for that length."""
    base = Path(base_dir)
    mixture = audio_io.read_wav(base / row["mixture_path"])
    target = audio_io.read_wav(base / row["target_path"])
    visemes = read_visemes(base / row["visemes_path"])
    rate, length = row["sample_rate"], row["clip_len"]
    for k, clip in (("mixture_path", mixture), ("target_path", target)):
        if (clip.sample_rate, len(clip)) != (rate, length):
            raise ValueError(
                f"field {k!r}: {base / row[k]} holds {len(clip)} samples at "
                f"{clip.sample_rate} Hz; the row says clip_len {length} at "
                f"sample_rate {rate}")
    frames = length * VISEME_FPS // rate
    if len(visemes) != frames:
        raise ValueError(
            f"field 'visemes_path': {base / row['visemes_path']} holds "
            f"{len(visemes)} frames; clip_len {length} at {rate} Hz and "
            f"{VISEME_FPS} fps needs {frames}")
    track = ScenarioTrack.from_triples(row["track"], row["clip_len"])
    return MixtureRecord(
        clip_id=row["clip_id"], mixture=mixture, target_truth=target,
        viseme_stream=visemes, track=track, spec=None,
        occlusion_spans=[tuple(s) for s in row.get("occlusion_spans", [])],
        effective_visual_ratio=float(row["effective_visual_ratio"]),
        components=None)


def write_corpus(cfg: SimConfig, count: int, seed: int, out_dir,
                 occlusion=None, overlapped: bool = False) -> Path:
    """Simulate a corpus to disk; returns the manifest path."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if overlapped and occlusion is not None:
        raise ValueError("--occlusion does not apply to --overlapped corpora, "
                         "which are never occluded")
    out = Path(out_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    if overlapped:
        records = iter_overlapped_corpus(cfg, count, seed)
    else:
        records = iter_corpus(cfg, count, seed, occlusion=occlusion)
    rows = []
    for record in records:
        stem = f"audio/{record.clip_id}"
        audio_io.write_wav(out / f"{stem}.mix.wav", record.mixture)
        audio_io.write_wav(out / f"{stem}.target.wav", record.target_truth)
        write_visemes(out / f"{stem}.visemes.bin", record.viseme_stream)
        rows.append(record_row(record, f"{stem}.mix.wav", f"{stem}.target.wav",
                               f"{stem}.visemes.bin"))
    manifest = out / "manifest.jsonl"
    write_manifest(manifest, rows)
    return manifest


# -- corpus statistics -------------------------------------------------------------------

@dataclass
class StatsReport:
    clip_counts: dict  # bucket -> clips
    kind_hours: dict  # kind -> hours
    total_clips: int

    def table_text(self) -> str:
        lines = ["clips by overlap bucket:"]
        for b in BUCKETS:
            lines.append(f"  {b:>10}  {self.clip_counts.get(b, 0)}")
        lines.append(f"  {'total':>10}  {self.total_clips}")
        lines.append("duration by scenario (hours):")
        for k in KINDS:
            lines.append(f"  {k:>10}  {self.kind_hours.get(k, 0.0):.4f}")
        return "\n".join(lines)


def corpus_stats(manifest_path) -> StatsReport:
    """Clip counts per overlap bucket and total per-kind durations in hours."""
    rows = _numbered_rows(manifest_path)
    counts = {b: 0 for b in BUCKETS}
    kind_samples = {k: 0.0 for k in KINDS}
    for _, row, track in rows:
        counts[clip_bucket(track)] += 1
        sr = row["sample_rate"]
        for kind, samples in track.durations().items():
            kind_samples[kind] += samples / sr / 3600.0
    return StatsReport(clip_counts=counts, kind_hours=kind_samples,
                       total_clips=len(rows))
