"""Evaluation metrics and report tables.

SI-SDR (scale-invariant, dB) scores clips and segments where the target is
present; power (dB/s) scores material where the target is quiet, for which
SI-SDR is undefined. eval_report aggregates both into the standard views:
per-overlap-bucket, per-scenario-kind, power histograms, and the
effective-visual-cue breakdown.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import _samples
from .scenario import BUCKETS, KINDS, TARGET_SPEAKS, clip_bucket

EPS = 1e-8

# Effective-visual-cue histogram: twenty 5% intervals.
VISUAL_BIN_EDGES = np.linspace(0.0, 1.0, 21)
# Per-kind output power histogram: 5 dB/s bins from -100 to 60 dB/s.
POWER_BIN_EDGES = np.arange(-100.0, 61.0, 5.0)


def si_sdr(est, ref) -> float:
    """Scale-invariant SDR: project est onto ref, compare signal vs residual."""
    e, r = _samples(est), _samples(ref)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: est {e.shape} vs ref {r.shape}")
    proj = (np.dot(e, r) / (np.dot(r, r) + EPS)) * r
    resid = e - proj
    return float(10.0 * np.log10(
        np.dot(proj, proj) / (np.dot(resid, resid) + EPS) + EPS))


def power_db_per_s(est, sample_rate: int) -> float:
    """Duration-normalized energy, 10*log10(||s_hat||^2 / T_s + eps) in dB/s.

    Digital silence reads -80 dB/s exactly.
    """
    samples = np.asarray(est, dtype=np.float64)
    if len(samples) == 0:
        raise ValueError("power is undefined for a zero-duration clip")
    dur_s = len(samples) / sample_rate
    return float(10.0 * np.log10(np.dot(samples, samples) / dur_s + EPS))


@dataclass
class EvalRecord:
    """Per-clip evaluation: whole-clip metric plus per-kind metrics."""

    clip_id: str
    bucket: str  # clip_bucket: "TA" or the TP overlap bucket
    clip_metric: float  # SI-SDR for TP clips, power for TA clips
    kind_metrics: dict[str, float]  # per present kind, SI-SDR or power
    effective_visual_ratio: float

    @property
    def clip_class(self) -> str:
        return "TA" if self.bucket == "TA" else "TP"


@dataclass
class ReportTables:
    """Every report view. The two tables are dicts in display order, which
    both the text and the CSV renderings iterate."""

    records: list[EvalRecord]
    # Whole-clip view: "TA" (power over TA clips), each TP bucket present
    # (SI-SDR), then "average" (SI-SDR over all TP clips).
    clip_means: dict[str, float]
    clip_counts: dict[str, int]
    # Per-kind view: means over clips containing the kind.
    kind_means: dict[str, float]
    kind_counts: dict[str, int]
    # Power histogram per kind: counts in the POWER_BIN_EDGES bins.
    power_hist: dict[str, np.ndarray]
    # Occlusion view: per 5% visual-cue bin, per-kind means and clip count.
    visual_bins: list[dict]

    def clip_table_text(self) -> str:
        lines = [f"{'bucket':>10} {'n':>6} {'SI-SDR':>9}"]
        for b, m in self.clip_means.items():
            lines.append(f"{b:>10} {self.clip_counts[b]:>6} {m:>9.2f}"
                         + (" (power dB/s)" if b == "TA" else ""))
        return "\n".join(lines)

    def kind_table_text(self) -> str:
        lines = [f"{'kind':>6} {'n':>6} {'metric':>9}"]
        for k, m in self.kind_means.items():
            unit = "SI-SDR dB" if k in TARGET_SPEAKS else "power dB/s"
            lines.append(f"{k:>6} {self.kind_counts[k]:>6} {m:>9.2f} ({unit})")
        return "\n".join(lines)


def _means(groups: dict[str, list[float]]):
    """({key: mean}, {key: count}) over the non-empty groups, in key order."""
    kept = {k: v for k, v in groups.items() if v}
    return ({k: float(np.mean(v)) for k, v in kept.items()},
            {k: len(v) for k, v in kept.items()})


def _kind_means(records: list[EvalRecord]):
    return _means({k: [r.kind_metrics[k] for r in records if k in r.kind_metrics]
                   for k in KINDS})


def eval_report(pairs) -> ReportTables:
    """Score (record, extracted_clip) pairs and aggregate every report view.

    `record` needs: clip_id, mixture (AudioClip), track, effective_visual_ratio.
    Extracted output is compared against record.target_truth at full length.
    """
    records: list[EvalRecord] = []
    kind_powers: dict[str, list[float]] = {k: [] for k in KINDS}

    for rec, est in pairs:
        est_s = _samples(est)
        ref_s = rec.target_truth.samples
        if est_s.shape != ref_s.shape:
            raise ValueError(
                f"clip {rec.clip_id}: extracted length {est_s.shape} does not "
                f"match target {ref_s.shape}")
        if not 0.0 <= rec.effective_visual_ratio <= 1.0:
            raise ValueError(f"clip {rec.clip_id}: effective_visual_ratio "
                             f"{rec.effective_visual_ratio} outside [0, 1]")
        sr = rec.mixture.sample_rate
        track = rec.track
        bucket = clip_bucket(track)
        if bucket == "TA":
            clip_metric = power_db_per_s(est_s, sr)
        else:
            clip_metric = si_sdr(est_s, ref_s)

        kind_metrics: dict[str, float] = {}
        for kind in KINDS:
            mask = track.kind_mask(kind)
            if not mask.any():
                continue
            power = power_db_per_s(est_s[mask], sr)
            kind_powers[kind].append(power)
            kind_metrics[kind] = (si_sdr(est_s[mask], ref_s[mask])
                                  if kind in TARGET_SPEAKS else power)
        records.append(EvalRecord(
            clip_id=rec.clip_id, bucket=bucket, clip_metric=clip_metric,
            kind_metrics=kind_metrics,
            effective_visual_ratio=rec.effective_visual_ratio))

    clip_vals: dict[str, list[float]] = {b: [] for b in BUCKETS}
    for r in records:
        clip_vals[r.bucket].append(r.clip_metric)
    clip_vals["average"] = [r.clip_metric for r in records if r.bucket != "TA"]
    clip_means, clip_counts = _means(clip_vals)
    kind_means, kind_counts = _kind_means(records)

    # Bin i holds ratios in (edge i, edge i+1]; bin 0 also holds 0.
    members: list[list[EvalRecord]] = [[] for _ in VISUAL_BIN_EDGES[1:]]
    bins = np.searchsorted(VISUAL_BIN_EDGES[1:],
                           [r.effective_visual_ratio for r in records])
    for r, b in zip(records, bins):
        members[b].append(r)
    visual_bins = []
    for lo, hi, group in zip(VISUAL_BIN_EDGES[:-1], VISUAL_BIN_EDGES[1:], members):
        means, _ = _kind_means(group)
        visual_bins.append({"lo": float(lo), "hi": float(hi),
                            "count": len(group), **means})

    return ReportTables(
        records=records, clip_means=clip_means, clip_counts=clip_counts,
        kind_means=kind_means, kind_counts=kind_counts,
        power_hist={k: np.histogram(v, bins=POWER_BIN_EDGES)[0]
                    for k, v in kind_powers.items()},
        visual_bins=visual_bins)


def write_report(report: ReportTables, out_dir) -> None:
    """Emit the text tables plus machine-readable CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(
        report.clip_table_text() + "\n\n" + report.kind_table_text() + "\n")
    tables = {
        "records.csv": (
            ["clip_id", "class", "bucket", "clip_metric",
             "effective_visual_ratio"] + [f"{k}_metric" for k in KINDS],
            [[r.clip_id, r.clip_class, r.bucket, repr(r.clip_metric),
              r.effective_visual_ratio]
             + [repr(r.kind_metrics[k]) if k in r.kind_metrics else ""
                for k in KINDS] for r in report.records]),
        "clip_view.csv": (
            ["bucket", "count", "mean_metric"],
            [[b, report.clip_counts[b], m] for b, m in report.clip_means.items()]),
        "kind_view.csv": (
            ["kind", "count", "mean_metric", "metric"],
            [[k, report.kind_counts[k], m,
              "si_sdr" if k in TARGET_SPEAKS else "power"]
             for k, m in report.kind_means.items()]),
        "power_hist.csv": (
            ["kind", "bin_edge", "count"],
            [[k, e, c] for k, counts in report.power_hist.items()
             for e, c in zip(POWER_BIN_EDGES[:-1], counts)]),
        "visual_bins.csv": (
            ["lo", "hi", "count"] + list(KINDS),
            [[e["lo"], e["hi"], e["count"]] + [e.get(k, "") for k in KINDS]
             for e in report.visual_bins]),
    }
    for name, (header, rows) in tables.items():
        with open(out / name, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
