"""Evaluation metrics and report tables.

SI-SDR (scale-invariant, dB) scores clips and segments where the target is
present; power (dB/s) scores material where the target is quiet, for which
SI-SDR is undefined. eval_report aggregates both into the standard views:
per-overlap-bucket, per-scenario-kind, power histograms, and the
effective-visual-cue breakdown.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .dsp import _samples
from .scenario import BUCKETS, KINDS, TARGET_SPEAKS, classify_clip, clip_bucket

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
    clip_class: str  # TA | TP
    bucket: str
    clip_metric: float  # SI-SDR for TP clips, power for TA clips
    kind_metrics: dict[str, float]  # per present kind, SI-SDR or power
    effective_visual_ratio: float


@dataclass
class ReportTables:
    records: list[EvalRecord]
    # Whole-clip view: power over TA clips, SI-SDR per overlap bucket over TP.
    ta_power: float | None
    bucket_si_sdr: dict[str, float]
    bucket_counts: dict[str, int]
    overall_si_sdr: float | None
    # Per-kind view: means over clips containing the kind.
    kind_means: dict[str, float]
    kind_counts: dict[str, int]
    # Power histogram per kind: (bin_edges, counts).
    power_hist: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    # Occlusion view: per 5% visual-cue bin, per-kind means and clip count.
    visual_bins: list[dict] = field(default_factory=list)

    def clip_table_text(self) -> str:
        lines = [f"{'bucket':>10} {'n':>6} {'SI-SDR':>9}"]
        if self.ta_power is not None:
            lines.append(f"{'TA':>10} {self.bucket_counts.get('TA', 0):>6} "
                         f"{self.ta_power:>9.2f} (power dB/s)")
        for b in BUCKETS[1:]:
            if b in self.bucket_si_sdr:
                lines.append(f"{b:>10} {self.bucket_counts[b]:>6} "
                             f"{self.bucket_si_sdr[b]:>9.2f}")
        if self.overall_si_sdr is not None:
            lines.append(f"{'average':>10} {sum(self.bucket_counts.get(b, 0) for b in BUCKETS[1:]):>6} "
                         f"{self.overall_si_sdr:>9.2f}")
        return "\n".join(lines)

    def kind_table_text(self) -> str:
        lines = [f"{'kind':>6} {'n':>6} {'metric':>9}"]
        for k in KINDS:
            if k in self.kind_means:
                unit = "SI-SDR dB" if k in TARGET_SPEAKS else "power dB/s"
                lines.append(f"{k:>6} {self.kind_counts[k]:>6} "
                             f"{self.kind_means[k]:>9.2f} ({unit})")
        return "\n".join(lines)


def _mean(vals: list[float]) -> float | None:
    return float(np.mean(vals)) if vals else None


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
        sr = rec.mixture.sample_rate
        track = rec.track
        clip_class = classify_clip(track)
        bucket = clip_bucket(track)
        if clip_class == "TA":
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
            clip_id=rec.clip_id, clip_class=clip_class, bucket=bucket,
            clip_metric=clip_metric, kind_metrics=kind_metrics,
            effective_visual_ratio=rec.effective_visual_ratio))

    ta_vals = [r.clip_metric for r in records if r.clip_class == "TA"]
    bucket_vals: dict[str, list[float]] = {}
    for r in records:
        if r.clip_class == "TP":
            bucket_vals.setdefault(r.bucket, []).append(r.clip_metric)
    tp_vals = [r.clip_metric for r in records if r.clip_class == "TP"]

    kind_means = {}
    kind_counts = {}
    for k in KINDS:
        vals = [r.kind_metrics[k] for r in records if k in r.kind_metrics]
        if vals:
            kind_means[k] = float(np.mean(vals))
            kind_counts[k] = len(vals)

    hist = {}
    for k in KINDS:
        counts, edges = np.histogram(kind_powers[k], bins=POWER_BIN_EDGES)
        hist[k] = (edges, counts)

    visual_bins = []
    for i in range(len(VISUAL_BIN_EDGES) - 1):
        lo, hi = VISUAL_BIN_EDGES[i], VISUAL_BIN_EDGES[i + 1]
        if i == 0:
            members = [r for r in records if lo <= r.effective_visual_ratio <= hi]
        else:
            members = [r for r in records if lo < r.effective_visual_ratio <= hi]
        entry = {"lo": float(lo), "hi": float(hi), "count": len(members)}
        for k in KINDS:
            vals = [r.kind_metrics[k] for r in members if k in r.kind_metrics]
            if vals:
                entry[k] = float(np.mean(vals))
        visual_bins.append(entry)

    bucket_counts = {b: len(v) for b, v in bucket_vals.items()}
    bucket_counts["TA"] = len(ta_vals)
    return ReportTables(
        records=records,
        ta_power=_mean(ta_vals),
        bucket_si_sdr={b: float(np.mean(v)) for b, v in bucket_vals.items()},
        bucket_counts=bucket_counts,
        overall_si_sdr=_mean(tp_vals),
        kind_means=kind_means,
        kind_counts=kind_counts,
        power_hist=hist,
        visual_bins=visual_bins,
    )


def write_report(report: ReportTables, out_dir) -> None:
    """Emit the text tables plus machine-readable CSVs."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(
        report.clip_table_text() + "\n\n" + report.kind_table_text() + "\n")

    with open(out / "records.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["clip_id", "class", "bucket", "clip_metric",
                    "effective_visual_ratio"] + [f"{k}_metric" for k in KINDS])
        for r in report.records:
            w.writerow([r.clip_id, r.clip_class, r.bucket, repr(r.clip_metric),
                        r.effective_visual_ratio]
                       + [repr(r.kind_metrics[k]) if k in r.kind_metrics else ""
                          for k in KINDS])

    with open(out / "clip_view.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bucket", "count", "mean_metric"])
        if report.ta_power is not None:
            w.writerow(["TA", report.bucket_counts.get("TA", 0), report.ta_power])
        for b in BUCKETS[1:]:
            if b in report.bucket_si_sdr:
                w.writerow([b, report.bucket_counts[b], report.bucket_si_sdr[b]])
        if report.overall_si_sdr is not None:
            w.writerow(["average", sum(report.bucket_counts.get(b, 0)
                                       for b in BUCKETS[1:]), report.overall_si_sdr])

    with open(out / "kind_view.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", "count", "mean_metric", "metric"])
        for k in KINDS:
            if k in report.kind_means:
                metric = "si_sdr" if k in TARGET_SPEAKS else "power"
                w.writerow([k, report.kind_counts[k], report.kind_means[k], metric])

    with open(out / "power_hist.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["kind", "bin_edge", "count"])
        for k, (edges, counts) in report.power_hist.items():
            for e, c in zip(edges[:-1], counts):
                w.writerow([k, e, c])

    with open(out / "visual_bins.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lo", "hi", "count"] + list(KINDS))
        for entry in report.visual_bins:
            w.writerow([entry["lo"], entry["hi"], entry["count"]]
                       + [entry.get(k, "") for k in KINDS])

