"""Reference computations the benchmark checks usev's outputs against.

Each check returns a list of failure messages; an empty list means the check
passed. The references are written here from the definitions (fsum energies,
the paper's 1e-8 epsilon and loss weights, a strided-conv encoder, an
overlap-add decoder, the RIFF and viseme file layouts), not from values the
program printed, so a fault in the program shows as a disagreement.
"""

from __future__ import annotations

import math
import struct

import numpy as np

EPS = 1e-8
DB_TOL = 1e-9  # dB; metric and SNR agreement
LOSS_RTOL = 1e-9
TENSOR_RTOL = 1e-10
KINDS = ("QQ", "SQ", "SS", "QS")
# Differentiated-loss weights (QQ, SQ, SS, QS) and which kinds take the SDR
# term; the quiet-target kinds take the output-energy term.
PAPER_WEIGHTS = {"QQ": 0.005, "SQ": 1.0, "SS": 1.0, "QS": 0.005}
SDR_KINDS = ("SQ", "SS")
BUCKET_UPPER = ((0.2, "(0,20]%"), (0.4, "(20,40]%"), (0.6, "(40,60]%"),
                (0.8, "(60,80]%"), (1.0, "(80,100]%"))


def _fdot(a, b) -> float:
    return math.fsum((np.asarray(a) * np.asarray(b)).tolist())


def _fsq(a) -> float:
    return _fdot(a, a)


def _kind_samples(x, triples, kind) -> np.ndarray:
    parts = [x[a:b] for a, b, k in triples if k == kind]
    return np.concatenate(parts) if parts else np.zeros(0)


def _durations(triples) -> dict[str, int]:
    out = dict.fromkeys(KINDS, 0)
    for a, b, k in triples:
        out[k] += b - a
    return out


def oracle_si_sdr(est, ref) -> float:
    scale = _fdot(est, ref) / (_fsq(ref) + EPS)
    proj = scale * np.asarray(ref)
    return 10 * math.log10(_fsq(proj) / (_fsq(np.asarray(est) - proj) + EPS) + EPS)


def si_sdr_tol(est, ref) -> float:
    """DB_TOL widened by how far a float64 dot product of est and ref can
    stray when its terms cancel: the projection energy goes with the square
    of that dot product."""
    dot = abs(_fdot(est, ref))
    mag = _fdot(np.abs(est), np.abs(ref))
    if mag == 0.0:
        return DB_TOL
    rel = len(est) * np.finfo(np.float64).eps * mag / max(dot, np.finfo(np.float64).tiny)
    return DB_TOL + 20 / math.log(10) * rel


def oracle_power(est, sample_rate: int) -> float:
    return 10 * math.log10(_fsq(est) / (len(est) / sample_rate) + EPS)


def oracle_differentiated(est, ref, triples, weights=PAPER_WEIGHTS) -> float:
    total = 0.0
    for kind in KINDS:
        e = _kind_samples(est, triples, kind)
        if not len(e):
            continue
        if kind in SDR_KINDS:
            r = _kind_samples(ref, triples, kind)
            term = -10 * math.log10(_fsq(r) / (_fsq(e - r) + EPS) + EPS)
        else:
            term = 10 * math.log10(_fsq(e) + EPS)
        total += weights[kind] * term
    return total


def oracle_bucket(triples) -> str:
    d = _durations(triples)
    if d["SQ"] == 0 and d["SS"] == 0:
        return "TA"
    ratio = d["SS"] / (d["SS"] + d["SQ"] + d["QS"])
    if ratio == 0.0:
        return "0%"
    return next(name for upper, name in BUCKET_UPPER if ratio <= upper)


def _close_db(a, b, tol: float = DB_TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


# -- evaluation reports -----------------------------------------------------------

def check_report(report, pairs, label: str) -> list[str]:
    """eval_report's per-clip and per-kind values against the fsum oracle."""
    errs = []
    if len(report.records) != len(pairs):
        return [f"{label}: {len(report.records)} report rows for {len(pairs)} clips"]
    kind_vals: dict[str, list[float]] = {k: [] for k in KINDS}
    kind_tol = dict.fromkeys(KINDS, DB_TOL)
    for row, (rec, est) in zip(report.records, pairs):
        est = np.asarray(getattr(est, "samples", est), dtype=np.float64)
        ref = rec.target_truth.samples
        sr = rec.mixture.sample_rate
        triples = rec.track.to_triples()
        ta = oracle_bucket(triples) == "TA"
        if ta:
            want, tol = oracle_power(est, sr), DB_TOL
        else:
            want, tol = oracle_si_sdr(est, ref), si_sdr_tol(est, ref)
        if not _close_db(row.clip_metric, want, tol):
            errs.append(f"{label} {rec.clip_id}: clip metric {row.clip_metric!r}, "
                        f"reference {want!r}")
        for kind in KINDS:
            e = _kind_samples(est, triples, kind)
            if not len(e):
                if kind in row.kind_metrics:
                    errs.append(f"{label} {rec.clip_id}: {kind} scored but absent")
                continue
            if kind in SDR_KINDS:
                r = _kind_samples(ref, triples, kind)
                want, tol = oracle_si_sdr(e, r), si_sdr_tol(e, r)
            else:
                want, tol = oracle_power(e, sr), DB_TOL
            kind_vals[kind].append(want)
            kind_tol[kind] = max(kind_tol[kind], tol)
            if not _close_db(row.kind_metrics.get(kind), want, tol):
                errs.append(f"{label} {rec.clip_id}: {kind} metric "
                            f"{row.kind_metrics.get(kind)!r}, reference {want!r}")
    for kind, vals in kind_vals.items():
        want = math.fsum(vals) / len(vals) if vals else None
        if vals and not _close_db(report.kind_means.get(kind), want, kind_tol[kind]):
            errs.append(f"{label}: {kind} mean {report.kind_means.get(kind)!r}, "
                        f"reference {want!r}")
    return errs


def check_outputs(pairs) -> list[str]:
    """Extracted waveforms are finite and exactly as long as their mixtures."""
    errs = []
    for rec, est in pairs:
        est = np.asarray(getattr(est, "samples", est))
        if est.shape != rec.mixture.samples.shape:
            errs.append(f"{rec.clip_id}: output shape {est.shape}, "
                        f"input {rec.mixture.samples.shape}")
        elif not np.all(np.isfinite(est)):
            errs.append(f"{rec.clip_id}: non-finite output")
    return errs


# -- losses and network stages ------------------------------------------------------

def check_loss(graph_value: float, ests, records) -> list[str]:
    """Batch-mean graph loss against the mean fsum differentiated loss."""
    want = math.fsum(oracle_differentiated(np.asarray(e), r.target_truth.samples,
                                           r.track.to_triples())
                     for e, r in zip(ests, records)) / len(records)
    if not abs(graph_value - want) <= LOSS_RTOL * max(1.0, abs(want)):
        return [f"differentiated loss {graph_value!r}, reference {want!r}"]
    return []


def reference_encode(params, samples, kernel: int, hop: int) -> np.ndarray:
    """relu(W @ frames + b): the strided conv written as one matmul."""
    x = np.asarray(samples, dtype=np.float64)
    n_frames = (len(x) - kernel) // hop + 1
    frames = x[hop * np.arange(n_frames)[:, None] + np.arange(kernel)[None, :]]
    w = params["enc.w"][:, 0, :]
    return np.maximum(w @ frames.T + params["enc.b"][:, None], 0.0)


def reference_decode(params, masked, hop: int, out_len: int) -> np.ndarray:
    """Frames = W @ masked + b, overlap-added at `hop`, cut or padded."""
    frames = params["dec.w"] @ masked + params["dec.b"]
    kernel, n_frames = frames.shape
    wave = np.zeros(max(out_len, (n_frames - 1) * hop + kernel))
    for t in range(n_frames):
        wave[t * hop : t * hop + kernel] += frames[:, t]
    return wave[:out_len]


def check_tensor(name: str, got, want) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, reference {want.shape}"]
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= TENSOR_RTOL * scale:
        return [f"{name}: max deviation {err!r} from the reference"]
    return []


# -- simulation and files -----------------------------------------------------------

def check_mixtures(records, ta_reference_rms: float) -> list[str]:
    """Mixture = target + interference + noise sample-exactly, and every
    requested SNR re-measures from the stored components."""
    errs = []
    for rec in records:
        comps = rec.components
        total = np.zeros(len(rec.mixture))
        for part in comps.values():
            total = total + part
        if not np.array_equal(total, rec.mixture.samples):
            bad = int(np.count_nonzero(total != rec.mixture.samples))
            errs.append(f"{rec.clip_id}: mixture differs from its components "
                        f"at {bad} samples")
        spec = rec.spec
        if spec.target_absent:
            ref_e = ta_reference_rms**2 * spec.clip_len
        else:
            ref_e = _fsq(comps["target"])
        wanted = [(f"interference_{j}", snr) for j, snr in enumerate(spec.snr_db)]
        if spec.noise_snr_db is not None:
            wanted.append(("noise", spec.noise_snr_db))
        for name, snr in wanted:
            got = 10 * math.log10(ref_e / _fsq(comps[name]))
            if not abs(got - snr) <= DB_TOL:
                errs.append(f"{rec.clip_id}: {name} at {got!r} dB, "
                            f"requested {snr!r} dB")
    return errs


def read_riff_float32(path) -> tuple[int, bytes]:
    """(sample rate, data payload) of a mono 32-bit float WAV file."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(blob):
        cid, size = blob[pos : pos + 4], struct.unpack("<I", blob[pos + 4 : pos + 8])[0]
        body = blob[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _, _, bits = fmt
    if tag != 3 or channels != 1 or bits != 32:
        raise ValueError(f"{path}: not mono float32 (tag {tag}, "
                         f"{channels} ch, {bits} bit)")
    return rate, data


def check_files(records, rows, base_dir, fps: int) -> list[str]:
    """Every WAV and viseme file holds exactly the float32 cast of its array,
    and each manifest row carries its record's track."""
    errs = []
    if len(rows) != len(records):
        return [f"manifest has {len(rows)} rows for {len(records)} clips"]
    for rec, row in zip(records, rows):
        if row["clip_id"] != rec.clip_id:
            errs.append(f"manifest row {row['clip_id']} where {rec.clip_id} belongs")
            continue
        if [list(t) for t in row["track"]] != [list(t) for t in rec.track.to_triples()]:
            errs.append(f"{rec.clip_id}: manifest track differs from the simulation")
        for key, clip in (("mixture_path", rec.mixture), ("target_path", rec.target_truth)):
            rate, data = read_riff_float32(base_dir / row[key])
            if rate != clip.sample_rate or data != clip.samples.astype("<f4").tobytes():
                errs.append(f"{rec.clip_id}: {row[key]} is not the float32 cast "
                            "of its array")
        with open(base_dir / row["visemes_path"], "rb") as f:
            blob = f.read()
        frames = rec.viseme_stream
        header = b"VISM" + struct.pack("<III", frames.shape[0], frames.shape[1], fps)
        if blob != header + frames.astype("<f4").tobytes():
            errs.append(f"{rec.clip_id}: {row['visemes_path']} is not the float32 "
                        "cast of its viseme array")
    return errs


def check_buckets(rows, stats) -> list[str]:
    """Overlap-bucket counts recomputed from the manifest's track triples."""
    want: dict[str, int] = {}
    for row in rows:
        b = oracle_bucket(row["track"])
        want[b] = want.get(b, 0) + 1
    got = {b: n for b, n in stats.clip_counts.items() if n}
    if got != want or stats.total_clips != len(rows):
        return [f"corpus_stats buckets {got}, recomputed {want}"]
    return []


# -- training ---------------------------------------------------------------------------

def check_val_drop(history) -> list[str]:
    """The last validation loss is finite and below the epoch-0 value."""
    first, last = history[0]["val_loss"], history[-1]["val_loss"]
    if not (math.isfinite(last) and last < first):
        return [f"validation loss {first!r} at epoch 0, {last!r} at the end"]
    return []


def check_state(name: str, got: dict, want: dict) -> list[str]:
    """Two parameter dicts agree bit for bit."""
    if set(got) != set(want):
        return [f"{name}: tensor names differ"]
    bad = [k for k in want if got[k].shape != want[k].shape
           or got[k].tobytes() != want[k].tobytes()]
    return [f"{name}: {len(bad)} tensors differ, first {bad[0]}"] if bad else []
