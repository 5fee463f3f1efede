"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The tiny-overfit run (criterion 7) is the slow one; everything else
finishes in well under its stated budget.
"""

import math
import time

import numpy as np
import pytest

from usev import autodiff as ad
from usev.autodiff import chunk_geometry
from usev.dsp import VISEME_FPS, add_frames, gather_frames, measure_snr_db
from usev.gradcheck import MODEL_TOL, OP_CHECKS, OP_TOL, run_gradcheck
from usev.harness import TrainConfig, learning_rate, train_step
from usev.losses import (EPS as LOSS_EPS, LossWeights, loss_differentiated,
                         tensor_loss_differentiated, tensor_loss_energy,
                         tensor_loss_sdr, tensor_loss_uniform)
from usev.metrics import EPS as METRIC_EPS
from usev.metrics import eval_report, power_db_per_s, si_sdr
from usev.mixsim import (SimConfig, apply_occlusion, corpus_stats, iter_corpus,
                         write_corpus, write_manifest)
from usev.model import UsevConfig, UsevNet
from usev.scenario import (clip_bucket, label_scenarios, overlap_bucket,
                           overlap_ratio)
from usev.workers import clip_map


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# -- criterion 1: metric/loss oracle equivalence --------------------------------

# Exact compensated summation (math.fsum) is the oracle's summation
# algorithm, independent of numpy's pairwise np.sum/np.dot path; the
# elementwise squares feeding it are the same either way.

def _fsq(a):
    return math.fsum(np.square(np.asarray(a)).tolist())


def _oracle_all(est, ref, sr):
    sq_e, sq_r, sq_d = _fsq(est), _fsq(ref), _fsq(est - ref)
    dot = math.fsum((est * ref).tolist())
    scale = dot / (sq_r + 1e-8)
    proj = scale * ref
    sq_p = _fsq(proj)
    sq_res = _fsq(est - proj)
    return {
        "uniform": -10 * math.log10((sq_r + 1e-8) / (sq_d + 1e-8)),
        "sdr": -10 * math.log10(sq_r / (sq_d + 1e-8) + 1e-8),
        "energy": 10 * math.log10(sq_e + 1e-8),
        "si_sdr": 10 * math.log10(sq_p / (sq_res + 1e-8) + 1e-8),
        "power": 10 * math.log10(sq_e / (len(est) / sr) + 1e-8),
    }


def _oracle_differentiated(est, ref, track, w):
    total = 0.0
    for kind, weight in (("QQ", w.alpha), ("SQ", w.beta),
                         ("SS", w.gamma), ("QS", w.delta)):
        runs = [(a, b) for a, b, k in track.to_triples() if k == kind]
        if not runs:
            continue
        e = np.concatenate([est[a:b] for a, b in runs])
        r = np.concatenate([ref[a:b] for a, b in runs])
        if kind in ("SQ", "SS"):
            total += weight * (-10 * math.log10(
                _fsq(r) / (_fsq(e - r) + 1e-8) + 1e-8))
        else:
            total += weight * (10 * math.log10(_fsq(e) + 1e-8))
    return total


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _span_mask(rng, n):
    """Alternating active/quiet runs of random length, like real activity."""
    mask = np.zeros(n, dtype=bool)
    pos = 0
    active = bool(rng.integers(2))
    while pos < n:
        run = int(rng.integers(1, max(2, n // 4)))
        if active:
            mask[pos : pos + run] = True
        pos += run
        active = not active
    return mask


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    sr = 8000
    worst = 0.0
    w = LossWeights()
    for _ in range(1000):
        n = int(rng.integers(100, 50001))
        ref = np.where(_span_mask(rng, n), rng.standard_normal(n), 0.0)
        est = rng.standard_normal(n)
        want = _oracle_all(est, ref, sr)
        e = ad.Tensor(est)
        worst = max(
            worst,
            _rel(tensor_loss_uniform(e, ref).item(), want["uniform"]),
            _rel(tensor_loss_sdr(e, ref).item(), want["sdr"]),
            _rel(tensor_loss_energy(e).item(), want["energy"]),
            _rel(si_sdr(est, ref), want["si_sdr"]),
            _rel(power_db_per_s(est, sr), want["power"]),
        )
        t_mask = ref != 0.0
        if t_mask.any():
            track = label_scenarios(t_mask, _span_mask(rng, n))
            worst = max(worst, _rel(loss_differentiated(est, ref, track, w),
                                    _oracle_differentiated(est, ref, track, w)))
    elapsed = time.time() - t0
    report(1, worst <= 1e-9 and elapsed < 60.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s for 1000 pairs")


# -- criterion 2: fixed constants --------------------------------------------------

def test_criterion_2_constants():
    silence = power_db_per_s(np.zeros(16000), 16000)
    exact80 = silence == 10 * math.log10(1e-8) and \
        silence == pytest.approx(-80.0, abs=1e-12)
    eps_ok = LOSS_EPS == METRIC_EPS == ad.LN_EPS == 1e-8
    w = LossWeights()
    weights_ok = (w.alpha, w.beta, w.gamma, w.delta) == (0.005, 1.0, 1.0, 0.005)
    report(2, exact80 and eps_ok and weights_ok,
           f"silence {silence} dB/s, eps {LOSS_EPS}, weights "
           f"{(w.alpha, w.beta, w.gamma, w.delta)}")


# -- criterion 3: scenario algebra ---------------------------------------------------

def test_criterion_3_scenario_algebra():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    kind_of = {(0, 0): "QQ", (1, 0): "SQ", (1, 1): "SS", (0, 1): "QS"}
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        t = rng.random(n) < rng.uniform(0.1, 0.9)
        i = rng.random(n) < rng.uniform(0.1, 0.9)
        track = label_scenarios(t, i)
        per_sample = [None] * n
        for start, end, kind in track.to_triples():
            for j in range(start, end):
                per_sample[j] = kind
        want = [kind_of[(int(a), int(b))] for a, b in zip(t, i)]
        assert per_sample == want

    # 20 crafted tracks: (SS, SQ, QS, QQ) second-durations -> ratio, bucket
    crafted = [
        ((2, 1, 1, 0), 0.5, "(40,60]%"),
        ((0, 3, 0, 1), 0.0, "0%"),
        ((0, 0, 0, 4), None, "TA"),
        ((1, 4, 0, 0), 0.2, "(0,20]%"),
        ((4, 0, 0, 0), 1.0, "(80,100]%"),
        ((1, 0, 4, 0), 0.2, "(0,20]%"),
        ((2, 0, 8, 0), 0.2, "(0,20]%"),
        ((21, 0, 79, 0), 0.21, "(20,40]%"),
        ((2, 2, 1, 1), 0.4, "(20,40]%"),
        ((41, 59, 0, 0), 0.41, "(40,60]%"),
        ((3, 1, 1, 0), 0.6, "(40,60]%"),
        ((61, 39, 0, 2), 0.61, "(60,80]%"),
        ((4, 1, 0, 1), 0.8, "(60,80]%"),
        ((81, 19, 0, 0), 0.81, "(80,100]%"),
        ((99, 1, 0, 0), 0.99, "(80,100]%"),
        # interference-only clips: the ratio denominator is QS > 0 so the
        # ratio is a defined 0.0, but the clip is still target-absent
        ((0, 0, 5, 5), 0.0, "TA"),
        ((0, 1, 0, 0), 0.0, "0%"),
        ((0, 0, 1, 0), 0.0, "TA"),
        ((1, 1, 2, 0), 0.25, "(20,40]%"),
        ((10, 30, 10, 50), 0.2, "(0,20]%"),
    ]
    assert len(crafted) == 20
    sr = 100
    for (ss, sq, qs, qq), want_ratio, want_bucket in crafted:
        t = np.array([1] * (ss * sr) + [1] * (sq * sr)
                     + [0] * (qs * sr) + [0] * (qq * sr), dtype=bool)
        i = np.array([1] * (ss * sr) + [0] * (sq * sr)
                     + [1] * (qs * sr) + [0] * (qq * sr), dtype=bool)
        track = label_scenarios(t, i)
        ratio = overlap_ratio(track)
        if want_ratio is None:
            assert ratio is None
            assert overlap_bucket(ratio) == "TA"
        else:
            assert ratio == pytest.approx(want_ratio, abs=1e-12)
        assert clip_bucket(track) == want_bucket
    elapsed = time.time() - t0
    report(3, elapsed < 10.0, f"1000 brute-force pairs + 20 crafted tracks, "
                              f"{elapsed:.1f}s")


# -- criterion 4: gradient verification ----------------------------------------------

def test_criterion_4_gradients():
    t0 = time.time()
    *ops, model = run_gradcheck(seeds=20)  # the route `usev gradcheck` runs
    elapsed = time.time() - t0
    assert [r.name for r in ops] == list(OP_CHECKS)
    assert all(r.tol == OP_TOL for r in ops) and model.tol == MODEL_TOL
    failed = [r.name for r in (*ops, model) if not r.passed]
    worst_op = max(r.max_err for r in ops)
    report(4, not failed and elapsed < 300,
           f"ops max {worst_op:.2e} (tol 1e-5), model {model.max_err:.2e} "
           f"(tol 1e-4), {elapsed:.0f}s, failed {failed}")


# -- criterion 5: structural identities --------------------------------------------------

def test_criterion_5_structural_identities():
    rng = np.random.default_rng(1005)
    # frame/overlap-add adjoint
    for _ in range(50):
        n = int(rng.integers(20, 500))
        flen = int(rng.integers(2, min(n, 40) + 1))
        hop = int(rng.integers(1, flen + 1))
        x = rng.standard_normal(n)
        frames = gather_frames(x, flen, hop)
        y = rng.standard_normal(frames.shape)
        lhs = float(np.sum(frames * y))
        ola = add_frames(y, hop)
        rhs = float(np.dot(x[: len(ola)], ola))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    # chunk round trip + P formula
    for _ in range(50):
        b = int(rng.integers(1, 4))
        t_len = int(rng.integers(2, 300))
        k = 2 * int(rng.integers(1, 20))
        x = rng.standard_normal((b, t_len))
        back = ad.aggregate_chunks(ad.segment_chunks(ad.Tensor(x), k), t_len)
        assert np.max(np.abs(back.data - x)) <= 1e-12
    for k in (4, 16, 100):
        for mult in (1, 2, 5):
            t_len = mult * (k // 2)
            assert chunk_geometry(t_len, k)[3] == 2 * t_len // k + 1

    # decoder length contract
    cfg = UsevConfig()
    net = UsevNet(cfg, seed=0)
    for n in (400, 555, 8000):
        x = rng.standard_normal(n)
        spf = cfg.sample_rate // VISEME_FPS
        v = rng.uniform(0, 1, (max(1, -(-n // spf)), cfg.visual_dim))
        assert net.forward(x, v).shape == (n,)
    report(5, True, "adjoint <=1e-12, round trip <=1e-12, P formula, "
                    "decode length")


# -- criterion 6: simulation soundness --------------------------------------------------

def test_criterion_6_simulation_soundness():
    t0 = time.time()
    cfg = SimConfig()
    kinds = set()
    buckets = set()
    worst_snr = 0.0
    worst_recon = 0.0
    for rec in iter_corpus(cfg, 500, seed=1006):
        kinds.update(kind for _, _, kind in rec.track.to_triples())
        buckets.add(clip_bucket(rec.track))
        resid = rec.mixture.samples - sum(rec.components.values())
        worst_recon = max(worst_recon, float(np.max(np.abs(resid))))
        if not rec.spec.target_absent:
            for j, want in enumerate(rec.spec.snr_db):
                got = measure_snr_db(rec.target_truth,
                                     rec.components[f"interference_{j}"])
                worst_snr = max(worst_snr, abs(got - want))
    all_kinds = kinds == {"QQ", "SQ", "SS", "QS"}
    all_buckets = buckets == {"TA", "0%", "(0,20]%", "(20,40]%", "(40,60]%",
                              "(60,80]%", "(80,100]%"}

    # 10-clip hand-counted stats fixture
    rows = []
    want_counts = {"TA": 2, "0%": 1, "(0,20]%": 1, "(40,60]%": 5,
                   "(80,100]%": 1}
    layout = [(0, 0, 0, 4)] * 2 + [(0, 3, 1, 0)] + [(1, 4, 0, 0)] \
        + [(1, 1, 0, 2)] * 5 + [(9, 1, 0, 0)]
    sr = 1000
    for k, (ss, sq, qs, qq) in enumerate(layout):
        t = np.array([1] * (ss + sq) * sr + [0] * (qs + qq) * sr, dtype=bool)
        i = np.array([1] * ss * sr + [0] * sq * sr + [1] * qs * sr
                     + [0] * qq * sr, dtype=bool)
        track = label_scenarios(t, i)
        rows.append({"clip_id": f"c{k}", "sample_rate": sr,
                     "clip_len": track.clip_len,
                     "track": track.to_triples(),
                     "effective_visual_ratio": 1.0})
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.jsonl"
        write_manifest(path, rows)
        stats = corpus_stats(path)
    counts_ok = all(stats.clip_counts.get(b, 0) == c
                    for b, c in want_counts.items())
    hours_ok = stats.kind_hours["QQ"] == pytest.approx(
        (4 * 2 + 2 * 5) / 3600.0)
    elapsed = time.time() - t0
    report(6, worst_snr <= 1e-9 and worst_recon <= 1e-12 and all_kinds
           and all_buckets and counts_ok and hours_ok,
           f"snr err {worst_snr:.2e} dB, recon {worst_recon:.2e}, "
           f"buckets {sorted(buckets)}, {elapsed:.0f}s")


# -- criterion 7: desk-scale overfit ------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_desk_scale_overfit():
    t0 = time.time()
    # Loud interference and noise give the mixture a solid QQ/QS power
    # baseline; the differentiated loss (default weights) must then both
    # reconstruct SS speech and mute the quiet-target material.
    sim = SimConfig(sample_rate=8000, clip_s=(0.92, 1.0),
                    utterance_s=(3.0, 4.0), n_utterances=8, n_speakers=4,
                    snr_db=(-10.0, -6.0), noisy=True,
                    noise_snr_db=(-5.0, 5.0))
    records = list(iter_corpus(sim, 8, seed=7))
    assert all(len(r.mixture) <= sim.sample_rate for r in records)
    model_cfg = UsevConfig(sample_rate=8000, encoder_dim=64, kernel_len=40,
                           bottleneck=16, repeats=2, chunk=16, visual_dim=8)
    cfg = TrainConfig(lr0=2e-3, lr_decay_per_epoch=0.995, max_epochs=400,
                      patience=1000, batch_size=4, clip_truncate_s=1.0,
                      loss="differentiated", weights=LossWeights(), seed=0)
    model = UsevNet(model_cfg, seed=cfg.seed)
    opt = ad.Adam(model.trainable_params(), lr=cfg.lr0)
    rng = np.random.default_rng(0)
    steps = 0
    # The shipped training step on whole clips, in this test's own batch
    # order, with the clips of a step on train's worker pool.
    with clip_map(model, cfg.batch_size, share=True) as map_clips:
        for epoch in range(cfg.max_epochs):
            opt.lr = learning_rate(cfg, epoch)
            order = rng.permutation(len(records))
            for step, start in enumerate(range(0, len(order), cfg.batch_size)):
                batch = [records[int(i)]
                         for i in order[start : start + cfg.batch_size]]
                train_step(cfg, model, opt,
                           [(rec.mixture.samples, rec.target_truth.samples,
                             rec.viseme_stream, rec.track) for rec in batch],
                           epoch, step, [rec.clip_id for rec in batch],
                           map_clips)
                steps += 1
    assert steps >= 200

    ss_mix, ss_est, q_mix, q_est = [], [], [], []
    sr = records[0].mixture.sample_rate
    with ad.no_grad(model.params.values()):
        for rec in records:
            est = model.forward(rec.mixture.samples, rec.viseme_stream).data
            mix, ref = rec.mixture.samples, rec.target_truth.samples
            ss = rec.track.kind_mask("SS")
            if ss.any():
                ss_mix.append(si_sdr(mix[ss], ref[ss]))
                ss_est.append(si_sdr(est[ss], ref[ss]))
            for kind in ("QQ", "QS"):
                m = rec.track.kind_mask(kind)
                if m.any():
                    q_mix.append(power_db_per_s(mix[m], sr))
                    q_est.append(power_db_per_s(est[m], sr))
    ss_gain = float(np.mean(ss_est) - np.mean(ss_mix))
    q_drop = float(np.mean(q_mix) - np.mean(q_est))
    elapsed = time.time() - t0
    report(7, ss_gain >= 5.0 and q_drop >= 10.0 and elapsed < 1800,
           f"{steps} steps, SS si-sdr gain {ss_gain:+.2f} dB (need >=5), "
           f"QQ/QS power drop {q_drop:+.2f} dB (need >=10), {elapsed:.0f}s")


# -- criterion 8: differentiated-loss selectivity -------------------------------------------

def test_criterion_8_loss_selectivity(backward_runs):
    rng = np.random.default_rng(1008)
    n = 4000
    t = rng.random(n) < 0.5
    i = rng.random(n) < 0.5
    track = label_scenarios(t, i)
    ref = np.where(t, rng.standard_normal(n), 0.0)

    est = ad.Tensor(rng.standard_normal(n), requires_grad=True)
    loss = tensor_loss_differentiated(est, ref, track,
                                      LossWeights(0.0, 1.0, 1.0, 0.0))
    order = ad.toposort(loss)
    loss.backward()
    single_visit = all(backward_runs[node] == 1 for node in order
                       if node._backward_fn is not None)
    quiet = track.kind_mask("QQ") | track.kind_mask("QS")
    quiet_zero = bool(np.all(est.grad[quiet] == 0.0)
                      and np.any(est.grad[~quiet] != 0.0))

    est2 = ad.Tensor(rng.standard_normal(n), requires_grad=True)
    tensor_loss_differentiated(est2, ref, track,
                               LossWeights(1.0, 0.0, 0.0, 1.0)).backward()
    speech = track.kind_mask("SQ") | track.kind_mask("SS")
    speech_zero = bool(np.all(est2.grad[speech] == 0.0)
                       and np.any(est2.grad[~speech] != 0.0))
    report(8, quiet_zero and speech_zero and single_visit,
           "exact zero grads on masked kinds; single-visit backward")


# -- criterion 9: occlusion pipeline ----------------------------------------------------------

def test_criterion_9_occlusion():
    sim = SimConfig(clip_s=(2.0, 2.4), utterance_s=(3.0, 4.0),
                    n_utterances=8, n_speakers=4)
    bank_records = list(iter_corpus(sim, 3, seed=1009))
    rec = bank_records[0]
    n = rec.viseme_stream.shape[0]
    r0 = apply_occlusion(rec, 1, (0.0, 0.0))
    r_half = apply_occlusion(rec, 2, (0.5, 0.5))
    r1 = apply_occlusion(rec, 3, (1.0, 1.0))
    ratios_ok = (r0.effective_visual_ratio == 1.0
                 and abs(r_half.effective_visual_ratio - 0.5) <= 1.0 / n
                 and r1.effective_visual_ratio == 0.0)

    # occlusion evaluation view bins into twenty 5% intervals
    pairs = []
    for k, frac in enumerate(np.linspace(0, 1, 12)):
        occluded = apply_occlusion(bank_records[k % 3], 10 + k, (frac, frac))
        pairs.append((occluded, occluded.target_truth))
    view = eval_report(pairs).visual_bins
    bins_ok = len(view) == 20 and all(
        b["hi"] - b["lo"] == pytest.approx(0.05) for b in view)
    total = sum(b["count"] for b in view)
    report(9, ratios_ok and bins_ok and total == len(pairs),
           f"ratios (1.0, ~0.5, 0.0); {len(view)} bins of 5%")


# -- criterion 10: reproducibility -------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    sim = SimConfig(clip_s=(0.6, 0.8), utterance_s=(3.0, 4.0),
                    n_utterances=8, n_speakers=4, noisy=True)
    m1 = write_corpus(sim, 3, seed=1010, out_dir=tmp_path / "a",
                      occlusion=(0.2, 0.6))
    m2 = write_corpus(sim, 3, seed=1010, out_dir=tmp_path / "b",
                      occlusion=(0.2, 0.6))
    manifests_equal = m1.read_bytes() == m2.read_bytes()
    audio_equal = all(
        (tmp_path / "a" / "audio" / f).read_bytes()
        == (tmp_path / "b" / "audio" / f).read_bytes()
        for f in ("clip-000000.mix.wav", "clip-000000.target.wav",
                  "clip-000000.visemes.bin", "clip-000002.mix.wav"))

    from usev.harness import train
    records = list(iter_corpus(sim, 3, seed=1010))
    model_cfg = UsevConfig(sample_rate=8000, encoder_dim=8, kernel_len=8,
                           bottleneck=4, repeats=1, chunk=8, vtcn_repeats=1,
                           visual_dim=8)
    cfg = TrainConfig(lr0=0.001, max_epochs=2, batch_size=2,
                      clip_truncate_s=0.5, loss="differentiated", seed=77)
    r1 = train(cfg, model_cfg, records, records, tmp_path / "t1")
    r2 = train(cfg, model_cfg, records, records, tmp_path / "t2")
    logs_equal = r1.loss_log_path.read_bytes() == r2.loss_log_path.read_bytes()
    report(10, manifests_equal and audio_equal and logs_equal,
           "bit-identical manifests, audio, viseme files, loss logs")
