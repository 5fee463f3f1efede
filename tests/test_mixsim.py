import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from usev import synth
from usev.dsp import VISEME_FPS, energy, measure_snr_db
from usev.mixsim import (MixtureSpec, SimConfig, apply_occlusion, corpus_stats,
                         iter_corpus, iter_overlapped_corpus, load_record,
                         plan_clip, read_manifest, read_visemes, record_row,
                         simulate_clip, simulate_general, write_corpus,
                         write_manifest, write_visemes, _window_overlap)
from usev.scenario import (classify_clip, clip_bucket, label_scenarios,
                           overlap_bucket, overlap_ratio)
from usev.synth import UtteranceBank, colored_noise, gen_utterance

CFG = SimConfig()
FAST = SimConfig(clip_s=(1.0, 1.6), utterance_s=(3.0, 4.0), n_utterances=12,
                 n_speakers=6)


@pytest.fixture(scope="module")
def bank():
    return UtteranceBank(CFG, seed=11, count=8)


def reference_utterance(seed, duration_s, cfg, duty, speaker):
    """gen_utterance written plainly: one harmonic at a time per phoneme and
    one viseme frame at a time, with the same random draws in order."""
    rng = np.random.default_rng(seed)
    sr = cfg.sample_rate
    n = int(round(duration_s * sr))
    f0 = synth.speaker_f0(speaker, cfg.n_speakers) * rng.uniform(0.97, 1.03)
    if duty >= 1.0:
        activity = np.ones(n, dtype=bool)
    else:
        activity = synth._activity_pattern(rng, n, sr, duty, (0.5, 1.8))
    audio = np.zeros(n)
    phoneme = np.full(n, -1, dtype=np.int32)
    ramp_n = int(0.02 * sr)
    edges = np.flatnonzero(np.diff(activity.astype(np.int8)))
    bounds = np.concatenate(([0], edges + 1, [n]))
    for a, b in zip(bounds[:-1], bounds[1:]):
        if not activity[a]:
            continue
        pos = a
        while pos < b:
            ph_n = min(b - pos, max(1, int(round(rng.uniform(0.08, 0.25) * sr))))
            ph = int(rng.integers(20))
            jitter = rng.uniform(0.97, 1.03)
            amps = rng.uniform(0.2, 1.0, size=4) * (0.6 ** np.arange(4))
            phases = rng.uniform(0.0, 2.0 * np.pi, size=4)
            t = np.arange(ph_n) / sr
            seg = np.zeros(ph_n)
            for h in range(4):
                seg += amps[h] * np.sin(2.0 * np.pi * f0 * jitter * (h + 1) * t
                                        + phases[h])
            r = min(ramp_n, ph_n // 3)
            if r > 0:
                win = 0.5 - 0.5 * np.cos(np.pi * np.arange(r) / r)
                seg[:r] *= win
                seg[-r:] *= win[::-1]
            audio[pos : pos + ph_n] = seg
            phoneme[pos : pos + ph_n] = ph
            pos += ph_n
    rms = np.sqrt(np.mean(audio[activity] ** 2))
    if rms > 0:
        audio *= 0.1 / rms
    audio[~activity] = 0.0
    spf = sr // VISEME_FPS
    basis = synth.viseme_basis(cfg.visual_dim)
    frames = np.zeros((-(-n // spf), cfg.visual_dim))
    for k in range(len(frames)):
        a, b = k * spf, min(n, k * spf + spf)
        center = min(n - 1, a + spf // 2)
        if activity[center]:
            frames[k] = np.sqrt(np.mean(audio[a:b] ** 2)) * basis[phoneme[center]]
    return audio, activity, frames, f"spk{speaker:03d}"


class TestGenUtterance:
    def test_deterministic(self):
        a = gen_utterance(123, 4.0, CFG, duty=0.6, speaker=1)
        b = gen_utterance(123, 4.0, CFG, duty=0.6, speaker=1)
        assert np.array_equal(a.clip.samples, b.clip.samples)
        assert np.array_equal(a.viseme_frames, b.viseme_frames)
        assert np.array_equal(a.activity, b.activity)

    def test_inactive_spans_have_zero_energy(self):
        u = gen_utterance(7, 6.0, CFG, duty=0.5, speaker=2)
        assert energy(u.clip.samples[~u.activity]) == 0.0
        assert energy(u.clip.samples[u.activity]) > 0.0

    def test_viseme_frame_count(self):
        for dur in (3.0, 4.12, 5.5):
            u = gen_utterance(1, dur, CFG, duty=0.7, speaker=0)
            assert u.viseme_frames.shape == (int(np.ceil(dur * 25)),
                                             CFG.visual_dim)

    def test_quiet_frames_are_zero_vectors(self):
        u = gen_utterance(9, 6.0, CFG, duty=0.4, speaker=3)
        spf = CFG.samples_per_frame
        for k in range(u.viseme_frames.shape[0]):
            center = min(len(u.clip) - 1, k * spf + spf // 2)
            if not u.activity[center]:
                assert not u.viseme_frames[k].any()

    def test_below_minimum_duration(self):
        with pytest.raises(ValueError):
            gen_utterance(1, 2.0, CFG, duty=0.7, speaker=0)

    def test_fully_active_duty(self):
        u = gen_utterance(3, 4.0, CFG, duty=1.0, speaker=4)
        assert u.activity.all()

    @pytest.mark.parametrize("cfg", [
        CFG,
        SimConfig(sample_rate=16000, clip_s=(4.0, 4.0)),
        SimConfig(sample_rate=4000, clip_s=(0.5, 1.0), utterance_s=(3.0, 3.3),
                  n_speakers=3),
    ], ids=["8k", "16k", "4k"])
    def test_matches_the_plain_reference_bit_for_bit(self, cfg):
        rng = np.random.default_rng(7)
        variants = [(0.35, 0), (1.0, 1), (0.95, 2), (0.1, 2), (0.6, 0)]
        for s in range(24):
            duty, speaker = variants[s % len(variants)]
            # Off the frame grid too, so the last viseme frame is partial.
            duration = float(rng.uniform(*cfg.utterance_s)) + 0.0123 * (s % 2)
            u = gen_utterance([s, 5], duration, cfg, duty=duty, speaker=speaker)
            audio, activity, frames, speaker_id = reference_utterance(
                [s, 5], duration, cfg, duty, speaker)
            assert u.clip.samples.tobytes() == audio.tobytes()
            assert np.array_equal(u.activity, activity)
            assert u.viseme_frames.shape == frames.shape
            assert u.viseme_frames.tobytes() == frames.tobytes()
            assert u.speaker_id == speaker_id


class TestUtteranceBank:
    def test_lazy_and_deterministic(self, bank):
        again = UtteranceBank(CFG, seed=11, count=8)
        for i in (0, 3, 7):
            assert np.array_equal(bank.get(i).clip.samples,
                                  again.get(i).clip.samples)

    def test_speakers_cycle(self, bank):
        assert bank.speaker_of(0) == bank.speaker_of(CFG.n_speakers)

    def test_out_of_range(self, bank):
        with pytest.raises(ValueError):
            bank.get(99)


class TestWindowOverlap:
    @staticmethod
    def check(pattern, seq, win):
        ss, act = _window_overlap(pattern, seq, win)
        assert len(ss) == len(act) == len(seq) - win + 1
        assert ss.dtype == np.float64
        for c in range(len(seq) - win + 1):
            assert ss[c] == np.sum(pattern & seq[c : c + len(pattern)])
            assert act[c] == np.sum(seq[c : c + win])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(30, 300))
            win = int(rng.integers(5, n + 1))
            self.check(rng.random(win) < 0.5, rng.random(n) < 0.5, win)

    def test_short_pattern_and_edge_runs(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 120))
            win = int(rng.integers(1, n + 1))
            m = int(rng.integers(1, win + 1))
            p = rng.uniform(0.05, 0.95)
            self.check(rng.random(m) < p, rng.random(n) < p, win)
        for pattern, seq in [(np.ones(4, bool), np.ones(9, bool)),
                             (np.zeros(4, bool), np.ones(9, bool)),
                             (np.ones(4, bool), np.zeros(9, bool))]:
            self.check(pattern, seq, 6)


class TestSimulateGeneral:
    def _spec(self, bank, snr=(3.0,), absent=False, noise=None):
        clip_len = 4 * CFG.sample_rate
        return MixtureSpec(
            target_source=None if absent else 0,
            target_crop=(0, clip_len),
            interference_sources=[1] * len(snr),
            interference_crops=[(0, clip_len)] * len(snr),
            interference_offsets=[0] * len(snr),
            snr_db=list(snr), noise_snr_db=noise,
            target_absent=absent, clip_len=clip_len, seed=42)

    def test_reconstruction_is_exact(self, bank):
        rec = simulate_general(self._spec(bank, snr=(3.0, -2.0), noise=5.0),
                               bank)
        total = sum(rec.components.values())
        np.testing.assert_allclose(rec.mixture.samples, total, atol=1e-12)
        resid = rec.mixture.samples - sum(rec.components.values())
        assert np.max(np.abs(resid)) <= 1e-12

    def test_snr_round_trip(self, bank):
        rec = simulate_general(self._spec(bank, snr=(7.25, -4.5), noise=2.5),
                               bank)
        for j, want in enumerate((7.25, -4.5)):
            got = measure_snr_db(rec.target_truth,
                                 rec.components[f"interference_{j}"])
            assert got == pytest.approx(want, abs=1e-9)
        got = measure_snr_db(rec.target_truth, rec.components["noise"])
        assert got == pytest.approx(2.5, abs=1e-9)

    def test_target_absent_classifies_ta(self, bank):
        rec = simulate_general(self._spec(bank, absent=True), bank)
        assert classify_clip(rec.track) == "TA"
        assert not rec.target_truth.samples.any()
        assert not rec.viseme_stream.any()

    def test_deterministic(self, bank):
        spec = self._spec(bank, snr=(1.0,), noise=3.0)
        a = simulate_general(spec, bank)
        b = simulate_general(spec, bank)
        assert np.array_equal(a.mixture.samples, b.mixture.samples)
        assert a.track.to_triples() == b.track.to_triples()

    def test_track_matches_mask_composition(self, bank):
        spec = self._spec(bank)
        rec = simulate_general(spec, bank)
        t_utt = bank.get(0)
        i_utt = bank.get(1)
        want = label_scenarios(t_utt.activity[: spec.clip_len],
                               i_utt.activity[: spec.clip_len])
        assert rec.track.to_triples() == want.to_triples()

    def test_zero_energy_interference_rejected(self, bank):
        spec = self._spec(bank)
        quiet_bank = UtteranceBank(CFG, seed=11, count=8)
        # fabricate an all-quiet crop by zeroing the cached utterance
        utt = quiet_bank.get(1)
        utt.clip.samples[:] = 0.0
        with pytest.raises(ValueError):
            simulate_general(spec, quiet_bank)

    def test_misaligned_clip_len_rejected(self, bank):
        spec = self._spec(bank)
        spec.clip_len += 1
        spec.target_crop = (0, spec.clip_len)
        with pytest.raises(ValueError):
            simulate_general(spec, bank)


OVERLAPPED = SimConfig(utterance_s=(4.0, 6.0), clip_s=(3.0, 4.0),
                       n_utterances=4)


class TestOverlappedCorpus:
    def test_fully_active_pair_is_single_ss(self):
        bank = UtteranceBank(OVERLAPPED, seed=3, count=4, fully_active=True)
        for rec in iter_overlapped_corpus(OVERLAPPED, 3, seed=3):
            assert [kind for _, _, kind in rec.track.to_triples()] == ["SS"]
            want = min(len(bank.get(rec.spec.target_source).clip),
                       len(bank.get(rec.spec.interference_sources[0]).clip))
            want -= want % OVERLAPPED.samples_per_frame
            assert len(rec.mixture) == want

    def test_snr_round_trip(self):
        for rec in iter_overlapped_corpus(OVERLAPPED, 3, seed=3):
            got = measure_snr_db(rec.target_truth,
                                 rec.components["interference_0"])
            assert got == pytest.approx(rec.spec.snr_db[0], abs=1e-9)


class TestApplyOcclusion:
    def _record(self):
        return next(iter_overlapped_corpus(OVERLAPPED, 1, seed=5))

    def test_fraction_zero_unchanged(self):
        rec = self._record()
        out = apply_occlusion(rec, 1, (0.0, 0.0))
        assert out.effective_visual_ratio == 1.0
        assert out.occlusion_spans == []
        assert np.array_equal(out.viseme_stream, rec.viseme_stream)

    def test_fraction_one_all_zero(self):
        rec = self._record()
        out = apply_occlusion(rec, 2, (1.0, 1.0))
        assert out.effective_visual_ratio == 0.0
        assert not out.viseme_stream.any()

    def test_fraction_half_quantized(self):
        rec = self._record()
        out = apply_occlusion(rec, 3, (0.5, 0.5))
        n = rec.viseme_stream.shape[0]
        assert abs(out.effective_visual_ratio - 0.5) <= 1.0 / n

    def test_recount_matches_stored_ratio(self):
        rec = self._record()  # fully active -> every frame nonzero
        assert np.all(np.any(rec.viseme_stream != 0, axis=1))
        out = apply_occlusion(rec, 4, (0.3, 0.7))
        n = rec.viseme_stream.shape[0]
        zero_rows = int(np.sum(~np.any(out.viseme_stream != 0, axis=1)))
        assert out.effective_visual_ratio == 1.0 - zero_rows / n

    def test_audio_untouched(self):
        rec = self._record()
        out = apply_occlusion(rec, 5, (0.2, 0.9))
        assert np.array_equal(out.mixture.samples, rec.mixture.samples)
        assert np.array_equal(out.target_truth.samples,
                              rec.target_truth.samples)

    def test_bad_fractions(self):
        rec = self._record()
        with pytest.raises(ValueError):
            apply_occlusion(rec, 6, (-0.1, 0.5))


class TestPlannerAndCorpus:
    def test_records_deterministic(self):
        a = list(iter_corpus(FAST, 4, seed=21))
        b = list(iter_corpus(FAST, 4, seed=21))
        for x, y in zip(a, b):
            assert np.array_equal(x.mixture.samples, y.mixture.samples)
            assert x.track.to_triples() == y.track.to_triples()

    def test_covers_all_kinds_and_most_buckets(self):
        seen_kinds = set()
        seen_buckets = set()
        for rec in iter_corpus(FAST, 60, seed=2):
            seen_kinds.update(kind for _, _, kind in rec.track.to_triples())
            seen_buckets.add(clip_bucket(rec.track))
        assert seen_kinds == {"QQ", "SQ", "SS", "QS"}
        assert {"0%", "(80,100]%"} <= seen_buckets
        assert len(seen_buckets) >= 5

    def test_planner_respects_desired_extremes(self):
        bank = UtteranceBank(FAST, seed=8, count=FAST.n_utterances)
        zero, high = 0, 0
        for idx in range(40):
            rng = np.random.default_rng([99, 2, idx])
            spec = plan_clip(rng, bank, FAST)
            rec = simulate_general(spec, bank)
            b = clip_bucket(rec.track)
            zero += b == "0%"
            high += b == "(80,100]%"
        assert zero >= 1 and high >= 1

    def test_ramp_edge_crops_are_never_planned(self):
        # These desk corpora once planned a crop whose only active sample
        # was a zero-valued raised-cosine ramp edge; simulation then failed.
        desk = SimConfig(sample_rate=8000, clip_s=(0.92, 1.0),
                         utterance_s=(3.0, 4.0), n_utterances=8, n_speakers=4,
                         snr_db=(-10.0, -6.0), noisy=True,
                         noise_snr_db=(-5.0, 5.0))
        for seed in (13000, 17007):
            records = list(iter_corpus(desk, 8, seed, occlusion=(0.0, 0.0)))
            assert len(records) == 8
            for rec in records:
                for j in range(len(rec.spec.interference_sources)):
                    assert energy(rec.components[f"interference_{j}"]) > 0

    def test_overlapped_corpus_mostly_ss(self):
        cfg = SimConfig(utterance_s=(4.0, 6.0), clip_s=(3.0, 4.0),
                        n_utterances=8)
        for rec in iter_overlapped_corpus(cfg, 3, seed=4):
            d = rec.track.durations()
            assert d["SS"] == rec.track.clip_len

    def test_noisy_corpus_has_noise_component(self):
        cfg = SimConfig(clip_s=(1.0, 1.6), utterance_s=(3.0, 4.0),
                        n_utterances=12, n_speakers=6, noisy=True)
        rec = next(iter(iter_corpus(cfg, 1, seed=3)))
        assert "noise" in rec.components
        assert energy(rec.components["noise"]) > 0


class TestVisemeFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.uniform(0, 1, (37, 8))
        write_visemes(tmp_path / "v.bin", frames)
        # The header records the fixed frame rate after the frame count and
        # the width.
        assert (tmp_path / "v.bin").read_bytes()[4:16] == \
            struct.pack("<III", 37, 8, VISEME_FPS)
        back = read_visemes(tmp_path / "v.bin")
        np.testing.assert_allclose(back, frames, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "v.bin").write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_visemes(tmp_path / "v.bin")

    def test_truncated_payload(self, tmp_path):
        frames = np.ones((4, 3))
        write_visemes(tmp_path / "v.bin", frames)
        raw = (tmp_path / "v.bin").read_bytes()
        (tmp_path / "t.bin").write_bytes(raw[:-5])
        with pytest.raises(ValueError):
            read_visemes(tmp_path / "t.bin")

    def test_every_truncation_names_the_file(self, tmp_path):
        write_visemes(tmp_path / "v.bin", np.ones((5, 3)))
        raw = (tmp_path / "v.bin").read_bytes()
        cut = tmp_path / "t.bin"
        for k in range(len(raw)):
            cut.write_bytes(raw[:k])
            with pytest.raises(ValueError, match=re.escape(str(cut))):
                read_visemes(cut)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_payload_names_the_file(self, tmp_path, bad):
        frames = np.ones((5, 3))
        frames[2, 1] = bad
        write_visemes(tmp_path / "v.bin", frames)
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'v.bin'}: viseme payload holds a non-finite")):
            read_visemes(tmp_path / "v.bin")

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 4])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        write_visemes(tmp_path / "v.bin", np.ones((5, 3)))
        (tmp_path / "v.bin").write_bytes((tmp_path / "v.bin").read_bytes() + extra)
        with pytest.raises(ValueError, match="trailing bytes"):
            read_visemes(tmp_path / "v.bin")


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        rec = next(iter(iter_corpus(FAST, 1, seed=6)))
        row = record_row(rec, "m.wav", "t.wav", "v.bin")
        write_manifest(tmp_path / "man.jsonl", [row])
        back = read_manifest(tmp_path / "man.jsonl")
        assert back == [json.loads(json.dumps(row))]

    def test_invalid_json_reports_line(self, tmp_path):
        good = ('{"clip_id": "a", "sample_rate": 8000, "clip_len": 10, '
                '"track": [[0, 10, "QQ"]], "effective_visual_ratio": 1.0}')
        (tmp_path / "man.jsonl").write_text(good + "\nnot json\n")
        with pytest.raises(ValueError, match="line 2"):
            read_manifest(tmp_path / "man.jsonl")

    def test_missing_fields_reports_line(self, tmp_path):
        (tmp_path / "man.jsonl").write_text('{"clip_id": "a"}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_manifest(tmp_path / "man.jsonl")

    def test_stats_names_the_line_of_a_track_that_does_not_tile(self, tmp_path):
        row = {"clip_id": "a", "sample_rate": 8000, "clip_len": 10,
               "track": [[0, 10, "QQ"]], "effective_visual_ratio": 1.0}
        (tmp_path / "man.jsonl").write_text(
            json.dumps(row) + "\n" + json.dumps(dict(row, clip_len=12)) + "\n")
        with pytest.raises(ValueError, match=r"man\.jsonl: line 2: field "
                                             r"'track': segments cover"):
            corpus_stats(tmp_path / "man.jsonl")

    def test_write_corpus_and_load_record(self, tmp_path):
        manifest = write_corpus(FAST, 2, seed=9, out_dir=tmp_path)
        rows = read_manifest(manifest)
        assert len(rows) == 2
        rec = load_record(rows[0], tmp_path)
        assert len(rec.mixture) == rows[0]["clip_len"]
        assert rec.viseme_stream.shape[1] == FAST.visual_dim
        assert rec.track.clip_len == rows[0]["clip_len"]

    def test_corpus_bit_identical_across_runs(self, tmp_path):
        m1 = write_corpus(FAST, 2, seed=10, out_dir=tmp_path / "a")
        m2 = write_corpus(FAST, 2, seed=10, out_dir=tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for rel in ("audio/clip-000000.mix.wav", "audio/clip-000001.target.wav",
                    "audio/clip-000000.visemes.bin"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()


class TestCorpusStats:
    def test_single_all_qq_clip(self, tmp_path):
        n = 4000
        track = label_scenarios(np.zeros(n, bool), np.zeros(n, bool))
        row = {"clip_id": "c0", "sample_rate": 1000, "clip_len": n,
               "track": track.to_triples(), "effective_visual_ratio": 1.0}
        write_manifest(tmp_path / "m.jsonl", [row])
        report = corpus_stats(tmp_path / "m.jsonl")
        assert report.clip_counts["TA"] == 1
        assert report.kind_hours["QQ"] == pytest.approx(4.0 / 3600.0)
        assert report.total_clips == 1

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "m.jsonl").write_text("")
        report = corpus_stats(tmp_path / "m.jsonl")
        assert report.total_clips == 0
        assert all(v == 0 for v in report.clip_counts.values())
        assert all(v == 0.0 for v in report.kind_hours.values())

    def test_ten_clip_hand_count(self, tmp_path):
        rows = []
        want_counts = {}
        want_qq_s = 0.0
        rng = np.random.default_rng(12)
        for k in range(10):
            n = 2000
            t = rng.random(n) < (0.0 if k < 2 else 0.5)
            i = rng.random(n) < 0.5
            track = label_scenarios(t, i)
            b = clip_bucket(track)
            want_counts[b] = want_counts.get(b, 0) + 1
            want_qq_s += track.durations()["QQ"] / 1000.0
            rows.append({"clip_id": f"c{k}", "sample_rate": 1000,
                         "clip_len": n, "track": track.to_triples(),
                         "effective_visual_ratio": 1.0})
        write_manifest(tmp_path / "m.jsonl", rows)
        report = corpus_stats(tmp_path / "m.jsonl")
        for b, c in want_counts.items():
            assert report.clip_counts[b] == c
        assert report.kind_hours["QQ"] == pytest.approx(want_qq_s / 3600.0)
        assert "clips by overlap bucket" in report.table_text()


def test_colored_noise_shapes_spectrum():
    rng = np.random.default_rng(0)
    flat = colored_noise(np.random.default_rng(1), 8192, 0.0)
    tilted = colored_noise(np.random.default_rng(1), 8192, -1.5)
    assert abs(np.sqrt(np.mean(flat**2)) - 1.0) < 1e-9
    # negative tilt shifts energy toward low frequencies
    spec_flat = np.abs(np.fft.rfft(flat))
    spec_tilt = np.abs(np.fft.rfft(tilted))
    lo = slice(1, 200)
    hi = slice(3000, 4000)
    assert (spec_tilt[lo].mean() / spec_tilt[hi].mean()) > \
        (spec_flat[lo].mean() / spec_flat[hi].mean())


def test_benchmark_workloads_read_their_sim_config():
    # perfbench's checks read these SimConfig attributes of every workload,
    # so a SimConfig change that drops one must fail here, not in the bench.
    root = Path(__file__).parents[1]
    code = ("import workloads\n"
            "for w in workloads.WORKLOADS.values():\n"
            "    print(w.name, w.sim.ta_reference_rms, w.sim.viseme_fps)\n")
    path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    rows = [line.split() for line in out.splitlines()]
    assert [name for name, _, _ in rows] == ["train_desk", "evaluate_full",
                                             "corpus"]
    for _, rms, fps in rows:
        assert float(rms) == SimConfig.ta_reference_rms and int(fps) > 0
