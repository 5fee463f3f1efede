"""Simulate a small general-mixture corpus and inspect its composition.

Walks through: utterance synthesis, bucket-targeted mixing, the scenario
track of a single clip, and the corpus-level composition table.
"""

import numpy as np

from usev.dsp import VISEME_FPS, energy, measure_snr_db
from usev.mixsim import SimConfig, corpus_stats, iter_corpus, write_corpus
from usev.scenario import classify_clip, clip_bucket, overlap_ratio
from usev.synth import UtteranceBank

cfg = SimConfig(clip_s=(3.0, 4.0), utterance_s=(5.0, 7.0), n_utterances=16,
                n_speakers=8, noisy=True)

# The utterance bank is lazy and deterministic: utterance i is a pure
# function of (bank seed, i).
bank = UtteranceBank(cfg, seed=42, count=cfg.n_utterances)
u = bank.get(0)
print(f"utterance 0: {u.clip.duration_s:.2f} s, speaker {u.speaker_id}, "
      f"active fraction {u.active_fraction:.2f}")
print(f"  inactive spans carry exactly zero energy: "
      f"{energy(u.clip.samples[~u.activity]) == 0.0}")
print(f"  viseme stream: {u.viseme_frames.shape[0]} frames x "
      f"{u.viseme_frames.shape[1]} features at the fixed {VISEME_FPS} fps")

print("\nfirst three simulated clips:")
for rec in iter_corpus(cfg, 3, seed=42):
    ratio = overlap_ratio(rec.track)
    ratio_txt = "n/a" if ratio is None else f"{ratio:.2f}"
    print(f"  {rec.clip_id}: {classify_clip(rec.track)}, "
          f"overlap ratio {ratio_txt}, bucket {clip_bucket(rec.track)}")
    for j, snr in enumerate(rec.spec.snr_db):
        got = measure_snr_db(rec.target_truth,
                             rec.components[f"interference_{j}"]) \
            if not rec.spec.target_absent else float("nan")
        print(f"    interference {j}: requested {snr:+.2f} dB, "
              f"re-measured {got:+.2f} dB")
    resid = rec.mixture.samples - sum(rec.components.values())
    print(f"    mixture minus stored components: "
          f"max |resid| = {np.max(np.abs(resid)):.2e}")

print("\nwriting 40 clips to ./corpus_demo and printing the composition:")
manifest = write_corpus(cfg, 40, seed=42, out_dir="corpus_demo")
print(corpus_stats(manifest).table_text())
