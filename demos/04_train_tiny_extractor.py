"""Curriculum training of a tiny extractor on synthetic mixtures.

The curriculum is two `train` runs: the first pre-trains on highly
overlapped clips with `loss="sdr"`; the second sets `init_checkpoint` to the
first run's best checkpoint and trains on general mixtures with
`loss="differentiated"`. Uses a very small network and a handful of clips
so the whole script runs in about a minute; see the acceptance suite for
the full overfit run.
"""

from pathlib import Path

from usev.harness import TrainConfig, evaluate, train
from usev.mixsim import SimConfig, iter_corpus, iter_overlapped_corpus
from usev.model import UsevConfig

out = Path("train_demo")
model_cfg = UsevConfig(sample_rate=8000, encoder_dim=16, kernel_len=16,
                       bottleneck=8, repeats=1, chunk=8, vtcn_repeats=2,
                       visual_dim=8)

sim = SimConfig(sample_rate=8000, clip_s=(0.8, 1.0), utterance_s=(3.0, 4.0),
                n_utterances=10, n_speakers=5, noisy=True)
train_general = list(iter_corpus(sim, 6, seed=1))
val_general = list(iter_corpus(sim, 3, seed=2))
overlapped = list(iter_overlapped_corpus(
    SimConfig(sample_rate=8000, clip_s=(0.8, 1.0), utterance_s=(3.0, 4.0),
              n_utterances=10, n_speakers=5), 6, seed=3))

print("pre-train on highly overlapped clips (SDR loss)")
pretrain = TrainConfig(lr0=1e-3, max_epochs=4, patience=8, batch_size=3,
                       clip_truncate_s=1.0, loss="sdr", seed=0)
r1 = train(pretrain, model_cfg, overlapped, overlapped, out / "pretrain")
for h in r1.history:
    print(f"  epoch {h['epoch']}: lr {h['lr']:.2e} "
          f"train {h['train_loss']:7.3f} val {h['val_loss']:7.3f}")

print("\ntrain on general mixtures (differentiated loss), "
      "starting from the pre-trained checkpoint")
general = TrainConfig(lr0=1e-4, max_epochs=4, patience=8, batch_size=3,
                      clip_truncate_s=1.0, loss="differentiated", seed=0,
                      init_checkpoint=str(r1.best_checkpoint))
r2 = train(general, None, train_general, val_general, out / "general")
for h in r2.history:
    print(f"  epoch {h['epoch']}: lr {h['lr']:.2e} "
          f"train {h['train_loss']:7.3f} val {h['val_loss']:7.3f}")

print("\nevaluating the trained checkpoint on the validation clips "
      "(full length, no truncation):")
reports = evaluate(r2.best_checkpoint, val_general, out / "eval")
print("== model")
print(reports["model"].kind_table_text())
print("== unprocessed mixture")
print(reports["mixture"].kind_table_text())
