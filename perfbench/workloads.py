"""The three workloads and the round of usev calls each one times.

Every round runs the same four stages on the workload's inputs, the path a
user takes through usev:

  simulate  mixsim.write_corpus of each of the workload's corpora
  reload    per corpus: corpus_stats, manifest read and load_record of every
            row; then the mixture-baseline eval_report over all clips. The
            pass repeats `reload_passes` times, so that the stage is long
            enough to time.
  train     harness.train from the initial checkpoint on the first clips of
            the first corpus, validating on the same clips (patience above
            the epoch count, so every epoch runs)
  evaluate  harness.evaluate of the trained best.ckpt, mixture baseline included

The workloads differ in their inputs, and so in which stage dominates:
train_desk is the desk-scale training set-up, evaluate_full a full-scale
model on 4 s clips at 16 kHz, corpus the default simulator. Each corpus is
simulated with its own bank of utterances, and planning effort depends much
on the bank, so a workload spreads its clips over several corpora.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from usev import harness, losses, metrics, mixsim
from usev import autodiff as ad
from usev.harness import TrainConfig
from usev.mixsim import SimConfig
from usev.model import UsevConfig, UsevNet

import checks

STAGES = ("simulate", "reload", "train", "evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    sim: SimConfig
    corpora: int
    clips: int  # per corpus
    occlusion: tuple
    model: UsevConfig
    epochs: int
    batch_size: int
    truncate_s: float
    lr0: float
    n_train: int  # the first n_train clips of corpus 0 train and validate
    n_eval: int  # the first n_eval clips over all corpora are evaluated
    reload_passes: int

    def train_config(self, seed: int, init_checkpoint) -> TrainConfig:
        return TrainConfig(lr0=self.lr0, lr_decay_per_epoch=0.995,
                           max_epochs=self.epochs, patience=self.epochs + 1,
                           batch_size=self.batch_size,
                           clip_truncate_s=self.truncate_s, seed=seed,
                           init_checkpoint=str(init_checkpoint))

    @property
    def ops_per_round(self) -> dict[str, int]:
        """Operations one round attempts, per stage: clips simulated, clips
        reloaded, optimizer steps, clips evaluated."""
        n = self.corpora * self.clips
        steps = self.epochs * -(-self.n_train // self.batch_size)
        return {"simulate": n, "reload": n * self.reload_passes, "train": steps,
                "evaluate": self.n_eval}


# Criterion-7 desk set-up: <=1 s noisy clips at 8 kHz with loud interference.
_DESK_SIM = SimConfig(sample_rate=8000, clip_s=(0.92, 1.0), utterance_s=(3.0, 4.0),
                      n_utterances=8, n_speakers=4, snr_db=(-10.0, -6.0),
                      noisy=True, noise_snr_db=(-5.0, 5.0))

WORKLOADS = {
    "train_desk": Workload(
        "train_desk", _DESK_SIM, corpora=8, clips=8, occlusion=(0.0, 0.0),
        model=UsevConfig(), epochs=3, batch_size=4, truncate_s=1.0, lr0=2e-3,
        n_train=8, n_eval=32, reload_passes=12),
    "evaluate_full": Workload(
        "evaluate_full", SimConfig(sample_rate=16000, clip_s=(4.0, 4.0), noisy=True),
        corpora=4, clips=1, occlusion=(0.2, 0.8), model=UsevConfig.full_scale(),
        epochs=1, batch_size=1, truncate_s=0.04, lr0=1e-3, n_train=1, n_eval=2,
        reload_passes=60),
    "corpus": Workload(
        "corpus", SimConfig(noisy=True, clip_s=(5.0, 5.0)), corpora=8, clips=5,
        occlusion=(0.2, 0.8),
        model=UsevConfig(), epochs=1, batch_size=2, truncate_s=0.4, lr0=1e-3,
        n_train=4, n_eval=8, reload_passes=6),
}


def corpus_seeds(w: Workload, seed: int) -> list[int]:
    """The run's corpus seeds: seed * 1000 + j for j = 0, 1, ..., skipping a
    candidate whose simulation raises. mixsim's planner can accept an
    interference crop whose only active samples are zero-valued ramp edges,
    and simulate_general then rejects it; such seeds are named on stderr and
    left out (see the FOUND line in CHANGES.md)."""
    seeds = []
    for j in range(100 * w.corpora):
        candidate = seed * 1000 + j
        try:
            for _ in mixsim.iter_corpus(w.sim, w.clips, candidate, occlusion=w.occlusion):
                pass
        except ValueError as e:
            print(f"corpus seed {candidate} left out: {e}", file=sys.stderr)
            continue
        seeds.append(candidate)
        if len(seeds) == w.corpora:
            return seeds
    raise RuntimeError(f"no {w.corpora} simulable corpora near seed {seed}")


def setup(w: Workload, seed: int, corpus_seed: int, work: Path) -> Path:
    """What a user pays before the first round: simulate a corpus in memory,
    build the model and write its initial checkpoint, whose path is returned."""
    for _ in mixsim.iter_corpus(w.sim, w.clips, corpus_seed, occlusion=w.occlusion):
        pass
    work.mkdir(parents=True, exist_ok=True)
    ckpt = work / "init.ckpt"
    harness.save_model(ckpt, UsevNet(w.model, seed=seed))
    return ckpt


@dataclass
class RoundResult:
    seconds: dict = field(default_factory=dict)  # stage -> wall seconds
    failed_stage: str | None = None
    corpus_dirs: list = field(default_factory=list)
    stats: list = field(default_factory=list)  # corpus_stats per corpus
    rows: list = field(default_factory=list)  # manifest rows per corpus
    records: list = field(default_factory=list)  # all reloaded clips, in order
    mixture_report: object = None
    train: object = None
    reports: dict | None = None


def run_round(w: Workload, seed: int, seeds: list[int], init_checkpoint: Path,
              out: Path) -> RoundResult:
    """One round of the four stages, each timed on its own. A stage that
    raises ends the round: its traceback goes to stderr and the result names
    the stage."""
    r = RoundResult()

    def simulate():
        for j, corpus_seed in enumerate(seeds):
            manifest = mixsim.write_corpus(w.sim, w.clips, corpus_seed,
                                           out / f"corpus{j}", occlusion=w.occlusion)
            r.corpus_dirs.append(manifest.parent)

    def reload():
        for _ in range(w.reload_passes):
            r.stats, r.rows, r.records = [], [], []
            for base in r.corpus_dirs:
                manifest = base / "manifest.jsonl"
                r.stats.append(mixsim.corpus_stats(manifest))
                rows = mixsim.read_manifest(manifest)
                r.rows.append(rows)
                r.records += [mixsim.load_record(row, base) for row in rows]
            r.mixture_report = metrics.eval_report([(x, x.mixture) for x in r.records])

    def train():
        clips = r.records[: w.n_train]
        r.train = harness.train(w.train_config(seed, init_checkpoint), None,
                                clips, clips, out / "train")

    def evaluate():
        r.reports = harness.evaluate(r.train.best_checkpoint,
                                     r.records[: w.n_eval], out / "eval",
                                     mixture_baseline=True)

    for stage, fn in zip(STAGES, (simulate, reload, train, evaluate)):
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:
            traceback.print_exc()
            r.failed_stage = stage
            return r
        r.seconds[stage] = time.perf_counter() - t0
    return r


def output_digest(out: Path) -> str:
    """Hash of every file a round writes except train_log.jsonl, whose
    wall_time_s field differs from run to run."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == "train_log.jsonl":
            continue
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stage_metrics(w: Workload, r: RoundResult) -> dict[str, float]:
    """The end-to-end figures of one round."""
    sec = r.seconds
    n = w.corpora * w.clips
    audio_s = sum(len(x.mixture) / x.mixture.sample_rate for x in r.records[: w.n_eval])
    return {
        "train_clips_per_s": w.epochs * w.n_train / sec["train"],
        "evaluate_rtf": sec["evaluate"] / audio_s,
        "simulate_clips_per_s": n / sec["simulate"],
        "reload_clips_per_s": n * w.reload_passes / sec["reload"],
    }


# -- checks on one round ----------------------------------------------------------------

def batch_loss(ests, records, weights=losses.LossWeights()) -> float:
    """The training loss of one batch, as harness.train builds it: the mean
    of the clips' differentiated-loss graphs."""
    terms = [losses.tensor_loss_differentiated(ad.Tensor(e, requires_grad=True),
                                               x.target_truth.samples, x.track, weights)
             for e, x in zip(ests, records)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return (total * (1.0 / len(terms))).item()


def check_round(w: Workload, seeds: list[int], r: RoundResult, pairs) -> list[str]:
    """Every reference check and method property on a round's outputs.
    `pairs` are the (record, estimate) pairs the evaluation scored."""
    errs = []
    for j, corpus_seed in enumerate(seeds):
        refs = list(mixsim.iter_corpus(w.sim, w.clips, corpus_seed,
                                       occlusion=w.occlusion))
        errs += checks.check_mixtures(refs, w.sim.ta_reference_rms)
        errs += checks.check_files(refs, r.rows[j], r.corpus_dirs[j], w.sim.viseme_fps)
        errs += checks.check_buckets(r.rows[j], r.stats[j])
    errs += checks.check_report(r.mixture_report,
                                [(x, x.mixture) for x in r.records], "reload mixture")
    errs += checks.check_report(r.reports["model"], pairs, "evaluate model")
    errs += checks.check_report(r.reports["mixture"],
                                [(x, x.mixture) for x, _ in pairs], "evaluate mixture")
    errs += checks.check_outputs(pairs)

    batch = pairs[: w.batch_size]
    ests = [est.samples for _, est in batch]
    recs = [x for x, _ in batch]
    errs += checks.check_loss(batch_loss(ests, recs), ests, recs)

    model, meta = harness.load_model(r.train.best_checkpoint)
    if w.epochs > 1:
        errs += checks.check_val_drop(r.train.history)
    if meta["epoch"] == r.train.history[-1]["epoch"]:
        errs += checks.check_state("best.ckpt", model.state_dict(),
                                   r.train.model.state_dict())
    else:
        # An earlier epoch won: its reloaded weights must give back the
        # validation loss recorded when it was saved, bit for bit.
        vals = []
        with ad.no_grad(model.params.values()):
            for x in r.records[: w.n_train]:
                out = model.forward(x.mixture.samples, x.viseme_stream)
                vals.append(losses.loss_differentiated(
                    out.data, x.target_truth.samples, x.track))
        if float(np.mean(vals)) != meta["val_loss"]:
            errs.append(f"best.ckpt validates at {float(np.mean(vals))!r}, "
                        f"saved at {meta['val_loss']!r}")

    params = {k: t.data for k, t in model.params.items()}
    x = r.records[0]
    cfg = model.cfg
    with ad.no_grad(model.params.values()):
        enc = model.speech_encode(x.mixture.samples).data
        errs += checks.check_tensor("speech_encode", enc, checks.reference_encode(
            params, x.mixture.samples, cfg.kernel_len, cfg.hop))
        n = len(x.mixture)
        dec = model.decode(ad.Tensor(enc), n).data
        errs += checks.check_tensor("decode", dec,
                                    checks.reference_decode(params, enc, cfg.hop, n))
    return errs
