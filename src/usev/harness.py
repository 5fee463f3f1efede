"""Training and evaluation orchestration.

The paper's curriculum is two `train` runs that differ in `loss` and
`init_checkpoint`: pre-training on highly overlapped clips with
`loss = "sdr"`, then training on general mixtures with
`loss = "differentiated"` from the pre-trained checkpoint (configs are
locked together in the checkpoint header, so shape mismatches fail before
training starts). The learning rate decays multiplicatively per epoch and
early stopping watches the validation loss.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import mixsim
from .checkpoint import load_checkpoint, save_checkpoint
from .dsp import VISEME_FPS, AudioClip
from .losses import (LossWeights, tensor_loss_differentiated, tensor_loss_sdr,
                     tensor_loss_uniform)
from .metrics import ReportTables, eval_report, write_report
from .model import UsevConfig, UsevNet
from .scenario import crop_track

LOSSES = ("uniform", "differentiated", "sdr")

# Default sweep grid over loss weights; includes the published tuple.
DEFAULT_WEIGHT_GRID = (
    LossWeights(0.01, 1.0, 1.0, 0.01),
    LossWeights(0.01, 0.1, 1.0, 0.01),
    LossWeights(0.005, 1.0, 1.0, 0.005),
    LossWeights(0.001, 0.1, 1.0, 0.001),
)


@dataclass
class TrainConfig:
    lr0: float = 0.001
    lr_decay_per_epoch: float = 0.98
    max_epochs: int = 30
    patience: int = 8
    batch_size: int = 4
    clip_truncate_s: float = 6.0
    loss: str = "differentiated"
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    init_checkpoint: str | None = None

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if not 0.0 < self.lr_decay_per_epoch <= 1.0:
            raise ValueError("lr_decay_per_epoch must lie in (0, 1]")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if not 0.0 <= self.lr0 < math.inf:
            raise ValueError(f"lr0 must be finite and >= 0, got {self.lr0}")
        if not 0.0 < self.clip_truncate_s < math.inf:
            raise ValueError(f"clip_truncate_s must be finite and positive, "
                             f"got {self.clip_truncate_s}")


@dataclass
class TrainResult:
    best_checkpoint: Path
    log_path: Path
    loss_log_path: Path
    history: list
    best_val: float
    model: UsevNet


def learning_rate(cfg: TrainConfig, epoch: int) -> float:
    return cfg.lr0 * cfg.lr_decay_per_epoch**epoch


def _load_records(data):
    """Accept a manifest path or an in-memory list of MixtureRecords."""
    if isinstance(data, (str, Path)):
        return mixsim.read_records(data)
    return list(data)


def _check_clips(model: UsevNet, records) -> None:
    """Every clip must be at the model's sample rate and viseme width, and
    no shorter than its encoder kernel."""
    for rec in records:
        if rec.mixture.sample_rate != model.cfg.sample_rate:
            raise ValueError(f"clip {rec.clip_id}: sample rate "
                             f"{rec.mixture.sample_rate} Hz, but the model "
                             f"runs at {model.cfg.sample_rate} Hz")
        if rec.viseme_stream.shape[1] != model.cfg.visual_dim:
            raise ValueError(f"clip {rec.clip_id}: viseme width "
                             f"{rec.viseme_stream.shape[1]}, but the model "
                             f"takes {model.cfg.visual_dim}")
        if len(rec.mixture) < model.cfg.kernel_len:
            raise ValueError(f"clip {rec.clip_id}: {len(rec.mixture)} samples, shorter "
                             f"than the encoder kernel ({model.cfg.kernel_len})")


def _clip_loss_graph(cfg: TrainConfig, est, ref, track):
    if cfg.loss == "differentiated":
        return tensor_loss_differentiated(est, ref, track, cfg.weights)
    if cfg.loss == "sdr":
        return tensor_loss_sdr(est, ref)
    return tensor_loss_uniform(est, ref)


def _random_crop(rng, record, n_trunc: int, spf: int):
    """Seeded crop to the truncation length, scenario track recomputed."""
    n = len(record.mixture)
    if n <= n_trunc:
        return (record.mixture.samples, record.target_truth.samples,
                record.viseme_stream, record.track)
    start = int(rng.integers(0, (n - n_trunc) // spf + 1)) * spf
    end = start + n_trunc
    return (record.mixture.samples[start:end],
            record.target_truth.samples[start:end],
            record.viseme_stream[start // spf : end // spf],
            crop_track(record.track, start, end))


def crop_samples(cfg: TrainConfig, model_cfg: UsevConfig) -> int:
    """Training crop length: clip_truncate_s floored to whole viseme frames,
    which must leave at least one."""
    sr = model_cfg.sample_rate
    spf = sr // VISEME_FPS
    n = int(round(cfg.clip_truncate_s * sr)) // spf * spf
    if n == 0:
        raise ValueError(f"clip_truncate_s {cfg.clip_truncate_s} s is shorter "
                         f"than one viseme frame ({spf} samples at {sr} Hz)")
    return max(model_cfg.kernel_len, n)


def _validation_loss(cfg: TrainConfig, model: UsevNet, records,
                     epoch: int) -> float:
    """Mean loss over the full validation clips; a non-finite clip loss
    stops training, naming the epoch and the clip."""
    vals = []
    with ad.no_grad(model.params.values()):
        for rec in records:
            out = model.forward(rec.mixture.samples, rec.viseme_stream)
            loss = _clip_loss_graph(cfg, out, rec.target_truth.samples,
                                    rec.track).item()
            if not np.isfinite(loss):
                raise ValueError(f"epoch {epoch}: non-finite validation loss "
                                 f"on clip {rec.clip_id}")
            vals.append(loss)
    return float(np.mean(vals))


def _check_finite(loss: float, model: UsevNet, epoch: int, step: int,
                  clip_id, clip_ids) -> None:
    """Stop before an Adam step would take in a non-finite loss or gradient,
    naming the clip whose backward pass brought it in."""
    bad = [] if np.isfinite(loss) else ["loss"]
    grads = [name for name, p in model.params.items()
             if p.grad is not None and not np.isfinite(p.grad).all()]
    if grads:
        bad.append(f"gradient of {grads[0]}"
                   + (f" and {len(grads) - 1} more" if len(grads) > 1 else ""))
    if bad:
        raise ValueError(f"epoch {epoch} step {step}: non-finite "
                         f"{' and '.join(bad)} on clip {clip_id} of clips "
                         f"{clip_ids}")


def _clip_backward(cfg: TrainConfig, model: UsevNet, crop, scale: float) -> float:
    """Build one clip's loss graph, backpropagate `scale` times it into the
    parameters and return the loss; the graph dies when this returns."""
    mix, ref, vis, track = crop
    term = _clip_loss_graph(cfg, model.forward(mix, vis), ref, track)
    (term * scale).backward()
    return term.item()


def train_step(cfg: TrainConfig, model: UsevNet, opt, crops, epoch: int,
               step: int, clip_ids) -> float:
    """One Adam step on the mean loss over the cropped clips; returns the
    loss.

    Each clip's graph is built, backpropagated and freed before the next
    clip's forward, so a step holds one clip's graph at a time. The clips
    run last to first: one backward through the summed graph
    `((l0 + l1) + l2) * (1/n)` visits them in that order, so every parameter
    adds up the clips' gradients in the same order and gets the same bits.
    The loss adds the clip losses in batch order, as the summed graph
    does."""
    opt.zero_grad()
    scale = 1.0 / len(crops)
    losses = [0.0] * len(crops)
    for i in reversed(range(len(crops))):
        losses[i] = _clip_backward(cfg, model, crops[i], scale)
        _check_finite(losses[i], model, epoch, step, clip_ids[i], clip_ids)
    opt.step()
    return sum(losses[1:], losses[0]) * scale


def train(cfg: TrainConfig, model_cfg: UsevConfig | None, train_data, val_data,
          out_dir) -> TrainResult:
    """Train one model, built from model_cfg or loaded from
    cfg.init_checkpoint, whichever is given; returns the best checkpoint
    and the logs. `out_dir` is made once every input has passed its checks."""
    train_records = _load_records(train_data)
    val_records = _load_records(val_data)
    if not train_records or not val_records:
        raise ValueError("empty training or validation set")

    # The checkpoint's header fixes its model, so a model config next to it
    # could only disagree or repeat it.
    if (model_cfg is None) == (cfg.init_checkpoint is None):
        raise ValueError("need exactly one of a model config and an "
                         "init_checkpoint")
    if model_cfg is None:
        model, _ = load_model(cfg.init_checkpoint)
    else:
        model = UsevNet(model_cfg, seed=cfg.seed)
    _check_clips(model, train_records + val_records)

    spf = model.cfg.sample_rate // VISEME_FPS
    n_trunc = crop_samples(cfg, model.cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([cfg.seed, 99])
    opt = ad.Adam(model.trainable_params(), lr=cfg.lr0)

    history = []
    best_val = np.inf
    since_best = 0
    best_path = out / "best.ckpt"
    log_path = out / "train_log.jsonl"
    loss_log_path = out / "loss_log.txt"
    log_f = open(log_path, "w")
    loss_f = open(loss_log_path, "w")

    try:
        for epoch in range(cfg.max_epochs):
            t0 = time.monotonic()
            opt.lr = learning_rate(cfg, epoch)
            order = rng.permutation(len(train_records))
            batch_losses = []
            for step, start in enumerate(range(0, len(order), cfg.batch_size)):
                batch = [train_records[int(i)]
                         for i in order[start : start + cfg.batch_size]]
                crops = [_random_crop(rng, rec, n_trunc, spf) for rec in batch]
                batch_losses.append(train_step(
                    cfg, model, opt, crops, epoch, step,
                    [rec.clip_id for rec in batch]))
            train_loss = float(np.mean(batch_losses))
            val_loss = _validation_loss(cfg, model, val_records, epoch)
            wall = time.monotonic() - t0

            entry = {"epoch": epoch, "lr": opt.lr, "train_loss": train_loss,
                     "val_loss": val_loss, "wall_time_s": wall}
            history.append(entry)
            log_f.write(json.dumps(entry, sort_keys=True) + "\n")
            log_f.flush()
            loss_f.write(f"{epoch} {opt.lr!r} {train_loss!r} {val_loss!r}\n")
            loss_f.flush()

            if val_loss < best_val:
                best_val = val_loss
                since_best = 0
                save_model(best_path, model,
                           extra_meta={"epoch": epoch, "val_loss": val_loss})
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    finally:
        log_f.close()
        loss_f.close()

    return TrainResult(best_path, log_path, loss_log_path, history,
                       best_val, model)


def save_model(path, model: UsevNet, extra_meta: dict | None = None) -> None:
    meta = {"model_config": model.cfg.__dict__}
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, model.state_dict(), meta)


def load_model(path) -> tuple[UsevNet, dict]:
    state, meta = load_checkpoint(path)
    cfg = meta.get("model_config")
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: checkpoint lacks a model config header")
    defaults = UsevConfig().__dict__
    bad = [k for k in sorted(cfg.keys() | defaults.keys()) if k not in cfg
           or k not in defaults or type(cfg[k]) is not type(defaults[k])]
    if bad:
        raise ValueError(f"{path}: model_config fields {bad} are unknown, "
                         "missing or of another type than their default")
    try:
        model = UsevNet.from_state_dict(UsevConfig(**cfg), state)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return model, meta


def extraction_pairs(model: UsevNet, records):
    """Forward full-length clips (no truncation, no output normalization)."""
    pairs = []
    with ad.no_grad(model.params.values()):
        for rec in records:
            out = model.forward(rec.mixture.samples, rec.viseme_stream)
            pairs.append((rec, AudioClip(out.data, rec.mixture.sample_rate)))
    return pairs


def evaluate(checkpoint, test_data, out_dir,
             mixture_baseline: bool = True) -> dict[str, ReportTables]:
    """Evaluate a checkpoint on full clips and write the reports, making
    `out_dir` once the checkpoint and the clips have passed their checks."""
    model, _ = load_model(checkpoint)
    records = _load_records(test_data)
    if not records:
        where = f"{test_data}: " if isinstance(test_data, (str, Path)) else ""
        raise ValueError(f"{where}empty test set")
    _check_clips(model, records)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = {"model": eval_report(extraction_pairs(model, records))}
    write_report(reports["model"], out / "model")
    if mixture_baseline:
        reports["mixture"] = eval_report([(r, r.mixture) for r in records])
        write_report(reports["mixture"], out / "mixture")
    return reports


def sweep_weights(base_cfg: TrainConfig, model_cfg: UsevConfig | None,
                  weight_grid, train_data, val_data, out_dir) -> list[dict]:
    """Train one system per LossWeights entry, score its best.ckpt with
    `evaluate` (no mixture baseline) and emit a comparison. The weights
    belong to the differentiated loss, so base_cfg must train that loss;
    model_cfg is None when base_cfg.init_checkpoint fixes the model."""
    if base_cfg.loss != "differentiated":
        raise ValueError(f"a weight sweep trains loss = differentiated, "
                         f"got loss = {base_cfg.loss!r}")
    weight_grid = list(weight_grid)
    if not weight_grid:
        raise ValueError("weight grid is empty")
    for i, weights in enumerate(weight_grid):
        if not isinstance(weights, LossWeights):
            raise ValueError(f"weight grid entry {i} {weights!r}: expected "
                             "LossWeights")
    train_records = _load_records(train_data)
    val_records = _load_records(val_data)
    # The first train call makes `out`, once it has checked every input.
    out = Path(out_dir)
    rows = []
    for i, weights in enumerate(weight_grid):
        cfg = replace(base_cfg, weights=weights)
        result = train(cfg, model_cfg, train_records, val_records,
                       out / f"system{i}")
        report = evaluate(result.best_checkpoint, val_records,
                          out / f"system{i}", mixture_baseline=False)["model"]
        row = {"weights": (weights.alpha, weights.beta, weights.gamma,
                           weights.delta)}
        for kind in ("QQ", "SQ", "SS", "QS"):
            row[kind] = report.kind_means.get(kind)
        rows.append(row)

    with open(out / "sweep.csv", "w") as f:
        f.write("alpha,beta,gamma,delta,QQ_power,SQ_si_sdr,SS_si_sdr,QS_power\n")
        for row in rows:
            a, b, g, d = row["weights"]
            cells = [f"{v:.4f}" if isinstance(v, float) else "" for v in
                     (row["QQ"], row["SQ"], row["SS"], row["QS"])]
            f.write(f"{a},{b},{g},{d},{','.join(cells)}\n")
    lines = [f"{'alpha-beta-gamma-delta':>26} {'QQ pow':>9} {'SQ sisdr':>9} "
             f"{'SS sisdr':>9} {'QS pow':>9}"]
    for row in rows:
        tag = "-".join(str(v) for v in row["weights"])
        cells = " ".join(
            f"{row[k]:>9.2f}" if row[k] is not None else f"{'n/a':>9}"
            for k in ("QQ", "SQ", "SS", "QS"))
        lines.append(f"{tag:>26} {cells}")
    (out / "sweep.txt").write_text("\n".join(lines) + "\n")
    return rows
