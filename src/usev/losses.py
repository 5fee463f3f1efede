"""Training objectives over scenario-labeled clips.

Each formula is written once, as a graph builder over autodiff Tensors
(`tensor_loss_*`). Training builds them over the model output; validation
builds them under `autodiff.no_grad`, where every op folds to a constant.
`loss_differentiated` evaluates the differentiated builder on plain arrays,
after checking that estimate, reference and track agree in length. The
per-kind losses only ever see sums of squares, so samples of one kind are
combined with 0/1 masks; concatenation order cannot matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dsp import _samples
from .scenario import KINDS, TARGET_SPEAKS, ScenarioTrack

EPS = 1e-8


@dataclass(frozen=True)
class LossWeights:
    """Weights (QQ, SQ, SS, QS) of the differentiated loss terms."""

    alpha: float = 0.005
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 0.005

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.gamma, self.delta)
        if not all(0.0 <= v < math.inf for v in vals):
            raise ValueError(f"loss weights must be finite and nonnegative, "
                             f"got {vals}")
        if all(v == 0 for v in vals):
            raise ValueError("at least one loss weight must be positive")

    def for_kind(self, kind: str) -> float:
        return {"QQ": self.alpha, "SQ": self.beta,
                "SS": self.gamma, "QS": self.delta}[kind]


def _pair(est, ref) -> tuple[np.ndarray, np.ndarray]:
    e, r = _samples(est), _samples(ref)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: est {e.shape} vs ref {r.shape}")
    return e, r


def loss_differentiated(est, ref, track: ScenarioTrack,
                        weights: LossWeights = LossWeights()) -> float:
    e, r = _pair(est, ref)
    if len(e) != track.clip_len:
        raise ValueError(f"clip length {len(e)} != track length {track.clip_len}")
    return tensor_loss_differentiated(ad.Tensor(e), r, track, weights).item()


# -- graph builders: every formula lives here ------------------------------------

def tensor_loss_uniform(est: ad.Tensor, ref) -> ad.Tensor:
    """-10*log10((||s||^2 + eps) / (||s_hat - s||^2 + eps)).

    The eps in the numerator turns the loss into energy minimization when the
    target is silent, while still maximizing SDR when it speaks.
    """
    r = _samples(ref)
    diff = est - r
    num = float(np.dot(r, r)) + EPS
    den = (diff * diff).sum() + EPS
    return ad.log10(ad.div(num, den)) * -10.0


def tensor_loss_sdr(est: ad.Tensor, ref, mask=None) -> ad.Tensor:
    """-10*log10(||s||^2 / (||s_hat - s||^2 + eps) + eps); scale-sensitive.
    A 0/1 `mask` restricts both sums to the samples it keeps."""
    r = _samples(ref)
    diff = est - r
    if mask is not None:
        diff = diff * mask
        r = r * mask
    den = (diff * diff).sum() + EPS
    return ad.log10(ad.div(float(np.dot(r, r)), den) + EPS) * -10.0


def tensor_loss_energy(est: ad.Tensor, mask=None) -> ad.Tensor:
    """10*log10(||s_hat||^2 + eps); minimized where the target is quiet."""
    if mask is not None:
        est = est * mask
    return ad.log10((est * est).sum() + EPS) * 10.0


def tensor_loss_differentiated(est: ad.Tensor, ref, track: ScenarioTrack,
                               weights: LossWeights = LossWeights()) -> ad.Tensor:
    """Weighted per-scenario loss over one clip, as a graph node.

    All samples of a kind are pooled across the clip; SQ/SS take the SDR
    loss, QQ/QS the energy loss. Kinds absent from the track or weighted 0
    contribute nothing. Masked sums of squares make the per-kind terms exact:
    the gradient on a sample of some other kind is identically zero, not
    just small.
    """
    r = _samples(ref)
    terms = []
    for kind in KINDS:
        w = weights.for_kind(kind)
        mask = track.kind_mask(kind)
        if not mask.any():
            continue
        if kind in TARGET_SPEAKS and not np.any(r[mask]):
            raise ValueError(
                f"zero-energy reference on a {kind} segment; activity "
                "masks and scenario labels disagree")
        if w == 0.0:
            continue
        if kind in TARGET_SPEAKS:
            terms.append(tensor_loss_sdr(est, r, mask=mask) * w)
        else:
            terms.append(tensor_loss_energy(est, mask=mask) * w)
    if not terms:
        return ad.Tensor(0.0)
    return sum(terms[1:], terms[0])
