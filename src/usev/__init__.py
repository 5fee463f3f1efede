"""Universal speaker extraction with a visual cue, at desk scale.

Mixture simulation with scenario labels, the scenario-aware differentiated
loss, SI-SDR/power evaluation, a minimal reverse-mode autodiff engine, the
visual-cued DPRNN extraction network, and a training/evaluation harness.
"""

from .dsp import AudioClip, energy
from .losses import LossWeights, loss_differentiated
from .metrics import eval_report, power_db_per_s, si_sdr
from .mixsim import (MixtureRecord, MixtureSpec, SimConfig, apply_occlusion,
                     corpus_stats, iter_overlapped_corpus, simulate_general)
from .model import UsevConfig, UsevNet
from .scenario import (ScenarioTrack, classify_clip, clip_bucket,
                       label_scenarios, overlap_bucket, overlap_ratio)
from .synth import SyntheticUtterance, UtteranceBank, gen_utterance

__version__ = "0.1.0"
