"""The scenario-aware differentiated loss on a crafted heterogeneous clip.

Builds a clip holding all four pairing kinds, then shows how the uniform
loss blurs them together while the differentiated loss scores each kind
with its own objective and weight, and how the gradient respects the
scenario boundaries exactly.
"""

import numpy as np

from usev import autodiff as ad
from usev.losses import (LossWeights, loss_differentiated,
                         tensor_loss_differentiated, tensor_loss_energy,
                         tensor_loss_sdr, tensor_loss_uniform)
from usev.scenario import label_scenarios

rng = np.random.default_rng(0)
sr = 8000
n = 4 * sr

# target speaks in [0, 2 s); interference speaks in [1 s, 3 s)
target_mask = np.arange(n) < 2 * sr
interf_mask = (np.arange(n) >= sr) & (np.arange(n) < 3 * sr)
track = label_scenarios(target_mask, interf_mask)
print("scenario track (start, end, kind) in samples:", track.to_triples())

target = np.where(target_mask, rng.standard_normal(n) * 0.1, 0.0)
interf = np.where(interf_mask, rng.standard_normal(n) * 0.1, 0.0)
mixture = target + interf

# An estimate that reconstructs speech well but leaks interference a little.
est = target + 0.2 * interf

# A builder evaluated on a constant Tensor folds to a value; no graph is kept.
uniform = tensor_loss_uniform(ad.Tensor(est), target).item()
print(f"\nuniform loss of the estimate:        {uniform:8.3f}")
print(f"differentiated loss (default weights): "
      f"{loss_differentiated(est, target, track):8.3f}")
for kind in ("QQ", "SQ", "SS", "QS"):
    m = track.kind_mask(kind)
    if kind in ("SQ", "SS"):
        val = tensor_loss_sdr(ad.Tensor(est[m]), target[m]).item()
        print(f"  {kind}: sdr loss      {val:8.3f}")
    else:
        val = tensor_loss_energy(ad.Tensor(est[m])).item()
        print(f"  {kind}: energy loss   {val:8.3f}")

# Gradient selectivity: zeroing the quiet-kind weights removes every bit of
# gradient from QQ/QS samples -- exactly, not approximately.
est_t = ad.Tensor(est, requires_grad=True)
loss = tensor_loss_differentiated(est_t, target, track,
                                  LossWeights(0.0, 1.0, 1.0, 0.0))
loss.backward()
quiet = track.kind_mask("QQ") | track.kind_mask("QS")
print(f"\nwith alpha=delta=0: max |grad| on QQ/QS samples = "
      f"{np.max(np.abs(est_t.grad[quiet]))}")
print(f"                    max |grad| on SQ/SS samples = "
      f"{np.max(np.abs(est_t.grad[~quiet])):.3e}")
