"""A tour of the autodiff engine and its finite-difference verification.

Shows the Tensor graph on a toy expression, the chunk segmentation round
trip used by the dual-path extractor, and the gradient-check report over
every operator (a few seeds here; the acceptance suite runs 20).
"""

import numpy as np

from usev import autodiff as ad
from usev.gradcheck import format_report, run_gradcheck

# A scalar loss through a few ops; backward fills .grad on the leaves.
x = ad.Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
w = ad.Tensor(np.array([[0.2, 0.1], [-0.3, 0.4]]), requires_grad=True)
b = ad.Tensor(np.array([0.1, -0.2]), requires_grad=True)
z = ad.linear(x, w, b)  # x @ w + b as one node
loss = (ad.log(z * z + 1.0) * ad.relu(x)).sum()
loss.backward()
print("toy loss:", loss.item())
print("dloss/dx:\n", x.grad)
print("dloss/dw:\n", w.grad)
print("dloss/db:", b.grad)

# Chunk segmentation: split [B, T] into half-overlapping chunks and invert
# exactly (overlap-add, halved: every sample lies under two chunks).
sig = ad.Tensor(np.arange(22.0).reshape(2, 11))
chunks = ad.segment_chunks(sig, 6)
back = ad.aggregate_chunks(chunks, 11)
print("\nchunks shape:", chunks.shape,
      "(P = 2*ceil(T/hop)/2 + 1 on the padded grid)")
print("round-trip max error:", np.max(np.abs(back.data - sig.data)))

# The bidirectional LSTM is one fused node over the whole sequence:
# T=6 steps, a batch of 3, 4 input features, hidden size 5 per direction.
rng = np.random.default_rng(0)
weights = [ad.Tensor(rng.standard_normal(shape) * 0.3, requires_grad=True)
           for shape in ((4, 20), (5, 20), (20,)) * 2]
seq = ad.bilstm(ad.Tensor(rng.standard_normal((6, 3, 4))), *weights)
print("\nbilstm output:", seq.shape, "graph nodes:", len(ad.toposort(seq)),
      "(the op plus its 6 weight leaves)")

print("\nfinite-difference check of every operator (3 seeds):")
print(format_report(run_gradcheck(scope="ops", seeds=3)))
