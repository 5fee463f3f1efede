"""The extraction network: speech encoder, visual adaptor, DPRNN masker, decoder.

Feature maps are channel-major [C, T]. The visual front-end is a frozen
linear projection of the synthetic viseme features (standing in for a
pretrained lip encoder), adapted by trainable V-TCN blocks and upsampled to
the speech frame rate. The masker is a dual-path stack: intra-chunk and
inter-chunk BLSTMs with residual connections over half-overlapping chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import VISEME_FPS, gather_frames


@dataclass
class UsevConfig:
    """Architecture hyperparameters; defaults are the desk-scale setup."""

    sample_rate: int = 8000
    encoder_dim: int = 64  # N: speech embedding channels
    kernel_len: int = 40  # L: encoder kernel, stride L/2
    bottleneck: int = 16  # B: extractor channel width
    repeats: int = 2  # R: DPRNN block count
    chunk: int = 16  # K: chunk length (hop K/2)
    vtcn_repeats: int = 5
    visual_dim: int = 8  # D_v: viseme feature size

    def __post_init__(self):
        if self.kernel_len % 2 or self.kernel_len < 2:
            raise ValueError("encoder kernel_len must be even and positive")
        if self.chunk % 2 or self.chunk < 2:
            raise ValueError("chunk size must be even and positive")
        for f in ("encoder_dim", "bottleneck", "repeats", "vtcn_repeats", "visual_dim"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")
        if self.sample_rate <= 0 or self.sample_rate % VISEME_FPS:
            raise ValueError(f"sample_rate must be a positive multiple of "
                             f"{VISEME_FPS}, got {self.sample_rate}")

    @property
    def hop(self) -> int:
        return self.kernel_len // 2

    @classmethod
    def full_scale(cls) -> "UsevConfig":
        return cls(sample_rate=16000, encoder_dim=256, kernel_len=40,
                   bottleneck=64, repeats=6, chunk=100, visual_dim=8)

    def num_frames(self, n_samples: int) -> int:
        if n_samples < self.kernel_len:
            raise ValueError(
                f"clip of {n_samples} samples is shorter than the encoder "
                f"kernel ({self.kernel_len})")
        return (n_samples - self.kernel_len) // self.hop + 1


def _layout(cfg: UsevConfig) -> dict[str, tuple]:
    """Every parameter in creation order: name -> (shape, trainable, init),
    where init(rng) returns the initial array. Only uniform inits draw."""
    specs = {}

    def const(name, value):
        value = np.asarray(value, dtype=np.float64)
        specs[name] = (value.shape, True, lambda rng: value)

    def uniform(name, shape, fan_in, trainable=True):
        limit = 1.0 / np.sqrt(fan_in)
        specs[name] = (shape, trainable,
                       lambda rng: rng.uniform(-limit, limit, size=shape))

    def ln(name, channels, extra_dims=1):
        shape = (channels,) + (1,) * extra_dims
        const(f"{name}.gain", np.ones(shape))
        const(f"{name}.bias", np.zeros(shape))

    def lstm(name, in_dim, hidden):
        for d in ("f", "b"):
            uniform(f"{name}.wx_{d}", (in_dim, 4 * hidden), in_dim)
            uniform(f"{name}.wh_{d}", (hidden, 4 * hidden), hidden)
            bias = np.zeros(4 * hidden)
            bias[hidden : 2 * hidden] = 1.0  # forget gate starts open
            const(f"{name}.b_{d}", bias)

    n, b, l = cfg.encoder_dim, cfg.bottleneck, cfg.kernel_len
    uniform("enc.w", (n, 1, l), l)
    const("enc.b", np.zeros(n))

    # Frozen stand-in for a pretrained lip-embedding front-end.
    uniform("vis.proj", (cfg.visual_dim, n), cfg.visual_dim, trainable=False)
    for v in range(cfg.vtcn_repeats):
        p = f"vtcn{v}"
        ln(f"{p}.ln1", n)
        uniform(f"{p}.lin1.w", (2 * n, n), n)
        const(f"{p}.lin1.b", np.zeros((2 * n, 1)))
        ln(f"{p}.ln2", 2 * n)
        uniform(f"{p}.conv.w", (2 * n, 1, 3), 3)
        const(f"{p}.conv.b", np.zeros(2 * n))
        ln(f"{p}.ln3", 2 * n)
        uniform(f"{p}.lin2.w", (n, 2 * n), 2 * n)
        const(f"{p}.lin2.b", np.zeros((n, 1)))

    ln("ext.ln_in", n)
    uniform("ext.lin1.w", (b, n), n)
    const("ext.lin1.b", np.zeros((b, 1)))
    uniform("ext.lin2.w", (b, b + n), b + n)
    const("ext.lin2.b", np.zeros((b, 1)))

    hidden = 2 * b
    for r in range(cfg.repeats):
        for path in ("intra", "inter"):
            p = f"dprnn{r}.{path}"
            lstm(f"{p}.lstm", b, hidden)
            uniform(f"{p}.lin.w", (4 * b, b), 4 * b)
            const(f"{p}.lin.b", np.zeros(b))
            ln(f"{p}.ln", b, extra_dims=2)

    const("ext.prelu", np.array(0.25))
    uniform("ext.lin5.w", (n, b), b)
    const("ext.lin5.b", np.zeros((n, 1)))

    uniform("dec.w", (l, n), n)
    const("dec.b", np.zeros((l, 1)))
    return specs


class UsevNet:
    """Extractor network; owns named parameter tensors and a config."""

    def __init__(self, cfg: UsevConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {
            name: Tensor(init(rng), requires_grad=trainable)
            for name, (_, trainable, init) in _layout(cfg).items()}

    @classmethod
    def from_state_dict(cls, cfg: UsevConfig,
                        state: dict[str, np.ndarray]) -> "UsevNet":
        """A net holding copies of state's arrays, built without drawing an
        initialisation; names and shapes must match cfg's layout."""
        layout = _layout(cfg)
        missing = set(layout) - set(state)
        extra = set(state) - set(layout)
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
        params = {}
        for k, (shape, trainable, _) in layout.items():
            arr = np.array(state[k], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"shape mismatch for {k}: checkpoint "
                                 f"{arr.shape} vs model {shape}")
            params[k] = Tensor(arr, requires_grad=trainable)
        net = cls.__new__(cls)
        net.cfg, net.params = cfg, params
        return net

    # -- parameter access ----------------------------------------------------

    def trainable_params(self) -> list[Tensor]:
        return [t for t in self.params.values() if t.requires_grad]

    def param_count(self, trainable_only: bool = False) -> int:
        return sum(t.size for t in self.params.values()
                   if t.requires_grad or not trainable_only)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.params.items()}

    # -- building blocks -------------------------------------------------------

    def _layer_norm(self, x, name) -> Tensor:
        return ad.layer_norm(x, self.params[f"{name}.gain"],
                             self.params[f"{name}.bias"])

    def _vtcn_block(self, x, prefix: str) -> Tensor:
        t = self._layer_norm(ad.relu(x), f"{prefix}.ln1")
        t = ad.linear(self.params[f"{prefix}.lin1.w"], t, self.params[f"{prefix}.lin1.b"])
        t = self._layer_norm(ad.relu(t), f"{prefix}.ln2")
        t = ad.depthwise_conv1d(t, self.params[f"{prefix}.conv.w"],
                                self.params[f"{prefix}.conv.b"])
        t = self._layer_norm(ad.relu(t), f"{prefix}.ln3")
        t = ad.linear(self.params[f"{prefix}.lin2.w"], t, self.params[f"{prefix}.lin2.b"])
        return x + t

    def _dprnn_half(self, chunks, prefix: str, intra: bool) -> Tensor:
        # chunks: [B, K, P]; recur over K (intra) or P (inter).
        seq = ad.transpose(chunks, (1, 2, 0) if intra else (2, 1, 0))
        pr = self.params
        out = ad.bilstm(seq,
                        pr[f"{prefix}.lstm.wx_f"], pr[f"{prefix}.lstm.wh_f"],
                        pr[f"{prefix}.lstm.b_f"],
                        pr[f"{prefix}.lstm.wx_b"], pr[f"{prefix}.lstm.wh_b"],
                        pr[f"{prefix}.lstm.b_b"])
        back = ad.linear(out, pr[f"{prefix}.lin.w"], pr[f"{prefix}.lin.b"])
        back = ad.transpose(back, (2, 0, 1) if intra else (2, 1, 0))
        return chunks + self._layer_norm(back, f"{prefix}.ln")

    # -- network stages -----------------------------------------------------------

    def speech_encode(self, samples) -> Tensor:
        """Waveform -> nonnegative embeddings [N, T]: the length-L, stride-L/2
        convolution written as relu(W @ frames^T + b). The frames are a
        constant; the waveform never needs a gradient."""
        x = np.asarray(samples, dtype=np.float64)
        self.cfg.num_frames(len(x))  # raises on too-short input
        frames = gather_frames(x, self.cfg.kernel_len, self.cfg.hop)  # [T, L]
        w = ad.reshape(self.params["enc.w"], (-1, self.cfg.kernel_len))
        b = ad.reshape(self.params["enc.b"], (-1, 1))
        return ad.relu(ad.linear(w, Tensor(frames.T), b))

    def visual_encode(self, viseme_frames, t_target: int) -> Tensor:
        """Viseme frames [F, D_v] -> embeddings [N, t_target] in speech time."""
        frames = np.asarray(viseme_frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(f"viseme stream must be [frames, dim], got {frames.shape}")
        if frames.shape[1] != self.cfg.visual_dim:
            raise ValueError(f"viseme dim {frames.shape[1]} != config "
                             f"{self.cfg.visual_dim}")
        v = Tensor((frames @ self.params["vis.proj"].data).T)
        for i in range(self.cfg.vtcn_repeats):
            v = self._vtcn_block(v, f"vtcn{i}")
        # Nearest-neighbor upsampling onto the speech frame grid.
        idx = np.minimum(np.arange(t_target) * (self.cfg.hop * VISEME_FPS)
                         // self.cfg.sample_rate, frames.shape[0] - 1)
        return ad.index_select(v, axis=1, indices=idx)

    def extract_mask(self, speech_emb: Tensor, visual_emb: Tensor) -> Tensor:
        """Estimate the nonnegative mask [N, T] from speech + visual cues."""
        if speech_emb.shape != visual_emb.shape:
            raise ValueError(f"embedding shapes differ: {speech_emb.shape} "
                             f"vs {visual_emb.shape}")
        t_len = speech_emb.shape[1]
        pr = self.params
        x = self._layer_norm(speech_emb, "ext.ln_in")
        x = ad.linear(pr["ext.lin1.w"], x, pr["ext.lin1.b"])
        x = ad.concat([x, visual_emb], axis=0)
        x = ad.linear(pr["ext.lin2.w"], x, pr["ext.lin2.b"])
        chunks = ad.segment_chunks(x, self.cfg.chunk)
        for r in range(self.cfg.repeats):
            chunks = self._dprnn_half(chunks, f"dprnn{r}.intra", intra=True)
            chunks = self._dprnn_half(chunks, f"dprnn{r}.inter", intra=False)
        x = ad.aggregate_chunks(chunks, t_len)
        x = ad.prelu(x, pr["ext.prelu"])
        x = ad.linear(pr["ext.lin5.w"], x, pr["ext.lin5.b"])
        return ad.relu(x)

    def decode(self, masked_emb: Tensor, out_len: int) -> Tensor:
        """Embeddings [N, T] -> waveform [out_len] via frame overlap-add,
        zero-filled at the end. The T frames of an out_len-sample input
        cover at most out_len samples, so a longer overlap-add is an error."""
        frames = ad.linear(self.params["dec.w"], masked_emb, self.params["dec.b"])
        return ad.overlap_add_frames(frames, self.cfg.hop, out_len)

    def forward(self, samples, viseme_frames) -> Tensor:
        """Extract the target speaker; output length equals input length."""
        x = np.asarray(samples, dtype=np.float64)
        speech = self.speech_encode(x)
        visual = self.visual_encode(viseme_frames, speech.shape[1])
        mask = self.extract_mask(speech, visual)
        return self.decode(speech * mask, len(x))
