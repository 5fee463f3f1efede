"""Minimal reverse-mode autodiff over dense float64 tensors.

A Tensor records the operator that produced it and links to its parents, so
the graph lives implicitly in the tensors. backward() on a scalar walks the
graph once in reverse topological order, running each node's backward rule
once. An interior node's gradient is freed as soon as its rule has passed it
on, so after backward() only leaves hold gradients, and they accumulate over
calls.

Only the operators the extractor network needs are provided; there is no
GPU path and broadcasting is limited to what numpy does elementwise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .dsp import add_frames, gather_frames

LN_EPS = 1e-8  # layer-norm variance stabilizer
# Multiply-adds of one direction's recurrent GEMM per step (batch * H * 4H)
# from which bilstm runs its two directions on two threads; below it a
# thread costs more than it overlaps (crossover table in CHANGES.md).
BILSTM_THREAD_MACS = 2_000_000


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self.op = "leaf"

    # -- structure ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, grad={self.requires_grad})"

    # -- autograd ----------------------------------------------------------

    def backward(self):
        """Reverse-mode accumulation from this scalar into every ancestor.

        Each node with a backward rule drops its gradient once the rule has
        run, so the walk holds only the gradients still to be passed on, and
        a second call on the same graph adds exactly the same leaf gradients
        again. Leaves keep theirs and accumulate them."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.shape}")
        order = toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def sum(self, axis=None, keepdims=False):
        return ssum(self, axis=axis, keepdims=keepdims)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn, op: str) -> Tensor:
    """Internal graph node; collapses to a constant when no parent needs grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out.op = op
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(np.broadcast_to(g, t.data.shape))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def toposort(root: Tensor) -> list[Tensor]:
    """Ancestors of `root` in topological order (iterative; graphs run deep)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, i = stack.pop()
        if i == 0:
            if id(node) in visited:
                continue
            visited.add(id(node))
        if i < len(node._parents):
            stack.append((node, i + 1))
            parent = node._parents[i]
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, 0))
        else:
            order.append(node)
    return order


# -- elementwise arithmetic --------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data + b.data

    def bwd(g):
        _acc(a, _unbroadcast(g, a.shape))
        _acc(b, _unbroadcast(g, b.shape))

    return _node(out_data, (a, b), bwd, "add")


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data - b.data

    def bwd(g):
        _acc(a, _unbroadcast(g, a.shape))
        _acc(b, _unbroadcast(-g, b.shape))

    return _node(out_data, (a, b), bwd, "sub")


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data * b.data

    def bwd(g):
        _acc(a, _unbroadcast(g * b.data, a.shape))
        _acc(b, _unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), bwd, "mul")


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out_data = a.data / b.data

    def bwd(g):
        _acc(a, _unbroadcast(g / b.data, a.shape))
        _acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(out_data, (a, b), bwd, "div")


def log(a) -> Tensor:
    a = _coerce(a)
    out_data = np.log(a.data)

    def bwd(g):
        _acc(a, g / a.data)

    return _node(out_data, (a,), bwd, "log")


def log10(a) -> Tensor:
    return mul(log(a), 1.0 / np.log(10.0))


# -- activations --------------------------------------------------------------

def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0

    def bwd(g):
        _acc(a, g * mask)

    return _node(a.data * mask, (a,), bwd, "relu")


def prelu(a, slope) -> Tensor:
    """Parametric relu with a single learned slope on the negative side."""
    a, slope = _coerce(a), _coerce(slope)
    pos = a.data > 0
    out_data = np.where(pos, a.data, slope.data * a.data)

    def bwd(g):
        _acc(a, g * np.where(pos, 1.0, slope.data))
        _acc(slope, np.sum(g * np.where(pos, 0.0, a.data)).reshape(slope.shape))

    return _node(out_data, (a, slope), bwd, "prelu")


# -- shape and indexing -------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    old = a.shape

    def bwd(g):
        _acc(a, g.reshape(old))

    return _node(a.data.reshape(shape), (a,), bwd, "reshape")


def transpose(a, axes=None) -> Tensor:
    a = _coerce(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _acc(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), bwd, "transpose")


def index_select(a, axis: int, indices) -> Tensor:
    """Gather along one axis; repeated indices accumulate gradient."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.intp)
    out_data = np.take(a.data, idx, axis=axis)

    def bwd(g):
        da = np.zeros_like(a.data)
        np.add.at(np.moveaxis(da, axis, 0), idx, np.moveaxis(g, axis, 0))
        _acc(a, da)

    return _node(out_data, (a,), bwd, "index_select")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _acc(t, piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), bwd, "concat")


# -- reductions ----------------------------------------------------------------

def ssum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.shape).copy())

    return _node(out_data, (a,), bwd, "sum")


# -- linear algebra --------------------------------------------------------------

def linear(a, b, bias) -> Tensor:
    """a [..., K] @ b [K, M] + bias as one node: a's leading axes are the
    rows of one GEMM, and bias broadcasts against that [rows, M] product."""
    a, b, bias = _coerce(a), _coerce(b), _coerce(bias)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"linear needs [..., K] @ [K, M], got {a.shape} @ {b.shape}")
    a2 = a.data.reshape(-1, a.shape[-1])

    def bwd(g):
        g2 = g.reshape(a2.shape[0], -1)
        _acc(a, (g2 @ b.data.T).reshape(a.shape))
        _acc(b, a2.T @ g2)
        _acc(bias, _unbroadcast(g2, bias.shape))

    out = (a2 @ b.data + bias.data).reshape(a.shape[:-1] + (b.shape[1],))
    return _node(out, (a, b, bias), bwd, "linear")


def depthwise_conv1d(x, w, b) -> Tensor:
    """Per-channel cross-correlation with stride 1 and zero "same" padding.

    x: [C, T], w: [C, 1, k] with k odd, b: [C] -> [C, T]. Output t sums
    w[c, 0, i] * x[c, t + i - k//2] over the taps i, in tap order.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    channels, t_len = x.shape
    k = w.shape[-1]
    if w.shape != (channels, 1, k) or b.shape != (channels,):
        raise ValueError(f"depthwise conv needs w [C, 1, k] and b [C] for "
                         f"x {x.shape}, got w {w.shape}, b {b.shape}")
    if k % 2 == 0:
        raise ValueError(f"same padding needs an odd kernel, got {k}")
    half = k // 2
    xp = np.pad(x.data, ((0, 0), (half, half)))
    wd = w.data
    out_data = np.zeros((channels, t_len))
    for i in range(k):
        out_data += wd[:, 0, i : i + 1] * xp[:, i : i + t_len]
    out_data = out_data + b.data[:, None]

    def bwd(g):
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for i in range(k):
                dxp[:, i : i + t_len] += wd[:, 0, i : i + 1] * g
            _acc(x, dxp[:, half : half + t_len])
        if w.requires_grad:
            dw = np.zeros_like(wd)
            for i in range(k):
                dw[:, 0, i] = np.sum(g * xp[:, i : i + t_len], axis=1)
            _acc(w, dw)
        _acc(b, g.sum(axis=1))

    return _node(out_data, (x, w, b), bwd, "depthwise_conv1d")


# -- normalization -----------------------------------------------------------------

def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over axis 0 (channels) with learned gain/bias, as one node:
    x [C, ...], gain and bias [C, 1, ...]. An all-zero slice normalizes to
    zero before gain/bias, since LN_EPS keeps the division finite. With
    x_hat = centered / std, gw = g * gain and means over axis 0, backward is
    dx = (gw - mean(gw) - x_hat * mean(gw * x_hat)) / std.
    """
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    inv_n = 1.0 / x.shape[0]
    centered = x.data - x.data.sum(axis=0, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=0, keepdims=True) * inv_n + LN_EPS)
    normed = centered / std

    def bwd(g):
        if x.requires_grad:
            gw = g * gain.data
            mean_gw = gw.sum(axis=0, keepdims=True) * inv_n
            mean_gwx = (gw * normed).sum(axis=0, keepdims=True) * inv_n
            _acc(x, (gw - mean_gw - normed * mean_gwx) / std)
        _acc(gain, _unbroadcast(g * normed, gain.shape))
        _acc(bias, _unbroadcast(g, bias.shape))

    return _node(normed * gain.data + bias.data, (x, gain, bias), bwd, "layer_norm")


# -- recurrence ----------------------------------------------------------------------

def bilstm(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b) -> Tensor:
    """Bidirectional LSTM over the leading time axis, as one graph node.

    x: [T, F] or [T, batch, F]; wx: [F, 4H], wh: [H, 4H], b: [4H]; gate
    order i, f, g, o; zero initial states. The output concatenates the two
    directions per step -> [T, 2H] or [T, batch, 2H]. One loop over step s
    runs both directions as a batch of two; direction 1 reads time T-1-s.
    When a step's recurrent GEMM reaches BILSTM_THREAD_MACS, direction 1
    runs that loop on a worker thread while the caller runs direction 0:
    the same numpy calls per direction into disjoint slices, so the results
    are bit-identical. Gates and cell states are taped only when some input
    needs a gradient. Backward runs BPTT by hand, then forms the input and
    weight gradients with one GEMM per direction over the whole sequence.
    """
    parents = tuple(_coerce(p) for p in (x, wx_f, wh_f, b_f, wx_b, wh_b, b_b))
    x = parents[0]
    xd = x.data.reshape(x.shape[0], -1, x.shape[-1])
    t_len, batch, feat = xd.shape
    hidden = parents[2].shape[0]
    wx = np.stack([parents[1].data, parents[4].data])  # [2, F, 4H]
    wh = np.stack([parents[2].data, parents[5].data])  # [2, H, 4H]
    b = np.stack([parents[3].data, parents[6].data])[:, None, :]  # [2, 1, 4H]
    xs = np.stack([xd, xd[::-1]])  # [2, T, batch, F], in step order
    taped = any(p.requires_grad for p in parents)
    if taped:
        gates = np.empty((2, t_len, batch, 4 * hidden))
        cells = np.empty((2, t_len, batch, hidden))
        tanh_cells = np.empty((2, t_len, batch, hidden))
    gi, gf, gg, go = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    out = np.empty((t_len, batch, 2 * hidden))
    out_steps = (out[:, :, :hidden], out[::-1, :, hidden:])  # each in step order

    def run(ds: slice) -> None:
        writes = list(enumerate(out_steps[ds]))
        xs_d, wx_d, wh_d, b_d = xs[ds], wx[ds], wh[ds], b[ds]
        h = c = np.zeros((len(writes), batch, hidden))
        for s in range(t_len):
            z = np.matmul(xs_d[:, s], wx_d)
            z += np.matmul(h, wh_d)
            z += b_d
            act = 1.0 / (1.0 + np.exp(-z))
            act[..., gg] = np.tanh(z[..., gg])
            c = act[..., gf] * c + act[..., gi] * act[..., gg]
            tanh_c = np.tanh(c)
            h = act[..., go] * tanh_c
            for k, o_steps in writes:
                o_steps[s] = h[k]
            if taped:
                gates[ds, s] = act
                cells[ds, s] = c
                tanh_cells[ds, s] = tanh_c

    if batch * hidden * 4 * hidden < BILSTM_THREAD_MACS:
        run(slice(0, 2))
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            worker = pool.submit(run, slice(1, 2))
            run(slice(0, 1))
            worker.result()

    def bwd(grad):
        grad = grad.reshape(out.shape)
        d_out = np.stack([grad[:, :, :hidden], grad[::-1, :, hidden:]])
        i, f, g, o = (gates[..., k] for k in (gi, gf, gg, go))
        c_prev = np.zeros_like(cells)
        c_prev[:, 1:] = cells[:, :-1]
        # dZ = [dc, dc, dc, dh] * coef, gate by gate, with
        # dc = dc_next * f_next + dh * o * (1 - tanh(c)^2).
        coef = np.empty((2, t_len, batch, 4, hidden))
        coef[..., 0, :] = g * i * (1.0 - i)
        coef[..., 1, :] = c_prev * f * (1.0 - f)
        coef[..., 2, :] = i * (1.0 - g * g)
        coef[..., 3, :] = tanh_cells * o * (1.0 - o)
        d_cell = o * (1.0 - tanh_cells * tanh_cells)
        dz = np.empty_like(gates)
        dz4 = dz.reshape(coef.shape)
        wh_t = wh.transpose(0, 2, 1)
        dc = dh_next = np.zeros((2, batch, hidden))
        for s in range(t_len - 1, -1, -1):
            dh = d_out[:, s] + dh_next
            dc = dc + dh * d_cell[:, s]
            np.multiply(coef[:, s, :, :3], dc[:, :, None], out=dz4[:, s, :, :3])
            np.multiply(coef[:, s, :, 3], dh, out=dz4[:, s, :, 3])
            dh_next = np.matmul(dz[:, s], wh_t)
            dc = dc * f[:, s]
        dz_flat = dz.reshape(2, t_len * batch, 4 * hidden)
        dxs = np.matmul(dz_flat, wx.transpose(0, 2, 1)).reshape(xs.shape)
        _acc(x, (dxs[0] + dxs[1, ::-1]).reshape(x.shape))
        h_prev = np.zeros((2, t_len, batch, hidden))
        h_prev[0, 1:] = out[:-1, :, :hidden]
        h_prev[1, 1:] = out[:0:-1, :, hidden:]
        dwx = np.matmul(xs.reshape(2, -1, feat).transpose(0, 2, 1), dz_flat)
        dwh = np.matmul(h_prev.reshape(2, -1, hidden).transpose(0, 2, 1), dz_flat)
        db = dz_flat.sum(axis=1)
        for d in range(2):
            _acc(parents[1 + 3 * d], dwx[d])
            _acc(parents[2 + 3 * d], dwh[d])
            _acc(parents[3 + 3 * d], db[d])

    return _node(out.reshape(x.shape[:-1] + (2 * hidden,)), parents, bwd, "bilstm")


# -- chunking for dual-path processing --------------------------------------------------

def chunk_geometry(t_len: int, chunk: int) -> tuple[int, int, int, int]:
    """(hop, gap, padded_total, num_chunks) for splitting t_len into chunks.

    hop = chunk/2; the signal gets `gap` zeros appended to land on the hop
    grid plus `hop` zeros at both ends, after which num_chunks = padded/hop - 1.
    On exact-fit lengths this matches num_chunks = 2*t_len/chunk + 1.
    """
    if chunk < 2 or chunk % 2:
        raise ValueError(f"chunk size must be even and >= 2, got {chunk}")
    if t_len < 1:
        raise ValueError("cannot chunk an empty sequence")
    hop = chunk // 2
    n_hops = -(-t_len // hop)
    gap = n_hops * hop - t_len
    total = t_len + gap + 2 * hop
    return hop, gap, total, n_hops + 1


def segment_chunks(x, chunk: int) -> Tensor:
    """Split x [B, T] into half-overlapping chunks -> [B, chunk, P]."""
    x = _coerce(x)
    if x.ndim != 2:
        raise ValueError(f"segment_chunks expects [B, T], got {x.shape}")
    t_len = x.shape[1]
    hop, gap, _, _ = chunk_geometry(t_len, chunk)
    xp = np.pad(x.data, ((0, 0), (hop, hop + gap)))

    def bwd(g):
        _acc(x, add_frames(g.transpose(0, 2, 1), hop)[:, hop : hop + t_len])

    return _node(_chunk_gather(xp, chunk), (x,), bwd, "segment_chunks")


def aggregate_chunks(y, out_len: int) -> Tensor:
    """Inverse of segment_chunks: overlap-add back to [B, out_len], halved,
    since every kept position lies under exactly two chunks."""
    y = _coerce(y)
    if y.ndim != 3:
        raise ValueError(f"aggregate_chunks expects [B, K, P], got {y.shape}")
    _, chunk, num = y.shape
    hop, gap, _, expected = chunk_geometry(out_len, chunk)
    if num != expected:
        raise ValueError(
            f"{num} chunks of size {chunk} do not aggregate to length {out_len}"
        )
    out_data = add_frames(y.data.transpose(0, 2, 1), hop)[:, hop : hop + out_len] * 0.5

    def bwd(g):
        ge = np.pad(g * 0.5, ((0, 0), (hop, hop + gap)))
        _acc(y, _chunk_gather(ge, chunk))

    return _node(out_data, (y,), bwd, "aggregate_chunks")


def _chunk_gather(xp: np.ndarray, chunk: int) -> np.ndarray:
    """[B, total] -> [B, chunk, P] half-overlapping chunks. C-contiguous on
    purpose: a transposed view holds the same values, but BLAS then rounds
    the downstream products differently."""
    return np.ascontiguousarray(gather_frames(xp, chunk, chunk // 2).transpose(0, 2, 1))


def overlap_add_frames(frames, hop: int, out_len: int) -> Tensor:
    """Overlap-add the T columns of frames [L, T] at `hop` into a waveform of
    out_len samples, zero past the (T-1)*hop + L the frames cover; the
    decoder's OnA. A shorter out_len is an error."""
    frames = _coerce(frames)
    flen, num = frames.shape
    n = (num - 1) * hop + flen
    if n > out_len:
        raise ValueError(f"decoder overlap-add gives {n} samples, more "
                         f"than the requested {out_len}")
    out = np.zeros(out_len)
    out[:n] = add_frames(frames.data.T, hop)

    def bwd(g):
        _acc(frames, gather_frames(g[:n], flen, hop).T)

    return _node(out, (frames,), bwd, "overlap_add")


@contextmanager
def no_grad(tensors):
    """Temporarily clear requires_grad; ops then fold to constants, so
    inference forwards build no graph."""
    tensors = list(tensors)
    flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, f in zip(tensors, flags):
            t.requires_grad = f


# -- optimization -------------------------------------------------------------------------

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and the usual beta and eps constants."""

    def __init__(self, params, lr: float):
        self.params = [p for p in params if p.requires_grad]
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
