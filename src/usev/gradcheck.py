"""Central finite-difference verification of every autodiff operator.

Each check builds a scalar loss through one operator (projected by a fixed
random weighting so all outputs matter), backpropagates, and compares the
analytic gradients against central differences at h=1e-6 in float64.
Inputs for kinked ops (relu/prelu) are kept away from zero so the finite
difference never straddles the kink. The tests plant wrong backward
rules (by wrapping `autodiff._node`) to show that each check can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .losses import LossWeights, tensor_loss_differentiated
from .model import UsevConfig, UsevNet
from .scenario import label_scenarios

FD_STEP = 1e-6
OP_TOL = 1e-5
MODEL_TOL = 1e-4


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise relative error with the denominator floored at 1% of the
    largest gradient magnitude, so FD noise on near-zero entries cannot
    dominate while scale errors anywhere still show."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(n), initial=0.0))
    if scale == 0.0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 0.01 * scale)
    return float(np.max(np.abs(a - n) / denom))


def _fd_gradients(build, arrays: dict) -> list[tuple]:
    """(analytic, central-difference) gradient of every array, in order.

    `build` maps {name: Tensor} to a scalar Tensor. The analytic pass gets
    tensors that require grad; each probe gets constants, one entry shifted.
    """
    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    build(tensors).backward()
    pairs = []
    for name, base in arrays.items():
        grad = tensors[name].grad
        numeric = np.zeros_like(base)
        flat = numeric.ravel()
        for i in range(base.size):
            for sign in (+1.0, -1.0):
                shifted = base.copy()
                shifted.ravel()[i] += sign * FD_STEP
                probe = {k: Tensor(v if k != name else shifted)
                         for k, v in arrays.items()}
                flat[i] += sign * build(probe).item()
        numeric /= 2.0 * FD_STEP
        pairs.append((np.zeros_like(base) if grad is None else grad, numeric))
    return pairs


def fd_check(build, arrays: dict) -> float:
    """Max relative error between backprop and central differences, taken
    array by array. `build` maps {name: Tensor} to a scalar Tensor."""
    return max(max_rel_err(a, n) for a, n in _fd_gradients(build, arrays))


def _projector(rng):
    """Fixed random projection to a scalar; weights are drawn once per shape
    so repeated loss evaluations (analytic pass, FD probes) agree."""
    cache: dict = {}

    def project(out: Tensor) -> Tensor:
        if out.shape not in cache:
            cache[out.shape] = Tensor(rng.standard_normal(out.shape))
        return (out * cache[out.shape]).sum()

    return project


def _away_from_zero(rng, shape, lo=0.2, hi=1.2):
    mag = rng.uniform(lo, hi, size=shape)
    return mag * rng.choice([-1.0, 1.0], size=shape)


def _op_check(case, seed: int) -> float:
    """The FD error of one OP_CHECKS entry at one seed. `case(rng)` draws
    the inputs and returns ({name: array}, graph), where graph(t, proj)
    builds the op on tensors t and reduces it to a scalar through proj,
    whose weights are drawn after the inputs."""
    rng = np.random.default_rng(seed)
    arrays, graph = case(rng)
    proj = _projector(rng)
    return fd_check(lambda t: graph(t, proj), arrays)


def _shapes_graph(t, proj):
    y = ad.transpose(ad.reshape(t["x"], (3, 8)), (1, 0))
    z = ad.concat([y, y * 2.0], axis=1)
    s = ad.concat([ad.ssum(z, axis=1), ad.reshape(t["x"], (24,))], axis=0)
    return (ad.ssum(z, axis=0) * 0.3).sum() + proj(s)


def _index_select_case(rng):
    x = rng.standard_normal((5, 8))
    idx = rng.integers(0, 8, size=11)
    return {"x": x}, lambda t, proj: proj(ad.index_select(t["x"], axis=1,
                                                          indices=idx))


# Each case draws its inputs in a fixed order, so a seed always checks the
# same values.
_OP_CASES = {
    "elementwise(add,sub,mul,div)": lambda rng: (
        {"a": rng.standard_normal((3, 4)),
         "b": rng.standard_normal((3, 4)),
         "c": rng.uniform(0.5, 2.0, size=(3, 1))},  # broadcast divisor
        lambda t, proj: proj(ad.div(ad.mul(ad.add(t["a"], t["b"]),
                                           ad.sub(t["a"], 0.5)), t["c"]))),
    "log": lambda rng: (
        {"x": rng.uniform(0.5, 2.0, size=(2, 5))},
        lambda t, proj: proj(ad.log(t["x"]))),
    "relu": lambda rng: (
        {"x": _away_from_zero(rng, (4, 6))},
        lambda t, proj: proj(ad.relu(t["x"]))),
    "prelu": lambda rng: (
        {"x": _away_from_zero(rng, (4, 6)), "a": np.array(rng.uniform(0.1, 0.5))},
        lambda t, proj: proj(ad.prelu(t["x"], t["a"]))),
    # Channels first, W [N, K] @ x [K, T] + b [N, 1]; DPRNN, x [T, P, K] @ W + b [N].
    "linear": lambda rng: (
        {"w": rng.standard_normal((5, 3)), "x": rng.standard_normal((3, 4)),
         "b": rng.standard_normal((5, 1)), "x3": rng.standard_normal((3, 2, 4)),
         "w3": rng.standard_normal((4, 5)), "b3": rng.standard_normal(5)},
        lambda t, proj: proj(ad.linear(t["w"], t["x"], t["b"]))
        + proj(ad.linear(t["x3"], t["w3"], t["b3"]))),
    "depthwise_conv1d": lambda rng: (
        {"x": rng.standard_normal((4, 9)),
         "w": rng.standard_normal((4, 1, 5)),
         "b": rng.standard_normal(4)},
        lambda t, proj: proj(ad.depthwise_conv1d(t["x"], t["w"], t["b"]))),
    # The V-TCN shape [C, T] and the DPRNN shape [C, K, P].
    "layer_norm": lambda rng: (
        {"x": rng.standard_normal((5, 7)),
         "g": rng.uniform(0.5, 1.5, size=(5, 1)),
         "b": rng.standard_normal((5, 1)),
         "x3": rng.standard_normal((4, 3, 5)),
         "g3": rng.uniform(0.5, 1.5, size=(4, 1, 1)),
         "b3": rng.standard_normal((4, 1, 1))},
        lambda t, proj: proj(ad.layer_norm(t["x"], t["g"], t["b"]))
        + proj(ad.layer_norm(t["x3"], t["g3"], t["b3"]))),
    "sum/reshape/transpose/concat": lambda rng: (
        {"x": rng.standard_normal((3, 4, 2))}, _shapes_graph),
    "index_select": _index_select_case,
    # T=5, batch 3, F=4 != H=2: exercises the reversed-direction indexing.
    "bilstm": lambda rng: (
        {"x": rng.standard_normal((5, 3, 4)),
         "wx_f": rng.standard_normal((4, 8)) * 0.5,
         "wh_f": rng.standard_normal((2, 8)) * 0.5,
         "b_f": rng.standard_normal(8) * 0.3,
         "wx_b": rng.standard_normal((4, 8)) * 0.5,
         "wh_b": rng.standard_normal((2, 8)) * 0.5,
         "b_b": rng.standard_normal(8) * 0.3},
        lambda t, proj: proj(ad.bilstm(*t.values()))),  # in the order above
    "segment/aggregate_chunks": lambda rng: (
        {"x": rng.standard_normal((2, 11)), "y": rng.standard_normal((2, 4, 7))},
        lambda t, proj: proj(ad.segment_chunks(t["x"], 4))
        + proj(ad.aggregate_chunks(t["y"], 11))),
    # Frames [L, T] = [6, 5] at hop 3 cover 18 samples. Drawn as [T, L] and
    # transposed, so each seed checks the frames it checked before the op
    # took the decoder's layout and its report figure stays comparable.
    "overlap_add_frames": lambda rng: (
        {"f": np.ascontiguousarray(rng.standard_normal((5, 6)).T)},
        lambda t, proj: proj(ad.overlap_add_frames(t["f"], 3, 18))),
}

# name -> check(seed) returning the max relative error for that seed.
OP_CHECKS = {name: partial(_op_check, case) for name, case in _OP_CASES.items()}


def micro_config() -> UsevConfig:
    """Tiny architecture for end-to-end finite-difference checks. With a
    bottleneck of 2 the DPRNN layer norms output about +-1 whatever their
    input, so almost no gradient would reach the BLSTMs; 3 lets it through."""
    return UsevConfig(sample_rate=8000, encoder_dim=4, kernel_len=4,
                      bottleneck=3, repeats=1, chunk=4, vtcn_repeats=2,
                      visual_dim=2)


def model_fd_check() -> float:
    """FD-verify the whole extractor + differentiated loss on a micro config.

    All trainable parameters are randomized first: the zero-initialized
    biases would otherwise park relu preactivations exactly on their kink,
    where a finite difference straddles the nondifferentiable point. The
    relative error is aggregated over all parameters at once so FD noise on
    the few near-zero gradients is judged against the overall gradient scale.
    """
    cfg = micro_config()
    rng = np.random.default_rng(0)
    model = UsevNet(cfg, seed=0)
    arrays = {name: rng.uniform(-0.6, 0.6, size=p.shape)
              for name, p in model.params.items() if p.requires_grad}
    n_frames = 8
    n = (n_frames - 1) * cfg.hop + cfg.kernel_len
    mix = rng.standard_normal(n)
    ref = rng.standard_normal(n)
    visemes = rng.uniform(0.1, 1.0, size=(2, cfg.visual_dim))
    half = n // 2
    track = label_scenarios(np.arange(n) < half + 3, np.arange(n) >= half - 3)
    weights = LossWeights(0.5, 1.0, 1.0, 0.5)

    def build(tensors: dict) -> Tensor:
        model.params.update(tensors)
        est = model.forward(mix, visemes)
        return tensor_loss_differentiated(est, ref, track, weights)

    pairs = _fd_gradients(build, arrays)
    return max_rel_err(np.concatenate([a.ravel() for a, _ in pairs]),
                       np.concatenate([n.ravel() for _, n in pairs]))


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


SCOPES = ("all", "ops", "model")


def run_gradcheck(scope: str = "all", seeds: int = 20) -> list[CheckResult]:
    """Run the op and/or model suites."""
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    results = []
    if scope in ("all", "ops"):
        for name, check in OP_CHECKS.items():
            err = max(check(s) for s in range(seeds))
            results.append(CheckResult(name, err, OP_TOL))
    if scope in ("all", "model"):
        err = model_fd_check()
        results.append(CheckResult("usev-micro-end-to-end", err, MODEL_TOL))
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<48} max_rel_err={r.max_err:.3e} "
                     f"tol={r.tol:.0e} {status}")
    overall = "PASS" if all(r.passed for r in results) else "FAIL"
    lines.append(f"{'overall':<48} {overall}")
    return "\n".join(lines)
