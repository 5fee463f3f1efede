"""Spans around the public functions of usev, installed from outside.

A Tracer keeps every span in memory as (name, start, end, parent) and writes
them out when the run ends. `install` swaps each traced module attribute for
a wrapper that opens a span, calls the original and closes the span; the
returned callable puts the originals back. Nothing under src/ changes: the
wrappers only time calls the program already makes, so traced and untraced
rounds must write the same bytes.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self._stack.pop()
        self.spans[idx][2] = _clock()

    def wrap(self, fn, name: str, after=None):
        """Wrapper timing fn as span `name`; after(args, result) runs once the
        span is closed, so its bookkeeping is charged to the parent."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- aggregation ------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0,
                                    "end": t1, "parent": parent}) + "\n")


def install(tracer: Tracer):
    """Wrap the public functions of every traced usev layer; returns the
    function that restores the originals."""
    from usev import audio_io, harness, metrics, mixsim, scenario, synth
    from usev import autodiff as ad
    from usev.model import UsevNet

    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, after=None):
        orig = getattr(owner, attr)
        patches.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(orig, name, after))

    def file_bytes(counter):
        def after(args, _result):
            tracer.counts[counter] += os.path.getsize(args[0])
        return after

    # Checkpoint I/O is reached through the harness's model save/load.
    patch(harness, "save_model", "checkpoint.save", file_bytes("checkpoint.bytes"))
    patch(harness, "load_model", "checkpoint.load")
    patch(harness, "tensor_loss_differentiated", "losses.loss_graph")
    for stage in ("speech_encode", "visual_encode", "extract_mask", "decode"):
        patch(UsevNet, stage, f"model.{stage}")

    # One training step runs from zero_grad through the Adam step.
    step_span = []
    step_order = []  # the step's graph, as ad.toposort listed it
    zero_grad, adam_step = ad.Adam.zero_grad, ad.Adam.step

    def traced_zero_grad(self):
        step_span.append(tracer.open("harness.train_step"))
        zero_grad(self)

    traced_adam = tracer.wrap(adam_step, "autodiff.adam_step")

    def traced_step(self):
        traced_adam(self)
        tracer.close(step_span.pop())
        tracer.counts["train.steps"] += 1
        if step_order:
            order = step_order.pop()
            ops = Counter(node.op for node in order)
            tracer.counts["autodiff.graph_nodes"] += len(order)
            tracer.counts["autodiff.lstm_cell_nodes"] += ops["lstm_cell"]
            tracer.counts["autodiff.slice_nodes"] += ops["slice"]

    patches.append((ad.Adam, "zero_grad", zero_grad))
    patches.append((ad.Adam, "step", adam_step))
    ad.Adam.zero_grad = traced_zero_grad
    ad.Adam.step = traced_step

    # Tensor.backward looks toposort up in the module at call time; keep the
    # order it builds so the step's nodes are counted after the step closes.
    toposort = ad.toposort

    def kept_toposort(root):
        order = toposort(root)
        step_order[:] = [order]
        return order

    patches.append((ad, "toposort", toposort))
    ad.toposort = kept_toposort
    patch(ad.Tensor, "backward", "autodiff.backward")

    patch(synth, "gen_utterance", "synth.gen_utterance")
    patch(mixsim, "plan_clip", "mixsim.plan_clip")
    patch(mixsim, "simulate_general", "mixsim.simulate_general")
    patch(mixsim, "apply_occlusion", "mixsim.apply_occlusion")
    patch(mixsim, "write_visemes", "mixsim.write_visemes")
    patch(mixsim, "load_record", "mixsim.load_record")
    patch(mixsim, "corpus_stats", "mixsim.corpus_stats")
    label = tracer.wrap(scenario.label_scenarios, "scenario.label_scenarios")
    for owner in (scenario, mixsim):
        patches.append((owner, "label_scenarios", owner.label_scenarios))
        owner.label_scenarios = label
    patch(audio_io, "write_wav", "audio_io.write", file_bytes("audio_io.bytes_written"))
    patch(audio_io, "read_wav", "audio_io.read")
    for fn, name in (("eval_report", "metrics.eval_report"),
                     ("write_report", "metrics.write_report")):
        wrapped = tracer.wrap(getattr(metrics, fn), name)
        for owner in (metrics, harness):
            patches.append((owner, fn, getattr(owner, fn)))
            setattr(owner, fn, wrapped)

    def uninstall():
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)

    return uninstall
